#!/usr/bin/env python3
"""Convergence studies for all five ramp angles under both CFL choices.

Writes one CSV per (angle, CFL) pair into results/ and prints the fitted
orders over the last three refinements.  The full ladder up to n = 256
runs in about 15 s on a 2-core VM; pass --quick for a n <= 64 smoke run.
"""
import argparse
import sys
from pathlib import Path

from cutdg.cli import RunConfig, converge
from cutdg.field import make_ramp_problem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--quick", action="store_true", help="stop the ladder at n = 64")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n_list = [16, 32, 64] if args.quick else [16, 32, 64, 128, 256]

    for gamma in (5.0, 15.0, 25.0, 35.0, 45.0):
        binf = make_ramp_problem(gamma, 0.2001).velocity.inf_norm
        for label, factor in (("cfl5", 0.2), ("cfl2", 0.5)):
            cfg = RunConfig(
                gamma_deg=gamma, x0=0.2001, t_final=0.5, tau=1.0,
                cfl_epsilon=0.25, cfl_kappa=factor / binf,
                face_order=4, cell_degree=6, n=n_list[-1], n_list=n_list,
            )
            report = converge(cfg)
            path = outdir / f"convergence_gamma{gamma:g}_{label}.csv"
            path.write_text("\n".join(report.csv_lines()) + "\n")
            p_l2 = report.fitted_order("l2_error")
            p_beta = report.fitted_order("beta_semi_error")
            print(
                f"gamma={gamma:4.1f} dt={factor:g}*h/|b|  "
                f"order_l2={p_l2:.3f}  order_beta={p_beta:.3f}  -> {path}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
