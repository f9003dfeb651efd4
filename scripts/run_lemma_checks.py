#!/usr/bin/env python3
"""Full verification sweep over several ramp angles and a near-grid sliver
geometry; writes results/verify.csv."""
import argparse
import sys
from pathlib import Path

from cutdg.discretization import SchemeConfig
from cutdg.field import make_ramp_problem
from cutdg.verify import run_all

# (tag, angle in degrees, x0, n values): three angles at the study offset,
# and the 45-degree ramp 1e-10 past a grid node, whose cut cells include
# slivers of volume fraction below 1e-8
SWEEP = (
    ("gamma5", 5.0, 0.2001, (16, 32)),
    ("gamma25", 25.0, 0.2001, (16, 32)),
    ("gamma45", 45.0, 0.2001, (16, 32)),
    ("gamma45-sliver", 45.0, 0.2 + 1e-10, (20, 40)),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["lemma_id,instances,max_ratio,pass"]
    ok = True
    for tag, gamma, x0, n_values in SWEEP:
        problem = make_ramp_problem(gamma, x0)
        reports = run_all(problem, SchemeConfig(epsilon=1.0 / 14.0),
                          n_values=n_values, seed=args.seed)
        for r in reports:
            r.lemma_id = f"{tag}/{r.lemma_id}"
            lines.append(r.csv_row())
            print(r.status_line())
            ok = ok and r.passed
    (outdir / "verify.csv").write_text("\n".join(lines) + "\n")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
