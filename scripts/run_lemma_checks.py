#!/usr/bin/env python3
"""Full verification sweep over several ramp angles; writes results/verify.csv."""
import argparse
import sys
from pathlib import Path

from cutdg.discretization import SchemeConfig
from cutdg.field import make_ramp_problem
from cutdg.verify import run_all


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["lemma_id,instances,max_ratio,pass"]
    ok = True
    for gamma in (5.0, 25.0, 45.0):
        problem = make_ramp_problem(gamma, 0.2001)
        reports = run_all(problem, SchemeConfig(epsilon=1.0 / 14.0),
                          n_values=(16, 32), seed=args.seed)
        for r in reports:
            r.lemma_id = f"gamma{gamma:g}/{r.lemma_id}"
            lines.append(r.csv_row())
            print(r.status_line())
            ok = ok and r.passed
    (outdir / "verify.csv").write_text("\n".join(lines) + "\n")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
