#!/usr/bin/env python3
"""Record the reference errors the benchmark gates on, at seed 0.

    python3 bench/record_references.py

Run from the root of a checkout whose results are trusted (the acceptance
suite passes); it runs one pass of every gated workload at both sizes and
rewrites `bench/references.json`.  Re-record only when a change is meant to
move the errors, and say so with the change.
"""
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for size in ("full", "smoke"):
        for name in ("ladder", "march", "accumulate"):
            out = workloads.run(name, seed=0, seconds=0.0, trace=False, size=size, refs={})
            refs.setdefault(size, {})[name] = out["observed"]
            print(f"{size} {name}: {len(out['observed'])} ops recorded")
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
