#!/usr/bin/env python3
"""cutdg benchmark entry point.

    python3 bench/run.py --workload ladder --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(`bench/workloads.py`) that imports the package from `src/` with the
BLAS/OpenMP thread counts pinned to 1; with `--trace 1` a second, traced
child runs the same workload and the traced figures are reported per layer,
with the tracing overhead against the untraced child.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it records the machine.  The full record, with
the per-pass times and any failures, goes to `bench/_out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run, both children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, trace: bool, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(trace)), "--size", args.size]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_info(env: dict, libs: dict) -> dict:
    """nproc, CPU model, caches, interpreter and library versions, thread settings."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        **libs,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("ladder", "march", "accumulate", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the smallest inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "cutdg" / "__init__.py").is_file():
        print(f"error: no cutdg sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        untraced = run_child(args, False, env, deadline)
        traced = run_child(args, True, env, deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    children = [untraced] + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if traced:
        values = dict(traced["per_layer"])
        values["untraced_wall_s"] = untraced["metrics"]["wall_s"]
        values["trace_overhead_s"] = values["traced_wall_s"] - values["untraced_wall_s"]
    else:
        values = untraced["metrics"]
    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    machine = machine_info(env, untraced["libs"])
    record = {"machine": machine, "children": children, "result": result}
    out = BENCH_DIR / "_out" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for child in children:
        for failure in child["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    print("machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
