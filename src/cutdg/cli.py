"""Command line front end: run, converge, verify, export.

Configuration comes from a flat key=value file plus command-line overrides
(CLI > file > defaults).  Exit codes: 0 success, 1 configuration error,
2 failed verification.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .discretization import DoDScheme, InvalidConfig, SchemeConfig
from .field import make_ramp_problem
from .norms import beta_seminorm, error_breakdown
from .quadrature import QuadratureConfig
from .verify import run_all
from .vtk_io import mesh_cell_data, write_vtk

_DEFAULTS = {
    "problem.kind": "ramp_paper",
    "problem.gamma_deg": 25.0,
    "problem.x0": 0.2001,
    "problem.t_final": 0.5,
    "scheme.tau": 1.0,
    "scheme.cfl_epsilon": 0.25,
    "scheme.cfl_kappa": None,
    "quad.face_order": 4,
    "quad.cell_degree": 6,
    "run.n": 32,
    "run.n_list": "16,32,64",
    "run.seed": 0,
    "run.out": "out",
    "run.accumulate": False,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Resolved configuration for one CLI invocation."""

    gamma_deg: float
    x0: float
    t_final: float
    tau: float
    cfl_epsilon: float
    cfl_kappa: float | None
    face_order: int
    cell_degree: int
    n: int
    n_list: list[int] = dc_field(default_factory=list)
    seed: int = 0
    out: str = "out"
    accumulate: bool = False

    def validate(self):
        if not 0.0 < self.gamma_deg < 90.0:
            raise ConfigError(f"gamma must lie in (0, 90) degrees, got {self.gamma_deg}")
        if not 0.0 <= self.x0 < 1.0:
            raise ConfigError(f"x0 must lie in [0, 1), got {self.x0}")
        if not 0.0 <= self.t_final < math.inf:
            raise ConfigError(f"t_final must be finite and nonnegative, got {self.t_final}")
        self.scheme_config()  # SchemeConfig checks tau, epsilon and cfl_kappa
        if self.n_list and any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError(f"n-list must be strictly increasing, got {self.n_list}")

    def problem(self):
        return make_ramp_problem(self.gamma_deg, self.x0, self.t_final)

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(
            tau=self.tau,
            epsilon=self.cfl_epsilon,
            cfl_kappa=self.cfl_kappa,
            quad=QuadratureConfig(self.face_order, self.cell_degree),
        )


@dataclass
class ConvergenceReport:
    rows: list[dict]
    metadata: dict

    def csv_lines(self) -> list[str]:
        header = "n,h,dt,l2_error,beta_semi_error,accumulated_seminorm,order_l2,order_beta"
        lines = [header]
        for r in self.rows:
            acc = "" if r["accumulated_seminorm"] is None else f"{r['accumulated_seminorm']:.16e}"
            ol = "" if r["order_l2"] is None else f"{r['order_l2']:.16e}"
            ob = "" if r["order_beta"] is None else f"{r['order_beta']:.16e}"
            lines.append(
                f"{r['n']},{r['h']:.16e},{r['dt']:.16e},"
                f"{r['l2_error']:.16e},{r['beta_semi_error']:.16e},{acc},{ol},{ob}"
            )
        return lines

    def fitted_order(self, key: str, last: int = 3) -> float:
        rows = self.rows[-last:]
        hs = np.log([r["h"] for r in rows])
        es = np.log([r[key] for r in rows])
        return float(np.polyfit(hs, es, 1)[0])


def parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _resolve(args, file_values: dict) -> RunConfig:
    unknown = sorted(set(file_values) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    def pick(key, cli_value, cast):
        if cli_value is not None:
            return cli_value
        if key in file_values:
            raw = file_values[key]
            if cast is bool:
                if raw.lower() not in _BOOLEANS:
                    raise ConfigError(f"{key} must be a boolean (1/0, true/false, yes/no, on/off), "
                                      f"got {raw!r}")
                return _BOOLEANS[raw.lower()]
            return cast(raw)
        return _DEFAULTS[key]

    kind = file_values.get("problem.kind", _DEFAULTS["problem.kind"])
    if kind != "ramp_paper":
        raise ConfigError(f"unknown problem.kind {kind!r}; only 'ramp_paper' is available")
    try:
        n_list_raw = pick("run.n_list", getattr(args, "n_list", None), str)
        n_list = [int(s) for s in str(n_list_raw).split(",") if s.strip()] if n_list_raw else []
        kappa = pick("scheme.cfl_kappa", getattr(args, "cfl_kappa", None), float)
        cfg = RunConfig(
            gamma_deg=pick("problem.gamma_deg", args.gamma, float),
            x0=pick("problem.x0", args.x0, float),
            t_final=pick("problem.t_final", args.t_final, float),
            tau=pick("scheme.tau", args.tau, float),
            cfl_epsilon=pick("scheme.cfl_epsilon", args.cfl_epsilon, float),
            cfl_kappa=None if kappa in (None, "") else float(kappa),
            face_order=pick("quad.face_order", args.quad_face_order, int),
            cell_degree=pick("quad.cell_degree", args.quad_cell_degree, int),
            n=pick("run.n", getattr(args, "n", None), int),
            n_list=n_list,
            seed=pick("run.seed", args.seed, int),
            out=pick("run.out", args.out, str),
            accumulate=pick("run.accumulate", getattr(args, "accumulate", None), bool),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def cmd_export(cfg: RunConfig) -> int:
    scheme = DoDScheme(cfg.problem(), cfg.scheme_config(), cfg.n)
    path = f"{cfg.out}_mesh.vtk"
    write_vtk(path, scheme.mesh, mesh_cell_data(scheme.mesh, scheme.records))
    print(f"wrote {path}: {scheme.mesh.n_cells} cells, {scheme.mesh.n_faces} faces, "
          f"{len(scheme.records)} stabilized")
    return 0


def cmd_run(cfg: RunConfig, diagnostics: bool = False) -> int:
    scheme = DoDScheme(cfg.problem(), cfg.scheme_config(), cfg.n)
    rows: list[str] = []

    def record(k, t, u, dt):
        if k >= 1:
            rows.append(f"{k},{t:.16e},{scheme.l2_norm(u):.16e},{u.min():.16e},{u.max():.16e}\n")

    result = scheme.solve(observer=record if diagnostics else None)
    eb = error_breakdown(scheme, result.t_final, result.u)
    path = f"{cfg.out}_solution.vtk"
    write_vtk(path, scheme.mesh, mesh_cell_data(scheme.mesh, scheme.records, u=result.u))
    print(f"wrote {path}")
    print(f"n={cfg.n} steps={result.steps} dt={result.dt_nominal:.6e}")
    print(f"l2_error={eb.l2:.10e} beta_semi_error={eb.beta_semi:.10e}")
    if diagnostics:
        dpath = f"{cfg.out}_diagnostics.csv"
        Path(dpath).write_text("step,t,l2_norm,min,max\n" + "".join(rows))
        print(f"wrote {dpath}")
    return 0


def converge(cfg: RunConfig) -> ConvergenceReport:
    """Refinement study: solve on each n, report errors at T and orders."""
    problem = cfg.problem()
    sconf = cfg.scheme_config()
    rows: list[dict] = []
    t0 = time.perf_counter()
    for n in cfg.n_list:
        scheme = DoDScheme(problem, sconf, n)
        dt = scheme.cfl_dt()
        acc2 = 0.0

        def accumulate(k, t, u, dt_k):
            # left-endpoint rule for int_0^T |u(t) - u_h(t)|_beta^2 dt
            nonlocal acc2
            acc2 += dt_k * beta_seminorm(scheme, (lambda p: problem.exact(t, p), -u)) ** 2

        result = scheme.solve(observer=accumulate if cfg.accumulate else None)
        acc = math.sqrt(acc2) if cfg.accumulate else None
        eb = error_breakdown(scheme, result.t_final, result.u)
        row = {
            "n": n,
            "h": scheme.h,
            "dt": dt,
            "l2_error": eb.l2,
            "beta_semi_error": eb.beta_semi,
            "accumulated_seminorm": acc,
            "order_l2": None,
            "order_beta": None,
        }
        if rows:
            prev = rows[-1]
            ratio = math.log(prev["h"] / row["h"])
            row["order_l2"] = math.log(prev["l2_error"] / row["l2_error"]) / ratio
            row["order_beta"] = math.log(prev["beta_semi_error"] / row["beta_semi_error"]) / ratio
        rows.append(row)
    meta = {
        "gamma_deg": cfg.gamma_deg,
        "x0": cfg.x0,
        "tau": cfg.tau,
        "kappa": cfg.cfl_kappa,
        "epsilon": cfg.cfl_epsilon,
        "seed": cfg.seed,
        "wall_time": time.perf_counter() - t0,
    }
    return ConvergenceReport(rows, meta)


def cmd_converge(cfg: RunConfig) -> int:
    if not cfg.n_list:
        raise ConfigError("converge needs a nonempty --n-list")
    report = converge(cfg)
    csv_path = f"{cfg.out}_convergence.csv"
    Path(csv_path).write_text("\n".join(report.csv_lines()) + "\n")
    for norm, key in (("l2", "l2_error"), ("beta", "beta_semi_error")):
        dat = "\n".join(f"{r['h']:.16e} {r[key]:.16e}" for r in report.rows)
        Path(f"{cfg.out}_{norm}.dat").write_text(dat + "\n")
    for line in report.csv_lines():
        print(line)
    print(f"# wall time {report.metadata['wall_time']:.2f}s")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    reports = run_all(
        cfg.problem(),
        cfg.scheme_config(),
        n_values=tuple(cfg.n_list) if cfg.n_list else (16, 32),
        seed=cfg.seed,
    )
    lines = ["lemma_id,instances,max_ratio,pass"]
    lines += [r.csv_row() for r in reports]
    Path(f"{cfg.out}_verify.csv").write_text("\n".join(lines) + "\n")
    for r in reports:
        print(r.status_line())
    ok = all(r.passed for r in reports)
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cutdg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "converge", "verify", "export"):
        q = sub.add_parser(name)
        q.add_argument("--config", help="flat key=value configuration file")
        q.add_argument("--gamma", type=float, help="ramp angle in degrees")
        q.add_argument("--x0", type=float, help="ramp start abscissa")
        q.add_argument("--t-final", type=float, dest="t_final")
        q.add_argument("--tau", type=float)
        q.add_argument("--cfl-epsilon", type=float, dest="cfl_epsilon")
        q.add_argument("--cfl-kappa", type=float, dest="cfl_kappa")
        q.add_argument("--seed", type=int)
        q.add_argument("--out")
        q.add_argument("--quad-face-order", type=int, dest="quad_face_order")
        q.add_argument("--quad-cell-degree", type=int, dest="quad_cell_degree")
        if name in ("run", "export"):
            q.add_argument("--n", type=int)
        if name in ("converge", "verify"):
            q.add_argument("--n-list", dest="n_list")
        if name == "converge":
            q.add_argument("--accumulate", action="store_true", default=None)
        if name == "run":
            q.add_argument("--diagnostics", action="store_true")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = _resolve(args, file_values)
        if args.command == "run":
            return cmd_run(cfg, diagnostics=getattr(args, "diagnostics", False))
        if args.command == "converge":
            return cmd_converge(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "export":
            return cmd_export(cfg)
    except (ConfigError, InvalidConfig, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
