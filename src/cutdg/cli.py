"""Command line front end: run, converge, verify, export.

Configuration comes from a flat key=value file plus command-line overrides
(CLI > file > defaults).  Exit codes: 0 success, 1 configuration error,
2 failed verification.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .discretization import DoDScheme, InvalidConfig, SchemeConfig
from .field import Snapshot, make_ramp_problem
from .norms import beta_seminorm, error_breakdown
from .verify import run_all
from .vtk_io import mesh_cell_data, write_vtk

COMMANDS = ("run", "converge", "verify", "export")


class ConfigError(ValueError):
    pass


def _boolean(raw: str) -> bool:
    word = raw.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"must be a boolean (1/0, true/false, yes/no, on/off), got {raw!r}")
    return word in ("1", "true", "yes", "on")


def _int_list(raw: str) -> list[int]:
    if not raw.strip():
        return []  # the key's rules reject an empty list
    items = raw.split(",")
    if not all(s.strip() for s in items):
        raise ValueError(f"empty item in {raw!r}")
    return [int(s) for s in items]


@dataclass(frozen=True)
class ConfigKey:
    """One configuration key: its file name `section.field` (`field` is the
    RunConfig field), its flag, the parser that flag, file and default text
    all go through, its default text (None: unset), the (check, rule) pairs
    its parsed value must pass, the subcommands that take the flag and a
    note that ends the flag's help."""

    key: str
    flag: str
    parse: Callable[[str], object]
    default: str | None
    rules: tuple = ()
    commands: tuple[str, ...] = COMMANDS
    note: str = ""

    @property
    def field(self) -> str:
        return self.key.split(".")[1]

    def error(self, message: str) -> ConfigError:
        return ConfigError(f"{self.key} ({self.flag}): {message}")


#: the most time steps a solve may take to t_final on one mesh; the largest
#: run in the repository (n = 256 to T = 1) takes about 3,000
MAX_STEPS = 10**7
#: the most cells per side of a mesh: an n = 1024 scheme keeps 412 MiB and
#: peaks at 438 MiB, so by n^2 scaling an n = 2048 one keeps about 1.6 GiB
MAX_N = 2048

# the problem.*, scheme.* and quad.* keys have no rules: validate's objects check them
CONFIG_KEYS = (
    ConfigKey("problem.gamma_deg", "--gamma", float, "25.0"),
    ConfigKey("problem.x0", "--x0", float, "0.2001"),
    ConfigKey("problem.t_final", "--t-final", float, "0.5"),
    ConfigKey("scheme.tau", "--tau", float, "1.0"),
    ConfigKey("scheme.cfl_epsilon", "--cfl-epsilon", float, "0.25"),
    ConfigKey("scheme.cfl_kappa", "--cfl-kappa", float, None),
    ConfigKey("quad.face_order", "--quad-face-order", int, "4"),
    ConfigKey("quad.cell_degree", "--quad-cell-degree", int, "6",
              note="; the rule on cut cells, as uncut squares are integrated exactly"),
    ConfigKey("run.n", "--n", int, "32", commands=("run", "export"),
              rules=((lambda v: v >= 4, "need at least 4 cells per side"),
                     (lambda v: v <= MAX_N, f"need at most {MAX_N} cells per side"))),
    ConfigKey("run.n_list", "--n-list", _int_list, "16,32,64", commands=("converge", "verify"),
              rules=((lambda v: len(v) > 0, "must be nonempty"),
                     (lambda v: min(v) >= 4, "need at least 4 cells per side"),
                     (lambda v: max(v) <= MAX_N, f"need at most {MAX_N} cells per side"),
                     (lambda v: v == sorted(set(v)), "must be strictly increasing"))),
    ConfigKey("run.seed", "--seed", int, "0",
              rules=((lambda v: v >= 0, "must be a nonnegative integer"),)),
    ConfigKey("run.out", "--out", str, "out"),
    ConfigKey("run.accumulate", "--accumulate", _boolean, "false", commands=("converge",)),
)

# InvalidConfig.field of the library -> RunConfig field, where the two differ
_LIBRARY_FIELDS = {"gamma": "gamma_deg", "epsilon": "cfl_epsilon"}


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
    n_list: list[int] = dc_field(default_factory=lambda: [16, 32, 64])
    seed: int = 0
    out: str = "out"
    accumulate: bool = False

    def validate(self, command: str | None = None):
        """Check each key's rules and the problem and scheme they build, then
        the step count of the solves `command` runs (see `steps`); `verify`
        and `export` take no steps to t_final."""
        for row in CONFIG_KEYS:
            value = getattr(self, row.field)
            for check, rule in row.rules:
                if not check(value):
                    raise row.error(f"{rule}, got {value}")
        try:
            self.scheme_config().kappa(self.problem().velocity)
        except InvalidConfig as exc:
            field = _LIBRARY_FIELDS.get(exc.field, exc.field)
            raise next(row for row in CONFIG_KEYS if row.field == field).error(str(exc)) from exc
        if command in ("verify", "export"):
            return
        steps, n = self.steps(command)
        if steps > MAX_STEPS:
            # the key at fault is the one of those that set t_final / (kappa h)
            # whose default cuts the steps most
            def at_default(row):
                default = None if row.default is None else row.parse(row.default)
                return replace(self, **{row.field: default}).steps(command)[0]

            fields = ("t_final", "tau", "cfl_epsilon", "cfl_kappa", "n", "n_list")
            row = min((r for r in CONFIG_KEYS if r.field in fields
                       and (command is None or command in r.commands)), key=at_default)
            raise row.error(f"{steps:.3g} time steps to t_final at n={n}, "
                            f"more than the {MAX_STEPS:,} a solve may take")

    def steps(self, command: str | None = None) -> tuple[float, int]:
        """(t_final / dt, n) on the largest n the solves of `command` take:
        `n` for `run`, `n_list` for `converge`, both for no command.  The
        count is a float, inf where dt underflows to 0."""
        n = max({"run": [self.n], "converge": self.n_list}.get(command, [self.n, *self.n_list]))
        dt = self.scheme_config().kappa(self.problem().velocity) * (1.0 / n)
        return (self.t_final / dt if dt > 0.0 else math.inf), n

    def problem(self):
        return make_ramp_problem(self.gamma_deg, self.x0, self.t_final)

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(
            tau=self.tau,
            epsilon=self.cfl_epsilon,
            cfl_kappa=self.cfl_kappa,
            face_order=self.face_order,
            cell_degree=self.cell_degree,
        )


@dataclass
class ConvergenceReport:
    rows: list[dict]
    wall_time: float

    COLUMNS = ("n", "h", "dt", "l2_error", "beta_semi_error", "accumulated_seminorm",
               "order_l2", "order_beta")

    def csv_lines(self) -> list[str]:
        def cell(column, value):  # None (no value yet) is an empty cell
            return "" if value is None else format(value, "" if column == "n" else ".16e")

        return [",".join(self.COLUMNS)] + [
            ",".join(cell(c, r[c]) for c in self.COLUMNS) for r in self.rows
        ]

    def fitted_order(self, key: str, last: int = 3) -> float:
        rows = self.rows[-last:]
        hs = np.log([r["h"] for r in rows])
        es = np.log([r[key] for r in rows])
        return float(np.polyfit(hs, es, 1)[0])


def parse_config_file(path: str) -> dict:
    values, first = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first on line {first[key]})")
        values[key], first[key] = val.strip(), lineno
    return values


def _resolve(args, file_values: dict) -> RunConfig:
    unknown = sorted(set(file_values) - {row.key for row in CONFIG_KEYS} - {"problem.kind"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kind = file_values.get("problem.kind", "ramp_paper")
    if kind != "ramp_paper":
        raise ConfigError(f"unknown problem.kind {kind!r}; only 'ramp_paper' is available")
    values = {}
    for row in CONFIG_KEYS:  # CLI > file > default, each through the row's parser
        raw = getattr(args, row.field, None)
        if raw is None:
            raw = file_values.get(row.key, row.default)
        try:
            values[row.field] = None if raw is None else row.parse(raw)
        except ValueError as exc:
            raise row.error(str(exc)) from exc
    cfg = RunConfig(**values)
    cfg.validate(args.command)
    return cfg


def _check_out_dir(path: str) -> None:
    """Raise the error that writing `path` would raise if its directory is
    missing, so a command fails before its work instead of after it."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def cmd_export(cfg: RunConfig) -> int:
    path = f"{cfg.out}_mesh.vtk"
    _check_out_dir(path)
    scheme = DoDScheme(cfg.problem(), cfg.scheme_config(), cfg.n)
    write_vtk(path, scheme.mesh, mesh_cell_data(scheme.mesh, scheme.records))
    print(f"wrote {path}: {scheme.mesh.n_cells} cells, {scheme.mesh.n_faces} faces, "
          f"{len(scheme.records)} stabilized")
    return 0


def cmd_run(cfg: RunConfig, diagnostics: bool = False) -> int:
    path = f"{cfg.out}_solution.vtk"
    _check_out_dir(path)
    scheme = DoDScheme(cfg.problem(), cfg.scheme_config(), cfg.n)
    rows: list[str] = []

    def record(k, t, u, dt):
        if k >= 1:
            rows.append(f"{k},{t:.16e},{scheme.l2_norm(u):.16e},{u.min():.16e},{u.max():.16e}\n")

    result = scheme.solve(observer=record if diagnostics else None)
    eb = error_breakdown(scheme, result.t_final, result.u)
    write_vtk(path, scheme.mesh, mesh_cell_data(scheme.mesh, scheme.records, u=result.u))
    print(f"wrote {path}")
    print(f"n={cfg.n} steps={result.steps} dt={scheme.dt:.6e}")
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
        acc2 = 0.0

        def accumulate(k, t, u, dt_k):
            # left-endpoint rule for int_0^T |u(t) - u_h(t)|_beta^2 dt
            nonlocal acc2
            acc2 += dt_k * beta_seminorm(scheme, (Snapshot(problem, t), -u)) ** 2

        result = scheme.solve(observer=accumulate if cfg.accumulate else None)
        acc = math.sqrt(acc2) if cfg.accumulate else None
        eb = error_breakdown(scheme, result.t_final, result.u)
        row = {
            "n": n,
            "h": scheme.h,
            "dt": scheme.dt,
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
    return ConvergenceReport(rows, time.perf_counter() - t0)


def cmd_converge(cfg: RunConfig) -> int:
    csv_path = f"{cfg.out}_convergence.csv"
    _check_out_dir(csv_path)
    report = converge(cfg)
    Path(csv_path).write_text("\n".join(report.csv_lines()) + "\n")
    for norm, key in (("l2", "l2_error"), ("beta", "beta_semi_error")):
        dat = "\n".join(f"{r['h']:.16e} {r[key]:.16e}" for r in report.rows)
        Path(f"{cfg.out}_{norm}.dat").write_text(dat + "\n")
    for line in report.csv_lines():
        print(line)
    print(f"# wall time {report.wall_time:.2f}s")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    csv_path = f"{cfg.out}_verify.csv"
    _check_out_dir(csv_path)
    reports = run_all(
        cfg.problem(),
        cfg.scheme_config(),
        n_values=tuple(cfg.n_list),
        seed=cfg.seed,
    )
    lines = ["lemma_id,instances,max_ratio,pass"]
    lines += [r.csv_row() for r in reports]
    Path(csv_path).write_text("\n".join(lines) + "\n")
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
    for name in COMMANDS:
        q = sub.add_parser(name, allow_abbrev=False)  # no flag stands for a longer one
        q.add_argument("--config", help="flat key=value configuration file")
        for row in CONFIG_KEYS:
            if name in row.commands:  # values stay raw text until _resolve parses them
                store = {"action": "store_const", "const": "true"} if row.parse is _boolean else {}
                default = "unset" if row.default is None else row.default
                text = f"{row.key}, default {default}{row.note}"
                q.add_argument(row.flag, dest=row.field, help=text, **store)
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
        command = {
            "run": lambda c: cmd_run(c, diagnostics=args.diagnostics),
            "converge": cmd_converge,
            "verify": cmd_verify,
            "export": cmd_export,
        }[args.command]
        return command(cfg)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
