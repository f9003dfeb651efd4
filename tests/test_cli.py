import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutdg.cli import COMMANDS, CONFIG_KEYS, ConfigError, _boolean, converge, main, parse_config_file
from cutdg.discretization import SchemeConfig
from cutdg.field import Snapshot


ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# study setup\n"
            "problem.gamma_deg = 35\n"
            "run.n = 8\n"
            "quad.face_order = 5  # more points\n"
        )
        values = parse_config_file(cfg)
        assert values == {"problem.gamma_deg": "35", "run.n": "8", "quad.face_order": "5"}

    def test_malformed_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma 35\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_cli_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem.gamma_deg = 35\nrun.n = 8\n")
        out = tmp_path / "a"
        code = run(["export", "--config", str(cfg), "--gamma", "45", "--out", str(out)])
        assert code == 0
        text = (tmp_path / "a_mesh.vtk").read_text()
        assert "POLYGON" not in text  # polygons are cell type 7
        assert "CELL_TYPES" in text

    @pytest.mark.parametrize("option,value", [
        ("--gamma", "0"),
        ("--gamma", "nan"),
        ("--x0", "inf"),
        ("--x0", "1"),
        ("--t-final", "nan"),
        ("--t-final", "inf"),
        ("--tau", "nan"),
        ("--tau", "inf"),
        ("--cfl-kappa", "nan"),
        ("--cfl-kappa", "inf"),
        ("--cfl-epsilon", "0.5"),
        ("--cfl-epsilon", "nan"),
    ])
    def test_invalid_value_exits_one(self, option, value, capsys):
        assert run(["run", "--n", "8", option, value]) == 1
        assert option.lstrip("-").replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("scheme.tua = 2", "scheme.tua"),
        ("run.accumulate = maybe", "run.accumulate"),
        ("quad.face_order = 2.5", "quad.face_order"),
        ("problem.gamma_deg = abc", "problem.gamma_deg"),
        ("scheme.cfl_kappa =", "scheme.cfl_kappa"),
        ("run.n = 8\nrun.n = 16", "run.cfg:3: duplicate key 'run.n' (first on line 2)"),
    ])
    def test_bad_config_entry_exits_one(self, line, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem.kind = ramp_paper\n{line}\n")
        out = tmp_path / "m"
        assert run(["export", "--config", str(cfg), "--n", "8", "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "m_mesh.vtk").exists()

    @pytest.mark.parametrize("argv,work", [
        (["run", "--n", "8"], "DoDScheme"),
        (["export", "--n", "8"], "DoDScheme"),
        (["converge", "--n-list", "8"], "converge"),
        (["verify", "--n-list", "8"], "run_all"),
    ])
    def test_missing_out_dir_fails_before_the_work(self, argv, work, tmp_path, monkeypatch, capsys):
        import cutdg.cli as cli

        def work_started(*args, **kwargs):
            raise AssertionError(f"{work} ran although the output cannot be written")

        monkeypatch.setattr(cli, work, work_started)
        out = tmp_path / "missing" / "r"
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert str(tmp_path / "missing") in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv,key,message", [
        (["run", "--n", "8", "--tau", "1e-300"], "scheme.tau (--tau)",
         "1e+301 time steps to t_final at n=8"),
        (["run", "--n", "8", "--cfl-kappa", "1e-300"], "scheme.cfl_kappa (--cfl-kappa)",
         "4e+300 time steps to t_final at n=8"),
        (["converge", "--n-list", "8,64", "--cfl-epsilon", "0.49999999999999994"],
         "scheme.cfl_epsilon (--cfl-epsilon)", "2.02e+18 time steps to t_final at n=64"),
        (["run", "--n", "8", "--t-final", "1e300"], "problem.t_final (--t-final)",
         "9.35e+301 time steps to t_final at n=8"),
        # n's default cuts the steps 64-fold, t_final's 40-fold, cfl_kappa's 43-fold
        (["run", "--n", "2048", "--t-final", "20", "--cfl-kappa", "0.002"], "run.n (--n)",
         "2.05e+07 time steps to t_final at n=2048"),
    ], ids=["tau", "cfl-kappa", "cfl-epsilon", "t-final", "n"])
    def test_endless_time_loop_exits_one(self, argv, key, message, tmp_path, monkeypatch, capsys):
        # the step count t_final / (kappa h) is checked before any mesh is built
        import cutdg.discretization as disc

        monkeypatch.setattr(disc, "build_mesh", lambda *a, **k: pytest.fail("a mesh was built"))
        start = time.perf_counter()
        assert run(argv + ["--out", str(tmp_path / "r")]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: {key}: {message}, more than the 10,000,000 a solve may take\n")
        assert not list(tmp_path.iterdir())

    def test_step_count_is_checked_on_the_sizes_a_command_solves(self):
        from cutdg.cli import MAX_STEPS, RunConfig

        # about 100 steps per unit time at n = 8 and 750 at n = 64
        cfg = RunConfig(gamma_deg=25.0, x0=0.2001, t_final=2e4, tau=1.0, cfl_epsilon=0.25,
                        cfl_kappa=None, face_order=4, cell_degree=6, n=8, n_list=[8, 64])
        assert cfg.steps("run")[0] < MAX_STEPS < cfg.steps("converge")[0]
        assert cfg.steps("converge") == cfg.steps(None)
        for command in ("run", "verify", "export"):
            cfg.validate(command)
        for command in ("converge", None):
            with pytest.raises(ConfigError) as err:
                cfg.validate(command)
            steps = cfg.steps(command)[0]
            assert str(err.value).startswith(
                f"problem.t_final (--t-final): {steps:.3g} time steps to t_final at n=64")

    @pytest.mark.parametrize("argv,key,value", [
        (["run", "--n", "5000"], "run.n (--n)", "5000"),
        (["export", "--n", "5000"], "run.n (--n)", "5000"),
        (["run", "--n", "1000000000000000"], "run.n (--n)", "1000000000000000"),
        (["converge", "--n-list", "16,5000"], "run.n_list (--n-list)", "[16, 5000]"),
        (["verify", "--n-list", "16,5000"], "run.n_list (--n-list)", "[16, 5000]"),
    ], ids=["run", "export", "run-huge", "converge", "verify"])
    def test_oversized_mesh_exits_one(self, argv, key, value, tmp_path, monkeypatch, capsys):
        # the size cap is checked before any scheme is built, by every command
        import cutdg.cli as cli
        import cutdg.verify as verify

        for module in (cli, verify):
            monkeypatch.setattr(module, "DoDScheme", lambda *a, **k: pytest.fail("a scheme was built"))
        assert run(argv + ["--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            f"error: {key}: need at most 2048 cells per side, got {value}\n")
        assert not list(tmp_path.iterdir())

    def test_size_cap_is_checked_for_every_command(self):
        from cutdg.cli import CONFIG_KEYS, MAX_N, RunConfig

        defaults = RunConfig(**{row.field: None if row.default is None else row.parse(row.default)
                                for row in CONFIG_KEYS})
        largest = dataclasses.replace(defaults, n=MAX_N, n_list=[16, MAX_N])
        for command in ("run", "export", "converge", "verify", None):
            defaults.validate(command)
            largest.validate(command)
            for field, value in (("n", MAX_N + 1), ("n_list", [16, 5000])):
                with pytest.raises(ConfigError) as err:
                    dataclasses.replace(largest, **{field: value}).validate(command)
                flag = "--n" if field == "n" else "--n-list"
                assert str(err.value) == (
                    f"run.{field} ({flag}): need at most 2048 cells per side, got {value}")

    def test_top_exit_is_named_before_the_out_check(self, tmp_path, capsys):
        # RunConfig.validate builds the ramp, so its range error wins over the missing directory
        assert run(["converge", "--gamma", "80", "--out", str(tmp_path / "missing" / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem.gamma_deg (--gamma): ramp exits through the top")

    def test_unknown_flag_exits_one(self, monkeypatch, capsys):
        import cutdg.cli as cli

        for work in ("DoDScheme", "converge", "run_all"):
            monkeypatch.setattr(cli, work, lambda *a, work=work, **k: pytest.fail(f"{work} ran"))
        # a flag the subcommand lacks is unknown, not short for a longer one
        for argv in (["run", "--nope", "1"], ["converge", "--n", "8"], ["verify", "--n", "64"],
                     ["run", "--diag"]):
            assert run(argv) == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_non_default_quadrature_reaches_the_scheme(self):
        from cutdg import DoDScheme
        from cutdg.cli import _resolve, build_parser
        from cutdg.geometry import K_CARTESIAN

        args = build_parser().parse_args(["run", "--quad-face-order", "7", "--quad-cell-degree", "9"])
        cfg = _resolve(args, {})
        sconf = cfg.scheme_config()
        assert (sconf.face_order, sconf.cell_degree) == (7, 9)
        scheme = DoDScheme(cfg.problem(), sconf, 8)
        assert scheme.jump_abs_wbn.shape == (len(scheme.jump_faces), 7)
        assert scheme.table.quadrature(np.arange(scheme.mesh.n_faces))[1].shape[1] == 7
        # degree 9 takes q = (9 + 2) // 2 = 5, q^2 points on each fan triangle
        # of a cut cell; an uncut square takes none (it is integrated exactly)
        points = np.bincount(scheme.cellquad.cell_index, minlength=scheme.mesh.n_cells)
        uncut = scheme.mesh.kind_codes == K_CARTESIAN
        assert uncut.any() and not uncut.all()
        np.testing.assert_array_equal(points[uncut], 0)
        triangles = np.diff(scheme.mesh.cell_ptr) - 2
        np.testing.assert_array_equal(points[~uncut], ((9 + 2) // 2) ** 2 * triangles[~uncut])

    def test_decreasing_n_list_exits_one(self):
        assert run(["converge", "--n-list", "16,8"]) == 1

    @pytest.mark.parametrize("argv,flag", [
        (["run", "--n", "2"], "--n"),
        (["run", "--n", "8", "--quad-face-order", "0"], "--quad-face-order"),
        (["run", "--n", "8", "--quad-cell-degree", "0"], "--quad-cell-degree"),
        (["export", "--n", "3"], "--n"),
        (["converge", "--n-list", "2,8"], "--n-list"),
        (["verify", "--seed", "-1"], "--seed"),
        (["converge", "--n-list", "8,a"], "--n-list"),
        (["run", "--gamma", "abc"], "--gamma"),
        (["converge", "--n-list", ""], "--n-list"),
        (["verify", "--n-list", ""], "--n-list"),
        (["run", "--n", "8", "--quad-face-order", "17"], "--quad-face-order"),
        (["run", "--n", "8", "--quad-cell-degree", "400"], "--quad-cell-degree"),
        (["converge", "--n-list", "8,,16"], "--n-list"),
        (["converge", "--n-list", "16,32,"], "--n-list"),
        (["converge", "--n-list", ",16"], "--n-list"),
        (["verify", "--n-list", "8, ,16"], "--n-list"),
        (["run", "--gamma", "80"], "--gamma"),  # exits through the top
    ])
    def test_bad_size_names_flag_before_the_work(self, argv, flag, tmp_path, monkeypatch, capsys):
        import cutdg.cli as cli

        for work in ("DoDScheme", "converge", "run_all"):
            monkeypatch.setattr(cli, work, lambda *a, work=work, **k: pytest.fail(f"{work} ran"))
        assert run(argv + ["--out", str(tmp_path / "r")]) == 1
        assert f"({flag})" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


# the edge strings of each CONFIG_KEYS value: not-a-number, infinite,
# negative zero, the largest decade, huge integers, empty, whitespace and a
# list with a repeat
EDGE_VALUES = ("nan", "inf", "-0.0", "1e308", str(10**30), str(-10**30), "", " \t", "8,8")
#: small settings for the keys that draw no edge value: no mesh above n = 16
BASE_VALUES = {"run.n": "8", "run.n_list": "8,16", "problem.t_final": "0.01"}


def command_rows(command):
    return [row for row in CONFIG_KEYS if command in row.commands]


def assert_exits_cleanly(command, values, via):
    """Run `command` with `values` ({key: text}), each given by its flag or
    in a config file as `via` says: it runs (exit 0), is refused (exit 1)
    or, for verify, reports a lemma that fails (exit 2).  Nothing raises,
    no traceback is printed, and no value it prints is NaN."""
    with tempfile.TemporaryDirectory() as tmp:
        values = {**values, "run.out": f"{tmp}/{values.get('run.out', 'r')}"}
        argv, lines = [command], []
        for row in command_rows(command):
            if row.key in values:
                if via.get(row.key) == "file" or row.parse is _boolean:  # a boolean flag takes no value
                    lines.append(f"{row.key} = {values[row.key]}\n")
                else:
                    argv += [row.flag, values[row.key]]
        config = Path(tmp) / "edge.cfg"
        config.write_text("".join(lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", str(config)])
    assert code in ((0, 1, 2) if command == "verify" else (0, 1)), (argv, lines, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # a value, not an output path, that reads nan
    assert not re.search(r"[=,]\s*nan\b", out.getvalue(), re.IGNORECASE), (argv, lines, out.getvalue())


@st.composite
def front_door_case(draw):
    """(command, {key: value}, {key: 'flag' or 'file'}) with an edge value
    for one to three of the command's keys and the base value for the rest."""
    command = draw(st.sampled_from(COMMANDS))
    rows = command_rows(command)
    edged = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3, unique=True))
    values = {row.key: BASE_VALUES[row.key] for row in rows if row.key in BASE_VALUES}
    values.update({row.key: draw(st.sampled_from(EDGE_VALUES)) for row in edged})
    via = {key: draw(st.sampled_from(("flag", "file"))) for key in values}
    return command, values, via


class TestFrontDoor:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_edge_value_alone(self, command):
        for row in command_rows(command):
            for value in EDGE_VALUES:
                assert_exits_cleanly(command, {**BASE_VALUES, row.key: value}, {})

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(front_door_case())
    def test_edge_values_together(self, case):
        assert_exits_cleanly(*case)


COMMON_FLAGS = {"--gamma", "--x0", "--t-final", "--tau", "--cfl-epsilon", "--cfl-kappa",
                "--seed", "--out", "--quad-face-order", "--quad-cell-degree", "--config"}


class TestSurface:
    @pytest.mark.parametrize("command,extra", [
        ("run", {"--n", "--diagnostics"}),
        ("export", {"--n"}),
        ("converge", {"--n-list", "--accumulate"}),
        ("verify", {"--n-list"}),
    ])
    def test_flags_per_subcommand(self, command, extra, capsys):
        assert run([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        flags = re.findall(r"\[(--[a-z0-9-]+)", usage)
        assert len(flags) == len(set(flags))
        assert set(flags) == COMMON_FLAGS | extra

    def test_cell_degree_help_names_cut_cells(self, capsys):
        assert run(["run", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "quad.cell_degree, default 6; the rule on cut cells, as uncut squares are " \
               "integrated exactly" in text

    def test_every_field_has_one_row(self):
        from cutdg.cli import CONFIG_KEYS, RunConfig

        fields = [row.field for row in CONFIG_KEYS]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))
        assert len({row.key for row in CONFIG_KEYS}) == len({row.flag for row in CONFIG_KEYS}) == len(fields)

    def test_field_defaults_are_the_table_defaults(self):
        # a RunConfig field left out takes the value of its key's default text
        from cutdg.cli import CONFIG_KEYS, RunConfig

        rows = {row.field: row for row in CONFIG_KEYS}
        defaulted = {}
        for f in dataclasses.fields(RunConfig):
            if f.default is not dataclasses.MISSING:
                defaulted[f.name] = f.default
            elif f.default_factory is not dataclasses.MISSING:
                defaulted[f.name] = f.default_factory()
        assert set(defaulted) == {"n_list", "seed", "out", "accumulate"}
        for name, default in defaulted.items():
            assert default == rows[name].parse(rows[name].default), name
        required = {row.field: None if row.default is None else row.parse(row.default)
                    for row in CONFIG_KEYS if row.field not in defaulted}
        RunConfig(**required).validate("run")


class TestExport:
    def test_polygon_count_matches_geometry_oracle(self, tmp_path):
        # n^2 background cells minus the fully cut ones
        out = tmp_path / "m"
        assert run(["export", "--n", "8", "--gamma", "45", "--x0", "0.2001", "--out", str(out)]) == 0
        text = (tmp_path / "m_mesh.vtk").read_text()
        ncells = int(text.split("CELLS")[1].split()[0])
        slope = math.tan(math.radians(45.0))
        h = 1.0 / 8
        removed = 0
        for i in range(8):
            for j in range(8):
                corners = [(i * h, j * h), ((i + 1) * h, j * h),
                           ((i + 1) * h, (j + 1) * h), (i * h, (j + 1) * h)]
                if all(y - slope * (x - 0.2001) <= 0 for x, y in corners):
                    removed += 1
        assert ncells == 64 - removed
        for name in ("kind", "area", "alpha"):
            assert f"SCALARS {name}" in text


class TestRun:
    def test_t_zero_writes_projection(self, tmp_path):
        out = tmp_path / "r"
        code = run(["run", "--n", "8", "--t-final", "0", "--out", str(out), "--diagnostics"])
        assert code == 0
        text = (tmp_path / "r_solution.vtk").read_text()
        assert "SCALARS u" in text
        diag = (tmp_path / "r_diagnostics.csv").read_text().splitlines()
        assert diag[0] == "step,t,l2_norm,min,max"
        assert len(diag) == 1  # zero steps at T = 0

    def test_oversized_mesh_exits_one(self, tmp_path, capsys):
        # the mesh's first array asks for petabytes and fails at once
        assert run(["run", "--n", str(10**15), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_diagnostics_rows_per_step(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run(["run", "--n", "8", "--t-final", "0.05", "--out", str(out), "--diagnostics"]) == 0
        steps = int(capsys.readouterr().out.split("steps=")[1].split()[0])
        assert steps >= 2
        rows = [line.split(",") for line in
                (tmp_path / "r_diagnostics.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, steps + 1))
        assert float(rows[-1][1]) == 0.05
        assert all(float(r[3]) <= float(r[4]) and float(r[2]) >= 0.0 for r in rows)


class TestConverge:
    def test_single_row_has_empty_orders(self, tmp_path):
        out = tmp_path / "c"
        code = run(["converge", "--n-list", "8", "--t-final", "0.05", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "c_convergence.csv").read_text().splitlines()
        assert lines[0] == "n,h,dt,l2_error,beta_semi_error,accumulated_seminorm,order_l2,order_beta"
        assert len(lines) == 2
        assert lines[1].endswith(",,")  # no orders on the first row

    def test_deterministic_csv(self, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert run([
                "converge", "--n-list", "8,16", "--t-final", "0.05", "--seed", "3",
                "--out", str(out),
            ]) == 0
            outs.append((tmp_path / f"{name}_convergence.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_csv_does_not_depend_on_blas_threads(self, tmp_path):
        # a BLAS dot splits long sums over its threads, so a norm that took
        # one would change its last bits with OPENBLAS_NUM_THREADS
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "cutdg.cli", "converge", "--n-list", "16,32", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append((tmp_path / f"threads{threads}_convergence.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_plot_files(self, tmp_path):
        out = tmp_path / "p"
        assert run(["converge", "--n-list", "8,16", "--t-final", "0.05", "--out", str(out)]) == 0
        for norm in ("l2", "beta"):
            rows = (tmp_path / f"p_{norm}.dat").read_text().split()
            assert len(rows) == 4  # two rows, two columns
            assert float(rows[0]) == pytest.approx(1.0 / 8)

    def test_accumulated_seminorm_column(self, tmp_path):
        from cutdg import DoDScheme, make_ramp_problem
        from cutdg.norms import error_breakdown

        out = tmp_path / "acc"
        assert run([
            "converge", "--n-list", "8", "--t-final", "0.05", "--accumulate", "--out", str(out),
        ]) == 0
        line = (tmp_path / "acc_convergence.csv").read_text().splitlines()[1]
        acc = float(line.split(",")[5])
        # reference: a hand-written time loop, full error breakdown at the
        # left endpoint of every step
        scheme = DoDScheme(make_ramp_problem(25.0, 0.2001, t_final=0.05), SchemeConfig(), 8)
        dt = scheme.dt
        u, t, acc2 = scheme.project_initial(), 0.0, 0.0
        n_steps = max(1, math.ceil(0.05 / dt - 1e-12))
        for k in range(n_steps):
            dt_k = dt if k < n_steps - 1 else 0.05 - t
            acc2 += dt_k * error_breakdown(scheme, t, u).beta_semi ** 2
            u = scheme.step(u, t, dt_k)
            t += dt_k
        assert acc > 0.0
        assert acc == float(f"{math.sqrt(acc2):.16e}")

    def test_accumulated_seminorm_on_sliver(self, tmp_path, all_faces_seminorm):
        from cutdg import DoDScheme, make_ramp_problem

        out = tmp_path / "sliver"
        assert run([
            "converge", "--gamma", "45", "--x0", "0.2000000001", "--n-list", "20,40",
            "--t-final", "0.05", "--accumulate", "--out", str(out),
        ]) == 0
        rows = (tmp_path / "sliver_convergence.csv").read_text().splitlines()[1:]
        problem = make_ramp_problem(45.0, 0.2000000001, t_final=0.05)
        for n, row in zip((20, 40), rows, strict=True):
            # reference: left-endpoint sum of the seminorm from every face's means
            scheme = DoDScheme(problem, SchemeConfig(), n)
            acc2 = 0.0

            def accumulate(k, t, u, dt_k):
                nonlocal acc2
                acc2 += dt_k * all_faces_seminorm(scheme, (Snapshot(problem, t), -u)) ** 2

            scheme.solve(observer=accumulate)
            assert len(scheme.records) > 0
            assert float(row.split(",")[5]) == pytest.approx(math.sqrt(acc2), rel=1e-14)

    def test_order_columns_against_hand_computation(self, tmp_path):
        from cutdg.cli import RunConfig

        cfg = RunConfig(
            gamma_deg=25.0, x0=0.2001, t_final=0.1, tau=1.0, cfl_epsilon=0.25,
            cfl_kappa=None, face_order=4, cell_degree=6, n=8, n_list=[8, 16, 32],
        )
        report = converge(cfg)
        rows = report.rows
        for prev, cur in zip(rows, rows[1:]):
            expect = math.log(prev["l2_error"] / cur["l2_error"]) / math.log(prev["h"] / cur["h"])
            assert cur["order_l2"] == pytest.approx(expect, rel=1e-12)
        assert report.fitted_order("l2_error", last=3) == pytest.approx(
            float(np.polyfit(np.log([r["h"] for r in rows]), np.log([r["l2_error"] for r in rows]), 1)[0])
        )


class TestVerifyCommand:
    def test_consistency_reads_u_up_to_t_final(self, tmp_path, monkeypatch):
        # u(t) is sampled at 0, T/2 and T, never past a short --t-final
        import cutdg.cli as cli
        from cutdg.verify import run_all

        reports = []

        def recording_run_all(*args, **kwargs):
            reports.extend(run_all(*args, **kwargs))
            return reports

        monkeypatch.setattr(cli, "run_all", recording_run_all)
        assert run(["verify", "--n-list", "8", "--t-final", "0.1", "--out", str(tmp_path / "v")]) == 0
        rep = next(r for r in reports if r.lemma_id == "stabilization-consistency@n=8")
        assert rep.details["times"] == [0.0, 0.05, 0.1]

    def test_verify_exits_zero_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run([
            "verify", "--n-list", "8", "--cfl-epsilon", str(1 / 14), "--out", str(out),
        ])
        assert code == 0
        assert "pass  flux-closure@n=8: deviation=" in capsys.readouterr().out
        lines = (tmp_path / "v_verify.csv").read_text().splitlines()
        assert lines[0] == "lemma_id,instances,max_ratio,pass"
        assert len(lines) > 5
        assert all(line.split(",")[3] == "True" for line in lines[1:])
