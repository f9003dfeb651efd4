import math

import numpy as np
import pytest

from cutdg.cli import ConfigError, converge, main, parse_config_file


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
        ("--t-final", "nan"),
        ("--t-final", "inf"),
        ("--tau", "nan"),
        ("--tau", "inf"),
        ("--cfl-kappa", "nan"),
        ("--cfl-kappa", "inf"),
    ])
    def test_invalid_value_exits_one(self, option, value, capsys):
        assert run(["run", "--n", "8", option, value]) == 1
        assert option.lstrip("-").replace("-", "_") in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["run", "--nope", "1"]) == 1

    def test_decreasing_n_list_exits_one(self):
        assert run(["converge", "--n-list", "16,8"]) == 1


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

    def test_plot_files(self, tmp_path):
        out = tmp_path / "p"
        assert run(["converge", "--n-list", "8,16", "--t-final", "0.05", "--out", str(out)]) == 0
        for norm in ("l2", "beta"):
            rows = (tmp_path / f"p_{norm}.dat").read_text().split()
            assert len(rows) == 4  # two rows, two columns
            assert float(rows[0]) == pytest.approx(1.0 / 8)

    def test_accumulated_seminorm_column(self, tmp_path):
        out = tmp_path / "acc"
        assert run([
            "converge", "--n-list", "8", "--t-final", "0.05", "--accumulate", "--out", str(out),
        ]) == 0
        line = (tmp_path / "acc_convergence.csv").read_text().splitlines()[1]
        acc = line.split(",")[5]
        assert float(acc) > 0.0

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
