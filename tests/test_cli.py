import csv
import json

import pytest

from tricoil.cli import main
from tricoil.oracle import OracleFailure


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture(autouse=True)
def no_env_override(monkeypatch):
    monkeypatch.delenv("TRICOIL_OUT", raising=False)


class TestOptimize:
    def test_writes_trace(self, tmp_path, capsys):
        code = main(["optimize", "--alpha", "1.0", "--out", str(tmp_path), "--angles", "8"])
        assert code == 0
        rows = read_csv(tmp_path / "trace.csv")
        assert rows[0] == ["iter", "alpha", "i1", "i2", "i3", "s1", "s2", "s3", "pathloss_db"]
        assert rows[1][0] == "0"  # starting state recorded first
        assert len(rows) >= 4
        out = capsys.readouterr().out
        assert "converged=true" in out

    def test_plot_flag_writes_svg(self, tmp_path):
        code = main(["optimize", "--alpha", "1.0", "--out", str(tmp_path), "--plot"])
        assert code == 0
        assert (tmp_path / "trace.svg").read_text().startswith("<svg")


class TestSweeps:
    def test_sweep_angle_outputs(self, tmp_path):
        code = main(["sweep-angle", "--angles", "12", "--out", str(tmp_path), "--plot"])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["alpha", "joint_db", "txonly_db", "rxonly_db", "equal_db", "iters", "converged"]
        assert len(rows) == 13
        assert all(row[6] in ("true", "false") for row in rows[1:])
        assert (tmp_path / "sweep.svg").exists()

    def test_sweep_threshold_outputs(self, tmp_path):
        code = main(["sweep-threshold", "--angles", "6", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "threshold.csv")
        assert rows[0] == ["delta", "mean_reduction_pct", "mean_iters"]
        assert len(rows) == 14  # 13 default thresholds

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep-angle", "--angles", "10", "--out", str(out1), "--plot"]) == 0
        assert main(["sweep-angle", "--angles", "10", "--out", str(out2), "--plot"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "sweep.svg").read_bytes() == (out2 / "sweep.svg").read_bytes()


class TestOracleCommand:
    def test_reports_written(self, tmp_path):
        code = main(["oracle", "--out", str(tmp_path), "--seed", "42"])
        assert code == 0
        rows = read_csv(tmp_path / "oracle.csv")
        assert rows[0] == ["claim", "closed_form", "oracle_best", "gap", "samples", "seed"]
        claims = {row[0]: row for row in rows[1:]}
        assert set(claims) == {"current_step", "weight_step", "dipole_expansion"}
        assert float(claims["current_step"][3]) <= 0.0

    def test_verifier_failure_exits_two(self, tmp_path, monkeypatch):
        import tricoil.cli as cli_mod

        def boom(*args, **kwargs):
            raise OracleFailure("synthetic failure")

        monkeypatch.setattr(cli_mod, "verify_current_step", boom)
        assert main(["oracle", "--out", str(tmp_path)]) == 2


class TestMutual:
    def test_matrix_row(self, tmp_path):
        code = main(["mutual", "--alpha", "0.5", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "mutual.csv")
        assert rows[0][0] == "alpha"
        assert len(rows[0]) == 10
        assert len(rows) == 2


class TestValidationAndUsage:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_no_subcommand_exits_one(self):
        assert main([]) == 1

    def test_bad_flag_value_exits_one(self):
        assert main(["optimize", "--alpha", "fast"]) == 1

    def test_bad_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"radius": -2}')
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "radius" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path):
        assert main(["optimize", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_delta_flag_exits_one(self, tmp_path):
        assert main(["optimize", "--delta", "-1", "--out", str(tmp_path)]) == 1

    def test_nan_delta_flag_names_field(self, tmp_path, capsys):
        assert main(["optimize", "--delta", "nan", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 'delta' ")
        assert err.count("\n") == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.filterwarnings("error")  # a numpy warning would print a second stderr line
    @pytest.mark.parametrize(
        "document",
        [{"turns": 1e300}, {"wire_resistance_per_meter": 1e-300}, {"rx_center": [1e120, 0, 0]}],
        ids=["turns-overflow", "resistance-underflow", "distance-overflow"],
    )
    def test_arithmetic_failure_exits_two(self, tmp_path, capsys, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ")
        assert err.count("\n") == 1


class TestConfigEnvPrecedence:
    def test_env_overrides_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("TRICOIL_OUT", str(env_dir))
        assert main(["mutual", "--out", str(flag_dir)]) == 0
        assert (env_dir / "mutual.csv").exists()
        assert not flag_dir.exists()

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"angles": 5, "out_dir": str(tmp_path / "o")}))
        assert main(["sweep-angle", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "o" / "sweep.csv")
        assert len(rows) == 6

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"angles": 5}))
        out = tmp_path / "o2"
        assert main(["sweep-angle", "--config", str(cfg), "--angles", "7", "--out", str(out)]) == 0
        assert len(read_csv(out / "sweep.csv")) == 8


def test_full_precision_fields(tmp_path):
    assert main(["mutual", "--alpha", "1.0", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "mutual.csv")
    # 17 significant digits round-trip through float exactly
    for cell in rows[1][1:]:
        assert float(cell) == float(format(float(cell), ".17g"))
        assert len(cell.split("e")[0].replace("-", "").replace(".", "")) >= 10
