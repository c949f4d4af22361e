"""Command line behaviour: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import DEMO

from aifcert import BoundCertificate, State, build_report
from aifcert.cli import main

SUMMARY = "T0 / M1 / M2 / M3 / M4 = 1.3936 / 3.1436 / 31.4364 / 31.4364 / 63.2062"


class TestBounds:
    def test_demo_summary_line(self, tmp_path, capsys):
        assert main(["bounds", "--L0", "1.75", "--out", str(tmp_path)]) == 0
        assert SUMMARY in capsys.readouterr().out

    def test_writes_loadable_certificate(self, tmp_path, capsys):
        assert main(["bounds", "--out", str(tmp_path)]) == 0
        cert = BoundCertificate.from_json(
            json.loads((tmp_path / "certificate.json").read_text())
        )
        assert cert.params == DEMO
        assert cert.L_used == cert.L_star

    def test_invalid_rate_exits_2(self, tmp_path, capsys):
        code = main(["bounds", "--params", "1,0,10,1,1,1,1,30", "--out", str(tmp_path)])
        assert code == 2
        assert "alpha2" in capsys.readouterr().err

    def test_low_override_exits_2(self, tmp_path, capsys):
        assert main(["bounds", "--L0", "0.5", "--out", str(tmp_path)]) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"params": [1,30')
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"horizons": 10}')
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_short_x0_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--x0", "1,2,3", "--out", str(tmp_path)]) == 2


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        assert main(["simulate", "--horizon", "30", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "max x1" in out
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4"
        assert float(lines[-1].split(",")[0]) == 30.0

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 5.0, "out": str(tmp_path)}))
        assert main(["simulate", "--config", str(cfg), "--horizon", "7"]) == 0
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 7.0

    def test_null_config_values_mean_unset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 5.0, "seed": None, "fuzz": None, "x0": None}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        first = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
        assert first.split(",") == ["0", "0", "0", "0", "0"]

    def test_custom_initial_state(self, tmp_path, capsys):
        code = main(
            ["simulate", "--x0", "1,0,0,0.5", "--horizon", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        first = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
        assert first.split(",") == ["0", "1", "0", "0", "0.5"]


class TestVerify:
    def test_demo_passes(self, tmp_path, capsys):
        assert main(["verify", "--horizon", "30", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        for name in ("global_bounds", "excursion_lemma", "cascade_lower_bounds",
                     "W_decrease", "propositions"):
            assert name in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) == 5

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        assert main(["bounds", "--out", str(tmp_path)]) == 0
        cert_path = tmp_path / "certificate.json"
        obj = json.loads(cert_path.read_text())
        obj["M1"] /= 50.0
        bad_path = tmp_path / "bad_cert.json"
        bad_path.write_text(json.dumps(obj))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"certificate_json": str(bad_path), "horizon": 30.0})
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is False

    def test_trajectory_csv_matches_in_memory(self, tmp_path, capsys):
        assert main(["simulate", "--horizon", "30", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"trajectory_csv": str(tmp_path / "trajectory.csv")})
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        from_csv = json.loads((tmp_path / "report.json").read_text())
        direct = build_report(DEMO, State.zero(), horizon=30.0)
        assert [c["status"] for c in from_csv["checks"]] == [
            c.status for c in direct.checks
        ]

    def test_fuzz_flag_reaches_report(self, tmp_path, capsys):
        code = main(
            ["verify", "--horizon", "10", "--fuzz", "5", "--seed", "99",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "fuzz x5 (seed 99)" in capsys.readouterr().out


class TestPlot:
    def test_writes_both_figures(self, tmp_path, capsys):
        assert main(["plot", "--horizon", "40", "--out", str(tmp_path)]) == 0
        states = (tmp_path / "states.svg").read_text()
        bound = (tmp_path / "x1_bound.svg").read_text()
        assert states.startswith("<svg") and states.rstrip().endswith("</svg>")
        assert "M1" in bound

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["plot", "--horizon", "40", "--out", str(a)]) == 0
        assert main(["plot", "--horizon", "40", "--out", str(b)]) == 0
        assert (a / "states.svg").read_bytes() == (b / "states.svg").read_bytes()
        assert (a / "x1_bound.svg").read_bytes() == (b / "x1_bound.svg").read_bytes()

    def test_from_trajectory_csv(self, tmp_path, capsys):
        assert main(["simulate", "--horizon", "20", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"trajectory_csv": str(tmp_path / "trajectory.csv")})
        )
        assert main(["plot", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "states.svg").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "aifcert", "bounds", "--L0", "1.75",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert SUMMARY in proc.stdout
