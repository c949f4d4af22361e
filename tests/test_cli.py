"""Command line behaviour: outputs, exit codes, determinism."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import DEMO

from aifcert import BoundCertificate, State, build_report, integrate, write_trajectory_csv
from aifcert.cli import _FLAGS, build_parser, main
from aifcert.plot import _Frame, _points, _polyline

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
        assert capsys.readouterr().err == "error: params: alpha2 must be finite and > 0, got 0.0\n"

    def test_low_override_exits_2(self, tmp_path, capsys):
        assert main(["bounds", "--L0", "0.5", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "params, message",
        [
            ("1,1e-102,1,1,1,1,1,1", "the threshold L* is out of floating-point range"),
            ("1e-164,1,1,1,1,1,1,1", "the threshold L* is out of floating-point range"),
            ("1,1,1,1e-103,1,1,1,1", "M4 must be finite and > 0, got inf"),
        ],
        ids=["tiny-alpha2", "tiny-alpha1", "tiny-alpha4"],
    )
    def test_rates_beyond_floating_point_exit_2(self, tmp_path, capsys, params, message):
        assert main(["bounds", "--params", params, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag-inf", "flag-nan", "config-nan"])
    def test_non_finite_override_exits_2(self, tmp_path, capsys, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L0": NaN}')
        argv = ["--config", str(cfg)] if source == "config-nan" else ["--L0", source[5:]]
        assert main(["bounds", *argv, "--out", str(tmp_path)]) == 2
        level = "inf" if source == "flag-inf" else "nan"
        assert capsys.readouterr().err == f"error: override level must be finite, got {level}\n"

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

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"horizon": [1]}, "horizon"),
            ({"params": 5}, "params"),
            ({"x0": {"x": 5}}, "x0"),
            ({"params": [1, 2, 3, 4, 5, 6, 7, None]}, "params"),
            ({"fuzz": -3}, "fuzz"),
            ({"fuzz": 2.7}, "fuzz"),
            ({"fuzz": True}, "fuzz"),
            ({"seed": -1}, "seed"),
            ({"params": {"alpha": "13111113"}}, "params"),
            ({"x0": {"x": "1000"}}, "x0"),
            ({"horizon": True}, "horizon"),
            ({"params": [True, 30, 10, 1, 1, 1, 1, 30]}, "params"),
            ({"out": ["a"]}, "out"),
            ({"trajectory_csv": True}, "trajectory_csv"),
            ({"certificate_json": 7}, "certificate_json"),
            ({"horizon": "abc"}, "horizon"),
            ({"horizon": 10**400}, "horizon"),
        ],
        ids=["horizon-list", "params-number", "x0-number", "params-null-rate", "fuzz-negative",
             "fuzz-fraction", "fuzz-bool", "seed-negative", "params-string", "x0-string",
             "horizon-bool", "params-bool-rate", "out-list", "csv-bool", "certificate-number",
             "horizon-string", "horizon-huge-int"],
    )
    def test_bad_config_value_exits_2_naming_key(self, tmp_path, capsys, monkeypatch, config, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "horizon": config.get("horizon", 2.0)}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert list(tmp_path.iterdir()) == [cfg]  # nothing written, no directory made

    def test_negative_fuzz_flag_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--horizon", "2", "--fuzz", "-3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "fuzz" in err

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["--seed", "-1", "--fuzz", "2"], "seed"),
            (["--fuzz", "-3"], "fuzz"),
            (["--fuzz", "2.7"], "fuzz"),
        ],
        ids=["seed-negative", "fuzz-negative", "fuzz-fraction"],
    )
    def test_bad_count_flag_exits_2_before_integrating(self, tmp_path, capsys, monkeypatch,
                                                       argv, key):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before the flags were rejected")

        monkeypatch.setattr("aifcert.cli.integrate", refuse)
        assert main(["verify", "--horizon", "400", *argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")


class TestIntegrationFailure:
    @pytest.mark.parametrize("command", ["simulate", "verify", "plot"])
    @pytest.mark.parametrize(
        "abs_tol,reason",
        # 1e-150 leaves a starting step below the underflow limit; at
        # 1e-160 the starting step's error norm overflows
        [(1e-150, "step size underflow"), (1e-160, "abs_tol 1e-160 is too small")],
        ids=["step-underflow", "norm-overflow"],
    )
    def test_exits_1_with_message(self, tmp_path, capsys, command, abs_tol, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"abs_tol": abs_tol, "horizon": 1}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("integration failed: ") and reason in err
        assert list(tmp_path.iterdir()) == [cfg]


def first_data_row(path):
    return next(line for line in path.read_text().splitlines()[1:] if not line.startswith("#"))


class TestSimulate:
    def test_summary_prints_interpolant_maxima(self, tmp_path, capsys):
        # node maxima would print max x1 = 0.7652; the interpolant peaks
        # between nodes at 0.765256
        assert main(["simulate", "--horizon", "100", "--out", str(tmp_path)]) == 0
        line = [s for s in capsys.readouterr().out.splitlines() if s.startswith("max x1")]
        printed = [part.split(" = ")[1] for part in line[0].split(", ")]
        traj = integrate(DEMO, State.zero(), 100.0)
        tops = [traj.extrema([("max", f"x{i}", None, None)])[0][0] for i in range(1, 5)]
        assert printed == [f"{top:.4f}" for top in tops]
        assert printed[0] == "0.7653"

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
        first = first_data_row(tmp_path / "trajectory.csv")
        assert first.split(",") == ["0", "0", "0", "0", "0"]

    def test_custom_initial_state(self, tmp_path, capsys):
        code = main(
            ["simulate", "--x0", "1,0,0,0.5", "--horizon", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        first = first_data_row(tmp_path / "trajectory.csv")
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "Expecting value: line 1 column 1 (char 0)"),
            ("[1, 2]", "malformed certificate JSON: "),
            ({"M1": "abc"}, "expected M1 as a number, got 'abc'"),
            ({"M1": [1]}, "expected M1 as a number, got [1]"),
            ({"M1": float("nan")}, "M1 must be finite and > 0, got nan"),
            ({"M1": 0}, "M1 must be finite and > 0, got 0.0"),
            ({"T0": float("nan")}, "T0 must be finite and > 0, got nan"),
            ({"W0": -1.0}, "W0 must be finite and >= 0, got -1.0"),
            ({"W0": False}, "expected W0 as a number, got False"),
        ],
        ids=["not-json", "list", "non-numeric", "list-M1", "nan-M1", "zero-M1", "nan-T0", "negative-W0",
             "bool-W0"],
    )
    def test_malformed_certificate_exits_2_naming_the_file(self, tmp_path, capsys, text, message):
        if isinstance(text, dict):  # a written certificate with fields edited
            assert main(["bounds", "--out", str(tmp_path)]) == 0
            obj = json.loads((tmp_path / "certificate.json").read_text())
            text = json.dumps({**obj, **text})
        path = tmp_path / "bad_cert.json"
        path.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"certificate_json": str(path), "horizon": 2.0}))
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: certificate JSON {path}: {message}")
        assert not (tmp_path / "report.json").exists()

    def test_trajectory_csv_matches_in_memory(self, tmp_path, capsys):
        assert main(["simulate", "--horizon", "30", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"trajectory_csv": str(tmp_path / "trajectory.csv")})
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        direct = tmp_path / "direct"
        assert main(["verify", "--horizon", "30", "--out", str(direct)]) == 0
        from_csv = (tmp_path / "report.json").read_bytes()
        assert from_csv == (direct / "report.json").read_bytes()
        want = build_report(DEMO, State.zero(), horizon=30.0).to_json()
        assert json.loads(from_csv) == json.loads(json.dumps(want))

    def test_readme_example_matches_output(self, tmp_path, capsys):
        # each "[..]" line of the README's verify example is a line of the
        # output, or its prefix where the README cuts it with "..."; the
        # rounding-level margins are cut, as they depend on summation order
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        k = readme.index("$ aifcert verify --horizon 100 --fuzz 50 --out results")
        shown = []
        for line in readme[k + 1 :]:
            if not line.startswith("["):
                break
            shown.append(line)
        assert len(shown) == 5
        assert main(["verify", "--horizon", "100", "--fuzz", "50", "--out", str(tmp_path)]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert len(printed) == len(shown)
        for want, got in zip(shown, printed):
            if want.endswith("..."):
                assert got.startswith(want[:-3])
            else:
                assert got == want

    def test_clamped_node_names_the_abs_tol_allowance(self, tmp_path, capsys):
        # simulated at abs_tol 1e-4, verified at the default 1e-10: a Taylor
        # row ends 5.5e-5 below a node clamped to 0, which only the
        # simulation's own abs_tol allows
        rates = [1, 1e4, 100, 1, 1, 1, 1, 1e4]
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"params": rates, "horizon": 3, "rel_tol": 1e-6, "abs_tol": 1e-4}))
        assert main(["simulate", "--config", str(sim), "--out", str(tmp_path)]) == 0
        path = tmp_path / "trajectory.csv"
        ver = tmp_path / "ver.json"
        ver.write_text(json.dumps({"params": rates, "trajectory_csv": str(path)}))
        capsys.readouterr()
        assert main(["verify", "--config", str(ver), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: trajectory CSV {path}: the Taylor row of step 0 misses its right node "
            "(t=0.0470317273058176, x4) by -5.52e-05, beyond the abs_tol allowance 1e-10 below "
            "a node clamped to 0\n")
        ver.write_text(json.dumps({"params": rates, "trajectory_csv": str(path), "abs_tol": 1e-4}))
        assert main(["verify", "--config", str(ver), "--out", str(tmp_path)]) == 0

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
        direct = tmp_path / "direct"
        assert main(["plot", "--horizon", "20", "--out", str(direct)]) == 0
        for name in ("states.svg", "x1_bound.svg"):
            assert (tmp_path / name).read_bytes() == (direct / name).read_bytes()

    def test_draws_M1_of_certificate_json(self, tmp_path, capsys):
        # the certificate at L0 = 1.75 has M1 = 3.1436; the computed one at L* has 2.9235
        assert main(["bounds", "--L0", "1.75", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"certificate_json": str(tmp_path / "certificate.json")}))
        assert main(["plot", "--config", str(cfg), "--horizon", "20", "--out", str(tmp_path)]) == 0
        assert "M1 = 3.1436" in (tmp_path / "x1_bound.svg").read_text()

    def test_certificate_json_of_another_x0_exits_2(self, tmp_path, capsys):
        assert main(["bounds", "--x0", "1,0,0,0", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"certificate_json": str(tmp_path / "certificate.json")}))
        capsys.readouterr()
        assert main(["plot", "--config", str(cfg), "--horizon", "20", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: certificate provenance does not match the trajectory\n"
        assert not (tmp_path / "x1_bound.svg").exists()


@pytest.fixture(scope="module")
def overshoot_csv_lines(tmp_path_factory):
    """The CSV of the run from x0 = (10, 0, 0, 0) at horizon 30, one switch, as lines."""
    path = tmp_path_factory.mktemp("overshoot") / "trajectory.csv"
    write_trajectory_csv(integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0), path)
    return path.read_text().split("\n")


class TestHeaderOnlyCsv:
    @pytest.mark.parametrize("command", ["plot", "verify"])
    def test_exits_2_naming_the_file_without_warning(self, tmp_path, capsys, command):
        path = tmp_path / "empty.csv"
        path.write_text("t,x1,x2,x3,x4\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectory_csv": str(path)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: trajectory CSV {path} has no data rows\n"

    @pytest.mark.parametrize("command", ["plot", "verify"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x1,x2,x3,x4\n0,0,0,0,0\n", "need at least two samples"),
            ("t,x1,x2,x3,x4\n0,0,0,0\n1,0,0,0\n", "expected 5 columns, got 4"),
            ("t,x1,x2,x3,x4\n0,0,0,0,0\n1,0,0,0\n", "the number of columns changed"),
            ("time,a,b,c,d\n0,0,0,0,0\n1,0,0,0,0\n", "unexpected header 'time,a,b,c,d'"),
            ("t,x1,x2,x3,x4\n# taylor_steps=one\n0,0,0,0,0\n1,0,0,0,0\n",
             "taylor_steps 'one' is not a list of start:stop runs"),
            ("t,x1,x2,x3,x4\n# taylor_steps=1\n0,0,0,0,0\n1,0,0,0,0\n",
             "taylor_steps '1' is not a list of start:stop runs"),
            ("t,x1,x2,x3,x4\n# taylor_steps=0:2\n0,0,0,0,0\n1,0,0,0,0\n",
             "taylor_steps must be in [0, 1], got 2"),
            ("t,x1,x2,x3,x4\n# taylor_steps=-1:1\n0,0,0,0,0\n1,0,0,0,0\n",
             "taylor_steps must be in [0, 1], got -1"),
            ("t,x1,x2,x3,x4\n0,1e200,0,0,1e200\n1,1e200,0,0,1e200\n",
             "rebuilt dense rows are not finite"),
            ("t,x1,x2,x3,x4\n# taylor_steps=0:1\n0,1e200,0,0,1e200\n1,1e200,0,0,1e200\n",
             "rebuilt dense rows are not finite"),
        ],
        ids=["one-row", "four-columns", "ragged", "bad-header", "taylor-not-int", "taylor-count",
             "taylor-too-many", "taylor-negative", "hermite-overflow", "taylor-overflow"],
    )
    def test_malformed_exits_2_naming_the_file(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectory_csv": str(path)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: trajectory CSV {path}: ") and message in err

    @pytest.mark.parametrize("command", ["plot", "verify"])
    @pytest.mark.parametrize("tamper", ["raised-run", "edited-node"])
    def test_exits_2_naming_the_file_and_step(self, tmp_path, capsys, overshoot_csv_lines,
                                               command, tamper):
        # RODAS4 steps passed off as Taylor steps, or a node inside the
        # Taylor run nudged by 1e-6 relative: a Taylor row misses its node
        lines = list(overshoot_csv_lines)
        assert lines[1] == "# taylor_steps=0:528"
        if tamper == "raised-run":
            lines[1], step = "# taylor_steps=0:838", 528
        else:
            row = lines[2 + 100].split(",")
            row[1] = repr(float(row[1]) * (1.0 + 1e-6))
            lines[2 + 100], step = ",".join(row), 99
        path = tmp_path / "tampered.csv"
        path.write_text("\n".join(lines))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectory_csv": str(path), "x0": [10, 0, 0, 0]}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: trajectory CSV {path}: the Taylor row of step {step} ")
        assert "misses its right node" in err

    @pytest.mark.parametrize("command", ["plot", "verify"])
    def test_x0_other_than_the_csv_start_exits_2(self, tmp_path, capsys, overshoot_csv_lines,
                                                  command):
        # the CSV starts at (10, 0, 0, 0) and the config keeps the default
        # x0 = 0: a certificate for x0 = 0 says nothing about this run
        path = tmp_path / "trajectory.csv"
        path.write_text("\n".join(overshoot_csv_lines))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectory_csv": str(path)}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: certificate provenance does not match the trajectory\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json", "trajectory.csv"]

    @pytest.mark.parametrize("command", ["plot", "verify"])
    def test_x0_other_than_the_csv_start_exits_2_with_its_certificate(
        self, tmp_path, capsys, overshoot_csv_lines, command
    ):
        # the certificate is the CSV's own, but the config's x0 = 0 is not
        # the start (10, 0, 0, 0) of the run
        assert main(["bounds", "--x0", "10,0,0,0", "--out", str(tmp_path)]) == 0
        path = tmp_path / "trajectory.csv"
        path.write_text("\n".join(overshoot_csv_lines))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectory_csv": str(path),
                                   "certificate_json": str(tmp_path / "certificate.json")}))
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: x0 does not match the trajectory's initial state\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["certificate.json", "cfg.json", "trajectory.csv"]


def polyline_loop(frame, ts, vs, color):
    """Reference for plot._polyline: one f-string per point."""
    pts = " ".join(f"{frame.x(t):.2f},{frame.y(v):.2f}" for t, v in zip(ts, vs))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


class TestPolyline:
    def test_demo_matches_loop_form(self, demo_traj):
        ts = np.linspace(demo_traj.t[0], demo_traj.t[-1], 2001)
        ys = demo_traj.at(ts)
        frame = _Frame(float(ts[0]), float(ts[-1]), 0.0, float(ys.max()) * 1.06)
        points = _points(frame, ts)
        for i in range(4):
            got = _polyline(frame, points, ys[:, i], "#1f77b4")
            assert got == polyline_loop(frame, ts, ys[:, i], "#1f77b4")

    def test_outside_the_frame_matches_loop_form(self):
        rng = np.random.default_rng(7)
        ts = rng.uniform(-20.0, 80.0, 500)
        vs = np.concatenate([rng.uniform(-50.0, 50.0, 497), [-0.0, 1e300, -1e-300]])
        frame = _Frame(0.0, 60.0, 0.0, 1.0)
        got = _polyline(frame, _points(frame, ts), vs, "#d62728")
        assert got == polyline_loop(frame, ts, vs, "#d62728")


COMMAND_HELP = {
    "bounds": "compute the bound certificate",
    "simulate": "integrate the system and write a trajectory CSV",
    "verify": "run every check and write a report",
    "plot": "emit SVG figures",
}


class TestParser:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_unknown_command_exits_2_naming_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "nonsense" in err
        assert all(repr(name) in err for name in COMMAND_HELP)

    def test_help_lists_commands_and_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        for name, text in COMMAND_HELP.items():
            assert f"{name} {text}" in lines
        assert len(_FLAGS) == 7
        for key, text in {"config": "JSON config file", **_FLAGS}.items():
            assert f"--{key} {key.upper()} {text}" in lines

    def test_readme_argv_namespace(self):
        args = build_parser().parse_args(["verify", "--horizon", "100", "--fuzz", "50"])
        assert vars(args) == {"command": "verify", "config": None, "params": None, "x0": None,
                              "horizon": "100", "L0": None, "out": None, "seed": None,
                              "fuzz": "50"}

    def test_flag_before_the_command_parses_as_after(self, tmp_path, capsys):
        flags = ["--horizon", "2", "--out", str(tmp_path)]
        parser = build_parser()
        assert parser.parse_args([*flags, "simulate"]) == parser.parse_args(["simulate", *flags])
        assert main([*flags, "simulate"]) == 0
        assert (tmp_path / "trajectory.csv").exists()


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
