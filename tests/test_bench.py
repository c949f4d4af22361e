"""The benchmark scripts' own rules, which need no benchmark run."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pairs():
    return load("pairs")


@pytest.mark.parametrize(
    "wins, n, gap, spread, verdict",
    [
        (1, 1, 0.5, 0.0, "not met (fewer than 10 pairs)"),
        (9, 9, 0.5, 0.1, "not met (fewer than 10 pairs)"),
        (9, 10, 0.5, 0.1, "met"),
        (10, 10, 0.1, 0.1, "not met"),  # a gap no wider than the parent's quartile distance
        (8, 10, 0.5, 0.1, "not met"),
    ],
    ids=["1-of-1", "9-of-9", "9-of-10", "gap-within-spread", "8-of-10"],
)
def test_gain_claim_needs_ten_pairs_nine_won_and_a_wide_gap(pairs, wins, n, gap, spread, verdict):
    assert pairs.gain_claim(wins, n, gap, spread) == verdict


def test_dump_holds_the_bytes_behind_each_digest(tmp_path, capsys):
    # outputs.py --dump writes one file per digest line, whose sha256 is that line's
    assert load("outputs").main(["--dump", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines:
        value, name = line.split("  ")
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == value, name
    assert 0 < len(lines) == sum(path.is_file() for path in tmp_path.rglob("*"))


def test_mutants_prints_the_survivor_of_a_fixture(capsys):
    # fixture.py has two mutants; check_fixture.py pins at_least's >= at its
    # edge, so that mutant is killed, and not positive's >, whose mutant survives
    fixture = Path(__file__).resolve().parent / "mutants_fixture"
    argv = ["--checkout", str(fixture), "--file", "fixture.py", "--tests", "check_fixture.py",
            "--", "-p", "no:hypothesispytest"]
    assert load("mutants").main(argv) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "fixture.py:11: survived: positive: return x > 0  [> -> >=]",
        "2 mutants: 1 killed, 1 survived, 0 allowed as equivalent",
    ]

