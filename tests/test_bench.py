"""The benchmark scripts' own rules, which need no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
