"""Tests of fixture.py: at_least's edge is pinned, positive's is not."""

from fixture import at_least, positive


def test_at_least_holds_at_the_floor():
    assert at_least(1, 1) and not at_least(0, 1)


def test_positive_away_from_0():
    assert positive(2) and not positive(-2)
