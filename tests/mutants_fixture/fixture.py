"""A module with two mutation points for bench/mutants.py's own test."""


def at_least(x, floor):
    """Whether x is at least floor."""
    return x >= floor


def positive(x):
    """Whether x is above 0."""
    return x > 0
