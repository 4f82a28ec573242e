"""The mutation runner's site finder and rewriter (``tools/mutants.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def mutated(source, lines=None):
    """Each site on ``lines`` (every line by default) with the source its
    mutant reads."""
    lines = set(range(1, source.count("\n") + 2)) if lines is None else lines
    return [(site, mutants.mutate(source, *site)) for site in mutants.sites(source, lines)]


@pytest.mark.parametrize("old, new", sorted(mutants.SWAPS.items()))
def test_each_swap_pair(old, new):
    source = f"x = a {old} b\n"
    assert mutated(source) == [((1, 6, old, new), f"x = a {new} b\n")]


def test_is_gains_a_not_and_is_not_loses_it():
    assert mutated("x = a is b\n") == [((1, 6, "is", "is not"), "x = a is not b\n")]
    assert mutated("x = a is not b\n") == [((1, 6, "is not", "is"), "x = a is b\n")]


def test_not_is_deleted_also_before_in():
    assert mutated("x = not a\n") == [((1, 4, "not ", ""), "x = a\n")]
    assert mutated("x = a not in b\n") == [((1, 6, "not ", ""), "x = a in b\n")]


def test_only_the_requested_lines():
    source = "x = a < b\ny = c > d\nz = e == f\n"
    assert mutated(source, {2}) == [((2, 6, ">", ">="), "x = a < b\ny = c >= d\nz = e == f\n")]
    assert mutated(source, set()) == []


def test_nothing_inside_strings_or_comments():
    source = 's = "a < b and not c"  # d >= e or f is g\nt = f"{u}" + \'-\'\n'
    assert mutated(source) == [((2, 11, "+", "-"), 's = "a < b and not c"  # d >= e or f is g\nt = f"{u}" - \'-\'\n')]


def test_parameter_markers_and_unpacking_stars_are_no_operators():
    source = "def f(a, *, b):\n    return a * b\ndef g(a, /, b):\n    return g(*a, **b) / 2\n"
    assert [site for site, _ in mutated(source)] == [(2, 13, "*", "/"), (4, 22, "/", "*")]


def test_mutate_checks_the_text_it_replaces():
    with pytest.raises(AssertionError):
        mutants.mutate("x = a < b\n", 1, 6, ">", ">=")
