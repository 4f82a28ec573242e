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


def test_site_keys_count_each_operator_on_its_line():
    source = "x = a < b < c and d\n    y = a < b\n"
    found = mutants.sites(source, {1, 2})
    assert mutants.site_keys("m.py", source, found) == [
        ("m.py", "x = a < b < c and d", "<", "<=", 1),
        ("m.py", "x = a < b < c and d", "<", "<=", 2),
        ("m.py", "x = a < b < c and d", "and", "or", 1),
        ("m.py", "y = a < b", "<", "<=", 1),
    ]


def test_only_a_listed_survivor_is_equivalent():
    key = ("m.py", "x = a < b", "<", "<=", 1)
    listed = {key: "a and b are never equal"}
    assert mutants.verdict("SURVIVED", key, listed) == "EQUIVALENT"
    assert mutants.verdict("SURVIVED", key[:-1] + (2,), listed) == "SURVIVED"
    assert mutants.verdict("KILLED", key, listed) == "KILLED"
    assert mutants.verdict("TIMEOUT", key, listed) == "TIMEOUT"


def test_the_list_is_read_with_its_reasons(tmp_path):
    path = tmp_path / "equivalent.json"
    path.write_text('[{"file": "m.py", "line": "x = a < b", "old": "<", "new": "<=", "occurrence": 1, "reason": "r"}]')
    assert mutants.load_equivalents(path) == {("m.py", "x = a < b", "<", "<=", 1): "r"}


def test_listed_equivalents_that_name_no_site_are_stale(tmp_path):
    (tmp_path / "m.py").write_text("x = a < b\n")
    kept = ("m.py", "x = a < b", "<", "<=", 1)
    listed = {
        kept: "r",
        ("m.py", "x = a < b", "<", "<=", 2): "r",
        ("m.py", "x = a <= b", "<=", "<", 1): "r",
        ("gone.py", "x = a < b", "<", "<=", 1): "r",
    }
    assert mutants.stale(tmp_path, listed) == list(listed)[1:]


def test_the_committed_list_has_a_reason_for_each_entry():
    listed = mutants.load_equivalents()
    assert listed and all(reason.strip() for reason in listed.values())
