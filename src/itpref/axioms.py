"""Brute-force axiom verification against an abstract preference oracle.

Each check enumerates simple acts over a finite value grid and atom-union
events in a deterministic order, capped at a query budget, and reports
PASS/FAIL per clause with a serialized counterexample on failure.  Null
events are derived from the oracle itself (never read off a representation),
so corrupted oracles are audited on their own terms.

Continuity is verified on constructed convergent sequences only: it is a
property test, not a proof, and the non-degeneracy clause quantifies over an
unbounded set of constants, so a clean pass is reported as "not falsified
within bounds".
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .curves import fmt_number
from .engine import TriPartition
from .filtered_space import Act, Event, FilteredSpace, Number, _is_finite, paste
from .oracles import (
    BracketError,
    PreferenceOracle,
    QueryAnswer,
    indifference_profile,
)

QUERY_CAP = 10**6
SUBGRID = (-1, 0, 1, 2)  # value set for act pairs in the sure-thing search
# constant-act bisections must land well inside the oracle's equivalence band,
# or the slope-amplified overshoot fails legitimate equivalence queries
BISECT_TOL = 1e-12
NULL_PROBE_ACTS = 8  # grid acts each null-event derivation tests per atom
MAX_DISTINCT = 3  # distinct values per simple act when the caller sets no cap


@dataclass(frozen=True)
class ActGrid:
    """Finite outcome grid for simple acts: finite, strictly sorted numbers
    (not bools) containing 0, whose extension by +-4*max|grid| stays within
    the float range."""

    values: tuple[Number, ...] = (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)

    def __post_init__(self) -> None:
        for x in self.values:
            if isinstance(x, bool):
                raise ValueError(f"grid value {x!r} is a bool, not a number")
            if not _is_finite(x):
                raise ValueError(f"grid value {x!r} is not finite")
        if 0 not in self.values:
            raise ValueError("grid must contain 0")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("grid values must be strictly sorted")
        try:
            fits = math.isfinite(float(4 * self.bound))
        except OverflowError:
            fits = False
        if not fits:
            x = max(self.values[0], self.values[-1], key=abs)
            raise ValueError(
                f"grid value {fmt_number(x)} is too large: the grid's extension "
                f"+-4*max|grid| exceeds the float range"
            )

    @property
    def bound(self) -> Number:
        return max(abs(self.values[0]), abs(self.values[-1]))

    def float_form(self) -> "ActGrid":
        """The grid of a float run: each ``Fraction`` as its float, ints and
        floats as given.  Rounding keeps the order, so only neighbours can
        collide."""
        floats = tuple(float(x) if type(x) is Fraction else x for x in self.values)
        for a, b, fa, fb in zip(self.values, self.values[1:], floats, floats[1:]):
            if fa == fb:
                raise ValueError(
                    f"grid values {fmt_number(a)} and {fmt_number(b)} are the same "
                    f"float {fb!r}; a float run cannot tell them apart"
                )
        return ActGrid(floats)

    def extended(self) -> tuple[Number, ...]:
        """Grid hull extended by +-4*max|grid| for dominating constants."""
        extra = 4 * self.bound
        return tuple(sorted(set(self.values) | {-extra, extra}))


DEFAULT_GRID = ActGrid()


def grid_for(oracle: PreferenceOracle, grid: ActGrid) -> ActGrid:
    """The grid ``oracle`` is audited and recovered on: as given when
    ``oracle.exact`` holds, else its float form, so a float run neither
    hashes nor evaluates ``Fraction``s.  Idempotent."""
    return grid if oracle.exact else grid.float_form()


@dataclass
class CheckResult:
    passed: bool
    counterexample: str | None = None
    note: str = ""
    queries: int = 0


@dataclass
class TransitionReport:
    """Per-clause results for the transition axiom at one step."""

    step: int
    clauses: dict[str, CheckResult] = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.clauses.values())

    def render(self) -> str:
        lines = []
        for name, res in self.clauses.items():
            lines.append(_render_line(f"T.{name} @ step {self.step}", res))
        return "\n".join(lines)


def _render_line(title: str, res: CheckResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    line = f"[{title}] {status}"
    if res.counterexample:
        line += f" counterexample: {res.counterexample}"
    if res.note:
        line += f" ({res.note})"
    return line


def _vals(act: Act) -> str:
    return "(" + ",".join(str(v) for v in act.atom_values()) + ")"


def _grid_combos(choices: Sequence[Sequence], cap: int, keep: Callable | None = None) -> list[tuple]:
    """The first ``cap`` tuples of ``itertools.product(*choices)`` that ``keep``
    accepts (every one when it is None), in product order; none when ``cap <= 0``.
    Every candidate act of the audits and of recovery is built from these."""
    combos = itertools.product(*choices)
    return list(itertools.islice(filter(keep, combos) if keep else combos, max(cap, 0)))


def enumerate_simple_acts(
    space: FilteredSpace,
    level: int,
    grid: ActGrid,
    max_distinct: int = MAX_DISTINCT,
    cap: int = 128,
) -> list[Act]:
    """Deterministic enumeration of grid simple acts at a time level:
    constants first, then products over atoms with a distinct-value cap."""
    acts = [Act.constant(space, level, v) for v in grid.values]
    # a combo with one distinct value is a constant, listed already
    combos = _grid_combos(
        [grid.values] * space.n_atoms(level), cap - len(acts),
        keep=lambda c: 1 < len(set(c)) <= max_distinct,
    )
    acts += [Act.from_atom_values(space, level, c) for c in combos]
    return acts[:cap]


def _debreu_candidates(
    space: FilteredSpace, level: int, xs: Sequence[Number], cap: int
) -> list[tuple[Act, tuple[int, ...]]]:
    """Up to ``cap`` time-``level`` acts, each with the positions in ``xs`` of
    its per-atom values, that take the values of ``xs`` next to 0 (and 0
    itself) on each atom and are not 0 everywhere."""
    z = xs.index(0)  # sorted ``xs`` holds a positive value, so z + 1 is in range
    picks = tuple(dict.fromkeys((max(z - 1, 0), z, z + 1)))
    amap, origin = space.atom_index_map(level), (z,) * space.n_atoms(level)
    combos = _grid_combos([picks] * len(origin), cap, keep=lambda pos: pos != origin)
    # one finite grid value per atom: measurable at ``level`` by construction
    return [(Act._trusted(space, level, tuple([xs[pos[k]] for k in amap])), pos) for pos in combos]


def _sure_thing_candidates(space: FilteredSpace, level: int, atoms: Sequence[int]) -> list[Act]:
    """:func:`check_ST`'s acts on the union of ``atoms``: ``SUBGRID`` on each
    of them and 0 elsewhere, at most 32."""
    choices = [SUBGRID if k in atoms else (0,) for k in range(space.n_atoms(level))]
    return [Act.from_atom_values(space, level, c) for c in _grid_combos(choices, 32)]


def derive_null_events(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
) -> list[Event]:
    """Atoms at time index i that the (i-1, i) relation treats as null: for
    every tested act f with certainty equivalent g, rewriting f arbitrarily
    on the atom leaves the equivalence intact.  Exhaustive over the grid up
    to the act cap; i must be at least 1."""
    if i < 1:
        raise ValueError("null events are derived from the preceding step; need i >= 1")
    events = oracle.space.atom_events(i)
    return [events[k] for k in _null_atoms(_Budget(oracle), i, grid)]


def _null_atoms(budget: _Budget, i: int, grid: ActGrid) -> tuple[int, ...]:
    """The indices of :func:`derive_null_events`' atoms, asking through
    ``budget``'s table; none at ``i < 1``."""
    if i < 1:
        return ()
    oracle = budget.oracle
    space, grid = oracle.space, grid_for(oracle, grid)
    step = i - 1
    candidates = enumerate_simple_acts(space, i, grid, max_distinct=2, cap=NULL_PROBE_ACTS)
    consts = [Act.constant(space, i, c) for c in grid.values]
    # per candidate: its certainty equivalent when that is equivalent to it
    leads = _Row(lambda n: _lead(budget, step, candidates[n], "equiv"))

    def rewrite_keeps_equivalence(n: int, A: Event) -> bool:
        f, g = candidates[n], leads[n]
        return g is None or all(budget.ask(step, g, paste(c, f, A)).equiv for c in consts)

    return tuple(
        k for k, A in enumerate(space.atom_events(i))
        if all(rewrite_keeps_equivalence(n, A) for n in range(len(candidates)))
    )


def _essential_atoms(budget: _Budget, level: int, grid: ActGrid) -> list[int]:
    nulls = _null_atoms(budget, level, grid)
    return [k for k in range(budget.oracle.space.n_atoms(level)) if k not in nulls]


def _atom_unions(ks: Sequence[int], max_size: int, cap: int) -> list[tuple[int, ...]]:
    """The first ``cap`` nonempty unions of the atoms ``ks``, as index tuples,
    smallest first."""
    sizes = range(1, min(max_size, len(ks)) + 1)
    unions = itertools.chain.from_iterable(itertools.combinations(ks, n) for n in sizes)
    return list(itertools.islice(unions, cap))


class _Budget:
    """Query accounting and the table of answers for one check, and the only
    place its results are finished: the check asks through :meth:`ask`,
    capped loops draw their items through :meth:`each`, and every result
    leaves through :meth:`close`.  The table lives as long as the check and
    is its memo across loops; within a loop, a check keeps rows of the
    answers it reuses, indexed by loop position and filled through
    :meth:`ask` on first use, so a repeat costs neither a key nor a hash."""

    def __init__(self, oracle: PreferenceOracle, cap: int = QUERY_CAP) -> None:
        self.oracle = oracle
        self.start = oracle.queries
        self.cap = cap
        self.hit = False
        self._answers: dict = {}

    def ask(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        """``oracle.ask``, asked once per distinct question: answers are
        deterministic, so a question asked before is answered from the
        table and costs no query."""
        key = (i, g.time_index, g.values, f.time_index, f.values, None if A is None else A.members)
        ans = self._answers.get(key)
        if ans is None:
            ans = self._answers[key] = self.oracle.ask(i, g, f, A)
        return ans

    @property
    def spent(self) -> int:
        return self.oracle.queries - self.start

    def each(self, items: Iterable) -> Iterator:
        """The items, stopping at the head of the first iteration that finds
        the cap exceeded."""
        for item in items:
            if self.spent > self.cap:
                self.hit = True
                return
            yield item

    def close(self, res: CheckResult) -> CheckResult:
        """Stamp the queries spent so far and, once the cap was hit, the cap
        note."""
        res.queries = self.spent
        if self.hit:
            res.note = f"query cap reached after {res.queries} queries"
        return res


class _Row(dict):
    """A check's answers within one loop, by loop position: each is found by
    ``find(position)`` on first use, so a repeat is a plain lookup."""

    __slots__ = ("find",)

    def __init__(self, find: Callable) -> None:
        super().__init__()
        self.find = find

    def __missing__(self, n):
        found = self[n] = self.find(n)
        return found


def _equivalent(oracle: PreferenceOracle, i: int, X: Act) -> Act | None:
    """X's certainty equivalent at step i, or None when it does not bracket."""
    try:
        return indifference_profile(oracle, i, X, BISECT_TOL)
    except BracketError:
        return None


def _lead(budget: _Budget, i: int, X: Act, side: str) -> Act | None:
    """X's certainty equivalent at step i when it brackets and holds ``side``
    (an attribute of :class:`QueryAnswer`) against X, else None."""
    c = _equivalent(budget.oracle, i, X)
    return c if c is not None and getattr(budget.ask(i, c, X), side) else None


def check_T(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
    cap: int = QUERY_CAP,
) -> TransitionReport:
    """All six transition clauses at step i (the four-clause unconditional
    form when i = 0; consistency and stability are then vacuous)."""
    space, grid = oracle.space, grid_for(oracle, grid)
    budget = _Budget(oracle, cap)
    ask = budget.ask
    report = TransitionReport(step=i)

    null_i = _null_atoms(budget, i, grid)
    null_union = space.union_event(i, null_i)
    ess = [k for k in range(space.n_atoms(i)) if k not in null_i]
    ess_atoms = [space.atom_event(i, k) for k in ess]
    f_acts = enumerate_simple_acts(space, i + 1, grid, cap=160)
    if i == 0:
        g_acts = [Act.constant(space, 0, v) for v in grid.values]
    else:
        g_acts = enumerate_simple_acts(space, i, grid, max_distinct=2, cap=24)
    ext = grid.extended()
    ext_acts = [(c, Act.constant(space, i, c)) for c in ext]

    # 1. local completeness
    res = CheckResult(True)
    for g, f in budget.each(itertools.product(g_acts, f_acts)):
        if i == 0:
            if ask(0, g, f).undecided:
                res = CheckResult(False, f"g={_vals(g)} f={_vals(f)} undecided")
                break
        else:
            if not ess_atoms:
                res = CheckResult(False, "no essential event answers any comparison")
                break
            if all(ask(i, g, f, A).undecided for A in ess_atoms):
                res = CheckResult(
                    False, f"g={_vals(g)} f={_vals(f)} undecided on every essential atom"
                )
                break
    report.clauses["1 local-completeness"] = budget.close(res)

    # 2. transitivity
    res = CheckResult(True)
    for f in budget.each(f_acts):
        answers = [(c, ask(i, const, f)) for c, const in ext_acts]
        lows = [c for c, ans in answers if ans.preceq]
        highs = [c for c, ans in answers if ans.succeq]
        if not lows or not highs:
            continue
        a, b = max(lows), min(highs)
        if a > b:
            if i == 0:
                res = CheckResult(False, f"f={_vals(f)}: {a} preceq f, {b} succeq f, but {a} > {b}")
                break
            # {b < a} is the whole space here; it must be null
            if any(k not in null_i for k in range(space.n_atoms(i))):
                res = CheckResult(
                    False, f"f={_vals(f)}: constants {b} succeq f and {a} preceq f with {{g<h}} essential"
                )
                break
    if res.passed and i >= 1:
        row_f = None
        positions = range(len(g_acts))
        for f, m, n in budget.each(itertools.product(f_acts[:32], positions, positions)):
            if f is not row_f:
                row_f, row = f, _Row(lambda m, f=f: ask(i, g_acts[m], f))
            if row[m].succeq and row[n].preceq:
                g, h = g_acts[m], g_acts[n]
                where = {s for s in range(space.n_states) if g.values[s] < h.values[s]}
                if not where <= null_union.members:
                    res = CheckResult(
                        False,
                        f"g={_vals(g)} succeq f={_vals(f)}, h={_vals(h)} preceq f, "
                        f"but {{g<h}} is essential",
                    )
                    break
    report.clauses["2 transitivity"] = budget.close(res)

    # 3. normalization: null indicators are mutually equivalent
    res = CheckResult(True)
    null_events: list[Event] = [Event(space, frozenset(), i)]
    null_events += [space.atom_event(i, k) for k in sorted(null_i)]
    if len(null_i) > 1:
        null_events.append(null_union)
    for A, B in budget.each(itertools.product(null_events, repeat=2)):
        if not ask(i, A.indicator(i), B.indicator(i + 1)).equiv:
            res = CheckResult(False, f"1_{A.label()} !~ 1_{B.label()} despite both null")
            break
    report.clauses["3 normalization"] = budget.close(res)

    # 4. non-degeneracy: dominating/dominated constants within the extension
    res = CheckResult(True, note=f"not falsified within bounds +-{ext[-1]}")
    for f in budget.each(f_acts):
        g2 = next((c for c, const in reversed(ext_acts) if ask(i, const, f).succeq), None)
        g1 = next((c for c, const in ext_acts if ask(i, const, f).preceq), None)
        if g2 is None or g1 is None:
            side = "dominating" if g2 is None else "dominated"
            res = CheckResult(
                False,
                f"f={_vals(f)}: no {side} constant within +-{ext[-1]}",
                note="unbounded search is undecidable; failure within extension reported",
            )
            break
    report.clauses["4 non-degeneracy"] = budget.close(res)

    # 5 & 6: consistency under sub-events; stability under unions
    if i == 0:
        note = "vacuous at the initial time: only the trivial event conditions"
        report.clauses["5 consistency"] = CheckResult(True, note=note)
        report.clauses["6 stability"] = CheckResult(True, note=note)
    else:
        res5 = CheckResult(True)
        res6 = CheckResult(True)
        masks = [space.union_event(i, ks) for ks in _atom_unions(ess, len(ess), cap=32)]
        for g, f in budget.each(itertools.product(g_acts[:8], f_acts[:48])):
            answers = {ev.members: ask(i, g, f, ev) for ev in masks}
            for ev in masks:
                big = answers[ev.members]
                for sub in masks:
                    if sub.members < ev.members:
                        small = answers[sub.members]
                        if res5.passed and (
                            (big.succeq and not small.succeq)
                            or (big.preceq and not small.preceq)
                        ):
                            res5 = CheckResult(
                                False,
                                f"g={_vals(g)} f={_vals(f)}: answer on {ev.label()} "
                                f"not inherited by {sub.label()}",
                            )
            for ea, eb in itertools.combinations(masks, 2):
                if ea.members & eb.members:
                    continue
                union = answers.get(frozenset(ea.members | eb.members))
                if union is None:
                    continue
                va, vb = answers[ea.members], answers[eb.members]
                if res6.passed and (
                    (va.succeq and vb.succeq and not union.succeq)
                    or (va.preceq and vb.preceq and not union.preceq)
                ):
                    res6 = CheckResult(
                        False,
                        f"g={_vals(g)} f={_vals(f)}: {ea.label()} and {eb.label()} "
                        f"agree but their union does not",
                    )
            if not res5.passed and not res6.passed:
                break
        report.clauses["5 consistency"] = budget.close(res5)
        report.clauses["6 stability"] = budget.close(res6)
    return report


def check_M(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
    cap: int = QUERY_CAP,
) -> CheckResult:
    """Strict monotonicity: raising the pasted constant on an essential event
    must strictly improve the pasted act somewhere essential."""
    space, grid = oracle.space, grid_for(oracle, grid)
    budget = _Budget(oracle, cap)
    ask = budget.ask
    up = _essential_atoms(budget, i + 1, grid)
    ess_i = [space.atom_event(i, k) for k in _essential_atoms(budget, i, grid)]
    events = [space.union_event(i + 1, ks) for ks in _atom_unions(up, 2, cap=12)]
    f_acts = enumerate_simple_acts(space, i + 1, grid, max_distinct=2, cap=12)
    consts = [Act.constant(space, i + 1, g) for g in grid.values]
    pairs = list(itertools.combinations(range(len(consts)), 2))
    skipped = 0
    row_A = row_f = None

    for A, f, (n1, n2) in budget.each(itertools.product(events, f_acts, pairs)):
        if A is not row_A or f is not row_f:
            # the pairs run innermost: each grid constant pasted on A over f
            # once per (A, f); each paste's certainty equivalent, and whether
            # it answers equivalent to the paste, on first use
            row_A, row_f = A, f
            row = [paste(c, f, A) for c in consts]
            equivalents = _Row(lambda n, row=row: _equivalent(oracle, i, row[n]))
            equiv = _Row(lambda n, row=row, cs=equivalents: ask(i, cs[n], row[n]).equiv)
        # the equivalent of each paste must sit strictly on its side of the other
        for n, m, below, side in (
            (n1, n2, True, "g1-paste is not strictly below the g2-paste"),
            (n2, n1, False, "g2-paste is not strictly above the g1-paste"),
        ):
            X, Y = row[n], row[m]
            c = equivalents[n]
            if c is None:
                skipped += 1
                break
            if equiv[n] and not any(
                (ans.preceq if below else ans.succeq) and not ans.equiv
                for ans in (ask(i, c, Y, e) for e in ess_i)
            ):
                return budget.close(CheckResult(
                    False,
                    f"A={A.label()} f={_vals(f)} g1={grid.values[n1]} g2={grid.values[n2]}: "
                    f"equivalent of the {side} on any essential event",
                ))
    note = f"{skipped} premises not instantiable" if skipped else ""
    return budget.close(CheckResult(True, note=note))


def check_ST(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
    cap: int = QUERY_CAP,
) -> CheckResult:
    """Sure-thing principle: when a bracketing constant exists for the
    (f1, f2) pair pasted with h off A, one must exist for every k off A.
    The required constant is searched by bisection and then over the
    extended grid; absence within the grid closure is the failure."""
    space, grid = oracle.space, grid_for(oracle, grid)
    budget = _Budget(oracle, cap)
    ask = budget.ask
    unions = _atom_unions(_essential_atoms(budget, i + 1, grid), 2, cap=10)
    unions.append(tuple(range(space.n_atoms(i + 1))))
    h_acts = [Act.constant(space, i + 1, h) for h in grid.values]
    ext_acts = [Act.constant(space, i, c) for c in grid.extended()]

    for atoms in unions:
        A = space.union_event(i + 1, atoms)
        f_cands = _sure_thing_candidates(space, i + 1, atoms)
        # pasted[j][n]: candidate j on A and the n-th grid constant off it,
        # built once.  Per paste: leads[j][n], its certainty equivalent when
        # that answers succeq against it, else None; beyond[j][n][e],
        # ext_acts[e] against it
        pasted = [[paste(f, h, A) for h in h_acts] for f in f_cands]
        leads = [_Row(lambda n, row=row: _lead(budget, i, row[n], "succeq")) for row in pasted]
        beyond = [
            _Row(lambda n, row=row: _Row(lambda e, Y=row[n]: ask(i, ext_acts[e], Y))) for row in pasted
        ]
        # off a union of every state, each constant pastes to the same act,
        # so the first column answers for all
        columns = range(1) if len(A.members) == space.n_states else range(len(h_acts))
        for j1, j2 in budget.each(itertools.product(range(len(f_cands)), repeat=2)):
            f1, f2 = f_cands[j1], f_cands[j2]
            if f1.values == f2.values:
                continue
            lead, others = leads[j1], pasted[j2]
            premise = next(
                (n for n in columns if lead[n] is not None and ask(i, lead[n], others[n]).preceq),
                None,
            )
            if premise is None:
                continue
            for n in columns:
                # below the premise, the premise's search found no bracket
                found = n == premise or (
                    n > premise and lead[n] is not None and ask(i, lead[n], others[n]).preceq
                )
                if not found:
                    row1, row2 = beyond[j1][n], beyond[j2][n]
                    found = any(row1[e].succeq and row2[e].preceq for e in range(len(ext_acts)))
                if not found:
                    return budget.close(CheckResult(
                        False,
                        f"A={A.label()} f1={_vals(f1)} f2={_vals(f2)} "
                        f"h={grid.values[premise]} k={grid.values[n]}: "
                        f"no bracketing act within the grid closure",
                    ))
    return budget.close(CheckResult(True))


def _sequence(style: str, f: Act, n: int, seed: int) -> list[Act]:
    """Uniformly bounded sequences converging pointwise to f."""
    space = f.space
    if style == "uniform":
        return [f.shift(-Fraction(1, n)), f.shift(Fraction(1, n))]
    if style == "atomwise":
        m = space.n_atoms(f.time_index)
        k = (n - 1) % m
        A = space.atom_event(f.time_index, k)
        return [paste(f.shift(-Fraction(1, n)), f, A)]
    rng = random.Random(seed * 1_000_003 + n)  # style "random"
    per_atom = [
        v + rng.uniform(-1, 1) / n
        for v in f.atom_values()
    ]
    return [Act.from_atom_values(space, f.time_index, per_atom)]


C_STYLES = ("uniform", "atomwise", "random")
C_DELTAS = (0.5, 0.1)  # offsets of the strict acts from the certainty equivalent
C_LAST_N = 1024  # last rung of the sequence ladder n = 1, 2, 4, ..., 1024


def check_C(
    oracle: PreferenceOracle,
    i: int,
    f: Act,
    style: str,
    grid: ActGrid = DEFAULT_GRID,
    seed: int = 0,
) -> CheckResult:
    """Pointwise continuity on constructed sequences: strictly dominated acts
    must eventually be dominated by every tail of the sequence, atom by atom
    (on a finite space the atoms are the finest candidate partition).

    The tails are those of the ladder n = 1, 2, 4, ..., 1024; each contains
    the n = 1024 term and the last is that term alone, so some tail holds
    exactly when that term does, and only it is asked, once per strict act,
    sequence and atom."""
    space, grid = oracle.space, grid_for(oracle, grid)
    if style not in C_STYLES:
        raise ValueError(f"unknown sequence style {style!r}")
    budget = _Budget(oracle)
    ask = budget.ask
    f = f if f.time_index == i + 1 else f.at_time(i + 1)
    ess_i = [space.atom_event(i, k) for k in _essential_atoms(budget, i, grid)]
    profile = _equivalent(oracle, i, f)
    if profile is None:
        return budget.close(
            CheckResult(True, note="no certainty equivalent bracketable; premise vacuous")
        )
    samples: list[tuple[Act, bool]] = []  # (strict act, whether it lies below f)
    for delta in C_DELTAS:
        for below in (True, False):
            g = profile.shift(-delta if below else delta)
            ans = ask(i, g, f)
            if (ans.preceq if below else ans.succeq) and not any(
                ask(i, g, f, b).equiv for b in ess_i
            ):
                samples.append((g, below))
    if not samples:
        return budget.close(
            CheckResult(True, note="no strictly comparable act found; premise vacuous")
        )
    tail = _sequence(style, f, C_LAST_N, seed)
    for g, below in samples:
        for fn in tail:
            for b in ess_i:
                ans = ask(i, g, fn, b)
                if not (ans.preceq if below else ans.succeq):
                    return budget.close(CheckResult(
                        False,
                        f"style={style} atom={b.label()}: no tail of the sequence keeps "
                        f"the {'dominated' if below else 'dominating'} act "
                        f"on its side (g offset from the equivalent of f)",
                    ))
    return budget.close(
        CheckResult(True, note=f"{len(samples)} strict acts x {len(tail)} sequences checked")
    )


def tri_partition(
    oracle: PreferenceOracle,
    i: int,
    g: Act,
    f: Act,
    grid: ActGrid = DEFAULT_GRID,
) -> tuple[TriPartition, list[str]]:
    """Classify every essential atom by two oracle queries; an atom answering
    neither way is reported as a local-completeness violation."""
    space = oracle.space
    a: list[int] = []
    b: list[int] = []
    c: list[int] = []
    violations: list[str] = []
    for k in _essential_atoms(_Budget(oracle), i, grid):
        ev = space.atom_event(i, k)
        ans = oracle.ask(i, g, f, ev)
        if ans.equiv:
            a.append(k)
        elif ans.succeq:
            b.append(k)
        elif ans.preceq:
            c.append(k)
        else:
            violations.append(f"atom {ev.label()} unclassifiable (local completeness fails)")
    tri = TriPartition.of_atoms(space, i, a, b, c)
    return tri, violations


def audit_step(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
    seed: int = 0,
) -> dict[str, CheckResult | TransitionReport]:
    """Run every axiom check at step i; continuity is sampled on a few grid
    acts per sequence style."""
    grid = grid_for(oracle, grid)
    out: dict[str, CheckResult | TransitionReport] = {}
    out["T"] = check_T(oracle, i, grid)
    out["M"] = check_M(oracle, i, grid)
    out["ST"] = check_ST(oracle, i, grid)
    c_acts = enumerate_simple_acts(oracle.space, i + 1, grid, max_distinct=2, cap=3)
    for style in C_STYLES:
        res = CheckResult(True)
        for f in c_acts:
            res = check_C(oracle, i, f, style, grid, seed)
            if not res.passed:
                break
        out[f"C/{style}"] = res
    return out


def render_audit(results: dict[str, CheckResult | TransitionReport], step: int) -> str:
    lines = []
    for name, res in results.items():
        if isinstance(res, TransitionReport):
            lines.append(res.render())
        else:
            lines.append(_render_line(f"{name} @ step {step}", res))
    return "\n".join(lines)
