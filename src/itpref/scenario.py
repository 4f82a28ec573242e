"""Scenario files: a line-oriented, diff-friendly description of a filtered
space, a measure, a utility field, named acts, and an optional strategy set.

Grammar (UTF-8, ``key = value`` lines inside ``[section]`` headers)::

    title = villa                      # optional preamble
    variant = paper-arithmetic

    [space]
    states = d1, d2, ok
    times = 0, 1, 2
    partition t=1 = d1 | d2, ok        # atoms split by '|', states by ','

    [measure]
    d1 = 1/100                         # rationals stay exact

    [utility t=1]
    d1 = pl((-1,-2),(0,0),(1,1/2))     # key = the atom's state list
    d2, ok = identity

    [act cash t=0]
    * = 1000000                        # '*' assigns every state

    [strategies]
    t = 1                              # t and horizon are integer literals
    horizon = 2
    endowment = X1
    strategy a0 = W_a0_1, W_a0_2       # wealth path, one act per time t..horizon

Curves: ``identity``, ``linear(s)``, ``exp(a)``, ``power(p)``,
``pl((x,y)|(x,l,v,r),...)``, ``ascaled(curve,b)``, ``vscaled(curve,k)``.
Any other section header or preamble key is an error.  Numbers are integers,
floats (a ``.``, ``e`` or ``E``) or ``p/q`` rationals, with no ``_`` digit
separators.  Each partition, utility section, atom curve and strategy is
defined once, however it is spelled: ``partition  t=1`` and ``[utility t=01]``
repeat ``partition t=1`` and ``[utility t=1]``, and the key ``ok, d2`` names
the atom ``d2, ok``; a repeat is an error on its line.  Equal curve spec texts
load as one shared curve object, so the tables a curve derives for evaluation
and inversion are built once per file, not once per atom.  Saving is canonical
(fixed section order, every state listed, numbers normalized), so
``save(load(p))`` is byte-identical for canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .curves import (
    ArgScaledCurve,
    ExponentialCurve,
    IdentityCurve,
    LinearCurve,
    MonotoneCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    ValueScaledCurve,
    fmt_number,
)
from .engine import Representation
from .filtered_space import (
    Act,
    FilteredSpace,
    InvariantError,
    Number,
    ProbabilityMeasure,
)
from .utility_field import UtilityField


class ScenarioError(ValueError):
    """Parse or invariant failure, with a line number when available."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class StrategySet:
    """Named wealth paths from a start time to a horizon, plus the endowment
    act they are measured against."""

    t: int
    horizon: int
    endowment: str
    members: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class ScenarioSpec:
    space: FilteredSpace
    measure: ProbabilityMeasure
    field: UtilityField
    acts: dict[str, Act]
    strategies: StrategySet | None = None
    title: str | None = None
    variant: str | None = None

    def representation(self) -> Representation:
        return Representation(self.space, self.measure, self.field)


def parse_number(text: str, line: int | None = None) -> Number:
    text = text.strip()
    try:
        if "_" in text:  # int, float and (from 3.11) Fraction take digit separators
            raise ValueError
        if "/" in text:
            return Fraction(text)
        if "." in text or "e" in text or "E" in text:
            value = float(text)
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError
            return value
        return int(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"not a number: {text!r}", line) from None


def _parse_int(key: str, text: str, line: int) -> int:
    value = parse_number(text, line)
    if not isinstance(value, int):
        raise ScenarioError(f"{key} must be an integer, got {text.strip()!r}", line)
    return value


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside parentheses."""
    parts, depth, start = [], 0, 0
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        elif ch == "," and depth == 0:
            parts.append(text[start:idx])
            start = idx + 1
    parts.append(text[start:])
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    return [p.strip() for p in parts]


_CURVE_ARITY = {"linear": 1, "exp": 1, "power": 1, "ascaled": 2, "vscaled": 2}
_CURVE = re.compile(r"(\w+)\((.*)\)", flags=re.S)
_SECTION = re.compile(r"space|measure|strategies|utility\s+t=(\d+)|act\s+(\S+)\s+t=(\d+)")
_PARTITION = re.compile(r"partition\s+t=(\d+)")
_STRATEGY = re.compile(r"strategy\s+(\S+)")


def parse_curve(text: str, line: int | None = None) -> MonotoneCurve:
    text = text.strip()
    if text == "identity":
        return IdentityCurve()
    m = _CURVE.fullmatch(text)
    if not m:
        raise ScenarioError(f"not a curve: {text!r}", line)
    kind, body = m.group(1), m.group(2)
    try:
        args = _split_top_level(body)
    except ValueError as exc:
        raise ScenarioError(f"bad curve arguments in {text!r}: {exc}", line) from None
    if (n := _CURVE_ARITY.get(kind, len(args))) != len(args):
        raise ScenarioError(f"curve {text!r} takes {n} argument(s), got {len(args)}", line)
    try:
        if kind == "linear":
            return LinearCurve(parse_number(args[0], line))
        if kind == "exp":
            return ExponentialCurve(float(parse_number(args[0], line)))
        if kind == "power":
            return PowerCurve(float(parse_number(args[0], line)))
        if kind == "pl":
            points = []
            for arg in args:
                if not (arg.startswith("(") and arg.endswith(")")):
                    raise ScenarioError(f"pl points must be parenthesized: {arg!r}", line)
                nums = [parse_number(p, line) for p in arg[1:-1].split(",")]
                points.append(tuple(nums))
            return PiecewiseLinearCurve.from_points(points)
        if kind == "ascaled":
            return ArgScaledCurve(parse_curve(args[0], line), parse_number(args[1], line))
        if kind == "vscaled":
            return ValueScaledCurve(parse_curve(args[0], line), parse_number(args[1], line))
    except ScenarioError:
        raise
    except (ValueError, IndexError) as exc:
        raise ScenarioError(f"invalid curve {text!r}: {exc}", line) from None
    raise ScenarioError(f"unknown curve kind {kind!r}", line)


@dataclass
class _Section:
    header: str
    line: int
    entries: list[tuple[str, str, int]]


def _read_sections(text: str) -> tuple[dict[str, str], list[_Section]]:
    preamble: dict[str, str] = {}
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError(f"malformed section header {stripped!r}", lineno)
            current = _Section(stripped[1:-1].strip(), lineno, [])
            sections.append(current)
            continue
        if "=" not in stripped:
            raise ScenarioError(f"expected 'key = value', got {stripped!r}", lineno)
        # keys may themselves contain '=' (e.g. "partition t=0"), so the
        # spaced form takes precedence over the first bare '='
        sep = " = " if " = " in stripped else "="
        key, _, value = stripped.partition(sep)
        key, value = key.strip(), value.strip()
        if current is None:
            if key not in ("title", "variant"):
                raise ScenarioError(f"unknown preamble key {key!r}", lineno)
            if key in preamble:
                raise ScenarioError(f"duplicate preamble key {key!r}", lineno)
            preamble[key] = value
        else:
            current.entries.append((key, value, lineno))
    return preamble, sections


def _entries_dict(section: _Section) -> dict[str, tuple[str, int]]:
    out: dict[str, tuple[str, int]] = {}
    for key, value, lineno in section.entries:
        if key in out:
            raise ScenarioError(f"duplicate key {key!r} in [{section.header}]", lineno)
        out[key] = (value, lineno)
    return out


def loads_scenario(text: str) -> ScenarioSpec:
    preamble, sections = _read_sections(text)
    # one pass files every section by kind, utilities by time index
    by_header: dict[str, _Section] = {}
    utilities: dict[int, _Section] = {}
    act_sections: list[tuple[str, int, _Section]] = []
    for sec in sections:
        m = _SECTION.fullmatch(sec.header)
        if not m:
            raise ScenarioError(f"unknown section [{sec.header}]", sec.line)
        utility_t, act_name, act_t = m.groups()
        if sec.header in by_header or (utility_t is not None and int(utility_t) in utilities):
            raise ScenarioError(f"duplicate section [{sec.header}]", sec.line)
        by_header[sec.header] = sec
        if utility_t is not None:
            utilities[int(utility_t)] = sec
        elif act_name is not None:
            act_sections.append((act_name, int(act_t), sec))

    if "space" not in by_header:
        raise ScenarioError("missing [space] section", None)
    space_entries = _entries_dict(by_header["space"])
    for required in ("states", "times"):
        if required not in space_entries:
            raise ScenarioError(f"[space] is missing {required!r}", by_header["space"].line)
    states = [s.strip() for s in space_entries["states"][0].split(",")]
    times_text, times_line = space_entries["times"]
    times = [parse_number(t, times_line) for t in times_text.split(",")]
    partitions: list[list[list[str]] | None] = [None] * len(times)
    for key, (value, lineno) in space_entries.items():
        if key in ("states", "times"):
            continue
        m = _PARTITION.fullmatch(key)
        if not m:
            raise ScenarioError(f"unexpected key {key!r} in [space]", lineno)
        idx = int(m.group(1))
        if not 0 <= idx < len(times):
            raise ScenarioError(f"partition time index {idx} out of range", lineno)
        if partitions[idx] is not None:
            raise ScenarioError(f"duplicate partition t={idx} in [space]", lineno)
        partitions[idx] = [
            [s.strip() for s in atom.split(",")] for atom in value.split("|")
        ]
    for idx, part in enumerate(partitions):
        if part is None:
            raise ScenarioError(f"[space] is missing partition t={idx}", by_header["space"].line)
    try:
        space = FilteredSpace.build(states, tuple(times), partitions)  # type: ignore[arg-type]
    except InvariantError as exc:
        raise ScenarioError(str(exc), by_header["space"].line) from None

    if "measure" not in by_header:
        raise ScenarioError("missing [measure] section", None)
    weights: dict[str, Number] = {}
    for key, (value, lineno) in _entries_dict(by_header["measure"]).items():
        if key not in space.states:
            raise ScenarioError(f"unknown state {key!r} in [measure]", lineno)
        weights[key] = parse_number(value, lineno)
    try:
        measure = ProbabilityMeasure.of(space, weights)
    except InvariantError as exc:
        raise ScenarioError(str(exc), by_header["measure"].line) from None

    per_time: list[list[MonotoneCurve] | None] = [None] * space.n_times
    parsed: dict[str, MonotoneCurve] = {}  # one shared curve per distinct spec text
    for idx, sec in utilities.items():
        if not 0 <= idx < space.n_times:
            raise ScenarioError(f"utility time index {idx} out of range", sec.line)
        curves: list[MonotoneCurve | None] = [None] * space.n_atoms(idx)
        for key, (value, lineno) in _entries_dict(sec).items():
            names = tuple(s.strip() for s in key.split(","))
            try:
                members = tuple(sorted(space.state_index(n) for n in names))
            except KeyError as exc:
                raise ScenarioError(f"unknown state in atom key: {exc}", lineno) from None
            k = space.atom_index_map(idx)[members[0]]
            if space.atom_members(idx, k) != members:
                raise ScenarioError(
                    f"{key!r} is not an atom of partition t={idx}", lineno
                )
            if curves[k] is not None:
                raise ScenarioError(f"duplicate atom {key!r} in [{sec.header}]", lineno)
            curve = parsed.get(value)
            if curve is None:
                curve = parsed[value] = parse_curve(value, lineno)
            curves[k] = curve
        for k, c in enumerate(curves):
            if c is None:
                raise ScenarioError(
                    f"[utility t={idx}] missing curve for atom {space.atom_label(idx, k)}",
                    sec.line,
                )
        per_time[idx] = curves  # type: ignore[assignment]
    for idx, row in enumerate(per_time):
        if row is None:
            raise ScenarioError(f"missing [utility t={idx}] section", None)
    try:
        field = UtilityField.from_atom_curves(space, per_time)  # type: ignore[arg-type]
    except InvariantError as exc:
        raise ScenarioError(str(exc), None) from None

    acts: dict[str, Act] = {}
    for name, idx, sec in act_sections:
        if name in acts:
            raise ScenarioError(f"duplicate act {name!r}", sec.line)
        if not 0 <= idx < space.n_times:
            raise ScenarioError(f"act time index {idx} out of range", sec.line)
        values: list[Number | None] = [None] * space.n_states
        default: Number | None = None
        for key, (value, lineno) in _entries_dict(sec).items():
            if key == "*":
                default = parse_number(value, lineno)
                continue
            try:
                values[space.state_index(key)] = parse_number(value, lineno)
            except KeyError:
                raise ScenarioError(f"unknown state {key!r} in act {name!r}", lineno) from None
        if default is not None:
            values = [default if v is None else v for v in values]
        if any(v is None for v in values):
            missing = [space.states[s] for s, v in enumerate(values) if v is None]
            raise ScenarioError(f"act {name!r} missing values for {missing}", sec.line)
        try:
            acts[name] = Act(space, idx, tuple(values))  # type: ignore[arg-type]
        except InvariantError as exc:
            raise ScenarioError(f"act {name!r}: {exc}", sec.line) from None

    strategies = None
    if "strategies" in by_header:
        sec = by_header["strategies"]
        entries = _entries_dict(sec)
        for required in ("t", "horizon", "endowment"):
            if required not in entries:
                raise ScenarioError(f"[strategies] is missing {required!r}", sec.line)
        t = _parse_int("t", *entries["t"])
        horizon = _parse_int("horizon", *entries["horizon"])
        endowment = entries["endowment"][0]
        if not 0 <= t < horizon <= space.last_index:
            raise ScenarioError(
                f"strategy window t={t}, horizon={horizon} out of range", sec.line
            )
        if endowment not in acts:
            raise ScenarioError(f"unknown endowment act {endowment!r}", sec.line)
        if acts[endowment].time_index > t:
            raise ScenarioError(
                f"endowment {endowment!r} is not known at time index {t}", sec.line
            )
        members: dict[str, tuple[str, ...]] = {}
        for key, (value, lineno) in entries.items():
            if key in ("t", "horizon", "endowment"):
                continue
            m = _STRATEGY.fullmatch(key)
            if not m:
                raise ScenarioError(f"unexpected key {key!r} in [strategies]", lineno)
            name = m.group(1)
            if name in members:
                raise ScenarioError(f"duplicate strategy {name!r}", lineno)
            path = tuple(p.strip() for p in value.split(","))
            if len(path) != horizon - t + 1:
                raise ScenarioError(
                    f"strategy {name!r} needs {horizon - t + 1} acts "
                    f"(times {t}..{horizon}), got {len(path)}",
                    lineno,
                )
            for offset, act_name in enumerate(path):
                if act_name not in acts:
                    raise ScenarioError(f"unknown act {act_name!r} in strategy", lineno)
                if acts[act_name].time_index > t + offset:
                    raise ScenarioError(
                        f"act {act_name!r} is not known at time index {t + offset}",
                        lineno,
                    )
            members[name] = path
        if not members:
            raise ScenarioError("[strategies] declares no strategies", sec.line)
        strategies = StrategySet(t, horizon, endowment, tuple(members.items()))

    return ScenarioSpec(
        space, measure, field, acts, strategies,
        preamble.get("title"), preamble.get("variant"),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    return loads_scenario(Path(path).read_text(encoding="utf-8"))


def dumps_scenario(spec: ScenarioSpec) -> str:
    space = spec.space
    lines: list[str] = []
    if spec.title is not None:
        lines.append(f"title = {spec.title}")
    if spec.variant is not None:
        lines.append(f"variant = {spec.variant}")
    if lines:
        lines.append("")
    lines.append("[space]")
    lines.append("states = " + ", ".join(space.states))
    lines.append("times = " + ", ".join(fmt_number(t) for t in space.times))
    for i in range(space.n_times):
        atoms_text = " | ".join(
            ", ".join(space.states[s] for s in space.atom_members(i, k))
            for k in range(space.n_atoms(i))
        )
        lines.append(f"partition t={i} = {atoms_text}")
    lines.append("")
    lines.append("[measure]")
    for s, name in enumerate(space.states):
        lines.append(f"{name} = {fmt_number(spec.measure.weights[s])}")
    for i in range(space.n_times):
        lines.append("")
        lines.append(f"[utility t={i}]")
        for k in range(space.n_atoms(i)):
            key = ", ".join(space.states[s] for s in space.atom_members(i, k))
            lines.append(f"{key} = {spec.field.curve_on_atom(i, k).spec()}")
    for name in sorted(spec.acts):
        act = spec.acts[name]
        lines.append("")
        lines.append(f"[act {name} t={act.time_index}]")
        for s, state in enumerate(space.states):
            lines.append(f"{state} = {fmt_number(act.values[s])}")
    if spec.strategies is not None:
        st = spec.strategies
        lines.append("")
        lines.append("[strategies]")
        lines.append(f"t = {st.t}")
        lines.append(f"horizon = {st.horizon}")
        lines.append(f"endowment = {st.endowment}")
        for name, path in st.members:
            lines.append(f"strategy {name} = " + ", ".join(path))
    return "\n".join(lines) + "\n"


def save_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_scenario(spec), encoding="utf-8")
