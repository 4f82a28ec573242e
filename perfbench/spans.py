"""Span recording around calls into itpref's public functions.

The library itself is not changed.  ``Tracer.install`` replaces each traced
function on every name a caller looks it up by: module-level functions on
every ``itpref`` module namespace that binds the original object, methods
on the class that defines them and on every subclass that overrides them.
``Tracer.uninstall`` puts the originals back.

Each wrapped call records one span (name, start, end, parent; the op id is
the batch's) in column arrays held in memory, with wall-clock times from
``perf_counter``, the cheapest clock to read.  Spans are folded into per-layer totals at op
boundaries, outside the timed region, so memory stays bounded by the
largest op.  Self time is a span's duration minus the time its child spans
cover; child spans of a synchronous call nest inside it, so that is the sum
of their durations.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# metric layer name -> (module, attribute) of each function it covers;
# classes in the module are searched for methods
FUNCTIONS = {
    "filtered_space.conditional_expectation": [("filtered_space", "conditional_expectation")],
    "engine.cce": [("engine", "cce")],
    "engine.compare": [("engine", "compare")],
    "engine.expected_utility_profile": [("engine", "expected_utility_profile")],
    "oracles.bisection": [("oracles", "indifference_constant")],
    "oracles.indifference_profile": [("oracles", "indifference_profile")],
    "axioms.check_T": [("axioms", "check_T")],
    "axioms.check_M": [("axioms", "check_M")],
    "axioms.check_ST": [("axioms", "check_ST")],
    "axioms.check_C": [("axioms", "check_C")],
    "axioms.derive_null_events": [("axioms", "derive_null_events")],
    "recovery.recover_step": [("recovery", "recover_step0"), ("recovery", "recover_step_i")],
    "recovery.check_relative_uniqueness": [("recovery", "check_relative_uniqueness")],
    "scenario.load": [("scenario", "load_scenario")],
    "scenario.save": [("scenario", "save_scenario")],
    "apps.run": [("apps", "run_villa"), ("apps", "run_dpp"), ("apps", "run_forward_check")],
    "cli.main": [("cli", "main")],
}

# metric layer name -> (module, base class, method); the method is wrapped on
# the base class and on every subclass whose own dict overrides it
METHODS = {
    "filtered_space.act_new": ("filtered_space", "Act", "__post_init__"),
    "filtered_space.positive_atoms": ("filtered_space", "ProbabilityMeasure", "positive_atoms"),
    "utility_field.eval": ("utility_field", "UtilityField", "eval"),
    "curves.invert": ("curves", "MonotoneCurve", "invert_detailed"),
    "oracles.ask": ("oracles", "PreferenceOracle", "ask"),
    "oracles.query": ("oracles", "PreferenceOracle", "query"),
    "oracles.value_profile": ("oracles", "InducedOracle", "value_profile"),
}

LAYERS = tuple(FUNCTIONS) + tuple(METHODS)
CAP_NOTE = "query cap reached"


def _zero_atom(oracle, i, f, A, *rest, **kwargs) -> bool:
    """Whether a bisection runs on an atom where f is identically 0."""
    return all(f.values[s] == 0 for s in A.members)


def _cap_hits(result) -> int:
    """Clauses of an axiom check that stopped at their query cap."""
    clauses = getattr(result, "clauses", None)
    results = clauses.values() if clauses is not None else [result]
    return sum(1 for r in results if CAP_NOTE in (r.note or ""))


TAGS = {"oracles.bisection": _zero_atom}
RESULT_COUNTERS = {name: _cap_hits for name in FUNCTIONS if name.startswith("axioms.check_")}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    """In-memory span store for the current op plus per-layer totals."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.name_id = {n: k for k, n in enumerate(self.names)}
        self.op_id = -1
        self._reset_spans()
        self._stack: list[int] = []
        n = len(self.names)
        self.count = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.leaf = [0] * n           # spans with no child span (memo hits)
        self.tagged = [0] * n         # spans whose tag function said True
        self.asks_in_bisection = 0
        self.cap_hits = 0
        self.per_op: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def _reset_spans(self) -> None:
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_tag = array("b")

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer: str):
        nid = self.name_id[layer]
        tag_fn = TAGS.get(layer)
        result_fn = RESULT_COUNTERS.get(layer)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.s_name)
            tracer.s_name.append(nid)
            tracer.s_parent.append(stack[-1] if stack else -1)
            tracer.s_tag.append(0)
            tracer.s_end.append(0.0)
            stack.append(idx)
            tracer.s_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.s_end[idx] = perf_counter()
                stack.pop()
            if tag_fn is not None and tag_fn(*args, **kwargs):
                tracer.s_tag[idx] = 1
            if result_fn is not None:
                tracer.cap_hits += result_fn(result)
            return result

        traced.__wrapped_layer__ = layer
        return traced

    def install(self) -> None:
        """Wrap every traced function on every binding a caller looks up."""
        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if name == "itpref" or name.startswith("itpref.")]
        for layer, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                orig = getattr(sys.modules[f"itpref.{mod_name}"], attr)
                wrapped = self._wrap(orig, layer)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is orig:
                            self._restore.append((ns, key, orig))
                            ns[key] = wrapped
        for layer, (mod_name, base_name, attr) in METHODS.items():
            base = getattr(sys.modules[f"itpref.{mod_name}"], base_name)
            for cls in _subclasses(base):
                if attr in cls.__dict__:
                    orig = cls.__dict__[attr]
                    self._restore.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(orig, layer))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    # -- folding -----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._reset_spans()

    def end_op(self, label: str) -> None:
        """Fold the current op's spans into the per-layer totals."""
        n = len(self.s_name)
        names, parents, start, end, tags = (
            self.s_name, self.s_parent, self.s_start, self.s_end, self.s_tag
        )
        child_s = [0.0] * n
        has_child = bytearray(n)
        bisection = self.name_id["oracles.bisection"]
        ask = self.name_id["oracles.ask"]
        counts: dict[str, int] = {}
        for k in range(n):
            p = parents[k]
            if p >= 0:
                child_s[p] += end[k] - start[k]
                has_child[p] = 1
                if names[k] == ask and names[p] == bisection:
                    self.asks_in_bisection += 1
        for k in range(n):
            nid = names[k]
            dur = end[k] - start[k]
            self.count[nid] += 1
            self.total_s[nid] += dur
            self.self_s[nid] += dur - child_s[k]
            if not has_child[k]:
                self.leaf[nid] += 1
            if tags[k]:
                self.tagged[nid] += 1
            counts[self.names[nid]] = counts.get(self.names[nid], 0) + 1
        self.per_op.append({"op": self.op_id, "label": label, "spans": n, "counts": counts})
        self._reset_spans()

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by the benchmark's names: (value, unit)."""
        def c(layer):
            return self.count[self.name_id[layer]]

        def s(layer):
            return self.self_s[self.name_id[layer]]

        def ratio(num, den):
            return num / den if den else 0.0

        bis = c("oracles.bisection")
        vp = c("oracles.value_profile")
        ip = c("oracles.indifference_profile")
        out = {}
        for layer in ("filtered_space.act_new", "filtered_space.positive_atoms",
                      "filtered_space.conditional_expectation", "utility_field.eval",
                      "curves.invert"):
            out[f"{layer}.count"] = (c(layer), "count")
            out[f"{layer}.self_s"] = (s(layer), "s")
        out["engine.cce.self_s"] = (s("engine.cce"), "s")
        out["engine.compare.self_s"] = (s("engine.compare"), "s")
        out["engine.expected_utility_profile.count"] = (c("engine.expected_utility_profile"), "count")
        out["oracles.ask.count"] = (c("oracles.ask"), "count")
        out["oracles.query.self_s"] = (s("oracles.query"), "s")
        out["oracles.bisection.count"] = (bis, "count")
        out["oracles.asks_per_bisection"] = (ratio(self.asks_in_bisection, bis), "ratio")
        out["oracles.zero_atom_bisection.share"] = (
            ratio(self.tagged[self.name_id["oracles.bisection"]], bis), "ratio")
        out["oracles.value_memo.hit_ratio"] = (
            ratio(self.leaf[self.name_id["oracles.value_profile"]], vp), "ratio")
        out["oracles.cce_memo.hit_ratio"] = (
            ratio(self.leaf[self.name_id["oracles.indifference_profile"]], ip), "ratio")
        for clause in ("T", "M", "ST", "C"):
            out[f"axioms.check_{clause}.self_s"] = (s(f"axioms.check_{clause}"), "s")
        out["axioms.derive_null_events.count"] = (c("axioms.derive_null_events"), "count")
        out["axioms.cap_hit.count"] = (self.cap_hits, "count")
        for layer in ("recovery.recover_step", "recovery.check_relative_uniqueness",
                      "scenario.load", "scenario.save", "apps.run", "cli.main"):
            out[f"{layer}.self_s"] = (s(layer), "s")
        return out
