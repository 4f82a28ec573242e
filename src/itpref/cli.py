"""Command-line interface.

Subcommands: ``cce``, ``compare``, ``semigroup``, ``axioms``, ``recover``,
``uniqueness``, ``example {villa|dpp|forward}``.  Exit codes: 0 success,
1 check failure, 2 input error.  All output is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .apps import (
    dpp_scenario,
    forward_scenario,
    run_dpp,
    run_forward_check,
    run_villa,
    villa_scenario,
    VILLA_VARIANTS,
)
from .axioms import ActGrid, DEFAULT_GRID, audit_step, render_audit
from .engine import cce, compare, semigroup_residual
from .filtered_space import InvariantError
from .oracles import BracketError, InducedOracle
from .recovery import (
    RecoveryError,
    check_relative_uniqueness,
    recover_representation,
)
from .sampling import verdict_agreement
from .scenario import (
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    parse_number,
    save_scenario,
)


def _emit(rows: list[tuple[str, str]], fmt: str) -> None:
    for key, value in rows:
        if fmt == "tsv":
            print(f"{key}\t{value}")
        else:
            print(f"{key}: {value}")


def _load(path: str) -> ScenarioSpec:
    try:
        return load_scenario(path)
    except FileNotFoundError:
        raise ScenarioError(f"no such scenario file: {path}")


def tolerance(text: str) -> float:
    """argparse type of a tolerance: a finite float >= 0 (NaN fails the test too)."""
    if not 0 <= float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return float(text)


def _grid(args) -> ActGrid:
    if not args.grid:
        return DEFAULT_GRID
    values = []
    for text in args.grid.split(","):
        value = parse_number(text)
        try:
            float(value)
        except OverflowError:
            raise ScenarioError(f"--grid value {text.strip()!r} is beyond the float range") from None
        values.append(value)
    return ActGrid(tuple(sorted(values)))


def _named_act(spec: ScenarioSpec, name: str):
    if name not in spec.acts:
        raise ScenarioError(
            f"unknown act {name!r}; scenario defines {sorted(spec.acts)}"
        )
    return spec.acts[name]


def _cmd_cce(args) -> int:
    spec = _load(args.scenario)
    rep = spec.representation()
    f = _named_act(spec, args.f)
    t = args.t if args.t is not None else f.time_index
    result = cce(rep, args.s, t, f, args.tol)
    rows = [("s", str(args.s)), ("t", str(t)), ("act", args.f)]
    for k in range(spec.space.n_atoms(args.s)):
        rows.append((f"cce {spec.space.atom_label(args.s, k)}", repr(float(result.value_on_atom(k)))))
    _emit(rows, args.format)
    return 0


def _cmd_compare(args) -> int:
    spec = _load(args.scenario)
    rep = spec.representation()
    g = _named_act(spec, args.g)
    f = _named_act(spec, args.f)
    s = args.s if args.s is not None else g.time_index
    t = args.t if args.t is not None else f.time_index
    verdict = compare(rep, s, t, g, f, args.tol)
    rows = [
        ("verdict", verdict.tag.upper()),
        ("equivalent on", verdict.tri.A.label()),
        (f"{args.g} strictly better on", verdict.tri.B.label()),
        (f"{args.f} strictly better on", verdict.tri.C.label()),
    ]
    _emit(rows, args.format)
    return 0


def _cmd_semigroup(args) -> int:
    spec = _load(args.scenario)
    rep = spec.representation()
    last = spec.space.last_index
    given = (args.s, args.t, args.v)
    if any(x is not None for x in given) and any(x is None for x in given):
        raise ScenarioError("--s, --t and --v must be given together")
    cases = []
    names = sorted(spec.acts) if args.f is None else [args.f]
    for name in names:
        f = _named_act(spec, name)
        for v in range(max(2, f.time_index), last + 1):
            for s in range(0, v - 1):
                for t in range(s + 1, v):
                    if args.s is not None and (s, t, v) != (args.s, args.t, args.v):
                        continue
                    cases.append((name, s, t, v))
    if not cases:
        raise ScenarioError("no admissible (s, t, v) triple for the requested acts")
    worst = 0.0
    rows = []
    for name, s, t, v in cases:
        r = semigroup_residual(rep, s, t, v, spec.acts[name], args.tol)
        worst = max(worst, r)
        rows.append((f"{name} s={s} t={t} v={v}", repr(r)))
    rows.append(("max residual", repr(worst)))
    bound = 10 * args.tol
    rows.append(("bound 10*tol", repr(bound)))
    _emit(rows, args.format)
    return 0 if worst <= bound else 1


def _cmd_axioms(args) -> int:
    spec = _load(args.scenario)
    oracle = InducedOracle(spec.representation(), tol=args.tol)
    grid = _grid(args)
    steps = oracle.steps()
    if args.step is not None:
        if args.step not in steps:
            raise ScenarioError(f"--step {args.step} out of range 0..{len(steps) - 1}")
        steps = [args.step]
    ok = True
    blocks = []
    for i in steps:
        results = audit_step(oracle, i, grid, seed=args.seed)
        blocks.append(render_audit(results, i))
        for res in results.values():
            ok = ok and res.passed
    print("\n".join(blocks))
    return 0 if ok else 1


def _cmd_recover(args) -> int:
    if args.pairs < 1:
        raise ScenarioError(f"--pairs must be at least 1, got {args.pairs}")
    spec = _load(args.scenario)
    rep = spec.representation()
    oracle = InducedOracle(rep, tol=args.tol)
    grid = _grid(args)
    result = recover_representation(
        oracle,
        rep.u0,
        grid,
        require_three_essential=not args.allow_few_essential,
    )
    uniq = check_relative_uniqueness(rep, result.rep, grid.values, tol=args.accept_tol)
    checked, mismatches = verdict_agreement(rep, result.rep, args.pairs, seed=args.seed)
    rows = [
        ("max Debreu residual", repr(result.max_debreu_residual)),
        ("relative uniqueness vs original", "ACCEPT" if uniq.accepted else "REJECT"),
        ("max uniqueness deviation", repr(uniq.max_deviation)),
        ("verdict agreement", f"{checked - mismatches}/{checked}"),
    ]
    if args.out:
        recovered_spec = replace(
            spec,
            measure=result.rep.P,
            field=result.rep.field,
            title=(spec.title or "scenario") + "-recovered",
        )
        save_scenario(recovered_spec, args.out)
        rows.append(("written", args.out))
    _emit(rows, args.format)
    return 0 if uniq.accepted and mismatches == 0 else 1


def _cmd_uniqueness(args) -> int:
    spec_a = _load(args.scenario)
    spec_b = _load(args.other)
    result = check_relative_uniqueness(
        spec_a.representation(), spec_b.representation(), _grid(args).values, args.tol
    )
    rows = [
        ("relative uniqueness", "ACCEPT" if result.accepted else "REJECT"),
        ("max deviation", repr(result.max_deviation)),
    ]
    if result.witness:
        rows.append(("witness", result.witness))
    _emit(rows, args.format)
    return 0 if result.accepted else 1


def _cmd_example(args) -> int:
    if args.variant is not None and args.name != "villa":
        raise ScenarioError(f"--variant applies to example villa only, not example {args.name}")
    build, run = {
        "villa": (villa_scenario, run_villa),
        "dpp": (dpp_scenario, run_dpp),
        "forward": (forward_scenario, run_forward_check),
    }[args.name]
    spec = _load(args.scenario) if args.scenario else build()
    if args.variant is not None:
        spec = replace(spec, variant=args.variant)
    result = run(spec)
    print(result.text, end="")
    return 0 if result.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``itpref`` parser, built once: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="itpref",
        description="Intertemporal preference queries, axiom audits, and "
        "representation recovery on finite scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--tol": dict(type=tolerance, default=1e-9, help="tolerance (default 1e-9)"),
        "--grid": dict(default=None, help="comma-separated outcome grid (use --grid=-2,... for negative leads)"),
        "--seed": dict(type=int, default=0, help="seed for randomized suites"),
        "--format": dict(choices=("text", "tsv"), default="text"),
    }

    def common(p, *names):
        p.add_argument("--scenario", required=True, help="scenario file path")
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("cce", help="conditional certainty equivalent of a named act")
    common(p, "--tol", "--format")
    p.add_argument("--f", required=True, help="act name")
    p.add_argument("--s", type=int, default=0, help="valuation time index")
    p.add_argument("--t", type=int, default=None, help="act time index (default: its own)")
    p.set_defaults(fn=_cmd_cce)

    p = sub.add_parser("compare", help="verdict between two named acts")
    common(p, "--tol", "--format")
    p.add_argument("--g", required=True, help="earlier act name")
    p.add_argument("--f", required=True, help="later act name")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("semigroup", help="nested-vs-direct certainty equivalent residuals")
    common(p, "--tol", "--format")
    p.add_argument("--f", default=None, help="act name (default: all)")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--v", type=int, default=None)
    p.set_defaults(fn=_cmd_semigroup)

    p = sub.add_parser("axioms", help="audit the axioms of the induced oracle")
    common(p, "--tol", "--grid", "--seed")
    p.add_argument("--step", type=int, default=None, help="single step index")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("recover", help="reconstruct the representing pair from the induced oracle")
    common(p, "--tol", "--grid", "--seed", "--format")
    p.add_argument("--out", default=None, help="write the recovered scenario here")
    p.add_argument("--pairs", type=int, default=100, help="verdict-agreement sample size")
    p.add_argument(
        "--allow-few-essential",
        action="store_true",
        help="permit levels with fewer than three essential atoms",
    )
    p.add_argument(
        "--accept-tol",
        type=tolerance,
        default=1e-6,
        help="relative-uniqueness acceptance tolerance; query noise is "
        "amplified by 1/mass on near-null atoms (default 1e-6)",
    )
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("uniqueness", help="relative-uniqueness check between two scenarios")
    common(p, "--tol", "--grid", "--format")
    p.add_argument("--other", required=True, help="second scenario file")
    p.set_defaults(fn=_cmd_uniqueness)

    p = sub.add_parser("example", help="run a worked demonstration")
    p.add_argument("name", choices=("villa", "dpp", "forward"))
    p.add_argument(
        "--variant",
        choices=VILLA_VARIANTS,
        default=None,
        help="example villa only: arithmetic variant (default: the scenario's, else paper-arithmetic)",
    )
    p.add_argument("--scenario", default=None, help="scenario file path")
    p.set_defaults(fn=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ScenarioError, InvariantError, RecoveryError, BracketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
