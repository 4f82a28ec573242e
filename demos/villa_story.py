"""The inheritance story: why waiting for information is worth it.

An heir chooses between a sure million now and a villa delivered in two
years.  In between, an election may trigger a default that both crashes the
villa's value and flips the heir's attitude to money (gains halved, losses
doubled — a state-dependent utility).  Comparing across times needs the
intertemporal machinery: a time-0 amount against a time-2 payoff, conditional
verdicts branch by branch, and the conditional certainty equivalent as the
common yardstick.

The source arithmetic for this story is famously self-inconsistent: the
stated election-default probability is 1%, but the displayed time-1 weights
(9/10 and 1/100) are what make the comparison land exactly on 10^6.  Both
readings ship as variants; run this script to see them side by side.
"""

from fractions import Fraction

from itpref.apps import run_villa, villa_scenario, villa_t1_value
from itpref.engine import cce, compare

print(run_villa(villa_scenario("paper-arithmetic")).text)
print()
print(run_villa(villa_scenario("paper-stated")).text)

# ---------------------------------------------------------------------------
# the same numbers through the library API

spec = villa_scenario("paper-stated")
rep = spec.representation()

print("certainty equivalents of the villa, valued at t0 (stated measure):")
for name in ("villa_t1", "villa_t2"):
    value = cce(rep, 0, spec.acts[name].time_index, spec.acts[name]).values[0]
    print(f"  {name}: {value} = {float(value):,.1f}")

print()
print("exact rational t1 values per variant:")
for variant in ("paper-arithmetic", "paper-stated"):
    v = villa_t1_value(variant)
    print(f"  {variant}: {v}  (== 10^6: {v == Fraction(10**6)})")

print()
verdict = compare(rep, 1, 2, spec.acts["cash"].at_time(1), spec.acts["villa_t2"])
print("after the election, cash vs villa splits the state space:")
print(f"  cash strictly better on  {verdict.tri.B.label()}")
print(f"  villa strictly better on {verdict.tri.C.label()}")
