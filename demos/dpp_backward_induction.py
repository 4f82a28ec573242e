"""Dynamic programming on a binomial market with momentum.

The classical utility-maximization value function v(t, X) is an exhaustive
maximum of conditional expected utilities over a finite strategy menu here,
so the dynamic programming inequality can be checked strategy by strategy,
atom by atom.  The market has momentum: after good first-period news the
risky asset's conditional drift is strongly positive, after bad news it is
negative, so the optimal fraction flips across the time-1 atoms.

The intertemporal reading: holding the endowment X is weakly preferred to
entering any strategy, and indifferent exactly at the optimum — X is the
conditional certainty equivalent of the optimal terminal wealth.
"""

from itpref.apps import dpp_scenario, run_dpp
from itpref.engine import compare, expected_utility

spec = dpp_scenario()
print(run_dpp(spec).text)

# ---------------------------------------------------------------------------
# the Merton-style relation, spelled out through the engine

rep = spec.representation()
st = spec.strategies
print("engine cross-check: verdict of the endowment against each terminal wealth")
for name, path in st.members:
    terminal = spec.acts[path[-1]]
    verdict = compare(rep, st.t, st.horizon, spec.acts[st.endowment], terminal)
    cells = ", ".join(
        f"{rep.space.atom_label(st.t, k)}: {float(expected_utility(rep, st.t, st.horizon, terminal, k)):.6f}"
        for k in range(rep.space.n_atoms(st.t))
    )
    print(f"  {name}: E[u(V_T)|F_t] = {cells}")
    print(f"      X vs V_T({name}): {verdict.tag.upper()}")
