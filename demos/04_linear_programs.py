"""The occupation-measure LP and its simplex methods.

Each discounted reduction induces the linear program

    minimize  sum_{x,a} c(x,a) z_{x,a}
    s.t.      sum_a z(x,a) - beta sum_{y,a} p(x|y,a) z(y,a) = 1   for all x
              z >= 0

whose basic feasible solutions are exactly the stationary policies.
Howard policy iteration is the block-pivoting simplex method on this LP
and Dantzig-rule policy iteration is the classical single-pivot simplex,
so no general-purpose LP solver is embedded; the LP file is emitted for
external verification instead.
"""

import numpy as np

from mdpreduce import (
    GenSpec,
    StationaryPolicy,
    Substochastic,
    build_hv,
    dantzig_pi,
    emit_lp,
    gen_transient,
    howard_pi,
    maximize_lifetime,
    occupation_measure,
    policy_evaluate,
)

spec = GenSpec(
    n_states=3,
    max_actions=2,
    rate_class=Substochastic(kill_prob_range=(0.3, 0.6)),
    seed=5,
)
mdp = gen_transient(spec)
dmdp = build_hv(mdp, maximize_lifetime(mdp))

print("== the emitted LP ==")
print(emit_lp(dmdp))

print("== occupation measures are its feasible points ==")
report = howard_pi(dmdp)
measure = occupation_measure(dmdp, report.policy)
table = dmdp.base.packed
names = [f"z_{x}_{a}" for x, a in zip(table.owner.tolist(), table.local.tolist())]
print(f"optimal policy {tuple(report.policy)}")
print("z (one per row, zero off the policy):", dict(zip(names, np.round(measure.z, 6).tolist())))
print(f"flow-constraint residuals: "
      f"{np.max(np.abs(measure.constraint_residuals(dmdp))):.2e}")
print(f"LP objective of z: {measure.objective(dmdp):.9g}")
print(f"summed values:     {float(np.sum(report.values)):.9g}")
print("(equal by LP duality for discounted MDPs)\n")

print("== a suboptimal basis costs more ==")
other = StationaryPolicy(((report.policy[0] + 1) % mdp.n_actions(0),) + tuple(report.policy)[1:])
other_measure = occupation_measure(dmdp, other)
print(f"policy {tuple(other)} objective: {other_measure.objective(dmdp):.9g}")
print(f"vs optimal objective:          {measure.objective(dmdp):.9g}\n")

print("== complementary slackness at the optimum ==")
v = report.values
for row in np.flatnonzero(measure.z):
    reduced = table.c[row] - v[table.owner[row]] + dmdp.beta * (table.R[row] @ v)[0]
    print(f"{names[row]} = {measure.z[row]:9.6f}   reduced cost = {reduced:+.2e}")
print()

print("== the two simplex variants ==")
h = howard_pi(dmdp)
d = dantzig_pi(dmdp)
print(f"howard (block pivots): {h.iterations} rounds")
print(f"dantzig (single pivots): {d.iterations} switches")
print(f"value agreement: {np.max(np.abs(h.values - d.values)):.2e}")

print()
print("== evaluating one policy is one linear solve ==")
phi = StationaryPolicy((0,) * dmdp.n_states)
print(f"v_phi = {np.round(policy_evaluate(dmdp, phi), 9).tolist()}")
