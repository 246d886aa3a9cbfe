"""Construct new one-component Clark measures by controlled perturbation,
and run the one-component condition records on candidates.

Atoms may move by at most sigma_n alpha_n and masses by the same cap,
with ||alpha||_inf below min{1/(3B), A/(3B^2), 1/2}.  The perturbed
measure is again a Clark measure of a one-component inner function; its
squared-mass companion inherits the potential conditions.
"""
import numpy as np

import clarklab as cl

base = cl.exp_clark_data(200)
print(f"base: {base.n_atoms} atoms, A = {base.A:.6f}, B = {base.B:.6f}")
cap = cl.admissible_alpha_bound(base.A, base.B)
print(f"admissible alpha cap: {cap:.6f}")

alpha = 1.0 / (1.0 + base.lattice_indices.astype(float) ** 2) * cap
sup, wit = cl.interaction_sup(base, alpha)
print(f"interaction sup with alpha_n = cap/(1+n^2): {sup:.6f} (atom {wit})")

plan = cl.random_plan(base, seed=42)
lam = cl.generate(plan)
rep = cl.bessonov_check(lam, accumulation_points=[0.0])
print(f"\nperturbed measure verdict: {rep.verdict}")
for r in rep.records:
    print(f"  {r.name:<26} passed={r.passed} flagged={r.flagged}")

adm = cl.perturbed_admissibility(base, lam)
print(f"recovered alpha_max = {adm.alpha_max:.6f} <= cap {adm.cap:.6f}: "
      f"{adm.passed}")

ref = cl.atom_potential_sup(cl.squared_measure(base.measure)).value
val = cl.atom_potential_sup(cl.squared_measure(lam)).value
print(f"squared-mass criterion: base {ref:.6f}, perturbed {val:.6f} "
      f"(ratio {val / ref:.4f}, envelope 9x)")

# a deliberately broken candidate: squared masses presented as Clark masses
broken = cl.bessonov_check(cl.squared_measure(base.measure),
                           accumulation_points=[0.0])
rec = broken.record("iv-mass-gap-constants")
print(f"\nsquared masses as a Clark candidate: verdict {broken.verdict} "
      f"(B/A = {rec.details['ratio']:.2e}, witness atom {rec.details['witness_A']})")

# an invalid plan is rejected with the failing bound
try:
    bad = cl.PerturbationPlan(base=base,
                              alpha=np.full(base.n_atoms, 2 * cap),
                              t_offsets=np.zeros(base.n_atoms),
                              eps=np.zeros(base.n_atoms))
    cl.generate(bad)
except cl.errors.ConstraintViolation as e:
    print(f"rejected invalid plan: {e}")
