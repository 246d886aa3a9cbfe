"""The potential conditions that decide when H(b) equals a harmonically
weighted Dirichlet space.

With b = (1+u)/2, the equality holds exactly for discrete measures
supported on the Clark atoms with masses within a constant of the
squared Clark masses, provided |a|^2 V_mu stays bounded on the disk.
Everything here is a finite computation on the exponential example,
whose squared-mass measure satisfies the conditions.
"""
import numpy as np

import clarklab as cl

u = cl.SingularAtomic(atoms=((0.0, 1.0),))
data = cl.exp_clark_data(500)
mu = cl.squared_measure(data.measure)

# mass window: mu_n |u'|^2 = 1 exactly for the squared-mass choice
ratios = cl.mass_ratio_check(data, mu)
print(f"mass products mu_n |u'|^2 in [{ratios.min_product:.6f}, "
      f"{ratios.max_product:.6f}]  ->  C = {ratios.comparability_constant:.6f}")

# the atom-wise criterion sup_m sum_{n != m} mu_n/|z_n - z_m|^2
sup = cl.atom_potential_sup(mu)
print(f"atom-potential sup = {sup.value:.6f} at atom {sup.witness}")

# potential at the spectrum point: finite, closed form coth(1/2)/2
v1 = cl.potential(mu, 1.0)
print(f"V_mu(1) = {v1:.8f}  (target {0.5 / np.tanh(0.5):.8f})")

# disk scan of |1-u|^2 V_mu with atom limits |u'|^2 mu_n = 1: the function
# is subharmonic, so its sup lies on the circle, which the scan samples in
# each gap between atoms; rings to depth 20 sample the inside of the disk
rep = cl.sup_inf_scan(u, mu)
print(f"sup |1-u|^2 V_mu ~ {rep.sup_estimate:.4f} "
      f"(mate scaling {rep.sup_mate_scaled:.4f}), inf ~ {rep.inf_estimate:.4f}")
# one refinement level (ring 21, twice the circle points) moves the sup by
# under 1%
print(f"refined sup {rep.refined_sup_estimate:.4f}, converged={rep.converged}")

# boundary continuation at an atom: |1-u(r z_k)|^2 V(r z_k) -> |u'|^2 mu_k
k = int(np.nonzero(data.lattice_indices == 3)[0][0])
rl = cl.radial_limit_check(u, mu, k)
print(f"radial limit at atom n=3: extrapolated {rl.extrapolated:.8f}, "
      f"target {rl.target:.8f}, rel error {rl.rel_error:.2e}")

# kernel norms vs an independent quadrature of the Dirichlet integral
m1 = cl.AtomicMeasure([0.0], [1.0])
for w in (0.3, 0.5j):
    kn = cl.kernel_norms(cl.monomial(1), m1, w)
    def fprime(z, w=w):
        return np.conj(w) / (1 - np.conj(w) * z) ** 2
    quad = cl.dirichlet_quadrature(m1, fprime)
    closed = kn.dmu_norm_sq - 1 / (1 - abs(w) ** 2)
    print(f"w = {w}: quadrature {quad.value:.8f} vs closed form {closed:.8f} "
          f"(err est {quad.error_estimate:.1e})")
