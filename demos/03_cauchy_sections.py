"""Finite sections of the Cauchy transform on L^2 of a Clark measure.

For a one-component inner function the transform is bounded, which a
finite section can only support with evidence: nondecreasing section
norms that plateau, and arc ratios ||C chi_Q|| / sigma(Q)^{1/2} that stay
bounded as the section grows.
"""
import numpy as np

import clarklab as cl

# exact small anchors first: the two-atom section of z^2
z2 = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
print("z^2 section: norm =", cl.operator_norm(z2, [2]).values[0],
      " tolsa max ratio =", cl.tolsa_scan(cl.CauchySection(z2)).max_ratio)

# the exponential lattice: norms along nested sections
measure = cl.exp_clark_data(600).measure
est = cl.operator_norm(measure, [32, 64, 128, 256, 512])
print("\nsection norms (nested; ||A|| = ||S||/2 for the real antisymmetric S,"
      " one eigensolve of the closed-form Gram S^T S each):")
for n, v in zip(est.sizes, est.values):
    print(f"  N = {n:4d}: {v:.8f}")
print(f"last doubling growth: {est.last_doubling_growth * 100:.2f}%")

# arc scan at two sizes
for N in (256, 512):
    sec = cl.nested_sections(measure, [N])[0]
    rep = cl.tolsa_scan(sec)
    print(f"tolsa N = {N}: max ratio {rep.max_ratio:.6f} over {rep.n_arcs} arcs, "
          f"witness holds {rep.witness_count} atoms")

# tail sums against the distance to the arc complement
sec = cl.nested_sections(measure, [512])[0]
i_pi = int(np.argmin(np.abs(sec.theta - np.pi)))
print("\ntail-sum ratios over dyadic arcs around theta = pi:")
for k in range(1, 9):
    w = np.pi / 2**k
    rep = cl.tail_integral_check(sec, cl.Arc(np.pi - w, np.pi + w, False, False), i_pi)
    print(f"  half-width pi/2^{k}: lhs {rep.lhs:10.4f}  ratio {rep.ratio:.4f}")

# the discrete-Hilbert-transform shortcut agrees with the direct apply
data = cl.exp_clark_data(100)
sec = cl.CauchySection(data.measure, lattice_indices=data.lattice_indices)
f = np.ones(sec.N, dtype=complex)
dev = np.max(np.abs(cl.hilbert_route(sec, f) - sec.apply(f)))
print(f"\nhilbert-route vs direct apply (f = 1): max deviation {dev:.2e}")
