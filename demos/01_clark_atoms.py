"""Locate Clark atoms of inner functions and compare with closed forms.

The Clark measure at parameter alpha of an inner function u puts an atom
at every boundary point where u = e^{2 pi i alpha}, with mass 1/|u'|.
For u(z) = exp((z+1)/(z-1)) the atoms and masses have closed forms, which
makes the family a sharp calibration target for the atom locator.
"""
import numpy as np

import clarklab as cl

# --- monomials: the textbook case -----------------------------------------
for k in (1, 2, 4):
    data = cl.clark_data_for(cl.Monomial(k))
    print(f"u(z) = z^{k}:  atoms at {np.round(np.sort(data.measure.thetas), 6)}"
          f"  masses {data.measure.masses[0]:.4f}  (A, B) = ({data.A}, {data.B})")

# --- the single-point-mass exponential ------------------------------------
u = cl.SingularAtomic(atoms=((0.0, 1.0),))
data = cl.clark_data_for(cl.ExpSingular(), truncation=50)
closed = cl.exp_clark_data(50)
dev = np.max(np.abs(data.measure.thetas - closed.measure.thetas))
print(f"\nexp example, |n| <= 50: found {data.n_atoms} atoms, "
      f"max deviation from closed form {dev:.2e} rad")

n = closed.lattice_indices.astype(float)
rel = np.max(np.abs(data.measure.masses * (4 * n**2 * np.pi**2 + 1) / 2 - 1))
print(f"masses match 2/(4 n^2 pi^2 + 1) to relative {rel:.2e}")

# the lattice total tends to coth(1/2); truncations stay below it by less
# than the two-sided integral tail bound
total = cl.exp_total_mass()
for N in (10, 100, 1000):
    s = cl.exp_clark_data(N).measure.total_mass
    print(f"N = {N:5d}: mass {s:.10f}, deficit {total - s:.3e} "
          f"<= bound {cl.exp_tail_mass_bound(N):.3e}")

# --- interlacing of Clark measures at different parameters ------------------
scan = cl.Arc(0.2, 2 * np.pi - 0.2, True, True)
base, _ = cl.find_atoms(u, 0.0, scan)
half, _ = cl.find_atoms(u, 0.5, scan)
inside = [(np.sum((half > a) & (half < b))) for a, b in zip(base[:-1], base[1:])]
print(f"\nbetween consecutive level-0 atoms there is always exactly one "
      f"level-1/2 atom: {set(inside)}")

# --- phase partition cells --------------------------------------------------
cells = cl.phase_partition(u, 64, cl.Arc(0.05, 2 * np.pi - 0.05, True, True))
rep = cl.partition_regularity(u, 64, cl.Arc(0.05, 2 * np.pi - 0.05, True, True))
print(f"\n64-level phase partition: {len(cells)} cells, within-cell |u'| "
      f"ratio <= {rep.max_derivative_ratio:.4f} (bound 100/81 = {100/81:.4f})")
