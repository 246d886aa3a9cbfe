"""Finite sections of the truncated Cauchy transform on L^2(sigma).

On the atoms {zeta_n} with masses {sigma_n} the transform acts as
(C f)(zeta_n) = sum_{m != n} f(zeta_m) sigma_m / (1 - conj(zeta_m) zeta_n);
the diagonal is excluded by definition, so no principal-value
regularization appears.  In the weighted coordinates g_n = f_n sqrt(sigma_n)
the section is the matrix A[n,m] = sqrt(sigma_n sigma_m)/(1 - conj(zeta_m) zeta_n)
with zero diagonal, unitarily equivalent to the section of C on L^2(sigma).
A is Hermitian: conj(A[m,n]) = sqrt(sigma_n sigma_m)/(1 - zeta_n conj(zeta_m))
= A[n,m] for any points, so its norm is its largest |eigenvalue|.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (Arc, AtomicMeasure, CirclePoint, TWO_PI, arc_between, chord_angles,
                     kernel_sum)
from .errors import (BoundaryAtom, ClarkLabError, DenseCapExceeded,
                     DimensionMismatch, NotEnoughAtoms, WrongFamily)

#: Dense storage beyond this section size would cross ~1 GiB, so
#: ``matrix`` refuses it; ``apply`` needs no dense storage.
DENSE_CAP = 8192


class CauchySection:
    """Atoms, masses, and (lazily) the dense weighted section matrix."""

    def __init__(self, measure: AtomicMeasure, lattice_indices=None):
        self.measure = measure
        self.theta = measure.thetas
        self.sigma = measure.masses
        self.z = measure.points_complex
        self.N = measure.n_atoms
        # integer lattice labels when the section comes from the
        # single-point-mass exponential family's closed forms
        self.lattice_indices = (None if lattice_indices is None
                                else np.asarray(lattice_indices, dtype=int))
        self._A = None

    def matrix(self) -> np.ndarray:
        """Dense A with A[n,m] = sqrt(sig_n sig_m)/(1 - conj(z_m) z_n),
        zero diagonal."""
        if self._A is None:
            if self.N > DENSE_CAP:
                raise DenseCapExceeded(
                    f"section size {self.N} exceeds dense cap {DENSE_CAP}")
            rs = np.sqrt(self.sigma)
            D = 1.0 - np.conj(self.z)[None, :] * self.z[:, None]
            np.fill_diagonal(D, 1.0)
            A = (rs[:, None] * rs[None, :]) / D
            np.fill_diagonal(A, 0.0)
            self._A = A
        return self._A

    def cauchy_of_one(self, n: int) -> complex:
        """(C 1)(zeta_n) = sum_{m != n} sigma_m / (1 - conj(zeta_m) zeta_n)."""
        others = np.arange(self.N) != n
        return complex(kernel_sum(self.z[n], self.z[others],
                                  -(self.sigma * self.z)[others], "1/d"))

    def cauchy_one_all(self) -> np.ndarray:
        return self.apply(np.ones(self.N))

    def apply(self, f) -> np.ndarray:
        """(C f) at all atoms, in the unweighted coordinates.

        On the circle 1/(1 - conj(zeta_m) zeta_n) = -zeta_m/(zeta_n - zeta_m),
        a Cauchy kernel on Cartesian differences.
        """
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.N,):
            raise DimensionMismatch(f"expected {self.N} values, got {f.shape}")
        return kernel_sum(self.z, self.z, -f * self.sigma * self.z, "1/d", skip_self=True)


def nested_sections(measure: AtomicMeasure, sizes) -> list[CauchySection]:
    """Sections over the N largest-mass atoms (ties broken by angle), so
    each section's matrix is a principal submatrix of the next."""
    order = np.argsort(-measure.masses, kind="stable")
    out = []
    for n in sizes:
        if n > measure.n_atoms:
            raise NotEnoughAtoms(f"requested section size {n} > {measure.n_atoms}")
        idx = np.sort(order[:n])
        out.append(CauchySection(AtomicMeasure(measure.thetas[idx],
                                               measure.masses[idx])))
    return out


@dataclass
class OperatorNormEstimate:
    """Norms of nested sections, nondecreasing in the section size by
    nesting.  Each value is the section's norm exact to rounding, from a
    backward-stable Hermitian eigensolve, and a lower bound for the norm
    of the full operator."""

    sizes: list[int]
    values: list[float]
    #: always True; perfbench's check_norm still reads it
    converged: list[bool]
    #: always 0; perfbench's traced runs still sum it
    iterations: list[int]

    @property
    def last_doubling_growth(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return self.values[-1] / self.values[-2] - 1.0


def operator_norm(measure: AtomicMeasure, sizes) -> OperatorNormEstimate:
    """Norms of nested sections of increasing size (each at least 2).

    A is Hermitian, so ||A|| = max |lambda(A)|.  LAPACK's heevd is
    backward stable and finds every eigenvalue to within p(N) eps ||A||
    (LAPACK Users' Guide, 3rd ed., section 4.7), so each value is its
    section's norm exact to rounding, and a lower bound for the norm of
    the full operator.
    """
    sizes = list(sizes)
    if any(n < 2 for n in sizes):
        raise NotEnoughAtoms(f"section sizes must be at least 2, got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ClarkLabError(f"section sizes must be increasing, got {sizes}")
    values = []
    for sec in nested_sections(measure, sizes):
        w = np.linalg.eigvalsh(sec.matrix())
        values.append(float(max(-w[0], w[-1])))
    return OperatorNormEstimate(sizes=sizes, values=values,
                                converged=[True] * len(sizes),
                                iterations=[0] * len(sizes))


@dataclass
class TolsaReport:
    """max over arcs Q of ||C chi_Q||_{L^2(sigma)} / sigma(Q)^{1/2}."""

    max_ratio: float
    witness_arc: Arc
    witness_start: int
    witness_count: int
    n_arcs: int


def tolsa_scan(section: CauchySection) -> TolsaReport:
    """Scan every arc whose endpoints are midpoints between consecutive
    atoms; since sigma is atomic those arcs realize every contiguous atom
    subset, which is all chi_Q can see.

    ||C chi_Q||^2 = sum over (i, i') in Q x Q of G[i, i'] with
    G = diag(sqrt(sig)) A* A diag(sqrt(sig)), so a 2-d prefix sum over a
    doubled copy of G answers each arc in O(1) after one matmul.
    """
    N = section.N
    if N < 2:
        raise NotEnoughAtoms("Tolsa scan needs at least 2 atoms")
    A = section.matrix()
    rs = np.sqrt(section.sigma)
    W = A * rs[None, :]
    G = (W.conj().T @ W).real
    G2 = np.tile(G, (2, 2))
    PS = np.zeros((2 * N + 1, 2 * N + 1))
    PS[1:, 1:] = G2.cumsum(axis=0).cumsum(axis=1)
    del G2
    cmass = np.concatenate([[0.0], np.cumsum(np.tile(section.sigma, 2))])

    best = -np.inf
    wit = (0, N)
    n_arcs = 0
    for a in range(N):
        counts = np.arange(1, N + 1) if a == 0 else np.arange(1, N)
        b = a + counts
        norm2 = PS[b, b] - PS[a, b] - PS[b, a] + PS[a, a]
        ratio2 = norm2 / (cmass[b] - cmass[a])
        n_arcs += counts.size
        i = int(np.argmax(ratio2))
        if ratio2[i] > best:
            best = float(ratio2[i])
            wit = (a, int(counts[i]))
    a, cnt = wit
    if cnt == N:
        arc = Arc.full_circle()
    else:
        th = section.theta
        left = th[(a - 1) % N] + 0.5 * ((th[a] - th[(a - 1) % N]) % TWO_PI)
        j = (a + cnt - 1) % N
        right = th[j] + 0.5 * ((th[(j + 1) % N] - th[j]) % TWO_PI)
        arc = arc_between(left, right, closed_left=True, closed_right=True)
    return TolsaReport(max_ratio=float(np.sqrt(max(best, 0.0))),
                       witness_arc=arc, witness_start=a, witness_count=cnt,
                       n_arcs=n_arcs)


@dataclass
class TailIntegralReport:
    """Tail sum sum_{zeta_j not in Q} sigma_j/|zeta_j - zeta_i|^2 against
    the scale 1/dist(zeta_i, complement of Q)."""

    lhs: float
    rhs_scale: float
    ratio: float


def tail_integral_check(section: CauchySection, Q: Arc, i: int) -> TailIntegralReport:
    p = CirclePoint(section.theta[i])
    if not Q.is_full_circle:
        d = Q.offset_of(p)
        if d == 0.0 or d == Q.length:
            raise BoundaryAtom("atom sits on the boundary of the arc")
        if not Q.contains(p):
            raise ValueError("atom must lie strictly inside the arc")
    outside = ~section.measure.membership(Q)
    if not outside.any():
        return TailIntegralReport(lhs=0.0, rhs_scale=0.0, ratio=0.0)
    lhs = float(kernel_sum(section.z[i], section.z[outside], section.sigma[outside], "1/|d|^2"))
    dist = min(float(chord_angles(p.theta, Q.start.theta)),
               float(chord_angles(p.theta, Q.start.theta + Q.length)))
    rhs_scale = 1.0 / dist
    return TailIntegralReport(lhs=lhs, rhs_scale=rhs_scale, ratio=lhs / rhs_scale)


def hilbert_route(section: CauchySection, f) -> np.ndarray:
    """Apply the section through the discrete-Hilbert-transform algebra of
    the single-point-mass exponential family:
      x_m = (2 m pi i + 1) f_m sigma_m,
      (C f)(zeta_n) = (2 n pi i - 1)/(4 pi i) * sum_{m != n} x_m/(n - m).
    Requires the section to carry its integer lattice labels and to match
    the family's closed forms.
    """
    if section.lattice_indices is None:
        raise WrongFamily("section carries no lattice labels")
    n = section.lattice_indices
    zeta = (2 * n * np.pi * 1j + 1) / (2 * n * np.pi * 1j - 1)
    sig = 2.0 / (4.0 * n.astype(float) ** 2 * np.pi**2 + 1.0)
    if (np.max(np.abs(zeta - section.z)) > 1e-9
            or np.max(np.abs(sig - section.sigma)) > 1e-9):
        raise WrongFamily("section does not match the family's closed forms")
    f = np.asarray(f, dtype=complex)
    if f.shape != (section.N,):
        raise DimensionMismatch(f"expected {section.N} values, got {f.shape}")
    x = (2 * n * np.pi * 1j + 1) * f * sig
    labels = n.astype(float)
    s = kernel_sum(labels, labels, x, "1/d", skip_self=True)
    return (2 * n * np.pi * 1j - 1) / (4j * np.pi) * s
