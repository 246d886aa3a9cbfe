"""Finite sections of the truncated Cauchy transform on L^2(sigma).

On the atoms {zeta_n} with masses {sigma_n} the transform acts as
(C f)(zeta_n) = sum_{m != n} f(zeta_m) sigma_m / (1 - conj(zeta_m) zeta_n);
the diagonal is excluded by definition, so no principal-value
regularization appears.  In the weighted coordinates g_n = f_n sqrt(sigma_n)
the section is the matrix A[n,m] = sqrt(sigma_n sigma_m)/(1 - conj(zeta_m) zeta_n)
with zero diagonal, unitarily equivalent to the section of C on L^2(sigma).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import Arc, AtomicMeasure, CirclePoint, TWO_PI, arc_between, chord_angles
from .errors import (BoundaryAtom, DenseCapExceeded, DimensionMismatch,
                     NotEnoughAtoms, WrongFamily)

#: Dense storage beyond this section size would cross ~1 GiB; larger
#: sections fall back to chunked on-the-fly application.
DENSE_CAP = 8192


class CauchySection:
    """Atoms, masses, and (lazily) the dense weighted section matrix."""

    def __init__(self, measure: AtomicMeasure, lattice_indices=None,
                 dense_cap: int = DENSE_CAP):
        self.measure = measure
        self.theta = measure.thetas
        self.sigma = measure.masses
        self.z = measure.points_complex
        self.N = measure.n_atoms
        self.dense_cap = dense_cap
        # integer lattice labels when the section comes from the
        # single-point-mass exponential family's closed forms
        self.lattice_indices = (None if lattice_indices is None
                                else np.asarray(lattice_indices, dtype=int))
        self._A = None

    @staticmethod
    def from_clark(data, **kw) -> "CauchySection":
        return CauchySection(data.measure, **kw)

    def matrix(self) -> np.ndarray:
        """Dense A with A[n,m] = sqrt(sig_n sig_m)/(1 - conj(z_m) z_n),
        zero diagonal."""
        if self._A is None:
            if self.N > self.dense_cap:
                raise DenseCapExceeded(
                    f"section size {self.N} exceeds dense cap {self.dense_cap}")
            rs = np.sqrt(self.sigma)
            D = 1.0 - np.conj(self.z)[None, :] * self.z[:, None]
            np.fill_diagonal(D, 1.0)
            A = (rs[:, None] * rs[None, :]) / D
            np.fill_diagonal(A, 0.0)
            self._A = A
        return self._A

    def cauchy_of_one(self, n: int) -> complex:
        """(C 1)(zeta_n) = sum_{m != n} sigma_m / (1 - conj(zeta_m) zeta_n)."""
        d = 1.0 - np.conj(self.z) * self.z[n]
        d[n] = np.inf
        return complex(np.sum(self.sigma / d))

    def cauchy_one_all(self, chunk: int = 2048) -> np.ndarray:
        out = np.empty(self.N, dtype=complex)
        for s in range(0, self.N, chunk):
            e = min(s + chunk, self.N)
            D = 1.0 - np.conj(self.z)[None, :] * self.z[s:e, None]
            D[np.arange(e - s), np.arange(s, e)] = np.inf
            out[s:e] = (self.sigma[None, :] / D).sum(axis=1)
        return out

    def apply(self, f) -> np.ndarray:
        """(C f) at all atoms, in the unweighted coordinates."""
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.N,):
            raise DimensionMismatch(f"expected {self.N} values, got {f.shape}")
        if self.N <= self.dense_cap:
            rs = np.sqrt(self.sigma)
            return (self.matrix() @ (f * rs)) / rs
        out = np.empty(self.N, dtype=complex)
        g = f * self.sigma
        for s in range(0, self.N, 1024):
            e = min(s + 1024, self.N)
            D = 1.0 - np.conj(self.z)[None, :] * self.z[s:e, None]
            D[np.arange(e - s), np.arange(s, e)] = np.inf
            out[s:e] = (g[None, :] / D).sum(axis=1)
        return out


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
class PowerIterationConfig:
    tol: float = 1e-10          # absolute Rayleigh-quotient change
    max_iter: int = 10_000
    stagnation: float = 1e-15   # immediate stagnation triggers a reseed
    seed: int = 0


@dataclass
class OperatorNormEstimate:
    """Per-section largest singular values (lower bounds for the full
    operator norm), nondecreasing in the section size by nesting."""

    sizes: list[int]
    values: list[float]
    converged: list[bool]
    iterations: list[int]

    @property
    def last_doubling_growth(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return self.values[-1] / self.values[-2] - 1.0


def _power_largest_sv(A: np.ndarray, cfg: PowerIterationConfig):
    """Largest singular value of A by power iteration on B = A* A.

    B is formed once (one matmul) so each iteration costs a single
    Hermitian matvec; the Rayleigh quotient v* B v = |A v|^2 increases to
    the squared norm, so intermediate values are genuine lower bounds.
    """
    N = A.shape[0]
    B = A.conj().T @ A
    rng = np.random.default_rng(cfg.seed)

    def run(v):
        v = v / np.linalg.norm(v)
        rho_old = -np.inf
        for it in range(1, cfg.max_iter + 1):
            w = B @ v
            rho = float(np.vdot(v, w).real)
            delta = abs(rho - rho_old)
            if delta < cfg.tol:
                return rho, True, it, delta
            rho_old = rho
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0, True, it, 0.0
            v = w / nw
        return rho_old, False, cfg.max_iter, delta

    rho, conv, it, delta = run(np.ones(N, dtype=complex) / np.sqrt(N))
    if delta < cfg.stagnation and it <= 3:
        # seed may be orthogonal to the top singular vector
        rho2, conv2, it2, _ = run(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        if rho2 > rho:
            rho, conv, it = rho2, conv2, it + it2
    return float(np.sqrt(max(rho, 0.0))), conv, it


def operator_norm(measure: AtomicMeasure, sizes,
                  cfg: PowerIterationConfig | None = None) -> OperatorNormEstimate:
    """Largest singular values of nested sections of increasing size."""
    sizes = list(sizes)
    if sorted(sizes) != sizes:
        raise ValueError("section sizes must be increasing")
    cfg = cfg or PowerIterationConfig()
    values, conv, iters = [], [], []
    for sec in nested_sections(measure, sizes):
        v, c, it = _power_largest_sv(sec.matrix(), cfg)
        values.append(v)
        conv.append(c)
        iters.append(it)
    return OperatorNormEstimate(sizes=sizes, values=values,
                                converged=conv, iterations=iters)


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
    d2 = chord_angles(section.theta[outside], section.theta[i]) ** 2
    lhs = float(np.sum(section.sigma[outside] / d2))
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
    diff = n[:, None] - n[None, :]
    np.fill_diagonal(diff, 1)
    K = 1.0 / diff
    np.fill_diagonal(K, 0.0)
    s = K @ x
    return (2 * n * np.pi * 1j - 1) / (4j * np.pi) * s
