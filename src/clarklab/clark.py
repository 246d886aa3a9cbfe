"""Clark atoms and masses by monotone-phase bisection.

Atoms of the Clark measure at parameter alpha are the boundary solutions
of u(e^{i theta}) = e^{2 pi i alpha}.  Because the phase lift is exactly
continuous and increasing, every solution on a scan arc corresponds to
one level  2 pi alpha + 2 pi k  inside the lift's range; each level is
bracketed by the scan ends and bisected.  Bisection (not Newton) because
only monotonicity is guaranteed near the spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (Arc, AtomicMeasure, CirclePoint, TWO_PI, arc_between,
                     measure_of_arc, neighbor_constants)
from .errors import EmptyArc, PhaseMonotonicityViolation, SpectrumPoint
from .inner import (EPS_SPECTRUM, InnerFunction, _angular_derivatives, _phase_lift,
                    angular_derivative, spectrum)

DEFAULT_TOL = 1e-12

#: Atoms closer than this multiple of tol to a scan end are flagged
#: edge-uncertain.
EDGE_FLAG_FACTOR = 10.0


def _scan_interval(u, scan: Arc, eps_spec: float) -> tuple[float, float]:
    """Lift the scan arc to an interval [lo, hi] on the real line and
    verify it keeps chordal distance >= eps_spec from the spectrum."""
    lo = scan.start.theta
    hi = lo + scan.length
    margin = 2.0 * np.arcsin(min(eps_spec, 2.0) / 2.0)  # chordal -> angular
    for p in spectrum(u):
        for k in (-1, 0, 1):
            lift = p.theta + TWO_PI * k
            if lo - margin <= lift <= hi + margin:
                raise SpectrumPoint(
                    f"scan arc comes within {eps_spec:g} of spectrum point "
                    f"theta={p.theta:.6g}")
    return lo, hi


def _sanity_monotone(u, lo, hi):
    """Coarse sampled check that the lift increases along the scan."""
    ts = np.linspace(lo, hi, 1025)
    ph = _phase_lift(u, ts)
    if np.any(np.diff(ph) < -1e-9):
        raise PhaseMonotonicityViolation(
            "sampled phase decreased along the scan")


def _bisect_levels(u, lo, hi, levels, tol):
    """Vectorized bisection of the monotone lift for several levels."""
    levels = np.asarray(levels, dtype=float)
    a = np.full(levels.shape, lo)
    b = np.full(levels.shape, hi)
    # ~46 halvings take the full circle below 1e-13
    n_iter = int(np.ceil(np.log2(max((hi - lo) / tol, 2.0)))) + 1
    for _ in range(n_iter):
        mid = 0.5 * (a + b)
        below = _phase_lift(u, mid) < levels
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def find_atoms(u: InnerFunction, alpha: float, scan: Arc,
               tol: float = DEFAULT_TOL, eps_spec: float = EPS_SPECTRUM,
               return_flags: bool = False):
    """All boundary solutions of u = e^{2 pi i alpha} on the scan arc.

    Returns CirclePoints sorted along the scan direction; with
    ``return_flags`` also a parallel list marking atoms within
    10*tol of a scan end as edge-uncertain.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = _scan_interval(u, scan, eps_spec)
    _sanity_monotone(u, lo, hi)
    p_lo = float(_phase_lift(u, lo))
    p_hi = float(_phase_lift(u, hi))
    if p_hi < p_lo:
        raise PhaseMonotonicityViolation("phase decreases across the scan")
    target = TWO_PI * alpha
    k0 = int(np.ceil((p_lo - target) / TWO_PI - 1e-12))
    k1 = int(np.floor((p_hi - target) / TWO_PI + 1e-12))
    if k1 < k0:
        return ([], []) if return_flags else []
    levels = target + TWO_PI * np.arange(k0, k1 + 1)
    roots = _bisect_levels(u, lo, hi, levels, tol)
    # a full-circle scan sees the wrap atom at both ends; keep one copy
    if roots.size >= 2 and roots[-1] - roots[0] > TWO_PI - max(4.0 * tol, 1e-12):
        roots = roots[:-1]
    pts = [CirclePoint(t) for t in roots]
    flags = [bool(min(t - lo, hi - t) < EDGE_FLAG_FACTOR * tol) for t in roots]
    return (pts, flags) if return_flags else pts


@dataclass
class ClarkData:
    """Clark atoms, masses 1/|u'|, derivatives and the empirical
    neighbor constants for one parameter alpha.

    ``measure`` holds the atoms sorted by canonical angle; derivatives and
    edge flags are aligned with that order.  A and B exclude gaps that
    cross a spectrum point of u (the truncation's wrap-around artifact).
    """

    alpha: float
    measure: AtomicMeasure
    derivatives: np.ndarray
    A: float
    B: float
    witness_A: int = -1
    witness_B: int = -1
    edge_uncertain: np.ndarray | None = None
    #: integer labels when the data comes from a closed-form lattice family
    lattice_indices: np.ndarray | None = None

    @property
    def n_atoms(self) -> int:
        return self.measure.n_atoms


def clark_data(u: InnerFunction, alpha: float, scan: Arc,
               tol: float = DEFAULT_TOL, eps_spec: float = EPS_SPECTRUM) -> ClarkData:
    """Locate atoms on the scan and attach masses and neighbor constants."""
    pts, flags = find_atoms(u, alpha, scan, tol, eps_spec, return_flags=True)
    thetas = np.array([p.theta for p in pts])
    derivs = np.array([angular_derivative(u, p) for p in pts])
    if np.any(~np.isfinite(derivs)):
        raise SpectrumPoint("infinite angular derivative at a located atom")
    masses = 1.0 / derivs
    order = np.argsort(thetas, kind="stable")
    measure = AtomicMeasure(thetas[order], masses[order]) if thetas.size else AtomicMeasure.empty()
    derivs = derivs[order] if thetas.size else derivs
    flags = np.asarray(flags, dtype=bool)[order] if thetas.size else np.zeros(0, bool)
    A, B, wa, wb = neighbor_constants(measure, excluded_points=spectrum(u))
    return ClarkData(alpha=alpha, measure=measure, derivatives=derivs,
                     A=A, B=B, witness_A=wa, witness_B=wb, edge_uncertain=flags)


def phase_partition(u: InnerFunction, n_levels: int, scan: Arc,
                    tol: float = DEFAULT_TOL, eps_spec: float = EPS_SPECTRUM) -> list[Arc]:
    """Partition of the scan into arcs [t_k, t_{k+1}) whose endpoints carry
    phase values on the lattice (2 pi / N) Z; each cell's phase increment
    is exactly 2 pi / N."""
    if n_levels < 2:
        raise ValueError("need at least 2 phase levels")
    lo, hi = _scan_interval(u, scan, eps_spec)
    _sanity_monotone(u, lo, hi)
    p_lo = float(_phase_lift(u, lo))
    p_hi = float(_phase_lift(u, hi))
    step = TWO_PI / n_levels
    k0 = int(np.ceil(p_lo / step - 1e-12))
    k1 = int(np.floor(p_hi / step + 1e-12))
    if k1 - k0 < 1:
        return []
    levels = step * np.arange(k0, k1 + 1)
    roots = _bisect_levels(u, lo, hi, levels, tol)
    return [arc_between(roots[i], roots[i + 1], closed_left=True, closed_right=False)
            for i in range(len(roots) - 1)]


# Baranov-Dyakonov regularity constants: |u'| varies by at most C1 within
# one phase cell and |J| N |u'| stays within C2 (guaranteed only for N
# large; see the ``hypothesis_note`` on the report).
C1_DERIVATIVE_RATIO = 100.0 / 81.0
C2_LENGTH_PRODUCT = TWO_PI * C1_DERIVATIVE_RATIO


@dataclass
class PartitionRegularityReport:
    n_levels: int
    n_cells: int
    max_derivative_ratio: float
    max_length_product: float
    max_length_product_reciprocal: float
    passed: bool
    hypothesis_note: str = (
        "the lower bound on N that guarantees these constants depends on a "
        "spectrum-distance constant with no closed form; pass/fail is "
        "reported per N without asserting that hypothesis")


def partition_regularity(u: InnerFunction, n_levels: int, scan: Arc,
                         samples_per_cell: int = 33,
                         tol: float = DEFAULT_TOL) -> PartitionRegularityReport:
    """Empirical check that |u'| is nearly constant on each phase cell and
    that cell lengths scale like 1/(N |u'|)."""
    cells = phase_partition(u, n_levels, scan, tol)
    ts = np.reshape([np.linspace(c.start.theta, c.start.theta + c.length, samples_per_cell)
                     for c in cells], (-1, samples_per_cell))
    d = _angular_derivatives(u, ts)
    prod = np.array([c.length for c in cells]) * n_levels * d[:, 0]
    max_ratio = float(np.max(d.max(axis=1) / d.min(axis=1), initial=1.0))
    max_prod = float(np.max(prod, initial=-np.inf))
    max_recip = float(np.max(1.0 / prod, initial=-np.inf))
    passed = (max_ratio <= C1_DERIVATIVE_RATIO
              and max_prod <= C2_LENGTH_PRODUCT
              and max_recip <= C2_LENGTH_PRODUCT)
    return PartitionRegularityReport(
        n_levels=n_levels, n_cells=len(cells),
        max_derivative_ratio=max_ratio,
        max_length_product=float(max_prod),
        max_length_product_reciprocal=float(max_recip),
        passed=bool(passed))


@dataclass
class ComparabilityReport:
    """Ratios sigma(Q)/sigma_alpha(Q) over an arc family, and
    sigma(Q)/|Q| over the arcs holding at least two sigma-atoms."""

    ratio_min: float
    ratio_max: float
    lebesgue_ratio_min: float | None
    lebesgue_ratio_max: float | None
    n_arcs: int
    n_lebesgue_arcs: int


def comparability_check(data: ClarkData, data_alpha: ClarkData,
                        arcs) -> ComparabilityReport:
    """Compare the masses two Clark measures give to each arc, and compare
    the base measure to arc length where at least two atoms are present."""
    ratios = []
    leb = []
    for q in arcs:
        s0 = measure_of_arc(data.measure, q)
        s1 = measure_of_arc(data_alpha.measure, q)
        if s0 == 0.0 or s1 == 0.0:
            raise EmptyArc("arc carries no atom of one of the measures")
        ratios.append(s0 / s1)
        if int(data.measure.membership(q).sum()) >= 2:
            leb.append(s0 / q.length)
    ratios = np.asarray(ratios)
    return ComparabilityReport(
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        lebesgue_ratio_min=float(min(leb)) if leb else None,
        lebesgue_ratio_max=float(max(leb)) if leb else None,
        n_arcs=len(ratios),
        n_lebesgue_arcs=len(leb))
