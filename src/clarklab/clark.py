"""Clark atoms and masses by safeguarded Newton on the monotone phase.

Atoms of the Clark measure at parameter alpha are the boundary solutions
of u(e^{i theta}) = e^{2 pi i alpha}.  Because the phase lift is exactly
continuous and increasing, every solution on a scan arc corresponds to
one level  2 pi alpha + 2 pi k  inside the lift's range.  A sample of the
lift along the scan brackets each level, and Newton's method on the lift,
whose derivative is the angular derivative |u'|, refines it inside that
bracket.  Monotonicity is all that is guaranteed near the spectrum, so
the bracket, not the Newton step, decides when a level is done.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import (MEMORY_BUDGET, Arc, AtomicMeasure, TWO_PI, arc_mask, canonical_angles,
                     neighbor_constants)
from .errors import ClarkLabError, PhaseMonotonicityViolation, SpectrumPoint
from .inner import (EPS_SPECTRUM, InnerFunction, _angular_derivatives, _phase,
                    angular_derivative, spectrum)

#: Atom location tolerance: the width of each level's final bracket
#: (radians).
DEFAULT_TOL = 1e-13

#: Atoms closer than this multiple of tol to a scan end are flagged
#: edge-uncertain.
EDGE_FLAG_FACTOR = 10.0

#: Bytes held per level while its atom is located and reported:
#: _solve_levels keeps about twenty arrays of the level count, clark_data
#: a list of one derivative per atom.  `atoms --family exp` peaked at
#: 390 and 375 bytes per level, report included, for N = 10^4 and
#: 4 x 10^4 (tracemalloc, numpy 2.4), so MEMORY_BUDGET allows about
#: 2 x 10^6 levels.
LEVEL_BYTES = 512


def _check_level_count(n: int) -> None:
    """ClarkLabError, before any level is built, when n levels at
    LEVEL_BYTES each exceed MEMORY_BUDGET."""
    if n * LEVEL_BYTES > MEMORY_BUDGET:
        raise ClarkLabError(f"{n} levels on the scan exceed the memory budget of "
                            f"{MEMORY_BUDGET} bytes at {LEVEL_BYTES} bytes per level")


def _solve_levels(phase, a, b, levels, tol):
    """The t in [a, b] with phase(t) = level, for each level, where
    ``phase(t)`` returns an increasing function and its derivative and
    phase(a) <= level <= phase(b) per level.

    rtsafe (Press et al., Numerical Recipes, sec. 9.4): each evaluation
    moves one end of the level's bracket by the sign of phase - level.
    The next point is the Newton point when it lies inside the bracket
    and moves at most half as far as the step before last; otherwise the
    bracket is bisected.  So Newton moves shrink geometrically between
    bisections, and each bisection halves the bracket.  The Newton point
    is pushed tol/4 (at least one float spacing) further along its step,
    so that once Newton has converged the next sign lands past the root
    and closes the bracket.  A level is done only when its bracket is at
    most tol wide or its ends are adjacent floats; a small Newton step
    alone would only mean "stopped changing".  Only open levels are
    evaluated, each distinct point once (levels that share a bracket share
    its midpoint), and the bracket's midpoint is returned.
    """
    levels = np.asarray(levels, dtype=float)
    a, b = (np.array(np.broadcast_to(e, levels.shape), dtype=float) for e in (a, b))
    t = 0.5 * (a + b)
    last = b - a
    before = last.copy()
    live = np.arange(levels.size)
    while live.size:
        x = t[live]
        pts, inv = np.unique(x, return_inverse=True)
        f, df = (v[inv] for v in phase(pts))
        r = f - levels[live]
        lo = a[live] = np.where(r <= 0, x, a[live])
        hi = b[live] = np.where(r >= 0, x, b[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -r / df
        push = np.maximum(0.25 * tol, np.abs(np.spacing(x)))
        guess = np.clip(x + step + np.sign(step) * push, lo + push, hi - push)
        newton = ((lo <= x + step) & (x + step <= hi) & (lo < guess) & (guess < hi)
                  & (np.abs(guess - x) <= 0.5 * before[live]))
        t[live] = np.where(newton, guess, 0.5 * (lo + hi))
        before[live], last[live] = last[live], np.abs(t[live] - x)
        live = live[(hi - lo > tol) & (np.nextafter(lo, np.inf) < hi)]
    return 0.5 * (a + b)


def _level_roots(u, scan: Arc, tol: float, offset: float, step: float):
    """Where the phase lift crosses the levels offset + step Z on the scan
    arc lifted to [lo, hi], as (lo, hi, roots).

    The scan must keep chordal distance >= EPS_SPECTRUM from the spectrum.
    A 1025-point sample of the lift checks that it increases, and its cells
    bracket the levels for the solver.  More levels than MEMORY_BUDGET
    holds at LEVEL_BYTES each raise ClarkLabError before they are built.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, not {tol}")
    lo = scan.start
    hi = lo + scan.length
    margin = 2.0 * np.arcsin(EPS_SPECTRUM / 2.0)  # chordal -> angular
    spec = spectrum(u)
    near = spec[arc_mask(spec, lo - margin, scan.length + 2.0 * margin, True, True)]
    if near.size:
        raise SpectrumPoint(f"scan arc comes within {EPS_SPECTRUM:g} of spectrum point "
                            f"theta={near[0]:.6g}")
    ts = np.linspace(lo, hi, 1025)
    ph = _phase(u, ts, derivative=False)[0]
    if np.any(np.diff(ph) < -1e-9) or ph[-1] < ph[0]:
        raise PhaseMonotonicityViolation("sampled phase decreased along the scan")
    k0 = int(np.ceil((ph[0] - offset) / step - 1e-12))
    k1 = int(np.floor((ph[-1] - offset) / step + 1e-12))
    _check_level_count(k1 - k0 + 1)
    levels = offset + step * np.arange(k0, k1 + 1)
    cell = np.clip(np.searchsorted(ph, levels), 1, ts.size - 1)
    roots = _solve_levels(lambda t: _phase(u, t), ts[cell - 1], ts[cell], levels, tol)
    return lo, hi, roots


def find_atoms(u: InnerFunction, alpha: float, scan: Arc,
               tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """All boundary solutions of u = e^{2 pi i alpha} on the scan arc.

    alpha must be finite (else ValueError).  The solutions depend on
    e^{2 pi i alpha} only, so the levels are offset by 2 pi (alpha mod 1),
    which for alpha in [0, 1) is 2 pi alpha itself: at alpha = 1e17,
    2 pi alpha carries an ulp of 128 and would collapse the level grid.

    Returns (thetas, edge_flags): the canonical angles of the atoms in
    the order of the scan, and a parallel boolean array marking atoms
    within EDGE_FLAG_FACTOR * tol of a scan end as edge-uncertain.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    lo, hi, roots = _level_roots(u, scan, tol, TWO_PI * (alpha % 1.0), TWO_PI)
    # a full-circle scan sees the wrap atom at both ends; keep one copy
    if roots.size >= 2 and roots[-1] - roots[0] > TWO_PI - max(4.0 * tol, 1e-12):
        roots = roots[:-1]
    return canonical_angles(roots), np.minimum(roots - lo, hi - roots) < EDGE_FLAG_FACTOR * tol


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
    witness_A: int
    witness_B: int
    edge_uncertain: np.ndarray
    #: integer labels when the data comes from a closed-form lattice family
    lattice_indices: np.ndarray | None = None

    @property
    def n_atoms(self) -> int:
        return self.measure.n_atoms


def clark_data(u: InnerFunction, alpha: float, scan: Arc,
               tol: float = DEFAULT_TOL) -> ClarkData:
    """Locate atoms on the scan and attach masses and neighbor constants."""
    thetas, flags = find_atoms(u, alpha, scan, tol)
    derivs = np.array([angular_derivative(u, t) for t in thetas.tolist()], dtype=float)
    if np.any(~np.isfinite(derivs)):
        raise SpectrumPoint("infinite angular derivative at a located atom")
    return _assemble(alpha, thetas, derivs, flags, spectrum(u))


def _assemble(alpha, thetas, derivs, flags, excluded, labels=None) -> ClarkData:
    """ClarkData of atoms at the angles thetas with angular derivatives
    derivs, edge flags and optional labels, all sorted by angle: masses
    1/derivs, and neighbor constants without the gaps holding an angle of
    excluded (see neighbor_constants)."""
    order = np.argsort(thetas, kind="stable")
    measure = AtomicMeasure(thetas[order], 1.0 / derivs[order])
    return ClarkData(alpha, measure, derivs[order], *neighbor_constants(measure, excluded),
                     flags[order], None if labels is None else labels[order])


def phase_partition(u: InnerFunction, n_levels: int, scan: Arc) -> list[Arc]:
    """Partition of the scan into arcs [t_k, t_{k+1}) whose endpoints carry
    phase values on the lattice (2 pi / N) Z, located to DEFAULT_TOL; each
    cell's phase increment is exactly 2 pi / N."""
    if n_levels < 2:
        raise ValueError("need at least 2 phase levels")
    _, _, roots = _level_roots(u, scan, DEFAULT_TOL, 0.0, TWO_PI / n_levels)
    return [Arc(roots[i], roots[i + 1], closed_left=True, closed_right=False)
            for i in range(len(roots) - 1)]


# Baranov-Dyakonov regularity constants: |u'| varies by at most C1 within
# one phase cell and |J| N |u'| stays within C2 (guaranteed only for N
# large; see the ``hypothesis_note`` on the report).
C1_DERIVATIVE_RATIO = 100.0 / 81.0
C2_LENGTH_PRODUCT = TWO_PI * C1_DERIVATIVE_RATIO

#: Points at which partition_regularity samples |u'| on each phase cell.
CELL_SAMPLES = 33


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


def partition_regularity(u: InnerFunction, n_levels: int, scan: Arc) -> PartitionRegularityReport:
    """Empirical check that |u'| is nearly constant on each phase cell,
    sampled at CELL_SAMPLES points, and that cell lengths scale like
    1/(N |u'|)."""
    cells = phase_partition(u, n_levels, scan)
    ts = np.reshape([np.linspace(c.start, c.start + c.length, CELL_SAMPLES)
                     for c in cells], (-1, CELL_SAMPLES))
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
