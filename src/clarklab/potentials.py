"""Quadratic boundary potentials V_mu(z) = sum_n mu_n / |z - zeta_n|^2,
the potential conditions on |1-u|^2 V_mu, Cauchy-Szego
kernel norms, and a quadrature oracle for the weighted Dirichlet integral.

The disk scan works with G(z) = |1 - u(z)|^2 V_mu(z), which extends
continuously to every atom with limit |u'(zeta_k)|^2 mu_k.  The mate
normalization |a|^2 V_mu equals G/4 exactly (|1-u|^2 = 4|a|^2), and the
report carries both scalings.

Every V_mu(z) sums over atoms zeta = e^{i theta} on the unit circle, in
circle.disk_sum's half-angle form |z - zeta|^2 = 4r (sin^2((phi -
theta)/2) + (1 - r)^2/(4r)) for z = r e^{i phi}, on a polar grid of radii
and angles: each term errs by at most (13 sqrt(r)/|z - zeta| + 7) u of
itself, u the unit roundoff, and the sum over N atoms by gamma_N more.
Callers pass the grids they build (scan rings r = 1 - 2^-j, those of one
angle count together, r = 1 at the scan's circle points, atoms and
spectrum points, the quadrature grid), which keep 1 - r exact; only
``potential`` converts a complex z.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .circle import AtomicMeasure, TWO_PI, disk_sum, gaps_holding, kernel_sum
from .clark import ClarkData
from .errors import (ClarkLabError, MateZero, NotEnoughAtoms, QuadratureNotConverged,
                     SupportMismatch)
from .inner import (InnerFunction, _angular_derivatives, _phase_lift, angular_derivative,
                    evaluate, pythagorean_pair, spectrum)

#: z closer than this to an atom makes the potential infinite.
ATOM_HIT_TOL = 1e-14


def potential(m: AtomicMeasure, z) -> float:
    """V_m(z) = sum_n mass_n / |z - zeta_n|^2; inf on the atoms themselves
    (a meaningful value: the potential is infinite mu-a.e.)."""
    return float(potential_grid(m, *cmath.polar(complex(z)))[0, 0])


def potential_grid(m: AtomicMeasure, r, phi) -> np.ndarray:
    """The potential on the polar grid of radii r >= 0 and angles phi
    (flattened), as a (radii, angles) array (see circle.disk_sum)."""
    r, phi = np.ravel(r), np.ravel(phi)
    with np.errstate(divide="ignore"):
        out = disk_sum(r, phi, m.thetas, m.masses)
    # only rows within ATOM_HIT_TOL of the circle can lie as close to an
    # atom, and then only to the sorted atoms next to phi (atoms are
    # DUPLICATE_TOL apart)
    i = np.flatnonzero(np.abs(1.0 - r) < ATOM_HIT_TOL)
    if m.n_atoms and i.size:
        j = np.searchsorted(m.thetas, np.mod(phi, TWO_PI)) % m.n_atoms
        gap, s = (1.0 - r[i])[:, None], 2.0 * np.sqrt(r[i])[:, None]
        near = np.minimum(np.hypot(gap, s * np.sin(0.5 * (phi - m.thetas[j]))),
                          np.hypot(gap, s * np.sin(0.5 * (phi - m.thetas[j - 1]))))
        out[i] = np.where(near < ATOM_HIT_TOL, np.inf, out[i])
    return out


@dataclass
class AtomPotentialSup:
    """sup_m sum_{n != m} mu_n / |zeta_n - zeta_m|^2 with its witness."""

    value: float
    witness: int


def atom_potential_sup(m: AtomicMeasure) -> AtomPotentialSup:
    """Exact finite double sum, within kernel_sum's rounding bound; the
    boundedness of this quantity is the atom-wise criterion for the
    potential condition.  In half-angle differences d = (theta_n -
    theta_m)/2, 1/|zeta_n - zeta_m|^2 = (1 + cot^2 d)/4."""
    if m.n_atoms < 2:
        raise NotEnoughAtoms("need at least 2 atoms")
    half = 0.5 * m.thetas
    vals = 0.25 * kernel_sum(half, m.masses, "1+cot^2")
    i = int(np.argmax(vals))
    return AtomPotentialSup(value=float(vals[i]), witness=i)


@dataclass
class MassRatioReport:
    """Extremes of mu_n |u'(zeta_n)|^2; the two-sided comparability
    constant is C = max(max_product, 1/min_product)."""

    min_product: float
    max_product: float
    comparability_constant: float
    witness_min: int
    witness_max: int


def mass_ratio_check(clark: ClarkData, m: AtomicMeasure) -> MassRatioReport:
    """Products mu_n |u'(zeta_n)|^2 over a measure sharing the Clark
    support (angles within 1e-9); bounded products are the mass-window
    condition for the space equality."""
    thetas = clark.measure.thetas
    if thetas.size != m.n_atoms:
        raise SupportMismatch(f"atom counts differ: {thetas.size} vs {m.n_atoms}")
    if thetas.size and np.max(np.abs(thetas - m.thetas)) > 1e-9:
        raise SupportMismatch("atom angles differ by more than 1e-9")
    prods = m.masses * clark.derivatives**2
    imin = int(np.argmin(prods))
    imax = int(np.argmax(prods))
    return MassRatioReport(
        min_product=float(prods[imin]), max_product=float(prods[imax]),
        comparability_constant=float(max(prods[imax], 1.0 / prods[imin])),
        witness_min=imin, witness_max=imax)


@dataclass
class RadialLimitReport:
    extrapolated: float
    target: float
    rel_error: float
    radii: np.ndarray
    values: np.ndarray


def radial_limit_check(u: InnerFunction, m: AtomicMeasure, k: int) -> RadialLimitReport:
    """Extrapolate |1 - u(r zeta_k)|^2 V_m(r zeta_k) from r = 1 - 10^-j,
    j = 4..8, to r -> 1 and compare with the continuous-extension value
    |u'(zeta_k)|^2 m_k."""
    radii = 1.0 - 10.0 ** (-np.arange(4, 9, dtype=float))
    z = radii * m.points_complex[k]
    vals = np.abs(1.0 - evaluate(u, z)) ** 2 * potential_grid(m, radii, m.thetas[k])[:, 0]
    # Neville extrapolation to h = 0 in h = 1 - r
    h = 1.0 - radii
    tab = list(vals)
    for j in range(1, len(tab)):
        for i in range(len(tab) - j):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * h[i + j] / (h[i] - h[i + j])
    target = angular_derivative(u, m.thetas[k]) ** 2 * m.masses[k]
    extrap = float(tab[0])
    return RadialLimitReport(
        extrapolated=extrap, target=float(target),
        rel_error=abs(extrap - target) / abs(target),
        radii=radii, values=vals)


@dataclass
class KernelNorms:
    """Squared norms of the Cauchy-Szego kernel c_w(z) = 1/(1 - conj(w) z)
    in the two spaces, from the closed forms
    (1 + |b(w)/a(w)|^2)/(1-|w|^2)  and  (1 + |w|^2 V_mu(w))/(1-|w|^2)."""

    hb_norm_sq: float
    dmu_norm_sq: float


def kernel_norms(u: InnerFunction, m: AtomicMeasure, w: complex) -> KernelNorms:
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("kernel norms need |w| < 1")
    pair = pythagorean_pair(u)
    aw = pair.a(w)
    if abs(aw) == 0.0:
        raise MateZero("a(w) = 0")
    bw = pair.b(w)
    denom = 1.0 - abs(w) ** 2
    hb = (1.0 + abs(bw / aw) ** 2) / denom
    dmu = (1.0 + abs(w) ** 2 * potential(m, w)) / denom
    return KernelNorms(hb_norm_sq=float(hb), dmu_norm_sq=float(dmu))


# ---------------------------------------------------------------------------
# Dirichlet-integral quadrature (test oracle)

#: The quadrature grid: geometric radial panels toward r = 1, dyadic
#: angular grading toward each atom, Gauss-Legendre points per panel; the
#: grid-doubling step must move the value by at most
#: max(QUAD_ATOL, QUAD_RTOL max(|value|, 1)).
QUAD_RADIAL_DEPTH = 16
QUAD_ANGULAR_DEPTH = 13
QUAD_ORDER = 8
QUAD_RTOL = 5e-5
QUAD_ATOL = 1e-9


@dataclass
class QuadResult:
    value: float
    error_estimate: float


def _panel_nodes(breaks: np.ndarray, q: int):
    xg, wg = leggauss(q)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _radial_breaks(depth: int) -> np.ndarray:
    b = [0.0] + [1.0 - 2.0 ** (-j) for j in range(1, depth + 1)] + [1.0]
    return np.array(b)


def _angular_breaks(atom_thetas: np.ndarray, depth: int) -> np.ndarray:
    """Split the circle at atoms, grading each arc dyadically toward both
    ends so panels shrink where the Poisson weight peaks."""
    th = np.sort(np.mod(atom_thetas, TWO_PI))
    cuts = []
    n = len(th)
    for i in range(n):
        a = th[i]
        L = (th[(i + 1) % n] - a) % TWO_PI if n > 1 else TWO_PI
        if L == 0.0:
            L = TWO_PI
        cuts.append(a)
        for k in range(1, depth + 1):
            cuts.append(a + L * 0.5 ** (depth + 1 - k))
            cuts.append(a + L * (1.0 - 0.5 ** (depth + 1 - k)))
        cuts.append(a + 0.5 * L)
    return np.unique(np.mod(np.asarray(cuts), TWO_PI))


def _quad_once(m: AtomicMeasure, fprime, radial_depth: int, angular_depth: int) -> float:
    rn, rw = _panel_nodes(_radial_breaks(radial_depth), QUAD_ORDER)
    tb = _angular_breaks(m.thetas, angular_depth)
    tb = np.concatenate([tb, [tb[0] + TWO_PI]])
    tn, tw = _panel_nodes(tb, QUAD_ORDER)
    Z = rn[:, None] * np.exp(1j * tn[None, :])
    P = (1.0 - rn[:, None] ** 2) * disk_sum(rn, tn, m.thetas, m.masses)
    F = np.abs(np.asarray(fprime(Z), dtype=complex)) ** 2
    return float((rw * rn) @ (F * P) @ tw) / np.pi


def dirichlet_quadrature(m: AtomicMeasure, fprime) -> QuadResult:
    """(1/pi) * integral over the disk of |f'(z)|^2 P_m(z) dA(z), by
    composite Gauss-Legendre on a polar grid graded toward the boundary
    and toward each atom.  ``fprime`` must accept a complex ndarray.

    The error estimate comes from one grid-doubling step; if the change
    exceeds the QUAD_RTOL/QUAD_ATOL tolerance the quadrature has not
    converged.
    """
    coarse = _quad_once(m, fprime, QUAD_RADIAL_DEPTH, QUAD_ANGULAR_DEPTH)
    fine = _quad_once(m, fprime, QUAD_RADIAL_DEPTH + 1, QUAD_ANGULAR_DEPTH + 1)
    err = abs(fine - coarse)
    if err > max(QUAD_ATOL, QUAD_RTOL * max(abs(fine), 1.0)):
        raise QuadratureNotConverged(
            f"grid doubling changed the value by {err:.3e}")
    return QuadResult(value=fine, error_estimate=err)


# ---------------------------------------------------------------------------
# Disk scan of the weighted potential

#: Most points one disk-scan grid (the scan set, or its refinement level)
#: may hold; both are checked before either is evaluated.
GRID_BUDGET = 1 << 21

#: Equal parts into which the scan cuts each gap between consecutive
#: atoms: the scan set takes the GAP_POINTS - 1 cut points on the circle,
#: its refinement level the GAP_POINTS midpoints of the parts.
GAP_POINTS = 16

#: The scan set's rings r = 1 - 2^-j, j = 1..GRID_DEPTH, each of
#: min(ANGULAR_BASE 2^j, ANGULAR_CAP) equispaced angles (57 312 points);
#: the refinement level adds the ring GRID_DEPTH + 1, 2^-21 from the
#: circle, far beyond EVAL_ATOM_TOL of any singular atom.  The rings from
#: j = 8 on, the refinement level's among them, share the ANGULAR_CAP
#: angles, so one disk_sum takes them all.
GRID_DEPTH = 20
ANGULAR_BASE = 16
ANGULAR_CAP = 4096

#: Angular residual |u(zeta) - 1| / |u'(zeta)| allowed in support matching.
SUPPORT_TOL = 1e-6


@dataclass
class PotentialReport:
    """Evidence for sup/inf of the weighted potential over the disk.

    ``sup_estimate``/``inf_estimate`` refer to G = |1-u|^2 V_mu evaluated
    over the scan set together with the atom-limit values; the mate
    scaling |a|^2 V_mu is exactly G/4 and is reported alongside.  Spectrum
    values carry V_mu(eta) itself (G has no limit there).

    G is a sum of squared moduli of analytic functions, so it is
    subharmonic, and by the maximum principle its sup over the disk is
    its limsup at the circle: in the gaps between atoms, at the atom
    limits, and at a spectrum point eta, where G <= 4 V_mu and V_mu is
    continuous, so the limsup is at most 4 V_mu(eta).  The scan set
    therefore samples the circle in each gap.  The inf has no
    such principle; ``inf_estimate`` is the least sampled value, an
    estimate from above.

    The grid is fixed: rings r = 1 - 2^-j for j <= GRID_DEPTH and
    GAP_POINTS - 1 circle points in each gap free of the spectrum.
    ``refined_sup_estimate`` is the sup over the scan set together with one
    refinement level of the same grid (the ring GRID_DEPTH + 1 and
    GAP_POINTS circle points per gap; ``sup_inf_scan``), and ``converged``
    holds when that level moves the sup by at most 1%.

    Each witness is the first point attaining its extremum in scan order:
    the rings by j, each in the order of its angles, then the circle
    points in (gap, part) order, then the atom limits.
    """

    sup_estimate: float
    inf_estimate: float
    sup_witness: complex | str
    inf_witness: complex | str
    sup_mate_scaled: float
    inf_mate_scaled: float
    atom_limits: np.ndarray
    spectrum_values: np.ndarray
    grid_description: str
    converged: bool
    refined_sup_estimate: float


def _rings(depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rings r = 1 - 2^-j, j = 1..depth, of min(ANGULAR_BASE 2^j,
    ANGULAR_CAP) equispaced angles, as polar grids (radii, angles) in ring
    order: one grid per angle count, so the rings at the cap share one."""
    j = np.arange(1, depth + 1)
    M = np.minimum(ANGULAR_BASE * 2 ** j, ANGULAR_CAP)
    # not np.unique, whose first call imports numpy.ma (about 0.5 MiB that
    # the process keeps) under numpy 2.4
    return [(1.0 - 2.0 ** -j[M == k], np.arange(k) * (TWO_PI / k))
            for k in sorted(set(M.tolist()))]


def _scan_G(u, m, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """G on the polar grid of radii r and angles phi, as a (radii, angles)
    array.

    On the circle (r == 1) |1 - u|^2 = 4 sin^2(Phi/2), Phi the phase lift
    of u at phi itself.  u evaluated at the rounded z = e^{i phi}, an ulp
    off the circle, would lose the residue 1 - |z|^2 of each factor's
    modulus: on exp N = 200, next to the smallest gaps, that read G
    3.8e-11 relative off the 40-digit value, and the lift 1.3e-12."""
    z = r[:, None] * np.exp(1j * phi)
    on = r == 1.0
    one_minus_u2 = np.empty(z.shape)
    one_minus_u2[~on] = np.abs(1.0 - evaluate(u, z[~on])) ** 2
    if on.any():
        one_minus_u2[on] = 4.0 * np.sin(0.5 * _phase_lift(u, phi)) ** 2
    return one_minus_u2 * potential_grid(m, r, phi)


def sup_inf_scan(u: InnerFunction, m: AtomicMeasure) -> PotentialReport:
    """Scan G = |1-u|^2 V_m over radial-angular rings and circle points in
    the gaps between atoms, together with the exact atom-limit values;
    record V_m at spectrum points separately.

    The measure must be supported on Clark atoms of u at parameter 0
    (u = 1 there); the angular residual |u(zeta)-1| / |u'(zeta)| is the
    matching criterion.

    Convergence evidence comes from one refinement level of the same grid:
    the ring j = GRID_DEPTH + 1 and the midpoints of the GAP_POINTS parts
    of each gap, so the scan set plus that level is the grid one depth
    finer with twice the parts.  Both levels are counted, and checked
    against GRID_BUDGET, before either is evaluated: the circle points grow
    with the measure.  ``refined_sup_estimate`` is the sup over both, and
    ``converged`` holds when it exceeds the sup by at most 1% of the sup.

    The points go to _scan_G as polar grids: the rings of one angle count
    together (_rings), so the rings at ANGULAR_CAP and the refinement
    level's ring share one disk sum, and each level's circle points as one
    row r = 1.  A gap whose open arc holds a spectrum point gets no circle
    points (the rule of neighbor_constants): the limsup of G there is at
    most 4 V_mu at that point, which the report carries, and the rings
    still sample the gap.  Every other circle point lies at least
    gap/(2 GAP_POINTS) from each atom and singular atom: DUPLICATE_TOL/32
    = 3.1e-14 at GAP_POINTS = 16, beyond ATOM_HIT_TOL and EVAL_ATOM_TOL.
    """
    if m.n_atoms == 0:
        raise SupportMismatch("empty measure")
    # |u - 1| = 2 |sin(Phi/2)| from the phase lift at the atoms themselves;
    # |u'| from the per-zero sum that Clark masses are read from, so that
    # on mu = sigma^2 the atom limits are 1 to rounding (the lift's closed
    # form for lattice zeros differs from it within the two stated bounds)
    phase, derivs = _phase_lift(u, m.thetas), _angular_derivatives(u, m.thetas)
    resid = 2.0 * np.abs(np.sin(0.5 * phase)) / np.maximum(derivs, 1.0)
    if np.any(resid > SUPPORT_TOL):
        raise SupportMismatch(
            f"atom angular residual {resid.max():.3e} exceeds {SUPPORT_TOL:g}")

    atom_limits = derivs**2 * m.masses
    spec = spectrum(u)
    spec_values = potential_grid(m, 1.0, spec)[0]

    # the scan set's circle points cut each gap free of the spectrum into
    # GAP_POINTS parts, in (gap, part) order, and the refinement level's
    # halve those parts
    parts = np.arange(1, 2 * GAP_POINTS) / (2 * GAP_POINTS)
    free = ~gaps_holding(m, spec)
    circle, circle_ref = ((m.thetas[free, None] + m.gaps[free, None] * f).ravel()
                          for f in (parts[1::2], parts[::2]))
    rings = _rings(GRID_DEPTH + 1)
    last = rings[-1][1].size  # the ring GRID_DEPTH + 1, the refinement level's
    n_rings = sum(r.size * phi.size for r, phi in rings) - last
    for n in (n_rings + circle.size, last + circle_ref.size):
        if n > GRID_BUDGET:
            raise ClarkLabError(f"the scan grid would hold {n} points, more than "
                                f"the budget of {GRID_BUDGET}")
    # G over the rings in ring order, then over the circle points
    grids = rings + [(np.ones(1), circle)]
    G = np.concatenate([_scan_G(u, m, r, phi).ravel() for r, phi in grids])
    ref = slice(n_rings, n_rings + last)
    G_ref = np.concatenate([G[ref], _scan_G(u, m, np.ones(1), circle_ref)[0]])
    G = np.delete(G, ref)
    values = np.concatenate([G, atom_limits])
    i_sup = int(np.argmax(values))
    i_inf = int(np.argmin(values))
    sup = float(values[i_sup])

    def witness(i):
        if i >= G.size:
            return f"atom-limit:{i - G.size}"
        i += last if i >= n_rings else 0  # index among all grids' points
        for r, phi in grids:
            if i < r.size * phi.size:
                return complex(r[i // phi.size] * np.exp(1j * phi[i % phi.size]))
            i -= r.size * phi.size

    refined_sup = float(np.max(G_ref, initial=sup))

    return PotentialReport(
        sup_estimate=sup,
        inf_estimate=float(values[i_inf]),
        sup_witness=witness(i_sup),
        inf_witness=witness(i_inf),
        sup_mate_scaled=sup / 4.0,
        inf_mate_scaled=float(values[i_inf]) / 4.0,
        atom_limits=atom_limits,
        spectrum_values=spec_values,
        grid_description=(
            f"radial depth {GRID_DEPTH}, angular cap {ANGULAR_CAP}, "
            f"{circle.size} circle points, {GAP_POINTS - 1} in each "
            f"gap free of the spectrum"),
        converged=abs(refined_sup - sup) <= 0.01 * abs(sup),
        refined_sup_estimate=refined_sup)
