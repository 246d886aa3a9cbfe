"""Quadratic boundary potentials V_mu(z) = sum_n mu_n / |z - zeta_n|^2,
Poisson integrals, the potential conditions on |1-u|^2 V_mu, Cauchy-Szego
kernel norms, and a quadrature oracle for the weighted Dirichlet integral.

The disk scan works with G(z) = |1 - u(z)|^2 V_mu(z), which extends
continuously to every atom with limit |u'(zeta_k)|^2 mu_k.  The mate
normalization |a|^2 V_mu equals G/4 exactly (|1-u|^2 = 4|a|^2), and the
report carries both scalings.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .circle import AtomicMeasure, CirclePoint, TWO_PI, pairwise_chord_sq
from .clark import ClarkData
from .errors import (MateZero, NotEnoughAtoms, QuadratureNotConverged,
                     SupportMismatch)
from .inner import (InnerFunction, _angular_derivatives, angular_derivative, evaluate,
                    pythagorean_pair, spectrum)

#: z closer than this to an atom makes the potential infinite.
ATOM_HIT_TOL = 1e-14


def potential(m: AtomicMeasure, z) -> float:
    """V_m(z) = sum_n mass_n / |z - zeta_n|^2; inf on the atoms themselves
    (a meaningful value: the potential is infinite mu-a.e.)."""
    z = complex(z)
    if not m.n_atoms:
        return 0.0
    d2 = np.abs(z - m.points_complex) ** 2
    if d2.min() < ATOM_HIT_TOL**2:
        return float("inf")
    return float(np.sum(m.masses / d2))


def potential_grid(m: AtomicMeasure, z: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Vectorized potential over an array of points."""
    z = np.asarray(z, dtype=complex).ravel()
    out = np.zeros(z.shape)
    pts = m.points_complex
    for s in range(0, z.size, chunk):
        blk = z[s:s + chunk]
        d2 = np.abs(blk[:, None] - pts[None, :]) ** 2
        hit = d2.min(axis=1) < ATOM_HIT_TOL**2
        with np.errstate(divide="ignore"):
            vals = (m.masses[None, :] / d2).sum(axis=1)
        vals[hit] = np.inf
        out[s:s + chunk] = vals
    return out


def poisson(m: AtomicMeasure, z) -> float:
    """P_m(z) = (1 - |z|^2) V_m(z) for z in the open disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("Poisson integral needs |z| < 1")
    return (1.0 - abs(z) ** 2) * potential(m, z)


@dataclass
class AtomPotentialSup:
    """sup_m sum_{n != m} mu_n / |zeta_n - zeta_m|^2 with its witness."""

    value: float
    witness: int


def atom_potential_sup(m: AtomicMeasure, chunk: int = 512) -> AtomPotentialSup:
    """Exact finite double sum; the boundedness of this quantity is the
    atom-wise criterion for the potential condition."""
    N = m.n_atoms
    if N < 2:
        raise NotEnoughAtoms("need at least 2 atoms")
    best = -np.inf
    wit = -1
    for s in range(0, N, chunk):
        e = min(s + chunk, N)
        d2 = pairwise_chord_sq(m.thetas[s:e], m.thetas)
        d2[np.arange(e - s), np.arange(s, e)] = np.inf
        vals = (m.masses[None, :] / d2).sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            wit = s + i
    return AtomPotentialSup(value=best, witness=wit)


@dataclass
class MassRatioReport:
    """Extremes of mu_n |u'(zeta_n)|^2; the two-sided comparability
    constant is C = max(max_product, 1/min_product)."""

    min_product: float
    max_product: float
    comparability_constant: float
    witness_min: int
    witness_max: int


def _match_supports(thetas_a, thetas_b, tol):
    if thetas_a.size != thetas_b.size:
        raise SupportMismatch(
            f"atom counts differ: {thetas_a.size} vs {thetas_b.size}")
    if thetas_a.size and np.max(np.abs(thetas_a - thetas_b)) > tol:
        raise SupportMismatch("atom angles differ beyond tolerance")


def mass_ratio_check(clark: ClarkData, m: AtomicMeasure,
                     angle_tol: float = 1e-9) -> MassRatioReport:
    """Products mu_n |u'(zeta_n)|^2 over a measure sharing the Clark
    support; bounded products are the mass-window condition for the
    space equality."""
    _match_supports(clark.measure.thetas, m.thetas, angle_tol)
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


def radial_limit_check(u: InnerFunction, m: AtomicMeasure, k: int,
                       radii=None) -> RadialLimitReport:
    """Extrapolate |1 - u(r zeta_k)|^2 V_m(r zeta_k) to r -> 1 and compare
    with the continuous-extension value |u'(zeta_k)|^2 m_k."""
    if radii is None:
        radii = 1.0 - 10.0 ** (-np.arange(4, 9, dtype=float))
    radii = np.asarray(radii, dtype=float)
    z = radii * m.points_complex[k]
    vals = np.abs(1.0 - evaluate(u, z)) ** 2 * potential_grid(m, z)
    # Neville extrapolation to h = 0 in h = 1 - r
    h = 1.0 - radii
    tab = list(vals)
    for j in range(1, len(tab)):
        for i in range(len(tab) - j):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * h[i + j] / (h[i] - h[i + j])
    target = angular_derivative(u, CirclePoint(m.thetas[k])) ** 2 * m.masses[k]
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

@dataclass
class QuadConfig:
    radial_depth: int = 16      # geometric radial panels toward r = 1
    angular_depth: int = 13     # dyadic angular grading toward each atom
    gauss_order: int = 8
    rtol: float = 5e-5
    atol: float = 1e-9


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


def _quad_once(m: AtomicMeasure, fprime, cfg: QuadConfig,
               radial_depth: int, angular_depth: int) -> float:
    rn, rw = _panel_nodes(_radial_breaks(radial_depth), cfg.gauss_order)
    tb = _angular_breaks(m.thetas, angular_depth)
    tb = np.concatenate([tb, [tb[0] + TWO_PI]])
    tn, tw = _panel_nodes(tb, cfg.gauss_order)
    Z = rn[:, None] * np.exp(1j * tn[None, :])
    P = np.zeros(Z.shape)
    for mass, zt in zip(m.masses, m.points_complex):
        P += mass / np.abs(Z - zt) ** 2
    P *= (1.0 - rn[:, None] ** 2)
    F = np.abs(np.asarray(fprime(Z), dtype=complex)) ** 2
    return float((rw * rn) @ (F * P) @ tw) / np.pi


def dirichlet_quadrature(m: AtomicMeasure, fprime,
                         cfg: QuadConfig | None = None) -> QuadResult:
    """(1/pi) * integral over the disk of |f'(z)|^2 P_m(z) dA(z), by
    composite Gauss-Legendre on a polar grid graded toward the boundary
    and toward each atom.  ``fprime`` must accept a complex ndarray.

    The error estimate comes from one grid-doubling step; if the change
    exceeds the configured tolerance the quadrature has not converged.
    """
    cfg = cfg or QuadConfig()
    coarse = _quad_once(m, fprime, cfg, cfg.radial_depth, cfg.angular_depth)
    fine = _quad_once(m, fprime, cfg, cfg.radial_depth + 1, cfg.angular_depth + 1)
    err = abs(fine - coarse)
    if err > max(cfg.atol, cfg.rtol * max(abs(fine), 1.0)):
        raise QuadratureNotConverged(
            f"grid doubling changed the value by {err:.3e}")
    return QuadResult(value=fine, error_estimate=err)


# ---------------------------------------------------------------------------
# Disk scan of the weighted potential

@dataclass
class ScanConfig:
    grid_depth: int = 20        # radial levels r = 1 - 2^-j
    cluster_depth: int = 20     # dyadic chordal scales around atoms/spectrum
    angular_base: int = 16      # angles at depth 1; doubles with depth
    angular_cap: int = 4096
    cluster_centers_cap: int = 256
    support_tol: float = 1e-6   # angular residual allowed in support matching
    coarse_fraction: float = 0.1  # sub-truncation used for the converged flag


@dataclass
class PotentialReport:
    """Evidence for sup/inf of the weighted potential over the disk.

    ``sup_estimate``/``inf_estimate`` refer to G = |1-u|^2 V_mu evaluated
    over the scan set together with the atom-limit values; the mate
    scaling |a|^2 V_mu is exactly G/4 and is reported alongside.  Spectrum
    values carry V_mu(eta) itself (G has no limit there).
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
    coarse_sup_estimate: float


def _grid_points(u, m, cfg: ScanConfig) -> np.ndarray:
    pts = []
    for j in range(1, cfg.grid_depth + 1):
        r = 1.0 - 2.0 ** (-j)
        M = int(min(cfg.angular_base * 2 ** j, cfg.angular_cap))
        pts.append(r * np.exp(1j * np.linspace(0.0, TWO_PI, M, endpoint=False)))
    # clusters: the weighted potential varies on the scale of the local
    # Clark mass near each atom, so refine geometrically there
    limits = m.masses * _angular_derivatives(u, m.thetas) ** 2
    centers = list(m.thetas[np.argsort(-limits)][: cfg.cluster_centers_cap])
    centers += [p.theta for p in spectrum(u)]
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    depths = 2.0 ** (-np.arange(1, cfg.cluster_depth + 1, dtype=float))
    for c in centers:
        for d in depths:
            for s in (0.5, 1.0):
                r = 1.0 - d * s
                pts.append(r * np.exp(1j * (c + d * offsets)))
    return np.concatenate(pts)


def _scan_G(u, m, z: np.ndarray, chunk: int = 8192) -> np.ndarray:
    out = np.empty(z.shape)
    for s in range(0, z.size, chunk):
        blk = z[s:s + chunk]
        V = potential_grid(m, blk)
        out[s:s + chunk] = np.abs(1.0 - evaluate(u, blk)) ** 2 * V
    return out


def _coarse_submeasure(m: AtomicMeasure, fraction: float) -> AtomicMeasure:
    keep = max(2, int(np.ceil(m.n_atoms * fraction)))
    order = np.argsort(-m.masses, kind="stable")[:keep]
    return AtomicMeasure(m.thetas[order], m.masses[order])


def sup_inf_scan(u: InnerFunction, m: AtomicMeasure,
                 cfg: ScanConfig | None = None) -> PotentialReport:
    """Scan G = |1-u|^2 V_m over radial-angular grids with geometric
    clusters near atoms and spectrum, together with the exact atom-limit
    values; record V_m at spectrum points separately.

    The measure must be supported on Clark atoms of u at parameter 0
    (u = 1 there); the angular residual |u(zeta)-1| / |u'(zeta)| is the
    matching criterion.
    """
    cfg = cfg or ScanConfig()
    if m.n_atoms == 0:
        raise SupportMismatch("empty measure")
    derivs = _angular_derivatives(u, m.thetas)
    resid = np.abs(evaluate(u, m.points_complex) - 1.0) / np.maximum(derivs, 1.0)
    if np.any(resid > cfg.support_tol):
        raise SupportMismatch(
            f"atom angular residual {resid.max():.3e} exceeds {cfg.support_tol:g}")

    atom_limits = derivs**2 * m.masses
    spec = spectrum(u)
    spec_values = np.array([potential(m, p.complex) for p in spec])

    z = _grid_points(u, m, cfg)
    G = _scan_G(u, m, z)
    values = np.concatenate([G, atom_limits])
    i_sup = int(np.argmax(values))
    i_inf = int(np.argmin(values))

    def witness(i):
        return complex(z[i]) if i < z.size else f"atom-limit:{i - z.size}"

    coarse_sup = float("nan")
    converged = True
    if m.n_atoms >= 20:
        mc = _coarse_submeasure(m, cfg.coarse_fraction)
        zc = _grid_points(u, mc, cfg)
        dc = _angular_derivatives(u, mc.thetas)
        vc = np.concatenate([_scan_G(u, mc, zc), dc**2 * mc.masses])
        coarse_sup = float(vc.max())
        converged = abs(values[i_sup] - coarse_sup) <= 0.01 * abs(values[i_sup])

    return PotentialReport(
        sup_estimate=float(values[i_sup]),
        inf_estimate=float(values[i_inf]),
        sup_witness=witness(i_sup),
        inf_witness=witness(i_inf),
        sup_mate_scaled=float(values[i_sup]) / 4.0,
        inf_mate_scaled=float(values[i_inf]) / 4.0,
        atom_limits=atom_limits,
        spectrum_values=spec_values,
        grid_description=(
            f"radial depth {cfg.grid_depth}, angular cap {cfg.angular_cap}, "
            f"clusters depth {cfg.cluster_depth} on "
            f"{min(m.n_atoms, cfg.cluster_centers_cap)} atoms + {len(spec)} "
            f"spectrum points"),
        converged=bool(converged),
        coarse_sup_estimate=coarse_sup)
