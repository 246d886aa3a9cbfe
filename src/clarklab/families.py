"""Built-in families with closed-form ground truth.

* monomials u(z) = z^k:   k equally spaced atoms of mass 1/k per level;
* the singular inner function with a single unit point mass at 1,
  u(z) = exp((z+1)/(z-1)):   atoms zeta_n = (2 n pi i + 1)/(2 n pi i - 1)
  with masses 2/(4 n^2 pi^2 + 1) and |u'(zeta_n)| = 2/|zeta_n - 1|^2;
* Blaschke products over the Cayley images of the half-plane lattice
  lambda_n = n^a + i n^{a-1}, which are one-component but fail the
  potential condition (their sparse atoms near the accumulation point
  carry masses comparable to their distance from it).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import special
from .circle import Arc, AtomicMeasure, TWO_PI
from .clark import DEFAULT_TOL, ClarkData, _assemble, _check_level_count, _solve_levels, clark_data
from .errors import ClarkLabError, NotEnoughAtoms
from .inner import FiniteBlaschke, InnerFunction, SingularAtomic, _check_zero_count, monomial
from .potentials import atom_potential_sup
from .perturb import squared_measure


@dataclass(frozen=True)
class Monomial:
    k: int


@dataclass(frozen=True)
class ExpSingular:
    """u(z) = exp((z+1)/(z-1)), the singular inner function of the unit
    point mass at theta = 0."""


@dataclass(frozen=True)
class CounterexampleBlaschke:
    """Blaschke product over phi(lambda_n), lambda_n = n^alpha + i n^(alpha-1),
    phi(w) = (w - i)/(w + i); ``symmetrized`` mirrors the lattice to
    negative real parts as well."""

    alpha: float
    K: int
    symmetrized: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.K < 1:
            raise ValueError("K must be >= 1")


FamilySpec = Monomial | ExpSingular | CounterexampleBlaschke


def parse_family(text: str) -> FamilySpec:
    """Parse CLI family descriptors: exactly 'exp', 'monomial:K' or
    'counterexample:ALPHA:K[:sym]'; anything else raises ValueError."""
    name, *args = text.split(":")
    if name == "exp" and not args:
        return ExpSingular()
    if name == "monomial" and len(args) == 1:
        return Monomial(k=int(args[0]))
    if name == "counterexample" and len(args) >= 2 and args[2:] in ([], ["sym"]):
        return CounterexampleBlaschke(alpha=float(args[0]), K=int(args[1]),
                                      symmetrized=len(args) == 3)
    raise ValueError(f"unknown family {text!r}; expected exp, monomial:K "
                     "or counterexample:ALPHA:K[:sym]")


def cayley(w):
    """Upper half-plane to disk, w -> (w - i)/(w + i)."""
    w = np.asarray(w, dtype=complex)
    return (w - 1j) / (w + 1j)


def inner_function(fam: FamilySpec) -> InnerFunction:
    if isinstance(fam, Monomial):
        return monomial(fam.k)
    if isinstance(fam, ExpSingular):
        return SingularAtomic(atoms=((0.0, 1.0),))
    _check_zero_count(fam.K * (2 if fam.symmetrized else 1),
                     f"; `example counterexample:{fam.alpha}:{fam.K}` locates the "
                     "sparse atoms without building the zeros")
    n = np.arange(1, fam.K + 1, dtype=float)
    lam = n**fam.alpha + 1j * n ** (fam.alpha - 1.0)
    if fam.symmetrized:
        lam = np.concatenate([lam, -np.conj(lam)])
    zeros = tuple(cayley(lam))
    # for alpha = 1 the zeros are lattice blocks, whose phase has a closed form
    blocks = ((fam.K, 1), (fam.K, -1))[:1 + fam.symmetrized] if fam.alpha == 1.0 else ()
    # the lattice escapes to infinity, so the zeros accumulate at phi(inf) = 1
    return FiniteBlaschke(zeros=zeros, accumulation=(0.0,), lattice=blocks)


# ---------------------------------------------------------------------------
# Closed forms for the exponential example

def exp_lattice(indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thetas, masses, derivatives) at the given integer labels."""
    n = np.asarray(indices, dtype=int)
    zeta = (2 * n * np.pi * 1j + 1) / (2 * n * np.pi * 1j - 1)
    theta = np.mod(np.angle(zeta), TWO_PI)
    deriv = (4.0 * n.astype(float) ** 2 * np.pi**2 + 1.0) / 2.0
    return theta, 1.0 / deriv, deriv


def exp_clark_data(n_max: int) -> ClarkData:
    """Closed-form Clark data of the exponential example over the integer
    window |n| <= n_max."""
    n = np.arange(-n_max, n_max + 1)
    theta, _, deriv = exp_lattice(n)
    return _assemble(0.0, theta, deriv, np.zeros(n.size, dtype=bool), (0.0,), n)


def exp_total_mass() -> float:
    """Full lattice mass sum: coth(1/2)."""
    return float(1.0 / np.tanh(0.5))


def exp_tail_mass_bound(N: int) -> float:
    """Two-sided integral bound for the mass outside |n| <= N:
    sum_{|n| > N} 2/(4 pi^2 n^2 + 1) <= 2 * (1/pi) arctan(1/(2 pi N)), as
    arctan2(1, 2 pi N) so that N = 0 gives 1."""
    return float(2.0 / np.pi * np.arctan2(1.0, 2.0 * np.pi * N))


def exp_tail_potential_bound(N: int) -> float:
    """Two-sided integral bound for sum_{|n| > N} 1/(4 pi^2 n^2 + 1), half
    exp_tail_mass_bound: 1/2 at N = 0."""
    return float(1.0 / np.pi * np.arctan2(1.0, 2.0 * np.pi * N))


# ---------------------------------------------------------------------------
# Sparse side of the counterexample, in the Cayley coordinate
#
# On the arc (0, pi/2] the boundary point e^{i theta} = (x - i)/(x + i) has
# x = -cot(theta/2) in (-inf, -1].  A zero phi(lambda), lambda = a + i b,
# adds 2 atan2(b, a - x) to the boundary phase gained from x = -inf, where
# the finite product is continuous with value
# arg u(1) = sum arg(a + i(1 - b)) - arg(a + i(1 + b)).  The angular
# derivative is Phi_K'(x) dx/dtheta, so an atom at x has mass
# 2 / (Phi_K'(x) (1 + x^2)).  For alpha = 1 the sums over n are the
# log-gamma closed forms of special.py at any K: Phi_K = 2 A_K(x),
# Phi_K' = 2 S_K(x) and arg u(1) = -B_K, with their stated bounds.

#: For alpha != 1 the zero labels n <= EXACT_HEAD are summed term by term,
#: and larger K is refused (as for the symmetrized family at any alpha).
EXACT_HEAD = 1024

#: Largest (levels x summed terms) array built while locating atoms.
LEVEL_BUDGET = 1 << 24

#: Largest K whose zero labels float64 still represents exactly.
MAX_K = 2**53

#: Bracket width in u = log(-x) at which a sparse atom is located: four
#: ulps of u = 1, i.e. relative float64 precision in x.  From u = 4 on one
#: ulp of u is that wide, and the adjacent-floats stop ends the bracket.
SPARSE_U_TOL = 4 * np.finfo(float).eps

#: Float64 rounding allowance per unit of summed magnitude: pairwise
#: summation of <= 2 EXACT_HEAD terms costs (log2(2048) + 1) eps, and each
#: term's own evaluation a few eps more.
ROUNDING = 16 * np.finfo(float).eps


def _check_sparse_route(fam: CounterexampleBlaschke) -> None:
    if fam.K > MAX_K:
        raise ClarkLabError(f"K = {fam.K} exceeds float64 label resolution "
                            f"({MAX_K})")
    if fam.K <= EXACT_HEAD:
        return
    if fam.symmetrized:
        raise ClarkLabError(
            f"K = {fam.K} exceeds the exact head ({EXACT_HEAD}) of the "
            "symmetrized family, whose mirrored zeros interleave the "
            "sparse-side atoms")
    if fam.alpha != 1.0:
        raise ClarkLabError(
            f"K = {fam.K} exceeds the exact head ({EXACT_HEAD}); the "
            "phase has a closed form only for alpha = 1")


def _check_budget(fam: CounterexampleBlaschke, n_points: int) -> None:
    n_terms = min(fam.K, EXACT_HEAD) * (2 if fam.symmetrized else 1)
    if n_points * n_terms > LEVEL_BUDGET:
        raise ClarkLabError(f"{n_points} points x {n_terms} zeros exceed the "
                            f"memory budget of {LEVEL_BUDGET} terms")


def _head_zeros(fam: CounterexampleBlaschke) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the lattice points summed exactly."""
    n = np.arange(1, min(fam.K, EXACT_HEAD) + 1, dtype=float)
    a, b = n**fam.alpha, n ** (fam.alpha - 1.0)
    if fam.symmetrized:
        a, b = np.concatenate([a, -a]), np.concatenate([b, b])
    return a, b


def counterexample_base_phase(fam: CounterexampleBlaschke) -> tuple[float, float]:
    """arg u(1) of a counterexample member (mod 2 pi) and an error bound."""
    _check_sparse_route(fam)
    if fam.alpha == 1.0:
        # arg(n) - arg(n + 2i) = -arg(n + 2i); the mirror adds
        # arg(-n) - arg(-n + 2i) = arg(n + 2i), so u(1) = 1
        if fam.symmetrized:
            return 0.0, 0.0
        value, bound = special.base_sum(fam.K)
        return -float(value), float(bound)
    a, b = _head_zeros(fam)
    terms = np.angle(a + 1j * (1.0 - b)) - np.angle(a + 1j * (1.0 + b))
    return float(terms.sum()), ROUNDING * float(np.abs(terms).sum())


def counterexample_phase(fam: CounterexampleBlaschke, x):
    """Phase gained from x = -inf, Phi_K(x) = sum_n 2 atan2(b_n, a_n - x),
    its x-derivative, and an error bound on the phase, at x <= -1."""
    _check_sparse_route(fam)
    x = np.asarray(x, dtype=float)
    if fam.alpha == 1.0:
        # 2 atan2(1, n - x) = 2 arg(n - x + i), whose sums are 2 A_K(x) and
        # 2 S_K(x); the mirror's 2 arg(-n - x + i) = 2 pi - 2 arg(n + x + i)
        A, S = special.lattice_sums(fam.K, x, True)
        phi, dphi, bound = 2.0 * A, 2.0 * S, 2.0 * special.sum_bound(fam.K, x)
        if fam.symmetrized:
            A, S = special.lattice_sums(fam.K, -x, True)
            phi = phi + (TWO_PI * fam.K - 2.0 * A)
            dphi = dphi + 2.0 * S
            # and the rounding of 2 pi K and of the two additions, at most
            # 5 pi K eps in all
            bound = (bound + 2.0 * special.sum_bound(fam.K, -x)
                     + 5.0 * np.pi * special.EPS * fam.K)
        return phi, dphi, bound
    _check_budget(fam, x.size)
    a, b = _head_zeros(fam)
    d = a - x[..., None]
    phi = (2.0 * np.arctan2(b, d)).sum(axis=-1)
    dphi = (2.0 * b / (d * d + b * b)).sum(axis=-1)
    return phi, dphi, ROUNDING * phi


def counterexample_sparse_atoms(fam: CounterexampleBlaschke
                                ) -> tuple[AtomicMeasure, float]:
    """Every Clark atom (alpha = 0) of the member in the whole arc
    (0, pi/2], without building its zeros, and a bound on the absolute
    error of the lifted phase at those atoms.

    The levels 2 pi k in (arg u(1), arg u(1) + Phi_K(-1)] are counted
    first, from the finite product's phase at theta = 0+; each is then
    solved in u = log(-x), where Phi_K decreases, by the safeguarded
    Newton of ``clark._solve_levels`` from the bracket [0, u_hi], to
    relative float64 precision in x.  A phase error e moves an atom by
    at most about e times its mass.
    """
    base, base_err = counterexample_base_phase(fam)
    top, _, top_err = counterexample_phase(fam, np.array([-1.0]))
    # a level within the error bound of arg u(1) is the atom at theta = 0
    # itself (the symmetrized product has u(1) = 1), outside the open arc
    k0 = int(np.floor((base + base_err) / TWO_PI)) + 1
    k1 = int(np.floor((base + float(top[0])) / TWO_PI))
    n_levels = max(k1 - k0 + 1, 0)
    if n_levels == 0:
        return AtomicMeasure.empty(), base_err + float(top_err[0])
    targets = TWO_PI * np.arange(k0, k1 + 1) - base
    # Phi_K(x) <= 4 (zero count) / |x| once |x| >= 2 K^alpha
    u_hi = max(np.log(2.0 * fam.K**fam.alpha),
               np.log(8.0 * fam.K / targets[0])) + 1.0

    def phase(u):  # -Phi_K(-e^u) increases in u
        x = -np.exp(u)
        phi, dphi, _ = counterexample_phase(fam, x)
        return -phi, -dphi * x

    u = _solve_levels(phase, 0.0, u_hi, -targets, SPARSE_U_TOL)
    x = -np.exp(u)
    _, dphi, err = counterexample_phase(fam, x)
    thetas = 2.0 * np.arctan(np.exp(-u))
    masses = 2.0 / (dphi * (1.0 + x * x))
    return AtomicMeasure(thetas, masses), base_err + float(err.max())


# ---------------------------------------------------------------------------
# Divergence ladder near the accumulation point

@dataclass
class DivergenceRecord:
    K: int
    n_atoms: int
    value: float            # nan when fewer than 2 atoms are available
    witness: int
    #: lower end of the arc [scan_delta, pi/2] holding the record's atoms:
    #: the smallest atom angle, pi/2 when there is none; no atom lies in
    #: (0, scan_delta)
    scan_delta: float
    #: bound on the absolute phase error behind the atoms (0 for the
    #: closed-form exponential lattice)
    tail_bound: float = 0.0


def divergence_ladder(fam: FamilySpec, K_list) -> list[DivergenceRecord]:
    """Per-truncation values of the atom-potential sup on squared masses,
    over the atoms in (0, pi/2] next to the accumulation point.

    For the Blaschke family the truncation is the zero count K, and every
    atom of the whole arc is located from the half-plane phase without
    building the zeros; for the exponential example the same pipeline
    uses its closed-form atoms with labels -K..-1 (the ones in (0, pi/2)),
    the bounded contrast case.
    """
    out = []
    for K in K_list:
        if isinstance(fam, ExpSingular):
            theta, masses, _ = exp_lattice(-np.arange(1, K + 1))
            measure, bound = AtomicMeasure(theta, masses), 0.0
        elif isinstance(fam, CounterexampleBlaschke):
            measure, bound = counterexample_sparse_atoms(CounterexampleBlaschke(
                alpha=fam.alpha, K=K, symmetrized=fam.symmetrized))
        else:
            raise ValueError("divergence ladder applies to the exponential "
                             "and counterexample families")
        delta = float(measure.thetas[0]) if measure.n_atoms else np.pi / 2
        try:
            res = atom_potential_sup(squared_measure(measure))
            value, wit = res.value, res.witness
        except NotEnoughAtoms:
            value, wit = float("nan"), -1
        out.append(DivergenceRecord(K=int(K), n_atoms=measure.n_atoms,
                                    value=value, witness=wit,
                                    scan_delta=delta, tail_bound=bound))
    return out


#: Angle kept clear on each side of theta = 0 by the scan arc of the
#: families that accumulate there.
SCAN_MARGIN = 1e-3


def clark_scan_arc(fam: FamilySpec) -> Arc:
    """A scan arc covering the atoms of a family member while honoring its
    spectrum: the full circle for monomials, (SCAN_MARGIN, 2 pi -
    SCAN_MARGIN) for families accumulating at theta = 0."""
    if isinstance(fam, Monomial):
        return Arc.full_circle()
    return Arc(SCAN_MARGIN, TWO_PI - SCAN_MARGIN, True, True)


def clark_data_for(fam: FamilySpec, alpha: float = 0.0, truncation: int = 100,
                   tol: float = DEFAULT_TOL) -> ClarkData:
    """Clark data for a family member.

    For the exponential example ``truncation`` selects |n| <= truncation
    via a scan arc just beyond those atoms (numeric atoms; closed forms
    are available separately for cross-checks).  Its 2 truncation + 1
    levels are checked against the memory budget before the arc is
    built: the arc's ends, 1/(pi truncation) from theta = 0, reach the
    spectrum point's EPS_SPECTRUM margin only at sizes beyond it.
    """
    u = inner_function(fam)
    if isinstance(fam, ExpSingular):
        _check_level_count(2 * truncation + 1)
        theta_out, _, _ = exp_lattice([-(truncation + 1), truncation + 1])
        lo = 0.5 * (theta_out[0] + exp_lattice([-truncation])[0][0])
        hi = 0.5 * (theta_out[1] + exp_lattice([truncation])[0][0])
        data = clark_data(u, alpha, Arc(lo, hi, True, True), tol)
        n = np.arange(-truncation, truncation + 1)
        if alpha == 0.0 and data.n_atoms == n.size:
            data.lattice_indices = n[np.argsort(exp_lattice(n)[0], kind="stable")]
        return data
    return clark_data(u, alpha, clark_scan_arc(fam), tol)
