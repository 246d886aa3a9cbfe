"""Independent checks of clarklab outputs.

Nothing here imports clarklab: every reference is a closed form or a
direct numpy/scipy computation made from the benchmark's own inputs, so a
fault in the program cannot also hide in its check.  A check raises
``CheckFailed`` with the first violated property.

Conventions shared with the program's report formats: atoms are angles in
[0, 2 pi) sorted ascending, with masses aligned; the Cauchy section is
(C f)(zeta_n) = sum_{m != n} f_m sigma_m / (1 - conj(zeta_m) zeta_n).
"""
from __future__ import annotations

import functools
import math

import numpy as np

TWO_PI = 2.0 * np.pi

#: Largest dense block (elements) a check builds at once, so that checks
#: stay far below the program's own memory peak.
BLOCK = 1 << 18

#: Angle agreement for located atoms.  The bisection resolves atoms to
#: about 1e-13 rad; float64 angles near 2 pi are spaced 8.9e-16 apart.
ATOM_TOL = 1e-11

#: Relative agreement of quantities recomputed from the same atoms.
REL_TOL = 1e-9

#: Relative agreement of gap-driven quantities recomputed from closed-form
#: exp atoms while the program used its numerically located ones: near
#: theta = 2 pi an atom is off by up to ~2e-14 rad against gaps of ~1e-7
#: rad, which moved sums over close pairs by up to 2.1e-9 (N = 3000).
NUMERIC_ATOM_REL_TOL = 1e-7

#: Squared-norm tolerance of the power iteration (PowerIterationConfig.tol).
NORM_TOL = 1e-10

#: Rows, arcs and Hilbert-route rows a check samples besides the witness.
ROW_SAMPLES, ARC_SAMPLES, HILBERT_ROWS = 64, 12, 16

#: Plans are drawn at this share of the admissibility caps, so that the
#: program's numerically located base (whose caps differ from the closed
#: form's by ~1e-13) accepts them.
PLAN_SHARE = 0.9


class CheckFailed(Exception):
    """An output violates a property the method must have."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300), initial=0.0))


def _rows(n_cols: int) -> int:
    """Rows per block of a (rows x n_cols) temporary."""
    return max(1, BLOCK // max(n_cols, 1))


# ---------------------------------------------------------------------------
# Atom sets

class Atoms:
    """Angles and masses of an atomic measure; ``x`` holds the Cayley
    coordinates zeta = (x - i)/(x + i) when the atoms come from the exp
    lattice, so that close pairs are differenced exactly in x."""

    def __init__(self, thetas, masses, x=None):
        self.thetas = np.asarray(thetas, dtype=float)
        self.masses = np.asarray(masses, dtype=float)
        self.x = None if x is None else np.asarray(x, dtype=float)

    @property
    def n(self) -> int:
        return self.thetas.size

    def one_minus(self, rows, cols) -> np.ndarray:
        """1 - conj(zeta_m) zeta_n for n in rows, m in cols, without the
        cancellation of forming the product first."""
        if self.x is not None:
            xn = self.x[rows][:, None]
            xm = self.x[cols][None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                return 2j * (xm - xn) / ((xm - 1j) * (xn + 1j))
        d = self.thetas[cols][None, :] - self.thetas[rows][:, None]
        return 2j * np.sin(0.5 * d) * np.exp(-0.5j * d)

    def chord_sq(self, rows, cols) -> np.ndarray:
        if self.x is not None:
            xn = self.x[rows][:, None]
            xm = self.x[cols][None, :]
            return 4.0 * (xn - xm) ** 2 / ((1.0 + xn**2) * (1.0 + xm**2))
        d = self.thetas[cols][None, :] - self.thetas[rows][:, None]
        return 4.0 * np.sin(0.5 * d) ** 2


@functools.lru_cache(maxsize=None)
def exp_atoms(N: int) -> Atoms:
    """Closed-form Clark atoms of exp((z+1)/(z-1)) for |n| <= N: zeta_n =
    (2 n pi i + 1)/(2 n pi i - 1) = (x - i)/(x + i) with x = 2 pi n, mass
    2/(4 n^2 pi^2 + 1).  Ascending n is ascending angle."""
    n = np.arange(-N, N + 1, dtype=float)
    x = TWO_PI * n
    thetas = TWO_PI - 2.0 * np.arctan2(1.0, x)
    return Atoms(thetas, 2.0 / (1.0 + x * x), x)


def monomial_atoms(k: int, alpha: float) -> Atoms:
    """Clark atoms of z^k at parameter alpha: (2 pi j + 2 pi alpha)/k."""
    thetas = np.sort(np.mod(TWO_PI * (np.arange(k) + alpha) / k, TWO_PI))
    return Atoms(thetas, np.full(k, 1.0 / k))


def report_atoms(doc: dict) -> Atoms:
    atoms = doc["atoms"]
    return Atoms([a["theta"] for a in atoms], [a["mass"] for a in atoms])


def check_atoms_match(got: Atoms, want: Atoms, what: str) -> None:
    require(got.n == want.n, f"{what}: {got.n} atoms, expected {want.n}")
    require(bool(np.all(np.diff(got.thetas) > 0)), f"{what}: atoms not sorted")
    err = float(np.max(np.abs(got.thetas - want.thetas), initial=0.0))
    require(err <= ATOM_TOL, f"{what}: atom off by {err:.3e} rad")


# ---------------------------------------------------------------------------
# Finite Blaschke products of the counterexample family

def counterexample_zeros(alpha: float, K: int, symmetrized: bool):
    """Zeros a_n = (lam - i)/(lam + i), lam_n = n^alpha + i n^(alpha-1), and
    1 - |a_n|^2 = 4 Im lam / |lam + i|^2 computed without cancellation."""
    n = np.arange(1, K + 1, dtype=float)
    lam = n**alpha + 1j * n ** (alpha - 1.0)
    if symmetrized:
        lam = np.concatenate([lam, -np.conj(lam)])
    a = (lam - 1j) / (lam + 1j)
    return a, 4.0 * lam.imag / np.abs(lam + 1j) ** 2


def blaschke_values(a: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """prod_k (conj(a_k)/|a_k|)(a_k - z)/(1 - conj(a_k) z) at each zeta."""
    unit = np.conj(a) / np.abs(a)
    out = np.empty(zeta.shape, dtype=complex)
    step = _rows(a.size)
    for s in range(0, zeta.size, step):
        z = zeta[s:s + step, None]
        out[s:s + step] = np.prod(unit * (a - z) / (1.0 - np.conj(a) * z), axis=1)
    return out


def blaschke_derivative(a: np.ndarray, weight: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """|u'(zeta)| = sum_k (1 - |a_k|^2)/|zeta - a_k|^2."""
    out = np.empty(zeta.shape)
    step = _rows(a.size)
    for s in range(0, zeta.size, step):
        z = zeta[s:s + step, None]
        out[s:s + step] = (weight / np.abs(z - a) ** 2).sum(axis=1)
    return out


def blaschke_level_count(a: np.ndarray, lo: float, hi: float, level: float) -> int:
    """Solutions of u = e^{i level} on the arc [lo, hi], from the winding.

    Seen from a point a of the disk, the direction to e^{it} turns by
    rot(a) over the arc, and the factor's boundary phase grows by
    2 rot(a) - (hi - lo) (twice the harmonic measure of the arc times pi).
    """
    e_lo, e_hi = np.exp(1j * lo), np.exp(1j * hi)
    rot = np.mod(np.angle((e_hi - a) / (e_lo - a)), TWO_PI)
    gain = float(np.sum(2.0 * rot - (hi - lo)))
    start = float(np.angle(blaschke_values(a, np.array([e_lo]))[0])) - level
    return math.floor((start + gain) / TWO_PI) - math.ceil(start / TWO_PI) + 1


def check_blaschke_atoms(doc: dict, a: np.ndarray, weight: np.ndarray,
                         clark_alpha: float, scan: tuple[float, float]) -> None:
    """Atoms solve u = e^{2 pi i alpha}, masses are 1/|u'|, and the count
    equals the winding of u over the scan arc."""
    got = report_atoms(doc)
    level = TWO_PI * clark_alpha
    want = blaschke_level_count(a, scan[0], scan[1], level)
    require(got.n == want, f"{got.n} atoms, winding gives {want}")
    zeta = np.exp(1j * got.thetas)
    deriv = blaschke_derivative(a, weight, zeta)
    resid = np.abs(blaschke_values(a, zeta) - np.exp(1j * level)) / deriv
    require(float(resid.max(initial=0.0)) <= ATOM_TOL,
            f"u(zeta) misses the level by {resid.max():.3e} rad")
    dual = float(np.max(np.abs(got.masses * deriv - 1.0), initial=0.0))
    require(dual <= REL_TOL, f"mass * |u'| off 1 by {dual:.3e}")


def check_monomial_atoms(doc: dict, k: int, alpha: float) -> None:
    want = monomial_atoms(k, alpha)
    got = report_atoms(doc)
    check_atoms_match(got, want, f"monomial:{k}")
    require(rel_err(got.masses, want.masses) <= REL_TOL, "masses differ from 1/k")


def check_exp_atoms(doc: dict, N: int) -> None:
    """Closed-form atoms, and masses equal to 1/|u'| = |zeta - 1|^2/2 at the
    reported atom (the mass follows the located atom, whose float64
    resolution near 2 pi limits a direct comparison with 2/(4 n^2 pi^2 + 1))."""
    got = report_atoms(doc)
    check_atoms_match(got, exp_atoms(N), f"exp N={N}")
    deriv = 2.0 / (2.0 * np.sin(0.5 * got.thetas)) ** 2
    dual = float(np.max(np.abs(got.masses * deriv - 1.0), initial=0.0))
    require(dual <= REL_TOL, f"mass * |u'| off 1 by {dual:.3e}")


# ---------------------------------------------------------------------------
# Neighbor constants and the Cauchy transform of 1

def neighbor_constants(at: Atoms, accumulation_at_zero: bool) -> tuple[float, float]:
    """A = min mass/max gap, B = max mass/min gap over chordal neighbor
    gaps, dropping the wrap gap across theta = 0 when 0 is an
    accumulation point."""
    th = at.thetas
    fwd = np.abs(2.0 * np.sin(0.5 * (np.roll(th, -1) - th)))
    ok = np.ones(th.size, dtype=bool)
    if accumulation_at_zero:
        ok[-1] = False
    bwd, ok_b = np.roll(fwd, 1), np.roll(ok, 1)
    big = np.maximum(np.where(ok, fwd, -np.inf), np.where(ok_b, bwd, -np.inf))
    small = np.minimum(np.where(ok, fwd, np.inf), np.where(ok_b, bwd, np.inf))
    keep = ok | ok_b
    return (float(np.min(at.masses[keep] / big[keep])),
            float(np.max(at.masses[keep] / small[keep])))


def cauchy_one(at: Atoms, rows: np.ndarray) -> np.ndarray:
    """(C 1)(zeta_n) for n in rows."""
    out = np.empty(rows.size, dtype=complex)
    cols = np.arange(at.n)
    step = _rows(at.n)
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        D = at.one_minus(r, cols)
        D[np.arange(r.size), r] = np.inf
        out[s:s + step] = (at.masses[None, :] / D).sum(axis=1)
    return out


def check_bessonov(doc: dict, at: Atoms | None = None,
                   accumulation_at_zero: bool = False,
                   rel_tol: float = REL_TOL) -> None:
    """Verdict not 'fail'; with the atoms known, condition (iv)'s
    constants and condition (v)'s sup at its witness are recomputed."""
    require(doc["verdict"] != "fail", f"verdict {doc['verdict']}")
    if at is None:
        return
    A, B = neighbor_constants(at, accumulation_at_zero)
    require(rel_err([doc["A"], doc["B"]], [A, B]) <= rel_tol,
            f"(A, B) = ({doc['A']}, {doc['B']}), recomputed ({A}, {B})")
    v = next(r for r in doc["records"] if r["name"] == "v-cauchy-of-one")
    w = int(v["details"]["witness"])
    c1 = abs(cauchy_one(at, np.array([w]))[0])
    require(rel_err(v["details"]["sup"], c1) <= rel_tol,
            f"(v) sup {v['details']['sup']}, recomputed {c1} at atom {w}")


# ---------------------------------------------------------------------------
# Atom-potential sups and the perturbation interaction sum

def potential_rows(at: Atoms, rows: np.ndarray, power: float = 2.0,
                   weights=None) -> np.ndarray:
    """sum_{m != n} w_m / |zeta_n - zeta_m|^power for n in rows (w defaults
    to the masses)."""
    w = at.masses if weights is None else np.asarray(weights, dtype=float)
    out = np.empty(rows.size)
    cols = np.arange(at.n)
    step = _rows(at.n)
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        d2 = at.chord_sq(r, cols)
        d2[np.arange(r.size), r] = np.inf
        out[s:s + step] = (w[None, :] / d2 ** (0.5 * power)).sum(axis=1)
    return out


def check_row_sup(value: float, witness: int, at: Atoms, rng, what: str,
                  power: float = 2.0, weights=None) -> None:
    """The sup equals its witness row recomputed, and no sampled row
    exceeds it."""
    require(0 <= witness < at.n, f"{what}: witness {witness} out of range")
    row = potential_rows(at, np.array([witness]), power, weights)[0]
    require(rel_err(value, row) <= REL_TOL,
            f"{what}: sup {value}, witness row recomputed {row}")
    rows = rng.choice(at.n, size=min(ROW_SAMPLES, at.n), replace=False)
    top = float(potential_rows(at, rows, power, weights).max())
    require(top <= value * (1.0 + REL_TOL), f"{what}: a row reaches {top} > sup {value}")


def squared(at: Atoms) -> Atoms:
    return Atoms(at.thetas, at.masses**2, at.x)


# ---------------------------------------------------------------------------
# Sections of the Cauchy transform

def section_matrix(at: Atoms) -> np.ndarray:
    """A[n, m] = sqrt(sigma_n sigma_m)/(1 - conj(zeta_m) zeta_n), zero
    diagonal (dense; only used for references after the timed rounds)."""
    idx = np.arange(at.n)
    D = at.one_minus(idx, idx)
    np.fill_diagonal(D, 1.0)
    rs = np.sqrt(at.masses)
    A = rs[:, None] * rs[None, :] / D
    np.fill_diagonal(A, 0.0)
    return A


_norms: dict = {}


def section_norm(at: Atoms) -> float:
    """Largest singular value of the dense section (memoized per atom set,
    since every round checks the same measures)."""
    key = (at.thetas.tobytes(), at.masses.tobytes())
    if key not in _norms:
        _norms[key] = float(np.linalg.svd(section_matrix(at), compute_uv=False)[0])
    return _norms[key]


@functools.lru_cache(maxsize=None)
def lattice_section_norm(size: int) -> float:
    """Norm of any section of the exp lattice on `size` consecutive labels:
    the section is a diagonal-unitary conjugate of the discrete Hilbert
    matrix 1/(2 pi (m - n)), m != n."""
    k = np.arange(size, dtype=float)
    diff = k[:, None] - k[None, :]
    np.fill_diagonal(diff, np.inf)
    return float(np.linalg.svd(1.0 / (TWO_PI * diff), compute_uv=False)[0])


def nested(at: Atoms, size: int) -> Atoms:
    """The `size` largest-mass atoms, ties broken by angle (the program's
    nesting rule)."""
    idx = np.sort(np.argsort(-at.masses, kind="stable")[:size])
    return Atoms(at.thetas[idx], at.masses[idx], None if at.x is None else at.x[idx])


def arc_ratio(at: Atoms, start: int, count: int) -> float:
    """||C chi_Q||_{L^2(sigma)} / sigma(Q)^{1/2} for the arc holding atoms
    start, ..., start + count - 1 (cyclically)."""
    cols = np.arange(start, start + count) % at.n
    g = np.empty(at.n, dtype=complex)
    step = _rows(count)
    for s in range(0, at.n, step):
        r = np.arange(s, min(s + step, at.n))
        D = at.one_minus(r, cols)
        D[r[:, None] == cols[None, :]] = np.inf
        g[s:s + step] = (at.masses[cols][None, :] / D).sum(axis=1)
    return math.sqrt(float(np.sum(at.masses * np.abs(g) ** 2))
                     / float(at.masses[cols].sum()))


def check_tolsa(doc: dict, at: Atoms, norm: float, rng) -> None:
    """Ratio below the dense section norm, equal to its witness arc
    recomputed, over the full arc family, and above sampled arcs."""
    N = at.n
    ratio = doc["max_ratio"]
    require(ratio <= norm * (1.0 + REL_TOL), f"max ratio {ratio} > section norm {norm}")
    require(doc["n_arcs"] == N + (N - 1) ** 2,
            f"{doc['n_arcs']} arcs scanned, expected {N + (N - 1) ** 2}")
    wit = arc_ratio(at, doc["witness_start"], doc["witness_count"])
    require(rel_err(ratio, wit) <= REL_TOL, f"max ratio {ratio}, witness arc gives {wit}")
    for _ in range(ARC_SAMPLES):
        s, c = int(rng.integers(N)), int(rng.integers(1, N))
        r = arc_ratio(at, s, c)
        require(r <= ratio * (1.0 + REL_TOL), f"arc ({s}, {c}) reaches {r} > {ratio}")


def check_norm(doc: dict, refs: list[float]) -> None:
    """Each section value is a lower bound of the dense singular value,
    and a value flagged converged lies within tol (squared) of it."""
    for n, v, conv, ref in zip(doc["sizes"], doc["values"], doc["converged"], refs):
        require(v <= ref * (1.0 + 1e-12), f"N={n}: {v} exceeds the singular value {ref}")
        if conv:
            require(abs(v * v - ref * ref) <= NORM_TOL,
                    f"N={n}: flagged converged, |sigma^2 - svd^2| = "
                    f"{abs(v * v - ref * ref):.2e} > {NORM_TOL:g}")


@functools.lru_cache(maxsize=None)
def circulant_norm(k: int) -> float:
    """Section norm of k equally spaced atoms of mass 1/k (a circulant)."""
    c = np.zeros(k, dtype=complex)
    j = np.arange(1, k)
    c[1:] = (1.0 / k) / (1.0 - np.exp(TWO_PI * 1j * j / k))
    return float(np.max(np.abs(np.fft.fft(c))))


# ---------------------------------------------------------------------------
# The exponential example's potential conditions

def exp_total_mass() -> float:
    return 1.0 / math.tanh(0.5)


def exp_G(z: complex, mu: Atoms) -> float:
    """|1 - u(z)|^2 V_mu(z) for u = exp((z+1)/(z-1))."""
    u = np.exp((z + 1.0) / (z - 1.0))
    zeta = np.exp(1j * mu.thetas)
    return float(abs(1.0 - u) ** 2 * np.sum(mu.masses / np.abs(z - zeta) ** 2))


def _scan_value(witness, atom_limits, mu: Atoms):
    if isinstance(witness, str):
        return atom_limits[int(witness.split(":")[1])]
    return exp_G(complex(witness["re"], witness["im"]), mu)


def check_exp_potential(out: dict, N: int, rng) -> None:
    """`clarklab potential --family exp`: squared-measure atom limits are
    1, the scan's sup and inf are G at their witnesses, V_mu(1) is the
    closed-form sum, and the atom-potential sup is its witness row."""
    mu = squared(exp_atoms(N))
    scan = out["sup_inf"]
    limits = np.asarray(scan["atom_limits"])
    require(limits.size == mu.n and float(np.max(np.abs(limits - 1.0))) <= REL_TOL,
            "squared-measure atom limits differ from 1")
    for key in ("sup", "inf"):
        got = scan[f"{key}_estimate"]
        want = _scan_value(scan[f"{key}_witness"], limits, mu)
        require(rel_err(got, want) <= REL_TOL, f"{key} {got}, G at witness {want}")
        require(rel_err(scan[f"{key}_mate_scaled"], got / 4.0) <= REL_TOL,
                f"{key} mate scaling is not G/4")
    v1 = float(np.sum(1.0 / (1.0 + mu.x**2)))
    require(rel_err(scan["spectrum_values"][0], v1) <= REL_TOL,
            f"V_mu(1) = {scan['spectrum_values'][0]}, closed form {v1}")
    aps = out["atom_potential_sup"]
    check_row_sup(aps["value"], aps["witness"], mu, rng, "atom-potential sup")
    ratios = out["mass_ratios"]
    require(rel_err([ratios["min_product"], ratios["max_product"]], [1.0, 1.0]) <= REL_TOL,
            "mass window products differ from 1")


def check_example_exp(out: dict, N: int) -> None:
    """`clarklab example exp`: the mass deficit lies within
    (2/pi) arctan(1/(2 pi N)), V_mu(1) and the atom-potential sup match
    the closed forms."""
    at = exp_atoms(N)
    deficit = exp_total_mass() - float(at.masses.sum())
    bound = 2.0 / np.pi * math.atan(1.0 / (TWO_PI * N))
    require(0.0 <= out["total_mass_deficit"] <= bound,
            f"deficit {out['total_mass_deficit']} outside [0, {bound}]")
    require(abs(out["total_mass_deficit"] - deficit) <= 1e-12,
            f"deficit {out['total_mass_deficit']}, closed form {deficit}")
    require(out["atom_count"] is True and out["atom_agreement_rad"] <= ATOM_TOL,
            f"atom agreement {out.get('atom_agreement_rad')}")
    v1 = float(np.sum(1.0 / (1.0 + at.x**2)))
    require(rel_err(out["potential_at_spectrum"], v1) <= REL_TOL,
            f"V_mu(1) = {out['potential_at_spectrum']}, closed form {v1}")
    sup = float(potential_rows(squared(at), np.arange(at.n)).max())
    require(rel_err(out["atom_potential_sup"], sup) <= NUMERIC_ATOM_REL_TOL,
            f"atom-potential sup {out['atom_potential_sup']}, closed form {sup}")


def check_hilbert(routed, applied, at: Atoms, f, rng) -> None:
    """The discrete-Hilbert route and the direct apply agree with each
    other and with (C f)(zeta_n) summed at sampled rows."""
    routed, applied = np.asarray(routed), np.asarray(applied)
    scale = float(np.max(np.abs(routed)))
    rows = np.sort(rng.choice(at.n, size=HILBERT_ROWS, replace=False))
    cols = np.arange(at.n)
    D = at.one_minus(rows, cols)
    D[np.arange(rows.size), rows] = np.inf
    direct = (f * at.masses / D).sum(axis=1)
    require(float(np.max(np.abs(routed[rows] - direct))) <= 1e-12 * scale,
            "hilbert_route differs from the direct sum")
    require(float(np.max(np.abs(applied[rows] - direct))) <= 1e-8 * scale,
            "apply differs from the direct sum")
    require(float(np.max(np.abs(routed - applied))) <= 1e-8 * scale,
            "hilbert_route differs from apply")


# ---------------------------------------------------------------------------
# The counterexample's sparse side, from the log-gamma closed form

@functools.lru_cache(maxsize=None)
def sparse_ladder_rung(K: int) -> tuple[Atoms, float]:
    """Atoms of the alpha = 1 member in (0, pi/2] and the squared-mass
    atom-potential sup (nan below two atoms).

    With x = -cot(theta/2): Phi_K(x) = 2 Im[loggamma(K+1-x+i) -
    loggamma(1-x+i)], Phi_K' = 2 Im[psi(K+1-x-i) - psi(1-x-i)],
    arg u(1) = -Im[loggamma(K+1+2i) - loggamma(1+2i)]; atoms sit where
    arg u(1) + Phi_K(x) is a multiple of 2 pi, with mass 2/(Phi' (1+x^2)).
    """
    from scipy import special

    def phi(x):
        return 2.0 * np.imag(special.loggamma(K + 1 - x + 1j) - special.loggamma(1 - x + 1j))

    base = float(-np.imag(special.loggamma(K + 1 + 2j) - special.loggamma(1 + 2j)))
    top = float(phi(np.array([-1.0]))[0])
    k0 = math.floor(base / TWO_PI) + 1
    k1 = math.floor((base + top) / TWO_PI)
    if k1 < k0:
        return Atoms([], []), float("nan")
    targets = TWO_PI * np.arange(k0, k1 + 1) - base
    lo = np.zeros(targets.size)
    hi = np.full(targets.size, math.log(8.0 * K / targets[0]) + 2.0)
    for _ in range(80):  # Phi_K(-e^s) decreases in s
        mid = 0.5 * (lo + hi)
        above = phi(-np.exp(mid)) >= targets
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    s = 0.5 * (lo + hi)
    x = -np.exp(s)
    dphi = 2.0 * np.imag(special.digamma(K + 1 - x - 1j) - special.digamma(1 - x - 1j))
    at = Atoms(2.0 * np.arctan(np.exp(-s)), 2.0 / (dphi * (1.0 + x * x)), x)
    order = np.argsort(at.thetas)
    at = Atoms(at.thetas[order], at.masses[order], at.x[order])
    if at.n < 2:
        return at, float("nan")
    return at, float(potential_rows(squared(at), np.arange(at.n)).max())


def check_ladder(records: list[dict]) -> None:
    """Each rung's atom count, smallest atom and sup match the closed form."""
    for rec in records:
        at, value = sparse_ladder_rung(int(rec["K"]))
        K = rec["K"]
        require(rec["n_atoms"] == at.n, f"K={K}: {rec['n_atoms']} atoms, closed form {at.n}")
        if at.n:
            require(rel_err(rec["scan_delta"], at.thetas[0]) <= REL_TOL,
                    f"K={K}: smallest atom {rec['scan_delta']}, closed form {at.thetas[0]}")
        if at.n >= 2:
            require(rel_err(rec["value"], value) <= REL_TOL,
                    f"K={K}: sup {rec['value']}, closed form {value}")


# ---------------------------------------------------------------------------
# Perturbation plans

def admissible_cap(A: float, B: float) -> float:
    return min(1.0 / (3.0 * B), A / (3.0 * B * B), 0.5)


def draw_plan(base: Atoms, rng) -> dict:
    """A plan strictly inside the caps: alpha_n <= PLAN_SHARE * cap,
    angular offsets and mass offsets within PLAN_SHARE * sigma_n alpha_n."""
    A, B = neighbor_constants(base, accumulation_at_zero=True)
    cap = admissible_cap(A, B)
    alpha = PLAN_SHARE * cap * rng.uniform(0.05, 1.0, base.n)
    lim = PLAN_SHARE * base.masses * alpha
    return {"alpha": alpha.tolist(),
            "t_offsets": (lim * rng.uniform(-1.0, 1.0, base.n)).tolist(),
            "eps": (lim * rng.uniform(-1.0, 1.0, base.n)).tolist()}


def perturbed_atoms(base: Atoms, plan: dict) -> Atoms:
    thetas = np.mod(base.thetas + np.asarray(plan["t_offsets"]), TWO_PI)
    order = np.argsort(thetas)
    masses = base.masses + np.asarray(plan["eps"])
    return Atoms(thetas[order], masses[order])


def check_perturbed(got: Atoms, want: Atoms) -> None:
    check_atoms_match(got, want, "perturbed measure")
    require(rel_err(got.masses, want.masses) <= REL_TOL, "perturbed masses differ")


def check_admissibility(alpha_rec, passed: bool, cap: float, base: Atoms,
                        plan: dict) -> None:
    """Recovered sizes stay below the cap and below the plan's own alpha
    (|t| and |eps| are both within sigma alpha), up to angle rounding."""
    alpha_rec = np.asarray(alpha_rec)
    plan_alpha = np.asarray(plan["alpha"])
    slack = 8.0 * np.finfo(float).eps * TWO_PI / base.masses
    require(bool(passed) and float(alpha_rec.max()) <= cap,
            f"recovered alpha {alpha_rec.max()} above cap {cap}")
    require(bool(np.all(alpha_rec <= plan_alpha * (1.0 + 1e-12) + slack)),
            "recovered alpha exceeds the plan's alpha")
