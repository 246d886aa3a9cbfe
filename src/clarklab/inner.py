"""Inner functions: finite Blaschke products, atomic singular factors,
and products of both.

Each is flattened once, at construction, into one normal form that
evaluation and the phase kernel read.

Evaluation works anywhere in the closed disk away from the boundary
spectrum.  The boundary phase is produced as an exact continuous
increasing lift (no unwrapping heuristics): each Blaschke factor
contributes  theta + 2 Arg(1 - a e^{-i theta}) + (pi - arg a), whose Arg
term stays in (-pi/2, pi/2), and each singular atom (xi_j, w_j)
contributes  w_j cot((theta_j - theta)/2), continuous between its poles.
The lift's derivative is the angular derivative |u'(e^{i theta})| > 0.
One kernel, _phase, computes both in one pass over (points x zeros):
per block of points a matrix product with the normal form's
precomputed rows gives every 1 - a e^{-i theta} and e^{i theta} - a at
once, and the Arg and derivative terms are summed pairwise from them.
Zeros declared as a lattice block, the Cayley images of +-n + i for
n = 1..K (the counterexample family at alpha = 1), are summed in closed
form instead, by differences of Im lnGamma and Im psi on the line
Im z = 1 (special.py), at O(1) per point with the bounds stated in
_phase; evaluation and the derivative alone still read every zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import circle, special
from .circle import MEMORY_BUDGET, TWO_PI, canonical_angles, chord_angles, finite_angle
from .errors import ClarkLabError, DegenerateSymbol, SpectrumPoint

#: Chordal radius around the spectrum inside which boundary operations
#: refuse to evaluate.
EPS_SPECTRUM = 1e-8

#: Chordal distance to a singular atom below which evaluate refuses.
EVAL_ATOM_TOL = 1e-14

#: sin^2 of the half-angle to a singular atom below which the phase
#: kernel and angular_derivative refuse: the chord 2 |sin| below 1e-12.
PHASE_ATOM_SIN2 = 0.25e-24

#: Angular-derivative partial sums beyond this cap are reported as inf,
#: standing in for the divergent series on the spectrum.
DERIVATIVE_OVERFLOW_CAP = 1e15

#: Bytes held per zero while a zero list and its normal form are built:
#: the counterexample family peaked at 292-298 bytes per zero for
#: K = 2048 to 32768 (tracemalloc, numpy 2.4), so MEMORY_BUDGET allows
#: about 3 x 10^6 zeros.
ZERO_BYTES = 320


class _NormalForm(NamedTuple):
    """u(z) = constant z^origin_zeros prod_k b_k(z) exp(-sum_j w_j (xi_j + z)/(xi_j - z))
    with b_k the Blaschke factor of the nonzero zero a_k (see FiniteBlaschke)
    and xi_j = e^{i sing_theta_j}; ``spectrum`` lists the spectrum angles
    in factor order.  ``lin`` and ``mass`` are derived from the zeros for
    _phase (see _zero_parts); ``lattice`` holds the declared lattice blocks
    as columns (K, sign, B_K), B_K from special.base_sum, and
    ``in_lattice`` marks their zeros (see FiniteBlaschke); every array
    field runs over its last axis."""

    constant: complex = 1.0 + 0.0j
    origin_zeros: int = 0
    zeros: np.ndarray = np.empty(0, complex)
    sing_theta: np.ndarray = np.empty(0)
    sing_w: np.ndarray = np.empty(0)
    spectrum: np.ndarray = np.empty(0)
    lin: np.ndarray = np.empty((4, 3, 0))
    mass: np.ndarray = np.empty(0)
    lattice: np.ndarray = np.empty((3, 0))
    in_lattice: np.ndarray = np.empty(0, bool)


def _zero_parts(a):
    """(lin, mass) of the zeros a: [cos theta, sin theta, 1] @ lin[q] is,
    for q = 0..3, re and im of 1 - a e^{-i theta} and dx and dy of
    e^{i theta} - a, per zero; mass is 1 - |a|^2."""
    p, q, one, zero = a.real, a.imag, np.ones(a.size), np.zeros(a.size)
    return (np.array([[-p, -q, one], [-q, p, zero], [one, zero, -p], [zero, one, -q]]),
            1.0 - np.abs(a) ** 2)


@dataclass(frozen=True)
class FiniteBlaschke:
    """c * prod_k (conj(a_k)/|a_k|) (a_k - z)/(1 - conj(a_k) z); a zero at
    the origin contributes the factor z.  ``accumulation`` declares the
    boundary accumulation points of a truncated infinite family; they are
    treated as spectrum.  ``lattice`` declares blocks (K, sign), sign = +-1:
    the leading zeros, block by block, are the Cayley images
    sign n / (sign n + 2i) of the lattice sign n + i, n = 1..K, which
    _phase's lift reads in closed form (checked here, never detected)."""

    zeros: tuple[complex, ...]
    constant: complex = 1.0 + 0.0j
    accumulation: tuple[float, ...] = ()
    lattice: tuple[tuple[int, int], ...] = ()
    _form: _NormalForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # positive conditions, so that NaN fails them
        a = np.array(self.zeros, dtype=complex)
        if not np.all(np.abs(a) < 1.0):
            raise ValueError("Blaschke zeros must lie strictly inside the disk")
        c = complex(self.constant)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise ValueError("front constant must be unimodular")
        object.__setattr__(self, "zeros", tuple(a.tolist()))
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "accumulation", tuple(map(finite_angle, self.accumulation)))
        k, sign = blocks = np.array(self.lattice, dtype=float).reshape(-1, 2).T
        n = np.concatenate([np.empty(0)] + [s * np.arange(1.0, b + 1) for b, s in zip(k, sign)])
        if not (np.all((k >= 1) & (k % 1 == 0) & (np.abs(sign) == 1)) and n.size <= a.size
                and np.all(np.abs(a[:n.size] - n / (n + 2j)) <= 1e-15)):
            raise ValueError("each lattice block is (K >= 1, sign +-1), and the blocks' "
                             "zeros must lead the zeros")
        object.__setattr__(self, "lattice", tuple(map(tuple, blocks.T.astype(int).tolist())))
        lin, mass = _zero_parts(a[a != 0])
        b = special.base_sum(k)[0] if k.size else k
        object.__setattr__(self, "_form", _NormalForm(
            c, int(np.sum(a == 0)), a[a != 0], spectrum=np.array(self.accumulation),
            lin=lin, mass=mass, lattice=np.vstack((blocks, b)),
            # a float arange: an int64 comparison alone faults in 128 KiB of numpy code
            in_lattice=(np.arange(a.size, dtype=float) < n.size)[a != 0]))


@dataclass(frozen=True)
class SingularAtomic:
    """exp(-sum_j w_j (xi_j + z)/(xi_j - z)) with xi_j = e^{i theta_j},
    w_j > 0."""

    atoms: tuple[tuple[float, float], ...]
    _form: _NormalForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta, w = np.array(self.atoms, dtype=float).reshape(-1, 2).T
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("singular weights must be finite and positive")
        if not np.isfinite(theta).all():
            raise ValueError("singular atom angles must be finite")
        theta = canonical_angles(theta)
        object.__setattr__(self, "atoms", tuple(zip(theta.tolist(), w.tolist())))
        object.__setattr__(self, "_form", _NormalForm(sing_theta=theta, sing_w=w,
                                                      spectrum=theta))


@dataclass(frozen=True)
class Product:
    """The product of its factors; the empty product is the constant 1."""

    factors: tuple
    _form: _NormalForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        c, m, *arrays = zip(_NormalForm(), *(f._form for f in self.factors))
        object.__setattr__(self, "_form", _NormalForm(
            complex(np.prod(c)), sum(m), *(np.concatenate(x, axis=-1) for x in arrays)))


InnerFunction = FiniteBlaschke | SingularAtomic | Product


def _check_zero_count(n: int, hint: str) -> None:
    """ClarkLabError, before any zero is built, when n zeros at ZERO_BYTES
    each exceed MEMORY_BUDGET; hint ends the message."""
    if n * ZERO_BYTES > MEMORY_BUDGET:
        raise ClarkLabError(f"{n} zeros exceed the memory budget of {MEMORY_BUDGET} bytes "
                            f"at {ZERO_BYTES} bytes per zero{hint}")


def monomial(k: int) -> FiniteBlaschke:
    """u(z) = z^k."""
    if k < 1:
        raise ValueError("monomial degree must be >= 1")
    _check_zero_count(k, "")
    return FiniteBlaschke(zeros=(0.0 + 0.0j,) * k)


def spectrum(u: InnerFunction) -> np.ndarray:
    """Boundary spectrum, as the angles of the normal form in factor
    order: singular atoms plus declared Blaschke accumulation points
    (finite Blaschke parts alone contribute none)."""
    return u._form.spectrum.copy()


def _refuse_atoms(dist, tol, theta, what):
    """SpectrumPoint when a distance (points x atoms) to an atom is below tol."""
    if dist.min(initial=np.inf) < tol:
        theta = theta[(dist < tol).reshape(-1, theta.size).any(axis=0)][0]
        raise SpectrumPoint(f"{what} at singular atom theta={theta}")


def _blockwise(fn, x, width):
    """fn(x) for a kernel reducing a trailing axis of length width, in
    slices of at most PAIR_BLOCK (points x width) entries, or one point."""
    step = max(1, circle.PAIR_BLOCK // max(width, 1))
    if x.size <= step:
        return fn(x)
    flat = x.reshape(-1)
    return np.concatenate([fn(flat[s:s + step])
                           for s in range(0, flat.size, step)]).reshape(x.shape)


def evaluate(u: InnerFunction, z):
    """Evaluate u at z (scalar or ndarray), |z| <= 1.

    Raises SpectrumPoint when z hits a singular atom exactly (within
    EVAL_ATOM_TOL chordal), where no boundary value exists.
    """
    f = u._form
    z = np.asarray(z, dtype=complex)
    a, ca, xi = f.zeros, np.conj(f.zeros), np.exp(1j * f.sing_theta)

    def factors(w):
        w = w[..., None]
        _refuse_atoms(np.abs(xi - w), EVAL_ATOM_TOL, f.sing_theta, "evaluation")
        return (np.prod(ca / np.abs(a) * (a - w) / (1.0 - ca * w), axis=-1)
                * np.exp(-(f.sing_w * (xi + w) / (xi - w)).sum(axis=-1)))

    out = f.constant * z ** f.origin_zeros * _blockwise(factors, z, a.size + xi.size)
    return complex(out) if z.ndim == 0 else out


def _phase(u, theta, lift=True, derivative=True):
    """(lift, derivative) at every angle of theta (scalar or ndarray): the
    continuous increasing lift of arg u(e^{i theta}) on the real line
    (minus singular-atom poles) and its derivative |u'(e^{i theta})|.
    A part not asked for is not computed and comes back as None.

    One pass over (points x zeros), in blocks of at most PAIR_BLOCK pairs
    written into one buffer allocated per call.  cos theta and sin theta
    are taken once per point, and one matrix product of
    [cos theta, sin theta, 1] with the normal form's ``lin`` gives, for
    every zero a at once, re + i im = 1 - a e^{-i theta} and
    dx + i dy = e^{i theta} - a.  The lift adds 2 arctan2(im, re) and the
    derivative (1 - |a|^2)/(dx^2 + dy^2) per zero, each as a pairwise row
    sum, so rounding does not grow with the degree.  A singular atom's
    half-angle difference serves both its cot (lift) and its chord
    (derivative); the chord is checked first, so within 1e-12 of an atom
    SpectrumPoint is raised before anything divides by it.

    Accuracy against 30-digit values at the same float angles and zeros,
    with eps = 2^-52, d_k = |e^{i theta} - a_k|, w_k = 1 - |a_k|^2 and
    t_k = w_k / d_k^2 the derivative's terms (pinned in test_inner.py):
      lift, absolute:        eps (K (|theta| + 2 pi) + sum_k 1/d_k)
      derivative, relative:  eps (log2 K + sum_k t_k (2/d_k + 2/w_k) / sum_k t_k)
    The 1/d_k and 1/w_k parts come from rounding cos theta, sin theta and
    |a_k|^2, which every float64 form inherits.  re and im are the linear
    (complex-product) form: re cancels to an absolute error of eps, no
    more than that inherited part for the lift.  The rotated form,
    re + i im = e^{-i theta}(dx + i dy), has its own rounding O(eps) as
    d_k -> 0, but the inherited part stays, and it costs six more
    broadcast passes per pair; this form was chosen for that cost.  The
    derivative takes |e^{i theta} - a|^2 from dx and dy, not from
    re^2 + im^2, whose cancellation would cost each term eps/d_k
    relative.

    When the lift is asked for, a lattice block (K, sign) of the normal
    form leaves the term sum for its closed form, O(1) per point.  In the
    Cayley coordinate x = -cot(theta/2), theta = 2 pi w + pi + 2 arctan x
    with w whole, the block's lift is its value at theta = 2 pi w
    (x = -inf), 2 pi K w plus 2 pi K - B_K for sign +1 or B_K for sign -1,
    B_K = sum_n arg(n + 2i), plus 2 sum_n arg(sign n - x + i); its
    derivative is (1 + x^2) S_K(sign x), S_K(y) = sum_n 1/((n - y)^2 + 1).
    The sums come from special.lattice_sums, and B_K from special.base_sum
    once, when the block is declared.  Against 40-digit sums over
    the exact lattice zeros at the same float angles (pinned in
    test_special.py), per block:
      lift, absolute:        eps (K (|theta| + 2 pi) + 6 |x| S_K(sign x) + 60)
      derivative, relative:  eps (24 + 4 |x|)
    The |x| parts are the rounding of x = -cos/sin, 3 eps |x| at most.
    The float zeros differ from the exact lattice by their own rounding,
    the inherited part of the term sum's bounds above.  The derivative
    alone (lift=False: _angular_derivatives, and angular_derivative) stays
    the term sum over every zero, so each mass is read from it.
    """
    form = f = u._form
    theta = np.asarray(theta, dtype=float)
    x = theta.reshape(-1)
    if lift and form.lattice.size:  # the blocks' zeros leave the term sum
        free = ~f.in_lattice
        f = f._replace(zeros=f.zeros[free], lin=f.lin[..., free], mass=f.mass[free])
    # the constant and linear parts are summed once, the bounded terms pairwise
    const = np.angle(f.constant) + np.sum(np.pi - np.angle(f.zeros)) if lift else None
    K = f.zeros.size
    step = max(1, circle.PAIR_BLOCK // max(K, f.sing_theta.size, 1))
    buf = np.empty((2 * (lift + derivative), min(step, x.size), K)) if K else None
    if x.size <= step:
        ph, d = _phase_block(f, x, const, derivative, buf)
    else:
        blocks = [_phase_block(f, x[s:s + step], const, derivative, buf)
                  for s in range(0, x.size, step)]
        ph, d = (None if p[0] is None else np.concatenate(p) for p in zip(*blocks))
    if lift and form.lattice.size:
        ph, d = _lattice_phase(form.lattice, x, ph, d)
    if lift:
        ph = ph.reshape(theta.shape)
    if derivative:
        d[d > DERIVATIVE_OVERFLOW_CAP] = np.inf
        d = d.reshape(theta.shape)
    return ph, d


def _phase_block(f, x, const, derivative, buf):
    """_phase at the points x (1-D), with the lift's constant part const
    (None: no lift), in the buffer buf (points x zeros blocks)."""
    ph = d = None
    lift = const is not None
    a, tj, w = f.zeros, f.sing_theta, f.sing_w
    if lift:
        ph = const + (f.origin_zeros + a.size) * x
    if a.size:
        points = np.ones((x.size, 3))
        np.cos(x, out=points[:, 0])
        np.sin(x, out=points[:, 1])
        # the lift's rows of lin, then the derivative's
        q = np.matmul(points, f.lin[0 if lift else 2:4 if derivative else 2], out=buf[:, :x.size])
        if lift:
            re, im = q[:2]
            ph = ph + 2.0 * np.arctan2(im, re, out=re).sum(axis=-1)
        if derivative:
            dx, dy = np.square(q[-2:], out=q[-2:])
            d = np.divide(f.mass, np.add(dx, dy, out=dx), out=dx).sum(axis=-1)
    if tj.size:
        half = 0.5 * (tj - x[:, None])
        # 2 w / |e^{i x} - xi|^2 = (w/2) / sin^2, with the chord checked first
        sin2 = np.sin(half) ** 2
        _refuse_atoms(sin2, PHASE_ATOM_SIN2, tj,
                      "angular derivative" if derivative else "phase lift")
        if lift:
            ph = ph + (w / np.tan(half)).sum(axis=-1)
        if derivative:
            sing = (0.5 * w / sin2).sum(axis=-1)
            d = sing if d is None else d + sing
    if derivative:
        if d is None:
            d = np.zeros(x.size)
        if f.origin_zeros:  # each zero at the origin adds 1
            d = d + f.origin_zeros
    return ph, d


def _lattice_phase(blocks, theta, ph, d):
    """ph and d (None: not asked for) plus the lattice blocks' lift and
    derivative at the angles theta (1-D), in closed form (see _phase)."""
    with np.errstate(divide="ignore"):  # theta = 0 gives x = -inf, kept finite
        x = np.clip(-np.cos(0.5 * theta) / np.sin(0.5 * theta), -1e150, 1e150)
    # whole turns w: theta = 2 pi w + pi + 2 arctan(x)
    w = np.round((theta - np.pi - 2.0 * np.arctan(x)) / TWO_PI)
    k, sign, b = blocks[:, :, None]  # one row per block
    A, S = special.lattice_sums(k, sign * x, d is not None)
    # pi k (2 w + 1 + sign) - sign b at theta = 2 pi w, then
    # 2 sum_n arg(sign n - x + i) = 2 sign A(sign x) + pi k (1 - sign)
    ph = ph + (TWO_PI * k * (w + 1.0) + sign * (2.0 * A - b)).sum(axis=0)
    if d is not None:
        d = d + (1.0 + x * x) * S.sum(axis=0)
    return ph, d


def _phase_lift(u, theta):
    """The lift alone (see _phase)."""
    return _phase(u, theta, derivative=False)[0]


def _angular_derivatives(u, theta):
    """angular_derivative at every angle of theta (scalar or ndarray)."""
    return _phase(u, theta, lift=False)[1]


def _check_off_spectrum(u, theta):
    spec = u._form.spectrum
    near = chord_angles(np.reshape(theta, (-1, 1)), spec) < EPS_SPECTRUM
    if near.any():
        raise SpectrumPoint(f"boundary point within {EPS_SPECTRUM:g} of spectrum "
                            f"at theta={spec[near.any(axis=0)][0]}")


def boundary_phase(u: InnerFunction, theta):
    """Continuous increasing branch of arg u(e^{i theta}).

    The returned lift satisfies exp(i phase) = u(e^{i theta}) and is
    continuous in theta on every arc free of spectrum; its derivative is
    |u'(e^{i theta})|.
    """
    _check_off_spectrum(u, theta)
    ph = _phase_lift(u, theta)
    return float(ph) if np.ndim(theta) == 0 else ph


def angular_derivative(u: InnerFunction, theta: float) -> float:
    """|u'(zeta)| at zeta = e^{i theta} via the boundary-derivative sums:
    sum_k (1-|a_k|^2)/|zeta-a_k|^2 for Blaschke zeros and
    sum_j 2 w_j / |xi_j - zeta|^2 for singular atoms.

    theta must be finite (else InvalidAngle) and is taken canonical.
    Values above DERIVATIVE_OVERFLOW_CAP are reported as inf; at a
    singular atom itself the derivative does not exist and SpectrumPoint
    is raised.

    The terms are read from the normal form at the one point, with no
    block buffer or matrix product, and summed as _phase sums them, so
    the value equals _angular_derivatives' at the canonical angle bit for
    bit: the product's extra terms are exact zeros and the row sums are
    the same pairwise sums.
    """
    f = u._form
    theta = finite_angle(theta)
    # 0.0 + t == t for the nonnegative parts, so the additions round as _phase's
    d = 0.0
    if f.zeros.size:
        dx = np.cos(theta) - f.zeros.real
        dy = np.sin(theta) - f.zeros.imag
        d += (f.mass / (dx * dx + dy * dy)).sum()
    if f.sing_theta.size:
        sin2 = np.sin(0.5 * (f.sing_theta - theta)) ** 2
        _refuse_atoms(sin2, PHASE_ATOM_SIN2, f.sing_theta, "angular derivative")
        d += (0.5 * f.sing_w / sin2).sum()
    d += f.origin_zeros
    return np.inf if d > DERIVATIVE_OVERFLOW_CAP else float(d)


@dataclass(frozen=True)
class PythagoreanPair:
    """b = (1+u)/2 and its outer mate a = gamma (1-u)/2, with gamma
    unimodular chosen so that (1 - u(0)) gamma > 0, i.e. a(0) > 0."""

    u: InnerFunction
    gamma: complex

    def b(self, z):
        return 0.5 * (1.0 + evaluate(self.u, z))

    def a(self, z):
        return 0.5 * self.gamma * (1.0 - evaluate(self.u, z))


def pythagorean_pair(u: InnerFunction) -> PythagoreanPair:
    u0 = evaluate(u, 0.0)
    w = 1.0 - u0
    if abs(w) < 1e-15:
        raise DegenerateSymbol("u(0) = 1; the mate is not defined")
    gamma = np.conj(w) / abs(w)
    return PythagoreanPair(u=u, gamma=complex(gamma))
