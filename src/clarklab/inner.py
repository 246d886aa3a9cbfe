"""Inner functions: finite Blaschke products, atomic singular factors,
and products of both.

Each is flattened once, at construction, into one normal form that
evaluation, the phase lift and the angular derivative read.

Evaluation works anywhere in the closed disk away from the boundary
spectrum.  The boundary phase is produced as an exact continuous
increasing lift (no unwrapping heuristics): each Blaschke factor
contributes  theta + 2 Arg(1 - a e^{-i theta}) + (pi - arg a), whose Arg
term stays in (-pi/2, pi/2), and each singular atom (xi_j, w_j)
contributes  w_j cot((theta_j - theta)/2), continuous between its poles.
The lift's derivative is the angular derivative |u'(e^{i theta})| > 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circle import CirclePoint, TWO_PI, canonical_angle, chord_angles
from .errors import DegenerateSymbol, SpectrumPoint

#: Default chordal radius around the spectrum inside which boundary
#: operations refuse to evaluate.
EPS_SPECTRUM = 1e-8

#: Angular-derivative partial sums beyond this cap are reported as inf,
#: standing in for the divergent series on the spectrum.
DERIVATIVE_OVERFLOW_CAP = 1e15

#: Largest (points x zeros) block in one broadcast sum or product.
PHASE_BLOCK = 1 << 20


class _NormalForm(NamedTuple):
    """u(z) = constant z^origin_zeros prod_k b_k(z) exp(-sum_j w_j (xi_j + z)/(xi_j - z))
    with b_k the Blaschke factor of the nonzero zero a_k (see FiniteBlaschke)
    and xi_j = e^{i sing_theta_j}; ``spectrum`` lists the spectrum angles
    in factor order."""

    constant: complex = 1.0 + 0.0j
    origin_zeros: int = 0
    zeros: np.ndarray = np.empty(0, complex)
    sing_theta: np.ndarray = np.empty(0)
    sing_w: np.ndarray = np.empty(0)
    spectrum: np.ndarray = np.empty(0)


@dataclass(frozen=True)
class FiniteBlaschke:
    """c * prod_k (conj(a_k)/|a_k|) (a_k - z)/(1 - conj(a_k) z); a zero at
    the origin contributes the factor z.  ``accumulation`` declares the
    boundary accumulation points of a truncated infinite family; they are
    treated as spectrum."""

    zeros: tuple[complex, ...]
    constant: complex = 1.0 + 0.0j
    accumulation: tuple[float, ...] = ()
    _form: _NormalForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z = tuple(complex(w) for w in self.zeros)
        if any(abs(w) >= 1.0 for w in z):
            raise ValueError("Blaschke zeros must lie strictly inside the disk")
        c = complex(self.constant)
        if abs(abs(c) - 1.0) > 1e-12:
            raise ValueError("front constant must be unimodular")
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "accumulation",
                           tuple(canonical_angle(t) for t in self.accumulation))
        a = np.array(z, dtype=complex)
        object.__setattr__(self, "_form", _NormalForm(
            c, int(np.sum(a == 0)), a[a != 0], spectrum=np.array(self.accumulation)))


@dataclass(frozen=True)
class SingularAtomic:
    """exp(-sum_j w_j (xi_j + z)/(xi_j - z)) with xi_j = e^{i theta_j},
    w_j > 0."""

    atoms: tuple[tuple[float, float], ...]
    _form: _NormalForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("singular weights must be positive")
        object.__setattr__(self, "atoms", tuple((canonical_angle(t), float(w))
                                                for t, w in self.atoms))
        theta, w = np.array(self.atoms).reshape(-1, 2).T
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
            complex(np.prod(c)), sum(m), *map(np.concatenate, arrays)))


InnerFunction = FiniteBlaschke | SingularAtomic | Product


def monomial(k: int) -> FiniteBlaschke:
    """u(z) = z^k."""
    if k < 1:
        raise ValueError("monomial degree must be >= 1")
    return FiniteBlaschke(zeros=(0.0 + 0.0j,) * k)


def spectrum(u: InnerFunction) -> tuple[CirclePoint, ...]:
    """Boundary spectrum: singular atoms plus declared Blaschke
    accumulation points (finite Blaschke parts alone contribute none)."""
    return tuple(CirclePoint(t) for t in u._form.spectrum)


def _blockwise(fn, x, width):
    """fn(x) for a kernel reducing a trailing axis of length width, in
    slices of at most PHASE_BLOCK (points x width) entries."""
    step = max(1, PHASE_BLOCK // max(width, 1))
    if x.size <= step:
        return fn(x)
    flat = x.reshape(-1)
    return np.concatenate([fn(flat[s:s + step])
                           for s in range(0, flat.size, step)]).reshape(x.shape)


def _refuse_atoms(dist, tol, theta, what):
    """SpectrumPoint when a distance (points x atoms) to an atom is below tol."""
    if dist.min(initial=np.inf) < tol:
        theta = theta[(dist < tol).reshape(-1, theta.size).any(axis=0)][0]
        raise SpectrumPoint(f"{what} at singular atom theta={theta}")


def evaluate(u: InnerFunction, z):
    """Evaluate u at z (scalar or ndarray), |z| <= 1.

    Raises SpectrumPoint when z hits a singular atom exactly (within
    1e-14 chordal), where no boundary value exists.
    """
    f = u._form
    z = np.asarray(z, dtype=complex)
    a, ca, xi = f.zeros, np.conj(f.zeros), np.exp(1j * f.sing_theta)

    def factors(w):
        w = w[..., None]
        _refuse_atoms(np.abs(xi - w), 1e-14, f.sing_theta, "evaluation")
        return (np.prod(ca / np.abs(a) * (a - w) / (1.0 - ca * w), axis=-1)
                * np.exp(-(f.sing_w * (xi + w) / (xi - w)).sum(axis=-1)))

    out = f.constant * z ** f.origin_zeros * _blockwise(factors, z, a.size + xi.size)
    return complex(out) if z.ndim == 0 else out


def _phase_lift(u, theta):
    """Continuous increasing lift of arg u(e^{i theta}) as a function on
    the real line (minus singular-atom poles)."""
    f = u._form
    theta = np.asarray(theta, dtype=float)
    a, tj = f.zeros, f.sing_theta
    # The constant and linear parts are summed once and the bounded Arg
    # terms pairwise, so rounding does not grow with the degree.
    lift = np.angle(f.constant) + np.sum(np.pi - np.angle(a)) + (f.origin_zeros + a.size) * theta
    if a.size:
        lift = lift + 2.0 * _blockwise(
            lambda x: np.angle(1.0 - a * np.exp(-1j * x)[..., None]).sum(axis=-1), theta, a.size)
    if tj.size:
        lift = lift + _blockwise(
            lambda x: (f.sing_w / np.tan(0.5 * (tj - x[..., None]))).sum(axis=-1), theta, tj.size)
    return lift


def _check_off_spectrum(u, theta, eps_spec):
    spec = u._form.spectrum
    near = chord_angles(np.reshape(theta, (-1, 1)), spec) < eps_spec
    if near.any():
        raise SpectrumPoint(f"boundary point within {eps_spec:g} of spectrum "
                            f"at theta={spec[near.any(axis=0)][0]}")


def boundary_phase(u: InnerFunction, theta, anchor: float | None = None,
                   eps_spec: float = EPS_SPECTRUM):
    """Continuous increasing branch of arg u(e^{i theta}).

    The returned lift satisfies exp(i phase) = u(e^{i theta}) and is
    continuous in theta on every arc free of spectrum; its derivative is
    |u'(e^{i theta})|.  ``anchor`` shifts the branch by a multiple of
    2*pi so that the value at the first evaluation point lands within pi
    of the anchor.
    """
    _check_off_spectrum(u, theta, eps_spec)
    ph = _phase_lift(u, theta)
    if anchor is not None:
        ref = ph if np.ndim(ph) == 0 else np.atleast_1d(ph)[0]
        ph = ph + TWO_PI * np.round((anchor - ref) / TWO_PI)
    return float(ph) if np.ndim(theta) == 0 else ph


def angular_derivative(u: InnerFunction, zeta: CirclePoint) -> float:
    """|u'(zeta)| via the boundary-derivative sums:
    sum_k (1-|a_k|^2)/|zeta-a_k|^2 for Blaschke zeros and
    sum_j 2 w_j / |xi_j - zeta|^2 for singular atoms.

    Values above DERIVATIVE_OVERFLOW_CAP are reported as inf; at a
    singular atom itself the derivative does not exist and SpectrumPoint
    is raised.
    """
    return float(_angular_derivatives(u, zeta.theta))


def _angular_derivatives(u, theta):
    """angular_derivative at every angle of theta (scalar or ndarray).
    Empty parts are skipped: clark_data calls this once per atom."""
    f = u._form
    theta = np.mod(theta, TWO_PI)
    a, tj = f.zeros, f.sing_theta

    def singular(x):
        d2 = chord_angles(x[..., None], tj) ** 2
        _refuse_atoms(d2, 1e-24, tj, "angular derivative")
        return (2.0 * f.sing_w / d2).sum(axis=-1)

    total = f.origin_zeros + 0.0 * theta
    if a.size:
        total = total + _blockwise(lambda x: ((1.0 - np.abs(a) ** 2)
                                              / np.abs(np.exp(1j * x)[..., None] - a) ** 2
                                              ).sum(axis=-1), theta, a.size)
    if tj.size:
        total = total + _blockwise(singular, theta, tj.size)
    return np.where(total > DERIVATIVE_OVERFLOW_CAP, np.inf, total)


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


def clark_identity_residual(u: InnerFunction, alpha: float, m, z: complex) -> float:
    """| (1-|u(z)|^2)/|e^{2 pi i alpha} - u(z)|^2  -  P_m(z) |.

    Near zero exactly when m is (a good truncation of) the Clark measure
    of u at parameter alpha.  z must lie in the open disk.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("z must lie in the open disk")
    uz = evaluate(u, z)
    lhs = (1.0 - abs(uz) ** 2) / abs(np.exp(2j * np.pi * alpha) - uz) ** 2
    d2 = np.abs(m.points_complex - z) ** 2
    rhs = float(np.sum(m.masses * (1.0 - abs(z) ** 2) / d2)) if m.n_atoms else 0.0
    return abs(lhs - rhs)
