"""Controlled perturbation of a Clark measure.

Moving each atom by at most sigma_n alpha_n (chordally) and each mass by
at most sigma_n alpha_n, with ||alpha||_inf below the admissible cap
min{1/(3B), A/(3B^2), 1/2} and the weighted interaction sum finite,
produces the Clark measure of another one-component inner function.  The
construction is validated strictly: violated caps are errors carrying
the failing atom and bound, never warnings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import AtomicMeasure, TWO_PI, kernel_sum
from .clark import ClarkData
from .errors import ConstraintViolation, DimensionMismatch, InvalidConstants


def admissible_alpha_bound(A: float, B: float) -> float:
    """min{1/(3B), A/(3 B^2), 1/2} for neighbor constants 0 < A <= B."""
    if not (np.isfinite(A) and np.isfinite(B)) or A <= 0 or B <= 0:
        raise InvalidConstants("constants must be finite and positive")
    if A > B:
        raise InvalidConstants(f"A={A} exceeds B={B}")
    return min(1.0 / (3.0 * B), A / (3.0 * B**2), 0.5)


def interaction_sup(base: ClarkData, alpha) -> tuple[float, int]:
    """sup_n sum_{m != n} sigma_m alpha_m / |zeta_n - zeta_m| with witness;
    the finiteness hypothesis of the perturbation construction.  In
    half-angle differences d = (theta_n - theta_m)/2, 1/|zeta_n - zeta_m| =
    sqrt(1 + cot^2 d)/2."""
    alpha = np.asarray(alpha, dtype=float)
    m = base.measure
    if alpha.shape != (m.n_atoms,):
        raise DimensionMismatch(
            f"alpha length {alpha.shape} != atom count {m.n_atoms}")
    half = 0.5 * m.thetas
    vals = 0.5 * kernel_sum(half, m.masses * alpha, "sqrt(1+cot^2)")
    if not vals.size:
        return -np.inf, -1
    i = int(np.argmax(vals))
    return float(vals[i]), i


@dataclass
class PerturbationPlan:
    """Base data plus per-atom perturbation sizes: alpha (positive),
    signed angular offsets for the atoms, and signed mass offsets."""

    base: ClarkData
    alpha: np.ndarray
    t_offsets: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        n = self.base.measure.n_atoms
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.t_offsets = np.asarray(self.t_offsets, dtype=float)
        self.eps = np.asarray(self.eps, dtype=float)
        for name, arr in (("alpha", self.alpha), ("t_offsets", self.t_offsets),
                          ("eps", self.eps)):
            if arr.shape != (n,):
                raise DimensionMismatch(f"{name} length {arr.shape} != {n}")


def _validate(plan: PerturbationPlan):
    sig = plan.base.measure.masses
    if np.any(plan.alpha <= 0):
        i = int(np.argmin(plan.alpha))
        raise ConstraintViolation(i, "alpha-positive",
                                  f"alpha={plan.alpha[i]} must be positive")
    cap = admissible_alpha_bound(plan.base.A, plan.base.B)
    if plan.alpha.max() > cap * (1 + 1e-12):
        i = int(np.argmax(plan.alpha))
        raise ConstraintViolation(
            i, "alpha-sup-cap",
            f"alpha={plan.alpha[i]:.6g} exceeds cap {cap:.6g}")
    # offsets are given as angles; the caps are chordal
    chord_off = np.abs(2.0 * np.sin(0.5 * plan.t_offsets))
    lim = sig * plan.alpha
    bad = chord_off > lim * (1 + 1e-12)
    if bad.any():
        i = int(np.argmax(chord_off - lim))
        raise ConstraintViolation(
            i, "atom-offset-cap",
            f"chordal offset {chord_off[i]:.6g} exceeds sigma*alpha={lim[i]:.6g}")
    bad = np.abs(plan.eps) > lim * (1 + 1e-12)
    if bad.any():
        i = int(np.argmax(np.abs(plan.eps) - lim))
        raise ConstraintViolation(
            i, "mass-offset-cap",
            f"|eps|={abs(plan.eps[i]):.6g} exceeds sigma*alpha={lim[i]:.6g}")
    if np.any(sig + plan.eps <= 0):
        i = int(np.argmin(sig + plan.eps))
        raise ConstraintViolation(i, "mass-positive",
                                  f"perturbed mass {sig[i] + plan.eps[i]:.6g}")


def generate(plan: PerturbationPlan) -> AtomicMeasure:
    """Apply the plan: atoms rotated by t_offsets, masses shifted by eps.

    All caps are re-validated and the circular interleaving order must
    survive (the caps guarantee it for genuine Clark bases; a violation
    is reported with its atom index).
    """
    _validate(plan)
    m = plan.base.measure
    new_thetas = m.thetas + plan.t_offsets
    new_masses = m.masses + plan.eps
    # interleaving: consecutive perturbed atoms must stay ordered
    offsets = np.mod(new_thetas - new_thetas[0], TWO_PI)
    order = np.argsort(offsets, kind="stable")
    lifted = offsets[order]
    if np.any(np.diff(order) != 1) or np.any(np.diff(lifted) <= 0):
        bad = int(np.argmin(np.diff(lifted))) if lifted.size > 1 else 0
        raise ConstraintViolation(bad, "interleaving",
                                  "perturbed atoms collide or change order")
    return AtomicMeasure(new_thetas, new_masses)


def squared_measure(m: AtomicMeasure) -> AtomicMeasure:
    """Same atoms, squared masses: the canonical weight for which the
    potential conditions are tested."""
    if not m.n_atoms:
        return AtomicMeasure.empty()
    return AtomicMeasure(m.thetas.copy(), m.masses**2)


def random_plan(base: ClarkData, seed: int) -> PerturbationPlan:
    """Seeded plan with alpha uniform in (0, cap] and offsets uniform
    within the per-atom caps (angular offsets are capped by sigma*alpha,
    which dominates the chordal cap)."""
    rng = np.random.default_rng(seed)
    n = base.measure.n_atoms
    cap = admissible_alpha_bound(base.A, base.B)
    alpha = cap * rng.uniform(1e-6, 1.0, n)
    lim = base.measure.masses * alpha
    t_offsets = rng.uniform(-1.0, 1.0, n) * lim
    eps = rng.uniform(-1.0, 1.0, n) * lim
    return PerturbationPlan(base=base, alpha=alpha, t_offsets=t_offsets, eps=eps)
