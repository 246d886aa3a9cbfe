"""Circle geometry: points, arcs, and atomic measures on the unit circle.

Angles live in [0, 2*pi).  The canonical metric is the chordal distance
|e^{i a} - e^{i b}| = 2 |sin((a - b)/2)|, which is what every downstream
formula uses; arc length is available separately where a Lebesgue
comparison is wanted.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotEnoughAtoms

TWO_PI = 2.0 * np.pi

#: Atoms closer than this (in radians) are treated as duplicates and
#: rejected at construction; all supported measures have isolated atoms.
DUPLICATE_TOL = 1e-12


def canonical_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi)."""
    t = float(np.mod(theta, TWO_PI))
    # np.mod may return 2*pi itself for tiny negative inputs
    return 0.0 if t >= TWO_PI else t


def chord_angles(a, b):
    """Chordal distance between angles (vectorized)."""
    return np.abs(2.0 * np.sin(0.5 * (np.asarray(a) - np.asarray(b))))


@dataclass(frozen=True)
class CirclePoint:
    """A point e^{i theta} on the unit circle."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", canonical_angle(self.theta))

    @property
    def complex(self) -> complex:
        return complex(np.cos(self.theta), np.sin(self.theta))

    def rotated(self, delta: float) -> "CirclePoint":
        return CirclePoint(self.theta + delta)


def chord_distance(p: CirclePoint, q: CirclePoint) -> float:
    """|e^{i p} - e^{i q}| = 2 |sin((p - q)/2)|, in [0, 2]."""
    return float(chord_angles(p.theta, q.theta))


@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc from ``start`` to ``end``.

    ``start == end`` denotes the full circle (length 2*pi); zero-length
    arcs are not representable.  Endpoint membership follows the
    closed-left / closed-right flags.
    """

    start: CirclePoint
    end: CirclePoint
    closed_left: bool = True
    closed_right: bool = False

    @property
    def length(self) -> float:
        """Angular length in (0, 2*pi]."""
        d = canonical_angle(self.end.theta - self.start.theta)
        return TWO_PI if d == 0.0 else d

    @property
    def is_full_circle(self) -> bool:
        return self.length == TWO_PI

    def offset_of(self, p: CirclePoint) -> float:
        """Angle of p measured counterclockwise from the start, in [0, 2*pi)."""
        return canonical_angle(p.theta - self.start.theta)

    def contains(self, p: CirclePoint) -> bool:
        d = self.offset_of(p)
        L = self.length
        if d == 0.0:
            # start of the arc; for a full circle also the end point
            if self.closed_left:
                return True
            return L == TWO_PI and self.closed_right
        if L == TWO_PI:
            return True
        if d == L:
            return self.closed_right
        return d < L

    def midpoint(self) -> CirclePoint:
        return CirclePoint(self.start.theta + 0.5 * self.length)

    @staticmethod
    def full_circle() -> "Arc":
        return Arc(CirclePoint(0.0), CirclePoint(0.0), True, False)


def arc_between(theta_start: float, theta_end: float,
                closed_left: bool = True, closed_right: bool = False) -> Arc:
    """Convenience constructor from raw angles."""
    return Arc(CirclePoint(theta_start), CirclePoint(theta_end),
               closed_left, closed_right)


class AtomicMeasure:
    """A finite positive atomic measure on the circle.

    Atoms are kept sorted by angle, strictly separated (rejects pairs
    closer than DUPLICATE_TOL radians), with positive masses.  The empty
    measure is allowed so that restrictions and transforms compose; any
    neighbor-based operation then raises NotEnoughAtoms.
    """

    __slots__ = ("thetas", "masses", "total_mass")

    def __init__(self, thetas, masses):
        thetas = np.asarray(thetas, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if thetas.shape != masses.shape or thetas.ndim != 1:
            raise ValueError("thetas and masses must be 1-d arrays of equal length")
        if thetas.size and np.any(masses <= 0):
            raise ValueError("all masses must be positive")
        thetas = np.mod(thetas, TWO_PI)
        thetas[thetas >= TWO_PI] = 0.0
        order = np.argsort(thetas, kind="stable")
        thetas = thetas[order]
        masses = masses[order]
        if thetas.size >= 2:
            gaps = np.diff(thetas)
            wrap = thetas[0] + TWO_PI - thetas[-1]
            if gaps.min(initial=np.inf) < DUPLICATE_TOL or wrap < DUPLICATE_TOL:
                raise ValueError("duplicate atoms (closer than %g rad)" % DUPLICATE_TOL)
        self.thetas = thetas
        self.masses = masses
        self.total_mass = float(masses.sum())

    @staticmethod
    def empty() -> "AtomicMeasure":
        return AtomicMeasure(np.empty(0), np.empty(0))

    def __len__(self) -> int:
        return self.thetas.size

    @property
    def n_atoms(self) -> int:
        return self.thetas.size

    def point(self, n: int) -> CirclePoint:
        return CirclePoint(self.thetas[n])

    @property
    def points_complex(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    def scaled(self, c: float) -> "AtomicMeasure":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure(self.thetas.copy(), c * self.masses)

    def rotated(self, delta: float) -> "AtomicMeasure":
        return AtomicMeasure(self.thetas + delta, self.masses.copy())

    def membership(self, arc: Arc) -> np.ndarray:
        """Boolean mask of atoms inside the arc, honoring endpoint flags."""
        if not self.thetas.size:
            return np.zeros(0, dtype=bool)
        d = np.mod(self.thetas - arc.start.theta, TWO_PI)
        L = arc.length
        inside = d < L if L < TWO_PI else np.ones_like(d, dtype=bool)
        at_left = d == 0.0
        at_right = d == (L if L < TWO_PI else 0.0)
        inside = inside & ~at_left
        if arc.closed_left:
            inside |= at_left
        if arc.closed_right and L < TWO_PI:
            inside |= at_right
        return inside

    def restricted(self, arc: Arc) -> "AtomicMeasure":
        mask = self.membership(arc)
        return AtomicMeasure(self.thetas[mask], self.masses[mask])

    def neighbor(self, n: int, direction: int) -> int:
        """Index of the circularly adjacent atom (+1 ccw, -1 cw)."""
        if self.n_atoms < 2:
            raise NotEnoughAtoms("neighbor structure needs at least 2 atoms")
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        return (n + direction) % self.n_atoms

    def neighbor_gaps(self, n: int) -> tuple[float, float]:
        """Chordal distances (gap_plus, gap_minus) to the adjacent atoms."""
        ip = self.neighbor(n, +1)
        im = self.neighbor(n, -1)
        gp = float(chord_angles(self.thetas[n], self.thetas[ip]))
        gm = float(chord_angles(self.thetas[n], self.thetas[im]))
        return gp, gm


def measure_of_arc(m: AtomicMeasure, arc: Arc) -> float:
    """Mass that the measure puts on the arc."""
    if not m.n_atoms:
        return 0.0
    return float(m.masses[m.membership(arc)].sum())


def gap_arcs(m: AtomicMeasure) -> list[Arc]:
    """The open arcs between consecutive atoms (cyclically)."""
    if m.n_atoms < 2:
        raise NotEnoughAtoms("gap structure needs at least 2 atoms")
    arcs = []
    for i in range(m.n_atoms):
        j = (i + 1) % m.n_atoms
        arcs.append(arc_between(m.thetas[i], m.thetas[j],
                                closed_left=False, closed_right=False))
    return arcs


def neighbor_constants(m: AtomicMeasure, excluded_points=()) -> tuple[float, float, int, int]:
    """Extremal mass-to-gap ratios (A, B) with witnesses.

    A = min_n  mass_n / max(gap+, gap-),  B = max_n  mass_n / min(gap+, gap-).

    A gap whose open arc contains one of ``excluded_points`` (declared
    accumulation / spectrum points) is dropped: the true neighbor on that
    side is missing from the truncation, so the wrap-around gap is an
    artifact.  Returns (nan, nan, -1, -1) when no atom retains a gap.
    """
    n = m.n_atoms
    if n < 2:
        return float("nan"), float("nan"), -1, -1
    thetas = m.thetas
    nxt = np.roll(thetas, -1)
    gap_fwd = chord_angles(thetas, nxt)  # gap between atom i and atom i+1
    ang_fwd = np.mod(nxt - thetas, TWO_PI)
    crossing = np.zeros(n, dtype=bool)
    for p in excluded_points:
        eta = p.theta if isinstance(p, CirclePoint) else canonical_angle(p)
        d = np.mod(eta - thetas, TWO_PI)
        crossing |= (d > 0) & (d < ang_fwd)
    A = np.inf
    B = -np.inf
    wa = wb = -1
    for i in range(n):
        gaps = []
        if not crossing[i]:
            gaps.append(gap_fwd[i])
        if not crossing[(i - 1) % n]:
            gaps.append(gap_fwd[(i - 1) % n])
        if not gaps:
            continue
        lo = m.masses[i] / max(gaps)
        hi = m.masses[i] / min(gaps)
        if lo < A:
            A, wa = lo, i
        if hi > B:
            B, wb = hi, i
    if wa < 0:
        return float("nan"), float("nan"), -1, -1
    return float(A), float(B), wa, wb


def pairwise_chord_sq(thetas_a, thetas_b):
    """|e^{i a} - e^{i b}|^2 as a dense block, computed in Cartesian form.

    The Cartesian difference stays accurate for nearly coincident atoms,
    where 2 - 2 cos(a - b) would cancel catastrophically.
    """
    xa, ya = np.cos(thetas_a), np.sin(thetas_a)
    xb, yb = np.cos(thetas_b), np.sin(thetas_b)
    return (xa[:, None] - xb[None, :]) ** 2 + (ya[:, None] - yb[None, :]) ** 2
