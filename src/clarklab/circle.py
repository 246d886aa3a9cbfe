"""Circle geometry: points, arcs, and atomic measures on the unit circle.

Angles live in [0, 2*pi).  The canonical metric is the chordal distance
|e^{i a} - e^{i b}| = 2 |sin((a - b)/2)|, which is what every downstream
formula uses; arc length is available separately where a Lebesgue
comparison is wanted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateAtoms, NotEnoughAtoms

TWO_PI = 2.0 * np.pi

#: Atoms closer than this (in radians) are treated as duplicates and
#: rejected at construction; all supported measures have isolated atoms.
DUPLICATE_TOL = 1e-12

#: Largest (points x sources) block in one broadcast sum or product: the
#: package's one pair budget.  A full block's complex temporary is
#: 128 KiB, glibc malloc's default mmap threshold; larger blocks got
#: fresh pages from the OS on every allocation.  On an x86-64 host with
#: numpy 2.4, locating the counterexample:1.0:1024 atoms took 3 minor
#: page faults and 0.6 s at this budget, 261k faults and 1.2 s at 1.5
#: times it.
PAIR_BLOCK = 1 << 13


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
                raise DuplicateAtoms("duplicate atoms (closer than %g rad)" % DUPLICATE_TOL)
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
    # fwd[i - 1] is atom i's backward gap; a dropped gap is nan, which
    # fmax/fmin skip
    fwd = np.where(crossing, np.nan, gap_fwd)
    back = np.roll(fwd, 1)
    lo = m.masses / np.fmax(fwd, back)
    hi = m.masses / np.fmin(fwd, back)
    if np.isnan(lo).all():
        return float("nan"), float("nan"), -1, -1
    # the first index attaining the extremum, as a strict running comparison
    wa, wb = int(np.nanargmin(lo)), int(np.nanargmax(hi))
    return float(lo[wa]), float(hi[wb]), wa, wb


def _blockwise(fn, x, width):
    """fn(x) for a kernel reducing a trailing axis of length width, in
    slices of at most PAIR_BLOCK (points x width) entries."""
    step = max(1, PAIR_BLOCK // max(width, 1))
    if x.size <= step:
        return fn(x)
    flat = x.reshape(-1)
    return np.concatenate([fn(flat[s:s + step])
                           for s in range(0, flat.size, step)]).reshape(x.shape)


#: The pairwise kernels k(d) of kernel_sum, on Cartesian differences d.
KERNELS = {
    "1/d": lambda d: 1.0 / d,
    "1/|d|": lambda d: 1.0 / np.abs(d),
    "1/|d|^2": lambda d: 1.0 / (d.real ** 2 + d.imag ** 2),
}


def kernel_sum(targets, sources, weights, kernel, skip_self=False):
    """sum_m weights_m k(targets_n - sources_m) at every target, with k one
    of KERNELS, in (rows x columns) blocks under PAIR_BLOCK; the result
    has the shape of targets.

    Differences are taken in Cartesian form, which stays accurate for
    nearly coincident points, where 2 - 2 cos(a - b) would cancel.  With
    skip_self the targets are the sources and the term m = n is dropped.
    More than PAIR_BLOCK sources are cut into equal column blocks, whose
    sums are added in order; otherwise each row is one sum.
    """
    k = KERNELS[kernel]
    t = np.asarray(targets)
    flat = t.reshape(-1)
    n = len(sources)
    col_blocks = -(-n // PAIR_BLOCK) or 1  # ceil(n / PAIR_BLOCK)
    width = -(-n // col_blocks) or 1
    step = PAIR_BLOCK // width

    def block(r, c):
        d = flat[r:r + step, None] - sources[c:c + width]
        if skip_self:
            # the terms m = n sit on rows i0..i1 of the block, a stride-(w + 1)
            # run in flat order; every kernel is 0 at inf
            w = d.shape[1]
            i0 = max(0, c - r)
            i1 = max(i0, min(d.shape[0], c + w - r))
            d.flat[i0 * (w + 1) + r - c:i1 * (w + 1) + r - c:w + 1] = np.inf
        return k(d) @ weights[c:c + width]

    def rows(r):
        total = block(r, 0)
        for c in range(width, n, width):
            total = total + block(r, c)
        return total

    return np.concatenate([rows(r) for r in range(0, max(flat.size, 1), step)]).reshape(t.shape)
