"""Circle geometry: points, arcs, and atomic measures on the unit circle.

Angles live in [0, 2*pi).  The canonical metric is the chordal distance
|e^{i a} - e^{i b}| = 2 |sin((a - b)/2)|, which is what every downstream
formula uses; arc length is available separately where a Lebesgue
comparison is wanted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateAtoms, InvalidAngle, InvalidMeasure

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
#: times it.  That bound governs the temporaries of every 2-D block;
#: kernel_sum's loop over sources, which PAIR_BLOCK or more targets take,
#: runs over this many targets at a time in buffers it allocates once.
PAIR_BLOCK = 1 << 13


def canonical_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi).

    Python's float % rounds as np.mod does, sign of zero included, at a
    small fraction of a ufunc call's cost."""
    t = float(theta) % TWO_PI
    # % may return 2*pi itself for tiny negative inputs
    return 0.0 if t >= TWO_PI else t


def canonical_angles(theta: np.ndarray) -> np.ndarray:
    """canonical_angle on each entry of a float array, into a new array."""
    t = np.mod(theta, TWO_PI)
    t[t >= TWO_PI] = 0.0
    return t


def chord_angles(a, b):
    """Chordal distance between angles (vectorized)."""
    return np.abs(2.0 * np.sin(0.5 * (np.asarray(a) - np.asarray(b))))


@dataclass(frozen=True)
class CirclePoint:
    """A point e^{i theta} on the unit circle."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise InvalidAngle(f"angle must be finite, got {self.theta}")
        object.__setattr__(self, "theta", canonical_angle(self.theta))

    @property
    def complex(self) -> complex:
        return complex(np.cos(self.theta), np.sin(self.theta))


def chord_distance(p: CirclePoint, q: CirclePoint) -> float:
    """|e^{i p} - e^{i q}| = 2 |sin((p - q)/2)|, in [0, 2]."""
    return float(chord_angles(p.theta, q.theta))


@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc from ``start`` to ``end``.

    ``start == end`` denotes the full circle (length 2*pi); zero-length
    arcs are not representable.  Endpoint membership follows the
    closed-left / closed-right flags; on the full circle the start is
    also the end, so either flag closes it.
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

    def mask(self, thetas) -> np.ndarray:
        """Boolean mask of the angles inside the arc, their offsets taken
        as offset_of takes them."""
        d = canonical_angles(np.asarray(thetas, dtype=float) - self.start.theta)
        L = self.length
        at_start = d == 0.0
        at_end = at_start if L == TWO_PI else d == L
        return (~at_start & (d < L)) | (self.closed_left & at_start) | (self.closed_right & at_end)

    def contains(self, p: CirclePoint) -> bool:
        return bool(self.mask([p.theta])[0])

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
    closer than DUPLICATE_TOL radians), with finite angles and finite
    positive masses; other input raises InvalidMeasure.  The empty
    measure is allowed so that restrictions and transforms compose.

    ``gaps[i]`` is the angle from atom i to the next one, cyclically, and
    ``chord_gaps[i]`` the chord between them, computed on first use.
    """

    __slots__ = ("thetas", "masses", "total_mass", "gaps", "_chord_gaps")

    def __init__(self, thetas, masses):
        thetas = np.asarray(thetas, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if thetas.shape != masses.shape or thetas.ndim != 1:
            raise InvalidMeasure("thetas and masses must be 1-d arrays of equal length")
        if not (np.isfinite(thetas).all() and np.isfinite(masses).all()):
            raise InvalidMeasure("thetas and masses must be finite")
        if np.any(masses <= 0):
            raise InvalidMeasure("all masses must be positive")
        thetas = canonical_angles(thetas)
        order = np.argsort(thetas, kind="stable")
        thetas = thetas[order]
        masses = masses[order]
        gaps = np.diff(thetas, append=thetas[:1] + TWO_PI)
        if gaps.min(initial=np.inf) < DUPLICATE_TOL:
            raise DuplicateAtoms("duplicate atoms (closer than %g rad)" % DUPLICATE_TOL)
        self.thetas = thetas
        self.masses = masses
        self.total_mass = float(masses.sum())
        self.gaps = gaps
        self._chord_gaps = None

    @staticmethod
    def empty() -> "AtomicMeasure":
        return AtomicMeasure(np.empty(0), np.empty(0))

    def __len__(self) -> int:
        return self.thetas.size

    @property
    def n_atoms(self) -> int:
        return self.thetas.size

    @property
    def chord_gaps(self) -> np.ndarray:
        if self._chord_gaps is None:
            self._chord_gaps = chord_angles(self.thetas, np.roll(self.thetas, -1))
        return self._chord_gaps

    @property
    def points_complex(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    def rotated(self, delta: float) -> "AtomicMeasure":
        return AtomicMeasure(self.thetas + delta, self.masses.copy())

    def membership(self, arc: Arc) -> np.ndarray:
        """Boolean mask of atoms inside the arc, honoring endpoint flags."""
        return arc.mask(self.thetas)


def measure_of_arc(m: AtomicMeasure, arc: Arc) -> float:
    """Mass that the measure puts on the arc."""
    return float(m.masses[m.membership(arc)].sum())


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
    crossing = np.zeros(n, dtype=bool)
    for p in excluded_points:
        eta = p.theta if isinstance(p, CirclePoint) else canonical_angle(p)
        d = np.mod(eta - m.thetas, TWO_PI)
        crossing |= (d > 0) & (d < m.gaps)
    # fwd[i - 1] is atom i's backward gap; a dropped gap is nan, which
    # fmax/fmin skip
    fwd = np.where(crossing, np.nan, m.chord_gaps)
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


def _inverse(d, dy=None, c=1.0):
    """c/d."""
    if dy is not None:
        d = d + 1j * dy
    return np.divide(c, d, d)


def _inverse_modulus(d, dy=None, c=1.0):
    """c/|d|."""
    r = np.abs(d) if dy is None else np.hypot(d, dy, d)
    return np.divide(c, r, r)


def _inverse_square(d, dy=None, c=1.0):
    """c/|d|^2."""
    if dy is None:
        q = d.real ** 2 + d.imag ** 2
    else:
        q = np.add(np.square(d, d), np.square(dy, dy), d)
    return np.divide(c, q, q)


#: The pairwise kernels of kernel_sum: k(d, dy=None, c=1.0) is c k(d + i dy)
#: for a real c.  The difference comes whole in d (real or complex), or
#: as its real and imaginary parts d and dy; either way the kernel may
#: overwrite its arguments, and returns its values in place where it can.
#: The in-place ufunc calls here and in _by_source pass their output
#: positionally: they run once per source and run of targets, where the
#: out= keyword cost about 5% of the 20 001-atom square sum (2-core Xeon,
#: numpy 2.4).
KERNELS = {"1/d": _inverse, "1/|d|": _inverse_modulus, "1/|d|^2": _inverse_square}


def kernel_sum(targets, sources, weights, kernel, skip_self=False):
    """sum_m weights_m k(targets_n - sources_m) at every target, with k one
    of KERNELS; the result has the shape of targets.

    Differences are taken in Cartesian form, which stays accurate for
    nearly coincident points, where 2 - 2 cos(a - b) would cancel.  With
    skip_self the targets are the sources and the term m = n is dropped:
    its difference is set to inf, where every kernel is 0.

    The loop order follows the target count alone.  Fewer than PAIR_BLOCK
    targets go in (rows x columns) blocks of at most PAIR_BLOCK pairs;
    more than PAIR_BLOCK sources are cut into equal column blocks.  Each
    block's row sums are one BLAS product, and each row's sum over a block
    of w terms errs by at most gamma_w = w u/(1 - w u) times the sum of
    their moduli, u the unit roundoff, in whatever order BLAS adds them
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1); the column blocks' sums are then added in order.
    PAIR_BLOCK or more targets go one source at a time, in 1-D passes over
    runs of at most PAIR_BLOCK targets with the differences in reused
    buffers; the sum over S sources is then recursive and errs by at most
    (S - 1) u times the sum of the terms' moduli (Higham, section 4.2).
    Either way each term also carries the few ulp of rounding of its
    kernel.
    """
    k = KERNELS[kernel]
    t = np.asarray(targets)
    flat = t.reshape(-1)
    if flat.size >= PAIR_BLOCK:
        return _by_source(k, flat, sources, weights, skip_self).reshape(t.shape)
    n = len(sources)
    col_blocks = -(-n // PAIR_BLOCK) or 1  # ceil(n / PAIR_BLOCK)
    width = -(-n // col_blocks) or 1
    step = PAIR_BLOCK // width

    def block(r, c):
        d = flat[r:r + step, None] - sources[c:c + width]
        if skip_self:
            # the terms m = n sit on rows i0..i1 of the block, a stride-(w + 1)
            # run in flat order
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


def _by_source(k, flat, sources, weights, skip_self):
    """kernel_sum's loop over sources for PAIR_BLOCK or more targets.  Real
    weights fold into the kernel's numerator, and complex differences then
    go to the kernel as their real and imaginary parts; complex weights
    multiply the kernel's values on the whole differences."""
    fold = np.isrealobj(weights)
    split = fold and (np.iscomplexobj(flat) or np.iscomplexobj(sources))
    tx, sx = (flat.real, sources.real) if split else (flat, sources)
    x = np.empty(PAIR_BLOCK, np.result_type(tx, sx))
    tx, sx = np.ascontiguousarray(tx), sx.tolist()
    if split:
        ty, y, sy = np.ascontiguousarray(flat.imag), np.empty(PAIR_BLOCK), sources.imag.tolist()
    dy = None
    w = weights.tolist()
    runs = []
    for r in range(0, flat.size, PAIR_BLOCK):
        size = min(PAIR_BLOCK, flat.size - r)
        xr, dx = tx[r:r + size], x[:size]
        if split:
            yr, dy = ty[r:r + size], y[:size]
        acc = np.zeros(size)
        for m in range(len(w)):
            np.subtract(xr, sx[m], dx)
            if split:
                np.subtract(yr, sy[m], dy)
            if skip_self and 0 <= m - r < size:
                dx[m - r] = np.inf
            term = k(dx, dy, w[m]) if fold else w[m] * k(dx)
            if m:
                np.add(acc, term, acc)
            else:
                acc = term.copy()
        runs.append(acc)
    return np.concatenate(runs)
