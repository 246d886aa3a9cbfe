"""Circle geometry: angles, arcs, and atomic measures on the unit circle.

A point e^{i theta} is its angle theta, a plain float (or an array of
them) kept canonical in [0, 2*pi) by canonical_angle(s); angles given
from outside the package pass finite_angle, which refuses non-finite
ones.  An Arc is two such angles and two endpoint flags.

The canonical metric is the chordal distance |e^{i a} - e^{i b}| =
2 |sin((a - b)/2)| (chord_angles), which is what every downstream
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

#: Bytes that one working set may hold, checked before it is allocated:
#: a dense section's two real N x N arrays (cauchy.DENSE_CAP is derived
#: from it), a Tolsa scan's blocks of rows (cauchy.ARC_BLOCKS), an inner
#: function's zeros (inner.ZERO_BYTES each) and the levels of one atom
#: search (clark.LEVEL_BYTES each).
MEMORY_BUDGET = 1 << 30

#: Largest (points x sources) block in one broadcast sum or product: the
#: package's pair budget for temporaries built by broadcasting.  A full
#: block's complex temporary is 128 KiB, glibc malloc's default mmap
#: threshold; larger blocks got fresh pages from the OS on every
#: allocation.  On an x86-64 host with numpy 2.4, locating the
#: counterexample:1.0:1024 atoms took 3 minor page faults and 0.6 s at
#: this budget, 261k faults and 1.2 s at 1.5 times it.  Its readers are
#: ``inner._phase`` and ``inner._blockwise``; kernel_sum, disk_sum and
#: the Cauchy sections work in buffers allocated once per call instead
#: (ROW_BLOCK, DISK_BLOCK).
PAIR_BLOCK = 1 << 13

#: Entries of disk_sum's two buffers together, a block of squared
#: half-angle sines and one radius's work block of as many, each of
#: DISK_BLOCK // (2 sources) angles: so many that Python's per-block cost
#: stays small.  On exp N = 200 (401 atoms) the scan set is 63 312 points
#: and its refinement level 10 496; the scan's rings 8..21 (14 radii x
#: 4096 angles) took 32-40, 28-35, 26-31, 26-31 and 28-31 ms at 2^14 to
#: 2^18 entries (best of 7 in three runs, x86-64 Xeon, numpy 2.4, one BLAS
#: thread).  2^16 is the smaller of the two fastest: 512 KiB.
DISK_BLOCK = 1 << 16

#: Rows per block in kernel_sum's upper-triangle pass and in
#: ``cauchy._gram_rows``, which writes the Gram of a Cauchy section: the
#: norm's lower triangle (``cauchy._gram``) and the Tolsa scan's weighted
#: full rows with their prefix sums, streamed a block at a time
#: (``cauchy._arc_rows``); ``CauchySection.matrix`` scales its rows in
#: blocks of as many.
ROW_BLOCK = 32


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


def finite_angle(theta) -> float:
    """canonical_angle of an angle given from outside the package, which
    raises InvalidAngle unless it is finite: the one check on such angles
    (arc endpoints, declared accumulation points of a Blaschke product or
    of bessonov_check, the point of an angular derivative)."""
    if not math.isfinite(theta):
        raise InvalidAngle(f"angle must be finite, got {theta}")
    return canonical_angle(theta)


@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc from the angle ``start`` to the angle ``end``,
    both finite (else InvalidAngle) and kept canonical.

    ``start == end`` denotes the full circle (length 2*pi); zero-length
    arcs are not representable.  Endpoint membership follows the
    closed-left / closed-right flags; on the full circle the start is
    also the end, so either flag closes it.
    """

    start: float
    end: float
    closed_left: bool = True
    closed_right: bool = False

    def __post_init__(self):
        object.__setattr__(self, "start", finite_angle(self.start))
        object.__setattr__(self, "end", finite_angle(self.end))

    @property
    def length(self) -> float:
        """Angular length in (0, 2*pi]."""
        d = canonical_angle(self.end - self.start)
        return TWO_PI if d == 0.0 else d

    @property
    def is_full_circle(self) -> bool:
        return self.length == TWO_PI

    def mask(self, thetas) -> np.ndarray:
        """Boolean mask of the angles inside the arc (see arc_mask)."""
        return arc_mask(thetas, self.start, self.length, self.closed_left, self.closed_right)

    @staticmethod
    def full_circle() -> "Arc":
        return Arc(0.0, 0.0, True, False)


def arc_mask(thetas, starts, lengths, closed_left=False, closed_right=False) -> np.ndarray:
    """Whether each angle lies in the counterclockwise arc of the given
    length in (0, 2*pi] from its start, broadcast over angles and arcs:
    the package's one arc-membership rule.  An angle's offset is
    canonical_angles(theta - start); the open arc is 0 < offset < length,
    and the flags add its endpoints.  On a full circle the start is also
    the end, so either flag closes it."""
    d = canonical_angles(np.asarray(thetas, dtype=float) - starts)
    at_start = d == 0.0
    at_end = np.where(np.equal(lengths, TWO_PI), at_start, d == lengths)
    return ((d > 0.0) & (d < lengths)) | (closed_left & at_start) | (closed_right & at_end)


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


def gaps_holding(m: AtomicMeasure, angles) -> np.ndarray:
    """Whether the open arc of each gap, from atom i to the next atom,
    holds one of the angles (an array-like)."""
    eta = canonical_angles(np.array(angles, dtype=float).reshape(-1, 1))
    return arc_mask(eta, m.thetas, m.gaps).any(axis=0)


def neighbor_constants(m: AtomicMeasure, excluded_points=()) -> tuple[float, float, int, int]:
    """Extremal mass-to-gap ratios (A, B) with witnesses.

    A = min_n  mass_n / max(gap+, gap-),  B = max_n  mass_n / min(gap+, gap-).

    A gap whose open arc holds one of the angles ``excluded_points``
    (declared accumulation / spectrum points; see gaps_holding) is
    dropped: the true neighbor on that side is missing from the
    truncation, so the wrap-around gap is an artifact.  Returns (nan, nan, -1, -1) when no atom retains a gap.
    """
    n = m.n_atoms
    if n < 2:
        return float("nan"), float("nan"), -1, -1
    crossing = gaps_holding(m, excluded_points)
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


def _inverse(d):
    """1/d."""
    return np.divide(1.0, d, d)


def _cot(d):
    """cot d, as 1/tan d."""
    return np.divide(1.0, np.tan(d, d), d)


def _csc_square(d):
    """1 + cot^2 d = 1/sin^2 d, as 1/tan^2 d + 1."""
    t = np.square(np.tan(d, d), d)
    return np.add(np.divide(1.0, t, t), 1.0, t)


def _csc_modulus(d):
    """sqrt(1 + cot^2 d) = 1/|sin d|."""
    return np.sqrt(_csc_square(d), d)


#: The pairwise kernels of kernel_sum, with their parity: k(d) for a real
#: difference d, which k may overwrite and returns its values in, and
#: k(-d) = parity k(d).  The cot kernels are the circle's Cartesian ones in
#: the half-angle difference d = (a - b)/2, since |e^{ia} - e^{ib}| =
#: 2 |sin d| and 1/sin^2 d = 1 + cot^2 d.  np.tan is within 0.55 ulp on
#: 29k arguments checked against mpmath (numpy 2.4, x86-64) and costs
#: about a fifth of np.sin.
KERNELS = {"1/d": (_inverse, -1), "cot": (_cot, -1), "1+cot^2": (_csc_square, 1),
           "sqrt(1+cot^2)": (_csc_modulus, 1)}


def kernel_sum(x, weights, kernel):
    """sum_{m != n} weights_m k(x_n - x_m) at every n of a real 1-D array
    x, with k one of KERNELS, each pair once.

    The upper triangle goes by blocks of ROW_BLOCK rows from their
    diagonal on, in one buffer allocated per call: a block T[i, j] = k(x_{r+i} - x_{r+j}) gives its own
    rows as T @ w, and by the kernel's parity the rows below it as
    parity (T^T @ w_block).  Only the ROW_BLOCK x ROW_BLOCK squares on the
    diagonal are evaluated whole, both triangles, which adds ROW_BLOCK/N to
    the pairs.  Complex weights go in as two real columns.

    Row n's sum is one BLAS product over at most N terms, added after the
    p = n // ROW_BLOCK products over at most ROW_BLOCK terms that the row
    blocks above it pass down, in block order.  It errs by at most
    gamma_{N + p} = (N + p) u/(1 - (N + p) u) times the sum of its terms'
    moduli, u the unit roundoff, in whatever order BLAS adds (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1
    and 4.2); each part of a complex-weighted sum errs by as much over the
    moduli of its real terms.  Each term carries the rounding of its
    difference x_n - x_m, which is exact when x_m/2 <= x_n <= 2 x_m
    (Sterbenz), and at most 3 ulp from its kernel: 0.55 ulp from np.tan
    (see KERNELS) and 0.5 ulp from each further operation.
    """
    k, parity = KERNELS[kernel]
    x = np.asarray(x)
    N = x.size
    real = np.isrealobj(weights)
    w = weights[:, None] if real else np.stack([weights.real, weights.imag], axis=1)
    out = np.zeros(w.shape)
    buf = np.empty(min(ROW_BLOCK, N) * N)
    for r in range(0, N, ROW_BLOCK):
        e = min(r + ROW_BLOCK, N)
        T = buf[:(e - r) * (N - r)].reshape(e - r, N - r)
        np.subtract.outer(x[r:e], x[r:], out=T)
        # any nonzero difference keeps every kernel finite on the diagonal,
        # which is then zeroed
        np.fill_diagonal(T, 1.0)
        T = k(T)
        np.fill_diagonal(T, 0.0)
        out[r:e] += T @ w[r:]
        out[e:] += parity * (T[:, e - r:].T @ w[r:e])
    return out[:, 0] if real else out[:, 0] + 1j * out[:, 1]


def disk_sum(r, phi, theta, weights):
    """The disk sum sum_m w_m/|z - zeta_m|^2 on the polar grid
    z = r e^{i phi} of 1-D radii r >= 0 and 1-D angles phi (scalars count
    as one), to the points zeta = e^{i theta}, as a (radii, angles) array.

    It takes the half-angle form |z - zeta|^2 = 4r (s^2 + c_r),
    s = sin((phi - theta)/2) and c_r = (1 - r)^2/(4r) (0 on the circle),
    the sine as the rank-2 BLAS product sin(phi/2) cos(theta/2) -
    cos(phi/2) sin(theta/2).  np.sin and np.cos are within 0.52 ulp on 22k
    arguments checked against mpmath (numpy 2.4, x86-64), so s errs by at
    most 3.08 u + u |s|, u the unit roundoff; s^2 + c_r by 6.16 u |s| +
    5 u (s^2 + c_r), and |s|/(s^2 + c_r) <= 2 sqrt(r)/|z - zeta|.  With the
    reciprocal and the division by 4r each term errs by at most
    (13 sqrt(r)/|z - zeta| + 7) u of itself, to first order, and each
    row's BLAS sum by gamma_N of its terms' sum (Higham, section 3.1).
    1 - r is exact for r in [1/2, 2] (Sterbenz): exact polar inputs keep
    it, where a complex z rounds |z|.  A row with r < 2^-60 is the sum of
    the weights itself (c_r overflows at r = 0, and its reciprocal
    underflows near it): exact at r = 0, and within 6r of every term,
    relative, elsewhere.

    Each block of angles takes s^2 once into one buffer, and each radius
    then adds c_r to it into a second one (none on the circle), takes
    reciprocals and multiplies by the weights; the two buffers together
    hold at most DISK_BLOCK entries, allocated per call.  Each row is
    divided by 4r at the end, so a row's value depends on its radius
    alone, whatever other radii share the call.
    """
    r, phi = np.atleast_1d(np.asarray(r, dtype=float), np.asarray(phi, dtype=float))
    # rows with r < 2^-60 are overwritten at the end
    r4 = 4.0 * np.maximum(r, 2.0 ** -60)
    c = np.square(1.0 - r) / r4
    half = 0.5 * phi
    lhs = np.stack([np.sin(half), -np.cos(half)], axis=1)
    rhs = np.stack([np.cos(0.5 * theta), np.sin(0.5 * theta)])
    n, N = phi.size, theta.size
    cols = max(1, DISK_BLOCK // (2 * max(N, 1)))
    buf = np.empty(2 * min(cols, n) * N)
    out = np.empty((r.size, n), np.result_type(weights, float))
    for s in range(0, n, cols):
        e = min(s + cols, n)
        sq, q = buf[:2 * (e - s) * N].reshape(2, e - s, N)
        np.square(np.matmul(lhs[s:e], rhs, out=sq), sq)
        for i, ci in enumerate(c):
            np.divide(1.0, np.add(sq, ci, q) if ci else sq, q)
            np.matmul(q, weights, out=out[i, s:e])
    out /= r4[:, None]
    out[r < 2.0 ** -60] = np.sum(weights)
    return out
