"""Finite sections of the truncated Cauchy transform on L^2(sigma).

On the atoms {zeta_n} with masses {sigma_n} the transform acts as
(C f)(zeta_n) = sum_{m != n} f(zeta_m) sigma_m / (1 - conj(zeta_m) zeta_n);
the diagonal is excluded by definition, so no principal-value
regularization appears.  In the weighted coordinates g_n = f_n sqrt(sigma_n)
the section is the matrix A[n,m] = sqrt(sigma_n sigma_m)/(1 - conj(zeta_m) zeta_n)
with zero diagonal, unitarily equivalent to the section of C on L^2(sigma).

With zeta_n = e^{i theta_n}, 1 - e^{i d} = -2i sin(d/2) e^{i d/2} for
d = theta_n - theta_m, so A = D (i/2) S D* with D = diag(e^{-i theta/2})
unitary and

    S[n,m] = sqrt(sigma_n sigma_m) / sin((theta_n - theta_m)/2),

real and antisymmetric with zero diagonal.  Norms read ||A|| = ||S||/2
from the Gram G = S^T S, and the Tolsa scan reads the same Gram,
weighted.  Neither builds S: partial fractions give each entry of G from
two kernel sums (``_gram_rows``), in real arithmetic from angle
differences, so nearby atoms lose no digits to the cancellation in
1 - conj(zeta_m) zeta_n.  The scan streams the rows of the weighted
Gram's 2-D prefix sum a block at a time and reads both arcs of a pair
of endpoints from the row of the later one, so it holds
O(ROW_BLOCK N) reals and no N x N array.

The section is applied without storing it, in the same half-angle
differences d = (theta_n - theta_m)/2: 1/(1 - e^{2id}) = 1/2 + (i/2) cot d,
so with g = f sigma

    (C f)(zeta_n) = (sum_m g_m - g_n)/2 + (i/2) sum_{m != n} g_m cot d,

a real sum over each pair of atoms once (circle.kernel_sum), with no
complex division and no rounded e^{i theta}.

A section of the exponential family exp((z+1)/(z-1)) on consecutive
lattice labels is a diagonal-unitary conjugate of H_N/(2 pi), H_N[j,k] =
1/(j - k) the discrete Hilbert matrix, so its norm depends on N alone.  A
section that carries its labels (``nested_sections``) has its norm taken
from the half-size block of H_N (``_hilbert_block``) and its products
from ``hilbert_route``; both first check the section against the
family's closed forms (``_lattice_labels``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import (KERNELS, MEMORY_BUDGET, ROW_BLOCK, Arc, AtomicMeasure, TWO_PI, arc_mask,
                     chord_angles, disk_sum, kernel_sum)
from .errors import (AtomOutsideArc, BoundaryAtom, ClarkLabError, DenseCapExceeded,
                     DimensionMismatch, NotEnoughAtoms, WrongFamily)

#: Largest section built densely.  A norm holds two real N x N arrays
#: at once, its Gram and ``np.linalg.eigvalsh``'s copy of it (16 N^2
#: bytes), and ``matrix`` one complex one, MEMORY_BUDGET (1 GiB, so 8192
#: atoms) at the cap.  A Tolsa scan holds no N x N array (ARC_BLOCKS),
#: and ``apply`` needs no dense storage.
DENSE_CAP = math.isqrt(MEMORY_BUDGET // 16)

#: Blocks of ROW_BLOCK x (N + 1) reals that a Tolsa scan holds at once:
#: ``_gram_rows``' two, ``_arc_rows``' one and the scan's temporaries.
#: Its tracemalloc peak was 8.1 to 9.9 blocks from 81 to 16 385 exp
#: atoms (numpy 2.4).
ARC_BLOCKS = 12

#: A labelled section matches the exponential family's closed forms when
#: its atoms lie within LATTICE_ANGLE_TOL (chordal) of the lattice points
#: and its masses within LATTICE_MASS_RTOL of the lattice masses,
#: relative.  Numeric clark_data_for(exp) atoms at the default tol sit
#: within 2.6e-14 rad of the lattice angles, and their masses within
#: about 1.3e-13 N relative at truncation N (2.0e-10 at N = 1500,
#: measured for N = 100..4000), so the mass tolerance admits every
#: truncation short of the DUPLICATE_TOL limit (N near 5.6e5), and an
#: error of 1% in one mass is 1e5 times beyond it.
LATTICE_ANGLE_TOL = 1e-12
LATTICE_MASS_RTOL = 1e-7


class CauchySection:
    """Atoms and masses of a section; the dense matrices are built on
    request and not kept."""

    def __init__(self, measure: AtomicMeasure, lattice_indices=None):
        self.measure = measure
        self.theta = measure.thetas
        self.half = 0.5 * measure.thetas
        self.sigma = measure.masses
        self.N = measure.n_atoms
        # integer lattice labels when the section comes from the
        # single-point-mass exponential family's closed forms
        self.lattice_indices = (None if lattice_indices is None
                                else np.asarray(lattice_indices, dtype=int))

    def matrix(self) -> np.ndarray:
        """Dense A[n,m] = sqrt(sig_n sig_m) (1/2 + (i/2) cot(h_n - h_m)),
        h = theta/2, zero diagonal: the form ``apply`` sums, exactly
        Hermitian since np.tan is odd.  The cot is taken in place in A's
        imaginary part, the real part set to 1 and A scaled by
        sqrt(sig_n sig_m)/2 in blocks of ROW_BLOCK rows, so A is the only
        N x N array.  Raises before allocating when the section is over
        ``DENSE_CAP``."""
        if self.N > DENSE_CAP:
            raise DenseCapExceeded(f"section size {self.N} exceeds dense cap {DENSE_CAP}")
        A = np.empty((self.N, self.N), dtype=complex)
        np.subtract.outer(self.half, self.half, out=A.imag)
        np.fill_diagonal(A.imag, 1.0)
        KERNELS["cot"][0](A.imag)
        A.real = 1.0
        rs = np.sqrt(self.sigma)
        for a in range(0, self.N, ROW_BLOCK):
            A[a:a + ROW_BLOCK] *= np.multiply.outer(0.5 * rs[a:a + ROW_BLOCK], rs)
        np.fill_diagonal(A, 0.0)
        return A

    def cauchy_one_all(self) -> np.ndarray:
        return self.apply(np.ones(self.N))

    def apply(self, f) -> np.ndarray:
        """(C f) at all atoms, in the unweighted coordinates, in the angle
        form of the module docstring."""
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.N,):
            raise DimensionMismatch(f"expected {self.N} values, got {f.shape}")
        g = f * self.sigma
        cot = kernel_sum(self.half, g, "cot")
        return 0.5 * (g.sum() - g) + 0.5j * cot


def nested_sections(measure: AtomicMeasure, sizes, lattice_indices=None) -> list[CauchySection]:
    """Sections over the N largest-mass atoms (ties broken by angle), so
    each section's matrix is a principal submatrix of the next.  Given
    the measure's lattice labels, each section carries its own."""
    order = np.argsort(-measure.masses, kind="stable")
    out = []
    for n in sizes:
        if n > measure.n_atoms:
            raise NotEnoughAtoms(f"requested section size {n} > {measure.n_atoms}")
        idx = np.sort(order[:n])
        out.append(CauchySection(
            AtomicMeasure(measure.thetas[idx], measure.masses[idx]),
            None if lattice_indices is None else np.asarray(lattice_indices)[idx]))
    return out


@dataclass
class OperatorNormEstimate:
    """Norms of nested sections, nondecreasing in the section size by
    nesting, and lower bounds for the norm of the full operator.  A
    section without labels gives ||S_N||/2 from one real symmetric
    eigensolve of the closed-form Gram S_N^T S_N; a labelled exp section
    gives the norm of the closed-form lattice section from the half-size
    Hilbert block.  Each lies within the rounding bound stated in
    ``operator_norm``."""

    sizes: list[int]
    values: list[float]
    #: always True; perfbench's check_norm still reads it
    converged: list[bool]
    #: always 0; perfbench's traced runs still sum it
    iterations: list[int]

    @property
    def last_doubling_growth(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return self.values[-1] / self.values[-2] - 1.0


def operator_norm(measure: AtomicMeasure, sizes, lattice_indices=None) -> OperatorNormEstimate:
    """Norms of nested sections of increasing size (each at least 2).

    The route is chosen from the input alone.  Without lattice labels,
    ||A_N|| = ||S_N||/2 = sqrt(lambda_max(G))/2 with G = S_N^T S_N real
    symmetric, its lower triangle formed entrywise in closed form
    (``_gram``) and passed to one ``np.linalg.eigvalsh`` (LAPACK syevd),
    which reads only that triangle.  ``_gram`` bounds |fl(G) - G| <= E
    entrywise, E symmetric, so the error has 2-norm at most ||E||_F.
    syevd is backward stable, so each computed eigenvalue lies within
    p(N) eps ||G|| of an exact one of fl(G) (LAPACK Users' Guide, 3rd
    ed., section 4.7).  Hence the computed lambda satisfies

        |lambda - ||S||^2| <= ||E||_F + p(N) eps ||S||^2,

    and the value's relative error is at most half of that over ||S||^2.

    With the measure's ``lattice_indices`` (the exponential family's
    labels, as clark_data_for attaches them), every section must match
    the family's closed forms (``_lattice_labels``) and hold consecutive
    labels, which the mass-ordered nesting gives, since the masses at
    +k and -k tie; otherwise WrongFamily is raised, never a silent dense
    fallback.  Such a section is a diagonal-unitary conjugate of
    H_N/(2 pi), H_N[j,k] = 1/(j - k), and the value is the norm of that
    closed-form lattice section, ||B||/(2 pi) with B the half-size block
    of ``_hilbert_block``: sqrt(lambda_max(B B^T))/(2 pi), one eigensolve
    at size n = N // 2.  B's entries are sums of two reciprocals of exact
    integers (sqrt 2 over one in the odd column), so |fl(B) - B| <=
    2 eps B+ entrywise, B+ the same sums of absolute values.  Rounding
    the inner products of B B^T adds at most gamma_n |B|^T |B|, gamma_n =
    n eps/(1 - n eps) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.5), so with p(n) as above the value's
    relative error is at most

        2 eps ||B+||_F/||B|| + (gamma_n ||B||_F^2/||B||^2 + p(n) eps)/2.

    Every size beyond DENSE_CAP is refused before any section's matrix
    is built.  Each value is also a lower bound for the norm of the full
    operator.
    """
    sizes = list(sizes)
    if any(n < 2 for n in sizes):
        raise NotEnoughAtoms(f"section sizes must be at least 2, got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ClarkLabError(f"section sizes must be increasing, got {sizes}")
    sections = nested_sections(measure, sizes, lattice_indices)
    if sizes[-1] > DENSE_CAP:
        raise DenseCapExceeded(f"section size {sizes[-1]} exceeds dense cap {DENSE_CAP}")
    values = [_dense_norm(sec) if sec.lattice_indices is None else _lattice_norm(sec)
              for sec in sections]
    return OperatorNormEstimate(sizes=sizes, values=values,
                                converged=[True] * len(sizes),
                                iterations=[0] * len(sizes))


def _gram_rows(section: CauchySection, lower: bool):
    """The partial fractions of G = S^T S by blocks of ROW_BLOCK rows m,
    shared by ``_gram`` and ``_arc_rows``.  For each block, write t =
    cot(h_m - h_k) and B = K_k - K_m + (sig_m + sig_k) t, h = theta/2 and
    K = kernel_sum(h, sig, "cot"), over the columns k < c: all N of them,
    or up to the block's last row when ``lower``.  Then yield (m, t, B,
    D[m]), D = kernel_sum(h, sig, "1+cot^2").  On the diagonal k = m, t
    and B hold finite values that the callers overwrite.  t and B each
    live in one buffer of ROW_BLOCK rows that serves every block, so a
    caller uses a block before it asks for the next.

    With r = sqrt(sig), G[m,k] = sum_{n != m,k} sig_n r_m r_k /
    (sin(h_n - h_m) sin(h_n - h_k)) for m != k.  The partial fractions
    1/(sin(x - a) sin(x - b)) = (cot(x - a) - cot(x - b))/sin(a - b) split
    it into two sums over n != m,k, of sig_n cot(h_n - h_m) and of
    sig_n cot(h_n - h_k).  With K_j = sum_{n != j} sig_n cot(h_j - h_n)
    they are -K_m + sig_k t and -K_k - sig_m t, so

        G[m,k] = r_m r_k csc(h_m - h_k) B,   G[m,m] = sig_m D_m.

    Rounding, to first order in the unit roundoff u.  Let kappa_j be
    kernel_sum's stated bound on the error of K_j.  The computed t
    carries 1.05 ulp from np.tan and the division (see circle.KERNELS)
    and the rounding of h_m - h_k, which moves it by at most
    u |h_m - h_k| (1 + t^2), and not at all where h_k/2 <= h_m <= 2 h_k
    (Sterbenz).  B takes four roundings, so with M = |K_m| + |K_k| +
    (sig_m + sig_k) |t|

        |dB| <= kappa_m + kappa_k + (sig_m + sig_k) u (1.05 |t|
                + |h_m - h_k| (1 + t^2)) + 4 u M.
    """
    N, half, sig = section.N, section.half, section.sigma
    K = kernel_sum(half, sig, "cot")
    D = kernel_sum(half, sig, "1+cot^2")
    t_buf, B_buf = np.empty((2, min(ROW_BLOCK, N) * N))
    for a in range(0, N, ROW_BLOCK):
        e = min(a + ROW_BLOCK, N)
        m, c = slice(a, e), e if lower else N
        t, B = (buf[:(e - a) * c].reshape(e - a, c) for buf in (t_buf, B_buf))
        np.subtract(half[m, None], half[:c], out=t)
        # any nonzero difference keeps cot finite on the diagonal
        np.fill_diagonal(t[:, m], 1.0)
        KERNELS["cot"][0](t)
        np.add(sig[m, None], sig[:c], out=B)
        B *= t
        B += K[:c]
        B -= K[m, None]
        yield m, t, B, D[m]


def _gram(section: CauchySection) -> np.ndarray:
    """The lower triangle of G = S^T S (operator_norm), zero above it,
    from ``_gram_rows``: atoms are sorted by angle, so h_m > h_k below
    the diagonal and csc(h_m - h_k) = sqrt(1 + t^2) there.  Each block's
    last product is written into G's rows, its square on the diagonal
    whole, its upper part then zeroed; the working set is G and
    ``_gram_rows``' two blocks.

    With _gram_rows' dB, M and t, and delta_m kernel_sum's stated bound on
    the error of D_m: sqrt(1 + t^2) errs by at most u (2.55 + |h_m - h_k|
    |t|) relative, from t's error and its own three roundings, and r_m,
    r_k and the three products add 4 u more, so

        |dG[m,k]| <= r_m r_k sqrt(1 + t^2) (|dB| + u M (7 + |h_m - h_k| |t|)),
        |dG[m,m]| <= sig_m (delta_m + u D_m).
    """
    rs = np.sqrt(section.sigma)
    G = np.zeros((section.N, section.N))
    for m, t, B, D in _gram_rows(section, lower=True):
        B *= np.sqrt(np.add(np.square(t, t), 1.0, t), t)
        B *= rs[:m.stop]
        square = np.multiply(B, rs[m, None], out=G[m, :m.stop])[:, m]
        np.fill_diagonal(square, section.sigma[m] * D)
        square[np.triu_indices(len(square), 1)] = 0.0
    return G


def _dense_norm(section: CauchySection) -> float:
    """||S_N||/2 from the closed-form Gram (operator_norm); eigvalsh reads
    only its lower triangle (UPLO='L')."""
    return 0.5 * float(np.sqrt(np.linalg.eigvalsh(_gram(section))[-1]))


def _hilbert_block(N: int) -> np.ndarray:
    """The n x (N - n) block B, n = N // 2, whose singular values are
    those of H_N[j,k] = 1/(j - k) (zero diagonal).

    H_N is skew-centrosymmetric, J H J = -H with J the order reversal, so
    it maps the vectors with J x = x to those with J x = -x and back (the
    even/odd split of Cantoni and Butler, Linear Algebra Appl. 13, 1976).
    In the orthonormal bases (e_i - e_{N-1-i})/sqrt 2 and (e_j +
    e_{N-1-j})/sqrt 2 for i, j < n, plus e_n for odd N, H is [[0, -B^T],
    [B, 0]] with

        B[i,j] = 1/(i - j) + 1/(i + j - (N - 1)),   B[i,n] = sqrt 2/(i - n),

    the first term 0 on the diagonal; i + j < N - 1, so the second
    denominator is never 0.
    """
    n = N // 2
    i = np.arange(n, dtype=float)
    B = np.empty((n, N - n))
    T = B[:, :n]
    np.subtract.outer(i, i, out=T)
    np.fill_diagonal(T, np.inf)
    np.reciprocal(T, out=T)
    hankel = np.add.outer(i, i - (N - 1))
    T += np.reciprocal(hankel, out=hankel)
    del hankel
    if N % 2:
        B[:, n] = math.sqrt(2.0) / (i - n)
    return B


def _lattice_norm(section: CauchySection) -> float:
    """||A_N|| of a labelled exp section, ||H_N||/(2 pi) (operator_norm)."""
    labels, _ = _lattice_labels(section)
    if np.any(np.diff(np.sort(labels)) != 1):
        raise WrongFamily("section labels are not consecutive")
    B = _hilbert_block(section.N)
    G = B @ B.T
    del B
    return float(np.sqrt(np.linalg.eigvalsh(G)[-1])) / TWO_PI


@dataclass
class TolsaReport:
    """max over arcs Q of ||C chi_Q||_{L^2(sigma)} / sigma(Q)^{1/2}."""

    max_ratio: float
    witness_arc: Arc
    witness_start: int
    witness_count: int
    n_arcs: int


def _arc_rows(section: CauchySection):
    """The rows of P[a,b] = Re <U_a, U_b> for a, b = 0..N (see
    tolsa_scan), in order: yields (first, rows), rows[i] = P[first + i]
    for first = 1, 1 + ROW_BLOCK, ..., each row N + 1 reals with column 0
    zero (P[0] is zero).  P is the 2-D prefix sum P[a,b] = sum_{m<a, k<b}
    W[m,k] of the weighted Gram W[m,k] = G[m,k] Re(conj(c_m) c_k)/4,
    G = S^T S, c = sqrt(sig) e^{ih}, h = theta/2, formed without S and
    without the product S^T S.  With t, B and G's entries from
    ``_gram_rows``, the weight is r_m r_k cos(h_m - h_k)/4, so

        W[m,k] = sig_m sig_k t B/4 (m != k),   W[m,m] = sig_m^2 D_m/4.

    Each block of ROW_BLOCK rows of W is written into one buffer, one
    np.tan per entry (the "cot" kernel), then takes its prefix sums along
    the rows; the carry P[a] += P[a - 1] goes row by row (a cumsum down
    axis 0 walks columns, five times slower at 2049 atoms) from the
    previous block's last row, kept in the buffer's first row, adding in
    the order a row-by-row pass adds.  The next block overwrites the
    buffer.

    Rounding, to first order in the unit roundoff u.  With _gram_rows'
    kappa_j, dB and M, and delta_j kernel_sum's stated bound on the error
    of D_j, W takes three more roundings than B, so

        |dW[m,k]| <= sig_m sig_k (|t| (kappa_m + kappa_k + 10 u M)
                     + 2 u M |h_m - h_k| (1 + t^2))/4,
        |dW[m,m]| <= sig_m^2 (delta_m + 2 u D_m)/4.

    P[a,b] adds its a b entries along a row, then down the carry, so
    |dP[a,b]| <= sum_{m<a, k<b} (|dW[m,k]| + gamma_{a+b} |W[m,k]|),
    gamma_n = n u/(1 - n u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2).  B cancels where atoms m and k are
    close, but what it cancels is of the diagonal's size: D_m >= sig_k
    (1 + t^2) and D_k >= sig_m (1 + t^2), so sig_m sig_k (sig_m + sig_k)
    t^2/4 <= W[m,m] + W[k,k].
    """
    sig, q = section.sigma, 0.25 * section.sigma
    buf = np.zeros((min(ROW_BLOCK, section.N) + 1, section.N + 1))
    for m, t, B, D in _gram_rows(section, lower=False):
        rows = buf[:len(B) + 1]
        B *= t
        B *= sig
        W = np.multiply(B, q[m, None], out=rows[1:, 1:])
        np.fill_diagonal(W[:, m], q[m] * sig[m] * D)
        np.cumsum(W, axis=1, out=W)
        for i in range(1, len(rows)):
            np.add(rows[i], rows[i - 1], out=rows[i])
        yield m.start + 1, rows[1:]
        buf[0] = rows[-1]


def tolsa_scan(section: CauchySection) -> TolsaReport:
    """Scan every arc whose endpoints are midpoints between consecutive
    atoms; since sigma is atomic those arcs realize every contiguous atom
    subset, which is all chi_Q can see.

    With V = A diag(sqrt(sig)) and the cumulative columns
    U_b = sum_{m<b} V[:, m] (U_0 = 0), the arc holding atoms e..b-1 has
    ||C chi_Q|| = ||U_b - U_e||.  Its complement, the arc that starts at
    b and wraps past the last atom to hold b..N-1 and 0..e-1, has
    C chi = C 1 - C chi_Q and so ||U_N - U_b + U_e||.  Both expand in the real Gram P[a,b] =
    Re <U_a, U_b>.  Since A = D (i/2) S D*, A* A = D G D* / 4 with
    G = S^T S, so with c = sqrt(sig) e^{i theta/2}

        P[a,b] = 1/4 sum_{m<a, m'<b} G[m,m'] Re(conj(c_m) c_m'),

    a 2-D prefix sum of G times a rank-two real matrix, whose rows come
    from two kernel sums without G itself (``_arc_rows``).  Both arcs of
    a pair e < b are read from row b, when it arrives: with d[a] = P[a,a],
    the first has norm^2 x = d[e] + d[b] - 2 P[b,e], the second, for
    1 <= e < b < N, x + ||U_N||^2 - 2 P[b,N] + 2 P[e,N], and its mass is
    sigma(T) less the first's.  d and P[., N] are kept as the rows
    arrive, and ||U_N||^2 = sum sig |C 1|^2 comes from one
    ``cauchy_one_all``, so each arc costs O(1) and P is never held.

    The witness is the first maximizer in (start, count) order of the
    ratios read from P; rows arrive in order of the arcs' later ends, so
    ties go to the smallest start (N + 1) + count.  It maximizes the
    ratio up to P's rounding bound (``_arc_rows``): each ||C chi_Q||^2 is
    a sum of at most five entries of P and ||U_N||^2, which cancel.  The
    reported ratio is therefore not read from P but from one ``apply`` on
    the witness arc's indicator.  The working set is ARC_BLOCKS blocks
    of ROW_BLOCK x (N + 1) reals, checked against MEMORY_BUDGET before
    any is allocated; the time is O(N^2).
    """
    N = section.N
    if N < 2:
        raise NotEnoughAtoms("Tolsa scan needs at least 2 atoms")
    need = ARC_BLOCKS * min(ROW_BLOCK, N) * (N + 1) * 8
    if need > MEMORY_BUDGET:
        raise ClarkLabError(f"a Tolsa scan of {N} atoms needs {need} bytes > {MEMORY_BUDGET}")
    cm = np.concatenate([[0.0], np.cumsum(section.sigma)])
    u2 = float(section.sigma @ np.abs(section.cauchy_one_all()) ** 2)
    d, pN = np.zeros(N + 1), np.zeros(N + 1)
    # the pairs e >= b of a block's square, which hold no arc
    upper = ~np.tri(min(ROW_BLOCK, N), k=-1, dtype=bool)
    best = (-np.inf, 0)  # the ratio^2 and minus the key
    for b0, rows in _arc_rows(section):
        sq, c = upper[:len(rows), :len(rows)], b0 + len(rows)
        d[b0:c], pN[b0:c] = rows[:, b0:c].diagonal(), rows[:, N]
        # row i holds the pairs e < b = b0 + i; -inf over a mass in
        # (0, sigma(T)) gives both arcs of a pair e >= b the ratio -inf
        x = d[b0:c, None] + d[:c] - 2.0 * rows[:, :c]
        mass = cm[b0:c, None] - cm[:c]
        np.copyto(x[:, b0:], -np.inf, where=sq)
        np.copyto(mass[:, b0:], 0.5 * cm[N], where=sq)
        plain = x / mass
        x += u2 - 2.0 * pN[b0:c, None]
        x += 2.0 * pN[:c]
        # neither e = 0 nor b = N starts an arc that wraps
        x[:, 0] = x[N - b0:] = -np.inf
        wrapped = np.divide(x, np.subtract(cm[N], mass, out=mass), out=x)
        top = max(plain.max(), wrapped.max())
        if top >= best[0]:
            # keys start (N + 1) + count: e N + b plain, (b + 1) N + e wrapped
            i, e = np.nonzero(plain == top)
            j, f = np.nonzero(wrapped == top)
            keys = np.concatenate([e * N + b0 + i, (b0 + j + 1) * N + f])
            best = max(best, (top, -int(keys.min())))
    a, cnt = divmod(-best[1], N + 1)
    chi = np.zeros(N)
    chi[(a + np.arange(cnt)) % N] = 1.0
    norm2 = float(section.sigma @ np.abs(section.apply(chi)) ** 2)
    ratio = math.sqrt(norm2 / float(section.sigma @ chi))
    if cnt == N:
        arc = Arc.full_circle()
    else:
        th = section.theta
        left = th[(a - 1) % N] + 0.5 * ((th[a] - th[(a - 1) % N]) % TWO_PI)
        j = (a + cnt - 1) % N
        right = th[j] + 0.5 * ((th[(j + 1) % N] - th[j]) % TWO_PI)
        arc = Arc(left, right, closed_left=True, closed_right=True)
    return TolsaReport(max_ratio=ratio, witness_arc=arc, witness_start=a, witness_count=cnt,
                       n_arcs=N + (N - 1) ** 2)


@dataclass
class TailIntegralReport:
    """Tail sum sum_{zeta_j not in Q} sigma_j/|zeta_j - zeta_i|^2 against
    the scale 1/dist(zeta_i, complement of Q)."""

    lhs: float
    rhs_scale: float
    ratio: float


def tail_integral_check(section: CauchySection, Q: Arc, i: int) -> TailIntegralReport:
    theta = section.theta[i:i + 1]
    if not (Q.is_full_circle or arc_mask(theta, Q.start, Q.length)[0]):
        if arc_mask(theta, Q.start, Q.length, True, True)[0]:
            raise BoundaryAtom("atom sits on the boundary of the arc")
        raise AtomOutsideArc("atom must lie strictly inside the arc")
    outside = ~Q.mask(section.theta)
    if not outside.any():
        return TailIntegralReport(lhs=0.0, rhs_scale=0.0, ratio=0.0)
    lhs = float(disk_sum(1.0, theta[0], section.theta[outside], section.sigma[outside])[0, 0])
    dist = min(float(chord_angles(theta[0], Q.start)),
               float(chord_angles(theta[0], Q.start + Q.length)))
    rhs_scale = 1.0 / dist
    return TailIntegralReport(lhs=lhs, rhs_scale=rhs_scale, ratio=lhs / rhs_scale)


def _lattice_labels(section: CauchySection) -> tuple[np.ndarray, np.ndarray]:
    """The section's lattice labels n and the family's closed-form masses
    sigma_n = 2/(4 n^2 pi^2 + 1) at them, once its atoms lie within
    LATTICE_ANGLE_TOL of zeta_n = (2 n pi i + 1)/(2 n pi i - 1) and its
    masses within LATTICE_MASS_RTOL of sigma_n, relative; WrongFamily
    otherwise."""
    if section.lattice_indices is None:
        raise WrongFamily("section carries no lattice labels")
    n = section.lattice_indices
    zeta = (2 * n * np.pi * 1j + 1) / (2 * n * np.pi * 1j - 1)
    sig = 2.0 / (4.0 * n.astype(float) ** 2 * np.pi**2 + 1.0)
    far = float(np.max(np.abs(zeta - section.measure.points_complex)))
    off = float(np.max(np.abs(section.sigma / sig - 1.0)))
    if far > LATTICE_ANGLE_TOL or off > LATTICE_MASS_RTOL:
        raise WrongFamily(
            f"section does not match the family's closed forms: atoms {far:.1e} from the "
            f"lattice points (tolerance {LATTICE_ANGLE_TOL:g}), masses {off:.1e} relative "
            f"from the lattice masses (tolerance {LATTICE_MASS_RTOL:g})")
    return n, sig


def hilbert_route(section: CauchySection, f) -> np.ndarray:
    """Apply the section through the discrete-Hilbert-transform algebra of
    the single-point-mass exponential family:
      x_m = (2 m pi i + 1) f_m sigma_m,
      (C f)(zeta_n) = (2 n pi i - 1)/(4 pi i) * sum_{m != n} x_m/(n - m).
    Requires the section to carry its integer lattice labels and to match
    the family's closed forms (``_lattice_labels``).
    """
    n, sig = _lattice_labels(section)
    f = np.asarray(f, dtype=complex)
    if f.shape != (section.N,):
        raise DimensionMismatch(f"expected {section.N} values, got {f.shape}")
    x = (2 * n * np.pi * 1j + 1) * f * sig
    labels = n.astype(float)
    s = kernel_sum(labels, x, "1/d")
    return (2 * n * np.pi * 1j - 1) / (4j * np.pi) * s
