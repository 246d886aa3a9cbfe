"""Special functions on the line Im z = 1, and the lattice sums they give.

The counterexample family's zeros for alpha = 1 are the Cayley images of
the lattice n + i, n = 1..K (and of -n + i for the symmetrized member).
In the Cayley coordinate y its phase and angular derivative are the sums

    A_K(y) = sum_{n=1}^K arg(n - y + i),   S_K(y) = sum_{n=1}^K 1/((n - y)^2 + 1),

which telescope, through arg(s + i) = G(s + 1) - G(s) and
1/(s^2 + 1) = Q(s) - Q(s + 1), into differences of

    G(s) = Im lnGamma(s + i),   Q(s) = Im psi(s + i),

so a point costs O(1) whatever K.  lnGamma is the principal branch,
analytic in the upper half-plane, so G is continuous in s.

Accuracy, with eps = 2^-52 (pinned against 40-digit values in
tests/test_special.py):
  G(s), absolute:    eps (2 log(s + 11) + 16)
  Q(s), relative:    4 eps
  A_K(y), absolute:  eps (2 pi m + 4 log(|y| + K + 11) + 40),  m = #{n <= K : n < y}
  S_K(y), relative:  16 eps
The 2 pi m is the rounding of pi m and of A_K itself.  Outside the
lattice S_K is a difference of two values of Q, each about 1/dist and
the difference about K/dist^2; from dist >= SHIFT on it is summed without
that cancellation (_digamma_gap).  The bounds are for the float y given;
an error dy in y itself moves A_K by S_K dy.
"""
from __future__ import annotations

import math

import numpy as np

#: Arguments below SHIFT are raised by the recurrence to [SHIFT, SHIFT + 1)
#: before the Stirling series is summed.
SHIFT = 10.0

# sinh and cosh of pi and 2 pi, for the reflection formulas
_SINH_PI, _COSH_PI, _SINH_2PI, _COSH_2PI = (f(c * math.pi) for c in (1, 2)
                                            for f in (math.sinh, math.cosh))

# B_2k for k = 1..8 (DLMF 24.2.1): the series' coefficients are
# B_2k / (2k (2k - 1)) for lnGamma and B_2k / (2k) for psi.  The first
# neglected terms, at |z| >= SHIFT and |ph z| <= 0.1, are below 2e-18 and
# 3.1e-18 (DLMF 5.11.ii: times sec^18(ph z / 2) < 1.03), so the series'
# own error is beneath the rounding.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _series(t, lngamma):
    """Im sum_k B_2k w^(2k-1) / (2k (2k-1)) (lngamma) or
    Im sum_k B_2k w^(2k) / (2k) (psi) at w = 1/(t + i), by Horner's rule
    in w^2."""
    w = (t - 1j) * (1.0 / (t * t + 1.0))
    w2 = w * w
    out = np.zeros(w2.shape, dtype=complex)
    for k, b in reversed(list(enumerate(_BERNOULLI, 1))):
        out = out * w2 + (b / (2 * k * (2 * k - 1)) if lngamma else b / (2 * k))
    return (out * (w if lngamma else w2)).imag


def im_gamma_line(s, digamma):
    """(G(s), Q(s)) = (Im lnGamma(s + i), Im psi(s + i)) at every s >= 0
    of the ndarray s; Q comes back as None when digamma is false.

    Below SHIFT the recurrence
      G(s) = G(s + n) - sum_{j<n} arg(s + j + i),
      Q(s) = Q(s + n) + sum_{j<n} 1/((s + j)^2 + 1)
    raises s to t = s + n in [SHIFT, SHIFT + 1); at t the Stirling series
    (DLMF 5.11.1, 5.11.2) with z = t + i, w = 1/z gives
      G = (t - 1/2) arg z + log|z| - 1 + Im sum_k B_2k w^(2k-1) / (2k (2k-1)),
      Q = arg z + |w|^2 / 2 - Im sum_k B_2k w^(2k) / (2k).
    Every part of Q is positive or below eps of it, so Q keeps a relative
    bound; the parts of G are O(log t), so G keeps an absolute one (see
    the module docstring).
    """
    n = np.maximum(np.ceil(SHIFT - s), 0.0)
    t = s + n
    arg = np.arctan2(1.0, t)
    G, Q = (t - 0.5) * arg + np.log(np.hypot(t, 1.0)) - 1.0 + _series(t, True), None
    if digamma:
        Q = arg + 0.5 / (t * t + 1.0) - _series(t, False)
    low = n > 0
    if low.any():
        sl, nl = s[low], n[low]
        dG = dQ = 0.0
        for j in range(int(nl.max())):
            u = np.where(j < nl, sl + j, np.inf)  # inf: a term of 0 in both sums
            dG = dG + np.arctan2(1.0, u)
            if digamma:
                dQ = dQ + 1.0 / (u * u + 1.0)
        G[low] -= dG
        if digamma:
            Q[low] += dQ
    return G, Q


def _digamma_gap(a, K):
    """Q(a) - Q(a + K) for a >= SHIFT, from the Stirling series of both
    with the leading parts subtracted in closed form:
    arg(a + i) - arg(b + i) = arctan2(K, a b + 1) and
    (1/(a^2 + 1) - 1/(b^2 + 1)) / 2 = K (a + b) / (2 (a^2 + 1)(b^2 + 1)),
    b = a + K.  Both values of Q are about 1/a, their difference about
    K/a^2; the series' terms, O(1/a^3), cancel to eps/a^3 each."""
    b = a + K
    series = _series(np.concatenate((a, b)), False).reshape(2, -1)
    return (np.arctan2(K, a * b + 1.0) + 0.5 * K * (a + b) / (a * a + 1.0) / (b * b + 1.0)
            - series[0] + series[1])


def lattice_sums(K, y, derivative):
    """(A_K(y), S_K(y)) at every finite y of the ndarray y, K a whole
    number or an array of them that broadcasts with y (see the module
    docstring); S_K comes back as None when derivative is false.

    The m = #{n <= K : n < y} terms left of y are reflected,
    arg(n - y + i) = pi - arg(y - n + i), so that G and Q are read only
    at arguments s >= 0:
      A_K = pi m + G(K + 1 - y) - G(m + 1 - y) - G(y) + G(y - m),
      S_K = Q(m + 1 - y) - Q(K + 1 - y) + Q(y - m) - Q(y).
    When 0 < m < K the arguments f = m + 1 - y and 1 - f = y - m lie in
    [0, 1], and their pair is summed in closed form by the reflection
    formulas of lnGamma and psi (DLMF 5.5.3, 5.5.4):
      G(1 - f) - G(f) = arg(sin(pi f) cosh(pi) + i cos(pi f) sinh(pi)),
      Q(f) + Q(1 - f) = pi sinh(2 pi) / (cosh(2 pi) - cos(2 pi f)).
    When m = 0 (or m = K) the left (right) sum is empty and its
    neighbour's partner is read in its place, so G and Q are read at two
    arguments p, q >= 0 per point in every case.
    """
    K = np.broadcast_to(K, y.shape)
    m = np.clip(np.ceil(y) - 1.0, 0.0, K)
    right, left = m < K, m > 0
    mid = right & left
    p = np.where(right, K + 1.0 - y, y - K)
    q = np.where(left, y, 1.0 - y)
    f = np.where(mid, m + 1.0 - y, 0.5)
    G, Q = im_gamma_line(np.concatenate((p, q)), derivative)
    G = G.reshape((2,) + y.shape)
    A = (np.pi * m + (G[0] - G[1])
         + np.where(mid, np.arctan2(np.cos(np.pi * f) * _SINH_PI,
                                    np.sin(np.pi * f) * _COSH_PI), 0.0))
    S = None
    if derivative:
        Q = Q.reshape((2,) + y.shape)
        S = (np.where(right, -Q[0], Q[0]) + np.where(left, -Q[1], Q[1])
             + np.where(mid, np.pi * _SINH_2PI / (_COSH_2PI - np.cos(2 * np.pi * f)), 0.0))
        # outside the lattice S_K = Q(a) - Q(a + K), a = min(p, q)
        far = ~mid & (np.minimum(p, q) >= SHIFT)
        if far.any():
            S[far] = _digamma_gap(np.minimum(p, q)[far], K[far])
    return A, S
