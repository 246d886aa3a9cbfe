import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clarklab as cl
from clarklab import circle
from clarklab.circle import canonical_angle, gap_arcs, kernel_sum, neighbor_constants
from clarklab.errors import NotEnoughAtoms

TWO_PI = 2 * np.pi


def test_chord_distance_examples():
    assert cl.chord_distance(cl.CirclePoint(0.0), cl.CirclePoint(0.0)) == 0.0
    assert cl.chord_distance(cl.CirclePoint(0.0), cl.CirclePoint(np.pi)) == pytest.approx(2.0, abs=1e-15)
    assert cl.chord_distance(cl.CirclePoint(0.0), cl.CirclePoint(np.pi / 2)) == pytest.approx(np.sqrt(2), abs=1e-12)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_canonical_angle_range(theta):
    t = canonical_angle(theta)
    assert 0.0 <= t < TWO_PI


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_chord_symmetric(a, b):
    p, q = cl.CirclePoint(a), cl.CirclePoint(b)
    assert cl.chord_distance(p, q) == pytest.approx(cl.chord_distance(q, p), abs=1e-15)
    assert 0.0 <= cl.chord_distance(p, q) <= 2.0 + 1e-15


def test_chord_triangle_inequality(rng):
    # 1e4 random triples
    a, b, c = rng.uniform(0, TWO_PI, (3, 10_000))
    ab = np.abs(2 * np.sin((a - b) / 2))
    bc = np.abs(2 * np.sin((b - c) / 2))
    ac = np.abs(2 * np.sin((a - c) / 2))
    assert np.all(ac <= ab + bc + 1e-12)


def test_arc_membership_flags():
    q = cl.arc_between(-np.pi / 4, np.pi / 4, closed_left=True, closed_right=True)
    assert q.contains(cl.CirclePoint(0.0))
    assert q.contains(cl.CirclePoint(-np.pi / 4))
    assert q.contains(cl.CirclePoint(np.pi / 4))
    q_open = cl.arc_between(-np.pi / 4, np.pi / 4, closed_left=False, closed_right=False)
    assert not q_open.contains(cl.CirclePoint(-np.pi / 4))
    assert not q_open.contains(cl.CirclePoint(np.pi / 4))
    assert q_open.contains(cl.CirclePoint(0.1))
    assert not q_open.contains(cl.CirclePoint(np.pi))


def test_full_circle_arc():
    full = cl.Arc.full_circle()
    assert full.length == pytest.approx(TWO_PI)
    for t in (0.0, 1.0, np.pi, 6.2):
        assert full.contains(cl.CirclePoint(t))


def test_measure_of_arc_z2():
    m = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
    q = cl.arc_between(-np.pi / 4, np.pi / 4, closed_left=True, closed_right=True)
    assert cl.measure_of_arc(m, q) == pytest.approx(0.5)
    assert cl.measure_of_arc(m, cl.Arc.full_circle()) == pytest.approx(1.0)
    assert cl.measure_of_arc(cl.AtomicMeasure.empty(), q) == 0.0


def test_measure_additivity_over_partition(rng):
    thetas = np.sort(rng.uniform(0, TWO_PI, 57))
    masses = rng.uniform(0.1, 2.0, 57)
    m = cl.AtomicMeasure(thetas, masses)
    cuts = np.sort(rng.uniform(0, TWO_PI, 9))
    arcs = [cl.arc_between(cuts[i], cuts[(i + 1) % len(cuts)],
                           closed_left=True, closed_right=False)
            for i in range(len(cuts))]
    total = sum(cl.measure_of_arc(m, a) for a in arcs)
    assert total == pytest.approx(m.total_mass, rel=1e-12)


def test_neighbor_gaps_examples():
    z2 = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
    assert z2.neighbor_gaps(0) == pytest.approx((2.0, 2.0))
    z4 = cl.AtomicMeasure([0, np.pi / 2, np.pi, 3 * np.pi / 2], [0.25] * 4)
    gp, gm = z4.neighbor_gaps(0)
    assert gp == pytest.approx(np.sqrt(2), abs=1e-12)
    assert gm == pytest.approx(np.sqrt(2), abs=1e-12)
    single = cl.AtomicMeasure([1.0], [1.0])
    with pytest.raises(NotEnoughAtoms):
        single.neighbor_gaps(0)


def test_neighbor_structure_is_permutation(rng):
    thetas = np.sort(rng.uniform(0, TWO_PI, 23))
    m = cl.AtomicMeasure(thetas, np.ones(23))
    i = 5
    for _ in range(m.n_atoms):
        i = m.neighbor(i, +1)
    assert i == 5


def test_duplicate_atoms_rejected():
    with pytest.raises(ValueError):
        cl.AtomicMeasure([1.0, 1.0 + 1e-14], [1.0, 1.0])
    with pytest.raises(ValueError):
        cl.AtomicMeasure([0.0, TWO_PI - 1e-14], [1.0, 1.0])  # wrap duplicate


def test_masses_positive_and_total_cached():
    with pytest.raises(ValueError):
        cl.AtomicMeasure([0.0, 1.0], [1.0, -0.5])
    m = cl.AtomicMeasure([0.3, 2.0, 4.0], [1.0, 2.0, 3.0])
    assert m.total_mass == pytest.approx(m.masses.sum(), rel=1e-12)


def test_gap_arcs_cover_circle():
    m = cl.AtomicMeasure([0.0, 1.0, 4.0], [1, 1, 1])
    arcs = gap_arcs(m)
    assert sum(a.length for a in arcs) == pytest.approx(TWO_PI)


def neighbor_constants_loop(m, excluded=()):
    """Reference: one atom at a time, first index on ties."""
    n, th = m.n_atoms, m.thetas
    gap = [abs(2 * math.sin((th[(i + 1) % n] - th[i]) / 2)) for i in range(n)]
    dropped = [any(0 < (eta - th[i]) % TWO_PI < (th[(i + 1) % n] - th[i]) % TWO_PI
                   for eta in excluded) for i in range(n)]
    A, B, wa, wb = math.inf, -math.inf, -1, -1
    for i in range(n):
        gaps = [gap[j] for j in (i, i - 1) if not dropped[j]]
        if gaps and m.masses[i] / max(gaps) < A:
            A, wa = m.masses[i] / max(gaps), i
        if gaps and m.masses[i] / min(gaps) > B:
            B, wb = m.masses[i] / min(gaps), i
    return (A, B, wa, wb) if wa >= 0 else (math.nan, math.nan, -1, -1)


def test_neighbor_constants_exclusion():
    # wrap gap crosses a declared accumulation point at 0 and is dropped
    m = cl.AtomicMeasure([0.1, 0.2, 6.1], [0.05, 0.05, 0.05])
    A_plain, B_plain, _, _ = neighbor_constants(m)
    A_excl, B_excl, _, _ = neighbor_constants(m, excluded_points=[cl.CirclePoint(0.0)])
    assert A_excl >= A_plain  # dropping the artificial wrap gap raises A
    assert np.isfinite(A_excl) and np.isfinite(B_excl)
    # the same figures and witnesses as the plain loop, with 0-2 excluded
    # points; equal gaps (monomial) exercise the first-index tie rule
    measures = [m, cl.exp_clark_data(50).measure,
                cl.clark_data_for(cl.Monomial(16)).measure,
                cl.clark_data_for(cl.CounterexampleBlaschke(1.0, 64)).measure,
                cl.AtomicMeasure([0.5, 2.0], [0.1, 0.3])]
    for measure in measures:
        for excluded in ([], [0.0], [0.0, 1.0]):
            got = neighbor_constants(measure, excluded_points=excluded)
            np.testing.assert_equal(got, neighbor_constants_loop(measure, excluded))
    # both gaps of a two-atom measure cross an excluded point
    assert np.isnan(neighbor_constants(measures[-1], [0.0, 1.0])[:2]).all()


REFERENCE_KERNELS = {"1/d": lambda d: 1 / d, "1/|d|": lambda d: 1 / abs(d),
                     "1/|d|^2": lambda d: 1 / abs(d) ** 2}


@pytest.mark.parametrize("kernel", sorted(circle.KERNELS))
def test_kernel_sum_matches_double_loop(kernel, rng, monkeypatch):
    # reference: a plain double loop summed with math.fsum.  Each term
    # carries a few ulp of rounding and the block sum adds at most
    # (sources) ulp of the absolute sum, so 1e-14 of sum |terms| bounds it.
    k = REFERENCE_KERNELS[kernel]
    circle_kernel = circle.KERNELS[kernel]
    t = rng.uniform(0.2, 0.9, 8) * np.exp(1j * rng.uniform(0, TWO_PI, 8))
    s = np.exp(1j * rng.uniform(0, TWO_PI, 5))
    w = rng.uniform(0.1, 1.0, 5) * np.exp(1j * rng.uniform(0, TWO_PI, 5))

    def ref(tn, sources, skip=None):
        terms = [complex(w[m] * k(tn - sources[m])) for m in range(5) if m != skip]
        return (complex(math.fsum(x.real for x in terms), math.fsum(x.imag for x in terms)),
                math.fsum(abs(x) for x in terms))

    # a budget of 10 pairs puts two targets in each block: four blocks;
    # a budget of 3, below the source count, cuts the sources into column
    # blocks of 3 and 2, one target each; no block exceeds the budget
    blocks = []
    monkeypatch.setitem(circle.KERNELS, kernel,
                        lambda d: blocks.append(d.size) or circle_kernel(d))
    for budget in (10, 3):
        monkeypatch.setattr(circle, "PAIR_BLOCK", budget)
        blocks.clear()
        cases = [(kernel_sum(t.reshape(2, 4), s, w, kernel).ravel(), [ref(x, s) for x in t]),
                 (kernel_sum(s, s, w, kernel, skip_self=True),
                  [ref(x, s, n) for n, x in enumerate(s)])]
        for got, want in cases:
            for g, (value, scale) in zip(got, want, strict=True):
                assert abs(g - value) <= 1e-14 * scale
        assert max(blocks) <= budget
    assert kernel_sum(t.reshape(2, 4), s, w, kernel).shape == (2, 4)
    empty = kernel_sum(t, np.empty(0, complex), np.empty(0), kernel)
    assert empty.shape == t.shape and not empty.any()
