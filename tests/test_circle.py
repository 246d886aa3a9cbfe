import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clarklab as cl
from clarklab import circle
from clarklab.circle import (arc_mask, canonical_angle, canonical_angles, chord_angles, disk_sum,
                             gaps_holding, kernel_sum, neighbor_constants)
from clarklab.errors import ClarkLabError, InvalidAngle, InvalidMeasure
from oracles import measure_of_arc

TWO_PI = 2 * np.pi


def test_chord_distance_examples():
    assert chord_angles(0.0, 0.0) == 0.0
    assert chord_angles(0.0, np.pi) == pytest.approx(2.0, abs=1e-15)
    assert chord_angles(0.0, np.pi / 2) == pytest.approx(np.sqrt(2), abs=1e-12)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_canonical_angle_range(theta):
    t = canonical_angle(theta)
    assert 0.0 <= t < TWO_PI


def test_canonical_angle_is_np_mod_bitwise():
    # float % rounds as np.mod does, sign of zero included; 2 pi itself
    # (from a tiny negative angle) maps to 0
    special = [1e-300, -1e-300, 0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0),
               1e300, -1e300, 5e-324, -5e-324, np.pi, -np.pi]
    values = np.concatenate([special, np.random.default_rng(1).uniform(-20, 20, 1000)])
    for theta in values:
        want = float(np.mod(theta, TWO_PI))
        want = 0.0 if want >= TWO_PI else want
        got = canonical_angle(theta)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    assert canonical_angle(-1e-300) == 0.0
    # the array form rounds entry by entry as the scalar form does
    want = np.array([canonical_angle(theta) for theta in values])
    assert canonical_angles(values).tobytes() == want.tobytes()


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_chord_symmetric(a, b):
    p, q = canonical_angle(a), canonical_angle(b)
    assert chord_angles(p, q) == pytest.approx(chord_angles(q, p), abs=1e-15)
    assert 0.0 <= chord_angles(p, q) <= 2.0 + 1e-15
    # the chord has period 2 pi in each angle
    assert chord_angles(a, b) == pytest.approx(chord_angles(p, q), abs=1e-14)


def test_chord_triangle_inequality(rng):
    # 1e4 random triples
    a, b, c = rng.uniform(0, TWO_PI, (3, 10_000))
    ab = np.abs(2 * np.sin((a - b) / 2))
    bc = np.abs(2 * np.sin((b - c) / 2))
    ac = np.abs(2 * np.sin((a - c) / 2))
    assert np.all(ac <= ab + bc + 1e-12)


def test_arc_membership_flags():
    # an arc keeps its ends canonical, and so must the angles it is asked about
    q = cl.Arc(-np.pi / 4, np.pi / 4, closed_left=True, closed_right=True)
    assert (q.start, q.end) == (canonical_angle(-np.pi / 4), np.pi / 4)
    assert q.mask([0.0, canonical_angle(-np.pi / 4), np.pi / 4]).all()
    q_open = cl.Arc(-np.pi / 4, np.pi / 4, closed_left=False, closed_right=False)
    assert q_open.mask([canonical_angle(-np.pi / 4), np.pi / 4, 0.1, np.pi]).tolist() == [
        False, False, True, False]


def test_full_circle_arc():
    full = cl.Arc.full_circle()
    assert full.length == pytest.approx(TWO_PI)
    assert full.mask([0.0, 1.0, np.pi, 6.2]).all()
    # the start is also the end, so either flag closes it
    assert cl.Arc(1.0, 1.0, False, True).mask([1.0])[0]
    assert not cl.Arc(1.0, 1.0, False, False).mask([1.0])[0]


def contains(arc, t):
    """Reference: the arc-membership rule for one angle, in Python floats."""
    d = canonical_angle(canonical_angle(t) - arc.start)
    at_end = d == 0.0 if arc.is_full_circle else d == arc.length
    return (0.0 < d < arc.length or (arc.closed_left and d == 0.0)
            or (arc.closed_right and at_end))


@pytest.mark.parametrize("closed_left, closed_right",
                         [(True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("full", [False, True], ids=["arc", "full-circle"])
def test_membership_agrees_with_contains(full, closed_left, closed_right):
    # random angles, both endpoints and one ulp to either side of each;
    # an angle one ulp below a start near 0 has an offset that rounds to
    # 2 pi, which canonicalizes to 0, the start itself
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0, TWO_PI)
        arc = cl.Arc(a, a if full else rng.uniform(0, TWO_PI), closed_left, closed_right)
        ends = (arc.start, arc.end)
        probes = [*rng.uniform(0, TWO_PI, 20), *ends,
                  *(np.nextafter(e, side) for e in ends for side in (-np.inf, np.inf))]
        for t in probes:
            assert arc.mask(cl.AtomicMeasure([t], [1.0]).thetas)[0] == contains(arc, t)
        assert arc.mask(canonical_angles(np.array(probes))).tolist() == [
            contains(arc, t) for t in probes]


def test_measure_of_arc_z2():
    m = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
    q = cl.Arc(-np.pi / 4, np.pi / 4, closed_left=True, closed_right=True)
    assert measure_of_arc(m, q) == pytest.approx(0.5)
    assert measure_of_arc(m, cl.Arc.full_circle()) == pytest.approx(1.0)
    assert measure_of_arc(cl.AtomicMeasure.empty(), q) == 0.0


def test_measure_additivity_over_partition(rng):
    thetas = np.sort(rng.uniform(0, TWO_PI, 57))
    masses = rng.uniform(0.1, 2.0, 57)
    m = cl.AtomicMeasure(thetas, masses)
    cuts = np.sort(rng.uniform(0, TWO_PI, 9))
    arcs = [cl.Arc(cuts[i], cuts[(i + 1) % len(cuts)], closed_left=True, closed_right=False)
            for i in range(len(cuts))]
    total = sum(measure_of_arc(m, a) for a in arcs)
    assert total == pytest.approx(m.total_mass, rel=1e-12)


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


@pytest.mark.parametrize("thetas, masses", [
    ([0.0, np.nan], [0.5, 0.5]), ([0.0, np.inf], [0.5, 0.5]),
    ([0.0, 1.0], [0.5, np.inf]), ([0.0, 1.0], [np.nan, 0.5]),
    ([0.0, 1.0], [1.0, -0.5]), ([0.0, 1.0], [1.0, 0.0]), ([0.0, 1.0], [1.0]),
], ids=["nan-theta", "inf-theta", "inf-mass", "nan-mass", "negative-mass",
        "zero-mass", "shape"])
def test_invalid_measures_rejected(thetas, masses):
    with pytest.raises(InvalidMeasure):
        cl.AtomicMeasure(thetas, masses)
    assert issubclass(InvalidMeasure, ClarkLabError)
    assert issubclass(InvalidMeasure, ValueError)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_circle_point_rejects_non_finite_angle(theta):
    # the angles that come from outside: arc endpoints, declared
    # accumulation points and the point of an angular derivative
    m = cl.AtomicMeasure([0.5, 2.0], [0.1, 0.3])
    for refused in (lambda: cl.Arc(theta, 1.0), lambda: cl.Arc(1.0, theta),
                    lambda: cl.bessonov_check(m, [0.0, theta]),
                    lambda: cl.bessonov_check(m, np.array([theta])),
                    lambda: cl.FiniteBlaschke(zeros=(0.5,), accumulation=(0.0, theta)),
                    lambda: cl.angular_derivative(cl.monomial(2), theta)):
        with pytest.raises(InvalidAngle, match="angle must be finite"):
            refused()
    assert issubclass(InvalidAngle, ClarkLabError)
    assert issubclass(InvalidAngle, ValueError)


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
    A_excl, B_excl, _, _ = neighbor_constants(m, excluded_points=[0.0])
    assert A_excl >= A_plain  # dropping the artificial wrap gap raises A
    assert np.isfinite(A_excl) and np.isfinite(B_excl)
    # the same figures and witnesses as the plain loop, with 0-2 excluded
    # points; equal gaps (monomial) exercise the first-index tie rule
    measures = [m, cl.exp_clark_data(50).measure,
                cl.clark_data_for(cl.Monomial(16)).measure,
                cl.clark_data_for(cl.CounterexampleBlaschke(1.0, 64)).measure,
                cl.generate(cl.random_plan(cl.exp_clark_data(60), 4)),
                cl.AtomicMeasure([0.5, 2.0], [0.1, 0.3])]
    for measure in measures:
        for excluded in ([], [0.0], [0.0, 1.0]):
            got = neighbor_constants(measure, excluded_points=excluded)
            np.testing.assert_equal(got, neighbor_constants_loop(measure, excluded))
            # one arc_mask per angle, or-ed
            loop = np.zeros(measure.n_atoms, dtype=bool)
            for eta in excluded:
                loop |= arc_mask(canonical_angle(eta), measure.thetas, measure.gaps)
            assert np.array_equal(gaps_holding(measure, excluded), loop)
    # both gaps of a two-atom measure cross an excluded point
    assert np.isnan(neighbor_constants(measures[-1], [0.0, 1.0])[:2]).all()


def test_disk_sum_matches_double_loop(rng, monkeypatch):
    # reference: a plain double loop summed with math.fsum.  Each term
    # carries a few ulp of rounding and each row's sum adds at most
    # (sources) ulp of the absolute sum, so 1e-14 of sum |terms| bounds it.
    # The polar grid of radii r (in the disk, on the circle and outside
    # it) and angles phi, the sources e^{i theta} by their angles
    r, phi = np.array([0.4, 1.0, 0.2, 1.5, 0.9]), rng.uniform(-np.pi, 3 * np.pi, 5)
    s = rng.uniform(0, TWO_PI, 5)
    sources = np.exp(1j * s)
    w = rng.uniform(0.1, 1.0, 5) * np.exp(1j * rng.uniform(0, TWO_PI, 5))

    def ref(x, weights):
        terms = [complex(weights[m] / abs(x - sources[m]) ** 2) for m in range(5)]
        return (complex(math.fsum(x.real for x in terms), math.fsum(x.imag for x in terms)),
                math.fsum(abs(x) for x in terms))

    # blocks of DISK_BLOCK // 10 angles, both buffers of 5 sources each:
    # budgets of 10, 20 and 30 take 1, 2 and 3 of the 5 angles in a block
    # (5, 3 and 2 blocks) and both of 2 angles in one block but at the
    # first budget.  Every radius takes one product with the weights per
    # block; complex and real weights take each block once
    blocks = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: (
        b.ndim == 1 and blocks.append(a.size)) or matmul(a, b, **kw))
    for budget, n_blocks in ((10, 5 * 5 + 2), (20, 3 * 5 + 1), (30, 2 * 5 + 1)):
        monkeypatch.setattr(circle, "DISK_BLOCK", budget)
        blocks.clear()
        for weights in (w, w.real):
            cases = [(disk_sum(r, phi, s, weights), r, phi),
                     (disk_sum(r[1], phi[:2], s, weights), r[1:2], phi[:2])]
            for got, radii, angles in cases:
                assert got.shape == (radii.size, angles.size)
                assert np.isrealobj(got) == np.isrealobj(weights)
                for row, x in zip(got, radii, strict=True):
                    for g, t in zip(row, angles, strict=True):
                        value, scale = ref(cmath.rect(x, t), weights)
                        assert abs(g - value) <= 1e-14 * scale
        assert len(blocks) == 2 * n_blocks and max(blocks) <= budget // 2


def test_disk_sum_rows_stand_alone(rng):
    # a row depends on its radius alone, bit for bit, whichever radii share
    # its call; the centre's row is the sum of the weights, so the
    # potential there is the total mass and the kernel norm at w = 0 is
    # finite; no sources give zeros
    radii = np.array([0.0, 2.0 ** -70, 0.3, 1.0 - 2.0 ** -21, 1.0, 1.7])
    phi, s = rng.uniform(0, TWO_PI, 300), rng.uniform(0, TWO_PI, 401)
    w = rng.uniform(0.1, 1.0, 401)
    whole = disk_sum(radii, phi, s, w)
    for i, x in enumerate(radii):
        for others in ([x], [1.0, x], [x, 0.5, x]):
            got = disk_sum(others, phi, s, w)[others.index(x)]
            assert np.array_equal(got.view(np.uint64), whole[i].view(np.uint64))
    assert (whole[:2] == np.sum(w)).all()
    m = cl.squared_measure(cl.exp_clark_data(50).measure)
    assert cl.potential(m, 0.0) == m.total_mass
    assert np.isfinite(cl.kernel_norms(cl.inner_function(cl.ExpSingular()), m, 0.0).dmu_norm_sq)
    empty = disk_sum(radii, phi[:8], np.empty(0), np.empty(0))
    assert empty.shape == (6, 8) and not empty.any()


@pytest.mark.parametrize("N", [1, 2, 31, 32, 33, 65])
@pytest.mark.parametrize("kernel", sorted(circle.KERNELS))
def test_self_sum_matches_mpmath_double_loop(kernel, N, rng):
    # kernel_sum takes each pair once, by blocks of
    # ROW_BLOCK = 32 rows; N runs around that.  The reference evaluates
    # each kernel exactly (mpmath, 40 digits) at the rounded differences
    # x_n - x_m, which both sides share, and sums exactly.  The bound
    # stated by kernel_sum: each term within 3 ulp, and row n's sum
    # within gamma_{N + p} of the sum of its terms' moduli, p = n // 32;
    # the reference's own rounding adds 1/2 ulp of that sum
    mp = pytest.importorskip("mpmath")
    exact = {"1/d": lambda d: 1 / d, "cot": mp.cot,
             "1+cot^2": lambda d: 1 / mp.sin(d) ** 2,
             "sqrt(1+cot^2)": lambda d: 1 / abs(mp.sin(d))}[kernel]
    assert circle.ROW_BLOCK == 32
    # half-angles of points anywhere on the circle, two of them next to
    # 0 and pi, where the angle kernels' differences wrap
    x = np.sort(rng.uniform(0, np.pi, N))
    if N > 1:
        x[0], x[-1] = 1e-3, np.pi - 1e-3
    u = np.finfo(float).eps / 2
    w = rng.uniform(0.1, 1.0, N) * np.exp(1j * rng.uniform(0, TWO_PI, N))
    with mp.workdps(40):
        values = [[exact(mp.mpf(float(x[n] - x[m]))) if m != n else mp.mpf(0)
                   for m in range(N)] for n in range(N)]
        for weights in (w, w.real):
            got = kernel_sum(x, weights, kernel)
            assert got.shape == (N,) and np.isrealobj(got) == np.isrealobj(weights)
            for n in range(N):
                terms = [mp.mpc(complex(weights[m])) * values[n][m] for m in range(N)]
                want = mp.fsum(terms)
                scale = float(mp.fsum(abs(t) for t in terms))
                c = N + n // 32 + 3.5
                err = complex(got[n]) - complex(want)
                assert max(abs(err.real), abs(err.imag)) <= c * u / (1 - c * u) * scale
