import numpy as np
import pytest

import clarklab as cl
from clarklab import cauchy
from clarklab.errors import (BoundaryAtom, ClarkLabError, DenseCapExceeded,
                             DimensionMismatch, NotEnoughAtoms, WrongFamily)


def z2_section():
    return cl.CauchySection(cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5]))


def z4_section():
    return cl.CauchySection(
        cl.AtomicMeasure([0, np.pi / 2, np.pi, 3 * np.pi / 2], [0.25] * 4))


def exp_section(N):
    data = cl.exp_clark_data(N)
    return cl.CauchySection(data.measure, lattice_indices=data.lattice_indices)


def test_cauchy_of_one_examples():
    single = cl.CauchySection(cl.AtomicMeasure([0.0], [1.0]))
    assert single.cauchy_of_one(0) == 0.0
    sec = z2_section()
    i0 = int(np.argmin(sec.theta))  # atom at angle 0
    assert sec.cauchy_of_one(i0) == pytest.approx(0.25)
    assert np.allclose(sec.cauchy_one_all(),
                       [sec.cauchy_of_one(0), sec.cauchy_of_one(1)])


def test_cauchy_of_one_exp_stable():
    sup1 = np.abs(exp_section(500).cauchy_one_all()).max()
    sup2 = np.abs(exp_section(1000).cauchy_one_all()).max()
    assert np.isfinite(sup2)
    # edge atoms drift as the truncation grows, but slowly
    assert abs(sup2 - sup1) < 0.10 * sup2


def test_apply_examples():
    sec = z2_section()
    assert np.allclose(sec.apply(np.zeros(2)), 0.0)
    f = np.zeros(2, dtype=complex)
    i_pi = int(np.argmax(sec.theta))
    f[i_pi] = 1.0
    out = sec.apply(f)
    assert out[1 - i_pi] == pytest.approx(0.25)
    assert out[i_pi] == 0.0
    assert np.allclose(sec.apply(np.ones(2)), sec.cauchy_one_all())
    with pytest.raises(DimensionMismatch):
        sec.apply(np.ones(3))


def test_apply_matches_dense_matrix_on_perturbed_measure(rng):
    # irregular atoms, so no lattice identity is shared by the two paths;
    # the dense form cancels in 1 - conj(z_m) z_n and loses about
    # log10(1/min gap) ~ 4 digits here
    base = cl.exp_clark_data(60)
    sec = cl.CauchySection(cl.generate(cl.random_plan(base, 4)))
    f = rng.standard_normal(sec.N) + 1j * rng.standard_normal(sec.N)
    rs = np.sqrt(sec.sigma)
    dense = (sec.matrix() @ (f * rs)) / rs
    assert np.max(np.abs(sec.apply(f) - dense)) <= 1e-11 * np.max(np.abs(dense))


def test_matrix_beyond_dense_cap_raises(monkeypatch):
    monkeypatch.setattr(cauchy, "DENSE_CAP", 8)
    sec = cl.CauchySection(cl.exp_clark_data(10).measure)
    with pytest.raises(DenseCapExceeded, match="section size 21 exceeds dense cap 8"):
        sec.matrix()
    assert issubclass(DenseCapExceeded, ClarkLabError)


def test_operator_norm_z2_anchor():
    est = cl.operator_norm(z2_section().measure, [2])
    assert est.values[0] == pytest.approx(0.25, abs=1e-10)
    assert est.converged[0]


def perturbed_measure():
    return cl.generate(cl.random_plan(cl.exp_clark_data(60), 4))


def counterexample_measure():
    return cl.clark_data_for(cl.parse_family("counterexample:1.0:64")).measure


@pytest.mark.parametrize("measure", [
    lambda: cl.exp_clark_data(40).measure, perturbed_measure, counterexample_measure,
], ids=["exp", "perturbed", "counterexample"])
def test_section_matrix_is_hermitian(measure):
    # the property the norm's eigensolve relies on
    A = cl.CauchySection(measure()).matrix()
    assert np.max(np.abs(A - A.conj().T)) <= 1e-13 * np.max(np.abs(A))


@pytest.mark.parametrize("measure, sizes", [
    (lambda: z4_section().measure, [4]),
    (lambda: cl.exp_clark_data(520).measure, [32, 64, 128, 256, 512, 1024]),
    (perturbed_measure, [32, 64, 121]),
    (counterexample_measure, None),
], ids=["z4", "exp-ladder", "perturbed", "counterexample"])
def test_operator_norm_svd_oracle(measure, sizes):
    m = measure()
    sizes = sizes or [m.n_atoms]
    est = cl.operator_norm(m, sizes)
    assert est.converged == [True] * len(sizes)
    for sec, value in zip(cl.nested_sections(m, sizes), est.values, strict=True):
        sv = np.linalg.svd(sec.matrix(), compute_uv=False)[0]
        assert abs(value - sv) <= 1e-12 * sv


@pytest.mark.parametrize("sizes, error", [
    ([0, 4], NotEnoughAtoms), ([1, 4], NotEnoughAtoms),
    ([8, 4], ClarkLabError), ([4, 4], ClarkLabError),
])
def test_operator_norm_rejects_bad_sizes(sizes, error, monkeypatch):
    built = []
    monkeypatch.setattr(cauchy, "nested_sections", lambda *a: built.append(a))
    with pytest.raises(error):
        cl.operator_norm(z4_section().measure, sizes)
    assert not built  # rejected before any section is built


def test_operator_norm_ladder_nondecreasing():
    data = cl.exp_clark_data(140)
    est = cl.operator_norm(data.measure, [32, 64, 128])
    assert est.sizes == [32, 64, 128]
    assert all(b >= a - 1e-9 for a, b in zip(est.values, est.values[1:]))
    assert all(est.converged)
    # frozen from the closed-form lattice
    assert est.values[0] == pytest.approx(0.46088696, abs=1e-6)
    assert est.values[1] == pytest.approx(0.47874672, abs=1e-6)


def test_apply_bounded_by_section_norm(rng):
    sec = exp_section(40)
    est = cl.operator_norm(sec.measure, [sec.N])
    bound = est.values[0] + 1e-6
    for _ in range(100):
        f = rng.standard_normal(sec.N) + 1j * rng.standard_normal(sec.N)
        num = np.sqrt(np.sum(sec.sigma * np.abs(sec.apply(f)) ** 2))
        den = np.sqrt(np.sum(sec.sigma * np.abs(f) ** 2))
        assert num <= bound * den


def test_rotation_invariance_of_singular_values(rng):
    m = cl.AtomicMeasure([0.1, 1.3, 2.9, 4.2], [0.2, 0.3, 0.1, 0.4])
    sv0 = np.linalg.svd(cl.CauchySection(m).matrix(), compute_uv=False)
    rot = rng.uniform(0, 2 * np.pi)
    sv1 = np.linalg.svd(cl.CauchySection(m.rotated(rot)).matrix(), compute_uv=False)
    assert np.max(np.abs(sv0 - sv1)) < 1e-10


def test_tolsa_z2_anchors():
    rep = cl.tolsa_scan(z2_section())
    assert rep.max_ratio == pytest.approx(0.25, abs=1e-10)
    # single-atom arc: ||C chi_Q||^2 = 1/32, sigma(Q) = 1/2
    assert rep.n_arcs == 2 * 1 + 1  # N(N-1) + full circle


def test_tolsa_witness_reproducible():
    rep = cl.tolsa_scan(z4_section())
    sec = z4_section()
    mask = sec.measure.membership(rep.witness_arc)
    assert mask.sum() == rep.witness_count
    with pytest.raises(NotEnoughAtoms):
        cl.tolsa_scan(cl.CauchySection(cl.AtomicMeasure([0.0], [1.0])))


def test_tolsa_below_operator_norm():
    sec = exp_section(40)
    rep = cl.tolsa_scan(sec)
    est = cl.operator_norm(sec.measure, [sec.N])
    assert rep.max_ratio <= est.values[0] + 1e-9


def test_tail_integral_z4():
    sec = z4_section()
    Q = cl.arc_between(-np.pi / 4, np.pi / 4, False, False)
    i0 = int(np.argmin(np.abs(sec.theta)))
    rep = cl.tail_integral_check(sec, Q, i0)
    assert rep.lhs == pytest.approx(0.3125)
    d = 2 * np.sin(np.pi / 8)
    assert rep.rhs_scale == pytest.approx(1.0 / d, rel=1e-12)
    assert rep.ratio == pytest.approx(0.3125 * d, rel=1e-12)


def test_tail_integral_all_inside():
    sec = z2_section()
    rep = cl.tail_integral_check(sec, cl.Arc.full_circle(), 0)
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0


def test_tail_integral_boundary_atom():
    sec = z4_section()
    Q = cl.arc_between(0.0, np.pi, True, False)
    with pytest.raises(BoundaryAtom):
        cl.tail_integral_check(sec, Q, int(np.argmin(np.abs(sec.theta))))


def test_tail_integral_exp_dyadic_scales(exp_u):
    sec = exp_section(300)
    i_pi = int(np.argmin(np.abs(sec.theta - np.pi)))
    ratios = []
    for w in [np.pi / 2 ** k for k in range(1, 11)]:
        Q = cl.arc_between(np.pi - w, np.pi + w, False, False)
        ratios.append(cl.tail_integral_check(sec, Q, i_pi).ratio)
    assert max(ratios) < 10.0  # bounded across 10 scales


def test_hilbert_route_matches_apply(rng):
    sec = exp_section(100)
    f1 = np.ones(sec.N, dtype=complex)
    assert np.max(np.abs(cl.hilbert_route(sec, f1) - sec.apply(f1))) < 1e-10
    delta = np.zeros(sec.N, dtype=complex)
    delta[int(np.nonzero(sec.lattice_indices == 0)[0][0])] = 1.0
    assert np.max(np.abs(cl.hilbert_route(sec, delta) - sec.apply(delta))) < 1e-12
    assert np.allclose(cl.hilbert_route(sec, np.zeros(sec.N)), 0.0)


def test_hilbert_route_wrong_family():
    with pytest.raises(WrongFamily):
        cl.hilbert_route(z2_section(), np.ones(2))
    # lattice labels that do not match the closed forms
    m = cl.AtomicMeasure([0.1, 2.0], [0.3, 0.3])
    sec = cl.CauchySection(m, lattice_indices=[0, 1])
    with pytest.raises(WrongFamily):
        cl.hilbert_route(sec, np.ones(2))


@pytest.mark.slow
def test_operator_norm_full_ladder_plateau():
    # sizes 2^5..2^12 on the exponential lattice: nondecreasing values that
    # plateau (< 5% growth over the final doubling); about 30 s
    measure = cl.exp_clark_data(2200).measure
    est = cl.operator_norm(measure, [2**k for k in range(5, 13)])
    assert all(b >= a - 1e-9 for a, b in zip(est.values, est.values[1:]))
    assert est.last_doubling_growth < 0.05
