import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clarklab as cl
from clarklab import cauchy, circle
from clarklab.errors import (AtomOutsideArc, BoundaryAtom, ClarkLabError, DenseCapExceeded,
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
    # (C 1)(zeta_n) at every atom; for z^2 each atom sees the other's mass
    # 1/2 over 1 - (-1)
    single = cl.CauchySection(cl.AtomicMeasure([0.0], [1.0]))
    assert single.cauchy_one_all()[0] == 0.0
    sec = z2_section()
    i0 = int(np.argmin(sec.theta))  # atom at angle 0
    assert sec.cauchy_one_all()[i0] == pytest.approx(0.25)
    assert np.allclose(sec.cauchy_one_all(), [0.25, 0.25])


def test_cauchy_one_all_against_mpmath_next_to_the_wrap():
    # exp N = 1500: atoms accumulate at 1 from both sides, and the rows next
    # to theta = 0 and theta = 2 pi pair with atoms across the wrap.  The
    # reference takes the stored angles as exact and sums at 40 digits.
    # A Cartesian sum on the rounded e^{i theta} is off there by 4.4e-11
    mp = pytest.importorskip("mpmath")
    m = cl.exp_clark_data(1500).measure
    c1 = cl.CauchySection(m).cauchy_one_all()
    th, sigma = m.thetas, m.masses
    with mp.workdps(40):
        for n in (int(np.argmin(th)), int(np.argmax(th))):
            tn = mp.mpf(float(th[n]))
            want = complex(mp.fsum(mp.mpf(float(sigma[k])) / (1 - mp.expj(tn - mp.mpf(float(th[k]))))
                                   for k in range(th.size) if k != n))
            assert abs(c1[n] - want) <= 1e-12 * abs(want)


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
    # matrix() writes out the cot form that apply sums pair by pair
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


@pytest.mark.parametrize("consumer", [
    lambda m: cl.operator_norm(m, [m.n_atoms]),
    lambda m: cl.CauchySection(m).matrix(),
], ids=["operator_norm", "matrix"])
def test_dense_cap_raises_before_building(consumer, monkeypatch):
    # one dense N x N array of 1001 atoms is 8 MB; the refusal allocates
    # none of it
    m = cl.exp_clark_data(500).measure
    monkeypatch.setattr(cauchy, "DENSE_CAP", m.n_atoms - 1)
    tracemalloc.start()
    try:
        with pytest.raises(DenseCapExceeded, match="section size 1001 exceeds dense cap 1000"):
            consumer(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.n_atoms ** 2


def test_operator_norm_z2_anchor():
    est = cl.operator_norm(z2_section().measure, [2])
    assert est.values[0] == pytest.approx(0.25, abs=1e-10)
    assert est.converged[0]


def perturbed_measure():
    return cl.generate(cl.random_plan(cl.exp_clark_data(60), 4))


def counterexample_measure():
    return cl.clark_data_for(cl.parse_family("counterexample:1.0:64")).measure


def _full_square_skew(sec):
    half, rs = 0.5 * sec.theta, np.sqrt(sec.sigma)
    S = np.sin(np.subtract.outer(half, half))
    np.fill_diagonal(S, 1.0)
    S = np.multiply.outer(rs, rs) / S
    np.fill_diagonal(S, 0.0)
    return S


def _weighted_gram_rows(sec):
    """The weighted Gram W of cauchy._arc_rows, row by row, in its order of
    operations: sig_m sig_k t B/4 off the diagonal, t = cot(h_m - h_k) and
    B = K_k - K_m + (sig_m + sig_k) t, and sig_m^2 D_m/4 on it."""
    N, half, sig = sec.N, sec.half, sec.sigma
    K = circle.kernel_sum(half, sig, "cot")
    q = 0.25 * sig
    diag = q * sig * circle.kernel_sum(half, sig, "1+cot^2")
    W = np.empty((N, N))
    for m in range(N):
        d = half[m] - half
        d[m] = 1.0
        t = 1.0 / np.tan(d)
        W[m] = (((sig[m] + sig) * t + K - K[m]) * t * sig) * q[m]
        W[m, m] = diag[m]
    return W


def _row_by_row_arc_gram(sec):
    N, W = sec.N, _weighted_gram_rows(sec)
    P = np.zeros((N + 1, N + 1))
    for a in range(1, N + 1):
        P[a, 1:] = np.cumsum(W[a - 1])
        P[a] += P[a - 1]
    return P


def _streamed_arc_gram(sec):
    """P rebuilt from the blocks of rows that cauchy._arc_rows streams."""
    P = np.zeros((sec.N + 1, sec.N + 1))
    for first, rows in cauchy._arc_rows(sec):
        P[first:first + len(rows)] = rows
    return P


@pytest.mark.parametrize("measure", [
    lambda: cl.exp_clark_data(40).measure, lambda: perturbed_measure(),
    lambda: counterexample_measure(),
], ids=["exp", "perturbed", "counterexample"])
@pytest.mark.parametrize("rows", [1, 7, cauchy.ROW_BLOCK])
def test_blocked_dense_builds_match_the_full_square(measure, rows, monkeypatch):
    # the norm's Gram goes by blocks of rows up to each block's diagonal;
    # the Tolsa Gram and its prefix sums stream by blocks of full rows.  Both
    # are the same bit for bit at every block size, and the Tolsa Gram
    # equals the row-by-row pass, so neither the norm nor the scan's
    # ratios and witnesses depend on the block size
    sec = cl.CauchySection(measure())
    assert sec.N > rows
    want, want_G = cl.tolsa_scan(sec), cauchy._gram(sec)
    monkeypatch.setattr(cauchy, "ROW_BLOCK", rows)
    assert np.array_equal(cauchy._gram(sec), want_G)
    assert np.array_equal(_streamed_arc_gram(sec), _row_by_row_arc_gram(sec))
    got = cl.tolsa_scan(sec)
    assert (got.max_ratio, got.witness_start, got.witness_count) == (
        want.max_ratio, want.witness_start, want.witness_count)


U = np.finfo(float).eps / 2


def _gamma(n):
    return n * U / (1 - n * U)


def _prefix2(X):
    """The 2-D prefix sums of X under a zero first row and column."""
    P = np.zeros((X.shape[0] + 1, X.shape[1] + 1))
    P[1:, 1:] = X.cumsum(axis=1).cumsum(axis=0)
    return P


def _check_gram_identity(sec):
    # the norm's Gram (cauchy._gram, the lower triangle of r_m r_k
    # csc(h_m - h_k) B) and the weighted Gram W of _arc_rows against S^T S
    # from the full-square sin form, then _arc_rows' P against the prefix
    # sums of the weighted S^T S.  Each side may err by its bound: the
    # stated bounds on W and P; for G, _gram's stated bound with 4 u M in
    # place of its 7 u M, tighter, and it holds; and for S^T S
    # gamma_N |S|^T |S| plus each S entry's 3 ulp and argument rounding
    N, half, sig = sec.N, sec.half, sec.sigma
    off = ~np.eye(N, dtype=bool)
    d = np.subtract.outer(half, half)
    ad = np.abs(d)
    t = np.where(off, 1.0 / np.tan(np.where(off, d, 1.0)), 0.0)
    at, csc2 = np.abs(t), np.where(off, 1.0 + t * t, 0.0)
    K = circle.kernel_sum(half, sig, "cot")
    D = circle.kernel_sum(half, sig, "1+cot^2")
    # kernel_sum's stated bounds on K and D, to first order
    g = _gamma(N + N // circle.ROW_BLOCK + 1) + 3 * U
    kappa = (g * at + U * ad * csc2) @ sig
    delta = (g * csc2 + 2 * U * ad * at * csc2) @ sig
    ss, sig2 = np.multiply.outer(sig, sig), np.add.outer(sig, sig)
    M = np.add.outer(np.abs(K), np.abs(K)) + sig2 * at
    kk = np.add.outer(kappa, kappa)
    bound_W = ss * (at * (kk + 10 * U * M) + 2 * U * M * ad * csc2) / 4
    np.fill_diagonal(bound_W, sig ** 2 * (delta + 2 * U * D) / 4)

    S = _full_square_skew(sec)
    aS = np.abs(S)
    eS = aS * U * (3 + ad * at)
    G = S.T @ S
    err_G = _gamma(N) * (aS.T @ aS) + eS.T @ aS + aS.T @ eS

    rr = np.sqrt(ss)
    dB = kk + sig2 * U * (1.05 * at + ad * csc2) + 4 * U * M
    bound_u = rr * np.sqrt(csc2) * (dB + M * U * (4 + ad * at))
    np.fill_diagonal(bound_u, sig * (delta + U * D))
    Gu, low = cauchy._gram(sec), np.tri(N, dtype=bool)
    assert not Gu[~low].any()
    assert np.all((np.abs(Gu - G) <= bound_u + err_G)[low])

    W = _weighted_gram_rows(sec)
    weight = 0.25 * rr * np.cos(d)
    err_ref = (np.abs(weight) * err_G + U * np.abs(G * weight)
               + np.abs(G) * 0.25 * rr * U * (4 * np.abs(np.cos(d)) + ad * np.abs(np.sin(d))))
    W_ref = G * weight
    assert np.all(np.abs(W - W_ref) <= bound_W + err_ref)

    P = _streamed_arc_gram(sec)
    assert np.array_equal(P, _row_by_row_arc_gram(sec))
    tol_P = _prefix2(bound_W + err_ref) + _gamma(2 * N + 2) * _prefix2(np.abs(W) + np.abs(W_ref))
    assert np.all(np.abs(P - _prefix2(W_ref)) <= tol_P)


@st.composite
def clustered_measures(draw):
    # clusters of 1-5 atoms centred on distinct slots of a 64-point grid,
    # so slot 0's clusters straddle theta = 0; neighbours in a cluster
    # 1e-9 to 1e-3 apart, masses over six decades
    slots = draw(st.lists(st.integers(0, 63), min_size=2, max_size=8, unique=True))
    thetas = []
    for slot in slots:
        gaps = 10.0 ** np.array(draw(st.lists(st.floats(-9, -3), max_size=4)))
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])
        thetas.extend(2 * np.pi * slot / 64 + offsets - offsets[-1] / 2)
    exps = draw(st.lists(st.floats(-6, 0), min_size=len(thetas), max_size=len(thetas)))
    return cl.AtomicMeasure(thetas, 10.0 ** np.array(exps))


@settings(max_examples=50, deadline=None)
@given(clustered_measures())
def test_arc_gram_identity_on_clustered_atoms(m):
    _check_gram_identity(cl.CauchySection(m))


@pytest.mark.parametrize("measure", [
    lambda: cl.exp_clark_data(40).measure, perturbed_measure, counterexample_measure,
    lambda: cl.clark_data_for(cl.parse_family("monomial:64")).measure,
], ids=["exp", "perturbed", "counterexample", "monomial"])
def test_arc_gram_identity(measure):
    _check_gram_identity(cl.CauchySection(measure()))


def load_checks():
    """perfbench's independent checks, which import nothing from clarklab."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("measure", [
    lambda: cl.exp_clark_data(40).measure, perturbed_measure, counterexample_measure,
], ids=["exp", "perturbed", "counterexample"])
def test_section_matrix_is_hermitian(measure):
    # A[n,m] = sqrt(sig_n sig_m) (1/2 + (i/2) cot(h_n - h_m)) with zero
    # diagonal; h_m - h_n = -(h_n - h_m) exactly and np.tan is odd, so A
    # is Hermitian bit for bit
    sec = cl.CauchySection(measure())
    A = sec.matrix()
    assert not np.diagonal(A).any()
    assert np.array_equal(A, A.conj().T)
    # the sin form of the independent checks, built apart from clarklab
    checks = load_checks()
    ref = checks.section_matrix(checks.Atoms(sec.theta, sec.sigma))
    assert np.max(np.abs(A - ref)) <= 1e-14 * np.max(np.abs(A))


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


def test_operator_norm_matches_discrete_hilbert_norm():
    # a section of the exp lattice on consecutive labels is a diagonal-
    # unitary conjugate of the discrete Hilbert matrix 1/(2 pi (m - n)),
    # whose differences are exact integers
    sizes = [32, 64, 128, 256, 512]
    est = cl.operator_norm(cl.exp_clark_data(256).measure, sizes)
    checks = load_checks()
    for n, value in zip(sizes, est.values, strict=True):
        exact = checks.lattice_section_norm(n)
        assert abs(value - exact) <= 1e-14 * exact, n


def test_lattice_route_matches_the_discrete_hilbert_norm():
    # labelled exp sections take the half-size block at odd and even N
    data = cl.exp_clark_data(40)
    sizes = [2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 64, 81]
    est = cl.operator_norm(data.measure, sizes, data.lattice_indices)
    checks = load_checks()
    for n, value in zip(sizes, est.values, strict=True):
        exact = checks.lattice_section_norm(n)
        assert abs(value - exact) <= 1e-14 * exact, n


def test_lattice_route_matches_the_dense_path_on_numeric_atoms():
    # the numeric atoms sit within the atom tolerance of the lattice, so
    # the stored-angle section and the closed-form one agree closely
    data = cl.clark_data_for(cl.parse_family("exp"), truncation=600)
    sizes = [32, 64, 128, 256, 512, 1024]
    lattice = cl.operator_norm(data.measure, sizes, data.lattice_indices).values
    dense = cl.operator_norm(data.measure, sizes).values
    for n, a, b in zip(sizes, lattice, dense, strict=True):
        assert abs(a - b) <= 1e-12 * b, n


def test_lattice_route_refuses_sizes_beyond_the_dense_cap_before_any_block(monkeypatch):
    data = cl.exp_clark_data(500)
    built = []
    monkeypatch.setattr(cauchy, "_hilbert_block", lambda N: built.append(N))
    monkeypatch.setattr(cauchy, "DENSE_CAP", 1000)
    with pytest.raises(DenseCapExceeded, match="section size 1001 exceeds dense cap 1000"):
        cl.operator_norm(data.measure, [32, 64, 1001], data.lattice_indices)
    assert not built


def test_lattice_routes_refuse_a_section_off_the_closed_forms():
    # label 1000 carries mass 5.07e-8, below an absolute tolerance of 1e-9
    # even when scaled by 1.01; the relative test catches it
    data = cl.exp_clark_data(1000)
    masses, labels = data.measure.masses.copy(), data.lattice_indices
    masses[labels == 1000] *= 1.01
    m = cl.AtomicMeasure(data.measure.thetas, masses)
    with pytest.raises(WrongFamily, match="closed forms"):
        cl.hilbert_route(cl.CauchySection(m, lattice_indices=labels), np.ones(m.n_atoms))
    with pytest.raises(WrongFamily, match="closed forms"):
        cl.operator_norm(m, [m.n_atoms], labels)
    # the sections short of label 1000 still match
    assert cl.operator_norm(m, [3, 64], labels).values[1] == pytest.approx(
        load_checks().lattice_section_norm(64), rel=1e-14)
    # a labelled measure off the lattice
    with pytest.raises(WrongFamily, match="closed forms"):
        cl.operator_norm(z2_section().measure, [2], [0, 1])


def test_lattice_route_refuses_labels_that_are_not_consecutive():
    theta, masses, _ = cl.exp_lattice([0, 1, 2, 5])
    order = np.argsort(theta)
    m = cl.AtomicMeasure(theta[order], masses[order])
    labels = np.array([0, 1, 2, 5])[order]
    assert cl.operator_norm(m, [2, 3], labels).values[1] == pytest.approx(
        load_checks().lattice_section_norm(3), rel=1e-14)
    with pytest.raises(WrongFamily, match="not consecutive"):
        cl.operator_norm(m, [2, 4], labels)


@pytest.mark.parametrize("measure", [
    lambda: cl.generate(cl.random_plan(cl.exp_clark_data(200), 11)),
    lambda: cl.clark_data_for(cl.parse_family("counterexample:1.0:512")).measure,
], ids=["perturbed-exp200", "counterexample512"])
def test_operator_norm_matches_sin_form_svd(measure):
    m = measure()
    checks = load_checks()
    sv = np.linalg.svd(checks.section_matrix(checks.Atoms(m.thetas, m.masses)),
                       compute_uv=False)[0]
    value = cl.operator_norm(m, [m.n_atoms]).values[0]
    assert abs(value - sv) <= 1e-13 * sv


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
    sv1 = np.linalg.svd(cl.CauchySection(cl.AtomicMeasure(m.thetas + rot, m.masses)).matrix(), compute_uv=False)
    assert np.max(np.abs(sv0 - sv1)) < 1e-10


def test_tolsa_z2_anchors():
    rep = cl.tolsa_scan(z2_section())
    assert rep.max_ratio == pytest.approx(0.25, abs=1e-10)
    # single-atom arc: ||C chi_Q||^2 = 1/32, sigma(Q) = 1/2
    assert rep.n_arcs == 2 * 1 + 1  # N(N-1) + full circle


def test_tolsa_witness_reproducible():
    rep = cl.tolsa_scan(z4_section())
    sec = z4_section()
    mask = rep.witness_arc.mask(sec.measure.thetas)
    assert mask.sum() == rep.witness_count
    with pytest.raises(NotEnoughAtoms):
        cl.tolsa_scan(cl.CauchySection(cl.AtomicMeasure([0.0], [1.0])))


def brute_tolsa(sec):
    """Every scanned arc by a matvec on its indicator, in (start, count)
    order: (start, count) pairs and the ratios ||C chi_Q|| / sigma(Q)^(1/2)."""
    N = sec.N
    arcs, ratios = [], []
    for start in range(N):
        for count in range(1, N + 1 if start == 0 else N):
            idx = (start + np.arange(count)) % N
            chi = np.zeros(N)
            chi[idx] = 1.0
            norm2 = np.sum(sec.sigma * np.abs(sec.apply(chi)) ** 2)
            arcs.append((start, count))
            ratios.append(np.sqrt(norm2 / sec.sigma[idx].sum()))
    return arcs, np.array(ratios)


ORACLE_MEASURES = {
    "z2": lambda: z2_section().measure,  # its three arcs tie at 1/4
    "z4": lambda: z4_section().measure,
    "exp20": lambda: cl.exp_clark_data(20).measure,
    "perturbed-exp20": lambda: cl.generate(cl.random_plan(cl.exp_clark_data(20), 5)),
    "counterexample32": lambda: cl.clark_data_for(
        cl.parse_family("counterexample:1.0:32")).measure,
}


@pytest.mark.parametrize("name", ORACLE_MEASURES)
def test_tolsa_matches_brute_force(name, monkeypatch):
    sec = cl.CauchySection(ORACLE_MEASURES[name]())
    N = sec.N
    rep = cl.tolsa_scan(sec)
    arcs, ratios = brute_tolsa(sec)
    top = ratios.max()
    assert rep.n_arcs == len(arcs) == N + (N - 1) ** 2
    assert abs(rep.max_ratio - top) <= 1e-12 * top
    # the witness is the first arc that attains the maximum, up to ties
    first = arcs[int(np.argmax(ratios >= top * (1 - 1e-12)))]
    assert (rep.witness_start, rep.witness_count) == first
    # one row per block gives the same report as one block for all rows
    monkeypatch.setattr(cauchy, "ROW_BLOCK", 1)
    one_row = cl.tolsa_scan(cl.CauchySection(sec.measure))
    assert (one_row.max_ratio, one_row.witness_start, one_row.witness_count) == (
        rep.max_ratio, rep.witness_start, rep.witness_count)


@pytest.mark.parametrize("name", ["exp20", "perturbed-exp20", "counterexample32"])
def test_tolsa_witness_across_index_zero(name):
    # rotate the witness arc so that it straddles angle 0 and takes the
    # inclusion-exclusion branch for arcs that wrap past the last atom
    # (the z2 and z4 witnesses, one atom and the whole circle, cannot wrap)
    m = ORACLE_MEASURES[name]()
    rep = cl.tolsa_scan(cl.CauchySection(m))
    N, th = m.n_atoms, m.thetas
    assert 2 <= rep.witness_count < N
    mid = (rep.witness_start + rep.witness_count // 2) % N
    cut = th[mid - 1] + 0.5 * ((th[mid] - th[mid - 1]) % (2 * np.pi))
    rot = cl.tolsa_scan(cl.CauchySection(cl.AtomicMeasure(m.thetas - cut, m.masses)))
    assert rot.witness_start + rot.witness_count > N
    assert abs(rot.max_ratio - rep.max_ratio) <= 1e-12 * rep.max_ratio


@st.composite
def small_measures(draw):
    # atoms on distinct slots of a 120-point grid, jittered by up to half a
    # slot, so every gap is at least pi/120
    slots = draw(st.lists(st.integers(0, 119), min_size=3, max_size=12, unique=True))
    jitter = draw(st.lists(st.floats(0, 0.5), min_size=len(slots), max_size=len(slots)))
    masses = draw(st.lists(st.floats(0.01, 1.0), min_size=len(slots), max_size=len(slots)))
    thetas = 2 * np.pi * (np.array(slots) + np.array(jitter)) / 120
    return cl.AtomicMeasure(thetas, masses)


@settings(max_examples=50, deadline=None)
@given(small_measures(), st.floats(0, 2 * np.pi))
def test_tolsa_and_norm_rotation_invariant(m, delta):
    r = cl.AtomicMeasure(m.thetas + delta, m.masses)
    t0 = cl.tolsa_scan(cl.CauchySection(m)).max_ratio
    t1 = cl.tolsa_scan(cl.CauchySection(r)).max_ratio
    assert abs(t1 - t0) <= 1e-10 * t0
    n0 = cl.operator_norm(m, [m.n_atoms]).values[0]
    n1 = cl.operator_norm(r, [r.n_atoms]).values[0]
    assert abs(n1 - n0) <= 1e-10 * n0


def _tolsa_peak(sec):
    tracemalloc.start()
    try:
        rep = cl.tolsa_scan(sec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


def _tolsa_working_set(N):
    """The scan's stated working set in bytes: ARC_BLOCKS blocks of
    ROW_BLOCK x (N + 1) reals."""
    return cauchy.ARC_BLOCKS * min(cauchy.ROW_BLOCK, N) * (N + 1) * 8


def test_tolsa_working_set():
    # no (N + 1)^2 array: the stated ARC_BLOCKS blocks of ROW_BLOCK rows
    # (9.1 blocks measured at 1001 atoms, 2.2 MiB); holding all of P, the
    # scan peaked at 8.3 MiB, 34 blocks
    sec = exp_section(500)
    _, peak = _tolsa_peak(sec)
    assert peak <= _tolsa_working_set(sec.N)


def test_matrix_working_set():
    # A, N^2 complex entries, is 16 N^2 bytes: the cot is taken in place in
    # its imaginary part and the weights multiplied in by row blocks
    # (16.4 N^2 measured at 1001 atoms; the cot and weights as whole
    # temporaries took 32.1 N^2)
    sec = exp_section(500)
    tracemalloc.start()
    try:
        sec.matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * sec.N ** 2


def test_dense_norm_working_set():
    # G, N^2 reals, is 8.0 N^2 bytes, and one block of ROW_BLOCK rows adds
    # 0.26 N^2 at 1001 atoms (8.5 N^2 measured); S and S^T S together took
    # 16 N^2.  eigvalsh's LAPACK copy of G is allocated outside numpy,
    # where tracemalloc does not see it
    m = cl.exp_clark_data(500).measure
    tracemalloc.start()
    try:
        cl.operator_norm(m, [m.n_atoms])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * m.n_atoms ** 2


def test_tolsa_ratio_against_long_double():
    # the reported ratio is one apply on the witness arc's indicator; the
    # reference sums the same arc in long double on the stored angles.
    # P's entries cancel in each arc's norm, so a ratio read from P errs
    # by 4.0e-13 here
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double here")
    m = cl.exp_clark_data(400).measure
    rep = cl.tolsa_scan(cl.CauchySection(m))
    N = m.n_atoms
    half = m.thetas.astype(np.longdouble) / 2
    sig = m.masses.astype(np.longdouble)
    g = np.zeros(N, dtype=np.longdouble)
    idx = (rep.witness_start + np.arange(rep.witness_count)) % N
    g[idx] = sig[idx]
    d = np.subtract.outer(half, half)
    np.fill_diagonal(d, 1)
    cot = 1 / np.tan(d)
    np.fill_diagonal(cot, 0)
    re, im = (g.sum() - g) / 2, cot @ g / 2
    want = np.sqrt(np.sum(sig * (re * re + im * im)) / g.sum())
    assert abs(rep.max_ratio - want) <= 1e-14 * want


def test_tolsa_beyond_memory_budget_raises(monkeypatch):
    # the scan refuses by its stated working set, before it allocates any
    # block, and DENSE_CAP no longer limits it: 1001 atoms scan under a
    # cap of 20 and a budget of exactly their working set
    sec = exp_section(500)
    need = _tolsa_working_set(sec.N)
    monkeypatch.setattr(cauchy, "DENSE_CAP", 20)
    monkeypatch.setattr(cauchy, "MEMORY_BUDGET", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ClarkLabError, match=f"1001 atoms needs {need} bytes > {need - 1}"):
            cl.tolsa_scan(sec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * sec.N
    monkeypatch.setattr(cauchy, "MEMORY_BUDGET", need)
    assert cl.tolsa_scan(sec).n_arcs == 1001 + 1000 ** 2


def test_tolsa_below_operator_norm():
    sec = exp_section(40)
    rep = cl.tolsa_scan(sec)
    est = cl.operator_norm(sec.measure, [sec.N])
    assert rep.max_ratio <= est.values[0] + 1e-9


def test_tail_integral_z4():
    sec = z4_section()
    Q = cl.Arc(-np.pi / 4, np.pi / 4, False, False)
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
    Q = cl.Arc(0.0, np.pi, True, False)
    with pytest.raises(BoundaryAtom):
        cl.tail_integral_check(sec, Q, int(np.argmin(np.abs(sec.theta))))


def test_tail_integral_atom_outside_arc():
    sec = z4_section()
    Q = cl.Arc(-np.pi / 4, np.pi / 4, False, False)
    with pytest.raises(AtomOutsideArc) as err:
        cl.tail_integral_check(sec, Q, 2)  # the atom at pi
    assert isinstance(err.value, ClarkLabError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("measure", [
    lambda: cl.clark_data_for(cl.Monomial(16)).measure, lambda: cl.exp_clark_data(40).measure,
    lambda: perturbed_measure(), lambda: counterexample_measure(),
], ids=["monomial", "exp", "perturbed", "counterexample"])
def test_tail_integral_errors_follow_the_offset_rule(measure):
    # an atom at offset 0 or at the length of a non-full arc is on its
    # boundary, one beyond the length outside it, the offset taken by the
    # scalar canonical_angle; arcs from an atom, and from one ulp before it
    m = measure()
    sec, th, N = cl.CauchySection(m), m.thetas, m.n_atoms
    for a in range(0, N, max(1, N // 8)):
        for Q in (cl.Arc(th[a], th[(a + 3) % N], True, True),
                  cl.Arc(np.nextafter(th[a], -1), th[(a + N // 2) % N], False, False)):
            for i in range(N):
                d = circle.canonical_angle(th[i] - Q.start)
                want = (BoundaryAtom if d in (0.0, Q.length)
                        else AtomOutsideArc if d > Q.length else None)
                if want is None:
                    cl.tail_integral_check(sec, Q, i)
                else:
                    with pytest.raises(want):
                        cl.tail_integral_check(sec, Q, i)


def test_tail_integral_exp_dyadic_scales(exp_u):
    sec = exp_section(300)
    i_pi = int(np.argmin(np.abs(sec.theta - np.pi)))
    ratios = []
    for w in [np.pi / 2 ** k for k in range(1, 11)]:
        Q = cl.Arc(np.pi - w, np.pi + w, False, False)
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


@pytest.mark.slow
def test_tolsa_scan_past_the_dense_cap():
    # 16 385 exp atoms, twice DENSE_CAP: every arc, in the stated working
    # set (8.2 blocks measured, 33 MiB; max RSS 74 MB), about 7 s.  Every
    # exp section is a conjugate of H_N/(2 pi), whose norm Hilbert's
    # inequality puts below 1/2, and no arc ratio exceeds the norm
    sec = exp_section(8192)
    assert sec.N == 16385 > cauchy.DENSE_CAP
    rep, peak = _tolsa_peak(sec)
    assert rep.n_arcs == sec.N + (sec.N - 1) ** 2
    assert 0 < rep.max_ratio < 0.5
    assert peak <= _tolsa_working_set(sec.N)
