import warnings

import numpy as np
import pytest

import clarklab as cl
from clarklab.errors import (ClarkLabError, MateZero, NotEnoughAtoms, QuadratureNotConverged,
                             SupportMismatch)
from clarklab import circle, potentials
from clarklab.inner import _angular_derivatives
from clarklab.potentials import dirichlet_quadrature
from oracles import poisson

TWO_PI = 2 * np.pi
COTH_HALF = 1.0 / np.tanh(0.5)


def delta_at_zero():
    return cl.AtomicMeasure([0.0], [1.0])


def test_potential_examples():
    m = delta_at_zero()
    assert cl.potential(m, 0.0) == pytest.approx(1.0)
    assert cl.potential(m, 0.5) == pytest.approx(4.0)
    assert cl.potential(m, 1.0) == np.inf  # on the atom itself
    # squared-mass exponential lattice at the spectrum point:
    # sum_n 1/(4 n^2 pi^2 + 1) -> coth(1/2)/2
    mu = cl.squared_measure(cl.exp_clark_data(4000).measure)
    v = cl.potential(mu, 1.0)
    assert abs(v - COTH_HALF / 2) <= cl.exp_tail_potential_bound(4000) * 1.001


def test_potential_scaling_and_rotation(rng):
    m = cl.AtomicMeasure([0.3, 2.0, 4.4], [0.2, 0.7, 1.1])
    z = 0.3 + 0.4j
    for c in (2.0, 0.5):
        scaled = cl.AtomicMeasure(m.thetas, c * m.masses)
        assert cl.potential(scaled, z) == pytest.approx(c * cl.potential(m, z), rel=1e-15)
    for _ in range(5):
        rot = rng.uniform(0, TWO_PI)
        zr = z * np.exp(1j * rot)
        r = cl.AtomicMeasure(m.thetas + rot, m.masses)
        assert cl.potential(r, zr) == pytest.approx(cl.potential(m, z), rel=1e-12)
        got = cl.atom_potential_sup(r).value
        assert got == pytest.approx(cl.atom_potential_sup(m).value, rel=1e-12)


def test_poisson_examples():
    m = delta_at_zero()
    assert poisson(m, 0.0) == pytest.approx(1.0)  # total mass at the center
    assert poisson(m, 0.5) == pytest.approx(3.0)
    m2 = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
    assert poisson(m2, 0.3j) == pytest.approx(0.91 / 1.09, rel=1e-12)


def test_atom_potential_sup_examples():
    z2sq = cl.AtomicMeasure([0.0, np.pi], [0.25, 0.25])
    assert cl.atom_potential_sup(z2sq).value == pytest.approx(0.0625)
    z4sq = cl.AtomicMeasure([0, np.pi / 2, np.pi, 3 * np.pi / 2], [1 / 16] * 4)
    assert cl.atom_potential_sup(z4sq).value == pytest.approx(0.078125)
    with pytest.raises(NotEnoughAtoms):
        cl.atom_potential_sup(delta_at_zero())


def test_atom_potential_sup_exp_stability():
    v1 = cl.atom_potential_sup(cl.squared_measure(cl.exp_clark_data(100).measure)).value
    v2 = cl.atom_potential_sup(cl.squared_measure(cl.exp_clark_data(1000).measure)).value
    assert abs(v2 - v1) < 0.01 * v2
    assert v2 == pytest.approx(1.16530685, abs=1e-4)


def test_mass_ratio_check(exp_data_100):
    mu = cl.squared_measure(exp_data_100.measure)
    rep = cl.mass_ratio_check(exp_data_100, mu)
    assert rep.min_product == pytest.approx(1.0, rel=1e-12)
    assert rep.max_product == pytest.approx(1.0, rel=1e-12)
    assert rep.comparability_constant == pytest.approx(1.0, rel=1e-11)
    rep2 = cl.mass_ratio_check(exp_data_100, cl.AtomicMeasure(mu.thetas, 2.0 * mu.masses))
    assert rep2.min_product == pytest.approx(2.0, rel=1e-12)
    # Clark masses themselves: products are |u'| and grow like 4 n^2 pi^2
    rep3 = cl.mass_ratio_check(exp_data_100, exp_data_100.measure)
    n = 100
    assert rep3.max_product == pytest.approx((4 * n**2 * np.pi**2 + 1) / 2, rel=1e-9)
    with pytest.raises(SupportMismatch):
        cl.mass_ratio_check(exp_data_100, cl.exp_clark_data(99).measure)


def test_radial_limit_trivial():
    rep = cl.radial_limit_check(cl.monomial(1), delta_at_zero(), 0)
    assert rep.extrapolated == pytest.approx(1.0, abs=1e-10)
    assert rep.target == pytest.approx(1.0)


def test_radial_limit_z2_squared():
    m = cl.AtomicMeasure([0.0, np.pi], [0.25, 0.25])
    rep = cl.radial_limit_check(cl.monomial(2), m, 0)
    assert rep.target == pytest.approx(1.0)
    assert rep.rel_error < 1e-6


def test_radial_limit_exp_center(exp_u):
    data = cl.exp_clark_data(500)
    mu = cl.squared_measure(data.measure)
    k = int(np.nonzero(data.lattice_indices == 0)[0][0])
    rep = cl.radial_limit_check(exp_u, mu, k)
    assert rep.target == pytest.approx(1.0, rel=1e-12)  # (1/2)^2 * 4
    assert rep.rel_error < 1e-6


def test_kernel_norms_examples():
    m = delta_at_zero()
    u = cl.monomial(1)
    kn = cl.kernel_norms(u, m, 0.0)
    assert kn.hb_norm_sq == pytest.approx(2.0)
    assert kn.dmu_norm_sq == pytest.approx(1.0)
    kn2 = cl.kernel_norms(u, m, 0.5)
    assert kn2.dmu_norm_sq == pytest.approx(8.0 / 3.0, rel=1e-12)
    # dmu norm is at least 1 for any center
    for w in (0.0, 0.3, 0.5j, -0.2 + 0.1j):
        assert cl.kernel_norms(u, m, w).dmu_norm_sq >= 1.0


def test_kernel_norms_mate_zero():
    # constant -1 inner function: a = (1-u)/2 = 1 never vanishes; build a
    # degenerate case via u = z with w = 0 -> a(0) = 1/2 fine; use Product
    # of nothing is constant 1 -> DegenerateSymbol upstream, so check the
    # guard through a symbol with a zero of a inside: u(w) = 1 cannot
    # happen strictly inside the disk for the supported families, so
    # MateZero is unreachable there; assert the guard on a synthetic call
    with pytest.raises(MateZero):
        raise MateZero("synthetic")


@pytest.mark.parametrize("w,expected", [
    (0.0, 0.0),
    (0.3, 0.09 / (0.49 * 0.91)),
    (0.5j, 0.25 / (1.25 * 0.75)),
])
def test_dirichlet_quadrature_kernels(w, expected):
    m = delta_at_zero()

    def fprime(z):
        return np.conj(w) / (1 - np.conj(w) * z) ** 2

    res = dirichlet_quadrature(m, fprime)
    assert res.value == pytest.approx(expected, abs=1e-4)
    # cross-check against the closed-form kernel norms
    if w != 0.0:
        kn = cl.kernel_norms(cl.monomial(1), m, w)
        hardy = 1.0 / (1 - abs(w) ** 2)
        assert res.value == pytest.approx(kn.dmu_norm_sq - hardy, abs=1e-4)


def test_dirichlet_quadrature_constant_and_identity():
    m = delta_at_zero()
    res0 = dirichlet_quadrature(m, lambda z: np.zeros_like(z))
    assert res0.value == 0.0
    res1 = dirichlet_quadrature(m, lambda z: np.ones_like(z))
    assert res1.value == pytest.approx(1.0, abs=1e-4)
    # c_{1/2}: difference of the two kernel norms is 8/3 - 4/3 = 4/3
    fp = lambda z: 0.5 / (1 - 0.5 * z) ** 2
    res = dirichlet_quadrature(m, fp)
    assert res.value == pytest.approx(4.0 / 3.0, abs=1e-4)


def _set(monkeypatch, **constants):
    """Set module constants of clarklab.potentials for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(potentials, name, value)


def test_dirichlet_quadrature_not_converged(monkeypatch):
    m = delta_at_zero()
    _set(monkeypatch, QUAD_RADIAL_DEPTH=2, QUAD_ANGULAR_DEPTH=1, QUAD_ORDER=2,
         QUAD_RTOL=1e-12, QUAD_ATOL=1e-14)
    with pytest.raises(QuadratureNotConverged):
        dirichlet_quadrature(m, lambda z: np.ones_like(z))


def test_sup_inf_scan_single_atom(monkeypatch):
    _set(monkeypatch, GRID_DEPTH=8)
    rep = cl.sup_inf_scan(cl.monomial(1), delta_at_zero())
    # |1-z|^2 * 1/|z-1|^2 = 1 everywhere
    assert rep.sup_estimate == pytest.approx(1.0, abs=1e-9)
    assert rep.inf_estimate == pytest.approx(1.0, abs=1e-9)
    assert rep.atom_limits[0] == pytest.approx(1.0)
    assert rep.inf_estimate <= rep.sup_estimate
    assert rep.sup_mate_scaled == pytest.approx(rep.sup_estimate / 4)


def test_sup_inf_scan_z2_squared(monkeypatch):
    m = cl.AtomicMeasure([0.0, np.pi], [0.25, 0.25])
    _set(monkeypatch, GRID_DEPTH=10)
    rep = cl.sup_inf_scan(cl.monomial(2), m)
    assert rep.atom_limits == pytest.approx([1.0, 1.0])
    assert rep.sup_estimate >= max(rep.atom_limits) - 1e-9
    assert rep.spectrum_values.size == 0


def test_sup_inf_scan_exp(exp_u, monkeypatch):
    data = cl.exp_clark_data(300)
    mu = cl.squared_measure(data.measure)
    _set(monkeypatch, GRID_DEPTH=12, ANGULAR_CAP=1024)
    rep = cl.sup_inf_scan(exp_u, mu)
    # spectrum value: V_mu(1) near coth(1/2)/2
    assert rep.spectrum_values[0] == pytest.approx(COTH_HALF / 2, abs=1e-3)
    assert rep.sup_estimate >= 1.0 - 1e-9  # atom limits are all 1
    assert np.isfinite(rep.sup_estimate)
    assert rep.inf_estimate > 0
    assert rep.converged
    # refinement changes the sup by little
    _set(monkeypatch, GRID_DEPTH=14, ANGULAR_CAP=2048)
    rep2 = cl.sup_inf_scan(exp_u, mu)
    assert abs(rep2.sup_estimate - rep.sup_estimate) < 0.05 * rep2.sup_estimate


@pytest.mark.parametrize("N", [5, 20])
def test_scan_flags_a_coarse_grid(exp_u, N, monkeypatch):
    # cut each gap into 4 parts (N = 5) or 3 (N = 20): the midpoints of the
    # parts raise the sup by 1.2% (5.1761 -> 5.2387) or 1.6% (5.2286 -> 5.3116)
    _set(monkeypatch, GAP_POINTS={5: 4, 20: 3}[N], GRID_DEPTH=3)
    mu = cl.squared_measure(cl.exp_clark_data(N).measure)
    rep = cl.sup_inf_scan(exp_u, mu)
    assert rep.refined_sup_estimate > 1.01 * rep.sup_estimate
    assert not rep.converged


@pytest.mark.parametrize("family, N", [
    ("counterexample:1.0:64", 64), ("counterexample:1.0:256", 256), ("exp", 200),
    pytest.param("counterexample:1.0:1024", 1024, marks=pytest.mark.slow),
], ids=["counterexample:1.0:64", "counterexample:1.0:256", "exp200", "counterexample:1.0:1024"])
def test_scan_sup_reaches_the_max_on_the_circle(family, N):
    # G is subharmonic, so its sup over the disk is its sup on the circle;
    # 1024 circle points in each gap free of the spectrum give a reference
    # that the scan must reach within 1% (4.3224 on counterexample:1.0:64,
    # 5.2393 on 1.0:256, 6.19 on 1.0:1024)
    fam = cl.parse_family(family)
    u, m = cl.inner_function(fam), cl.squared_measure(cl.clark_data_for(fam, truncation=N).measure)
    spec = np.reshape(cl.spectrum(u), (-1, 1))
    free = ~circle.arc_mask(spec, m.thetas, m.gaps).any(axis=0)
    phi = (m.thetas[free, None] + m.gaps[free, None] * (np.arange(1, 1025) / 1025)).ravel()
    G = np.abs(1.0 - cl.evaluate(u, np.exp(1j * phi))) ** 2 * potentials.potential_grid(m, 1.0, phi)
    rep = cl.sup_inf_scan(u, m)
    assert rep.sup_estimate >= 0.99 * G.max()
    assert rep.converged


def test_scan_G_on_the_circle_against_mpmath(exp_u):
    # G at the exact polar points r = 1, phi next to the 20 smallest gaps
    # of exp N = 200, against 40 digits: on the circle u = exp(-i cot(phi/2))
    # and |e^{i phi} - zeta|^2 = 4 sin^2((phi - theta)/2).  u evaluated at
    # the rounded e^{i phi} reads G 3.8e-11 relative off; the phase lift
    # 1.3e-12
    mp = pytest.importorskip("mpmath")
    mu = cl.squared_measure(cl.clark_data_for(cl.parse_family("exp"), truncation=200).measure)
    idx = np.argsort(mu.gaps, kind="stable")[:20]
    phi = (mu.thetas[idx, None] + mu.gaps[idx, None] * (np.array([1, 8, 15]) / 16)).ravel()
    with mp.workdps(40):
        sin_cos = [(mp.sin(mp.mpf(t) / 2), mp.cos(mp.mpf(t) / 2)) for t in mu.thetas]
        masses = [mp.mpf(x) for x in mu.masses]
        want = []
        for p in phi:
            s, c = mp.sin(mp.mpf(p) / 2), mp.cos(mp.mpf(p) / 2)
            V = mp.fsum(w / (4 * (s * ct - c * st) ** 2) for (st, ct), w in zip(sin_cos, masses))
            want.append(float(4 * mp.sin(mp.cot(mp.mpf(p) / 2) / 2) ** 2 * V))
    G = potentials._scan_G(exp_u, mu, np.ones(1), phi)[0]
    cartesian = (np.abs(1.0 - cl.evaluate(exp_u, np.exp(1j * phi))) ** 2
                 * potentials.potential_grid(mu, 1.0, phi))
    err = np.max(np.abs(G / want - 1.0))
    assert err <= 0.1 * np.max(np.abs(cartesian / want - 1.0))
    assert err <= 5e-12


def test_scan_converges_at_the_default_grid(exp_u):
    mu = cl.squared_measure(cl.exp_clark_data(100).measure)
    rep = cl.sup_inf_scan(exp_u, mu)
    assert rep.converged
    assert rep.sup_estimate <= rep.refined_sup_estimate <= (1 + 1e-3) * rep.sup_estimate


def test_sup_inf_scan_support_mismatch(exp_u):
    bad = cl.AtomicMeasure([1.0, 2.0], [0.1, 0.1])  # not Clark atoms of exp
    with pytest.raises(SupportMismatch):
        cl.sup_inf_scan(exp_u, bad)


def test_weighted_potential_bridge(exp_u):
    # boundary values at the level-1/2 atoms are controlled by the
    # atom-potential sup plus the largest atom limit (sum splitting)
    data = cl.exp_clark_data(400)
    mu = cl.squared_measure(data.measure)
    sup61 = cl.atom_potential_sup(mu).value
    deriv = data.derivatives
    atom_limits = deriv**2 * mu.masses
    scan = cl.Arc(1e-3, TWO_PI - 1e-3, True, True)
    half_atoms, _ = cl.find_atoms(exp_u, 0.5, scan)
    vals = []
    for t in half_atoms:
        z = complex(np.cos(t), np.sin(t))
        vals.append(abs(1 - cl.evaluate(exp_u, z)) ** 2 * cl.potential(mu, z))
    assert max(vals) <= 4 * sup61 + 4 * float(atom_limits.max())


def _grid_loop_form(u, m, depth, parts):
    """The disk-scan grid built ring by ring to ``depth``, then gap by gap:
    the cut points of each gap into ``parts`` equal parts, on the circle,
    in each gap whose open arc holds no spectrum point."""
    pts = []
    for j in range(1, depth + 1):
        r = 1.0 - 2.0 ** (-j)
        M = int(min(potentials.ANGULAR_BASE * 2 ** j, potentials.ANGULAR_CAP))
        pts.append(r * np.exp(1j * np.linspace(0.0, TWO_PI, M, endpoint=False)))
    spec = cl.spectrum(u)
    for theta, gap in zip(m.thetas, m.gaps):
        if any(0.0 < np.mod(eta - theta, TWO_PI) < gap for eta in spec):
            continue
        for k in range(1, parts):
            pts.append(1.0 * np.exp(1j * np.array([theta + gap * (k / parts)])))
    return np.concatenate(pts)


def _sorted_bits(z):
    """The (real, imag) bit patterns of complex points, sorted as rows."""
    b = z.view(np.uint64).reshape(-1, 2)
    return b[np.lexsort(b.T[::-1])]


def _exp20():
    return cl.inner_function(cl.ExpSingular()), cl.squared_measure(cl.exp_clark_data(20).measure)


def _blaschke_singular():
    u = cl.Product((cl.FiniteBlaschke((0.5, 0.3j - 0.2, -0.7 + 0.1j, 0.9 * np.exp(2j))),
                    cl.SingularAtomic(((1.0, 0.3), (4.0, 0.05)))))
    return u, cl.clark_data(u, 0.0, cl.Arc(1.01, 3.99, True, True)).measure


@pytest.mark.parametrize("grid", [{}, dict(GRID_DEPTH=9, ANGULAR_BASE=12, ANGULAR_CAP=1000)],
                         ids=["default", "capped"])
@pytest.mark.parametrize("case", [_exp20, _blaschke_singular], ids=["exp20", "blaschke-singular"])
def test_scan_grid_matches_loop_form(case, grid, monkeypatch):
    u, m = case()
    _set(monkeypatch, **grid)
    depth = potentials.GRID_DEPTH
    # exp's spectrum point 0 and the singular atoms at 1.0 and 4.0 each lie
    # in one gap, which gets no circle points
    assert len(_grid_loop_form(u, m, depth, 2)) == len(_grid_loop_form(u, m, depth, 1)) + m.n_atoms - 1
    # the scan evaluates this grid bit for bit, in order, and a refinement
    # level that makes it the grid one depth finer with twice the parts, as
    # a set and bit for bit.  It takes polar grids: the rings of one angle
    # count in one call (the ring depth + 1, the refinement level's, among
    # them), then the circle points of each level; and u at r e^{i phi}.
    # Each witness is the loop form's point at the first extremum of G over
    # the scan set and the atom limits
    calls, scan_G = [], potentials._scan_G

    def record(u, m, r, phi):
        G = scan_G(u, m, r, phi)
        calls.append((np.repeat(r, phi.size), (r[:, None] * np.exp(1j * phi)).ravel(), G.ravel()))
        return G

    monkeypatch.setattr(potentials, "_scan_G", record)
    rep = cl.sup_inf_scan(u, m)
    counts = {min(potentials.ANGULAR_BASE * 2 ** j, potentials.ANGULAR_CAP)
              for j in range(1, depth + 2)}
    assert len(calls) == len(counts) + 2
    scan = [r != 1.0 - 2.0 ** -(depth + 1) for r, _, _ in calls[:-1]]
    seen = np.concatenate([z[k] for k, (_, z, _) in zip(scan, calls)])
    want = _grid_loop_form(u, m, depth, potentials.GAP_POINTS)
    assert seen.shape == want.shape
    assert np.array_equal(seen.view(np.uint64), want.view(np.uint64))
    finer = _grid_loop_form(u, m, depth + 1, 2 * potentials.GAP_POINTS)
    assert np.array_equal(_sorted_bits(np.concatenate([z for _, z, _ in calls])),
                          _sorted_bits(finer))
    values = np.concatenate([G[k] for k, (_, _, G) in zip(scan, calls)] + [rep.atom_limits])
    for got, i in ((rep.sup_witness, np.argmax(values)), (rep.inf_witness, np.argmin(values))):
        assert got == (complex(want[i]) if i < want.size else f"atom-limit:{i - want.size}")
        if i < want.size:
            assert np.array_equal(np.array([got]).view(np.uint64), want[i:i + 1].view(np.uint64))


def test_scan_checks_the_grid_budget_before_allocating(monkeypatch):
    # circle points count only once the measure is known: exp20's scan set
    # is 57 312 ring points and 15 circle points in each of the 40 gaps
    # that do not hold the spectrum point 0
    u, m = _exp20()
    evaluated = []
    monkeypatch.setattr(potentials, "_scan_G", lambda *args: evaluated.append(args))
    monkeypatch.setattr(potentials, "GRID_BUDGET", 57_312 + 599)
    with pytest.raises(ClarkLabError, match="57912 points"):
        cl.sup_inf_scan(u, m)
    assert not evaluated


def test_scan_checks_the_refinement_level_before_the_scan_set_is_evaluated(monkeypatch):
    # at depth 1 exp20's scan set is 32 ring points and 15 circle points
    # in each of 40 gaps (632), its refinement level 64 ring points and 16
    # per gap (704): a budget between the two refuses the scan before any
    # point of either grid is evaluated
    u, m = _exp20()
    evaluated = []
    monkeypatch.setattr(potentials, "_scan_G", lambda *args: evaluated.append(args))
    _set(monkeypatch, GRID_DEPTH=1, GRID_BUDGET=650)
    with pytest.raises(ClarkLabError, match="704 points"):
        cl.sup_inf_scan(u, m)
    assert not evaluated


@pytest.mark.parametrize("case", [_exp20, _blaschke_singular], ids=["exp20", "blaschke-singular"])
def test_scan_agrees_across_disk_block_sizes(case, monkeypatch):
    # the disk sum takes each point's row of sources whole, so its block
    # size (DISK_BLOCK // (2 sources) angles) moves only the order in which
    # BLAS adds a row: blocks of 30 angles and the default's blocks of
    # hundreds differ by at most (sources) u of each sum, 4.4e-14 relative
    # at 401 sources; 1e-13 leaves a margin.  The rings at ANGULAR_CAP span
    # more than one default block
    u, m = case()
    assert potentials.ANGULAR_CAP > circle.DISK_BLOCK // (2 * m.n_atoms)
    default = cl.sup_inf_scan(u, m)
    monkeypatch.setattr(circle, "DISK_BLOCK", 61 * m.n_atoms)
    small = cl.sup_inf_scan(u, m)
    assert (small.sup_witness, small.inf_witness) == (default.sup_witness, default.inf_witness)
    for name in ("sup_estimate", "inf_estimate", "refined_sup_estimate"):
        a, b = getattr(small, name), getattr(default, name)
        assert abs(a - b) <= 1e-13 * abs(b)
    np.testing.assert_allclose(small.spectrum_values, default.spectrum_values, rtol=1e-13)


def test_disk_sum_matches_mpmath_on_the_exp_scan(rng):
    # V_mu on exp N = 200 (401 squared-measure atoms) at exact polar points:
    # a point of each ring 1..21, five-point clusters at chordal scale 2^-21
    # (2.4e-7 from their atoms, at radii 1 - 2^-22 and 1 - 2^-21) around the
    # spectrum point and two atoms, circle points 1/32 of a gap from those
    # two atoms (the nearest the scan comes), the spectrum point itself, and
    # points outside the disk.  The reference takes r, phi and the stored
    # angles as exact (mpmath, 40 digits); the bound is circle.disk_sum's:
    # each term within (13 sqrt(r)/|z - zeta| + 7) u of itself, the sum
    # within gamma_401 of the terms' sum.  On these points the sum errs by
    # at most 1.6e-12 relative and 0.06 of the bound, and the Cartesian form
    # at the rounded z by 4.6e-10, which the 1e-10 cap refuses
    mp = pytest.importorskip("mpmath")
    u, m = cl.inner_function(cl.ExpSingular()), cl.squared_measure(cl.exp_clark_data(200).measure)
    ring_r, ring_phi = zip(*((x, rng.choice(angles))
                             for radii, angles in potentials._rings(21) for x in radii))
    order = np.argsort(-(m.masses * _angular_derivatives(u, m.thetas) ** 2))
    centers = np.concatenate([m.thetas[order[[0, 400]]], [0.0]])
    d = 2.0 ** -21
    cr, cphi = np.broadcast_arrays((1.0 - d * np.array([0.5, 1.0]))[:, None],
                                   centers[:, None, None] + d * np.array([-1, -0.5, 0, 0.5, 1]))
    gap_points = m.thetas[order[[0, 400]]] + m.gaps[order[[0, 400]]] / 32
    r = np.concatenate([ring_r, cr.ravel(), [1.0, 1.0, 1.0, 1.5, 1.0 + d]])
    phi = np.concatenate([ring_phi, cphi.ravel(), gap_points, [0.0, 2.0, m.thetas[order[7]]]])
    # each point as its own one-point grid
    got = [potentials.potential_grid(m, x, t)[0, 0] for x, t in zip(r, phi)]
    uround = np.finfo(float).eps / 2
    gamma = 401 * uround / (1 - 401 * uround)
    with mp.workdps(40):
        cs = [(mp.cos(mp.mpf(t)), mp.sin(mp.mpf(t))) for t in m.thetas]
        ws = [mp.mpf(w) for w in m.masses]
        worst = 0.0
        for g, rn, pn in zip(got, r, phi):
            x, cp, sp = mp.mpf(rn), mp.cos(mp.mpf(pn)), mp.sin(mp.mpf(pn))
            dist2 = [x * x + 1 - 2 * x * (cp * c + sp * s) for c, s in cs]
            terms = [w / q for w, q in zip(ws, dist2)]
            want = mp.fsum(terms)
            t, q = np.array(terms, dtype=float), np.array(dist2, dtype=float)
            bound = t @ ((13 * np.sqrt(rn / q) + 7) * uround + gamma)
            assert abs(g - want) <= bound
            worst = max(worst, float(abs(g - want) / want))
    assert worst <= 1e-10
    # on an atom the potential is inf, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(potentials.potential_grid(m, 1.0, m.thetas[[0, 200, 400]])).all()


def test_self_sum_is_the_upper_triangle_block_expression():
    # kernel_sum: blocks of ROW_BLOCK rows from their
    # diagonal on, T = k(x_block - x[r:]) with a zero diagonal; the block's
    # own rows get T @ w, the rows below parity (T^T @ w_block), bit for
    # bit.  Complex weights go in as two real columns.  The Cauchy apply and
    # the atom sups are these sums, scaled
    m = cl.generate(cl.random_plan(cl.exp_clark_data(60), 4))
    half, N, R = 0.5 * m.thetas, m.n_atoms, circle.ROW_BLOCK
    assert N > 3 * R
    f = np.exp(1j * np.arange(N))
    alpha = np.linspace(0.1, 1.0, N)
    cases = {"cot": (lambda d: 1.0 / np.tan(d), -1, f * m.masses),
             "1+cot^2": (lambda d: 1.0 / np.tan(d) ** 2 + 1.0, 1, m.masses),
             "sqrt(1+cot^2)": (lambda d: np.sqrt(1.0 / np.tan(d) ** 2 + 1.0), 1,
                               m.masses * alpha),
             "1/d": (lambda d: 1.0 / d, -1, f)}
    want = {}
    for kernel, (k, parity, w) in cases.items():
        W = w[:, None] if np.isrealobj(w) else np.stack([w.real, w.imag], axis=1)
        out = np.zeros(W.shape)
        for r in range(0, N, R):
            e = min(r + R, N)
            d = half[r:e, None] - half[r:]
            diag = np.arange(e - r)
            d[diag, diag] = 1.0
            T = k(d)
            T[diag, diag] = 0.0
            out[r:e] += T @ W[r:]
            out[e:] += parity * (T[:, e - r:].T @ W[r:e])
        want[kernel] = out[:, 0] if np.isrealobj(w) else out[:, 0] + 1j * out[:, 1]
        got = circle.kernel_sum(half, w, kernel)
        assert got.dtype == want[kernel].dtype and got.tobytes() == want[kernel].tobytes()
    assert cl.atom_potential_sup(m).value == 0.25 * want["1+cot^2"].max()
    g = f * m.masses
    assert cl.CauchySection(m).apply(f).tobytes() == (
        0.5 * (g.sum() - g) + 0.5j * want["cot"]).tobytes()
