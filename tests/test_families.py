import numpy as np
import pytest

import clarklab as cl
from clarklab import families
from clarklab.errors import ClarkLabError
from clarklab.families import (CounterexampleBlaschke, ExpSingular, Monomial,
                               cayley, counterexample_base_phase,
                               counterexample_phase,
                               counterexample_sparse_atoms, divergence_ladder,
                               parse_family)

TWO_PI = 2 * np.pi


def test_parse_family_roundtrip():
    for text, spec in (("exp", ExpSingular()), ("monomial:4", Monomial(4)),
                       ("counterexample:1.0:64", CounterexampleBlaschke(1.0, 64)),
                       ("counterexample:0.5:32:sym", CounterexampleBlaschke(0.5, 32, True))):
        assert parse_family(text) == spec
    with pytest.raises(ValueError):
        parse_family("mystery:3")


def test_exp_closed_form_anchors():
    data = cl.exp_clark_data(3)
    n = data.lattice_indices
    i0 = int(np.nonzero(n == 0)[0][0])
    assert data.measure.thetas[i0] == pytest.approx(np.pi)
    assert data.measure.masses[i0] == pytest.approx(2.0)
    i1 = int(np.nonzero(n == 1)[0][0])
    assert data.measure.masses[i1] == pytest.approx(2.0 / (4 * np.pi**2 + 1), rel=1e-14)
    # conjugation symmetry of the lattice
    for k in (1, 2, 3):
        ip = int(np.nonzero(n == k)[0][0])
        im = int(np.nonzero(n == -k)[0][0])
        assert data.measure.thetas[ip] == pytest.approx(
            TWO_PI - data.measure.thetas[im], rel=1e-12)


def test_exp_derivatives_consistent(exp_u):
    data = cl.exp_clark_data(20)
    zs = data.measure.points_complex
    target = 2.0 / np.abs(zs - 1.0) ** 2
    assert np.max(np.abs(data.derivatives / target - 1)) < 1e-12


def test_numeric_atoms_match_closed_form(exp_u):
    closed = cl.exp_clark_data(100)
    num = cl.clark_data_for(ExpSingular(), truncation=100, tol=1e-13)
    assert num.n_atoms == closed.n_atoms == 201
    assert np.max(np.abs(num.measure.thetas - closed.measure.thetas)) < 1e-10


def test_counterexample_zeros_inside_disk():
    for alpha in (0.5, 1.0):
        fam = CounterexampleBlaschke(alpha=alpha, K=32)
        u = cl.inner_function(fam)
        assert all(abs(w) < 1 for w in u.zeros)
        assert u.accumulation == (0.0,)
    sym = cl.inner_function(CounterexampleBlaschke(alpha=1.0, K=8, symmetrized=True))
    assert len(sym.zeros) == 16


def test_cayley_maps_half_plane_to_disk(rng):
    w = rng.uniform(-5, 5, 50) + 1j * rng.uniform(0.1, 5, 50)
    assert np.all(np.abs(cayley(w)) < 1)


def test_divergence_ladder_counterexample_factual():
    # Truncations resolve only ~log(K) atoms on the sparse side of the
    # accumulation point (the boundary winding over (delta, pi/2] grows
    # like 2 log K), so these ladders see a single atom and carry no
    # finite pair sum.  The divergence of the untruncated family is a
    # statement about ever-deeper sparse atoms, not about these values.
    recs = divergence_ladder(CounterexampleBlaschke(alpha=1.0, K=64), [2, 64])
    assert recs[0].K == 2 and recs[0].n_atoms == 0
    assert np.isnan(recs[0].value)
    assert recs[1].n_atoms == 1
    assert np.isnan(recs[1].value)
    assert recs[1].scan_delta >= 1e-6


@pytest.mark.parametrize("text", [
    "counterexample:1.0:64",
    "counterexample:1.0:512",
    "counterexample:1.0:1000",
    "counterexample:1.0:2048",   # beyond the exact head
    "counterexample:0.5:64",
    "counterexample:1.0:16:sym",
    "counterexample:1.0:1024:sym",  # u(1) = 1: no atom at theta = 0
])
def test_sparse_route_matches_materialized_find_atoms(text):
    member = parse_family(text)
    # oracle: monotone-phase bisection on the materialized product, scanned
    # from well below the route's deepest atom, to adjacent floats: at
    # 1.0:1024:sym an atom next to a zero (|u'| = 2e6) moves its mass by
    # 2e5 times its own move
    atoms, bound = counterexample_sparse_atoms(member)
    assert atoms.n_atoms >= 1
    lo = min(1e-6, 0.5 * atoms.thetas[0])
    u = cl.inner_function(member)
    thetas, _ = cl.find_atoms(u, 0.0, cl.Arc(lo, np.pi / 2, False, True), tol=1e-15)
    masses = np.array([1.0 / cl.angular_derivative(u, t) for t in thetas])
    assert thetas.size == atoms.n_atoms
    assert np.max(np.abs(thetas - atoms.thetas)) <= 1e-12
    assert np.max(np.abs(masses / atoms.masses - 1.0)) <= 1e-10
    assert bound < 1e-11


@pytest.mark.parametrize("text", [
    "counterexample:1.0:64:sym",
    *(f"counterexample:1.0:{10**e}" for e in (3, 6, 9, 12)),
])
def test_sparse_route_matches_bisection_oracle(text):
    member = parse_family(text)
    # oracle: the route before the Newton solver, 64 halvings per level in
    # u = log(-x) from [0, 64], which ends below float64 resolution
    atoms, _ = counterexample_sparse_atoms(member)
    base, base_err = counterexample_base_phase(member)
    top = counterexample_phase(member, np.array([-1.0]))[0][0]
    k = np.arange(np.floor((base + base_err) / TWO_PI) + 1, np.floor((base + top) / TWO_PI) + 1)
    targets = TWO_PI * k - base
    lo, hi = np.zeros(k.size), np.full(k.size, 64.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = counterexample_phase(member, -np.exp(mid))[0] >= targets
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    x = -np.exp(0.5 * (lo + hi))
    masses = 2.0 / (counterexample_phase(member, x)[1] * (1.0 + x * x))
    assert atoms.n_atoms == k.size > 0
    assert np.max(np.abs(atoms.thetas - 2.0 * np.arctan(-1.0 / x))) <= 1e-12
    assert np.max(np.abs(atoms.masses / masses - 1.0)) <= 1e-10


def test_sparse_route_closed_form_oracle():
    # alpha = 1: Phi_K(x) = 2 Im[loggamma(K+1-x+i) - loggamma(1-x+i)],
    # Phi_K'(x) = 2 Im[psi(K+1-x-i) - psi(1-x-i)], and
    # arg u(1) = -Im[loggamma(K+1+2i) - loggamma(1+2i)]
    special = pytest.importorskip("scipy.special")
    for K in (10**6, 10**9, 10**12):
        member = CounterexampleBlaschke(alpha=1.0, K=K)
        atoms, atoms_bound = counterexample_sparse_atoms(member)
        x = np.concatenate([[-1.0, -3.0, -1e3, -float(K), -10.0 * K],
                            -1.0 / np.tan(0.5 * atoms.thetas)])
        phi, dphi, bound = counterexample_phase(member, x)
        phi_cf = 2 * np.imag(special.loggamma(K + 1 - x + 1j)
                             - special.loggamma(1 - x + 1j))
        dphi_cf = 2 * np.imag(special.digamma(K + 1 - x - 1j)
                              - special.digamma(1 - x - 1j))
        assert np.all(np.abs(phi - phi_cf) <= bound)
        assert np.max(np.abs(dphi / dphi_cf - 1.0)) < 1e-12
        base, base_bound = counterexample_base_phase(member)
        base_cf = -np.imag(special.loggamma(K + 1 + 2j) - special.loggamma(1 + 2j))
        assert abs(base - base_cf) <= base_bound
        # every located atom sits on a level of the closed-form phase; the
        # slack covers scipy's own rounding and the theta -> x round trip
        on = phi_cf[5:] + base_cf
        resid = np.abs(np.mod(on + np.pi, 2 * np.pi) - np.pi)
        assert np.all(resid <= atoms_bound + 1e-13)
        assert atoms_bound < 1e-11


@pytest.mark.parametrize("text", [
    f"counterexample:1.0:{families.EXACT_HEAD + 1}:sym",
    f"counterexample:1.0:{10**12}:sym",
    f"counterexample:0.5:{10**6}",
    f"counterexample:1.0:{2**53 + 1}",
])
def test_sparse_route_rejects_without_materializing(text):
    member = parse_family(text)
    # a fall-through to the K-tuple of zeros would take minutes or exhaust
    # memory at these K; the route refuses up front instead
    with pytest.raises(ClarkLabError):
        divergence_ladder(member, [member.K])


def test_sparse_ladder_beyond_duplicate_tolerance_raises_domain_error():
    # at K = 10^15 the sparse atoms sit 9.4e-13 rad apart, below the
    # absolute DUPLICATE_TOL of AtomicMeasure
    with pytest.raises(ClarkLabError, match="duplicate atoms"):
        divergence_ladder(CounterexampleBlaschke(alpha=1.0, K=10**15), [10**15])


def test_sparse_route_level_budget(monkeypatch):
    # the alpha != 1 head sum builds a (points x zeros) array; alpha = 1
    # reads the closed form and builds none
    member = CounterexampleBlaschke(alpha=0.5, K=100, symmetrized=True)
    assert counterexample_sparse_atoms(member)[0].n_atoms == 98
    monkeypatch.setattr(families, "LEVEL_BUDGET", 98 * 200 // 2)
    with pytest.raises(ClarkLabError, match="memory budget"):
        counterexample_sparse_atoms(member)


def test_divergence_ladder_exp_contrast_stable():
    recs = divergence_ladder(ExpSingular(), [64, 128, 256, 512])
    vals = [r.value for r in recs]
    assert all(np.isfinite(v) for v in vals)
    assert recs[0].n_atoms == 64 and recs[-1].n_atoms == 512
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 0.01
    # frozen from the closed-form lattice
    assert vals[-1] == pytest.approx(0.13657787, abs=1e-6)


def test_divergence_ladder_rejects_monomial():
    with pytest.raises(ValueError):
        divergence_ladder(Monomial(2), [4])


def test_clark_data_for_monomial():
    data = cl.clark_data_for(Monomial(4), alpha=0.0)
    assert data.n_atoms == 4
    assert np.allclose(data.measure.masses, 0.25)
    th = np.sort(data.measure.thetas)
    assert np.allclose(th, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-11)


def test_tail_bounds_dominate_actual_tails():
    # the closed-form lattice sums stay below their integral bounds, which
    # are 1 and 1/2 at N = 0
    full = cl.exp_total_mass()
    assert (cl.exp_tail_mass_bound(0), cl.exp_tail_potential_bound(0)) == (1.0, 0.5)
    for N in (0, 10, 100, 1000):
        tail = full - cl.exp_clark_data(N).measure.total_mass
        assert 0 < tail <= cl.exp_tail_mass_bound(N)
        pot_tail = 0.5 * full - cl.potential(
            cl.squared_measure(cl.exp_clark_data(N).measure), 1.0)
        assert 0 < pot_tail <= cl.exp_tail_potential_bound(N)
