import numpy as np
import pytest

import clarklab as cl
from clarklab import clark, inner
from clarklab.clark import C1_DERIVATIVE_RATIO
from clarklab.errors import SpectrumPoint
from clarklab.families import clark_scan_arc, exp_lattice, parse_family
from oracles import EmptyArc, comparability_check

TWO_PI = 2 * np.pi


def test_find_atoms_monomial_quarter():
    thetas, flags = cl.find_atoms(cl.monomial(1), 0.25, cl.Arc.full_circle(), tol=1e-13)
    assert thetas.shape == flags.shape == (1,)
    assert thetas[0] == pytest.approx(np.pi / 2, abs=1e-12)


def test_find_atoms_z2():
    thetas = np.sort(cl.find_atoms(cl.monomial(2), 0.0, cl.Arc.full_circle(), tol=1e-13)[0])
    assert len(thetas) == 2
    assert thetas[0] == pytest.approx(0.0, abs=1e-12)
    assert thetas[1] == pytest.approx(np.pi, abs=1e-12)


def test_find_atoms_exp_center(exp_u):
    scan = cl.Arc(0.05, TWO_PI - 0.05, True, True)
    thetas, _ = cl.find_atoms(exp_u, 0.0, scan, tol=1e-13)
    # the label-0 atom sits at pi exactly
    assert np.min(np.abs(thetas - np.pi)) < 1e-12


def test_find_atoms_refinement_idempotent(exp_u):
    scan = cl.Arc(0.05, TWO_PI - 0.05, True, True)
    coarse, _ = cl.find_atoms(exp_u, 0.0, scan, tol=1e-6)
    fine, _ = cl.find_atoms(exp_u, 0.0, scan, tol=5e-7)
    assert coarse.size == fine.size
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_scan_through_spectrum_rejected(exp_u):
    with pytest.raises(SpectrumPoint):
        cl.find_atoms(exp_u, 0.0, cl.Arc.full_circle())


@pytest.mark.parametrize("side", ["above", "below"])
def test_scan_end_near_spectrum_rejected_within_the_margin(exp_u, side):
    # exp's spectrum is {0}; the scan keeps the angular margin
    # 2 arcsin(EPS_SPECTRUM/2) ~ 1e-8 from it, across the wrap at 2 pi too.
    # The arcs are 1e-13 long, so the accepted ones hold few levels.
    def arc(gap):
        if side == "above":
            return cl.Arc(gap, gap + 1e-13, True, True)
        return cl.Arc(2 * np.pi - gap - 1e-13, 2 * np.pi - gap, True, True)

    with pytest.raises(SpectrumPoint, match="theta=0"):
        cl.find_atoms(exp_u, 0.0, arc(1e-9))
    thetas, _ = cl.find_atoms(exp_u, 0.0, arc(2e-8))
    assert thetas.size >= 1


def test_clark_data_monomials(z2_data):
    d1 = cl.clark_data(cl.monomial(1), 0.0, cl.Arc.full_circle())
    assert d1.n_atoms == 1
    assert d1.measure.masses[0] == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(d1.A)  # single atom: no neighbor constants
    assert z2_data.measure.masses == pytest.approx([0.5, 0.5], abs=1e-12)
    assert z2_data.A == pytest.approx(0.25, abs=1e-12)
    assert z2_data.B == pytest.approx(0.25, abs=1e-12)


def test_clark_data_exp_masses(exp_u):
    data = cl.clark_data_for(cl.ExpSingular(), truncation=100)
    n = data.lattice_indices
    target = 2.0 / (4 * n.astype(float) ** 2 * np.pi**2 + 1)
    assert np.max(np.abs(data.measure.masses / target - 1)) < 1e-10


def test_mass_derivative_duality(z4_data):
    for data in (z4_data, cl.exp_clark_data(50)):
        prod = data.measure.masses * data.derivatives
        assert np.max(np.abs(prod - 1)) < 1e-10


def test_total_mass_identity_exp():
    # sum of Clark masses tends to the closed-form lattice total coth(1/2)
    total = cl.exp_total_mass()
    assert total == pytest.approx(2.16395341, abs=1e-8)
    for N in (100, 1000):
        s = cl.exp_clark_data(N).measure.total_mass
        assert 0 < total - s <= cl.exp_tail_mass_bound(N) * 1.001


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_interlacing(exp_u, alpha):
    scan = cl.Arc(0.1, TWO_PI - 0.1, True, True)
    base, _ = cl.find_atoms(exp_u, 0.0, scan)
    other, _ = cl.find_atoms(exp_u, alpha, scan)
    # between consecutive base atoms lies exactly one alpha-atom
    for a, b in zip(base[:-1], base[1:]):
        assert np.sum((other > a) & (other < b)) == 1


def test_phase_partition_monomials():
    cells = cl.phase_partition(cl.monomial(1), 4, cl.Arc.full_circle())
    assert len(cells) == 4
    assert all(c.length == pytest.approx(np.pi / 2, abs=1e-10) for c in cells)
    cells = cl.phase_partition(cl.monomial(2), 2, cl.Arc.full_circle())
    assert len(cells) == 4
    assert all(c.length == pytest.approx(np.pi / 2, abs=1e-10) for c in cells)


def test_phase_partition_increment(exp_u):
    N = 8
    cells = cl.phase_partition(exp_u, N, cl.Arc(0.1, TWO_PI - 0.1, True, True))
    for c in cells[:20]:
        dp = (cl.boundary_phase(exp_u, c.start + c.length)
              - cl.boundary_phase(exp_u, c.start))
        assert dp == pytest.approx(TWO_PI / N, abs=1e-9)
    # cells shrink toward the spectrum like 1/(N |u'|)
    first, middle = cells[0], cells[len(cells) // 2]
    assert first.length < middle.length * 1e-2


def test_partition_regularity_monomials():
    rep = cl.partition_regularity(cl.monomial(1), 8, cl.Arc.full_circle())
    assert rep.max_derivative_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.passed
    rep2 = cl.partition_regularity(cl.monomial(2), 8, cl.Arc.full_circle())
    assert rep2.max_derivative_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep2.passed


def test_partition_regularity_exp(exp_u):
    rep = cl.partition_regularity(exp_u, 64, cl.Arc(0.05, TWO_PI - 0.05, True, True))
    assert rep.max_derivative_ratio <= C1_DERIVATIVE_RATIO
    assert rep.passed
    assert "hypothesis" in rep.hypothesis_note


def test_comparability_z2():
    d0 = cl.clark_data(cl.monomial(2), 0.0, cl.Arc.full_circle())
    dh = cl.clark_data(cl.monomial(2), 0.5, cl.Arc.full_circle())
    q = cl.Arc(-np.pi / 4, 3 * np.pi / 4, True, False)
    rep = comparability_check(d0, dh, [q])
    assert rep.ratio_min == pytest.approx(1.0)
    assert rep.ratio_max == pytest.approx(1.0)
    rep_full = comparability_check(d0, dh, [cl.Arc.full_circle()])
    assert rep_full.ratio_max == pytest.approx(1.0)
    with pytest.raises(EmptyArc):
        comparability_check(d0, dh, [cl.Arc(0.1, 0.2)])


def test_comparability_exp_dyadic(exp_u):
    scan = cl.Arc(0.3, TWO_PI - 0.3, True, True)
    d0 = cl.clark_data(exp_u, 0.0, scan)
    dh = cl.clark_data(exp_u, 0.5, scan)
    arcs = [cl.Arc(np.pi - w, np.pi + w, True, True)
            for w in (2.55, 2.85, 3.0)]
    rep = comparability_check(d0, dh, arcs)
    assert 0 < rep.ratio_min <= rep.ratio_max < np.inf
    assert rep.n_lebesgue_arcs >= 1
    assert rep.lebesgue_ratio_max < np.inf


def test_edge_uncertain_flags(exp_u):
    scan = cl.Arc(0.05, TWO_PI - 0.05, True, True)
    data = cl.clark_data(exp_u, 0.0, scan, tol=1e-10)
    assert data.edge_uncertain is not None
    assert not data.edge_uncertain.all()


def exp_scan(N):
    """The scan clark_data_for uses for the exp atoms |n| <= N."""
    th = exp_lattice([-(N + 1), -N, N, N + 1])[0]
    return cl.Arc(0.5 * (th[0] + th[1]), 0.5 * (th[2] + th[3]), True, True)


def bisection_oracle(u, scan, offset, step):
    """The locator before the Newton solver: every level offset + step k
    in the lift's range over the scan, bisected 47 times from the whole
    scan (the bracket then lies below 1e-13 rad).  Returns k and the
    roots as canonical angles."""
    lo = scan.start
    hi = lo + scan.length
    p_lo, p_hi = inner._phase_lift(u, np.array([lo, hi]))
    k = np.arange(np.ceil((p_lo - offset) / step - 1e-12),
                  np.floor((p_hi - offset) / step + 1e-12) + 1)
    levels = offset + step * k
    a, b = np.full(k.size, lo), np.full(k.size, hi)
    for _ in range(47):
        mid = 0.5 * (a + b)
        below = inner._phase_lift(u, mid) < levels
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    return k, np.mod(0.5 * (a + b), TWO_PI)


def angle_gap(a, b):
    return np.abs(np.mod(np.asarray(a) - b + np.pi, TWO_PI) - np.pi)


@pytest.mark.parametrize("family, alpha, scan", [
    ("monomial:1024", 0.3, cl.Arc.full_circle()),
    ("exp", 0.0, exp_scan(1000)),
    ("counterexample:1.0:1024", 0.0, None),
    ("counterexample:0.5:256", 0.0, None),
    ("counterexample:1.0:64:sym", 0.0, None),
])
def test_solver_matches_bisection_oracle(family, alpha, scan):
    fam = parse_family(family)
    u = cl.inner_function(fam)
    scan = scan or clark_scan_arc(fam)
    # the partition's levels are pi Z; at alpha = 0 the atoms' levels are
    # its even members, so one oracle run serves both
    k, oracle = bisection_oracle(u, scan, 0.0, np.pi)
    cells = cl.phase_partition(u, 2, scan)
    ends = [c.start for c in cells] + [cells[-1].start + cells[-1].length]
    assert len(ends) == oracle.size
    assert np.max(angle_gap(ends, oracle)) <= 1e-12
    if alpha == 0.0:
        oracle = oracle[k % 2 == 0]
    else:
        oracle = bisection_oracle(u, scan, TWO_PI * alpha, TWO_PI)[1]
    atoms, _ = cl.find_atoms(u, alpha, scan)
    assert len(atoms) == oracle.size > 0
    assert np.max(angle_gap(atoms, oracle)) <= 1e-12


def count_phase_calls(monkeypatch):
    """The points of every call clark makes to the phase kernel: the
    scan sample first, then one call per solver pass."""
    calls = []

    def phase(u, t, **parts):
        calls.append(np.array(t))
        return inner._phase(u, t, **parts)

    monkeypatch.setattr(clark, "_phase", phase)
    return calls


@pytest.mark.parametrize("u, scan", [(cl.monomial(8), cl.Arc.full_circle()),
                                     (cl.SingularAtomic(atoms=((0.0, 1.0),)), exp_scan(20))],
                         ids=["monomial:8", "exp:20"])
def test_tol_below_float_resolution_terminates(u, scan, monkeypatch):
    ref, _ = cl.find_atoms(u, 0.0, scan, tol=1e-13)
    calls = count_phase_calls(monkeypatch)
    fine, _ = cl.find_atoms(u, 0.0, scan, tol=1e-20)
    # no bracket gets below 1e-20 wide: the adjacent-floats stop ends the
    # levels, after 3 (monomial) and 8 (exp) solver passes when measured
    assert len(calls) <= 1 + 16
    assert fine.size == ref.size
    assert np.max(angle_gap(fine, ref)) <= 1e-13


def test_exact_newton_step_still_closes_bracket(monkeypatch):
    # z^1024 has a linear lift, so the first Newton step lands on every
    # root; the push past it must close the bracket at once instead of
    # leaving one end behind for bisection to walk in
    calls = count_phase_calls(monkeypatch)
    thetas, _ = cl.find_atoms(cl.monomial(1024), 0.0, cl.Arc.full_circle(), tol=1e-13)
    assert len(thetas) == 1024
    assert len(calls) <= 1 + 3  # the scan sample, then the solver
    assert np.max(angle_gap(thetas, TWO_PI * np.arange(1024) / 1024)) <= 1e-13


def test_solver_passes_hand_the_kernel_distinct_points(monkeypatch):
    # levels that share a sample cell share its midpoint on the first
    # pass; each pass evaluates such a point once
    fam = parse_family("counterexample:1.0:1024")
    u = cl.inner_function(fam)
    calls = count_phase_calls(monkeypatch)
    assert len(cl.find_atoms(u, 0.0, clark_scan_arc(fam))[0]) == 1024
    solver = calls[1:]
    assert len(solver) >= 2
    assert all(np.unique(t).size == t.size for t in solver)
    # the first pass would have handed 1024 midpoints to the kernel
    assert solver[0].size < 100


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_locators_reject_bad_tol(tol):
    u = cl.monomial(4)
    with pytest.raises(ValueError, match="finite and positive"):
        cl.find_atoms(u, 0.0, cl.Arc.full_circle(), tol=tol)
