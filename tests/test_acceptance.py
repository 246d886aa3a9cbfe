"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criterion 8's divergence ladder runs on the sparse side of the
counterexample, where a K-zero truncation holds about log(K)/pi - 0.15
atoms in (0, pi/2] and each further atom adds about 1/4 to the
squared-mass atom-potential sup.  Its rungs K = 10^3 .. 10^12 are fixed
by that count law (predicted 2, 4, 6, 8 atoms), not by measured sups.
"""
import time

import numpy as np
import pytest

import clarklab as cl
from clarklab.errors import ConstraintViolation
from clarklab.families import CounterexampleBlaschke, ExpSingular, divergence_ladder

COTH_HALF = 1.0 / np.tanh(0.5)


def _line(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_exp_atoms_closed_form():
    t0 = time.perf_counter()
    num = cl.clark_data_for(ExpSingular(), truncation=100, tol=1e-13)
    elapsed = time.perf_counter() - t0
    closed = cl.exp_clark_data(100)
    dev = float(np.max(np.abs(num.measure.thetas - closed.measure.thetas)))
    n = closed.lattice_indices.astype(float)
    mass_rel = float(np.max(np.abs(
        num.measure.masses * (4 * n**2 * np.pi**2 + 1) / 2.0 - 1.0)))
    ok = (num.n_atoms == 201 and dev < 1e-10 and mass_rel < 1e-10
          and elapsed < 2.0)
    assert _line(1, ok, f"atom dev {dev:.2e} rad, mass rel {mass_rel:.2e}, "
                        f"{elapsed:.2f}s")


def test_criterion_2_total_mass_tail():
    # deficit of the lattice sum against coth(1/2), checked against the
    # two-sided integral tail bound (both tails of |n| > N)
    deficits = []
    for N in (100, 1000, 10_000):
        s = cl.exp_clark_data(N).measure.total_mass
        deficits.append(COTH_HALF - s)
    decreasing = deficits[0] > deficits[1] > deficits[2] > 0
    bound = cl.exp_tail_mass_bound(10_000) * (1 + 1e-3)
    ok = decreasing and deficits[2] <= bound
    assert _line(2, ok, f"deficit at 1e4 = {deficits[2]:.4e} <= {bound:.4e}")


def test_criterion_3_squared_mass_criterion_stability():
    v3 = cl.atom_potential_sup(
        cl.squared_measure(cl.exp_clark_data(1000).measure)).value
    v4 = cl.atom_potential_sup(
        cl.squared_measure(cl.exp_clark_data(10_000).measure)).value
    change = abs(v4 - v3) / v4
    mu = cl.squared_measure(cl.exp_clark_data(10_000).measure)
    v_spec = cl.potential(mu, 1.0)
    target = 0.5 * COTH_HALF
    pot_ok = abs(v_spec - target) <= 1e-6 + cl.exp_tail_potential_bound(10_000)
    ok = change < 0.01 and pot_ok
    assert _line(3, ok, f"sup change {change:.2e}, V(1) = {v_spec:.8f} vs "
                        f"{target:.8f}")


def test_criterion_4_tolsa_and_norm_ladders():
    # exact 2x2 anchors
    z2 = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
    norm_z2 = cl.operator_norm(z2, [2]).values[0]
    tolsa_z2 = cl.tolsa_scan(cl.CauchySection(z2)).max_ratio
    anchors = abs(norm_z2 - 0.25) < 1e-10 and abs(tolsa_z2 - 0.25) < 1e-10
    # section ladders on the exponential lattice
    measure = cl.exp_clark_data(1400).measure
    r1 = cl.tolsa_scan(cl.nested_sections(measure, [1024])[0]).max_ratio
    r2 = cl.tolsa_scan(cl.nested_sections(measure, [2048])[0]).max_ratio
    tolsa_ok = r2 >= r1 - 1e-9 and (r2 / r1 - 1) < 0.05
    est = cl.operator_norm(measure, [2**k for k in range(5, 11)])
    nondec = all(b >= a - 1e-9 for a, b in zip(est.values, est.values[1:]))
    norm_ok = nondec and est.last_doubling_growth < 0.05 and all(est.converged)
    ok = anchors and tolsa_ok and norm_ok
    assert _line(4, ok, f"anchors {norm_z2:.3f}/{tolsa_z2:.3f}, tolsa "
                        f"{r1:.5f}->{r2:.5f} (+{(r2/r1-1)*100:.2f}%), norms "
                        f"{est.values[0]:.5f}..{est.values[-1]:.5f} "
                        f"(+{est.last_doubling_growth*100:.2f}%)")


def test_criterion_5_hilbert_route():
    data = cl.exp_clark_data(100)
    sec = cl.CauchySection(data.measure, lattice_indices=data.lattice_indices)
    rng = np.random.default_rng(5)
    worst = 0.0
    fs = [np.ones(sec.N, dtype=complex)]
    fs += [rng.standard_normal(sec.N) + 1j * rng.standard_normal(sec.N)
           for _ in range(20)]
    for f in fs:
        dev = float(np.max(np.abs(cl.hilbert_route(sec, f) - sec.apply(f))))
        worst = max(worst, dev)
    ok = worst < 1e-10
    assert _line(5, ok, f"max componentwise deviation {worst:.2e}")


def test_criterion_6_bessonov_conditions():
    verdicts = {}
    for k in (1, 2, 4):
        verdicts[f"z^{k}"] = cl.bessonov_check(
            cl.clark_data_for(cl.Monomial(k)).measure).verdict
    verdicts["exp"] = cl.bessonov_check(
        cl.exp_clark_data(1000).measure, [0.0]).verdict
    good = all(v in ("pass", "pass-with-flags") for v in verdicts.values())
    broken = cl.bessonov_check(
        cl.squared_measure(cl.exp_clark_data(1000).measure),
        [0.0])
    rec = broken.record("iv-mass-gap-constants")
    broken_ok = (broken.verdict == "fail" and not rec.passed
                 and rec.details["witness_A"] >= 0)
    ok = good and broken_ok
    assert _line(6, ok, f"{verdicts}; squared-mass candidate fails (iv) with "
                        f"witness atom {rec.details['witness_A']}")


def test_criterion_7_radial_limits():
    u = cl.SingularAtomic(atoms=((0.0, 1.0),))
    data = cl.exp_clark_data(2000)
    mu = cl.squared_measure(data.measure)
    worst = 0.0
    for k in (0, 1, -1, 5, -5):
        idx = int(np.nonzero(data.lattice_indices == k)[0][0])
        rep = cl.radial_limit_check(u, mu, idx)
        worst = max(worst, rep.rel_error)
        if k == 0:
            assert rep.target == pytest.approx(1.0, rel=1e-12)
    ok = worst < 1e-3
    assert _line(7, ok, f"max relative extrapolation error {worst:.2e}")


def test_criterion_8_counterexample_divergence():
    t0 = time.perf_counter()
    ladder = divergence_ladder(CounterexampleBlaschke(alpha=1.0, K=512),
                               [10**3, 10**6, 10**9, 10**12])
    elapsed = time.perf_counter() - t0
    vals = [r.value for r in ladder]
    contrast = divergence_ladder(ExpSingular(), [64, 128, 256, 512])
    cvals = [r.value for r in contrast]
    contrast_ok = (all(np.isfinite(v) for v in cvals)
                   and (max(cvals) - min(cvals)) / max(cvals) < 0.01)
    finite = all(np.isfinite(v) for v in vals)
    increasing = finite and all(b > a for a, b in zip(vals, vals[1:]))
    fourfold = finite and vals[-1] >= 4 * vals[0]
    ok = increasing and fourfold and contrast_ok and elapsed < 60.0
    detail = (f"ladder values {vals} (atoms "
              f"{[r.n_atoms for r in ladder]}), contrast spread "
              f"{(max(cvals)-min(cvals))/max(cvals):.2e}, {elapsed:.1f}s")
    _line(8, ok, detail)
    assert ok, (
        "counterexample ladder must be finite, strictly increasing and grow "
        "at least fourfold (each sparse atom adds about 1/4 to the sup), "
        "with the exponential contrast flat to 1%, within 60 s. "
        f"Observed: {detail}")


def test_criterion_9_perturbation_pipeline():
    base = cl.exp_clark_data(200)
    ref = cl.atom_potential_sup(cl.squared_measure(base.measure)).value
    all_pass = True
    envelope = True
    for seed in range(20):
        lam = cl.generate(cl.random_plan(base, seed=seed))
        rep = cl.bessonov_check(lam, [0.0])
        all_pass &= rep.verdict in ("pass", "pass-with-flags")
        val = cl.atom_potential_sup(cl.squared_measure(lam)).value
        envelope &= (val <= 9 * ref) and (ref <= 9 * val)
    # invalid plans are rejected with the failing bound
    cap = cl.admissible_alpha_bound(base.A, base.B)
    sig = base.measure.masses
    n = base.measure.n_atoms
    rejected = {}
    bad_plans = {
        "alpha-sup-cap": dict(alpha=np.full(n, 2 * cap),
                              t_offsets=np.zeros(n), eps=np.zeros(n)),
        "atom-offset-cap": dict(alpha=np.full(n, 0.5 * cap),
                                t_offsets=2 * sig * 0.5 * cap * np.ones(n),
                                eps=np.zeros(n)),
        "mass-offset-cap": dict(alpha=np.full(n, 0.5 * cap),
                                t_offsets=np.zeros(n),
                                eps=2 * sig * 0.5 * cap * np.ones(n)),
    }
    for bound, kw in bad_plans.items():
        try:
            cl.generate(cl.PerturbationPlan(base=base, **kw))
            rejected[bound] = False
        except ConstraintViolation as e:
            rejected[bound] = e.bound == bound
    ok = all_pass and envelope and all(rejected.values())
    assert _line(9, ok, f"20 plans pass={all_pass}, envelope<=9x={envelope}, "
                        f"rejections={rejected}")


def test_criterion_10_kernel_norm_oracle():
    m = cl.AtomicMeasure([0.0], [1.0])
    u = cl.monomial(1)
    worst = 0.0
    for w in (0.0, 0.3, 0.5j):
        def fprime(z, w=w):
            return np.conj(w) / (1 - np.conj(w) * z) ** 2
        quad = cl.dirichlet_quadrature(m, fprime).value
        kn = cl.kernel_norms(u, m, w)
        closed = kn.dmu_norm_sq - 1.0 / (1 - abs(w) ** 2)
        worst = max(worst, abs(quad - closed))
    ok = worst < 1e-4
    assert _line(10, ok, f"max |quadrature - closed form| = {worst:.2e}")
