import numpy as np
import pytest

import clarklab as cl
from clarklab.errors import ConstraintViolation, DimensionMismatch, InvalidConstants
from clarklab.perturb import PerturbationPlan


def test_admissible_alpha_bound_examples():
    assert cl.admissible_alpha_bound(0.25, 0.25) == pytest.approx(0.5)
    assert cl.admissible_alpha_bound(1.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert cl.admissible_alpha_bound(0.01, 1.0) == pytest.approx(1.0 / 300.0)
    with pytest.raises(InvalidConstants):
        cl.admissible_alpha_bound(2.0, 1.0)
    with pytest.raises(InvalidConstants):
        cl.admissible_alpha_bound(float("nan"), 1.0)


def test_interaction_sup_examples(z2_data):
    val, wit = cl.interaction_sup(z2_data, np.full(2, 0.1))
    assert val == pytest.approx(0.025)
    val0, _ = cl.interaction_sup(z2_data, np.zeros(2))
    assert val0 == 0.0
    with pytest.raises(DimensionMismatch):
        cl.interaction_sup(z2_data, np.ones(3))


def test_interaction_sup_exp_stable():
    d1 = cl.exp_clark_data(500)
    d2 = cl.exp_clark_data(1000)
    a1 = 1.0 / (1.0 + d1.lattice_indices.astype(float) ** 2)
    a2 = 1.0 / (1.0 + d2.lattice_indices.astype(float) ** 2)
    v1, _ = cl.interaction_sup(d1, a1)
    v2, _ = cl.interaction_sup(d2, a2)
    assert np.isfinite(v2)
    assert abs(v2 - v1) < 0.01 * v2


def test_generate_zero_plan_is_identity(z2_data):
    plan = PerturbationPlan(base=z2_data, alpha=np.full(2, 1e-9),
                            t_offsets=np.zeros(2), eps=np.zeros(2))
    lam = cl.generate(plan)
    assert np.allclose(lam.thetas, z2_data.measure.thetas)
    assert np.allclose(lam.masses, z2_data.measure.masses)


def test_generate_z2_small_offsets(z2_data):
    alpha = np.full(2, 0.5)
    sig = z2_data.measure.masses
    plan = PerturbationPlan(base=z2_data, alpha=alpha,
                            t_offsets=0.2 * sig * alpha, eps=np.zeros(2))
    lam = cl.generate(plan)
    assert lam.n_atoms == 2
    assert np.allclose(lam.masses, 0.5)
    assert cl.bessonov_check(lam).verdict == "pass"


@pytest.mark.parametrize("kind,bound", [
    ("alpha", "alpha-sup-cap"),
    ("offset", "atom-offset-cap"),
    ("eps", "mass-offset-cap"),
])
def test_generate_rejects_violations(z2_data, kind, bound):
    cap = cl.admissible_alpha_bound(z2_data.A, z2_data.B)
    alpha = np.full(2, 0.9 * cap)
    sig = z2_data.measure.masses
    t_offsets = np.zeros(2)
    eps = np.zeros(2)
    if kind == "alpha":
        alpha = np.full(2, 2 * cap)
    elif kind == "offset":
        t_offsets = 2 * sig * alpha
    else:
        eps = 2 * sig * alpha
    plan = PerturbationPlan(base=z2_data, alpha=alpha, t_offsets=t_offsets, eps=eps)
    with pytest.raises(ConstraintViolation) as exc:
        cl.generate(plan)
    assert exc.value.bound == bound
    assert 0 <= exc.value.index < 2


def test_squared_measure_examples():
    m = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
    sq = cl.squared_measure(m)
    assert np.allclose(sq.masses, 0.25)
    assert np.allclose(sq.thetas, m.thetas)
    n = cl.exp_clark_data(10)
    sq2 = cl.squared_measure(n.measure)
    k = n.lattice_indices.astype(float)
    assert np.allclose(sq2.masses, 4.0 / (4 * k**2 * np.pi**2 + 1) ** 2, rtol=1e-12)
    assert cl.squared_measure(cl.AtomicMeasure.empty()).n_atoms == 0


def test_random_plans_generate_valid_measures():
    base = cl.exp_clark_data(100)
    ref = cl.atom_potential_sup(cl.squared_measure(base.measure)).value
    for seed in range(5):
        plan = cl.random_plan(base, seed=seed)
        lam = cl.generate(plan)
        rep = cl.bessonov_check(lam, accumulation_points=[0.0])
        assert rep.verdict in ("pass", "pass-with-flags")
        adm = cl.perturbed_admissibility(base, lam)
        assert adm.passed
        val = cl.atom_potential_sup(cl.squared_measure(lam)).value
        assert val <= 9 * ref and ref <= 9 * val


def test_random_plans_on_monomial_base(z4_data):
    for seed in range(5):
        lam = cl.generate(cl.random_plan(z4_data, seed=seed))
        assert cl.bessonov_check(lam).verdict == "pass"
