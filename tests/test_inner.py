import math

import numpy as np
import pytest

import clarklab as cl
from clarklab import inner
from clarklab.errors import DegenerateSymbol, SpectrumPoint


def nested_product():
    """Product(Product(s, b), b2, 1) and its factors: a singular factor
    first, zeros at the origin, the empty product, and spectrum angles
    0, 3, 5, 4 in factor order (none of them in (0.5, 2.5))."""
    s = cl.SingularAtomic(atoms=((0.0, 1.0), (3.0, 0.4)))
    b = cl.FiniteBlaschke(zeros=(0.3 + 0.1j, -0.5j, 0.0), constant=np.exp(0.7j),
                          accumulation=(5.0,))
    b2 = cl.FiniteBlaschke(zeros=(0.0, 0.6 + 0.6j), accumulation=(4.0,))
    one = cl.Product(factors=())
    return cl.Product(factors=(cl.Product(factors=(s, b)), b2, one)), (s, b, b2, one)


def test_eval_identity_blaschke():
    u = cl.FiniteBlaschke(zeros=(0.0,))
    assert cl.evaluate(u, 0.5) == pytest.approx(0.5)


def test_eval_singular_at_origin(exp_u):
    assert cl.evaluate(exp_u, 0.0) == pytest.approx(np.exp(-1.0), abs=1e-14)


def test_eval_singular_boundary_value(exp_u):
    # u(-1) = exp((−1+1)/(−1−2... )) = exp(0) = 1
    assert cl.evaluate(exp_u, -1.0 + 0.0j) == pytest.approx(1.0, abs=1e-14)


def test_eval_at_spectrum_raises(exp_u):
    with pytest.raises(SpectrumPoint):
        cl.evaluate(exp_u, 1.0 + 0.0j)


def test_eval_modulus_bounds(rng, exp_u):
    # |u| <= 1 + 1e-12 inside the disk for 1e3 random points, both families
    r = np.sqrt(rng.uniform(0, 1, 1000)) * 0.999
    t = rng.uniform(0, 2 * np.pi, 1000)
    z = r * np.exp(1j * t)
    b = cl.FiniteBlaschke(zeros=(0.3 + 0.1j, -0.5j, 0.0), constant=np.exp(0.7j))
    for u in (b, exp_u, cl.Product(factors=(b, exp_u)), nested_product()[0]):
        vals = cl.evaluate(u, z)
        assert np.max(np.abs(vals)) <= 1 + 1e-12


def test_boundary_unimodular_away_from_spectrum(rng, exp_u):
    t = rng.uniform(0.3, 2 * np.pi - 0.3, 200)
    vals = cl.evaluate(exp_u, np.exp(1j * t))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-10


def test_phase_winding_monomials():
    u1 = cl.monomial(1)
    p = cl.boundary_phase
    assert p(u1, np.pi) - p(u1, 0.0) == pytest.approx(np.pi)
    u2 = cl.monomial(2)
    assert p(u2, 2 * np.pi) - p(u2, 0.0) == pytest.approx(4 * np.pi)


def test_phase_exp_closed_form(exp_u):
    # phase(theta) = -cot(theta/2) up to a 2 pi k offset
    diff = cl.boundary_phase(exp_u, 3 * np.pi / 2) - cl.boundary_phase(exp_u, np.pi / 2)
    assert diff == pytest.approx(2.0, abs=1e-12)
    assert cl.boundary_phase(exp_u, np.pi) == pytest.approx(0.0, abs=1e-12)


def test_phase_anchor_shifts_branch(exp_u):
    raw = cl.boundary_phase(exp_u, np.pi / 2)
    shifted = cl.boundary_phase(exp_u, np.pi / 2, anchor=raw + 6 * np.pi)
    assert shifted == pytest.approx(raw + 6 * np.pi)
    near = cl.boundary_phase(exp_u, np.pi / 2, anchor=raw + 0.3)
    assert near == pytest.approx(raw)


def test_phase_matches_arg_of_eval(rng):
    u = cl.FiniteBlaschke(zeros=(0.2 + 0.4j, -0.7, 0.1j), constant=np.exp(0.3j))
    for u, (lo, hi) in ((u, (0, 2 * np.pi)), (nested_product()[0], (0.5, 2.5))):
        t = rng.uniform(lo, hi, 64)
        ph = cl.boundary_phase(u, t)
        vals = cl.evaluate(u, np.exp(1j * t))
        assert np.max(np.abs(np.exp(1j * ph) - vals)) < 1e-12


def test_blaschke_lift_matches_per_zero_loop(rng, monkeypatch):
    # reference: the lift accumulated factor by factor; the block sum
    # changes only the summation order, so the two agree to rounding of a
    # phase of size ~ degree * pi.  A small block forces several chunks.
    zeros = (rng.uniform(0.0, 0.99, 200)
             * np.exp(1j * rng.uniform(0, 2 * np.pi, 200)))
    u = cl.FiniteBlaschke(zeros=tuple(zeros) + (0j,), constant=np.exp(0.3j))
    t = np.sort(rng.uniform(0, 2 * np.pi, 100)).reshape(10, 10)
    ref = np.full(t.shape, 0.3)
    for a in u.zeros:
        ref = ref + t
        if a != 0:
            ref = ref + 2.0 * np.angle(1.0 - a * np.exp(-1j * t)) \
                + (np.pi - np.angle(a))
    monkeypatch.setattr(inner, "PHASE_BLOCK", 1000)
    lift = inner._phase_lift(u, t)
    assert lift.shape == t.shape
    assert np.max(np.abs(lift - ref)) < 1e-10
    assert inner._phase_lift(u, t[0, 0]) == pytest.approx(ref[0, 0], abs=1e-10)
    # values and derivatives in the same blocks, against the factor-by-
    # factor product (rounding ~ 200 eps) and a correctly rounded sum
    z = np.exp(1j * t)
    val = np.full(t.shape, np.exp(0.3j))
    for a in u.zeros:
        val = val * (z if a == 0 else np.conj(a) / abs(a) * (a - z) / (1.0 - np.conj(a) * z))
    assert np.max(np.abs(cl.evaluate(u, z) - val)) < 1e-12
    deriv = [math.fsum((1.0 - abs(a) ** 2) / abs(x - a) ** 2 for a in u.zeros) for x in z.flat]
    assert np.allclose(inner._angular_derivatives(u, t).ravel(), deriv, rtol=1e-14, atol=0)


def test_phase_strictly_increasing(rng, exp_u):
    t = np.sort(rng.uniform(0.2, 2 * np.pi - 0.2, 500))
    ph = cl.boundary_phase(exp_u, t)
    assert np.all(np.diff(ph) > 0)


def test_phase_derivative_matches_angular_derivative(rng, exp_u):
    b = cl.FiniteBlaschke(zeros=(0.3 + 0.1j, -0.5j))
    for u, (lo, hi) in ((b, (0.5, 2 * np.pi - 0.5)), (exp_u, (0.5, 2 * np.pi - 0.5)),
                        (nested_product()[0], (0.5, 2.5))):
        t = rng.uniform(lo, hi, 100)
        h = 1e-6
        num = (cl.boundary_phase(u, t + h) - cl.boundary_phase(u, t - h)) / (2 * h)
        exact = np.array([cl.angular_derivative(u, cl.CirclePoint(x)) for x in t])
        assert np.max(np.abs(num - exact) / exact) < 1e-6


def test_angular_derivative_examples(exp_u):
    assert cl.angular_derivative(cl.monomial(1), cl.CirclePoint(0.0)) == pytest.approx(1.0)
    assert cl.angular_derivative(exp_u, cl.CirclePoint(np.pi)) == pytest.approx(0.5)
    assert cl.angular_derivative(cl.monomial(2), cl.CirclePoint(np.pi / 2)) == pytest.approx(2.0)
    with pytest.raises(SpectrumPoint):
        cl.angular_derivative(exp_u, cl.CirclePoint(0.0))


def test_pythagorean_pair_examples(exp_u):
    pz = cl.pythagorean_pair(cl.monomial(1))
    assert pz.gamma == pytest.approx(1.0)
    assert pz.a(0.0) == pytest.approx(0.5)
    assert pz.b(0.0) == pytest.approx(0.5)
    pe = cl.pythagorean_pair(exp_u)
    assert pe.gamma == pytest.approx(1.0)
    assert pe.a(0.0) == pytest.approx((1 - np.exp(-1)) / 2, abs=1e-12)
    # sign-flipped zero set: u(z) = -z has u(0) = 0, gamma = 1
    neg = cl.FiniteBlaschke(zeros=(0.0,), constant=-1.0)
    pn = cl.pythagorean_pair(neg)
    assert pn.gamma == pytest.approx(1.0)
    assert pn.a(0.5) == pytest.approx((1 + 0.5) / 2)


def test_pythagorean_identity_on_grid(rng, exp_u):
    # |b|^2 + |a|^2 = (1 + |u|^2)/2
    r = np.sqrt(rng.uniform(0, 1, 1000)) * 0.99
    t = rng.uniform(0, 2 * np.pi, 1000)
    z = r * np.exp(1j * t)
    for u in (exp_u, cl.FiniteBlaschke(zeros=(0.5, -0.2 + 0.3j))):
        pair = cl.pythagorean_pair(u)
        lhs = np.abs(pair.b(z)) ** 2 + np.abs(pair.a(z)) ** 2
        rhs = (1 + np.abs(cl.evaluate(u, z)) ** 2) / 2
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_degenerate_symbol():
    with pytest.raises(DegenerateSymbol):
        # product of zero factors is the constant 1
        cl.pythagorean_pair(cl.Product(factors=()))


def test_clark_identity_residual_examples(exp_u):
    m1 = cl.AtomicMeasure([0.0], [1.0])
    assert cl.clark_identity_residual(cl.monomial(1), 0.0, m1, 0.0) == pytest.approx(0.0, abs=1e-14)
    m2 = cl.AtomicMeasure([0.0, np.pi], [0.5, 0.5])
    assert cl.clark_identity_residual(cl.monomial(2), 0.0, m2, 0.3j) == pytest.approx(0.0, abs=1e-14)
    # truncated exponential lattice at the origin: residual below the
    # two-sided integral tail bound for sum_{|n|>500} 2/(4 n^2 pi^2 + 1)
    data = cl.exp_clark_data(500)
    res = cl.clark_identity_residual(exp_u, 0.0, data.measure, 0.0)
    assert res <= cl.exp_tail_mass_bound(500) * 1.001
    assert res > 0.5 * cl.exp_tail_mass_bound(500)  # the bound is tight


def test_spectrum_collection(exp_u):
    assert [p.theta for p in cl.spectrum(exp_u)] == [0.0]
    fam = cl.CounterexampleBlaschke(alpha=1.0, K=8)
    u = cl.inner_function(fam)
    assert [p.theta for p in cl.spectrum(u)] == [0.0]
    assert cl.spectrum(cl.monomial(3)) == ()
    assert [p.theta for p in cl.spectrum(nested_product()[0])] == [0.0, 3.0, 5.0, 4.0]


def test_normal_form_factor_identities(rng):
    # evaluate is multiplicative and the lift and the derivative additive
    # over the factors of a nested product, whatever its nesting
    u, factors = nested_product()
    z = np.sqrt(rng.uniform(0, 1, 200)) * 0.99 * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    prod = np.prod([cl.evaluate(f, z) for f in factors], axis=0)
    assert np.max(np.abs(cl.evaluate(u, z) - prod)) < 1e-13
    assert np.all(cl.evaluate(factors[-1], z) == 1.0)
    t = rng.uniform(0.5, 2.5, 50)
    lift = sum(inner._phase_lift(f, t) for f in factors)
    assert np.max(np.abs(inner._phase_lift(u, t) - lift)) < 1e-12
    for x in t[:10]:
        zeta = cl.CirclePoint(x)
        parts = [cl.angular_derivative(f, zeta) for f in factors]
        assert parts[-1] == 0.0
        assert cl.angular_derivative(u, zeta) == pytest.approx(sum(parts), rel=1e-13)
    # equal specs compare and hash equal; the cached form stays out of
    # equality and repr
    again, _ = nested_product()
    assert again == u and hash(again) == hash(u)
    assert cl.Product(factors=factors[1::-1] + factors[2:]) != u
    assert "_form" not in repr(u)


def test_angular_derivative_sum_is_correctly_rounded():
    # near the accumulation point the terms of the Blaschke sum span six
    # orders of magnitude; a running sum over 1024 zeros drifts by ~1e-11
    u = cl.inner_function(cl.CounterexampleBlaschke(alpha=1.0, K=1024))
    a = np.asarray(u.zeros)
    for t in 2 * np.pi - np.array([0.5, 0.05, 0.0021, 0.0003]):
        zeta = cl.CirclePoint(t)
        exact = math.fsum((1.0 - np.abs(a) ** 2) / np.abs(zeta.complex - a) ** 2)
        assert cl.angular_derivative(u, zeta) == pytest.approx(exact, rel=1e-14)
