"""The closed form of the lattice Blaschke blocks: Im lnGamma and Im psi on
the line Im z = 1, the lattice sums, the blocks' lift and derivative in
_phase, and the atoms and masses they give against the same zeros summed
term by term."""
import numpy as np
import pytest

import clarklab as cl
from clarklab import families, inner, special
from clarklab.clark import DEFAULT_TOL

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def mp():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    return mp


def test_gamma_line_against_mpmath(mp):
    s = np.array([0.0, 0.5, 1.0, 10.0, 1e3, 1e6])
    G, Q = special.im_gamma_line(s, True)
    for x, g, q in zip(s, G, Q):
        z = mp.mpc(x, 1)
        assert abs(g - mp.im(mp.loggamma(z))) <= EPS * (2 * np.log(x + 11) + 16)
        assert abs(q / mp.im(mp.digamma(z)) - 1) <= 4 * EPS
    # G alone is the same value
    assert special.im_gamma_line(s, False)[0].tobytes() == G.tobytes()


@pytest.mark.parametrize("K", [1, 256, 1024])
def test_lattice_sums_against_mpmath(mp, K):
    # next to lattice points, at the lattice's ends, between them and far
    # outside; the reference telescopes through mpmath's principal loggamma
    n = np.array([1, 2, K // 2 + 1, K])
    y = np.concatenate([n + 1e-9, n - 1e-9, n + 0.5, n - 0.3, n,
                        [-0.5, 0.0, 9.5, -3e3, -1e8, K + 9.5, 3.0 * K, 1e8]])
    A, S = special.lattice_sums(K, y, True)
    assert special.lattice_sums(K, y, False)[0].tobytes() == A.tobytes()
    m = np.clip(np.ceil(y) - 1, 0, K)
    for x, a, s, k in zip(y, A, S, m):
        z0, z1 = mp.mpc(1 - mp.mpf(x), 1), mp.mpc(K + 1 - mp.mpf(x), 1)
        ref_a = mp.im(mp.loggamma(z1) - mp.loggamma(z0))
        ref_s = -mp.im(mp.digamma(z1) - mp.digamma(z0))
        assert abs(a - ref_a) <= EPS * (2 * np.pi * k + 4 * np.log(abs(x) + K + 11) + 40)
        assert abs(s / ref_s - 1) <= 16 * EPS


def _block(K, sign):
    n = sign * np.arange(1.0, K + 1)
    return cl.FiniteBlaschke(zeros=tuple(n / (n + 2j)), lattice=((K, sign),))


@pytest.mark.parametrize("K,sign", [(1, 1), (1, -1), (256, 1), (256, -1), (1024, 1),
                                    (1024, -1)])
def test_block_lift_and_derivative_against_exact_zeros(mp, K, sign):
    # 40-digit sums over the exact lattice zeros sign n / (sign n + 2i) at
    # the same float angles: x next to lattice points and beyond K on both
    # sides, some a whole turn or two away
    u = _block(K, sign)
    x = np.concatenate([sign * np.array([1.0, K // 2 + 1, K]) + 0.01,
                        sign * np.array([1.0, K]) - 0.3, [3.0 * K, -3.0 * K, -0.5]])
    theta = 2 * np.arctan2(1.0, -x)
    theta = np.concatenate([theta, theta[:2] + 2 * np.pi, theta[2:4] - 4 * np.pi])
    lift, deriv = inner._phase(u, theta)
    zeros = [mp.mpf(k) / mp.mpc(k, 2) for k in range(sign, sign * (K + 1), sign)]
    const = mp.fsum(mp.pi - mp.arg(a) for a in zeros)
    x = -1 / np.tan(theta / 2)
    S = (1 + x * x) ** -1 * deriv  # S_K(sign x), to the bound's precision
    for t, ph, d, xt, st in zip(theta, lift, deriv, x, S):
        e = mp.expj(-mp.mpf(t))
        ref_lift = const + K * mp.mpf(t) + 2 * mp.fsum(mp.arg(1 - a * e) for a in zeros)
        ref_deriv = mp.fsum((1 - abs(a) ** 2) / abs(1 - a * e) ** 2 for a in zeros)
        # the bounds stated in inner._phase
        assert abs(ph - ref_lift) <= EPS * (K * (abs(t) + 2 * np.pi) + 6 * abs(xt) * st + 60)
        assert abs(d / ref_deriv - 1) <= EPS * (24 + 4 * abs(xt))


def test_derivative_alone_is_the_term_sum():
    # lift=False reads every zero, so it equals the same zeros without the
    # declaration bit for bit
    fam = cl.CounterexampleBlaschke(alpha=1.0, K=256, symmetrized=True)
    u = cl.inner_function(fam)
    plain = cl.FiniteBlaschke(zeros=u.zeros, accumulation=(0.0,))
    assert u.lattice == ((256, 1), (256, -1)) and plain.lattice == ()
    theta = np.linspace(0.01, 6.27, 301)
    assert (inner._angular_derivatives(u, theta).tobytes()
            == inner._angular_derivatives(plain, theta).tobytes())
    # alpha != 1 declares no block, so it keeps the term sum bit for bit
    assert cl.inner_function(cl.CounterexampleBlaschke(alpha=0.5, K=64)).lattice == ()


def test_block_inside_a_product():
    # a block keeps its closed form inside a product: the lift and the
    # derivative are the sums of the factors', whose term sums run over
    # the other zeros only
    block = cl.inner_function(cl.CounterexampleBlaschke(alpha=1.0, K=64, symmetrized=True))
    other = cl.FiniteBlaschke(zeros=(0.3 + 0.1j, 0.0), constant=np.exp(0.7j))
    sing = cl.SingularAtomic(atoms=((3.0, 0.4),))
    u = cl.Product(factors=(other, block, sing))
    assert u._form.in_lattice.tolist() == [False] + [True] * 128
    theta = np.linspace(0.05, 2.9, 40)
    parts = [inner._phase(f, theta) for f in (other, block, sing)]
    lift, deriv = inner._phase(u, theta)
    assert np.max(np.abs(lift - sum(p[0] for p in parts))) < 1e-12
    assert np.allclose(deriv, sum(p[1] for p in parts), rtol=1e-14, atol=0)
    assert inner._phase(u, theta, derivative=False)[0].tobytes() == lift.tobytes()


@pytest.mark.parametrize("family", ["counterexample:1.0:64", "counterexample:1.0:256",
                                    "counterexample:1.0:1024", "counterexample:1.0:256:sym"])
def test_atoms_and_masses_match_the_term_sum(family):
    # the same zeros without the declaration: the same levels, and atoms
    # within 2 DEFAULT_TOL plus the move that the two lifts' stated bounds
    # (inner._phase) allow, bound / |u'|; at K = 1024 the term sum's bound
    # is 2.1e-12 next to an atom where |u'| = 0.94, and the atoms there
    # differ by 9.9e-13
    fam = cl.parse_family(family)
    u = cl.inner_function(fam)
    plain = cl.FiniteBlaschke(zeros=u.zeros, accumulation=(0.0,))
    got = cl.clark_data_for(fam)
    want = cl.clark_data(plain, 0.0, families.clark_scan_arc(fam))
    assert got.n_atoms == want.n_atoms > 0
    th, th0 = got.measure.thetas, want.measure.thetas
    a = np.asarray(u.zeros)
    d = np.abs(np.exp(1j * th)[:, None] - a)
    t = (1 - np.abs(a) ** 2) / d**2
    deriv, x = t.sum(axis=1), -1 / np.tan(th / 2)
    bound = EPS * (2 * a.size * (th + 2 * np.pi) + (1 / d).sum(axis=1)
                   + 6 * np.abs(x) * deriv / (1 + x * x) + 120)
    move = np.abs(th - th0)
    assert np.all(move <= 2 * DEFAULT_TOL + bound / deriv)
    # masses are the per-zero sum at the located atom, so they move within
    # the change the atom move implies: |d log|u'|/d theta| is at most
    # sum_k t_k (2/d_k) / sum_k t_k, t_k the derivative's terms
    m, m0 = got.measure.masses, want.measure.masses
    assert m.tobytes() == np.array([1 / cl.angular_derivative(plain, v) for v in th]).tobytes()
    slope = (t * 2 / d).sum(axis=1) / deriv
    assert np.all(np.abs(np.log(m / m0)) <= 2 * move * slope + 4 * EPS)


@pytest.mark.parametrize("lattice", [((0, 1),), ((2, 0),), ((1.5, 1),), ((4, 1),),
                                     ((2, -1),)])
def test_lattice_declaration_is_checked(lattice):
    # K >= 1 whole, sign +-1, and the leading zeros the lattice's own:
    # here three zeros of the block (3, +1)
    n = np.arange(1.0, 4)
    with pytest.raises(ValueError, match="lattice"):
        cl.FiniteBlaschke(zeros=tuple(n / (n + 2j)), lattice=lattice)
    assert cl.FiniteBlaschke(zeros=tuple(n / (n + 2j)) + (0.5,), lattice=((2, 1),)).lattice \
        == ((2, 1),)
