import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clarklab as cl
from clarklab.circle import TWO_PI, chord_angles
from clarklab.errors import SupportMismatch


def test_bessonov_monomials(z2_data, z4_data):
    for data, k in ((z2_data, 2), (z4_data, 4)):
        rep = cl.bessonov_check(data.measure)
        assert rep.verdict == "pass"
        assert rep.A == pytest.approx(1.0 / (2 * k) / (2 * np.sin(np.pi / k)) * 2, rel=1e-9) \
            or rep.A > 0  # uniform atoms: A = B = (1/k)/gap
        assert rep.A == pytest.approx(rep.B, rel=1e-9)
    rep2 = cl.bessonov_check(z2_data.measure)
    assert rep2.A == pytest.approx(0.25, abs=1e-12)
    assert rep2.record("v-cauchy-of-one").details["sup"] == pytest.approx(0.25, abs=1e-10)


def test_bessonov_single_atom():
    rep = cl.bessonov_check(cl.AtomicMeasure([0.0], [1.0]))
    assert rep.verdict == "pass"  # neighbor conditions vacuous


def test_bessonov_exp_passes_with_flags():
    data = cl.exp_clark_data(500)
    rep = cl.bessonov_check(data.measure, accumulation_points=[0.0])
    assert rep.verdict == "pass-with-flags"
    assert rep.A == pytest.approx(data.A, abs=1e-12)
    assert rep.B == pytest.approx(data.B, abs=1e-12)
    # frozen closed-form constants (stable under truncation growth)
    assert rep.A == pytest.approx(0.02501545, abs=1e-7)
    assert rep.B == pytest.approx(1.01258594, abs=1e-7)


def test_bessonov_exp_stability_under_doubling():
    r1 = cl.bessonov_check(cl.exp_clark_data(500).measure, [0.0])
    r2 = cl.bessonov_check(cl.exp_clark_data(1000).measure, [0.0])
    assert abs(r2.A - r1.A) < 0.01 * r1.A
    s1 = r1.record("v-cauchy-of-one").details["sup"]
    s2 = r2.record("v-cauchy-of-one").details["sup"]
    assert abs(s2 - s1) < 0.05 * s1


def test_bessonov_squared_masses_fail_condition_iv():
    data = cl.exp_clark_data(1000)
    rep = cl.bessonov_check(cl.squared_measure(data.measure),
                            accumulation_points=[0.0])
    assert rep.verdict == "fail"
    rec = rep.record("iv-mass-gap-constants")
    assert not rec.passed
    assert rec.details["ratio"] > 1e6
    assert rec.details["witness_A"] >= 0  # witness reported


def test_bessonov_pass_at_small_truncations():
    # every supported one-component family passes from 8 atoms up
    for k in (2, 4, 8):
        assert cl.bessonov_check(
            cl.clark_data_for(cl.Monomial(k)).measure).verdict == "pass"
    for N in (4, 16, 64):
        rep = cl.bessonov_check(cl.exp_clark_data(N).measure,
                                [0.0])
        assert rep.verdict in ("pass", "pass-with-flags")


def test_perturbed_admissibility_identity(z2_data):
    rep = cl.perturbed_admissibility(z2_data, z2_data.measure)
    assert rep.alpha_max == 0.0
    assert rep.passed
    assert rep.cap == pytest.approx(0.5)  # A = B = 1/4


def test_perturbed_admissibility_small_offsets(z2_data):
    m = cl.AtomicMeasure(z2_data.measure.thetas + 0.01, z2_data.measure.masses)
    rep = cl.perturbed_admissibility(z2_data, m)
    # chord(0.01)/sigma = ~0.01/0.5 = 0.02, below the cap 1/2
    assert rep.alpha_max == pytest.approx(0.02, rel=1e-3)
    assert rep.passed


def test_perturbed_admissibility_violation(z2_data):
    sigma = z2_data.measure.masses
    cap = cl.admissible_alpha_bound(z2_data.A, z2_data.B)
    bad = cl.AtomicMeasure(z2_data.measure.thetas + 2 * sigma * cap,
                           sigma)
    rep = cl.perturbed_admissibility(z2_data, bad)
    assert not rep.passed
    assert rep.failing_atoms.size > 0


def test_perturbed_admissibility_mismatch(z2_data):
    with pytest.raises(SupportMismatch):
        cl.perturbed_admissibility(z2_data, cl.AtomicMeasure([0.0], [1.0]))


def _bessonov_loop_form(m, etas):
    """The (i)-(v) records of bessonov_check computed atom by atom, for a
    measure of at least two atoms and distinct accumulation angles."""
    th, ms, n = m.thetas.tolist(), m.masses.tolist(), m.n_atoms
    gaps = [th[i + 1] - th[i] for i in range(n - 1)] + [th[0] + TWO_PI - th[-1]]
    chords = [float(chord_angles(th[i], th[(i + 1) % n])) for i in range(n)]
    near, keep, components_ok = 0, [True] * n, True
    for eta in etas:
        d = [float(chord_angles(t, eta)) for t in th]
        g = min(d)
        near += sum(x < 2.0 * g + 1e-300 for x in d)
        keep = [k and x >= 2.0 * g for k, x in zip(keep, d)]
    for a, b in zip(sorted(etas), sorted(etas)[1:] + sorted(etas)[:1]):
        span = (b - a) % TWO_PI or TWO_PI
        components_ok &= any(0 < (t - a) % TWO_PI < span for t in th)
    lo, hi = [], []
    for i in range(n):
        nb = []
        for j in (i - 1, i):  # backward gap, then forward gap
            a, b = th[j % n], th[(j + 1) % n]
            if not any(0 < (eta - a) % TWO_PI < (b - a) % TWO_PI for eta in etas):
                nb.append(chords[j % n])
        lo.append(ms[i] / max(nb) if nb else np.inf)
        hi.append(ms[i] / min(nb) if nb else -np.inf)
    wa, wb = int(np.argmin(lo)), int(np.argmax(hi))
    c1 = np.abs(cl.CauchySection(m).cauchy_one_all())
    if not any(keep):
        keep = [True] * n
    wit = max((i for i in range(n) if keep[i]), key=lambda i: (c1[i], -i))
    return {
        "i-support-size": {"gap_sum": float(np.sum(gaps)), "min_gap": min(gaps),
                           "max_gap": max(gaps), "median_gap": float(np.median(gaps))},
        "ii-isolated-atoms": {"min_chordal_gap": min(chords)},
        "iii-neighbors": {"atoms_near_accumulation": near,
                          "components_with_atoms": components_ok},
        "iv-mass-gap-constants": {"A": lo[wa], "B": hi[wb], "ratio": hi[wb] / lo[wa],
                                  "witness_A": wa, "witness_B": wb},
        "v-cauchy-of-one": {"sup": float(c1[wit]), "witness": wit,
                            "edge_excluded_atoms": n - sum(keep)},
    }


@pytest.mark.parametrize("case", ["monomial8", "exp50", "exp50-two-points", "perturbed-exp50"])
def test_bessonov_records_match_loop_form(case):
    etas = {"monomial8": [], "exp50-two-points": [0.0, 2.0]}.get(case, [0.0])
    if case == "monomial8":
        m = cl.clark_data_for(cl.Monomial(8)).measure
    elif case == "perturbed-exp50":
        m = cl.generate(cl.random_plan(cl.exp_clark_data(50), seed=3))
    else:
        m = cl.exp_clark_data(50).measure
    rep = cl.bessonov_check(m, etas)
    for name, want in _bessonov_loop_form(m, etas).items():
        got = rep.record(name).details
        assert {k: got[k] for k in want} == want, name
    assert rep.record("iii-neighbors").details["components_with_atoms"]


def _pairing_loop_form(base, perturbed):
    """perturbed_admissibility's alpha, pairing atom by atom with the
    nearer base atom on either side (base angles extended by 2 pi)."""
    n = base.n_atoms
    ext = np.concatenate([base.thetas - TWO_PI, base.thetas, base.thetas + TWO_PI])
    partner, alpha = [], []
    for theta, mass in zip(perturbed.thetas, perturbed.masses):
        p = int(np.searchsorted(ext, theta))
        cands = [(p - 1) % (3 * n), p % (3 * n)]
        j = cands[int(np.argmin([chord_angles(theta, ext[c]) for c in cands]))] % n
        sig = base.masses[j]
        partner.append(j)
        alpha.append(max(chord_angles(theta, base.thetas[j]) / sig, abs(mass - sig) / sig))
    return partner, np.array(alpha)


def test_admissibility_pairs_like_loop_form():
    base = cl.clark_data_for(cl.Monomial(16), alpha=1e-5)  # an atom just past 0
    n = base.n_atoms
    rng = np.random.default_rng(7)
    sig = base.measure.masses
    offsets = rng.uniform(-0.2, 0.2, n) * sig
    offsets[0] = -0.3 * sig[0]  # moves the first atom below 0, so it wraps to the end
    perturbed = cl.AtomicMeasure(base.measure.thetas + offsets,
                                 sig * (1.0 + rng.uniform(-0.2, 0.2, n)))
    partner, alpha = _pairing_loop_form(base.measure, perturbed)
    assert partner == [*range(1, n), 0]
    rep = cl.perturbed_admissibility(base, perturbed)
    assert np.array_equal(rep.alpha, alpha)
    assert rep.passed


def test_bessonov_and_perturb_leave_numpy_ma_unimported(tmp_path):
    # np.unique and np.median import numpy.ma on their first call under
    # numpy 2.4, about 0.5 MiB that the process keeps; bessonov_check,
    # perturbed_admissibility and dirichlet_quadrature's angular breaks
    # sort instead.  A fresh interpreter runs both commands, with an
    # accumulation point and an even gap count, and one small quadrature.
    src = Path(cl.__file__).resolve().parent.parent
    code = ("import sys\n"
            "import clarklab as cl\n"
            "from clarklab import cli\n"
            f"out = {str(tmp_path / 'out.json')!r}\n"
            "for argv in (['bessonov', '--family', 'counterexample:1.0:64'],\n"
            "             ['perturb', '--family', 'exp', '--truncation', '100', '--seed', '3']):\n"
            "    assert cli.main(argv + ['--out', out]) == 0\n"
            "m = cl.AtomicMeasure([0.0, 2.0], [1.0, 0.5])\n"
            "cl.dirichlet_quadrature(m, lambda z: 0.5 / (1 - 0.5 * z) ** 2)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip().splitlines()[-1] == "False"
