"""Each check accepts the program's real output and rejects a corrupted
copy: an atom moved by 1e-9 rad, a mass off by 1e-8, a norm, ratio or sup
raised by 1e-6.

    python3 -m pytest perfbench/test_checks.py
"""
import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import clarklab as cl  # noqa: E402
from clarklab import cli  # noqa: E402

import checks as ck  # noqa: E402


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["outputs"]


def moved(doc, i=3, d=1e-9):
    doc = copy.deepcopy(doc)
    doc["atoms"][i]["theta"] += d
    return doc


def heavier(doc, i=3, r=1e-8):
    doc = copy.deepcopy(doc)
    doc["atoms"][i]["mass"] *= 1 + r
    return doc


def rejects(check, *args):
    with pytest.raises(ck.CheckFailed):
        check(*args)


def test_counterexample_atoms(tmp_path):
    out = run_cli(tmp_path, "atoms", "--family", "counterexample:1.0:64")
    a, w = ck.counterexample_zeros(1.0, 64, False)
    scan = (1e-3, ck.TWO_PI - 1e-3)
    ck.check_blaschke_atoms(out, a, w, 0.0, scan)
    rejects(ck.check_blaschke_atoms, moved(out), a, w, 0.0, scan)
    rejects(ck.check_blaschke_atoms, heavier(out), a, w, 0.0, scan)
    dropped = copy.deepcopy(out)
    del dropped["atoms"][5]
    rejects(ck.check_blaschke_atoms, dropped, a, w, 0.0, scan)


def test_monomial_and_exp_atoms(tmp_path):
    out = run_cli(tmp_path, "atoms", "--family", "monomial:16", "--alpha", "0.3")
    ck.check_monomial_atoms(out, 16, 0.3)
    rejects(ck.check_monomial_atoms, moved(out), 16, 0.3)
    rejects(ck.check_monomial_atoms, heavier(out), 16, 0.3)
    out = run_cli(tmp_path, "atoms", "--family", "exp", "--truncation", "50")
    ck.check_exp_atoms(out, 50)
    rejects(ck.check_exp_atoms, moved(out), 50)
    rejects(ck.check_exp_atoms, heavier(out), 50)


def test_bessonov(tmp_path):
    out = run_cli(tmp_path, "bessonov", "--family", "monomial:16")
    at = ck.monomial_atoms(16, 0.0)
    ck.check_bessonov(out, at)
    bad = copy.deepcopy(out)
    bad["A"] *= 1 + 1e-8
    rejects(ck.check_bessonov, bad, at)
    bad = copy.deepcopy(out)
    bad["verdict"] = "fail"
    rejects(ck.check_bessonov, bad, at)


def test_section_norms_and_tolsa(tmp_path):
    N = 40
    out = run_cli(tmp_path, "norm", "--family", "exp", "--truncation", str(N),
                  "--sizes", "8,16,32")
    refs = [ck.lattice_section_norm(n) for n in out["sizes"]]
    exact = dict(out, values=refs, converged=[True] * 3)
    ck.check_norm(exact, refs)
    rejects(ck.check_norm, dict(exact, values=[v * (1 + 1e-6) for v in refs]), refs)
    rejects(ck.check_norm, dict(exact, values=[v * (1 - 1e-6) for v in refs]), refs)

    out = run_cli(tmp_path, "tolsa", "--family", "exp", "--truncation", str(N))
    at, norm = ck.exp_atoms(N), ck.lattice_section_norm(2 * N + 1)
    ck.check_tolsa(out, at, norm, np.random.default_rng(0))
    raised = dict(out, max_ratio=out["max_ratio"] * (1 + 1e-6))
    rejects(ck.check_tolsa, raised, at, norm, np.random.default_rng(0))
    assert abs(ck.section_norm(at) / norm - 1) < 1e-12


def test_row_sups():
    base = cl.exp_clark_data(40)
    at = ck.Atoms(base.measure.thetas, base.measure.masses)
    res = cl.atom_potential_sup(cl.squared_measure(base.measure))
    ck.check_row_sup(res.value, res.witness, ck.squared(at), np.random.default_rng(0), "sup")
    rejects(ck.check_row_sup, res.value * (1 + 1e-6), res.witness, ck.squared(at),
            np.random.default_rng(0), "sup")
    alpha = np.full(at.n, 1e-3)
    value, wit = cl.interaction_sup(base, alpha)
    ck.check_row_sup(value, wit, at, np.random.default_rng(0), "interaction", power=1.0,
                     weights=at.masses * alpha)
    rejects(ck.check_row_sup, value * (1 + 1e-6), wit, at, np.random.default_rng(0),
            "interaction", 1.0, at.masses * alpha)


def test_perturbation(tmp_path):
    base = cl.exp_clark_data(40)
    at = ck.Atoms(base.measure.thetas, base.measure.masses)
    plan = ck.draw_plan(at, np.random.default_rng(1))
    lam = cl.generate(cl.PerturbationPlan(base=base, **plan))
    got = ck.Atoms(lam.thetas, lam.masses)
    ck.check_perturbed(got, ck.perturbed_atoms(at, plan))
    doc = {"atoms": [{"theta": t, "mass": m} for t, m in zip(lam.thetas, lam.masses)]}
    rejects(ck.check_perturbed, ck.report_atoms(moved(doc)), ck.perturbed_atoms(at, plan))
    rejects(ck.check_perturbed, ck.report_atoms(heavier(doc)), ck.perturbed_atoms(at, plan))
    rep = cl.perturbed_admissibility(base, lam)
    ck.check_admissibility(rep.alpha, rep.passed, rep.cap, at, plan)
    rejects(ck.check_admissibility, rep.alpha * 1.2, rep.passed, rep.cap, at, plan)


def test_ladder():
    records = [vars(r) for r in cl.divergence_ladder(cl.CounterexampleBlaschke(1.0, 10**6),
                                                     [10**3, 10**6])]
    ck.check_ladder(records)
    raised = [dict(records[-1], value=records[-1]["value"] * (1 + 1e-6))]
    rejects(ck.check_ladder, raised)
    shifted = [dict(records[-1], scan_delta=records[-1]["scan_delta"] + 1e-9)]
    rejects(ck.check_ladder, shifted)


def test_exp_potential_and_example(tmp_path):
    out = run_cli(tmp_path, "potential", "--family", "exp", "--truncation", "30")
    ck.check_exp_potential(out, 30, np.random.default_rng(0))
    bad = copy.deepcopy(out)
    bad["sup_inf"]["sup_estimate"] *= 1 + 1e-6
    rejects(ck.check_exp_potential, bad, 30, np.random.default_rng(0))
    bad = copy.deepcopy(out)
    bad["sup_inf"]["atom_limits"][2] *= 1 + 1e-8
    rejects(ck.check_exp_potential, bad, 30, np.random.default_rng(0))

    out = run_cli(tmp_path, "example", "exp", "--truncation", "100")
    ck.check_example_exp(out, 100)
    rejects(ck.check_example_exp, dict(out, atom_potential_sup=out["atom_potential_sup"]
                                       * (1 + 1e-6)), 100)
    rejects(ck.check_example_exp, dict(out, total_mass_deficit=out["total_mass_deficit"]
                                       * (1 + 1e-6)), 100)


def test_hilbert():
    data = cl.exp_clark_data(60)
    sec = cl.CauchySection(data.measure, lattice_indices=data.lattice_indices)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(sec.N) + 1j * rng.standard_normal(sec.N)
    routed, applied = cl.hilbert_route(sec, f), sec.apply(f)
    ck.check_hilbert(routed, applied, ck.exp_atoms(60), f, np.random.default_rng(0))
    bad = routed.copy()
    bad[:] *= 1 + 1e-6
    rejects(ck.check_hilbert, bad, applied, ck.exp_atoms(60), f, np.random.default_rng(0))
