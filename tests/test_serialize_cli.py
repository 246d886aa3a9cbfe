import json

import numpy as np
import pytest

import clarklab as cl
from clarklab.cli import main
from clarklab.serialize import (clark_from_dict, clark_to_dict, csv_number,
                                inner_from_dict, inner_to_dict,
                                measure_from_dict, measure_to_dict)


def test_measure_roundtrip_bit_identical():
    m = cl.AtomicMeasure([0.1, 2.5, 4.9], [0.25, 1e-7, 3.0])
    m2 = measure_from_dict(json.loads(json.dumps(measure_to_dict(m))))
    assert np.array_equal(m.thetas, m2.thetas)
    assert np.array_equal(m.masses, m2.masses)


def test_inner_roundtrip():
    specs = [
        cl.FiniteBlaschke(zeros=(0.3 + 0.1j, -0.5j), constant=np.exp(0.2j),
                          accumulation=(0.0,)),
        cl.SingularAtomic(atoms=((0.0, 1.0), (2.0, 0.3))),
    ]
    specs.append(cl.Product(factors=tuple(specs)))
    for u in specs:
        u2 = inner_from_dict(json.loads(json.dumps(inner_to_dict(u))))
        z = 0.3 + 0.2j
        assert cl.evaluate(u2, z) == pytest.approx(cl.evaluate(u, z), abs=1e-15)


def test_clark_roundtrip(z2_data):
    d2 = clark_from_dict(json.loads(json.dumps(clark_to_dict(z2_data))))
    assert np.array_equal(d2.measure.thetas, z2_data.measure.thetas)
    assert np.array_equal(d2.derivatives, z2_data.derivatives)
    assert d2.A == z2_data.A and d2.B == z2_data.B


def test_clark_roundtrip_keeps_labels_and_witnesses():
    data = cl.exp_clark_data(5)
    d2 = clark_from_dict(json.loads(json.dumps(clark_to_dict(data))))
    assert np.array_equal(d2.lattice_indices, data.lattice_indices)
    assert (d2.witness_A, d2.witness_B) == (data.witness_A, data.witness_B)
    # the labels let the round-tripped data take the lattice route
    f = np.arange(d2.n_atoms, dtype=float)
    sec = cl.CauchySection(d2.measure, d2.lattice_indices)
    assert np.array_equal(cl.hilbert_route(sec, f),
                          cl.hilbert_route(cl.CauchySection(data.measure, data.lattice_indices), f))


def test_csv_number_formats():
    assert csv_number(0.5) == "0.5"
    assert "e" in csv_number(3.2e-7)
    assert csv_number(0.0) == "0.0"


def test_cli_atoms_monomial(tmp_path):
    out = tmp_path / "atoms.json"
    rc = main(["atoms", "--family", "monomial:4", "--alpha", "0",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    atoms = doc["outputs"]["atoms"]
    assert len(atoms) == 4
    assert all(a["mass"] == pytest.approx(0.25, abs=1e-12) for a in atoms)
    assert "command" in doc and "version" in doc


def test_cli_inputs_digest_is_stable(tmp_path):
    digests = []
    for name, family in (("a.json", "monomial:4"), ("b.json", "monomial:4"),
                         ("c.json", "monomial:5")):
        out = tmp_path / name
        assert main(["atoms", "--family", family, "--out", str(out)]) == 0
        digests.append(json.loads(out.read_text())["inputs_digest"])
    # the report path and the start time stay out; the inputs do not
    assert digests[0] == digests[1] != digests[2]


def test_cli_example_exp(tmp_path):
    out = tmp_path / "exp.json"
    rc = main(["example", "exp", "--truncation", "200", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["outputs"]["atoms_match"] is True
    assert doc["outputs"]["total_mass_ok"] is True


def test_cli_bessonov_exit_codes(tmp_path):
    rc = main(["bessonov", "--family", "monomial:2"])
    assert rc == 0
    # squared masses as a Clark candidate fail condition (iv)
    data = cl.exp_clark_data(300)
    bad = tmp_path / "squared.json"
    bad.write_text(json.dumps(measure_to_dict(cl.squared_measure(data.measure))))
    rc = main(["bessonov", "--measure", str(bad), "--accumulation", "0.0"])
    assert rc == 1


def test_cli_perturb_invalid_plan(tmp_path):
    plan = tmp_path / "plan.json"
    # alpha far beyond the admissible cap
    plan.write_text(json.dumps({"alpha": [5.0, 5.0], "t_offsets": [0, 0],
                                "eps": [0, 0]}))
    rc = main(["perturb", "--family", "monomial:2", "--plan", str(plan)])
    assert rc == 1


def test_cli_perturb_seeded(tmp_path):
    out = tmp_path / "p.json"
    rc = main(["perturb", "--family", "monomial:4", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["outputs"]["bessonov"]["verdict"] == "pass"


def test_cli_bessonov_reads_perturb_report(tmp_path):
    report = tmp_path / "p.json"
    rc = main(["perturb", "--family", "exp", "--truncation", "50", "--seed", "3",
               "--out", str(report)])
    assert rc == 0
    out = tmp_path / "b.json"
    rc = main(["bessonov", "--measure", str(report), "--accumulation", "0",
               "--out", str(out)])
    assert rc == 0
    # the same measure and accumulation point give the same records
    assert (json.loads(out.read_text())["outputs"]
            == json.loads(report.read_text())["outputs"]["bessonov"])


def test_cli_norm_and_report(tmp_path):
    out = tmp_path / "norm.json"
    rc = main(["norm", "--family", "exp", "--truncation", "40",
               "--sizes", "16,32,64", "--out", str(out)])
    assert rc == 0
    csv = tmp_path / "norm.csv"
    rc = main(["report", "--json", str(out), "--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "size,value"
    assert len(lines) == 4


def test_cli_usage_error():
    rc = main(["atoms", "--family", "mystery:9"])
    assert rc == 2


def test_cli_tolsa(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["tolsa", "--family", "monomial:2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["outputs"]["max_ratio"] == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("sizes", ["0,4", "1,4", "64,32"])
def test_cli_norm_rejects_bad_sizes(sizes, capsys):
    rc = main(["norm", "--family", "exp", "--truncation", "40", "--sizes", sizes])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_reports_are_deterministic(tmp_path):
    # identical inputs give identical reports, apart from the timing and
    # the command line (which names the --out path)
    commands = {
        "atoms": ["atoms", "--family", "exp", "--truncation", "20"],
        "bessonov": ["bessonov", "--family", "exp", "--truncation", "20"],
        "tolsa": ["tolsa", "--family", "exp", "--truncation", "20"],
        "norm": ["norm", "--family", "exp", "--truncation", "20", "--sizes", "8,16,41"],
        "potential": ["potential", "--family", "exp", "--truncation", "20"],
        "perturb": ["perturb", "--family", "exp", "--truncation", "20", "--seed", "3"],
        "example": ["example", "exp", "--truncation", "20"],
    }
    for name, argv in commands.items():
        docs = []
        for run in range(2):
            out = tmp_path / f"{name}{run}.json"
            main(argv + ["--out", str(out)])
            doc = json.loads(out.read_text())
            del doc["wall_time_s"], doc["command"]
            docs.append(doc)
        assert docs[0] == docs[1], name
    csvs = []
    for run in range(2):
        csv = tmp_path / f"report{run}.csv"
        assert main(["report", "--json", str(tmp_path / "norm0.json"), "--csv", str(csv)]) == 0
        csvs.append(csv.read_text())
    assert csvs[0] == csvs[1]
