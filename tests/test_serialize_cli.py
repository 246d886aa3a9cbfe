import io
import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import clarklab as cl
from clarklab.cli import build_parser, main
from clarklab.serialize import (JSON_SLICE, clark_to_dict, csv_number, measure_from_dict,
                                measure_to_dict, to_jsonable, write_json)


def test_measure_roundtrip_bit_identical():
    m = cl.AtomicMeasure([0.1, 2.5, 4.9], [0.25, 1e-7, 3.0])
    m2 = measure_from_dict(json.loads(json.dumps(measure_to_dict(m))))
    assert np.array_equal(m.thetas, m2.thetas)
    assert np.array_equal(m.masses, m2.masses)


def test_clark_document_carries_atoms_derivatives_constants_and_labels(z2_data):
    # through JSON and back, every number of the Clark data reads bit for
    # bit; the exp lattice's labels go with it, and a measure without
    # labels writes none
    for data in (z2_data, cl.exp_clark_data(5)):
        d = json.loads(json.dumps(clark_to_dict(data)))
        assert np.array_equal([a["theta"] for a in d["atoms"]], data.measure.thetas)
        assert np.array_equal([a["mass"] for a in d["atoms"]], data.measure.masses)
        assert np.array_equal(d["derivatives"], data.derivatives)
        assert (d["alpha"], d["A"], d["B"]) == (data.alpha, data.A, data.B)
        assert (d["witness_A"], d["witness_B"]) == (data.witness_A, data.witness_B)
    assert d["lattice_indices"] == data.lattice_indices.tolist() == list(range(-5, 6))
    assert "lattice_indices" not in clark_to_dict(z2_data)


@dataclass
class _Leaf:
    value: np.float32
    where: complex


@dataclass
class _Node:
    leaf: _Leaf
    leaves: tuple
    table: np.ndarray


def test_to_jsonable_converts_numpy_and_dataclasses():
    obj = {"f32": np.float32(0.5), "i64": np.int64(-7), "flag": np.bool_(True), "z": 1 - 2j,
           "zs": np.array([1 + 2j, -0.5j]), "pair": (1, np.float64(2.5), "s", None),
           "ints": np.arange(3), "mask": np.array([True, False]),
           "node": _Node(_Leaf(np.float32(0.25), 3j), (_Leaf(1.5, 0j),),
                         np.array([[1.0, 2.0], [3.0, np.inf]]))}
    got = to_jsonable(obj)
    assert got == {"f32": 0.5, "i64": -7, "flag": True, "z": {"re": 1.0, "im": -2.0},
                   "zs": [{"re": 1.0, "im": 2.0}, {"re": -0.0, "im": -0.5}],
                   "pair": [1, 2.5, "s", None], "ints": [0, 1, 2], "mask": [True, False],
                   "node": {"leaf": {"value": 0.25, "where": {"re": 0.0, "im": 3.0}},
                            "leaves": [{"value": 1.5, "where": {"re": 0.0, "im": 0.0}}],
                            "table": [[1.0, 2.0], [3.0, float("inf")]]}}
    for key, kind in (("f32", float), ("i64", int), ("flag", bool)):
        assert type(got[key]) is kind
    assert [type(v) for v in got["pair"][:2] + got["ints"] + got["mask"]] == \
        [int, float, int, int, int, bool, bool]
    assert type(got["node"]["leaf"]["value"]) is float


def _written(obj) -> str:
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()


@pytest.mark.parametrize("n", [0, JSON_SLICE - 1, JSON_SLICE, JSON_SLICE + 1,
                               2 * JSON_SLICE + 1])
def test_write_json_parses_as_json_dump(n):
    # lists longer than a slice go slice by slice, dicts key by key; the
    # parsed document is what json.dumps writes, NaN and infinities included
    items = [{"theta": 0.1 * i, "mass": float(i)} for i in range(n)]
    obj = {"atoms": items, "flat": list(range(n)), "n": n,
           "nested": {"inner": {"values": [float("nan"), float("inf"), -float("inf")] * n,
                                "empty": {}, "list": []}},
           "special": [float("nan"), float("inf"), -float("inf"), None, True, "s"]}
    text = _written(obj)
    assert "\n" not in text and ": " not in text  # compact
    want = json.loads(json.dumps(obj))
    got = json.loads(text)
    assert json.dumps(got) == json.dumps(want)  # NaN != NaN, so compare the text
    assert _written(items) == json.dumps(items, separators=(",", ":"))


def test_write_json_converts_keys_as_json_dump():
    obj = {1: "int", 2.5: "float", float("nan"): "nan", float("inf"): "inf", True: "bool",
           False: "false", None: "none", "s": {3: [1.5] * (JSON_SLICE + 1)}}
    assert json.loads(_written(obj)) == json.loads(json.dumps(obj))
    assert _written(obj) == json.dumps(obj, separators=(",", ":"))
    with pytest.raises(TypeError):
        _written({(1, 2): 0})


def test_to_jsonable_passes_plain_lists_through():
    # lists of native scalars, or of dicts of them (measure_to_dict's
    # atoms), need no conversion and are not rebuilt
    atoms = measure_to_dict(cl.AtomicMeasure([0.1, 2.5], [0.25, 1.0]))["atoms"]
    flat = [1, 2.5, True, None, "s"]
    assert to_jsonable(atoms) is atoms and to_jsonable(flat) is flat
    mixed = [{"theta": np.float64(0.5)}, {"theta": 1.0}]
    got = to_jsonable(mixed)
    assert got == [{"theta": 0.5}, {"theta": 1.0}] and type(got[0]["theta"]) is float


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


def test_cli_report_records_the_command_main_parsed(tmp_path, monkeypatch):
    # an in-process call records its own argv, not the host process's
    out = tmp_path / "a b.json"
    argv = ["atoms", "--family", "monomial:4", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["command"] == shlex.join(["clarklab", *argv])
    # without argv, main parses sys.argv[1:] and records that
    argv = ["atoms", "--family", "monomial:3", "--out", str(out)]
    monkeypatch.setattr("sys.argv", ["/usr/bin/clarklab", *argv])
    assert main() == 0
    assert json.loads(out.read_text())["command"] == "clarklab " + shlex.join(argv)


def test_cli_norm_takes_the_lattice_route_on_exp(tmp_path, capsys):
    out = tmp_path / "norm.json"
    assert main(["norm", "--family", "exp", "--truncation", "40", "--sizes", "2,3,32,81",
                 "--out", str(out)]) == 0
    data = cl.clark_data_for(cl.parse_family("exp"), truncation=40)
    est = cl.operator_norm(data.measure, [2, 3, 32, 81], data.lattice_indices)
    assert json.loads(out.read_text())["outputs"]["values"] == est.values
    # atoms located with a coarse tol lie off the closed forms: refused,
    # not sent down the dense path
    assert main(["norm", "--family", "exp", "--truncation", "40", "--sizes", "2,81",
                 "--tol", "1e-10", "--out", str(out)]) == 2
    assert "does not match the family's closed forms" in capsys.readouterr().err


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


def test_cli_bessonov_rejects_nan_mass(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"atoms": [{"theta": 0.0, "mass": 0.5},
                                         {"theta": 1.0, "mass": float("nan")}]}))
    rc = main(["bessonov", "--measure", str(bad), "--accumulation", "0.0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_cli_atoms_rejects_bad_tol(tol, capsys):
    assert main(["atoms", "--family", "counterexample:1.0:16", "--tol", tol]) == 2
    assert "finite and positive" in capsys.readouterr().err


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


@pytest.mark.parametrize("point", ["nan", "inf"])
def test_cli_bessonov_rejects_non_finite_accumulation(point, tmp_path, capsys):
    report = tmp_path / "p.json"
    assert main(["perturb", "--family", "exp", "--truncation", "40", "--seed", "3",
                 "--out", str(report)]) == 0
    capsys.readouterr()
    rc = main(["bessonov", "--measure", str(report), "--accumulation", point])
    assert rc == 2
    assert "angle must be finite" in capsys.readouterr().err


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


#: Valid JSON of the wrong shape for `bessonov --measure` and `perturb --plan`.
MEASURE_DOCUMENTS = {"list.json": [1, 2], "number.json": 3, "atoms-number.json": {"atoms": 5},
                     "atom-list.json": {"atoms": [[0.1, 1]]}, "outputs-number.json": {"outputs": 3}}
PLAN_DOCUMENTS = {"list.json": [1, 2], "alpha-only.json": {"alpha": [0.01] * 4},
                  "sed.json": {"sed": 3}, "seed.json": {"seed": 3}}


@pytest.mark.parametrize("argv", [
    ["atoms", "--family", "monomial"],
    ["atoms", "--family", "counterexample:1.0"],
    ["atoms", "--family", "exp:5"],
    ["atoms", "--family", "counterexample:1:8:foo"],
    ["example", "monomial:four"],
    ["bessonov"],
    ["bessonov", "--family", "exp", "--measure", "measure.json"],
    ["bessonov", "--family", "monomial:4", "--accumulation", "1.0"],
    ["atoms", "--family", "exp", "--seed", "3"],
    ["report", "--json", "ladder.json", "--csv", "ladder.csv"],
    ["atoms", "--family", "exp", "--truncation", "-2"],
    ["potential", "--family", "exp", "--truncation", "-2"],
    ["example", "exp", "--truncation", "-2"],
    *(["bessonov", "--measure", name] for name in MEASURE_DOCUMENTS),
    *(["perturb", "--family", "monomial:4", "--plan", name] for name in PLAN_DOCUMENTS),
    ["report", "--json", "values-number.json", "--csv", "ladder.csv"],
    ["report", "--json", "values-short.json", "--csv", "ladder.csv"],
], ids=["monomial-no-k", "counterexample-no-k", "exp-with-arg", "counterexample-bad-suffix",
        "monomial-bad-k", "bessonov-no-source", "bessonov-two-sources",
        "bessonov-family-accumulation", "seed-off-perturb",
        "report-empty-ladder", "atoms-negative-truncation",
        "potential-negative-truncation", "example-negative-truncation",
        *(f"measure-{name[:-5]}" for name in MEASURE_DOCUMENTS),
        *(f"plan-{name[:-5]}" for name in PLAN_DOCUMENTS), "report-values-number",
        "report-values-short"])
def test_cli_input_errors_exit_2_with_one_line(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ladder.json").write_text('{"outputs": {"ladder": []}}')
    (tmp_path / "values-number.json").write_text('{"outputs": {"sizes": [1, 2], "values": 3}}')
    (tmp_path / "values-short.json").write_text('{"outputs": {"sizes": [32, 64], "values": [0.5]}}')
    for name, doc in {**MEASURE_DOCUMENTS, **PLAN_DOCUMENTS}.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("input error: ")


@pytest.mark.parametrize("K, rungs", [(1, [1]), (8, [1, 2, 4, 8]), (256, [32, 64, 128, 256])])
def test_cli_example_counterexample_rungs_increase_to_K(K, rungs, tmp_path):
    # K/8, K/4, K/2 and K, at least 1, each once
    out = tmp_path / "ladder.json"
    assert main(["example", f"counterexample:1.0:{K}", "--out", str(out)]) == 0
    assert [r["K"] for r in json.loads(out.read_text())["outputs"]["ladder"]] == rungs


def test_cli_alpha_counts_mod_1_and_must_be_finite(tmp_path, capsys):
    # sigma_alpha depends on e^{2 pi i alpha} only; at alpha = 1e17 the
    # level offset 2 pi alpha has an ulp of 128, so it is reduced mod 1
    reports = []
    for alpha in ("0", "1e17"):
        out = tmp_path / f"{alpha}.json"
        assert main(["atoms", "--family", "monomial:4", "--alpha", alpha,
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["outputs"]["atoms"])
    assert len(reports[0]) == 4 and reports[1] == reports[0]
    capsys.readouterr()
    for alpha in ("inf", "nan"):
        assert main(["atoms", "--family", "monomial:4", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("input error: alpha must be finite")


@pytest.mark.parametrize("argv, message", [
    (["atoms", "--family", "counterexample:1.0:1000000000000"],
     "1000000000000 zeros exceed the memory budget"),
    (["atoms", "--family", "counterexample:1.0:600000000:sym"],
     "1200000000 zeros exceed the memory budget"),
    (["atoms", "--family", "monomial:1000000000000"],
     "1000000000000 zeros exceed the memory budget"),
    (["atoms", "--family", "exp", "--truncation", "1000000000000"],
     "2000000000001 levels on the scan exceed the memory budget"),
    (["atoms", "--family", "exp", "--truncation", "10000000"],
     "20000001 levels on the scan exceed the memory budget"),
], ids=["counterexample", "counterexample-sym", "monomial", "exp-at-spectrum", "exp-levels"])
def test_cli_dense_route_refuses_sizes_beyond_the_memory_budget(argv, message, capsys):
    # refused before the zeros or the levels are built, in well under a
    # second; the counterexample points to its sparse route
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: " + message)
    if "counterexample" in argv[2]:
        assert "`example counterexample:1.0:" in captured.err


def test_memory_budget_bounds_zeros_and_levels():
    # the largest inputs of the tests and the benchmark (exp N = 10000:
    # 20 001 levels; counterexample K = 2048; monomial:1024) fit with room
    # to spare, and one zero over the budget is refused before any is built
    budget = cl.circle.MEMORY_BUDGET
    assert cl.cauchy.DENSE_CAP == 8192 and 16 * cl.cauchy.DENSE_CAP ** 2 == budget
    assert budget // cl.clark.LEVEL_BYTES > 100 * 20_001
    assert budget // cl.inner.ZERO_BYTES > 100 * 2 * 2048
    with pytest.raises(cl.errors.ClarkLabError, match="zeros exceed the memory budget"):
        cl.monomial(budget // cl.inner.ZERO_BYTES + 1)


@pytest.mark.parametrize("argv", [
    ["example", "exp", "--truncation", "0"],
    ["atoms", "--family", "exp", "--truncation", "0"],
    ["potential", "--family", "exp", "--truncation", "0"],
], ids=["example", "atoms", "potential"])
def test_cli_exp_truncation_zero_reports_or_exits_2(argv, capsys):
    # one atom: a report, or exit 2 with one error line, never a traceback
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1) or (rc == 2 and len(err.splitlines()) == 1
                            and err.startswith("error: "))


def test_cli_potential_reports_one_atom(tmp_path):
    # exp truncated at 0 has one atom: the pair sup is null, the scan and
    # the mass ratios are reported
    out = tmp_path / "p.json"
    rc = main(["potential", "--family", "exp", "--truncation", "0", "--out", str(out)])
    assert rc in (0, 1)
    doc = json.loads(out.read_text())["outputs"]
    assert doc["atom_potential_sup"] is None
    assert doc["sup_inf"]["atom_limits"] == [pytest.approx(1.0)]
    assert np.isfinite(doc["sup_inf"]["sup_estimate"])
    assert doc["mass_ratios"]["comparability_constant"] == pytest.approx(1.0)


def test_cli_example_exp_reports_one_atom(tmp_path):
    # exp truncated at 0 has one atom: the pair sup and its stability are
    # null, and the other checks decide the exit code
    out = tmp_path / "e.json"
    assert main(["example", "exp", "--truncation", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["outputs"]
    assert doc["atom_potential_sup"] is None and doc["atom_potential_stable"] is None
    assert doc["atom_potential_sup_coarse"] is None
    assert doc["atom_count"] and doc["total_mass_ok"] and doc["potential_ok"]


@pytest.mark.parametrize("N", [1, 2])
def test_cli_example_exp_checks_stability_from_ten_on(N, tmp_path):
    # the stability check compares the pair sup with the truncation N // 10,
    # which holds two atoms only from N = 10 on: below, the coarse sup and
    # the verdict are null (at N = 1 a fixed 5-atom "coarse" measure once
    # failed it, at N = 2 it was the measure itself)
    out = tmp_path / "e.json"
    assert main(["example", "exp", "--truncation", str(N), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["outputs"]
    assert doc["atom_potential_sup"] > 0
    assert doc["atom_potential_sup_coarse"] is None and doc["atom_potential_stable"] is None


def test_cli_tolsa(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["tolsa", "--family", "monomial:2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["outputs"]["max_ratio"] == pytest.approx(0.25, abs=1e-10)


def test_cli_tolsa_witness_arc_is_two_angles(tmp_path):
    # the witness arc is written as its two angles and flags, and it holds
    # exactly the witness atoms: witness_count of them from witness_start on
    out = tmp_path / "t.json"
    assert main(["tolsa", "--family", "exp", "--truncation", "20", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["outputs"]
    arc = doc["witness_arc"]
    assert set(arc) == {"start", "end", "closed_left", "closed_right"}
    assert type(arc["start"]) is float and type(arc["end"]) is float
    thetas = cl.clark_data_for(cl.ExpSingular(), truncation=20).measure.thetas
    start, count = doc["witness_start"], doc["witness_count"]
    assert 0 < count < thetas.size
    want = np.zeros(thetas.size, dtype=bool)
    want[(start + np.arange(count)) % thetas.size] = True
    assert np.array_equal(cl.Arc(**arc).mask(thetas), want)


@pytest.mark.parametrize("sizes", ["0,4", "1,4", "64,32"])
def test_cli_norm_rejects_bad_sizes(sizes, capsys):
    rc = main(["norm", "--family", "exp", "--truncation", "40", "--sizes", sizes])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_calls_in_one_process_share_no_options(capsys):
    # the parser is built once per process; every call parses into a
    # fresh namespace, so an option of one call never reaches the next
    assert main(["atoms", "--family", "monomial:3", "--alpha", "0.25"]) == 0
    assert main(["atoms", "--family", "monomial:3"]) == 0
    first, second = (json.loads(doc) for doc in capsys.readouterr().out.strip().split("\n"))
    assert (first["outputs"]["alpha"], second["outputs"]["alpha"]) == (0.25, 0.0)
    assert first["inputs_digest"] != second["inputs_digest"]


def test_readme_commands_parse():
    # every command of the README's Command line block is one the parser
    # accepts; they are parsed, not run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("clarklab ")]
    assert len(commands) >= 8
    for argv in commands:
        build_parser().parse_args(argv[1:])


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


def test_cli_tolsa_reports_are_identical_at_one_and_two_blas_threads(tmp_path):
    # BLAS reads its thread count when it loads, so each count runs in a
    # fresh interpreter; the reports agree apart from the timing and the
    # command line (which names the --out path)
    src = Path(cl.__file__).resolve().parent.parent
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"tolsa{threads}.json"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "clarklab.cli", "tolsa", "--family", "exp",
                        "--truncation", "1024", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        doc = json.loads(out.read_text())
        del doc["wall_time_s"], doc["command"]
        docs.append(doc)
    assert docs[0] == docs[1]
