"""The three workloads: their inputs, their job lists and each job's check.

A job is one user-level request: a ``clarklab`` subcommand run in-process
through ``clarklab.cli.main`` with ``--out`` pointing at a scratch file,
or, where no subcommand exists, the public calls a demo makes.  Every
job's output is kept and checked by ``checks`` after the timed rounds.

The seed draws the inputs the program receives (Clark parameters of the
monomial jobs, perturbation plans, the vectors fed to the Hilbert route)
and the rows and arcs that checks sample.  Sizes do not depend on the
seed, so every seed does the same amount of work.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from clarklab import cauchy, circle, cli, families, perturb, potentials, verify

import checks as ck

WORKLOADS = ("atoms", "lattice", "perturbed")

#: Faults of the program that make a job fail on every run.  A job naming
#: one is still checked in full; once the fault is mended it passes.
NORM_FAULT = ("cauchy._power_largest_sv stops when the Rayleigh quotient "
              "stops changing, not when it is within tol of the answer")
DUPLICATE_FAULT = ("circle.DUPLICATE_TOL is absolute (1e-12 rad); the K = 1e15 "
                   "sparse atoms are 9.4e-13 rad apart")

#: Scan arc of the counterexample family (families.clark_scan_arc).
COUNTEREXAMPLE_SCAN = (1e-3, ck.TWO_PI - 1e-3)

NORM_SIZES = (32, 64, 128, 256, 512, 1024)


class JobError(Exception):
    """The program reported an error for a job (exit code or exception)."""


@dataclass
class Job:
    name: str
    #: the timed call into the program
    run: Callable[[], Any]
    #: checks the collected result after the timed rounds
    check: Callable[[Any], None]
    #: turns run's return value into the result kept for the check
    #: (untimed; raises JobError when the program reported a failure).
    #: Reports are kept as text: parsed, thousands of kept objects would
    #: make the garbage collector's full passes, and the jobs they land
    #: in, slower as a run goes on.
    collect: Callable[[Any], Any] = lambda res: res
    fault: str | None = None
    #: root span of the job in a traced round; subcommands enter through
    #: cli.main, whose own span is their root
    root: str | None = "bench.job"


@dataclass
class Inputs:
    workload: str
    seed: int
    outdir: Path
    data: dict = field(default_factory=dict)


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def cli_job(inputs: Inputs, name: str, argv: list[str], check, fault=None,
            after=None) -> Job:
    """A subcommand whose report's ``outputs`` are handed to ``check``;
    ``after`` runs untimed on those outputs (job glue)."""
    out = inputs.outdir / ("job-" + "".join(c if c.isalnum() else "_" for c in name) + ".json")
    argv = argv + ["--out", str(out)]

    def collect(res):
        rc, err = res
        if rc != 0:
            raise JobError(f"exit code {rc}: {err.strip()}")
        text = out.read_text()
        if after is not None:
            after(json.loads(text)["outputs"])
        return text

    return Job(name, lambda: _cli(argv), lambda text: check(json.loads(text)["outputs"]),
               collect, fault, root=None)


def _rng(inputs: Inputs, stream: int):
    return np.random.default_rng([inputs.seed, stream])


# ---------------------------------------------------------------------------
# atoms: Blaschke-type families through `atoms`, `bessonov` and `example`

def _counterexample_check(alpha: float, K: int, sym: bool):
    def check(outputs):
        a, w = ck.counterexample_zeros(alpha, K, sym)
        ck.check_blaschke_atoms(outputs, a, w, 0.0, COUNTEREXAMPLE_SCAN)
    return check


def _atoms_jobs(inputs: Inputs) -> list[Job]:
    jobs = []
    # the four longest jobs (K = 1024 atoms and Bessonov records, its
    # alpha = 1/2 and symmetrized kin) take about the same time, so the
    # tail (ten jobs beyond it) falls inside their block of copies
    for alpha, K, sym in ((1.0, 1024, False), (1.0, 512, False), (1.0, 256, False),
                          (1.0, 128, False), (1.0, 64, False), (0.5, 1024, False),
                          (0.5, 512, False), (0.5, 128, False), (1.0, 512, True),
                          (1.0, 256, True)):
        fam = f"counterexample:{alpha}:{K}" + (":sym" if sym else "")
        jobs.append(cli_job(inputs, f"atoms {fam}", ["atoms", "--family", fam],
                            _counterexample_check(alpha, K, sym)))
    for k, clark_alpha in zip((1024, 512, 64), inputs.data["monomial_alphas"]):
        jobs.append(cli_job(
            inputs, f"atoms monomial:{k}",
            ["atoms", "--family", f"monomial:{k}", "--alpha", repr(clark_alpha)],
            lambda out, k=k, a=clark_alpha: ck.check_monomial_atoms(out, k, a)))
    for N in (10000, 1000, 100):
        jobs.append(cli_job(inputs, f"atoms exp N={N}",
                            ["atoms", "--family", "exp", "--truncation", str(N)],
                            lambda out, N=N: ck.check_exp_atoms(out, N)))
    jobs.append(cli_job(
        inputs, "bessonov monomial:512", ["bessonov", "--family", "monomial:512"],
        lambda out: ck.check_bessonov(out, ck.monomial_atoms(512, 0.0))))
    for K in (1024, 512):
        jobs.append(cli_job(
            inputs, f"bessonov counterexample:1.0:{K}",
            ["bessonov", "--family", f"counterexample:1.0:{K}"], ck.check_bessonov))

    def example_monomial(out, k=256):
        ck.require(out["atom_count"] and out["masses_uniform"], "closed-form checks failed")
        ck.require(out["bessonov_verdict"] != "fail", "verdict fail")
        norm = ck.circulant_norm(k)
        ck.require(out["operator_norm"] <= norm * (1 + 1e-12),
                   f"operator norm {out['operator_norm']} > circulant norm {norm}")
        ck.require(out["tolsa_max_ratio"] <= norm * (1 + 1e-12),
                   f"Tolsa ratio {out['tolsa_max_ratio']} > circulant norm {norm}")

    jobs.append(cli_job(inputs, "example monomial:256", ["example", "monomial:256"],
                        example_monomial))
    jobs.append(cli_job(inputs, "example counterexample:1.0:1e12",
                        ["example", "counterexample:1.0:1000000000000"],
                        lambda out: ck.check_ladder(out["ladder"])))

    def ladder(Ks):
        return lambda: families.divergence_ladder(
            families.CounterexampleBlaschke(1.0, Ks[-1]), Ks)

    def ladder_check(records):
        ck.check_ladder([vars(r) for r in records])

    jobs.append(Job("divergence_ladder 1e3..1e12",
                    ladder([10**3, 10**6, 10**9, 10**12]), ladder_check))

    def rung_1e15_check(records):
        at, _ = ck.sparse_ladder_rung(10**15)
        _, value_1e12 = ck.sparse_ladder_rung(10**12)
        rec = records[0]
        ck.require(rec.n_atoms == at.n, f"{rec.n_atoms} atoms, closed form {at.n}")
        ck.require(rec.value > value_1e12, f"sup {rec.value} <= K=1e12 rung {value_1e12}")

    jobs.append(Job("divergence_ladder 1e15", ladder([10**15]), rung_1e15_check,
                    fault=DUPLICATE_FAULT))
    return jobs


# ---------------------------------------------------------------------------
# lattice: the exponential example's kernel sums, sections and disk scan

#: Hilbert-route vectors per round at N = 1000 (about 0.15 s each).  Six
#: jobs take clearly less and six clearly more, so the median falls in the
#: middle of the route block.  The norm job at N = 600 is the longest and
#: the two `potential` N = 200 jobs come next, so with six rounds the tail
#: (ten jobs beyond it) falls in the middle of the potential block.  Each
#: block's neighbours are at least 1.5 times shorter or longer, so neither
#: metric jumps between job sizes from run to run.
HILBERT_VECTORS = 3


def _lattice_jobs(inputs: Inputs) -> list[Job]:
    rng = _rng(inputs, 1)
    jobs = []
    for N in (200, 200, 100):
        jobs.append(cli_job(
            inputs, f"potential exp N={N}",
            ["potential", "--family", "exp", "--truncation", str(N)],
            lambda out, N=N: ck.check_exp_potential(out, N, rng)))
    for N in (400, 160, 80):
        jobs.append(cli_job(
            inputs, f"tolsa exp N={N}", ["tolsa", "--family", "exp", "--truncation", str(N)],
            lambda out, N=N: ck.check_tolsa(out, ck.exp_atoms(N),
                                            ck.lattice_section_norm(2 * N + 1), rng)))
    for N, sizes in ((600, NORM_SIZES), (200, NORM_SIZES[:4])):
        jobs.append(cli_job(
            inputs, f"norm exp N={N}",
            ["norm", "--family", "exp", "--truncation", str(N),
             "--sizes", ",".join(map(str, sizes))],
            lambda out: ck.check_norm(out, [ck.lattice_section_norm(n) for n in out["sizes"]]),
            fault=NORM_FAULT))
    for N in (1500, 500):
        jobs.append(cli_job(
            inputs, f"bessonov exp N={N}",
            ["bessonov", "--family", "exp", "--truncation", str(N)],
            lambda out, N=N: ck.check_bessonov(out, ck.exp_atoms(N), True,
                                               ck.NUMERIC_ATOM_REL_TOL)))
    jobs.append(cli_job(inputs, "example exp N=1000", ["example", "exp", "--truncation", "1000"],
                        lambda out: ck.check_example_exp(out, 1000)))
    for N in (1000, 300):
        data = inputs.data[f"exp{N}"]
        for f in inputs.data[f"f{N}"]:

            def route(data=data, f=f):
                sec = cauchy.CauchySection(data.measure, lattice_indices=data.lattice_indices)
                return cauchy.hilbert_route(sec, f), sec.apply(f)

            jobs.append(Job(f"hilbert_route vs apply N={N}", route,
                            lambda res, N=N, f=f: ck.check_hilbert(*res, ck.exp_atoms(N), f, rng)))
    return jobs


# ---------------------------------------------------------------------------
# perturbed: seeded perturbation plans of the exp lattice

#: Base truncation (801 atoms) and plan count.  All plans share one base
#: size, so the median job falls inside one block of like jobs (the four
#: `bessonov --measure` jobs), not on the edge between blocks of unlike
#: sizes, where it would jump from one to the other between runs.  Twelve
#: jobs a round take less and twelve take more, so the median falls in the
#: middle of that block.
PERTURBED_N, PERTURBED_PLANS = 400, 4

#: Base truncation of the seed-independent measure (1001 atoms).  Its
#: Tolsa scan is the workload's longest job, so the tail (ten jobs beyond
#: it) falls inside that job's block of copies.
FIXED_N = 500


def _perturbed_jobs(inputs: Inputs) -> list[Job]:
    rng = _rng(inputs, 2)
    jobs = []
    N, base = PERTURBED_N, inputs.data["base"]
    base_atoms = ck.Atoms(base.measure.thetas, base.measure.masses)
    for p, (plan_path, plan) in enumerate(inputs.data["plans"]):
        measure_path = inputs.outdir / f"measure-{p}.json"
        held = {}

        def keep(outputs, held=held, measure_path=measure_path):
            # `bessonov --measure` reads {"atoms": [...]} only
            measure_path.write_text(json.dumps(outputs["perturbed"]))
            doc = outputs["perturbed"]
            held["measure"] = circle.AtomicMeasure(
                [a["theta"] for a in doc["atoms"]], [a["mass"] for a in doc["atoms"]])

        def check_perturb(out, plan=plan):
            ck.check_atoms_match(base_atoms, ck.exp_atoms(N), f"base exp N={N}")
            ck.check_perturbed(ck.report_atoms(out["perturbed"]),
                               ck.perturbed_atoms(base_atoms, plan))
            ck.check_bessonov(out["bessonov"])

        def lam_atoms(plan=plan):
            return ck.perturbed_atoms(base_atoms, plan)

        tag = f"plan {p} N={N}"
        jobs.append(cli_job(inputs, f"perturb {tag}",
                            ["perturb", "--family", "exp", "--truncation", str(N),
                             "--plan", str(plan_path)], check_perturb, after=keep))
        jobs.append(cli_job(
            inputs, f"bessonov --measure {tag}",
            ["bessonov", "--measure", str(measure_path), "--accumulation", "0"],
            lambda out, lam_atoms=lam_atoms: ck.check_bessonov(out, lam_atoms(), True)))
        jobs.append(Job(
            f"perturbed_admissibility {tag}",
            lambda held=held: verify.perturbed_admissibility(base, held["measure"]),
            lambda rep, plan=plan: ck.check_admissibility(
                rep.alpha, rep.passed, rep.cap, base_atoms, plan)))
        jobs.append(Job(
            f"atom_potential_sup squared {tag}",
            lambda held=held: potentials.atom_potential_sup(
                perturb.squared_measure(held["measure"])),
            lambda res, lam_atoms=lam_atoms: ck.check_row_sup(
                res.value, res.witness, ck.squared(lam_atoms()), rng, "atom-potential sup")))
        alpha = np.asarray(plan["alpha"])
        jobs.append(Job(
            f"interaction_sup {tag}",
            lambda alpha=alpha: perturb.interaction_sup(base, alpha),
            lambda res, alpha=alpha: ck.check_row_sup(
                res[0], res[1], base_atoms, rng, "interaction sup", power=1.0,
                weights=base_atoms.masses * alpha)))
        jobs.append(Job(
            f"tolsa_scan {tag}",
            lambda held=held: cauchy.tolsa_scan(cauchy.CauchySection(held["measure"])),
            lambda rep, lam_atoms=lam_atoms: ck.check_tolsa(
                vars(rep), lam_atoms(), ck.section_norm(lam_atoms()), rng)))

    fixed, fixed_atoms = inputs.data["fixed_measure"]
    tag = f"fixed plan N={FIXED_N}"
    fixed_plan_path, fixed_plan = inputs.data["fixed_plan"]

    def check_perturb_fixed(out):
        ck.check_perturbed(ck.report_atoms(out["perturbed"]),
                           ck.perturbed_atoms(ck.exp_atoms(FIXED_N), fixed_plan))
        ck.check_bessonov(out["bessonov"])

    jobs.append(cli_job(inputs, f"perturb {tag}",
                        ["perturb", "--family", "exp", "--truncation", str(FIXED_N),
                         "--plan", str(fixed_plan_path)], check_perturb_fixed))
    jobs.append(cli_job(
        inputs, f"bessonov --measure {tag}",
        ["bessonov", "--measure", str(inputs.data["fixed_path"]), "--accumulation", "0"],
        lambda out: ck.check_bessonov(out, fixed_atoms, True)))
    jobs.append(Job(
        f"tolsa_scan {tag}", lambda: cauchy.tolsa_scan(cauchy.CauchySection(fixed)),
        lambda rep: ck.check_tolsa(vars(rep), fixed_atoms, ck.section_norm(fixed_atoms), rng)))
    sizes = NORM_SIZES[:5]
    jobs.append(Job(
        f"operator_norm {tag}",
        lambda: cauchy.operator_norm(fixed, sizes),
        lambda est: ck.check_norm(vars(est), [ck.section_norm(ck.nested(fixed_atoms, n))
                                              for n in sizes]),
        fault=NORM_FAULT))
    return jobs


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, outdir: Path) -> Inputs:
    """Set-up: the inputs a workload's jobs receive (closed-form base
    measures, plan files), drawn from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload, seed, outdir)
    rng = _rng(inputs, 0)
    if workload == "atoms":
        inputs.data["monomial_alphas"] = [float(a) for a in rng.uniform(0.05, 0.95, 3)]
    elif workload == "lattice":
        for N, count in ((1000, HILBERT_VECTORS), (300, 1)):
            inputs.data[f"exp{N}"] = families.exp_clark_data(N)
            inputs.data[f"f{N}"] = [rng.standard_normal(2 * N + 1)
                                    + 1j * rng.standard_normal(2 * N + 1) for _ in range(count)]
    else:
        plans = []
        N = PERTURBED_N
        base = families.clark_data_for(families.ExpSingular(), truncation=N)
        for p in range(PERTURBED_PLANS):
            plan = ck.draw_plan(ck.exp_atoms(N), rng)
            path = outdir / f"plan-{p}.json"
            path.write_text(json.dumps(plan))
            plans.append((path, plan))
        # the norm job's measure comes from a plan that does not depend on
        # the seed, since that job fails on every run (NORM_FAULT)
        plan = ck.draw_plan(ck.exp_atoms(FIXED_N), np.random.default_rng(0))
        plan_path = outdir / "plan-fixed.json"
        plan_path.write_text(json.dumps(plan))
        fixed = perturb.generate(perturb.PerturbationPlan(
            base=families.exp_clark_data(FIXED_N), **plan))
        path = outdir / "measure-fixed.json"
        path.write_text(json.dumps({"atoms": [{"theta": t, "mass": m} for t, m in
                                              zip(fixed.thetas.tolist(), fixed.masses.tolist())]}))
        inputs.data.update(base=base, plans=plans, fixed_path=path,
                           fixed_plan=(plan_path, plan),
                           fixed_measure=(fixed, ck.Atoms(fixed.thetas, fixed.masses)))
    return inputs


def jobs(inputs: Inputs) -> list[Job]:
    return {"atoms": _atoms_jobs, "lattice": _lattice_jobs,
            "perturbed": _perturbed_jobs}[inputs.workload](inputs)
