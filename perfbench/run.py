"""clarklab benchmark: one workload per run, one process, closed loop.

    python3 perfbench/run.py --workload atoms|lattice|perturbed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  A run sets up (import and inputs), then runs whole rounds of
the workload's job list, one job at a time, then checks every job's
output.  The last line on stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See perfbench/README.md.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, fixed before numpy loads; probes inherit it
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Wall time of one round at the time of writing (2-core Xeon, see
#: README).  A run makes max(ceil(MIN_JOBS / jobs per round),
#: round(seconds / nominal)) rounds, so the job count, and with it the
#: tail percentile, depends on --seconds alone and never on how fast a
#: round happened to go.
NOMINAL_ROUND_S = {"atoms": 8.3, "lattice": 4.5, "perturbed": 1.8}

#: Jobs a run needs so that a tail percentile with ten jobs beyond it
#: exists.
MIN_JOBS = 40

#: Set-up samples per run: this process plus fresh probe interpreters.
SETUP_SAMPLES = 5

TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    if not (ROOT / "src" / "clarklab" / "__init__.py").is_file():
        raise SystemExit(f"error: no clarklab sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    import clarklab
    if Path(clarklab.__file__).resolve().parent != ROOT / "src" / "clarklab":
        raise SystemExit(f"error: imported clarklab from {clarklab.__file__}")
    return workloads


def rounds_for(workload: str, seconds: float, n_jobs: int) -> int:
    return max(math.ceil(MIN_JOBS / n_jobs), round(seconds / NOMINAL_ROUND_S[workload]))


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (perfbench/probe.py)."""
    res = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                         capture_output=True, text=True, timeout=120, cwd=ROOT)
    if res.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {res.stderr.strip()}")
    return float(res.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND values beyond it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def run_rounds(jobs, n_rounds: int, tracer=None):
    """Run whole rounds; with a tracer every second round is traced.

    Returns per-round (wall, traced, span offset, peak RSS so far in MB)
    and the job records (job, seconds, result or error)."""
    rounds, records = [], []
    for r in range(n_rounds):
        traced = tracer is not None and r % 2 == 1
        first = len(tracer) if traced else 0
        if traced:
            tracer.install()
        gc.collect()  # every round starts from the same collector state
        wall = 0.0
        for job in jobs:
            ctx = tracer.recording(job.root) if traced else contextlib.nullcontext()
            err = result = None
            with ctx:
                t = time.perf_counter()
                try:
                    res = job.run()
                except Exception as e:  # the program raised: a failed job
                    err = f"{type(e).__name__}: {e}"
                dt = time.perf_counter() - t
            if err is None:
                try:
                    result = job.collect(res)
                except Exception as e:
                    err = f"{type(e).__name__}: {e}"
            wall += dt
            records.append((job, dt, result, err))
        if traced:
            tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append((wall, traced, first, rss_mb))
    return rounds, records


def _digest(result) -> bytes:
    return hashlib.sha256(pickle.dumps(result)).digest()


def check_all(records, checks):
    """Check every kept result.  A job whose output is identical to one
    already checked shares that verdict, so a run checks each distinct
    output once.  Returns (failed, unexpected failures, distinct failure
    lines for the log)."""
    failed, unexpected, log, verdicts = 0, [], {}, {}
    for job, _, result, err in records:
        if err is None:
            key = (job.name, _digest(result))
            if key not in verdicts:
                try:
                    job.check(result)
                    verdicts[key] = None
                except checks.CheckFailed as e:
                    verdicts[key] = f"check: {e}"
            err = verdicts[key]
        if err is not None:
            failed += 1
            if job.fault is None:
                unexpected.append(job.name)
            tag = "unexpected" if job.fault is None else "known fault"
            log[f"FAILED ({tag}) {job.name}: {err}"] = None
    return failed, unexpected, list(log)


def layer_metrics(tracer, rounds, trace_mod) -> dict:
    """Per-layer metrics: medians over traced rounds of per-round sums."""
    per_round = []
    traced = [(wall, first) for wall, t, first, _ in rounds if t]
    bounds = [first for _, first in traced] + [len(tracer)]
    for (wall, first), last in zip(traced, bounds[1:]):
        per_round.append((wall, trace_mod.summarize(tracer, first, last)))

    def med(fn):
        return statistics.median(fn(wall, agg) for wall, agg in per_round)

    def self_s(name):
        return lambda wall, agg: agg.get(name, {}).get("self_s", 0.0)

    def items(name):
        return lambda wall, agg: agg.get(name, {}).get("items", 0)

    def calls(name):
        return lambda wall, agg: agg.get(name, {}).get("calls", 0)

    def rate(name):
        def f(wall, agg):
            a = agg.get(name)
            return a["items"] / a["self_s"] if a and a["self_s"] > 0 else 0.0
        return f

    def layer(prefix):
        return lambda wall, agg: sum(a["self_s"] for n, a in agg.items()
                                     if n.split(".")[0] == prefix)

    m = {}
    for name in PER_LAYER_SELF:
        m[f"{name}_s"] = (med(self_s(name)), "s")
    m["inner.angular_derivative_calls"] = (med(calls("inner.angular_derivative")), "count")
    m["clark.atoms_per_s"] = (med(rate("clark.find_atoms")), "1/s")
    m["potentials.pairs_per_s"] = (med(rate("potentials.atom_potential_sup")), "1/s")
    m["cauchy.power_iterations"] = (med(items("cauchy.operator_norm")), "count")
    for prefix in (*trace_mod.LAYERS, "bench"):
        m[f"{prefix}.self_s"] = (med(layer(prefix)), "s")
    untraced = statistics.median(w for w, t, _, _ in rounds if not t)
    traced_wall = statistics.median(w for w, _ in traced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_share"] = ((traced_wall - untraced) / untraced, "ratio")
    m["trace.accounted_share"] = (
        med(lambda wall, agg: sum(a["self_s"] for a in agg.values()) / wall), "ratio")
    m["trace.spans"] = (med(lambda wall, agg: sum(a["calls"] for a in agg.values())), "count")
    return m


#: Function-level self times reported by the traced run.
PER_LAYER_SELF = (
    "inner.angular_derivative", "inner.evaluate", "clark.find_atoms",
    "circle.neighbor_constants", "circle.measure_build", "families.clark_data_for",
    "families.exp_clark_data", "families.divergence_ladder",
    "potentials.atom_potential_sup", "potentials.sup_inf_scan", "potentials.potential_grid",
    "cauchy.operator_norm", "cauchy.tolsa_scan", "cauchy.section_matrix",
    "cauchy.cauchy_one_all", "cauchy.hilbert_route", "verify.bessonov_check",
    "verify.perturbed_admissibility", "perturb.generate", "perturb.interaction_sup",
    "serialize.to_jsonable",
)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    import checks
    import spans as trace_mod

    outdir = OUT / f"{args.workload}-{args.seed}"
    inputs = workloads.build(args.workload, args.seed, outdir)
    setup = [time.perf_counter() - T0]
    jobs = workloads.jobs(inputs)
    n_rounds = rounds_for(args.workload, args.seconds, len(jobs))

    tracer = None
    if args.trace:
        tracer = trace_mod.Tracer()
        # untraced and traced rounds alternate, at least two of each
        n_rounds = max(4, n_rounds + n_rounds % 2)
    else:
        setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    rounds, records = run_rounds(jobs, n_rounds, tracer)
    failed, unexpected, log = check_all(records, checks)
    for line in log:
        print(line, file=sys.stderr)

    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = layer_metrics(tracer, rounds, trace_mod)
    else:
        times = [dt for _, dt, _, _ in records]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(w for w, _, _, _ in rounds), "s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail(times), "s"),
            # the first round's peak: later rounds add what glibc's heap
            # keeps from earlier ones, which varies from process to process
            # (on lattice by 51 MB, with nothing but an added environment
            # variable), so it measures the allocator's history, not the jobs
            "peak_rss_mb": (rounds[0][3], "MB"),
        }
    print(f"{args.workload} seed {args.seed}: {len(records)} jobs in {n_rounds} rounds, "
          f"{failed} failed, BLAS threads {BLAS_THREADS}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
