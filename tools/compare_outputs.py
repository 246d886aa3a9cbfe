"""Compare what two checkouts of clarklab report for a fixed list of
commands.

    python3 tools/compare_outputs.py PARENT CHANGE

runs every command of COMMANDS as ``python -m clarklab.cli COMMAND
--out out.json`` (``report`` writes its ``--csv`` file instead) against
each checkout's ``src``, with one BLAS thread, from one temporary
directory that holds the input documents of DOCUMENTS.  For each
command it compares the exit code, the stderr and the parsed
``outputs`` of the report as canonical JSON text: keys sorted, floats
by repr, so a float is equal only bit for bit and NaN equals NaN.
Where the outputs differ, the summary lists each differing number by
its path in the report, with both values and the relative difference.
It prints one JSON summary and exits 0 when every command is equal, 1
otherwise.
"""
from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

#: Input documents written into the working directory: one measure of
#: three atoms, then valid JSON of the wrong shape for `bessonov
#: --measure`, `perturb --plan` and `report --json`.
DOCUMENTS = {
    "m.json": {"atoms": [{"theta": 0.5, "mass": 0.1}, {"theta": 2.0, "mass": 0.3},
                         {"theta": 4.0, "mass": 0.2}]},
    "list.json": [1, 2],
    "number.json": 3,
    "atoms-number.json": {"atoms": 5},
    "atom-list.json": {"atoms": [[0.1, 1]]},
    "outputs-number.json": {"outputs": 3},
    "plan-alpha.json": {"alpha": [0.01] * 4},
    "plan-sed.json": {"sed": 3},
    "plan-seed.json": {"seed": 3},
    "ladder-values-number.json": {"outputs": {"sizes": [1, 2], "values": 3}},
    "ladder-values-short.json": {"outputs": {"sizes": [32, 64], "values": [0.5]}},
}

COMMANDS = [
    "potential --family exp --truncation 100",
    "potential --family exp --truncation 200",
    "potential --family exp --truncation 0",
    "potential --family counterexample:1.0:64",
    "potential --family counterexample:1.0:256",
    "atoms --family exp --truncation 100",
    "atoms --family counterexample:1.0:256",
    "atoms --family monomial:64",
    "bessonov --family exp --truncation 500",
    "norm --family exp --truncation 200 --sizes 32,64,128",
    "perturb --family exp --truncation 100 --seed 3",
    "example exp --truncation 300",
    "example monomial:64",
    "example counterexample:1.0:256",
    "bessonov --measure m.json --accumulation nan",
    "bessonov --measure m.json --accumulation inf",
    "bessonov --measure m.json --accumulation 0.0 3.0",
    "tolsa --family exp --truncation 200",
    "example exp --truncation 1",
    "example exp --truncation 2",
    "example exp --truncation 0",
    "example exp --truncation 15",
    "norm --family exp --truncation 600 --sizes 32,64,128,256,512,1024",
    "norm --family exp --truncation 300 --sizes 32,64,128,256",
    "example monomial:256",
    "norm --family monomial:64 --sizes 8,16,64",
    "norm --family counterexample:1.0:256 --sizes 32,64,128,256",
    "potential --family counterexample:1.0:1024",
    "potential --family exp --truncation 1000",
    "potential --family monomial:16",
    "norm --family exp --truncation 600 --sizes 32,1024 --tol 1e-10",
    "atoms --family counterexample:0.5:128:sym",
    "atoms --family monomial:8 --alpha 0.3",
    "perturb --family monomial:8 --seed 5",
    "tolsa --family counterexample:1.0:128",
    "bessonov --family counterexample:1.0:512",
    "tolsa --family exp --truncation 400",
    "tolsa --family counterexample:1.0:512",
    "tolsa --family monomial:256",
    "norm --family counterexample:1.0:1024 --sizes 256,512,1000",
    "tolsa --family exp --truncation 4096",
    # documents of the wrong shape
    "bessonov --measure list.json",
    "bessonov --measure number.json",
    "bessonov --measure atoms-number.json",
    "bessonov --measure atom-list.json",
    "bessonov --measure outputs-number.json",
    "perturb --family monomial:4 --plan list.json",
    "perturb --family monomial:4 --plan plan-alpha.json",
    "perturb --family monomial:4 --plan plan-sed.json",
    "perturb --family monomial:4 --plan plan-seed.json",
    "report --json ladder-values-number.json --csv out.csv",
    "report --json ladder-values-short.json --csv out.csv",
    # a ladder whose rungs K/8, K/4 and K/2 are distinct only from K = 16 on
    "example counterexample:1.0:8",
    # a scan whose refinement level moves its sup, so the refined sup
    # compares that level's values too
    "potential --family exp --truncation 50",
    # alpha = 1 members, whose phase lift is the lattice closed form, and
    # an alpha = 1/2 member, which keeps the per-zero sum
    "atoms --family counterexample:1.0:1024",
    "atoms --family counterexample:1.0:512:sym",
    "bessonov --family counterexample:1.0:1024",
    "atoms --family counterexample:0.5:1024",
    # the sparse route of a symmetrized member, whose u(1) = 1 puts no atom
    # at theta = 0, and criterion 8's rungs
    "example counterexample:1.0:1024:sym",
    "example counterexample:1.0:1000000000000",
]

#: One BLAS thread, so that dense products add in one order.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}


def canonical(obj) -> str:
    """JSON text with sorted keys; floats by repr, NaN as NaN."""
    return json.dumps(obj, sort_keys=True)


def run(checkout, command: str, workdir: Path) -> dict:
    """Exit code, outputs and stderr of one command against checkout/src,
    run from workdir.  The outputs are the canonical text of the report's
    ``outputs``, the CSV text of ``report``, or None when neither file was
    written."""
    out, csv = workdir / "out.json", workdir / "out.csv"
    for path in (out, csv):
        path.unlink(missing_ok=True)
    argv = shlex.split(command)
    if argv[0] != "report":
        argv += ["--out", out.name]
    env = {**os.environ, **ENV, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    proc = subprocess.run([sys.executable, "-m", "clarklab.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, text=True)
    outputs = (canonical(json.loads(out.read_text())["outputs"]) if out.exists()
               else csv.read_text() if csv.exists() else None)
    return {"exit": proc.returncode, "outputs": outputs, "stderr": proc.stderr}


def differences(a: dict, b: dict) -> list[str]:
    """The fields of two run results that differ."""
    return [k for k in ("exit", "outputs", "stderr") if a[k] != b[k]]


def number_differences(a: str, b: str) -> list[dict]:
    """The numbers that differ between two canonical outputs texts, by
    their path, with |change - parent|/|parent|; other differences of
    shape or type are listed with both values."""
    return _walk(json.loads(a), json.loads(b), "outputs")


def _walk(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [d for k in a for d in _walk(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _walk(x, y, f"{path}[{i}]")]
    if canonical(a) == canonical(b):
        return []
    row = {"path": path, "parent": a, "change": b}
    if all(isinstance(v, float) for v in (a, b)) and a != 0.0:
        row["rel"] = abs(b - a) / abs(a)
    return [row]


def compare(parent, change, commands=COMMANDS) -> dict:
    """Run each command on both checkouts and summarize the differences."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, doc in DOCUMENTS.items():
            (work / name).write_text(json.dumps(doc))
        for command in commands:
            a, b = run(parent, command, work), run(change, command, work)
            diff = differences(a, b)
            row = {"command": command, "exit_parent": a["exit"], "exit_change": b["exit"],
                   "equal": not diff, "differences": diff}
            if ("outputs" in diff and not command.startswith("report")
                    and None not in (a["outputs"], b["outputs"])):
                row["numbers"] = number_differences(a["outputs"], b["outputs"])
            if "stderr" in diff:
                row["stderr_parent"] = a["stderr"].splitlines()[-1:]
                row["stderr_change"] = b["stderr"].splitlines()[-1:]
            results.append(row)
    return {"commands": len(results), "equal": sum(r["equal"] for r in results),
            "results": results}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    summary = compare(*argv)
    print(json.dumps(summary, indent=1))
    return 0 if summary["equal"] == summary["commands"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
