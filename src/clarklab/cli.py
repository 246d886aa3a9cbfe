"""Command-line driver.

Subcommands: atoms, bessonov, tolsa, norm, potential, perturb, example,
report.  Every run emits a JSON report embedding the command line that
``main`` parsed, package version, wall time, and truncation metadata.
Exit codes: 0 when the numeric verdict passes, 1 when it fails
(including rejected perturbation plans), 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import shlex
import sys
import time

import numpy as np

from . import __version__
from .cauchy import CauchySection, operator_norm, tolsa_scan
from .circle import AtomicMeasure
from .clark import DEFAULT_TOL
from .errors import ClarkLabError, ConstraintViolation
from .families import (ExpSingular, Monomial, clark_data_for, divergence_ladder,
                       exp_clark_data, exp_tail_mass_bound, exp_tail_potential_bound,
                       exp_total_mass, inner_function, parse_family)
from .inner import spectrum
from .perturb import PerturbationPlan, generate, random_plan, squared_measure
from .potentials import atom_potential_sup, mass_ratio_check, potential, sup_inf_scan
from .serialize import (clark_to_dict, is_number_array, load_json, measure_from_dict,
                        measure_to_dict, to_jsonable, write_csv, write_json)
from .verify import bessonov_check


def _digest(args: argparse.Namespace) -> str:
    payload = json.dumps({k: str(v) for k, v in sorted(vars(args).items())
                          if k not in ("func", "out") and not k.startswith("_")},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _emit(args, payload: dict, passed: bool, truncation=None) -> int:
    report = {
        "command": args._command,
        "version": __version__,
        "inputs_digest": _digest(args),
        "truncation": truncation,
        "wall_time_s": round(time.time() - args._t0, 3),
        "passed": bool(passed),
        "outputs": to_jsonable(payload),
    }
    # written in slices, not joined first: one json.dumps of the report
    # raised the atoms benchmark's peak RSS by about 4 MB
    if args.out:
        with open(args.out, "w") as f:
            write_json(report, f)
            f.write("\n")
        print(f"report written to {args.out}")
    else:
        write_json(report, sys.stdout)
        print()
    return 0 if passed else 1


def _load_measure(args) -> AtomicMeasure:
    """A measure document, or a `perturb` report (outputs.perturbed)."""
    doc = load_json(args.measure)
    if type(doc) is dict and "atoms" not in doc:
        outputs = doc.get("outputs")
        doc = outputs.get("perturbed") if type(outputs) is dict else None
    return measure_from_dict(doc)


def cmd_atoms(args) -> int:
    fam = parse_family(args.family)
    data = clark_data_for(fam, alpha=args.alpha, truncation=args.truncation,
                          tol=args.tol)
    return _emit(args, clark_to_dict(data), passed=data.n_atoms > 0,
                 truncation=args.truncation)


def cmd_bessonov(args) -> int:
    if args.family and args.accumulation is not None:
        raise ValueError("clarklab bessonov: argument --accumulation: not allowed with "
                         "argument --family")
    if args.measure:
        m = _load_measure(args)
        accum = args.accumulation or ()
    else:
        fam = parse_family(args.family)
        m = clark_data_for(fam, truncation=args.truncation, tol=args.tol).measure
        accum = spectrum(inner_function(fam))
    report = bessonov_check(m, accum)
    return _emit(args, report, passed=report.verdict != "fail",
                 truncation=args.truncation)


def cmd_tolsa(args) -> int:
    fam = parse_family(args.family)
    data = clark_data_for(fam, truncation=args.truncation, tol=args.tol)
    report = tolsa_scan(CauchySection(data.measure))
    return _emit(args, report, passed=np.isfinite(report.max_ratio),
                 truncation=args.truncation)


def cmd_norm(args) -> int:
    fam = parse_family(args.family)
    data = clark_data_for(fam, truncation=args.truncation, tol=args.tol)
    sizes = [int(s) for s in args.sizes.split(",")]
    est = operator_norm(data.measure, sizes, data.lattice_indices)
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(est.values, est.values[1:]))
    payload = {"sizes": est.sizes, "values": est.values,
               "converged": est.converged,
               "last_doubling_growth": est.last_doubling_growth}
    return _emit(args, payload, passed=nondecreasing, truncation=args.truncation)


def cmd_potential(args) -> int:
    fam = parse_family(args.family)
    data = clark_data_for(fam, truncation=args.truncation, tol=args.tol)
    mu = squared_measure(data.measure)
    u = inner_function(fam)
    scan = sup_inf_scan(u, mu)
    # the pair sup needs two atoms; null for one
    sup61 = atom_potential_sup(mu) if mu.n_atoms >= 2 else None
    ratios = mass_ratio_check(data, mu)
    payload = {"sup_inf": scan, "atom_potential_sup": sup61, "mass_ratios": ratios}
    passed = np.isfinite(scan.sup_estimate) and scan.converged
    return _emit(args, payload, passed=passed, truncation=args.truncation)


def cmd_perturb(args) -> int:
    fam = parse_family(args.family)
    base = clark_data_for(fam, truncation=args.truncation, tol=args.tol)
    if args.plan:
        doc = load_json(args.plan)
        if not (type(doc) is dict and doc.keys() == {"alpha", "t_offsets", "eps"}
                and all(map(is_number_array, doc.values()))):
            raise ValueError("a plan document is three arrays of numbers: alpha, t_offsets, eps")
        plan = PerturbationPlan(base=base, **doc)
    else:
        plan = random_plan(base, seed=args.seed)
    try:
        lam = generate(plan)
    except ConstraintViolation as e:
        return _emit(args, {"rejected": str(e), "index": e.index, "bound": e.bound},
                     passed=False, truncation=args.truncation)
    report = bessonov_check(lam, spectrum(inner_function(fam)))
    payload = {"perturbed": measure_to_dict(lam), "bessonov": report}
    return _emit(args, payload, passed=report.verdict != "fail",
                 truncation=args.truncation)


def cmd_example(args) -> int:
    fam = parse_family(args.name)
    if isinstance(fam, ExpSingular):
        return _example_exp(args, fam)
    if isinstance(fam, Monomial):
        return _example_monomial(args, fam)
    return _example_counterexample(args, fam)


def _example_exp(args, fam) -> int:
    N = args.truncation
    data = clark_data_for(fam, truncation=N, tol=args.tol)
    closed = exp_clark_data(N)
    checks = {}
    checks["atom_count"] = data.n_atoms == 2 * N + 1
    if checks["atom_count"]:
        checks["atom_agreement_rad"] = float(
            np.max(np.abs(data.measure.thetas - closed.measure.thetas)))
        checks["atoms_match"] = checks["atom_agreement_rad"] < 1e-9
        prod = data.measure.masses * data.derivatives
        checks["mass_derivative_duality"] = float(np.max(np.abs(prod - 1.0)))
        deficit = exp_total_mass() - data.measure.total_mass
        bound = exp_tail_mass_bound(N) * 1.001
        checks["total_mass_deficit"] = deficit
        checks["total_mass_bound"] = bound
        checks["total_mass_ok"] = 0 <= deficit <= bound
        mu = squared_measure(data.measure)
        v1 = potential(mu, 1.0)
        checks["potential_at_spectrum"] = v1
        checks["potential_target"] = 0.5 * exp_total_mass()
        checks["potential_ok"] = abs(v1 - 0.5 * exp_total_mass()) <= \
            exp_tail_potential_bound(N) + 1e-6
        # the pair sup needs two atoms, null for one; the stability check
        # compares it with the truncation N // 10, null below N = 10
        fine = atom_potential_sup(mu).value if mu.n_atoms >= 2 else None
        coarse = atom_potential_sup(squared_measure(
            exp_clark_data(N // 10).measure)).value if N >= 10 else None
        checks["atom_potential_sup"] = fine
        checks["atom_potential_sup_coarse"] = coarse
        checks["atom_potential_stable"] = None if coarse is None else \
            abs(fine - coarse) <= 0.01 * fine
    passed = all(v for k, v in checks.items()
                 if isinstance(v, (bool, np.bool_)))
    return _emit(args, checks, passed=passed, truncation=N)


def _example_monomial(args, fam) -> int:
    data = clark_data_for(fam, tol=args.tol)
    checks = {
        "atom_count": data.n_atoms == fam.k,
        "masses_uniform": bool(np.allclose(data.measure.masses, 1.0 / fam.k,
                                           rtol=1e-12)),
    }
    report = bessonov_check(data.measure)
    checks["bessonov_verdict"] = report.verdict
    if fam.k >= 2:
        tr = tolsa_scan(CauchySection(data.measure))
        est = operator_norm(data.measure, [fam.k])
        checks["tolsa_max_ratio"] = tr.max_ratio
        checks["operator_norm"] = est.values[0]
        checks["tolsa_below_norm"] = tr.max_ratio <= est.values[0] + 1e-9
    passed = report.verdict != "fail" and all(
        v for v in checks.values() if isinstance(v, (bool, np.bool_)))
    return _emit(args, checks, passed=passed)


def _example_counterexample(args, fam) -> int:
    Ks = sorted({max(fam.K // d, 1) for d in (8, 4, 2, 1)})
    records = divergence_ladder(fam, Ks)
    payload = {"ladder": records,
               "note": ("values reported descriptively; a K-zero truncation "
                        "holds about log(K)/pi - 0.15 atoms on the sparse "
                        "side (0, pi/2] of the accumulation point, and "
                        "tail_bound bounds the phase error behind them")}
    return _emit(args, payload, passed=True, truncation=fam.K)


def cmd_report(args) -> int:
    """Flatten a report's body to CSV.  The body is a norm ladder
    {"sizes": [...], "values": [...]} of one length; a non-empty list of
    records, bare or as {"ladder": [...]}; or any other object, whose
    numeric entries become key/value rows."""
    doc = load_json(args.json)
    body = doc.get("outputs", doc) if isinstance(doc, dict) else doc
    records = body.get("ladder") if isinstance(body, dict) else body
    if isinstance(body, dict) and "sizes" in body and "values" in body:
        if not (type(body["sizes"]) is list and type(body["values"]) is list
                and len(body["sizes"]) == len(body["values"])):
            raise ValueError("cannot flatten the norm ladder: sizes and values must be "
                             "arrays of one length")
        header = ["size", "value"]
        rows = list(zip(body["sizes"], body["values"]))
    elif isinstance(records, list) and records and all(isinstance(r, dict) for r in records):
        header = list(records[0])
        rows = [[r.get(k) for k in header] for r in records]
    elif isinstance(body, dict) and "ladder" not in body:
        header = ["key", "value"]
        rows = [(k, v) for k, v in body.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)]
    else:
        raise ValueError("cannot flatten the report body: expected {sizes, values}, "
                         "a non-empty list of records (bare or as {ladder: [...]}) "
                         "or an object")
    write_csv(args.csv, header, rows)
    print(f"csv written to {args.csv}")
    return 0


def _count(text: str) -> int:
    """A non-negative integer option value."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Hands a usage error to main as an input error: one line, exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls
    (each parse fills a fresh namespace)."""
    p = _Parser(
        prog="clarklab",
        description="Clark measures of inner functions: atoms, one-component "
                    "criteria, Cauchy-transform sections, potential conditions, "
                    "and perturbations.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--truncation", type=_count, default=100,
                        help="family truncation level")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="atom location tolerance: the width of each atom's final "
                             "bracket (radians)")
        sp.add_argument("--out", help="write the JSON report here")

    sp = sub.add_parser("atoms", help="locate Clark atoms and masses")
    sp.add_argument("--family", required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=cmd_atoms)

    sp = sub.add_parser("bessonov", help="one-component condition records")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--family")
    source.add_argument("--measure", help="measure JSON file")
    sp.add_argument("--accumulation", type=float, nargs="*",
                    help="declared accumulation angles for --measure input")
    common(sp)
    sp.set_defaults(func=cmd_bessonov)

    sp = sub.add_parser("tolsa", help="arc scan of the Cauchy transform")
    sp.add_argument("--family", required=True)
    common(sp)
    sp.set_defaults(func=cmd_tolsa)

    sp = sub.add_parser("norm", help="operator-norm section ladder")
    sp.add_argument("--family", required=True)
    sp.add_argument("--sizes", default="32,64,128",
                    help="comma-separated increasing section sizes")
    common(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser(
        "potential", help="sup/inf scan, atom-potential sup, mass ratios",
        description="sup/inf scan of |1-u|^2 V_mu over rings and circle points in each "
                    "gap between atoms (the sup lies on the circle), atom-potential sup "
                    "(null below two atoms), mass ratios; passes when the scan's sup is "
                    "finite and one refinement level (one more ring, twice the circle "
                    "points) moves it by at most 1 percent")
    sp.add_argument("--family", required=True)
    common(sp)
    sp.set_defaults(func=cmd_potential)

    sp = sub.add_parser("perturb", help="generate and verify a perturbed measure")
    sp.add_argument("--family", required=True)
    sp.add_argument("--plan", help="plan JSON {alpha, t_offsets, eps}, three arrays")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_perturb)

    sp = sub.add_parser("example", help="run a family's verification pipeline")
    sp.add_argument("name", help="exp | monomial:K | counterexample:A:K[:sym]")
    common(sp)
    sp.set_defaults(func=cmd_example)

    sp = sub.add_parser("report", help="flatten a JSON report to CSV")
    sp.add_argument("--json", required=True)
    sp.add_argument("--csv", required=True)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    """Run one subcommand on argv (sys.argv[1:] when None); its report
    records the command as ``clarklab`` followed by argv."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        args._t0 = time.time()
        args._command = shlex.join(["clarklab", *argv])
        return args.func(args)
    except ConstraintViolation as e:
        print(f"constraint violation: {e}", file=sys.stderr)
        return 1
    except ClarkLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
