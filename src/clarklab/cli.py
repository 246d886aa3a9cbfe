"""Command-line driver.

Subcommands: atoms, bessonov, tolsa, norm, potential, perturb, example,
report.  Every run emits a JSON report embedding the exact command line,
package version, wall time, and truncation metadata.  Exit codes: 0 when
the numeric verdict passes, 1 when it fails (including rejected
perturbation plans), 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cauchy import CauchySection, operator_norm, tolsa_scan
from .circle import AtomicMeasure, CirclePoint
from .errors import ClarkLabError, ConstraintViolation
from .families import (ExpSingular, Monomial, clark_data_for, divergence_ladder,
                       exp_clark_data, exp_tail_mass_bound, exp_tail_potential_bound,
                       exp_total_mass, inner_function, parse_family)
from .perturb import PerturbationPlan, generate, random_plan, squared_measure
from .potentials import atom_potential_sup, mass_ratio_check, potential, sup_inf_scan
from .serialize import (clark_to_dict, load_json, measure_from_dict, measure_to_dict,
                        to_jsonable, write_csv)
from .verify import bessonov_check


def _digest(args: argparse.Namespace) -> str:
    payload = json.dumps({k: str(v) for k, v in sorted(vars(args).items())
                          if k not in ("func", "out") and not k.startswith("_")},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _emit(args, payload: dict, passed: bool, truncation=None) -> int:
    report = {
        "command": " ".join(sys.argv),
        "version": __version__,
        "inputs_digest": _digest(args),
        "truncation": truncation,
        "wall_time_s": round(time.time() - args._t0, 3),
        "passed": bool(passed),
        "outputs": to_jsonable(payload),
    }
    # streamed, not joined first: joining took `atoms --family exp
    # --truncation 10000` from 47 MB to 63 MB peak RSS
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"report written to {args.out}")
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    return 0 if passed else 1


def _accumulation(fam) -> tuple:
    if isinstance(fam, Monomial):
        return ()
    return (CirclePoint(0.0),)


def _load_measure(args) -> AtomicMeasure:
    """A measure document, or a `perturb` report (outputs.perturbed)."""
    doc = load_json(args.measure)
    return measure_from_dict(doc if "atoms" in doc else doc["outputs"]["perturbed"])


def cmd_atoms(args) -> int:
    fam = parse_family(args.family)
    data = clark_data_for(fam, alpha=args.alpha, truncation=args.truncation,
                          tol=args.tol)
    return _emit(args, clark_to_dict(data), passed=data.n_atoms > 0,
                 truncation=args.truncation)


def cmd_bessonov(args) -> int:
    if args.measure:
        m = _load_measure(args)
        accum = tuple(CirclePoint(t) for t in (args.accumulation or ()))
    else:
        fam = parse_family(args.family)
        m = clark_data_for(fam, truncation=args.truncation, tol=args.tol).measure
        accum = _accumulation(fam)
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
    est = operator_norm(data.measure, sizes)
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(est.values, est.values[1:]))
    payload = {"sizes": est.sizes, "values": est.values,
               "converged": est.converged,
               "last_doubling_growth": est.last_doubling_growth}
    return _emit(args, payload, passed=nondecreasing, truncation=args.truncation)


def _load_scan_config(path) -> "ScanConfig":
    from .potentials import ScanConfig
    text = Path(path).read_text()
    if str(path).endswith(".toml"):
        import tomllib
        doc = tomllib.loads(text)
    else:
        doc = json.loads(text)
    known = {k: v for k, v in doc.items() if k in ScanConfig.__dataclass_fields__}
    return ScanConfig(**known)


def cmd_potential(args) -> int:
    fam = parse_family(args.family)
    data = clark_data_for(fam, truncation=args.truncation, tol=args.tol)
    mu = squared_measure(data.measure)
    u = inner_function(fam)
    cfg = _load_scan_config(args.config) if args.config else None
    scan = sup_inf_scan(u, mu, cfg)
    sup61 = atom_potential_sup(mu)
    ratios = mass_ratio_check(data, mu)
    payload = {"sup_inf": scan, "atom_potential_sup": sup61, "mass_ratios": ratios}
    passed = np.isfinite(scan.sup_estimate) and scan.converged
    return _emit(args, payload, passed=passed, truncation=args.truncation)


def cmd_perturb(args) -> int:
    fam = parse_family(args.family)
    base = clark_data_for(fam, truncation=args.truncation, tol=args.tol)
    if args.plan:
        d = load_json(args.plan)
        if {"alpha", "t_offsets", "eps"} <= set(d):
            plan = PerturbationPlan(base=base, alpha=d["alpha"],
                                    t_offsets=d["t_offsets"], eps=d["eps"])
        else:
            plan = random_plan(base, seed=int(d.get("seed", args.seed)))
    else:
        plan = random_plan(base, seed=args.seed)
    try:
        lam = generate(plan)
    except ConstraintViolation as e:
        return _emit(args, {"rejected": str(e), "index": e.index, "bound": e.bound},
                     passed=False, truncation=args.truncation)
    report = bessonov_check(lam, _accumulation(fam))
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
        coarse = atom_potential_sup(squared_measure(
            exp_clark_data(max(N // 10, 2)).measure)).value
        fine = atom_potential_sup(mu).value
        checks["atom_potential_sup"] = fine
        checks["atom_potential_sup_coarse"] = coarse
        checks["atom_potential_stable"] = abs(fine - coarse) <= 0.01 * fine
    passed = all(v for k, v in checks.items()
                 if isinstance(v, (bool, np.bool_)))
    return _emit(args, checks, passed=passed, truncation=N)


def _example_monomial(args, fam) -> int:
    data = clark_data_for(fam)
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
    Ks = [max(fam.K // 8, 2), max(fam.K // 4, 2), max(fam.K // 2, 2), fam.K]
    records = divergence_ladder(fam, Ks)
    payload = {"ladder": records,
               "note": ("values reported descriptively; a K-zero truncation "
                        "holds about log(K)/pi - 0.15 atoms on the sparse "
                        "side (0, pi/2] of the accumulation point, and "
                        "tail_bound bounds the phase error behind them")}
    return _emit(args, payload, passed=True, truncation=fam.K)


def cmd_report(args) -> int:
    doc = load_json(args.json)
    body = doc.get("outputs", doc)
    rows = []
    header = None
    if isinstance(body, dict) and "sizes" in body and "values" in body:
        header = ["size", "value"]
        rows = list(zip(body["sizes"], body["values"]))
    elif isinstance(body, dict) and "ladder" in body:
        recs = body["ladder"]
        header = list(recs[0].keys())
        rows = [[r[k] for k in header] for r in recs]
    elif isinstance(body, list) and body and isinstance(body[0], dict):
        header = list(body[0].keys())
        rows = [[r.get(k) for k in header] for r in body]
    else:
        header = ["key", "value"]
        rows = [(k, v) for k, v in body.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)]
    write_csv(args.csv, header, rows)
    print(f"csv written to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clarklab",
        description="Clark measures of inner functions: atoms, one-component "
                    "criteria, Cauchy-transform sections, potential conditions, "
                    "and perturbations.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--truncation", type=int, default=100,
                        help="family truncation level")
        sp.add_argument("--tol", type=float, default=1e-13,
                        help="atom location tolerance: the width of each atom's final "
                             "bracket (radians)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="write the JSON report here")

    sp = sub.add_parser("atoms", help="locate Clark atoms and masses")
    sp.add_argument("--family", required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=cmd_atoms)

    sp = sub.add_parser("bessonov", help="one-component condition records")
    sp.add_argument("--family")
    sp.add_argument("--measure", help="measure JSON file")
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

    sp = sub.add_parser("potential",
                        help="sup/inf scan, atom-potential sup, mass ratios")
    sp.add_argument("--family", required=True)
    sp.add_argument("--config",
                    help="scan config as JSON or TOML: grid_depth, "
                         "cluster_depth, angular_cap, support_tol, ...")
    common(sp)
    sp.set_defaults(func=cmd_potential)

    sp = sub.add_parser("perturb", help="generate and verify a perturbed measure")
    sp.add_argument("--family", required=True)
    sp.add_argument("--plan", help="plan JSON ({alpha, t_offsets, eps} or {seed})")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.time()
    try:
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
