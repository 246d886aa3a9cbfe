"""Aggregate one-component verdict for a candidate atomic measure.

The five operational conditions on a Clark measure (Bessonov's
characterization): (i) support of Lebesgue measure zero, (ii) isolated
atoms, (iii) two-sided neighbors with atoms in every component off the
accumulation set, (iv) masses comparable to neighbor gaps, (v) the
transform of 1 uniformly bounded on the atoms.

Only finitely many atoms are ever available, so (i) and (iii) are
reported as truncation evidence with flags rather than certified; (iv)
and (v) get numeric records with witnesses.  Gaps that wrap across a
declared accumulation point are excluded from (iv) (the true neighbor is
missing from the truncation), and (v) excludes atoms within twice the
truncation's edge gap of an accumulation point, where the missing tail
would distort the sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import CauchySection
from .circle import Arc, AtomicMeasure, TWO_PI, chord_angles, finite_angle, neighbor_constants
from .clark import ClarkData
from .errors import SupportMismatch
from .perturb import admissible_alpha_bound


#: Condition (iv) fails when B/A exceeds this (engineering default, no
#: guidance from the theory; it separates gap-comparable masses from
#: gap-squared decay by many orders of magnitude).
COND_IV_RATIO_MAX = 1e6


@dataclass
class ConditionRecord:
    name: str
    passed: bool
    flagged: bool
    details: dict


@dataclass
class BessonovReport:
    records: list[ConditionRecord]
    A: float
    B: float
    verdict: str  # "pass" | "pass-with-flags" | "fail"

    def record(self, name: str) -> ConditionRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def bessonov_check(m: AtomicMeasure, accumulation_points=()) -> BessonovReport:
    """Run the five condition records on a finite truncation.

    ``accumulation_points`` declares the candidate accumulation set
    tau(mu) supplied by the family (empty for finite measures), as
    angles, each finite (else InvalidAngle).
    """
    # sorts, not np.unique or np.median, whose first calls import numpy.ma
    # (about 0.5 MiB that the process keeps) under numpy 2.4; same values
    etas = np.sort([finite_angle(t) for t in accumulation_points])
    etas = etas[np.diff(etas, prepend=-np.inf) != 0]
    accum = etas.size > 0
    n = m.n_atoms
    records = []

    # (i) |supp| = 0 is not decidable from a truncation; report gap-sum
    # evidence (angular gaps always total 2 pi for a finite set).
    gaps = m.gaps if n >= 2 else np.array([TWO_PI])
    middle = np.sort(gaps)[(gaps.size - 1) // 2:gaps.size // 2 + 1]
    records.append(ConditionRecord(
        name="i-support-size", passed=True, flagged=accum,
        details={"gap_sum": float(gaps.sum()), "min_gap": float(gaps.min()),
                 "max_gap": float(gaps.max()), "median_gap": float(middle.sum() / middle.size),
                 "note": ("finite support certifies |supp| = 0" if not accum else
                          "verified on truncation only; the family must assert "
                          "|supp| = 0 for the limit")}))

    # (ii) isolation: strictly positive minimal chordal gap.
    min_chord = float(m.chord_gaps.min()) if n >= 2 else 2.0
    records.append(ConditionRecord(
        name="ii-isolated-atoms", passed=min_chord > 0.0, flagged=False,
        details={"min_chordal_gap": min_chord}))

    # (iii) neighbors exist for every atom of a finite set; flag atoms
    # within twice the nearest atom's distance of a declared accumulation
    # point, and check every component of the complement of the
    # accumulation set holds an atom.
    near_accum = 0
    keep = np.ones(n, dtype=bool)
    components_ok = True
    if etas.size and n:
        dist = chord_angles(m.thetas[:, None], etas)  # (atoms, accumulation points)
        edge = 2.0 * dist.min(axis=0)
        near_accum = int(np.sum(dist < edge + 1e-300))
        keep = (dist >= edge).all(axis=1)
        components_ok = all(
            Arc(a, b, False, False).mask(m.thetas).any()
            for a, b in zip(etas, np.roll(etas, -1)))
    records.append(ConditionRecord(
        name="iii-neighbors", passed=(n >= 2 or not accum) and components_ok,
        flagged=accum,
        details={"atoms_near_accumulation": near_accum,
                 "components_with_atoms": components_ok,
                 "note": "neighbor existence holds trivially on a truncation"
                         if n >= 2 else "fewer than 2 atoms: vacuous"}))

    # (iv) mass-to-gap comparability.
    A, B, wa, wb = neighbor_constants(m, excluded_points=etas)
    if np.isnan(A):
        iv_pass = n < 2  # vacuous for a single atom
        ratio = float("nan")
    else:
        ratio = B / A
        iv_pass = ratio <= COND_IV_RATIO_MAX
    records.append(ConditionRecord(
        name="iv-mass-gap-constants", passed=bool(iv_pass), flagged=False,
        details={"A": A, "B": B, "ratio": ratio, "witness_A": wa, "witness_B": wb,
                 "ratio_max": COND_IV_RATIO_MAX}))

    # (v) sup of |C 1| over the atoms that (iii) did not flag, or over all
    # atoms when it flagged every one.
    if n >= 2:
        c1 = np.abs(CauchySection(m).cauchy_one_all())
        if not keep.any():
            keep[:] = True
        wit = int(np.argmax(np.where(keep, c1, -np.inf)))
        sup, excluded = float(c1[wit]), int(n - keep.sum())
    else:
        sup, wit, excluded = 0.0, -1, 0
    records.append(ConditionRecord(
        name="v-cauchy-of-one", passed=np.isfinite(sup), flagged=accum,
        details={"sup": sup, "witness": wit, "edge_excluded_atoms": excluded,
                 "note": "uniform boundedness is asserted on the truncation only"}))

    if any(not r.passed for r in records):
        verdict = "fail"
    elif any(r.flagged for r in records):
        verdict = "pass-with-flags"
    else:
        verdict = "pass"
    return BessonovReport(records=records, A=A, B=B, verdict=verdict)


@dataclass
class PerturbedAdmissibilityReport:
    """Recovered per-atom perturbation sizes alpha_n = max(offset ratio,
    mass ratio) against the admissible cap of the base data."""

    alpha: np.ndarray
    alpha_max: float
    cap: float
    passed: bool
    failing_atoms: np.ndarray


def perturbed_admissibility(original: ClarkData,
                            perturbed: AtomicMeasure) -> PerturbedAdmissibilityReport:
    """Check |t_n - zeta_n| <= sigma_n alpha_n and |lambda_n - sigma_n| <=
    sigma_n alpha_n with alpha recovered as the larger of the two ratios,
    then compare against the cap min{1/(3B), A/(3B^2), 1/2}."""
    base = original.measure
    if base.n_atoms != perturbed.n_atoms:
        raise SupportMismatch(
            f"atom counts differ: {base.n_atoms} vs {perturbed.n_atoms}")
    n = base.n_atoms
    # pair each perturbed atom with the nearer of the base atoms on either
    # side of it; the pairing must be a bijection that preserves the
    # circular order
    ext = np.concatenate([base.thetas - TWO_PI, base.thetas, base.thetas + TWO_PI])
    pos = np.searchsorted(ext, perturbed.thetas)
    cands = np.stack([pos - 1, pos]) % (3 * n)
    side = np.argmin(chord_angles(perturbed.thetas, ext[cands]), axis=0)
    partner = cands[side, np.arange(n)] % n
    if np.any(np.diff(np.sort(partner)) == 0):  # not np.unique (see bessonov_check)
        raise SupportMismatch("perturbed atoms do not pair bijectively "
                              "with the base atoms")
    shifts = np.mod(np.diff(partner), n)
    if n > 1 and np.any(shifts != 1):
        raise SupportMismatch("interleaving order not preserved")
    offs = chord_angles(perturbed.thetas, base.thetas[partner])
    sig = base.masses[partner]
    mass_dev = np.abs(perturbed.masses - sig)
    alpha = np.maximum(offs / sig, mass_dev / sig)
    cap = admissible_alpha_bound(original.A, original.B)
    failing = np.nonzero(alpha > cap)[0]
    return PerturbedAdmissibilityReport(
        alpha=alpha, alpha_max=float(alpha.max(initial=0.0)), cap=cap,
        passed=failing.size == 0, failing_atoms=failing)
