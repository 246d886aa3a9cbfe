"""Oracles that only the tests read: checks of the package's numbers by
a second route, kept out of src/clarklab because no program there, no
demo and no benchmark reaches them.

- ``measure_of_arc``, ``comparability_check`` (with its report and its
  ``EmptyArc`` error) compare the masses Clark measures give to arcs;
- ``poisson`` and ``clark_identity_residual`` check a Clark measure
  against the Clark identity at points of the open disk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clarklab.circle import Arc, AtomicMeasure
from clarklab.clark import ClarkData
from clarklab.errors import ClarkLabError
from clarklab.inner import InnerFunction, evaluate
from clarklab.potentials import potential


class EmptyArc(ClarkLabError):
    """An arc in a comparability family carries no atom of a measure."""


def measure_of_arc(m: AtomicMeasure, arc: Arc) -> float:
    """Mass that the measure puts on the arc."""
    return float(m.masses[arc.mask(m.thetas)].sum())


@dataclass
class ComparabilityReport:
    """Ratios sigma(Q)/sigma_alpha(Q) over an arc family, and
    sigma(Q)/|Q| over the arcs holding at least two sigma-atoms."""

    ratio_min: float
    ratio_max: float
    lebesgue_ratio_min: float | None
    lebesgue_ratio_max: float | None
    n_arcs: int
    n_lebesgue_arcs: int


def comparability_check(data: ClarkData, data_alpha: ClarkData,
                        arcs) -> ComparabilityReport:
    """Compare the masses two Clark measures give to each arc, and compare
    the base measure to arc length where at least two atoms are present."""
    ratios = []
    leb = []
    for q in arcs:
        s0 = measure_of_arc(data.measure, q)
        s1 = measure_of_arc(data_alpha.measure, q)
        if s0 == 0.0 or s1 == 0.0:
            raise EmptyArc("arc carries no atom of one of the measures")
        ratios.append(s0 / s1)
        if int(q.mask(data.measure.thetas).sum()) >= 2:
            leb.append(s0 / q.length)
    ratios = np.asarray(ratios)
    return ComparabilityReport(
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        lebesgue_ratio_min=float(min(leb)) if leb else None,
        lebesgue_ratio_max=float(max(leb)) if leb else None,
        n_arcs=len(ratios),
        n_lebesgue_arcs=len(leb))


def poisson(m: AtomicMeasure, z) -> float:
    """P_m(z) = (1 - |z|^2) V_m(z) for z in the open disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("Poisson integral needs |z| < 1")
    return (1.0 - abs(z) ** 2) * potential(m, z)


def clark_identity_residual(u: InnerFunction, alpha: float, m: AtomicMeasure, z) -> float:
    """| (1-|u(z)|^2)/|e^{2 pi i alpha} - u(z)|^2  -  P_m(z) |.

    Near zero exactly when m is (a good truncation of) the Clark measure
    of u at parameter alpha.  z must lie in the open disk (else
    ValueError, from poisson).
    """
    p = poisson(m, z)
    uz = evaluate(u, z)
    return abs((1.0 - abs(uz) ** 2) / abs(np.exp(2j * np.pi * alpha) - uz) ** 2 - p)
