"""Spans around calls into clarklab's layers, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper wherever
a clarklab module holds it (``from .circle import neighbor_constants``
binds the name in the importing module too), and each traced method on
its class.  Modules resolve those names at call time, so calls between
and within modules pass through the wrappers.  A span is
[name, start, end, parent, items]; spans stay in memory and are written
out when the run ends; they live in flat arrays, so that recording them
adds no objects for the garbage collector to traverse.  A direct
recursive call (``to_jsonable``) stays inside its outer span.

A layer's self time is the duration of its spans minus the time their
child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("inner", "clark", "circle", "families", "potentials", "cauchy",
          "verify", "perturb", "serialize", "cli")


def _atoms_found(out, args, kwargs):
    return len(out[0]) if isinstance(out, tuple) else len(out)


def _pairs(out, args, kwargs):
    n = args[0].n_atoms
    return n * (n - 1)


def _iterations(out, args, kwargs):
    return int(sum(out.iterations))


#: span name -> (module, attribute, item counter or None)
TARGETS = {
    "inner.evaluate": ("inner", "evaluate", None),
    "inner.angular_derivative": ("inner", "angular_derivative", None),
    "inner.boundary_phase": ("inner", "boundary_phase", None),
    "clark.find_atoms": ("clark", "find_atoms", _atoms_found),
    "clark.clark_data": ("clark", "clark_data", None),
    "circle.neighbor_constants": ("circle", "neighbor_constants", None),
    "circle.measure_build": ("circle", "AtomicMeasure.__init__", None),
    "families.clark_data_for": ("families", "clark_data_for", None),
    "families.exp_clark_data": ("families", "exp_clark_data", None),
    "families.divergence_ladder": ("families", "divergence_ladder", None),
    "potentials.potential": ("potentials", "potential", None),
    "potentials.potential_grid": ("potentials", "potential_grid", None),
    "potentials.atom_potential_sup": ("potentials", "atom_potential_sup", _pairs),
    "potentials.sup_inf_scan": ("potentials", "sup_inf_scan", None),
    "potentials.mass_ratio_check": ("potentials", "mass_ratio_check", None),
    "cauchy.operator_norm": ("cauchy", "operator_norm", _iterations),
    "cauchy.nested_sections": ("cauchy", "nested_sections", None),
    "cauchy.tolsa_scan": ("cauchy", "tolsa_scan", None),
    "cauchy.section_matrix": ("cauchy", "CauchySection.matrix", None),
    "cauchy.cauchy_one_all": ("cauchy", "CauchySection.cauchy_one_all", None),
    "cauchy.apply": ("cauchy", "CauchySection.apply", None),
    "cauchy.hilbert_route": ("cauchy", "hilbert_route", None),
    "verify.bessonov_check": ("verify", "bessonov_check", None),
    "verify.perturbed_admissibility": ("verify", "perturbed_admissibility", None),
    "perturb.generate": ("perturb", "generate", None),
    "perturb.interaction_sup": ("perturb", "interaction_sup", None),
    "perturb.squared_measure": ("perturb", "squared_measure", None),
    "serialize.to_jsonable": ("serialize", "to_jsonable", None),
    "serialize.clark_to_dict": ("serialize", "clark_to_dict", None),
    "serialize.measure_to_dict": ("serialize", "measure_to_dict", None),
    "serialize.measure_from_dict": ("serialize", "measure_from_dict", None),
    "serialize.load_json": ("serialize", "load_json", None),
    "cli.main": ("cli", "main", None),
}


class Tracer:
    """Span i is (names[i], start[i], end[i], parent[i], items[i])."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.items = array("q")
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.end.append(0.0)
        self.items.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        names, stack = self.names, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (stack and names[stack[-1]] == name):
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                self.items[i] = count(out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("clarklab")
        mods = {m: importlib.import_module(f"clarklab.{m}") for m in LAYERS}
        holders = [pkg, *mods.values()]
        for name, (mod, attr, count) in TARGETS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mods[mod], cls_name)
                orig = owner.__dict__[meth]
                self._saved.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(name, orig, count))
                continue
            orig = getattr(mods[mod], attr)
            wrapper = self._wrap(name, orig, count)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._saved.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    @contextlib.contextmanager
    def recording(self, root: str | None = None):
        """Record spans while the block runs, under a root span if named."""
        self.active = True
        try:
            if root is None:
                yield
            else:
                i = self._open(root)
                try:
                    yield
                finally:
                    self._close(i)
        finally:
            self.active = False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "items"],
                       "spans": [list(s) for s in zip(self.names, self.start, self.end,
                                                      self.parent, self.items)]}, fh)


def summarize(tracer: Tracer, first: int = 0, last: int | None = None) -> dict:
    """Per span name: calls, summed self seconds, summed items, over spans
    first..last-1 (one traced round)."""
    last = len(tracer) if last is None else last
    child = defaultdict(float)
    for i in range(first, last):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += tracer.end[i] - tracer.start[i]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "items": 0})
    for i in range(first, last):
        agg = out[tracer.names[i]]
        agg["calls"] += 1
        agg["self_s"] += tracer.end[i] - tracer.start[i] - child[i]
        agg["items"] += tracer.items[i]
    return dict(out)
