"""JSON interchange formats and CSV emission.

Measures travel as {"atoms": [{"theta": t, "mass": m}, ...]} with angles
in radians; they are re-sorted and re-validated on load.  Clark data
extends the measure document.  CSV output uses a header row, '.' decimal
point, and scientific notation for |x| < 1e-4.
"""
from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .circle import AtomicMeasure
from .clark import ClarkData


def measure_to_dict(m: AtomicMeasure) -> dict:
    # memoryviews yield Python floats one at a time; building both lists
    # first with .tolist() raised the peak RSS of large reports
    return {"atoms": [{"theta": t, "mass": mass}
                      for t, mass in zip(memoryview(m.thetas), memoryview(m.masses))]}


def is_number_array(v) -> bool:
    """Whether v is a JSON array of numbers (a bool is not a number)."""
    return type(v) is list and all(type(x) in (int, float) for x in v)


def measure_from_dict(d) -> AtomicMeasure:
    """The measure of a document {"atoms": [{"theta": t, "mass": m}, ...]}
    with numbers t and m; any other document raises ValueError."""
    atoms = d.get("atoms") if type(d) is dict else None
    if type(atoms) is list and all(type(a) is dict for a in atoms):
        thetas, masses = [a.get("theta") for a in atoms], [a.get("mass") for a in atoms]
        if is_number_array(thetas) and is_number_array(masses):
            return AtomicMeasure(thetas, masses)
    raise ValueError('measure document: {"atoms": [{"theta": number, "mass": number}, ...]}')


def clark_to_dict(data: ClarkData) -> dict:
    out = measure_to_dict(data.measure)
    out["alpha"] = float(data.alpha)
    out["derivatives"] = data.derivatives.tolist()
    out["A"] = float(data.A)
    out["B"] = float(data.B)
    out["witness_A"] = int(data.witness_A)
    out["witness_B"] = int(data.witness_B)
    out["edge_uncertain"] = data.edge_uncertain.tolist()
    if data.lattice_indices is not None:
        out["lattice_indices"] = data.lattice_indices.tolist()
    return out


#: Types that json.dump writes as they are.
_NATIVE = frozenset((str, int, float, bool, type(None)))


def _plain(items: list) -> bool:
    """True when every item is a native scalar, or every item a dict of
    native scalars (measure_to_dict's atoms): nothing to convert."""
    return (_NATIVE.issuperset(map(type, items))
            or all(type(d) is dict and _NATIVE.issuperset(map(type, d.values()))
                   for d in items))


def to_jsonable(obj):
    """Recursively convert dataclasses / numpy objects for json.dump."""
    if type(obj) in _NATIVE:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if type(obj) is list and _plain(obj):
            return obj
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # real arrays list native scalars; complex and object ones need a pass
        return obj.tolist() if obj.dtype.kind in "biuf" else to_jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def load_json(path):
    return json.loads(Path(path).read_text())


#: Longest list write_json encodes in one call; longer ones go slice by slice.
JSON_SLICE = 1024

_encode = json.JSONEncoder(separators=(",", ":")).encode


def write_json(obj, fp) -> None:
    """Write obj to fp as compact JSON, parsing to what json.dump writes.

    Dicts are walked key by key and lists longer than JSON_SLICE are
    written JSON_SLICE items at a time, every piece through the C encoder
    (an indent sends json.dump to the pure-Python one), so no piece is
    much larger than a slice.  A key is encoded in a one-entry dict, so
    it is converted exactly as json.dump converts it; NaN and infinities
    are written as NaN and Infinity, as json.dump writes them."""
    if type(obj) is dict:
        fp.write("{")
        for i, (k, v) in enumerate(obj.items()):
            fp.write(("," if i else "") + _encode({k: 0})[1:-2])
            write_json(v, fp)
        fp.write("}")
    elif type(obj) is list and len(obj) > JSON_SLICE:
        fp.write("[")
        for s in range(0, len(obj), JSON_SLICE):
            fp.write(("," if s else "") + _encode(obj[s:s + JSON_SLICE])[1:-1])
        fp.write("]")
    else:
        fp.write(_encode(obj))


def csv_number(x) -> str:
    """'.'-decimal formatting; scientific notation below 1e-4."""
    x = float(x)
    if x != 0.0 and abs(x) < 1e-4:
        return f"{x:.12e}"
    return repr(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_number(v) if isinstance(v, (int, float, np.floating))
                              and not isinstance(v, bool) else str(v)
                              for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
