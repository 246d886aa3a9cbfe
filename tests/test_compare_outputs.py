"""tools/compare_outputs.py compares the reports of two checkouts."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_finds_a_checkout_equal_to_itself():
    summary = _tool().compare(ROOT, ROOT, ["atoms --family monomial:2",
                                           "bessonov --measure list.json"])
    assert summary["commands"] == summary["equal"] == 2
    assert [r["exit_change"] for r in summary["results"]] == [0, 2]


def test_compare_outputs_reports_a_mismatch():
    tool = _tool()
    a = {"exit": 0, "outputs": tool.canonical({"x": 1.0, "y": float("nan")}), "stderr": ""}
    b = dict(a, outputs=tool.canonical({"x": 1.0000000000000002, "y": float("nan")}))
    assert tool.differences(a, dict(a)) == []
    assert tool.differences(a, b) == ["outputs"]
    assert tool.differences(a, dict(b, exit=2)) == ["exit", "outputs"]
    assert tool.number_differences(a["outputs"], b["outputs"]) == [
        {"path": "outputs.x", "parent": 1.0, "change": 1.0000000000000002,
         "rel": 2.220446049250313e-16}]
