"""The tracer reaches calls made inside clarklab, accounts for the whole
root span by self times, and restores every wrapped name.

    python3 -m pytest perfbench/test_spans.py
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import clarklab  # noqa: E402
from clarklab import cli, clark, inner, serialize  # noqa: E402

import spans  # noqa: E402


def test_spans_cover_the_job_and_uninstall_restores(tmp_path):
    originals = (cli.main, clark.angular_derivative, inner.angular_derivative,
                 clarklab.angular_derivative, serialize.to_jsonable,
                 clarklab.AtomicMeasure.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.recording():
            rc = cli.main(["atoms", "--family", "counterexample:1.0:32",
                           "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (cli.main, clark.angular_derivative, inner.angular_derivative,
            clarklab.angular_derivative, serialize.to_jsonable,
            clarklab.AtomicMeasure.__init__) == originals

    agg = spans.summarize(tracer)
    # clark_data calls angular_derivative through its own module global,
    # once per located atom
    assert agg["inner.angular_derivative"]["calls"] == agg["clark.find_atoms"]["items"] > 0
    # to_jsonable recurses through its module global, inside one span
    assert agg["serialize.to_jsonable"]["calls"] == 1
    assert tracer.names[0] == "cli.main" and min(tracer.parent[1:]) >= 0
    total_self = sum(a["self_s"] for a in agg.values())
    assert abs(total_self - (tracer.end[0] - tracer.start[0])) < 1e-9


def test_inactive_tracer_records_nothing(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.main(["atoms", "--family", "monomial:4", "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert len(tracer) == 0
