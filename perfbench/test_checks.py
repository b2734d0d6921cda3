"""The benchmark's own tests: every output check accepts the program's real
output and rejects it once corrupted, and the tracer's two checked
properties hold on real calls and fail on a broken count.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from frobcirc.cli import main  # noqa: E402
from tracer import Frame, Tracer  # noqa: E402

TL5_N, TL5_S = workloads.tl_set(5)
VERIFY_TL5 = ["verify", str(TL5_N), ",".join(map(str, TL5_S))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv, out=out)
    return rc, out.getvalue(), err.getvalue()


def replaced(result, old, new):
    rc, out, err = result
    assert old in out, (old, out)
    return rc, out.replace(old, new, 1), err


ROUND = [
    ["classify", "6253", "--format", "json"],
    ["classify", "6253", "--format", "table"],
    ["classify", "6253", "--format", "csv"],
    ["classify", "1729", "--format", "json"],
    ["classify", "2999", "--format", "table"],
    ["gamma", "3", "4", "0"],
    ["gamma", "3", "4", "1"],
    ["gamma", "5", "3", "2"],
    ["harts", "5"],
    VERIFY_TL5,
]


@pytest.fixture(scope="module")
def outputs():
    return {tuple(argv): run(argv) for argv in ROUND}


def test_real_outputs_pass(outputs):
    assert checks.check_round(ROUND, [outputs[tuple(a)] for a in ROUND]) == []


def test_connection_set_element_changed(outputs):
    rc, out, err = outputs[("classify", "1729", "--format", "json")]
    records = json.loads(out)
    rec = records[-1]
    rec["connection_set"][1] = (rec["connection_set"][1] + 1) % 1729
    problems = checks.check_classify(
        ["classify", "1729", "--format", "json"], (rc, json.dumps(records), err)
    )
    assert any("connection set != <h>" in p for p in problems)


def test_record_count_off_by_one(outputs):
    argv = ["classify", "6253", "--format", "json"]
    rc, out, err = outputs[tuple(argv)]
    records = json.loads(out)
    fewer = checks.check_classify(argv, (rc, json.dumps(records[:-1]), err))
    more = checks.check_classify(argv, (rc, json.dumps(records + records[-1:]), err))
    assert any("records, want phi(d)^(l-1)" in p for p in fewer)
    assert any("records, want phi(d)^(l-1)" in p for p in more)


def test_table_differs_from_json(outputs):
    argvs = [["classify", "6253", "--format", "json"], ["classify", "6253", "--format", "table"]]
    results = [outputs[tuple(a)] for a in argvs]
    results[1] = replaced(results[1], "3122", "3121")
    assert any("table output differs" in p for p in checks.check_formats_agree(argvs, results))


@pytest.mark.parametrize(
    "argv, old, new",
    [
        (["gamma", "3", "4", "1"], "F IS a vertex-cut; witness: vertex 4 unreachable from 0 in Gamma - F",
         "F is NOT a vertex-cut; gossip bound 3"),
        (["gamma", "3", "4", "0"], "F is NOT a vertex-cut; gossip bound 2",
         "F IS a vertex-cut; witness: vertex 4 unreachable from 0 in Gamma - F"),
    ],
)
def test_flipped_vertex_cut_verdict(outputs, argv, old, new):
    problems = checks.check_gamma(argv, replaced(outputs[tuple(argv)], old, new))
    assert any("verdict contradicts the theorem" in p for p in problems)


@pytest.mark.parametrize("old, new", [("mesh diameter: 4", "mesh diameter: 5"),
                                      ("diameter 4\n", "diameter 3\n")])
def test_diameter_off_by_one(outputs, old, new):
    problems = checks.check_harts(["harts", "5"], replaced(outputs[("harts", "5")], old, new))
    assert any("has diameter j = 4" in p for p in problems)


def test_rotation_missing(outputs):
    rc, out, err = outputs[tuple(VERIFY_TL5)]
    line = next(x for x in out.splitlines() if x.startswith("complete rotations: "))
    first = line[len("complete rotations: ") :].strip("[]").split(", ")[0]
    broken = replaced((rc, out, err), line, f"complete rotations: [{first}]")
    problems = checks.check_verify(VERIFY_TL5, broken)
    assert any("elements of order 6" in p for p in problems)


def test_workloads_are_seeded():
    for name in workloads.NAMES:
        assert workloads.make_round(name, 7) == workloads.make_round(name, 7)
    assert workloads.make_round("classify-sweep", 7) != workloads.make_round("classify-sweep", 8)


def test_tracer_counts_and_properties():
    tracer = Tracer()
    tracer.install()
    try:
        for argv in (["classify", "91", "--format", "json"], ["gamma", "3", "4", "1"], ["harts", "4"]):
            assert run(argv)[0] == 0
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    bfs_at = sum(v for k, v in snap.items() if k.endswith(".bfs_calls"))
    assert snap["kernels.bfs_distances.calls"] == bfs_at > 0
    assert snap["kernels.bfs_distances.vertices_settled"] > 0
    assert snap["circulant.is_vertex_cut.calls"] > 0
    # uninstall restored the plain functions
    assert not hasattr(sys.modules["frobcirc.circulant"].Circulant.is_connected, "__wrapped__")


def test_tracer_flags_broken_bfs_properties():
    import frobcirc._kernels as kernels
    import numpy as np

    tracer = Tracer()
    tracer.install()
    try:
        kernels.bfs_distances(5, np.array([1, 4]), 0, np.zeros(5, np.bool_))  # outside any span
        disconnected = sys.modules["frobcirc.circulant"].Circulant(9, (3, 6))
        frame = Frame("circulant.is_connected")
        frame.bfs.append(9)  # a BFS that claims to settle all of Z_9 although gcd = 3
        tracer._after_is_connected(frame, (disconnected,), True)
        tracer.snapshot()
    finally:
        tracer.uninstall()
    assert any("outside any circulant span" in p for p in tracer.problems)
    assert any("gcd(n, S) = 3" in p for p in tracer.problems)
    assert any("circulant spans counted" in p for p in tracer.problems)
