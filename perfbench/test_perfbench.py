"""Tests of the benchmark's own output checks, tracer and metric table.

Run with: python -m pytest perfbench
"""

import hashlib
import json
import types
from pathlib import Path

import bench_checks
import bench_trace
import run

CERTIFY_OUT = """\
g24verify 0.1.0 (GF(16): x^4 + x + 1)
field-tables         ... OK
srg                  ... OK
verdict              ... OK
352 points of affine dimension 64 need at least 71 parts of smaller diameter; 71 > 65
overall: PASS
"""

REJECT_OUT = """\
g24verify 0.1.0 (GF(16): x^4 + x + 1)
graph                ... OK
srg                  ... FAIL
    vertex 3 has degree 101, vertex 0 has 100
    witness: (3, 101)
overall: FAIL
"""


def test_certify_accepts_the_verdict():
    assert bench_checks.check_certify(0, CERTIFY_OUT) == ""


def test_certify_accepts_output_without_stage_lines():
    lines = [l for l in CERTIFY_OUT.splitlines() if "..." not in l]
    assert bench_checks.check_certify(0, "\n".join(lines) + "\n") == ""


def test_certify_rejects_a_wrong_verdict_line():
    for right, wrong in (
        ("at least 71 parts", "at least 70 parts"),
        ("affine dimension 64", "affine dimension 63"),
        ("352 points", "351 points"),
    ):
        out = CERTIFY_OUT.replace(right, wrong)
        assert bench_checks.check_certify(0, out), wrong


def test_certify_rejects_missing_verdict_fail_and_bad_exit():
    no_verdict = "\n".join(l for l in CERTIFY_OUT.splitlines() if "points" not in l)
    assert bench_checks.check_certify(0, no_verdict)
    assert bench_checks.check_certify(0, CERTIFY_OUT.replace("PASS", "FAIL"))
    assert bench_checks.check_certify(1, CERTIFY_OUT)
    assert bench_checks.check_certify(2, CERTIFY_OUT)


def test_reject_accepts_a_refusal_with_witness():
    assert bench_checks.check_reject(1, REJECT_OUT) == ""


def test_reject_rejects_exit_0():
    assert bench_checks.check_reject(0, REJECT_OUT)
    assert bench_checks.check_reject(0, CERTIFY_OUT)


def test_reject_rejects_inconclusive_missing_witness_or_a_verdict():
    assert bench_checks.check_reject(2, REJECT_OUT)
    no_witness = "\n".join(l for l in REJECT_OUT.splitlines() if "witness" not in l)
    assert bench_checks.check_reject(1, no_witness)
    with_verdict = REJECT_OUT.replace(
        "overall: FAIL",
        "352 points of affine dimension 64 need at least 71 parts of smaller "
        "diameter; 71 > 65\noverall: FAIL",
    )
    assert bench_checks.check_reject(1, with_verdict)


def test_export_rejects_a_one_byte_change():
    data = b"1,4,0,1\n2,0,4,1\n" * 1000
    pinned = hashlib.sha256(data).hexdigest()
    assert bench_checks.check_export(0, data, pinned) == ""
    for pos in (0, len(data) // 2, len(data) - 1):
        changed = bytearray(data)
        changed[pos] ^= 1
        assert bench_checks.check_export(0, bytes(changed), pinned), pos
    assert bench_checks.check_export(0, data[:-1], pinned)


def test_export_rejects_missing_file_and_bad_exit():
    data = b"1,4\n"
    pinned = hashlib.sha256(data).hexdigest()
    assert bench_checks.check_export(0, None, pinned)
    assert bench_checks.check_export(1, data, pinned)
    assert bench_checks.check_export(0, data)  # not the pinned vectors file


def _fake_package():
    """Two modules named after the layers the tracer treats specially:
    `pipeline.run_check` (its result is kept) calls `euclid.rank_mod_prime`
    (its rows are counted), bound there with ``from .euclid import ...``."""
    euclid = types.ModuleType("fake.euclid")

    def leaf(x):
        return x + 1

    def rank_mod_prime(rows, prime):
        return sum(leaf(r) for r in rows) % prime

    def _private():
        return 0

    for fn in (leaf, rank_mod_prime, _private):
        fn.__module__ = euclid.__name__
        setattr(euclid, fn.__name__, fn)

    pipeline = types.ModuleType("fake.pipeline")
    pipeline.rank_mod_prime = euclid.rank_mod_prime

    def run_check(rows):
        return pipeline.rank_mod_prime(rows, 101) * 2

    run_check.__module__ = pipeline.__name__
    pipeline.run_check = run_check
    return euclid, pipeline


def test_tracer_records_nested_spans_and_restores():
    euclid, pipeline = _fake_package()
    original = euclid.rank_mod_prime
    tracer = bench_trace.Tracer({"euclid": euclid, "pipeline": pipeline},
                                exclude={"euclid.leaf"})
    tracer.install()
    try:
        assert pipeline.run_check([1, 2, 3]) == 18
    finally:
        tracer.uninstall()
    assert sorted(tracer.names) == ["euclid.rank_mod_prime", "pipeline.run_check"]
    assert euclid.rank_mod_prime is original and pipeline.rank_mod_prime is original
    names = [(s[2], s[1]) for s in tracer.spans]
    assert names == [("pipeline.run_check", 0), ("euclid.rank_mod_prime", 1)]
    assert tracer.root_result == 18
    agg = bench_trace.aggregate(tracer.spans)
    assert agg["euclid.rank_mod_prime"]["calls"] == 1
    assert agg["euclid.rank_mod_prime"]["rows"] == 3
    assert "euclid.leaf" not in agg and "euclid._private" not in agg


def test_self_time_is_span_minus_children():
    spans = [
        [1, 0, "a", 0.0, 10.0, None],
        [2, 1, "b", 1.0, 4.0, None],
        [3, 2, "c", 2.0, 3.0, None],
        [4, 1, "b", 5.0, 7.0, None],
    ]
    agg = bench_trace.aggregate(spans)
    assert agg["a"]["self_s"] == 5.0
    assert agg["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0, "rows": 0}
    assert agg["c"]["self_s"] == 1.0
    assert bench_trace.coverage(spans, "a") == 0.5
    assert bench_trace.coverage(spans, "missing") is None


def test_every_declared_metric_has_a_rule():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.end_to_end([]))
    view = run.LayerView([])
    for m in spec["per_layer"]:
        view.value(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_missing_function_is_reported_absent():
    view = run.LayerView([])
    assert view.value("graph.no_such_function.self_s") == 0
    assert view.value("src.no_such_module.lines") == 0
    assert view.absent[-2:] == ["graph.no_such_function", "src.no_such_module.lines"]


def _traced_view(**record):
    """A LayerView over one traced invocation with the given record fields."""
    record = {"traced": [], "spans": [], "setup_numpy_s": 0.0, "setup_g24verify_s": 0.0,
              "main_s": 1.0, **record}
    inv = run.Invocation(argv=["check"], traced=True, code=0, wall_s=1.0, cpu_s=1.0,
                         peak_rss_mb=1.0, record=record)
    return run.LayerView([inv])


CLIQUE_STAGE = {"name": "max-clique", "status": "ok", "elapsed_s": 1.5,
                "detail": {"search_nodes": 124653, "edges_scanned": 20800}}


def test_stage_metrics_read_the_report():
    view = _traced_view(overall="pass", stages=[CLIQUE_STAGE])
    assert view.value("cliques.search_nodes") == 124653
    assert view.value("pipeline.stage.max-clique_s") == 1.5
    assert "cliques.search_nodes" not in view.absent


def test_missing_report_stage_or_detail_is_reported_absent():
    no_report = _traced_view(overall=None, stages=None)
    assert "cliques.search_nodes" in no_report.absent
    no_report.value("pipeline.stage.max-clique_s")
    assert "pipeline.stage.max-clique_s" in no_report.absent

    no_stage = _traced_view(overall="pass", stages=[])
    assert "cliques.edges_scanned" in no_stage.absent
    no_stage.value("pipeline.stage.verdict_s")
    assert "pipeline.stage.verdict_s" in no_stage.absent

    renamed = dict(CLIQUE_STAGE, detail={"nodes": 124653, "edges_scanned": 20800})
    no_key = _traced_view(overall="pass", stages=[renamed])
    assert "cliques.search_nodes" in no_key.absent
    assert "cliques.edges_scanned" not in no_key.absent


def test_stage_skipped_or_not_reached_counts_zero():
    skipped = dict(CLIQUE_STAGE, status="skipped", elapsed_s=0.0, detail={})
    view = _traced_view(overall="pass", stages=[skipped])
    assert view.value("cliques.search_nodes") == 0
    stopped = _traced_view(overall="fail", stages=[])  # failed before max-clique
    assert stopped.value("cliques.search_nodes") == 0
    assert stopped.value("pipeline.stage.max-clique_s") == 0
    for v in (view, stopped):
        assert not {"cliques.search_nodes", "pipeline.stage.max-clique_s"} & set(v.absent)


def test_numpy_share_is_read_from_importtime_output():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   _io\n"
        "import time:      2000 |     150000 |     numpy\n"
        "import time:       500 |     152000 |   g24verify.euclid\n"
        "some other stderr line\n"
    )
    assert run.numpy_import_s(stderr) == 0.15
    assert run.numpy_import_s("import time:     5 |     5 | json\n") == 0.0


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail([float(v) for v in range(1, 101)])
    assert (pct, value) == (90, 90.0)
