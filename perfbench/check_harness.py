"""Tests of the benchmark harness itself, on the smoke sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/check_harness.py

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twobridge import enumeration  # noqa: E402

SMOKE = workloads.SIZES["smoke"]


def smoke(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace), "--smoke"])
    return run.run(args)


@pytest.mark.parametrize("workload", ["scan", "catalog", "certify"])
def test_smoke_untraced_reports_every_end_to_end_metric(workload):
    out = smoke(workload, 0)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert out["info"]["samples"]["setup_samples"] == run.SETUP_PROBES


@pytest.mark.parametrize("workload", ["scan", "catalog", "certify"])
def test_smoke_traced_reports_every_per_layer_metric_and_unpatches(workload):
    sites = {
        (mod, attr): getattr(importlib.import_module(f"twobridge.{mod}"), attr)
        for table in (spans.SPANS, spans.COUNTERS)
        for _, home, attr, callers in table
        for mod in (home,) + callers
    }
    out = smoke(workload, 1)
    assert out["result"]["correct"]
    assert out["info"]["unpatched"] == []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = out["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    for (mod, attr), original in sites.items():
        assert getattr(importlib.import_module(f"twobridge.{mod}"), attr) is original, (mod, attr)


def test_layer_map_holds_on_smoke_sizes():
    scan = smoke("scan", 1)["result"]["metrics"]
    catalog = smoke("catalog", 1)["result"]["metrics"]
    assert scan["families.build_family_index.misses"]["value"] == 0
    assert scan["casson_gordon.cg_condition.calls"]["value"] > 0
    assert catalog["casson_gordon.cg_condition.calls"]["value"] == 0
    assert catalog["casson_gordon.self_share"]["value"] == 0
    assert catalog["families.build_family_index.misses"]["value"] == 2


def test_patching_is_undone_when_the_traced_code_raises():
    original = enumeration.cg_condition
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            assert enumeration.cg_condition is not original
            raise RuntimeError("boom")
    assert enumeration.cg_condition is original


def test_tracer_self_and_busy_time():
    tracer = spans.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.span(leaf, "leaf")

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.span(outer, "outer")
    assert traced_outer() == 2
    stats = tracer.stats()
    assert stats["outer"]["calls"] == 1 and stats["leaf"]["calls"] == 2
    outer_span = next(tracer.spans_named("outer"))
    whole = tracer.end[outer_span] - tracer.start[outer_span]
    assert stats["outer"]["busy_s"] == pytest.approx(whole)
    assert stats["outer"]["self_s"] == pytest.approx(whole - stats["leaf"]["busy_s"])
    assert tracer.child_names("outer") == {"leaf": 2}


def smoke_inputs(workload: str):
    make_inputs = workloads.WORKLOADS[workload][0]
    return make_inputs(7, SMOKE[workload])


def test_scan_gate_rejects_corrupted_output():
    inputs = smoke_inputs("scan")
    records = enumeration.conjecture_scan(inputs["p_min"], inputs["p_max"])
    assert workloads.check_scan(records, inputs) == []
    changed = list(records)
    changed[3] = dataclasses.replace(changed[3], q_tested=changed[3].q_tested + 1)
    assert workloads.check_scan(changed, inputs)
    changed = list(records)
    changed[-1] = dataclasses.replace(changed[-1], non_family=changed[-1].cg_passing[:1])
    assert len(workloads.check_scan(changed, inputs)) == 2
    assert workloads.check_scan(records[:-1], inputs)


def test_catalog_gate_rejects_corrupted_output():
    inputs = smoke_inputs("catalog")
    classes = enumeration.enumerate_classes(inputs["classes"])
    rows = enumeration.ribbon_table(inputs["table"])
    xrows = enumeration.amphicheiral_crosscheck(inputs["crosscheck"])
    assert workloads.check_catalog(classes, rows, xrows, inputs) == []
    assert workloads.check_catalog(set(list(classes)[1:]), rows, xrows, inputs)
    bad_rows = rows[:-1] + [dataclasses.replace(rows[-1], total=rows[-1].total + 1)]
    assert workloads.check_catalog(classes, bad_rows, xrows, inputs)
    bad_x = [dataclasses.replace(xrows[0], equal=False)] + xrows[1:]
    assert workloads.check_catalog(classes, rows, bad_x, inputs)


def test_ernst_sumners_counts():
    assert [workloads.ernst_sumners(c) for c in range(3, 11)] == [1, 1, 2, 3, 7, 12, 24, 45]


def certify_answers(inputs) -> dict:
    from twobridge import cli
    import contextlib
    import io

    answers = {}
    for k, cmd in inputs["queries"]:
        _, p, q = inputs["knots"][k]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.execute([cmd, str(p), str(q), "--format", "json"])
        answers[(k, cmd)] = (rc, out.getvalue())
    return answers


def test_certify_gate_rejects_corrupted_output():
    inputs = smoke_inputs("certify")
    knots = inputs["knots"]
    answers = certify_answers(inputs)
    assert workloads.check_certify(knots, answers) == set()
    member = next(k for k, knot in enumerate(knots) if knot[0] == "member")

    def corrupt(cmd, edit):
        changed = dict(answers)
        rc, out = changed[(member, cmd)]
        obj = json.loads(out)
        edit(obj)
        changed[(member, cmd)] = (rc, json.dumps(obj))
        return workloads.check_certify(knots, changed)

    assert (member, "sigma") in corrupt("sigma", lambda o: o["terms"][0].update(sigma=3))
    assert (member, "member") in corrupt("member", lambda o: o.update(member=False))
    assert (member, "partial") in corrupt("partial", lambda o: o.update(determinant=o["determinant"] + 2))
    assert (member, "cg-check") in corrupt("cg-check", lambda o: o.update(passes=False))
    failed_exit = dict(answers)
    failed_exit[(member, "member")] = (2, "")
    assert (member, "member") in workloads.check_certify(knots, failed_exit)


def test_certify_inputs_follow_the_seed():
    size = SMOKE["certify"]
    assert workloads.certify_inputs(3, size) == workloads.certify_inputs(3, size)
    assert workloads.certify_inputs(3, size) != workloads.certify_inputs(4, size)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([5.0], 99) == 5.0


def test_speedometer_leaves_out_probes_and_scales_between_them():
    meter = run.Speedometer()
    # probes (start, end, speed, CPU seconds) at 0-1 s, 3-4 s and 6-7 s
    meter.marks = [(0.0, 1.0, 0.5, 1.0), (3.0, 4.0, 1.5, 1.0), (6.0, 7.0, 1.0, 1.0)]
    assert meter.between(0.0, 7.0) == (4.0, 2 * 1.0 + 2 * 1.25)
    assert meter.between(1.5, 2.5) == (1.0, 1.0)
    assert meter.probe_cpu() == 1.0
    assert run.reference_loop() == run.REFERENCE_LOOP_RESULT
    assert 0 < run.machine_speed() < 10


def test_a_repetition_that_raises_counts_as_a_failed_operation():
    def broken(inputs):
        raise RuntimeError("boom")

    def never_called(inputs, output):
        raise AssertionError("a repetition that raised has no output to judge")

    def bad_output(inputs, output):
        raise KeyError("passes")

    timed = run.timed(broken, never_called, {})
    assert (timed.rep.ops, timed.rep.failed) == (1, 1)
    assert timed.rep.notes == ["RuntimeError: boom"]
    timed = run.timed(lambda inputs: None, bad_output, {})
    assert (timed.rep.ops, timed.rep.failed) == (1, 1)
