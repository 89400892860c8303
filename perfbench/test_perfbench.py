"""Tests of the benchmark itself (not of xpforge).

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from xpforge import groups  # noqa: E402
from xpforge.catalog import CatalogEntry, catalog_entry  # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def _spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_time_of_nested_and_repeated_spans():
    # outer [0, 10] holds enumerate [1, 4] and a second build [5, 9] whose
    # enumerate [6, 8] is nested one level deeper
    rec = spans.Recorder(clock=_fake_clock([0, 1, 4, 5, 6, 8, 9, 10]))
    outer = rec.open("groups.group_from_presentation")
    rec.close(rec.open("coset.enumerate_cosets"))
    build = rec.open("groups.PermGroup.__init__")
    rec.close(rec.open("coset.enumerate_cosets"))
    rec.close(build)
    rec.close(outer)

    assert rec.parents == [-1, 0, 0, 2]
    assert rec.self_times() == [10 - 3 - 4, 3, 4 - 2, 2]
    m = spans.layer_metrics(rec)
    assert m["coset.enumerate_s"] == 5
    assert m["coset.enumerate_calls"] == 2
    assert m["coset.self_s"] == 5
    assert m["groups.self_s"] == 3 + 2
    assert m["groups.regrep_s"] == 2
    assert m["homology.self_s"] is None  # never entered: absent, not zero
    assert m["harness.suite_s.schur"] is None


def test_stage_time_counts_outermost_spans_once():
    rec = spans.Recorder(clock=_fake_clock([0, 1, 2, 3, 5, 6]))
    outer = rec.open("tensor.build_tensor_square")
    inner = rec.open("tensor.TensorSquare.h2_invariants")
    rec.close(rec.open("coset.enumerate_cosets"))
    rec.close(inner)
    rec.close(outer)
    assert rec.stage_time(spans.STAGES["tensor_s"]) == 6
    assert rec.stage_time(spans.STAGES["nu_s"]) is None


def test_install_wraps_imported_names_and_counts():
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        G = groups.group_from_presentation(catalog_entry("C2xC2").presentation())
    finally:
        uninstall()
    assert not hasattr(groups.enumerate_cosets, "__wrapped__")
    i = rec.names.index("coset.enumerate_cosets")
    assert rec.names[rec.parents[i]] == "groups.group_from_presentation"
    m = spans.layer_metrics(rec)
    assert m["coset.cosets_final"] == G.order == 4
    assert m["coset.cells_defined"] == m["coset.cosets_defined"] * 2 * 2


def test_wrong_expected_h2_gives_failures():
    entry = CatalogEntry("C2xC2", 2, catalog_entry("C2xC2").presentation_text, 4, ())
    G = groups.group_from_presentation(entry.presentation())
    for workload in ("tensor-wide", "doubled-narrow"):
        outcome = jobs.run_pass(workload, [entry], [G], seed=1, scratch_dir=HERE)
        assert outcome.failed == outcome.attempted > 0
        passes = [{"wall_s": 1, "cpu_s": 1, "peak_rss_mb": 1, "attempted": outcome.attempted,
                   "problems": outcome.problems}]
        assert run.end_to_end(passes, 1.0)["ok_ratio"] < 1  # fail_ratio > 0


def test_raising_job_fails_and_the_pass_goes_on():
    def boom():
        raise ZeroDivisionError("x")

    entry = catalog_entry("C2")
    G = groups.group_from_presentation(entry.presentation())
    outcome = jobs.run_jobs([("boom", boom), ("T(C2)", jobs.tensor_job(entry, G))])
    assert outcome.attempted == 2
    assert outcome.problems == ["boom: raised ZeroDivisionError: x"]


def test_host_speed_scaling():
    # loops of 2 and 4 ms on a host whose reference loop takes REF_LOOP_S
    assert hostspeed.factor([0.002, 0.004, 0.003]) == hostspeed.REF_LOOP_S / 0.003
    assert run.setup_seconds([0.5, 0.7, 0.6], [0.0006]) == 0.6 * hostspeed.REF_LOOP_S / 0.0006


def test_reference_seconds_scales_each_stretch_by_its_window():
    ref = hostspeed.REF_LOOP_S
    # one tick: the whole span at that tick's speed
    assert hostspeed.reference_seconds([(1.0, 2 * ref)], 0.0, 3.0) == 1.5
    # stretches end at each tick and at t1; a window wider than the
    # ticks takes the median of all of them
    ticks = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref)]
    assert hostspeed.reference_seconds(ticks, 0.0, 4.0) == 4.0 / 2
    narrow = hostspeed.WINDOW
    try:
        hostspeed.WINDOW = 1
        assert hostspeed.reference_seconds(ticks, 0.0, 4.0) == 1 + 1 / 2 + 1 / 4 + 1 / 4
    finally:
        hostspeed.WINDOW = narrow


def test_calibrator_clock_excludes_its_loops():
    cal = hostspeed.Calibrator(clock=_fake_clock([10, 11, 13, 14]))
    assert cal.clock() == 10
    cal.sample()  # one loop from 11 to 13
    assert cal.ticks == [(11, 2)] and cal.spent == 2
    assert cal.clock() == 14 - 2
    assert cal.reference_seconds(10, 12) == 2 * hostspeed.REF_LOOP_S / 2


def test_calibrator_samples_while_code_runs():
    cal = hostspeed.Calibrator(period=0.01).start()
    try:
        t = cal.clock()
        while cal.clock() - t < 0.2:
            sum(range(1000))
    finally:
        cal.stop()
    n = len(cal.samples)
    assert n >= 5 and cal.spent == sum(cal.samples)
    sum(range(10**6))  # the timer is off: no more samples
    assert len(cal.samples) == n


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert sorted(spans.layer_metrics(spans.Recorder())) == sorted(m["name"] for m in spec["per_layer"])
    e2e = run.end_to_end([{"wall_s": 1, "cpu_s": 1, "peak_rss_mb": 1, "attempted": 1, "problems": []}], 1)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    # the worker scales exactly the timings to reference seconds
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert spans.is_timing(m["name"]) == (m["unit"] == "s"), m["name"]
    with open(os.path.join(HERE, "metrics.json")) as fh:
        notes = json.load(fh)
    names = {m["name"] for m in spec["per_layer"]}
    assert set(notes["exact_counts"]) <= names
    assert set(notes["moves"]) <= names
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS) == list(run.WORKLOADS)
