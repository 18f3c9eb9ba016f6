"""Tests of the benchmark itself: deterministic inputs, planted faults
counted as failures, and consistent span bookkeeping in the traced run.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import signal
import time

import pytest

import refclock
import run
import workloads
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def kb():
    run.sys.path.insert(0, str(run.SRC))
    return run.import_package()


def _params(inputs):
    return [item[0] if isinstance(item[0], tuple) else item for item in inputs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed(kb, name):
    w = WORKLOADS[name]
    first = _params(w.inputs(kb, 7, 300))
    assert first == _params(w.inputs(kb, 7, 300))
    assert first != _params(w.inputs(kb, 8, 300))


@pytest.mark.parametrize("name, stratum", [
    ("verdict-grid", workloads.verdict_stratum),
    ("witness-search", lambda params: params),
])
def test_passes_visit_every_stratum(kb, name, stratum):
    w = WORKLOADS[name]
    space = {stratum(p) for p in _params(w.inputs(kb, 3, 2000))}
    first_pass = w.inputs(kb, 3, 1)
    assert {stratum(item[0]) for item in first_pass} == space
    second_pass = w.inputs(kb, 3, len(first_pass) + 1)[len(first_pass):]
    assert sorted(stratum(item[0]) for item in second_pass) == sorted(
        stratum(item[0]) for item in first_pass)


def test_workload_populations(kb):
    covered = workloads._covered_grid()
    assert len(covered) == 1519
    assert sum(workloads.has_property(*p) for p in covered) == 1219
    assert WORKLOADS["verdict-grid"].align == 109
    # the pass keeps the grid's share of classes with the property (0.803)
    first_pass = [item[0] for item in WORKLOADS["verdict-grid"].inputs(kb, 0, 1)]
    assert sum(workloads.has_property(*p) for p in first_pass) / 109 == pytest.approx(0.79, abs=0.03)
    assert len(workloads._search_space()) == 100


def _first(kb, name, predicate):
    w = WORKLOADS[name]
    return next(item for item in w.inputs(kb, 0, 2000) if predicate(item))


def test_tampered_witness_fails(kb):
    w = WORKLOADS["verdict-grid"]
    item = _first(kb, "verdict-grid", lambda it: not workloads.has_property(*it[0]))
    verdict, report = w.op(kb, item)
    bad_a = kb.braid.BraidElt(report.a.word * kb.words.U, report.a.twist)
    tampered = (verdict, dataclasses.replace(report, a=bad_a))
    assert run.check_all(w, kb, [item], [(verdict, report)]) == []
    assert len(run.check_all(w, kb, [item], [tampered])) == 1


def test_wrong_verdict_fails(kb):
    w = WORKLOADS["verdict-grid"]
    item = _first(kb, "verdict-grid", lambda it: workloads.has_property(*it[0]))
    verdict, report = w.op(kb, item)
    flipped = (dataclasses.replace(verdict, bu=False), report)
    assert len(run.check_all(w, kb, [item], [flipped])) == 1


def test_missed_search_witness_fails(kb):
    w = WORKLOADS["witness-search"]
    item = (p := (3, 0, 0, 0, 0, 0), workloads._hom_class(kb, p))
    out = w.op(kb, item)
    assert out.found
    missed = dataclasses.replace(out, report=None)
    assert run.check_all(w, kb, [item], [out]) == []
    assert len(run.check_all(w, kb, [item], [missed])) == 1


def test_planted_projection_fault_is_counted(kb):
    """A tampered projection and an operation that raises both lower
    ok_frac in the end-to-end metrics."""
    w = WORKLOADS["long-words"]
    inputs = [item for item in w.inputs(kb, 0, 40) if item[1][0] == "kernel-project"][:5]

    def op(item):
        code, text = w.op(kb, item)
        if item is inputs[0]:
            return code, text.replace(":", ":1", 1)
        if item is inputs[1]:
            raise RuntimeError("planted")
        return code, text

    latencies, _, outputs, wall = run.measure(op, inputs, keep=w.keep)
    failures = run.check_all(w, kb, inputs, outputs)
    assert len(failures) == 2
    metrics = run.end_to_end(latencies, len(outputs), len(failures), [0.1])
    assert metrics["ok_frac"][0] == pytest.approx(3 / 5)


def test_end_to_end_metrics_match_benchmark_json():
    names = set(run.end_to_end([0.01, 0.02], 2, 0, [0.1]))
    assert names == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_self_times_add_up(kb, name):
    w = type(WORKLOADS[name])()
    w.trace_ops = 2
    metrics, attempted, failures, info = run.traced_run(w, 0)
    assert failures == [] and attempted == 4
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    # every span nests inside one root span per operation, so the layers'
    # self times add up to the traced wall time less the loop's own work
    assert info["self_s_sum"] == pytest.approx(info["traced_wall_s"], rel=0.02)
    assert info["bench_self_s"] < 0.05 * info["traced_wall_s"]
    assert sum(metrics[f"{layer}.calls"][0] for layer in run.LAYERS) > 0


def test_tracer_patches_reimported_names_and_restores_them(kb):
    original = kb.braid.lsigma
    tracer = run.Tracer(kb)
    cls = kb.classifier.HomClass(4, r1=2, r2=1, s1=1, s2=1)
    with tracer.installed():
        assert kb.witness.lsigma is kb.braid.lsigma is not original
        kb.witness.search_witness(cls, kb.witness.SearchBounds(4, 2))
    assert kb.braid.lsigma is original and kb.witness.lsigma is original
    assert tracer.count("braid.lsigma") > 0
    summary = tracer.summary()
    assert summary["calls"]["witness"] >= 1 and summary["self_s"]["words"] > 0


def test_refuses_to_run_without_package_source(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "long-words", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_timed_loop_completes_enough_operations_for_p90():
    latencies, _, outputs, wall = run.measure(lambda item: item, [1, 2, 3], seconds=0.001)
    assert len(latencies) >= run.MIN_OPS == 100
    assert outputs[:4] == [1, 2, 3, 1]


def test_timed_loop_stops_at_the_pass_end_nearest_its_time():
    def op(item):
        _spin(0.001)
        return item

    # passes of 60 inputs take about 0.06 s: after two passes (0.12 s) the
    # third would end at 0.18 s, further from 0.14 s than the second's end
    latencies, _, _, wall = run.measure(op, list(range(60)), seconds=0.14, align=60)
    assert len(latencies) == 120
    latencies, _, _, wall = run.measure(op, list(range(60)), seconds=0.17, align=60)
    assert len(latencies) == 180
    # the wall limit cuts a pass short
    latencies, _, _, wall = run.measure(op, list(range(60)), seconds=10, align=60, wall_limit=0.03)
    assert 10 <= len(latencies) < 60


class _Echo(workloads.Workload):
    """A cheap stand-in workload for the timed run's bookkeeping."""

    name = "echo"
    align = 50

    def inputs(self, kb, seed, min_items):
        return list(range(seed, seed + min_items))

    def warm(self, kb):
        pass

    def op(self, kb, item):
        _spin(0.0002 * (1 + item % 3))
        return item

    def check(self, kb, item, out):
        workloads._expect(out == item, f"{out} != {item}")


def test_timed_run_takes_each_inputs_median_over_rounds(kb, monkeypatch):
    # on a busy host the reference clock runs slower than the wall clock,
    # and the wall limit would cut the pass short
    monkeypatch.setattr(run, "WALL_LIMIT", 100.0)
    w = _Echo()
    metrics, attempted, failures, info = run.timed_run(w, 0, 0.1)
    assert failures == [] and info["inputs"] >= run.MIN_OPS
    assert info["inputs"] % w.align == 0
    assert attempted == w.rounds * info["inputs"]
    assert metrics["ok_frac"][0] == 1.0
    assert len(info["setups_ref_s"]) == max(run.SETUP_REPEATS, w.rounds)
    assert info["probe_s"]["count"] > 0 and set(info["wall"]) == {
        "ops_per_s", "latency_p50_ms", "latency_p90_ms"}
    # a third of the inputs spin 0.2 ms, 0.4 ms and 0.6 ms each
    assert info["wall"]["latency_p50_ms"] == pytest.approx(0.4, rel=0.3)


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_ref_clock_scales_wall_time_by_probe_speed(monkeypatch):
    """A clock whose probe takes exactly twice its reference time reads
    half the wall time, with the probe's own time left out."""
    probe_s = refclock.PROBE_REF_S * 2
    monkeypatch.setattr(refclock.RefClock, "_time_probe", lambda self: probe_s)
    with refclock.RefClock(tick_s=0.005) as clock:
        wall0, ref0 = time.perf_counter(), clock.now()
        _spin(0.2)
        wall, ref = time.perf_counter() - wall0, clock.now() - ref0
        ticks = len(clock.probe_times)
    assert ticks >= 10
    assert ref == pytest.approx(wall / 2, rel=0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is not clock._tick


def test_ref_clock_never_goes_back(monkeypatch):
    """Probe times that jump between ticks change the clock's rate, not
    the readings already given."""
    times = iter([refclock.PROBE_REF_S * k for k in (1, 3, 1, 4, 1, 2)] * 1000)
    monkeypatch.setattr(refclock.RefClock, "_time_probe", lambda self: next(times))
    readings = []
    with refclock.RefClock(tick_s=0.002) as clock:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            readings.append(clock.now())
    assert len(clock.probe_times) >= 10
    assert all(b >= a for a, b in zip(readings, readings[1:]))
