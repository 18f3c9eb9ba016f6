"""Benchmark of the kleinbraid package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Each workload is a closed loop with one client: one
operation at a time, in a single process.  Inputs come from the seed.
Every output is checked exactly after the timed region.

With ``--trace 0`` the run measures whole passes over the workload's
input strata for about S seconds, and reports the end-to-end metrics from
each input's median latency over the workload's rounds.  Its times are
read from a clock that runs at the host's current speed (refclock.py), so
that slow spells of a shared host do not show as slow code; the
wall-clock figures go to the meta line.  With ``--trace 1`` it replays a
fixed prefix of the workload's inputs twice, untraced and then traced,
and reports per-layer metrics from the traced pass.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refclock import RefClock  # noqa: E402
from tracing import BENCH, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
# latency_p90_ms needs at least ten inputs beyond it
MIN_OPS = 100
# A timed run stops at this many times --seconds of wall time, however
# slow the host, so that a run's length stays bounded.
WALL_LIMIT = 2.0
# Inputs generated per set-up; a run that uses them all starts over.
INPUTS_PER_SETUP = 2048
# A seed not used while the benchmark and its bounds were tuned; a change
# that claims a gain confirms it on this seed as well.
HELD_OUT_SEED = 104729


def import_package():
    """Import kleinbraid afresh from the checkout, dropping any earlier
    import so that caches and module state start empty."""
    for name in [n for n in sys.modules if n == "kleinbraid" or n.startswith("kleinbraid.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("kleinbraid")
    importlib.import_module("kleinbraid.cli")
    if Path(package.__file__).resolve().parent != SRC / "kleinbraid":
        raise SystemExit(f"imported kleinbraid from {package.__file__}, not from {SRC}")
    return package


def setup(workload, seed, clock=time.perf_counter):
    """Import, input generation and warm-up; returns (package, inputs,
    seconds on ``clock``)."""
    start = clock()
    kb = import_package()
    inputs = workload.inputs(kb, seed, INPUTS_PER_SETUP)
    workload.warm(kb)
    gc.collect()
    return kb, inputs, clock() - start


def measure(op, inputs, seconds=None, keep=None, align=1, clock=None, wall_limit=None):
    """Closed loop over inputs: one operation at a time.

    Latencies are read from ``clock`` (by default the wall clock).  With
    ``seconds`` the loop runs whole passes of ``align`` inputs, at least
    MIN_OPS operations, and stops at the end of the pass nearest to
    ``seconds`` on that clock: when less than half a pass's time is left.
    Without ``seconds`` it runs each input once.  Either way it stops at
    once when ``wall_limit`` seconds of wall time have passed.  ``keep``
    maps an output to what is retained for the check.  Returns (latencies,
    wall latencies, outputs, wall seconds); an operation that raised has
    its exception as output."""
    wall = time.perf_counter
    clock = clock or wall
    latencies, wall_latencies, outputs = [], [], []
    count = len(inputs)
    wall_start, start = wall(), clock()
    pass_start = start
    i = 0
    while True:
        item = inputs[i % count]
        w0, t0 = wall(), clock()
        try:
            out = op(item)
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        t1, w1 = clock(), wall()
        latencies.append(t1 - t0)
        wall_latencies.append(w1 - w0)
        outputs.append(out if keep is None or isinstance(out, Exception) else keep(out))
        i += 1
        if wall_limit is not None and w1 - wall_start >= wall_limit:
            break
        if seconds is None:
            if i == count:
                break
        elif i % align == 0:
            if i >= MIN_OPS and (t1 - start) + (t1 - pass_start) / 2 >= seconds:
                break
            pass_start = t1
    return latencies, wall_latencies, outputs, wall() - wall_start


def check_all(workload, kb, inputs, outputs):
    """Exact check of each output; returns a list of failure messages."""
    failures = []
    for i, out in enumerate(outputs):
        item = inputs[i % len(inputs)]
        if isinstance(out, Exception):
            failures.append(f"raised {out!r}")
            continue
        try:
            workload.check(kb, item, out)
        except Exception as exc:  # a check that raises is a failed check
            failures.append(str(exc))
    return failures


def timings(latencies):
    """ops_per_s and the two latency percentiles from latencies in seconds."""
    ms = [t * 1000.0 for t in latencies]
    return {
        "ops_per_s": (len(ms) * 1000.0 / sum(ms), "op/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0], "ms"),
    }


def end_to_end(latencies, attempted, failed, setups):
    """End-to-end metrics from each input's latency in seconds."""
    return {
        **timings(latencies),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def timed_run(workload, seed, seconds):
    """The untraced run: ``workload.rounds`` rounds over the same inputs,
    each after a fresh set-up.  All times, set-up included, are read from
    a RefClock.  The first round runs whole passes for its share of
    ``seconds``; the later rounds replay those inputs.  Each input's median
    latency over the rounds feeds the latency and throughput metrics.  On
    a host so slow that the rounds would take more than WALL_LIMIT times
    ``seconds`` of wall time, each round stops at its share of that.
    Returns (metrics, attempted, failures, info)."""
    rounds = workload.rounds
    share, wall_share = seconds / rounds, WALL_LIMIT * seconds / rounds
    setups, walls, failures, per_round, per_round_wall = [], [], [], [], []
    with RefClock() as ref:
        for _ in range(SETUP_REPEATS - rounds):
            setups.append(setup(workload, seed, ref.now)[2])
        for _ in range(rounds):
            kb, inputs, took = setup(workload, seed, ref.now)
            setups.append(took)
            op = lambda item: workload.op(kb, item)  # noqa: E731
            if not per_round:
                latencies, wall_latencies, outputs, wall = measure(
                    op, inputs, share, keep=workload.keep, align=workload.align,
                    clock=ref.now, wall_limit=wall_share)
            else:
                replay = [inputs[i % len(inputs)] for i in range(len(per_round[0]))]
                latencies, wall_latencies, outputs, wall = measure(
                    op, replay, keep=workload.keep, clock=ref.now, wall_limit=wall_share)
            failures += check_all(workload, kb, inputs, outputs)
            per_round.append(latencies)
            per_round_wall.append(wall_latencies)
            walls.append(wall)
    per_input = [statistics.median(samples) for samples in zip(*per_round)]
    attempted = sum(len(r) for r in per_round)
    metrics = end_to_end(per_input, attempted, len(failures), setups)
    wall_per_input = [statistics.median(samples) for samples in zip(*per_round_wall)]
    probes = ref.probe_times
    info = {
        "inputs": len(per_input),
        "round_walls_s": walls,
        "setups_ref_s": setups,
        "wall": {name: value for name, (value, _) in timings(wall_per_input).items()},
        "probe_s": {"p10": statistics.quantiles(probes, n=10)[0],
                    "p50": statistics.median(probes),
                    "p90": statistics.quantiles(probes, n=10)[8],
                    "count": len(probes)},
    }
    return metrics, attempted, failures, info


class Counters:
    """Hook targets for the traced run: work counts read at layer entries."""

    def __init__(self):
        self.letters_out = 0
        self.project_letters = 0
        self.examined = 0
        self.witness_eq = 0
        self.witness_eq_true = 0

    def hooks(self):
        def word_built(caller, args, result):
            self.letters_out += sum(abs(e) for _, e in args[0].runs)

        def projected(caller, args, result):
            if caller != "kernel":
                self.project_letters += sum(abs(e) for _, e in args[0].runs)

        def searched(caller, args, result):
            self.examined += result.examined

        def braid_eq(caller, args, result):
            if caller == "witness":
                self.witness_eq += 1
                self.witness_eq_true += result is True

        return {
            "words.Word.__init__": word_built,
            "kernel.project": projected,
            "witness.search_witness": searched,
            "braid.BraidElt.__eq__": braid_eq,
        }


def _ratio(num, den):
    return num / den if den else 0.0


def theta_cache_info(kb):
    cached = getattr(kb.braid, "_theta_images", None)
    info = getattr(cached, "cache_info", None)
    return info() if info is not None else None


def per_layer(tracer, counters, summary, theta_before, theta_after, traced_wall, untraced_wall):
    calls, self_s, incl_s = summary["calls"], summary["self_s"], summary["incl_s"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["words.words_built"] = (tracer.count("words.Word.__init__"), "count")
    m["words.letters_out"] = (counters.letters_out, "count")
    m["braid.theta_calls"] = (tracer.count("braid.theta"), "count")
    m["braid.lsigma_calls"] = (tracer.count("braid.lsigma"), "count")
    hits = misses = 0
    if theta_before is not None and theta_after is not None:
        hits = theta_after.hits - theta_before.hits
        misses = theta_after.misses - theta_before.misses
    m["braid.theta_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["kernel.vectors_built"] = (tracer.count("kernel.KernelVector.__init__"), "count")
    m["kernel.project_letters_per_s"] = (
        _ratio(counters.project_letters, incl_s.get("kernel.project", 0.0)), "1/s")
    # verify_pair makes one equality test of its own per call; the rest are
    # the search's checks of candidate pairs on the braid engine
    verified = tracer.count("witness.verify_pair")
    engine_checks = max(counters.witness_eq - verified, 0)
    hits_found = max(counters.witness_eq_true - verified, 0)
    m["witness.examined"] = (counters.examined, "count")
    m["witness.engine_checks"] = (engine_checks, "count")
    m["witness.engine_check_ratio"] = (_ratio(engine_checks, counters.examined), "ratio")
    m["witness.hit_ratio"] = (_ratio(hits_found, engine_checks), "ratio")
    evals = tracer.count("certificate.Functional.__call__")
    m["certificate.build_master_calls"] = (tracer.count("certificate.build_master"), "count")
    m["certificate.functional_evals"] = (evals, "count")
    m["certificate.functional_evals_per_s"] = (
        _ratio(evals, incl_s.get("certificate.check_certificate", 0.0)), "1/s")
    m["trace.overhead_ratio"] = (_ratio(traced_wall, untraced_wall), "ratio")
    return m


def traced_run(workload, seed):
    """Untraced and traced passes over the same input prefix, each after a
    fresh set-up.  Returns (metrics, attempted, failures, info)."""
    kb, inputs, _ = setup(workload, seed)
    prefix = inputs[: workload.trace_ops]
    op = lambda item: workload.op(kb, item)  # noqa: E731
    _, _, plain_out, plain_wall = measure(op, prefix, keep=workload.keep)
    failures = check_all(workload, kb, prefix, plain_out)

    kb, inputs, _ = setup(workload, seed)
    prefix = inputs[: workload.trace_ops]
    counters = Counters()
    tracer = Tracer(kb, counters.hooks())
    theta_before = theta_cache_info(kb)
    with tracer.installed():
        traced_op = tracer.root(lambda item: workload.op(kb, item))
        _, _, traced_out, traced_wall = measure(traced_op, prefix, keep=workload.keep)
    theta_after = theta_cache_info(kb)
    failures += check_all(workload, kb, prefix, traced_out)
    summary = tracer.summary()
    metrics = per_layer(tracer, counters, summary, theta_before, theta_after, traced_wall, plain_wall)
    tracer.write(SPAN_DIR, f"spans-{workload.name}")
    info = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "spans": tracer.spans(),
        "self_s_sum": sum(summary["self_s"].values()),
        "bench_self_s": summary["self_s"].get(BENCH, 0.0),
    }
    return metrics, 2 * len(prefix), failures, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kleinbraid" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'kleinbraid'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.trace:
        metrics, attempted, failures, info = traced_run(workload, args.seed)
    else:
        metrics, attempted, failures, info = timed_run(workload, args.seed, args.seconds)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed_frac": len(failures) / attempted,
        **info,
    }
    print("meta " + json.dumps(meta))
    for message in failures[:10]:
        print(f"FAILED {message}")
    shown = dict(metrics)
    if not args.trace:
        shown["failed_frac"] = (meta["failed_frac"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
