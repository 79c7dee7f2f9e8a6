"""End-to-end benchmark of the DFCCL simulator.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload ring512 --seed 1 --seconds 25 --trace 0

One process runs one workload (``ring512``, ``disorder8``, ``cpzipf`` or
``gpt2-3d``, see ``scenarios.py``) on a single thread.  After one untimed
warm-up of the workload's quick variant, it repeats the workload — set-up
phase, then run phase, each timed — within ``--seconds`` (at least twice),
checks every repetition, and prints two JSON lines: a context line and,
last, the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics (``wall_s`` is
the mean over repetitions, ``setup_s`` the median over set-up samples).
With ``--trace 1`` untraced repetitions run within half the time, then one
repetition runs with span wrappers installed on each layer's public
functions (``tracing.py``) and the metrics are the per-layer ones.  The
exit code is 1 when a correctness check failed and 2 when the simulator
sources are missing.  ``README.md`` next to this file defines every
metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import scenarios
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Repetitions per run at least: the determinism check needs two.
MIN_REPS = 2
#: Set-up-only repetitions after each full one spread the set-up samples
#: over the whole run, like the run-phase samples, because a shared host's
#: speed drifts over seconds.  They take this share of the full
#: repetition's time, within these counts.
SETUP_SHARE = 0.05
SETUPS_PER_REP = (4, 100)
#: How far the run phase's self times, over the spans that the per-layer
#: self-time metrics cover, may sum from the traced ``wall_s`` (relative).
#: What they miss is the root ``bench.run`` span's own time and any span no
#: metric reports.
SELF_TIME_TOLERANCE = 0.005

#: Layer spans reported as ``<span>.calls`` and ``<span>.s`` (self time).
CALL_METRICS = (
    "collectives.primitives.try_execute", "collectives.sequences.generate",
    "core.registration.active_ranks", "core.registration.make_executor",
    "core.recovery.step", "controlplane.step", "multijob.placement.place",
    "ncclsim.kernel.run_step", "collectives.selector.resolve",
    "obs.record_collective",
)

#: Per-layer self-time metric -> the spans whose self times it sums.
SELF_TIME_METRICS = {
    "gpusim.engine.self_s": ("gpusim.engine.run",),
    "gpusim.host.step.self_s": ("gpusim.host.step",),
    "gpusim.device.step.self_s": ("gpusim.device.step",),
    "gpusim.kernel.step.self_s": ("gpusim.kernel.step",),
    "core.poller.step.self_s": ("core.poller.step",),
    "core.daemon.run_step.self_s": ("core.daemon.run_step",),
    "core.context.s": ("core.context.load", "core.context.save_on_preempt"),
    "multijob.scheduler.step.self_s": ("multijob.scheduler.step",
                                       "multijob.failure_watch.step"),
    "multijob.runtime.s": ("multijob.runtime.launch", "multijob.runtime.preempt"),
    "controlplane.report.s": ("controlplane.report",),
    "workloads.build_programs.s": ("workloads.build_programs",),
    "workloads.collect.s": ("workloads.collect",),
    "api.program_build.s": ("api.program_build",),
    "obs.recorder.s": ("obs.recorder.record_event",),
    "core.communicator_pool.acquire.s": ("core.communicator_pool.acquire",),
    **{f"{name}.s": (name,) for name in CALL_METRICS},
}
REPORTED_SPANS = frozenset(span for spans in SELF_TIME_METRICS.values()
                           for span in spans)

#: End-to-end metric -> unit.  ``sim_*`` units are simulated (virtual) time
#: from the model, not host time.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "prims_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ops_completed_ratio": "ratio",
    "virtual_time_us": "sim_us",
    "coll_latency_p50_us": "sim_us",
    "coll_latency_tail_us": "sim_us",
    "slo_attainment": "ratio",
    "jct_p50_us": "sim_us",
    "train_samples_per_s": "samples/sim_s",
    "dfccl_over_nccl": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload (smoke test only)")
    return parser.parse_args(argv)


@dataclass
class Rep:
    """Host times, outcome and (traced) layer totals of one repetition."""

    setup_s: float
    wall_s: float
    outcome: scenarios.Outcome
    layers: dict = None  # span name -> (calls, self seconds), traced only
    run_layers: dict = None  # the same, run phase only


def _timed(fn, *args):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def one_rep(workload, tracer=None):
    """Set up and run the workload once; judge the result."""
    call = tracer.call if tracer is not None else scenarios.untraced_call
    undo = tracing.install(tracer) if tracer is not None else []
    try:
        with scenarios.work_log() as works:
            arms, setup_s = _timed(call, "bench.setup", workload.setup, call)
            before = tracer.totals() if tracer is not None else {}
            _, wall_s = _timed(call, "bench.run", workload.run, arms, call)
    finally:
        tracing.uninstall(undo)
    outcome = scenarios.judge(workload, arms, works)
    if tracer is None:
        return Rep(setup_s, wall_s, outcome)
    layers = tracer.totals()
    run_layers = {}
    for name, (calls, self_s) in layers.items():
        calls_before, self_before = before.get(name, (0, 0.0))
        run_layers[name] = (calls - calls_before, self_s - self_before)
    return Rep(setup_s, wall_s, outcome, layers, run_layers)


def extra_setups(workload, rep):
    """Set-up-only samples after ``rep``, for :data:`SETUP_SHARE` of its time."""
    low, high = SETUPS_PER_REP
    count = int(SETUP_SHARE * (rep.setup_s + rep.wall_s) / rep.setup_s)
    return [_timed(workload.setup)[1] for _ in range(min(high, max(low, count)))]


def measure(workload, warm_up, seconds, trace):
    """Repetitions within ``seconds``; returns (reps, setups, tracer, warm-up).

    ``warm_up`` (the workload's quick variant) runs once first, untimed, so
    that first-call costs fall outside the samples.  A repetition starts only
    while it is expected to end within the time, judged by the last one,
    unless fewer than the minimum have run.
    """
    start = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    warm = one_rep(warm_up)
    reps, setups = [], []
    while (len(reps) < (1 if trace else MIN_REPS)
           or time.perf_counter() - start + reps[-1].setup_s + reps[-1].wall_s
           < budget):
        reps.append(one_rep(workload))
        setups.append(reps[-1].setup_s)
        if not trace:
            setups.extend(extra_setups(workload, reps[-1]))
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        reps.append(one_rep(workload, tracer))
    return reps, setups, tracer, warm


def mean_wall_s(reps):
    """Run-phase host seconds per repetition.

    The mean, not the median: a shared host can alternate between a fast
    and a slow speed for seconds at a time.  The median of a run's few
    repetitions then jumps between the two modes, while the mean weighs
    each by the time spent in it.
    """
    return statistics.fmean(rep.wall_s for rep in reps)


def end_to_end(reps, setups, outcome):
    wall_s = mean_wall_s(reps)
    attempted = sum(rep.outcome.attempted for rep in reps)
    completed = sum(rep.outcome.completed for rep in reps)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "prims_per_s": outcome.counts["primitives"] / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_completed_ratio": completed / attempted,
        **outcome.virtual,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(untraced, traced, actor_spans):
    """Per-layer metrics of the traced repetition -> {name: (value, unit)}."""
    layers = traced.layers
    counts = traced.outcome.counts

    def calls(*names):
        return sum(layers.get(name, (0, 0.0))[0] for name in names)

    metrics = {
        "gpusim.engine.steps": (counts["engine_steps"], "count"),
        "gpusim.engine.signals": (counts["engine_signals"], "count"),
        "gpusim.engine.queue_compactions": (counts["engine_queue_compactions"], "count"),
        "collectives.primitives.exec_ratio": (
            _ratio(counts["primitives"], calls("collectives.primitives.try_execute")),
            "ratio"),
        "core.daemon.run_step.calls": (calls("core.daemon.run_step"), "count"),
        "core.daemon.preemptions": (counts["daemon_preemptions"], "count"),
        "core.daemon.voluntary_quits": (counts["daemon_voluntary_quits"], "count"),
        "core.daemon.spin_polls": (counts["daemon_spin_polls"], "count"),
        "core.daemon.useful_poll_ratio": (
            _ratio(counts["daemon_primitives_executed"], counts["daemon_spin_polls"]),
            "ratio"),
        "core.context.load.calls": (calls("core.context.load"), "count"),
        "core.context.save_on_preempt.calls": (
            calls("core.context.save_on_preempt"), "count"),
        "core.communicator_pool.acquire.calls": (
            calls("core.communicator_pool.acquire"), "count"),
        "core.communicator_pool.hit_ratio": (
            _ratio(counts["pool_hits"], counts["pool_hits"] + counts["pool_misses"]),
            "ratio"),
        "multijob.runtime.launch.calls": (calls("multijob.runtime.launch"), "count"),
        "multijob.runtime.preempt.calls": (calls("multijob.runtime.preempt"), "count"),
        # Every actor step appends one event to the flight recorder's ring,
        # every marker one more: the events recorded, before the ring wraps.
        "obs.flight_recorder_events": (
            calls(*actor_spans, "obs.recorder.record_event"), "count"),
        "trace.overhead_frac": (
            traced.wall_s / mean_wall_s(untraced) - 1.0,
            "ratio"),
    }
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = (calls(name), "count")
    for name, spans in SELF_TIME_METRICS.items():
        metrics[name] = (sum(layers.get(span, (0, 0.0))[1] for span in spans), "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())}


def attributed_run_s(traced):
    """Run-phase self time of the spans the self-time metrics report."""
    return sum(traced.run_layers.get(span, (0, 0.0))[1] for span in REPORTED_SPANS)


def check_reps(reps, traced):
    """Correctness errors across the run's repetitions."""
    errors = []
    for index, rep in enumerate(reps):
        errors.extend(f"rep {index}: {error}" for error in rep.outcome.errors)
    first = reps[0].outcome.fingerprint()
    for index, rep in enumerate(reps[1:], start=1):
        if rep.outcome.fingerprint() != first:
            errors.append(f"rep {index}: virtual metrics or layer counts differ "
                          "from rep 0 on the same seed")
    if traced is not None:
        attributed = attributed_run_s(traced)
        if abs(attributed - traced.wall_s) > SELF_TIME_TOLERANCE * traced.wall_s:
            errors.append(f"per-layer self times cover {attributed:.4f} s of the "
                          f"run phase, traced wall_s is {traced.wall_s:.4f} s")
    return errors


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.scale_experiments import machine_calibration_factor

    if args.workload not in scenarios.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = scenarios.WORKLOADS[args.workload]
    workload = workload_cls(args.seed, quick=args.quick)
    calibration = machine_calibration_factor()
    reps, setups, tracer, warm = measure(workload, workload_cls(args.seed, quick=True),
                                         args.seconds, args.trace)
    traced = reps[-1] if args.trace else None
    untraced = reps[:-1] if args.trace else reps
    outcome = reps[0].outcome
    errors = [f"warm-up: {error}" for error in warm.outcome.errors]
    errors.extend(check_reps(reps, traced))

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "quick": args.quick,
        "machine_calibration_ops_per_s": calibration,
        "reps": len(untraced),
        "wall_s_samples": [rep.wall_s for rep in untraced],
        "setup_s_samples": setups,
        "coll_latency_tail_percentile": outcome.tail["percentile"],
        "coll_latency_samples": outcome.tail["samples"],
        "not_applicable": outcome.not_applicable,
        "virtual": outcome.virtual,
        "counts": outcome.counts,
        "errors": errors,
    }
    if traced is not None:
        OUT_DIR.mkdir(exist_ok=True)
        prefix = OUT_DIR / f"spans-{workload.name}"
        tracer.write(prefix, workload=workload.name, seed=args.seed)
        context["trace"] = {"run_id": tracer.run_id, "spans": str(prefix.relative_to(ROOT)),
                            "span_count": len(tracer.span_start),
                            "traced_wall_s": traced.wall_s,
                            "attributed_run_s": attributed_run_s(traced),
                            "self_time_tolerance": SELF_TIME_TOLERANCE,
                            "unreported_run_spans": sorted(
                                name for name, (calls, _) in traced.run_layers.items()
                                if calls and name not in REPORTED_SPANS)}
        metrics = per_layer(untraced, traced, tracer.actor_spans)
    else:
        metrics = end_to_end(untraced, setups, outcome)

    attempted = sum(rep.outcome.attempted for rep in reps)
    failed = sum(rep.outcome.attempted - rep.outcome.completed for rep in reps)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not errors and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
