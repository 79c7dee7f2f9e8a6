"""Behaviour lock for the primitive-execution hot path.

Four small runs, built through the public ``repro`` calls, pin exact
virtual times, engine and daemon counts, a SHA-256 of the flight
recorder's ``(time, actor, status, detail)`` step tuples, and a SHA-256 of
every executor trace array that ``obs.analysis`` attaches.  The step tuples
are hashed sorted: the engine wakes the actors blocked on one key in set
order, which follows object addresses, so two steps at the same virtual
time may swap places when memory layout changes.  A refactor of the executor,
the daemon burst or the NCCL kernel step must leave every value identical.

Regenerate the golden file (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_golden_hotpath.py --update
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "hotpath.json"
_NCCL_OP_ID = re.compile(r"collective \d+ done")

#: Counts read from ``backend.diagnostics()["metrics"]``, summed per run.
COUNTS = ("engine_steps", "engine_signals", "daemon_spin_polls",
          "daemon_preemptions", "daemon_primitives_executed")


def _cluster(topology, traced, **kwargs):
    from repro.gpusim import build_cluster

    cluster = build_cluster(topology, **kwargs)
    if traced:
        cluster.engine.obs.enable_analysis()
    return cluster


def _ring64(traced):
    from repro.api import make_backend
    from repro.common.types import CollectiveKind, CollectiveSpec
    from repro.gpusim import HostProgram, fat_tree_spec

    cluster = _cluster(fat_tree_spec(64), traced)
    backend = make_backend("dfccl", cluster, chunk_bytes=128 << 10, algorithm="ring")
    group = backend.new_group(list(range(64)))
    spec = CollectiveSpec(CollectiveKind.ALL_REDUCE, (1 << 20) // 4)
    group.ensure_collective(spec)
    programs = []
    for rank in group.ranks:
        ops = []
        for _ in range(2):
            ops.extend(group.collective(rank, spec).ops())
        ops.extend(backend.finalize_ops(rank))
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)
    return [("dfccl", cluster, backend, cluster.run)]


def _disorder8(traced):
    from repro.api import make_backend, wait_all
    from repro.common.rng import DeterministicRNG
    from repro.common.types import CollectiveKind, CollectiveSpec
    from repro.gpusim import HostProgram

    rng = DeterministicRNG(1)
    counts = [(256 << index) // 4 for index in range(8)]
    cluster = _cluster("single-3090", traced)
    backend = make_backend("dfccl", cluster)
    group = backend.new_group(list(range(8)))
    for coll_id, count in enumerate(counts):
        group.ensure_collective(CollectiveSpec(CollectiveKind.ALL_REDUCE, count),
                                key=coll_id)
    programs = []
    for rank in group.ranks:
        ops = []
        for iteration in range(4):
            order = rng.child("order", rank, iteration).permutation(len(counts))
            works = [group.all_reduce(rank, counts[coll_id], key=coll_id)
                     for coll_id in order]
            ops.extend(work.submit_op() for work in works)
            ops.extend(wait_all(works))
        ops.extend(backend.finalize_ops(rank))
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)
    return [("dfccl", cluster, backend, cluster.run)]


def _cpzipf(traced):
    from repro.bench.controlplane_experiments import (
        CONTROLPLANE_BLOCKS, CONTROLPLANE_DEADLINE_US, controlplane_job_stream)
    from repro.controlplane import install_control_plane
    from repro.gpusim import SmInterferenceModel
    from repro.multijob.runtime import make_job_runner

    cluster = _cluster("single-3090", traced, deadlock_mode="record",
                       max_resident_blocks=CONTROLPLANE_BLOCKS,
                       interference=SmInterferenceModel())
    runner = make_job_runner("dfccl", cluster, launch_jitter_us=300.0, seed=5)
    service = install_control_plane(
        cluster, runner, controlplane_job_stream(11, num_jobs=6), policy="packed",
        tenants_per_gpu=1, preemption=True, starvation_boost_us=1_000_000.0)

    def run():
        time_us = cluster.run(until_us=CONTROLPLANE_DEADLINE_US)
        service.finalize(time_us)
        summary = service.summary(time_us)
        assert summary["completed"] == summary["jobs"], summary
        return time_us

    return [("dfccl", cluster, runner.backend, run)]


def _gpt2_3d(traced):
    from repro.bench.training_experiments import TRAINING_CHUNK_BYTES
    from repro.workloads import GroupTrainingBackend, ParallelPlan, TrainingRun, gpt2_model

    plan = ParallelPlan(gpt2_model("small"), tp=2, dp=2, pp=2, microbatch_size=18,
                        num_microbatches=2, grad_buckets=8)
    arms = []
    for label, orchestrator in (("dfccl", "auto"), ("nccl", "megatron")):
        cluster = _cluster("single-3090", traced)
        training = GroupTrainingBackend(cluster, label, orchestrator=orchestrator,
                                        chunk_bytes=TRAINING_CHUNK_BYTES)
        TrainingRun(cluster, plan, training, iterations=2, warmup=1).install()
        arms.append((label, cluster, training.backend, cluster.run))
    return arms


SCENARIOS = {
    "ring64": _ring64,
    "disorder8": _disorder8,
    "cpzipf": _cpzipf,
    "gpt2-3d": _gpt2_3d,
}


def _trace_digests(cluster):
    """SHA-256 of every attached executor trace, in attachment order."""
    return [hashlib.sha256(record.trace.tobytes()).hexdigest()
            for record in cluster.engine.obs.analysis.records]


def _step_record(time_us, actor, status, detail):
    """A flight-recorder step tuple with the NCCL op id masked: op ids come
    from a process-wide counter, so they depend on what ran before."""
    return time_us, actor, status, _NCCL_OP_ID.sub("collective # done", detail)


def capture(name, traced=True):
    """Run one scenario and return its pinned values, per arm.

    An untraced run attaches no executor traces, so it has no digests.
    """
    result = {}
    for label, cluster, backend, run in SCENARIOS[name](traced):
        time_us = run()
        metrics = backend.diagnostics()["metrics"]
        steps = repr(sorted(_step_record(*event) for event in
                            cluster.engine.obs.recorder.step_events())).encode()
        result[label] = {
            "virtual_time_us": time_us,
            **{key: metrics.get(key, 0) for key in COUNTS},
            "recorder_steps_sha256": hashlib.sha256(steps).hexdigest(),
        }
        if traced:
            result[label]["trace_sha256"] = _trace_digests(cluster)
    return result


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hot_path_behaviour_is_pinned(name):
    expected = _golden()[name]
    actual = capture(name)
    for label, arm in expected.items():
        got = actual[label]
        for key, value in arm.items():
            if key != "trace_sha256":
                assert got[key] == value, f"{name}/{label}: {key}"
        assert len(got["trace_sha256"]) == len(arm["trace_sha256"]), \
            f"{name}/{label}: traced executor count"
        mismatched = [index for index, (have, want) in
                      enumerate(zip(got["trace_sha256"], arm["trace_sha256"]))
                      if have != want]
        assert not mismatched, f"{name}/{label}: trace arrays differ at {mismatched[:5]}"
    assert set(actual) == set(expected)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_untraced_run_matches_pinned_values(name):
    """The executor's untraced path (no trace array) behaves the same."""
    expected = {label: {key: value for key, value in arm.items()
                        if key != "trace_sha256"}
                for label, arm in _golden()[name].items()}
    assert capture(name, traced=False) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({name: capture(name) for name in sorted(SCENARIOS)},
                                      indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
