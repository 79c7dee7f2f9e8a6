"""The benchmark's four workloads and how one repetition is judged.

Each workload drives the simulator through the same public calls as the
``repro.bench`` experiment it is shaped after, split into ``setup`` (build the
cluster, backend and groups, register collectives, build host programs) and
``run`` (the engine).  ``setup`` returns a list of :class:`Arm` — one
simulated cluster each — and ``run`` drives every arm.

:func:`judge` turns the finished arms into one :class:`Outcome`: the
virtual-time metrics, the deterministic layer counts, the operation tally
and the list of failed correctness checks.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

#: Counts read from ``obs.metrics.snapshot()`` after ``diagnostics()``,
#: summed over arms.
SNAPSHOT_COUNTS = (
    "engine_steps", "engine_signals", "engine_queue_compactions",
    "daemon_preemptions", "daemon_voluntary_quits", "daemon_spin_polls",
    "daemon_primitives_executed", "pool_hits", "pool_misses",
)

#: Percentiles tried for the latency tail, highest first; the reported tail
#: is the first with at least :data:`TAIL_MIN_BEYOND` samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: Metrics only some workloads have data for (job SLOs, training samples,
#: an NCCL arm).  Elsewhere they read :data:`NOT_APPLICABLE` and are listed
#: per run as ``not_applicable``.
OPTIONAL_METRICS = ("slo_attainment", "train_samples_per_s", "dfccl_over_nccl")
NOT_APPLICABLE = 1.0


@dataclass
class Arm:
    """One simulated cluster of a repetition and what ran on it."""

    cluster: object
    backend: object  # the repro.api CollectiveBackend driving the cluster
    label: str = "dfccl"
    time_us: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Everything one repetition produced, apart from host times."""

    virtual: dict
    counts: dict
    attempted: int
    completed: int
    tail: dict
    not_applicable: list
    errors: list

    def fingerprint(self):
        """What must repeat exactly for one seed (virtual metrics, counts)."""
        return (self.virtual, self.counts, self.attempted, self.completed)


@contextmanager
def work_log():
    """Collect every Work future created through ``ProcessGroup.collective``.

    All group calls (``all_reduce``, ``all_gather``, ...) go through it, so
    the log sees the Works the trainer and the job runner create internally.
    """
    from repro.api.group import ProcessGroup

    original = ProcessGroup.__dict__["collective"]
    works = []

    def collective(self, *args, **kwargs):
        work = original(self, *args, **kwargs)
        works.append(work)
        return work

    ProcessGroup.collective = collective
    try:
        yield works
    finally:
        ProcessGroup.collective = original


def untraced_call(name, fn, *args):
    """Untraced stand-in for :meth:`tracing.Tracer.call`."""
    del name
    return fn(*args)


# -- workloads -----------------------------------------------------------------------


class Workload:
    """Defaults for a workload that runs one program per arm to completion.

    The first arm's program counts as one job arriving at time 0, so its
    completion time is the makespan; operations are rank-collective Works.
    """

    seeded = False

    def run(self, arms, call=untraced_call):
        del call  # nothing but the engine runs
        for arm in arms:
            arm.time_us = arm.cluster.run()

    def job_metrics(self, arms):
        """``jct_p50_us`` plus whichever :data:`OPTIONAL_METRICS` apply."""
        return {"jct_p50_us": arms[0].time_us}

    def check(self, arms):
        """Workload-specific correctness errors."""
        del arms
        return []

    def tally(self, arms, works, done):
        """(operations attempted, operations completed)."""
        del arms
        return len(works), len(done)


class Ring512(Workload):
    """512-rank fat-tree, one flat-ring 1 MiB all-reduce group on DFCCL."""

    name = "ring512"

    def __init__(self, seed, quick=False):
        del seed  # the workload has no random input
        self.ranks = 64 if quick else 512
        self.iterations = 2

    def setup(self, call=untraced_call):
        from repro.api import make_backend
        from repro.common.types import CollectiveKind, CollectiveSpec
        from repro.gpusim import HostProgram, build_cluster, fat_tree_spec

        cluster = build_cluster(fat_tree_spec(self.ranks))
        backend = make_backend("dfccl", cluster, chunk_bytes=128 << 10,
                               algorithm="ring")
        group = backend.new_group(list(range(self.ranks)))
        spec = CollectiveSpec(CollectiveKind.ALL_REDUCE, (1 << 20) // 4)
        group.ensure_collective(spec)

        def build_programs():
            programs = []
            for rank in group.ranks:
                ops = []
                for _ in range(self.iterations):
                    ops.extend(group.collective(rank, spec).ops())
                ops.extend(backend.finalize_ops(rank))
                programs.append(HostProgram(ops))
            cluster.add_hosts(programs)

        call("api.program_build", build_programs)
        return [Arm(cluster, backend)]


class Disorder8(Workload):
    """Sec. 6.1 random-order program: 8 all-reduces, per-rank seeded order."""

    name = "disorder8"
    seeded = True

    def __init__(self, seed, quick=False):
        self.seed = seed
        self.iterations = 4 if quick else 20
        self.num_collectives = 8

    def setup(self, call=untraced_call):
        from repro.api import make_backend, wait_all
        from repro.common.rng import DeterministicRNG
        from repro.common.types import CollectiveKind, CollectiveSpec
        from repro.gpusim import HostProgram, build_cluster

        rng = DeterministicRNG(self.seed)
        counts = [(256 << index) // 4 for index in range(self.num_collectives)]
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group(list(range(8)))
        for coll_id, count in enumerate(counts):
            group.ensure_collective(
                CollectiveSpec(CollectiveKind.ALL_REDUCE, count), key=coll_id)

        def build_programs():
            programs = []
            for rank in group.ranks:
                ops = []
                for iteration in range(self.iterations):
                    order = rng.child("order", rank, iteration).permutation(
                        self.num_collectives)
                    works = [group.all_reduce(rank, counts[coll_id], key=coll_id)
                             for coll_id in order]
                    ops.extend(work.submit_op() for work in works)
                    ops.extend(wait_all(works))
                ops.extend(backend.finalize_ops(rank))
                programs.append(HostProgram(ops))
            cluster.add_hosts(programs)

        call("api.program_build", build_programs)
        return [Arm(cluster, backend)]


class CpZipf(Workload):
    """Open-loop Zipf job stream under the preemptive control plane.

    The job multiset is the canonical control-plane stream
    (``controlplane_job_stream(11)``: 14 Zipf-sized data-parallel jobs,
    mean inter-arrival 25 ms, on a saturated 8-GPU cluster).  The seed
    permutes which job arrives in which arrival slot and seeds the launch
    jitter, once per stream; one repetition replays :attr:`streams` such
    streams.  Fresh per-seed streams vary host work by about 45% between
    seeds, more than any bound the benchmark can hold, while a fixed
    multiset keeps the work per repetition constant.
    """

    name = "cpzipf"
    seeded = True
    base_stream_seed = 11

    def __init__(self, seed, quick=False):
        self.seed = seed
        self.streams = 1 if quick else 5
        self.num_jobs = 6 if quick else 14

    def job_specs(self, stream):
        from repro.bench.controlplane_experiments import controlplane_job_stream
        from repro.common.rng import DeterministicRNG

        base = controlplane_job_stream(self.base_stream_seed, num_jobs=self.num_jobs)
        order = DeterministicRNG(self.seed).child("cpzipf", stream).permutation(len(base))
        slots = [spec.arrival_time_us for spec in base]
        return [replace(base[job], arrival_time_us=slots[slot])
                for slot, job in enumerate(order)]

    def setup(self, call=untraced_call):
        from repro.bench.controlplane_experiments import CONTROLPLANE_BLOCKS
        from repro.common.rng import DeterministicRNG
        from repro.controlplane import install_control_plane
        from repro.gpusim import SmInterferenceModel, build_cluster
        from repro.multijob.runtime import make_job_runner

        arms = []
        for stream in range(self.streams):
            cluster = build_cluster("single-3090", deadlock_mode="record",
                                    max_resident_blocks=CONTROLPLANE_BLOCKS,
                                    interference=SmInterferenceModel())
            jitter_seed = DeterministicRNG(self.seed).child("jitter", stream).randint(
                0, 2**31 - 1)
            runner = make_job_runner("dfccl", cluster, launch_jitter_us=300.0,
                                     seed=jitter_seed)
            service = install_control_plane(
                cluster, runner, self.job_specs(stream), policy="packed",
                tenants_per_gpu=1, preemption=True, starvation_boost_us=1_000_000.0)
            arms.append(Arm(cluster, runner.backend, extra={"service": service}))
        return arms

    def run(self, arms, call=untraced_call):
        from repro.bench.controlplane_experiments import CONTROLPLANE_DEADLINE_US

        def report(arm):
            service = arm.extra["service"]
            service.finalize(arm.time_us)
            arm.extra["summary"] = service.summary(arm.time_us)
            arm.extra["jobs"] = service.job_rows()

        for arm in arms:
            arm.time_us = arm.cluster.run(until_us=CONTROLPLANE_DEADLINE_US)
            call("controlplane.report", report, arm)

    def job_metrics(self, arms):
        jobs = [job for arm in arms for job in arm.extra["jobs"]]
        jcts = [job["jct_us"] for job in jobs if job["jct_us"] is not None]
        attained = [job["slo_attained"] for job in jobs]
        makespan = sum(arm.time_us for arm in arms)
        samples = sum(arm.extra["summary"]["aggregate_goodput_samples_per_s"]
                      * arm.time_us for arm in arms)
        return {
            "jct_p50_us": statistics.median(jcts) if jcts else 0.0,
            "slo_attainment": sum(attained) / len(attained),
            "train_samples_per_s": samples / makespan,
        }

    def check(self, arms):
        errors = []
        for index, arm in enumerate(arms):
            summary = arm.extra["summary"]
            for key in ("unfinished", "never_placed"):
                if summary[key]:
                    errors.append(f"stream {index}: {summary[key]} {key} jobs")
            if summary["completed"] != summary["jobs"]:
                errors.append(f"stream {index}: {summary['completed']} of "
                              f"{summary['jobs']} jobs completed")
        return errors

    def tally(self, arms, works, done):
        del works, done  # jobs are the operations here
        attempted = sum(arm.extra["summary"]["jobs"] for arm in arms)
        return attempted, sum(arm.extra["summary"]["completed"] for arm in arms)


class Gpt2ThreeD(Workload):
    """Fig. 13 GPT-2, tp2 x dp2 x pp2 on 8 GPUs: DFCCL and Megatron-NCCL."""

    name = "gpt2-3d"

    def __init__(self, seed, quick=False):
        del seed  # the workload has no random input
        self.iterations = 2 if quick else 4

    def setup(self, call=untraced_call):
        from repro.bench.training_experiments import TRAINING_CHUNK_BYTES
        from repro.gpusim import build_cluster
        from repro.workloads import (GroupTrainingBackend, ParallelPlan, TrainingRun,
                                     gpt2_model)

        plan = ParallelPlan(gpt2_model("small"), tp=2, dp=2, pp=2, microbatch_size=18,
                            num_microbatches=2, grad_buckets=8)
        arms = []
        for label, orchestrator in (("dfccl", "auto"), ("nccl", "megatron")):
            cluster = build_cluster("single-3090")
            training = GroupTrainingBackend(cluster, label, orchestrator=orchestrator,
                                            chunk_bytes=TRAINING_CHUNK_BYTES)
            run = TrainingRun(cluster, plan, training, iterations=self.iterations,
                              warmup=1)
            run.install()
            arms.append(Arm(cluster, training.backend, label=label,
                            extra={"run": run}))
        return arms

    def run(self, arms, call=untraced_call):
        for arm in arms:
            arm.time_us = arm.cluster.run()
            arm.extra["result"] = call("workloads.collect", arm.extra["run"].collect,
                                       arm.time_us)

    def job_metrics(self, arms):
        dfccl, nccl = (arm.extra["result"].throughput_samples_per_s for arm in arms)
        return {"jct_p50_us": arms[0].time_us, "train_samples_per_s": dfccl,
                "dfccl_over_nccl": dfccl / nccl}


WORKLOADS = {cls.name: cls for cls in (Ring512, Disorder8, CpZipf, Gpt2ThreeD)}


# -- judging a repetition --------------------------------------------------------------


def _collective_shape(work):
    """``primitive_count`` arguments for the collective a Work belongs to."""
    holder = getattr(work, "op", None)  # NCCL: the dedicated-kernel op
    if holder is not None:
        chunk = holder.chunk_bytes
    else:  # DFCCL: the registered collective
        holder = work.invocation.coll
        chunk = holder.config.chunk_bytes
    return (holder.spec.kind, len(holder.devices), holder.spec.nbytes, chunk,
            holder.algorithm)


def _executed_primitives(work):
    """Primitives the Work's rank executed, or ``None`` with no executor.

    Read from the executor that actually ran, never compiled anew.
    """
    if hasattr(work, "op"):  # NCCL: the dedicated kernel's executor
        kernel = work.op.kernel(work.group_rank)
        executor = kernel.executor if kernel is not None else None
    else:  # DFCCL: the invocation's cached executor for this rank
        executor = work.invocation.executor_if_cached(work.handle.group_rank)
    return executor.executed_primitives if executor is not None else None


def _latency_tail(latencies):
    """(percentile, value) of the highest percentile with enough samples beyond."""
    ordered = sorted(latencies)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= TAIL_MIN_BEYOND:
            rank = max(1, -(-count * percentile // 100))  # nearest rank
            return percentile, ordered[int(rank) - 1]
    return 50.0, statistics.median(ordered)


def judge(workload, arms, works):
    """Virtual metrics, counts and correctness checks for one repetition."""
    errors = []
    counts = dict.fromkeys(SNAPSHOT_COUNTS, 0)
    for arm in arms:
        snapshot = arm.backend.diagnostics().get("metrics", {})
        for key in SNAPSHOT_COUNTS:
            counts[key] += snapshot.get(key, 0)
        if arm.cluster.engine.deadlock_report is not None:
            errors.append(f"{arm.label} arm: engine deadlock report "
                          f"{arm.cluster.engine.deadlock_report.involved()}")

    done = [work for work in works if work.done and not work.aborted]
    # A job preemption evicts the job's rank processes: their in-flight parts
    # are aborted and their later parts are never submitted.  Nothing else
    # may leave a Work unfinished.
    evicted = [work for work in works if not work.done
               and (work.aborted or work.started_at_us is None)]
    stuck = len(works) - len(done) - len(evicted)
    preemptions = sum(arm.extra["summary"]["preemptions"] for arm in arms
                      if "summary" in arm.extra)
    if stuck:
        errors.append(f"{stuck} submitted Works neither done nor aborted")
    if evicted and not preemptions:
        errors.append(f"{len(evicted)} Works aborted or never submitted "
                      "without a job preemption")

    from repro.collectives.sequences import primitive_count

    expected_by_shape = {}
    dfccl_expected = dfccl_executed = nccl_executed = 0
    done_ids = {id(work) for work in done}
    for work in works:
        executed = _executed_primitives(work)
        if hasattr(work, "op"):
            nccl_executed += executed or 0
        else:
            dfccl_executed += executed or 0
        if id(work) not in done_ids:
            continue  # evicted: its rank ran part of its sequence, or none
        shape = _collective_shape(work)
        expected = expected_by_shape.get(shape)
        if expected is None:
            kind, size, nbytes, chunk, algorithm = shape
            expected = expected_by_shape[shape] = primitive_count(
                kind, size, nbytes, chunk, algorithm=algorithm)
        if executed != expected:
            errors.append(f"{work!r}: executed {executed} primitives, "
                          f"primitive_count says {expected}")
        if not hasattr(work, "op"):
            dfccl_expected += expected
    daemon = counts["daemon_primitives_executed"]
    if daemon != dfccl_executed:
        errors.append(f"daemons executed {daemon} primitives, the Works' "
                      f"executors {dfccl_executed}")
    if daemon < dfccl_expected:
        errors.append(f"daemons executed {daemon} primitives, the completed "
                      f"Works expect at least {dfccl_expected}")
    counts["primitives"] = daemon + nccl_executed

    # Latency is the system under test's: the NCCL arm of gpt2-3d is only
    # the reference for dfccl_over_nccl.
    latencies = [work.finished_at_us - work.started_at_us for work in done
                 if not hasattr(work, "op")]
    percentile, tail = _latency_tail(latencies)
    virtual = {
        "virtual_time_us": sum(arm.time_us for arm in arms if arm.label == "dfccl"),
        "coll_latency_p50_us": statistics.median(latencies),
        "coll_latency_tail_us": tail,
        **workload.job_metrics(arms),
    }
    not_applicable = [key for key in OPTIONAL_METRICS if key not in virtual]
    virtual.update(dict.fromkeys(not_applicable, NOT_APPLICABLE))

    errors.extend(workload.check(arms))
    attempted, completed = workload.tally(arms, works, done)
    return Outcome(virtual=virtual, counts=counts, attempted=attempted,
                   completed=completed,
                   tail={"percentile": percentile, "samples": len(latencies)},
                   not_applicable=not_applicable, errors=errors)
