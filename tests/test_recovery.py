"""Elastic recovery, daemon generation turnover and communicator-pool recycling."""

import pytest

from repro.api import make_backend
from repro.collectives.sequences import (
    generate_primitive_sequence,
    hierarchical_island_size,
)
from repro.common.errors import ConfigurationError, InvalidStateError
from repro.common.types import CollectiveKind, CollectiveSpec
from repro.core import CommunicatorPool, DfcclConfig
from repro.core import registration
from repro.faults import FaultPlan, install_fault_plan, run_dfccl_chaos
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import DeviceSynchronize

pytestmark = pytest.mark.timeout(300)


def run_simple(config=None, num_gpus=2, coll_sizes=(1024, 1024), with_sync=False,
               orders=None, iterations=1):
    """Run all-reduces keyed ``0..`` (collective id = key) in per-rank orders."""
    cluster = build_cluster("single-3090")
    backend = make_backend("dfccl", cluster, config=config)
    ranks = list(range(num_gpus))
    group = backend.new_group(ranks)
    for coll_id, count in enumerate(coll_sizes):
        group.ensure_collective(
            CollectiveSpec(CollectiveKind.ALL_REDUCE, count), key=coll_id)
    programs = []
    for rank in ranks:
        ops = []
        for iteration in range(iterations):
            order = orders(rank, iteration) if orders else list(range(len(coll_sizes)))
            works = [group.all_reduce(rank, coll_sizes[coll_id], key=coll_id)
                     for coll_id in order]
            for index, work in enumerate(works):
                ops.append(work.submit_op())
                if with_sync and index == 0:
                    ops.append(DeviceSynchronize())
            ops += [work.wait_op() for work in works]
        ops += backend.finalize_ops(rank)
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)
    final_time = cluster.run()
    return cluster, backend, final_time


def _group(ranks, config=None, topology="single-3090"):
    """A DFCCL process group over ``ranks``; returns (cluster, backend, group)."""
    cluster = build_cluster(topology)
    backend = make_backend("dfccl", cluster, config=config)
    return cluster, backend, backend.new_group(ranks)


def _register(backend, group, kind, count, key=None, **fields):
    """Register one logical collective of ``group``; returns it."""
    return backend.ensure_collective(
        group, CollectiveSpec(kind, count, **fields), key)


def _programs(backend, works, finalize=True):
    """One host program per work: submit, wait, then (optionally) teardown."""
    return [HostProgram(work.ops()
                        + (backend.finalize_ops(work.rank) if finalize else []))
            for work in works]


class TestDaemonGenerationTurnover:
    def test_voluntary_quit_relaunches_with_new_generation(self):
        """Quit -> relaunch: the generation counter advances and work finishes."""
        _, backend, _ = run_simple(
            orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0],
            with_sync=True,
        )
        context = backend.dfccl.contexts[0]
        stats = backend.stats(0)
        assert stats.voluntary_quits >= 1
        assert stats.launches == stats.voluntary_quits + stats.final_exits
        assert context.daemon_generation == stats.launches
        assert stats.cqes_written == 2
        assert context.finally_exited

    def test_recovery_restart_bumps_generation(self):
        """A crash forces a restart: survivors relaunch with fresh executors."""
        plan = FaultPlan(name="crash").add_crash(2, at_us=80.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=4,
                                 num_collectives=1, nbytes=1 << 20, iterations=1)
        assert result.outcome == "completed"
        survivor_stats = [result.daemon_stats[rank]
                          for rank in result.survivor_ranks]
        assert sum(stats.recovery_restarts for stats in survivor_stats) >= 1
        for stats in survivor_stats:
            assert stats.launches >= 2

    def test_pending_entries_survive_generations(self):
        """Collectives fetched by one generation complete under a later one."""
        _, backend, _ = run_simple(
            coll_sizes=(4096, 4096, 4096),
            orders=lambda rank, _: [0, 1, 2] if rank == 0 else [2, 1, 0],
            with_sync=True,
        )
        for rank in (0, 1):
            assert backend.stats(rank).cqes_written == 3


class TestCommunicatorPoolRecycling:
    def _pool(self):
        cluster = build_cluster("single-3090")
        return cluster, CommunicatorPool(cluster.interconnect)

    def test_keys_are_job_and_device_ids(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        key = pool._key(devices)
        assert key == (None, tuple(device.device_id for device in devices))
        assert pool._key(devices, job="job-a") == (
            "job-a", tuple(device.device_id for device in devices)
        )

    def test_release_then_acquire_reuses(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices)
        assert pool.release(comm) is True
        again = pool.acquire(devices)
        assert again is comm
        assert pool.stats()["reused"] == 1

    def test_invalidated_communicator_is_discarded(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices)
        comm.invalidate()
        assert pool.release(comm) is False
        assert pool.acquire(devices) is not comm
        assert pool.stats()["discarded"] == 1

    def test_release_all_for_evicts_spanning_comms(self):
        cluster, pool = self._pool()
        doomed = cluster.device(1)
        comm_a = pool.acquire([cluster.device(0), doomed])
        comm_b = pool.acquire([cluster.device(2), cluster.device(3)])
        pool.release(comm_a)
        pool.release(comm_b)
        dropped = pool.release_all_for([doomed])
        assert dropped == 1
        assert pool.acquire([cluster.device(2), cluster.device(3)]) is comm_b
        assert pool.acquire([cluster.device(0), doomed]) is not comm_a

    def test_unregister_recycles_communicator(self):
        _, backend, group = _group([0, 1])
        dfccl = backend.dfccl
        coll = _register(backend, group, CollectiveKind.ALL_REDUCE, 256, key=0)
        comm = coll.communicator
        dfccl.unregister_collective(0)
        assert dfccl.contexts[0].context_buffer.__contains__(0) is False
        recycled = _register(backend, group, CollectiveKind.ALL_REDUCE, 256, key=1)
        assert recycled.communicator is comm
        assert dfccl.pool.stats()["reused"] == 1

    def test_unregister_failure_invalidated_communicator_not_reused(self):
        _, backend, group = _group([0, 1])
        dfccl = backend.dfccl
        coll = _register(backend, group, CollectiveKind.ALL_REDUCE, 256, key=0)
        coll.communicator.invalidate()
        comm = coll.communicator
        dfccl.unregister_collective(0)
        fresh = _register(backend, group, CollectiveKind.ALL_REDUCE, 256, key=1)
        assert fresh.communicator is not comm
        assert dfccl.pool.stats()["discarded"] == 1

    def test_unregister_unknown_collective_raises(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        with pytest.raises(ConfigurationError):
            backend.dfccl.unregister_collective(99)


class TestRecoveryMechanics:
    def test_crash_shrinks_group_and_replaces_communicator(self):
        plan = FaultPlan(name="crash").add_crash(1, at_us=80.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=3,
                                 num_collectives=1, nbytes=1 << 20, iterations=1)
        assert result.outcome == "completed"
        event = result.recovery["events"][0]
        assert event["failed_ranks"] == (1,)
        assert event["survivor_ranks"] == (0, 2)
        assert event["generation"] == 1
        assert event["detection_latency_us"] > 0

    def test_double_crash_shrinks_twice(self):
        plan = (FaultPlan(name="double")
                .add_crash(1, at_us=80.0)
                .add_crash(3, at_us=2600.0))
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=5,
                                 num_collectives=1, nbytes=1 << 20, iterations=3,
                                 deadline_us=60_000.0)
        assert result.outcome == "completed"
        generations = [event["generation"]
                       for event in result.recovery["events"]]
        assert max(generations) == 2
        final_survivors = result.recovery["events"][-1]["survivor_ranks"]
        assert final_survivors == (0, 2, 4)

    def test_straggler_timeout_is_not_treated_as_crash(self):
        config = DfcclConfig(crash_detect_timeout_us=50.0)
        plan = FaultPlan(name="slow").add_straggler(1, at_us=10.0, factor=8.0,
                                                    duration_us=1_000.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=4,
                                 num_collectives=1, nbytes=1 << 20, iterations=1,
                                 config=config)
        assert result.outcome == "completed"
        assert result.recovery["recoveries"] == 0
        assert result.recovery["suspected_stragglers"] >= 1

        # The same straggler driven directly: with no failed device the scan
        # never walks a group, yet it counts scans and suspects exactly as
        # the walking scan did (pinned values).
        cluster, backend, group = _group([0, 1, 2, 3], config)
        works = [group.all_reduce(rank, 1 << 18) for rank in group.ranks]
        cluster.add_hosts(_programs(backend, works))
        install_fault_plan(cluster, plan)
        cluster.run()
        assert works[0].invocation.fully_complete()
        stats = backend.dfccl.recovery_manager.stats
        assert cluster.engine.device_failures == 0
        assert (stats.scans, stats.suspected_stragglers, stats.recoveries) == (5, 1, 0)

    def test_recovery_disabled_config_spawns_no_manager(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster,
                               config=DfcclConfig(recovery_enabled=False))
        assert backend.dfccl.recovery_manager is None

    def test_dead_root_broadcast_is_abandoned_not_rerooted(self):
        """A rooted collective whose root died cannot be re-formed."""
        cluster, backend, group = _group([0, 1, 2])
        # Payload large enough that the root is still sending chunks when it
        # dies (a smaller broadcast can legitimately finish from the chunks
        # already persisted in the connectors).
        works = [group.broadcast(rank, 1 << 21, root=1) for rank in group.ranks]
        coll = works[0].invocation.coll
        cluster.add_hosts(_programs(backend, works, finalize=False))
        install_fault_plan(cluster,
                           FaultPlan(name="root-crash").add_crash(1, at_us=40.0))
        cluster.run(until_us=20_000.0)
        manager = backend.dfccl.recovery_manager
        assert coll.abandoned
        assert manager.stats.abandoned >= 1
        assert manager.stats.recoveries == 0
        # Survivors cannot have completed a broadcast without its root.
        invocation = coll.invocation(0)
        assert not invocation.is_done(0) and not invocation.is_done(2)

    def test_completed_root_with_dead_peer_abandons_instead_of_crashing(self):
        """Root finished sending, then a non-root peer dies: the rerun set
        excludes the root, whose sends cannot be replayed — the collective is
        abandoned without the recovery path blowing up the simulation."""
        cluster, backend, group = _group([0, 1, 2, 3])
        coll = _register(backend, group, CollectiveKind.BROADCAST, 1 << 20, root=0)
        invocation = coll.invocation(0)
        invocation.mark_gpu_complete(0, 10.0)   # root's part is done
        cluster.device(2).fail(20.0)
        manager = backend.dfccl.recovery_manager
        manager._recover_collective(coll, [2], now=30.0)  # must not raise
        assert coll.abandoned
        assert manager.stats.abandoned == 1
        assert manager.stats.recoveries == 0
        # And the scan skips an abandoned collective instead of retrying.
        backend.dfccl.contexts[1]._inflight[invocation] = 0.0
        backend.dfccl.contexts[1].outstanding += 1
        manager._scan(now=10_000.0)
        assert manager.stats.abandoned == 1

    def test_unregister_after_crash_recovery_succeeds(self):
        """Recovery leaves the collective unregisterable: dead-rank contexts
        are cleaned up unconditionally and the rebuilt communicator recycles."""
        cluster, backend, group = _group([0, 1, 2])
        works = [group.all_reduce(rank, 1 << 18) for rank in group.ranks]
        coll = works[0].invocation.coll
        cluster.add_hosts(_programs(backend, works))
        install_fault_plan(cluster,
                           FaultPlan(name="crash").add_crash(1, at_us=30.0))
        cluster.run(until_us=60_000.0)
        assert coll.invocation(0).fully_complete()
        backend.dfccl.unregister_collective(0)  # must not raise for the dead rank
        assert backend.dfccl.pool.stats()["free"] >= 1

    def test_unregister_with_inflight_invocation_raises(self):
        cluster, backend, group = _group([0, 1])
        dfccl = backend.dfccl
        works = {rank: group.all_reduce(rank, 256) for rank in group.ranks}
        # Rank 0 submits up front (its program only waits); rank 1 submits
        # from its program as usual.
        dfccl.contexts[0].submit_invocation(works[0].handle, 0.0)
        cluster.add_hosts([
            HostProgram([works[0].wait_op()] + backend.finalize_ops(0)),
            HostProgram(works[1].ops() + backend.finalize_ops(1)),
        ])
        with pytest.raises(InvalidStateError):
            dfccl.unregister_collective(0)
        # The rejected unregister must leave the backend fully consistent:
        # the collective is still registered everywhere and the run works.
        assert dfccl._collectives[0] is not None
        assert 0 in dfccl.contexts[0].registered
        assert 0 in dfccl.contexts[1].registered
        cluster.run()
        dfccl.unregister_collective(0)
        assert dfccl.pool.stats()["free"] == 1


def _fresh_sequence(coll, group_rank, participants):
    """``group_rank``'s sequence compiled from scratch over ``participants``."""
    participants = list(participants)
    return generate_primitive_sequence(
        coll.spec.kind, participants.index(group_rank), len(participants),
        coll.spec.nbytes, chunk_bytes=coll.config.chunk_bytes, root=0,
        algorithm=coll.algorithm,
        island_size=hierarchical_island_size(
            coll.devices[rank].device_id.node for rank in participants),
    )


class TestCompiledSequences:
    def test_invocations_share_one_compile_per_rank(self, monkeypatch):
        """Two invocations compile each rank's sequence once; every
        invocation still gets its own executor (its own position)."""
        compiled = []
        generate = registration.generate_primitive_sequence

        def counting(*args, **kwargs):
            compiled.append(args[1])
            return generate(*args, **kwargs)

        monkeypatch.setattr(registration, "generate_primitive_sequence", counting)
        _, backend, _ = run_simple(num_gpus=4, coll_sizes=(1 << 16,),
                                   iterations=2)
        assert sorted(compiled) == [0, 1, 2, 3]
        coll = backend.dfccl._collectives[0]
        for rank in range(4):
            first = coll.invocation(0).executor_if_cached(rank)
            second = coll.invocation(1).executor_if_cached(rank)
            assert first is not second
            assert first.primitives is second.primitives
            assert first.done() and second.done()

    def _hierarchical_group(self):
        # Group ranks 0..3 on global ranks 0, 1, 8, 9: two nodes, islands of 2.
        cluster, backend, group = _group(
            [0, 1, 8, 9], DfcclConfig(algorithm="hierarchical"), "dual-3090")
        coll = _register(backend, group, CollectiveKind.ALL_REDUCE, 1 << 18)
        return cluster, backend, coll

    def test_no_stale_sequence_after_shrink_rerun_and_grow(self):
        cluster, backend, coll = self._hierarchical_group()
        manager = backend.dfccl.recovery_manager
        assert coll.algorithm == "hierarchical"
        first = coll.invocation(0)
        before = {rank: first.executor_for(rank).primitives for rank in range(4)}
        assert list(before[3]) == _fresh_sequence(coll, 3, range(4))

        # Crash-shrink while rank 0 already finished invocation 0: the rerun
        # spans the unfinished survivors 1 and 2 only.
        first.mark_gpu_complete(0, 10.0)
        cluster.device(9).fail(20.0)
        manager._recover_collective(coll, [3], now=30.0)
        assert coll.active_ranks() == [0, 1, 2]
        for rank in (1, 2):
            rerun = first.executor_for(rank)
            assert list(rerun.primitives) == _fresh_sequence(coll, rank, [1, 2])
        shrunk = coll.invocation(1).executor_for(2)
        assert list(shrunk.primitives) == _fresh_sequence(coll, 2, [0, 1, 2])

        # Rejoin group rank 3 on global rank 2 (node 0): the islands are no
        # longer equal, so the pre-crash hierarchical sequence is stale.
        manager.rejoin(coll, {3: 2}, now=40.0)
        assert coll.active_ranks() == [0, 1, 2, 3]
        regrown = coll.invocation(2).executor_for(3)
        assert list(regrown.primitives) == _fresh_sequence(coll, 3, range(4))
        assert regrown.primitives != before[3]

    def test_active_ranks_follow_shrink_and_grow(self):
        cluster, backend, coll = self._hierarchical_group()
        manager = backend.dfccl.recovery_manager

        def recomputed():
            return [rank for rank in range(len(coll.devices))
                    if rank not in coll.excluded_ranks]

        returned = coll.active_ranks()
        returned.remove(0)
        returned.append(7)
        assert coll.active_ranks() == recomputed() == [0, 1, 2, 3]

        cluster.device(8).fail(10.0)
        manager._recover_collective(coll, [2], now=20.0)
        assert coll.active_ranks() == recomputed() == [0, 1, 3]
        assert type(coll.active_ranks()) is list
        assert coll.active_devices() == [coll.devices[rank] for rank in (0, 1, 3)]
        assert coll.invocation(0).expected_ranks() == {0, 1, 3}

        manager.rejoin(coll, {2: 10}, now=30.0)
        assert coll.active_ranks() == recomputed() == [0, 1, 2, 3]
        assert coll.active_devices()[2] is cluster.device(10)
        assert coll.invocation(1).expected_ranks() == {0, 1, 2, 3}
