"""Tests for the collective algorithm layer: channels, primitives, sequences."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import CollectiveKind, DeviceId, PrimitiveAction
from repro.common.vtime import VirtualClock
from repro.collectives import (
    Channel,
    ChunkMessage,
    Communicator,
    CostModel,
    ExecOutcome,
    PrimitiveExecutor,
    chunk_loops,
    generate_primitive_sequence,
    primitive_count,
)
from repro.core.scheduling import AdaptiveSpinPolicy, NaiveSpinPolicy, TaskEntry
from repro.gpusim.cluster import build_cluster

POLL_COST_US = CostModel().poll_cost_us


def make_communicator(size=4):
    cluster = build_cluster("single-3090")
    return Communicator(cluster.devices[:size], cluster.interconnect)


class TestChannel:
    def test_fifo_order(self):
        channel = Channel(DeviceId(0, 0), DeviceId(0, 1))
        for index in range(3):
            channel.push(ChunkMessage(0, index, 0, 64, ready_time_us=0.0))
        assert channel.pop(0.0).chunk_index == 0
        assert channel.pop(0.0).chunk_index == 1

    def test_capacity_limits_writes(self):
        channel = Channel(DeviceId(0, 0), DeviceId(0, 1), capacity=2)
        channel.push(ChunkMessage(0, 0, 0, 64, 0.0))
        channel.push(ChunkMessage(0, 1, 0, 64, 0.0))
        assert not channel.writable()
        with pytest.raises(Exception):
            channel.push(ChunkMessage(0, 2, 0, 64, 0.0))

    def test_readable_respects_max_wait(self):
        channel = Channel(DeviceId(0, 0), DeviceId(0, 1))
        channel.push(ChunkMessage(0, 0, 0, 64, ready_time_us=100.0))
        assert channel.readable()  # unbounded wait
        assert not channel.readable(now_us=0.0, max_wait_us=10.0)
        assert channel.readable(now_us=95.0, max_wait_us=10.0)

    def test_pop_empty_raises(self):
        channel = Channel(DeviceId(0, 0), DeviceId(0, 1))
        with pytest.raises(Exception):
            channel.pop(0.0)


class TestCommunicator:
    def test_ring_neighbours(self):
        comm = make_communicator(4)
        assert comm.ring_next(3) == 0
        assert comm.ring_prev(0) == 3

    def test_channels_are_cached(self):
        comm = make_communicator(2)
        assert comm.channel(0, 1) is comm.channel(0, 1)
        assert comm.channel(0, 1) is not comm.channel(1, 0)

    def test_reset_channels(self):
        comm = make_communicator(2)
        comm.channel(0, 1)
        comm.reset_channels()
        assert comm.channels() == {}


class TestChunkLoops:
    def test_small_payload_single_loop(self):
        assert chunk_loops(1024, 8) == [128]

    def test_large_payload_multiple_loops(self):
        loops = chunk_loops(8 * (128 << 10) * 3, 8)
        assert len(loops) == 3

    def test_broadcast_style_not_sliced(self):
        loops = chunk_loops(256 << 10, 8, per_rank_slices=False)
        assert len(loops) == 2

    def test_rejects_non_positive(self):
        with pytest.raises(Exception):
            chunk_loops(0, 8)

    @given(st.integers(1, 1 << 24), st.integers(2, 16))
    @settings(max_examples=50, deadline=None)
    def test_loops_cover_payload(self, nbytes, group_size):
        loops = chunk_loops(nbytes, group_size)
        covered = sum(size * group_size for size in loops)
        assert covered >= nbytes


class TestSequences:
    @pytest.mark.parametrize("kind,expected", [
        # Ring all-reduce: 2(n-1) communication steps = 2n-1 primitives
        # (the final step is a receive without a send), as in NCCL.
        (CollectiveKind.ALL_REDUCE, 15),
        (CollectiveKind.ALL_GATHER, 8),
        (CollectiveKind.REDUCE_SCATTER, 8),
        (CollectiveKind.BROADCAST, 1),
        (CollectiveKind.REDUCE, 1),
    ])
    def test_primitive_counts_per_loop(self, kind, expected):
        assert primitive_count(kind, 8, nbytes=1024) == expected

    def test_single_rank_collective_is_a_copy(self):
        sequence = generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 0, 1, 1024)
        assert len(sequence) == 1
        assert sequence[0].action == PrimitiveAction.COPY

    def test_all_reduce_structure(self):
        sequence = generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 2, 4, 1024)
        names = [primitive.name for primitive in sequence]
        assert names == ["send", "recvReduceSend", "recvReduceSend",
                         "recvReduceCopySend", "recvCopySend", "recvCopySend", "recv"]

    def test_broadcast_roles(self):
        root_seq = generate_primitive_sequence(CollectiveKind.BROADCAST, 0, 4, 1024, root=0)
        tail_seq = generate_primitive_sequence(CollectiveKind.BROADCAST, 3, 4, 1024, root=0)
        mid_seq = generate_primitive_sequence(CollectiveKind.BROADCAST, 1, 4, 1024, root=0)
        assert root_seq[0].name == "send"
        assert tail_seq[0].name == "recv"
        assert mid_seq[0].name == "recvCopySend"

    def test_reduce_roles(self):
        root_seq = generate_primitive_sequence(CollectiveKind.REDUCE, 0, 4, 1024, root=0)
        start_seq = generate_primitive_sequence(CollectiveKind.REDUCE, 1, 4, 1024, root=0)
        assert root_seq[0].name == "recvReduceCopy"
        assert start_seq[0].name == "send"

    def test_invalid_rank_rejected(self):
        with pytest.raises(Exception):
            generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 9, 4, 1024)

    @given(st.sampled_from(list(CollectiveKind)), st.integers(2, 12),
           st.integers(1, 1 << 22))
    @settings(max_examples=60, deadline=None)
    def test_sequences_balanced_across_ring(self, kind, group_size, nbytes):
        """Every send in the ring has a matching recv on the next rank."""
        if kind is CollectiveKind.SEND_RECV:
            group_size = 2
        sequences = {
            rank: generate_primitive_sequence(kind, rank, group_size, nbytes)
            for rank in range(group_size)
        }
        total_sends = sum(
            1 for seq in sequences.values() for prim in seq if prim.sends
        )
        total_recvs = sum(
            1 for seq in sequences.values() for prim in seq if prim.recvs
        )
        assert total_sends == total_recvs


class _RecordingEngine:
    """Engine stand-in: every key has a waiter and every signal is logged."""

    class _EveryKey(dict):
        def __contains__(self, key):
            return True

    def __init__(self):
        self.waiters_by_key = self._EveryKey()
        self.signals = []

    def signal(self, key, time_us=None):
        self.signals.append((key, time_us))


class _BurstWorld:
    """One communicator's executors, clocks and (optional) daemon entries."""

    def __init__(self, group_size=4, nbytes=64 << 10, capacity=None,
                 start_us=None, policy=None, threshold=None):
        cluster = build_cluster("single-3090")
        self.interconnect = cluster.interconnect
        self.comm = Communicator(cluster.devices[:group_size], cluster.interconnect,
                                 channel_capacity=capacity)
        self.executors = []
        for rank in range(group_size):
            sequence = generate_primitive_sequence(
                CollectiveKind.ALL_REDUCE, rank, group_size, nbytes, chunk_bytes=4096)
            executor = PrimitiveExecutor(0, rank, self.comm, sequence)
            executor.trace = array("d")
            self.executors.append(executor)
        start_us = start_us or [0.0] * group_size
        self.clocks = [VirtualClock(start) for start in start_us]
        self.engine = _RecordingEngine()
        self.policy = policy
        self.entries = [TaskEntry(invocation=None, group_rank=rank, executor=executor)
                        for rank, executor in enumerate(self.executors)]
        for entry in self.entries:
            entry.reset_spin(threshold or 0)

    def max_wait_us(self, rank):
        if self.policy is None:
            return None
        return self.entries[rank].spin_remaining * POLL_COST_US

    def burst(self, rank, budget):
        """The daemon's / NCCL kernel's call: one executor call per step."""
        entry = self.entries[rank]
        on_success = None
        if self.policy is not None:
            def on_success():
                self.policy.on_success(entry)
                return entry.spin_remaining * POLL_COST_US
        outcome = self.executors[rank].try_execute_current(
            self.clocks[rank], self.engine, self.max_wait_us(rank), budget, on_success)
        return outcome.outcome, outcome.primitive, outcome.executed

    def single_steps(self, rank, budget):
        """Reference: ``budget`` one-primitive calls, stopping at a wait."""
        executed = 0
        while executed < budget:
            outcome = self.executors[rank].try_execute_current(
                self.clocks[rank], self.engine, self.max_wait_us(rank))
            if outcome.outcome is not ExecOutcome.SUCCESS:
                return outcome.outcome, outcome.primitive, executed
            executed += 1
            if self.policy is not None:
                self.policy.on_success(self.entries[rank])
        return ExecOutcome.SUCCESS, outcome.primitive, executed

    def spin(self, rank):
        """What a caller does after a wait: burn time, shrink the spin budget."""
        self.clocks[rank].advance(3.0)
        self.entries[rank].spin_remaining //= 2

    def state(self):
        names = {}
        for key, channel in self.comm.channels().items():
            names[channel.readable_key] = ("readable", key)
            names[channel.writable_key] = ("writable", key)
        channels = {
            key: ([(m.collective_id, m.chunk_index, m.step, m.nbytes, m.ready_time_us)
                   for m in channel._fifo],
                  channel.pushed_count, channel.popped_count, channel.bytes_pushed)
            for key, channel in self.comm.channels().items()
        }
        return {
            "positions": [executor.position for executor in self.executors],
            "executed": [executor.executed_primitives for executor in self.executors],
            "clocks": [clock.now for clock in self.clocks],
            "traces": [list(executor.trace) for executor in self.executors],
            "spin": [(entry.spin_threshold, entry.spin_remaining)
                     for entry in self.entries],
            "channels": channels,
            "signals": [(names[key], time_us) for key, time_us in self.engine.signals],
        }


def _drive_burst_equivalence(make_world, budgets, bump_round=None, rounds=400):
    """Step two identical worlds round-robin, one with ``budget=N`` calls and
    one with N single calls, asserting identical state after every step.

    Returns the outcomes that ended a burst after at least one primitive.
    """
    bursts, singles = make_world(), make_world()
    mid_burst = set()
    turn = 0
    for round_index in range(rounds):
        if round_index == bump_round:
            for world in (bursts, singles):
                world.interconnect.degrade_link(world.comm.device_id(0),
                                                world.comm.device_id(1), beta_factor=8.0)
        if all(executor.done() for executor in bursts.executors):
            break
        for rank in range(len(bursts.executors)):
            budget = budgets[turn % len(budgets)]
            turn += 1
            result = bursts.burst(rank, budget)
            assert result == singles.single_steps(rank, budget)
            kind, _, executed = result
            if executed and kind is not ExecOutcome.SUCCESS:
                mid_burst.add(kind)
            if kind in (ExecOutcome.WAIT_RECV, ExecOutcome.WAIT_SEND):
                bursts.spin(rank)
                singles.spin(rank)
            assert bursts.state() == singles.state()
    assert all(executor.done() for executor in bursts.executors)
    return mid_burst


class TestPrimitiveExecutor:
    def _executors(self, kind=CollectiveKind.ALL_REDUCE, group_size=4, nbytes=4096):
        comm = make_communicator(group_size)
        executors = []
        for rank in range(group_size):
            sequence = generate_primitive_sequence(kind, rank, group_size, nbytes)
            executors.append(PrimitiveExecutor(0, rank, comm, sequence))
        return executors

    def test_round_robin_execution_completes(self):
        executors = self._executors()
        clocks = [VirtualClock() for _ in executors]
        for _ in range(1000):
            if all(executor.done() for executor in executors):
                break
            for executor, clock in zip(executors, clocks):
                executor.try_execute_current(clock)
        assert all(executor.done() for executor in executors)

    def test_wait_recv_reported_when_channel_empty(self):
        executors = self._executors()
        clock = VirtualClock()
        # First primitive (send) succeeds, second (recvReduceSend) must wait.
        assert executors[0].try_execute_current(clock).outcome is ExecOutcome.SUCCESS
        outcome = executors[0].try_execute_current(clock)
        assert outcome.outcome is ExecOutcome.WAIT_RECV
        assert outcome.wait_key is not None

    def test_context_save_restore(self):
        executors = self._executors()
        clock = VirtualClock()
        executors[0].try_execute_current(clock)
        saved = executors[0].save_dynamic_context()
        assert saved == {"position": 1}
        executors[0].load_dynamic_context({"position": 0})
        assert executors[0].position == 0

    def test_progress_fraction(self):
        executors = self._executors()
        assert executors[0].progress_fraction() == 0.0
        clock = VirtualClock()
        executors[0].try_execute_current(clock)
        assert 0.0 < executors[0].progress_fraction() < 1.0

    def test_all_done_outcome(self):
        comm = make_communicator(1)
        sequence = generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 0, 1, 64)
        executor = PrimitiveExecutor(0, 0, comm, sequence)
        clock = VirtualClock()
        assert executor.try_execute_current(clock).outcome is ExecOutcome.SUCCESS
        assert executor.try_execute_current(clock).outcome is ExecOutcome.ALL_DONE

    # -- bursts: ``try_execute_current(budget=N)`` equals N ``budget=1`` calls

    def test_burst_equals_single_calls_and_stops_on_every_outcome(self):
        mid_burst = _drive_burst_equivalence(
            lambda: _BurstWorld(capacity=2), budgets=(3, 1, 5, 8, 2))
        assert mid_burst == {ExecOutcome.WAIT_RECV, ExecOutcome.WAIT_SEND,
                             ExecOutcome.ALL_DONE}

    def test_link_epoch_bump_between_bursts(self):
        _drive_burst_equivalence(lambda: _BurstWorld(), budgets=(4, 7), bump_round=3)
        # The bump is visible: the degraded run ends later than an undisturbed one.
        degraded, plain = _BurstWorld(), _BurstWorld()
        for world, bump in ((degraded, True), (plain, False)):
            for round_index in range(400):
                if bump and round_index == 3:
                    world.interconnect.degrade_link(world.comm.device_id(0),
                                                    world.comm.device_id(1),
                                                    beta_factor=8.0)
                for rank in range(4):
                    world.burst(rank, 4)
        assert all(executor.done() for executor in degraded.executors)
        assert max(degraded.state()["clocks"]) > max(plain.state()["clocks"])

    @pytest.mark.parametrize("policy", [
        AdaptiveSpinPolicy(initial=20_000, minimum=2_000, boost=20.0),
        NaiveSpinPolicy(threshold=10_000),
    ], ids=["adaptive", "naive"])
    def test_daemon_burst_keeps_spin_policy_exact(self, policy):
        # Staggered clocks make data arrive in the receivers' future, so the
        # spin budget decides which primitives may wait for it.
        mid_burst = _drive_burst_equivalence(
            lambda: _BurstWorld(start_us=[0.0, 40.0, 80.0, 120.0], policy=policy,
                                threshold=2_000),
            budgets=(8, 3, 16))
        assert ExecOutcome.WAIT_RECV in mid_burst

    def test_adaptive_threshold_climbs_inside_one_burst(self):
        policy = AdaptiveSpinPolicy(initial=20_000, minimum=2_000, boost=20.0)
        worlds = []
        for _ in range(2):
            # Rank 1 runs ahead: its first chunk reaches rank 0 about 50 us in
            # rank 0's future, beyond 2,000 polls but within 40,000.
            world = _BurstWorld(group_size=2, start_us=[0.0, 50.0], policy=policy,
                                threshold=2_000)
            assert world.burst(1, 1) == (ExecOutcome.SUCCESS,
                                         world.executors[1].primitives[0], 1)
            worlds.append(world)
        bursts, singles = worlds
        assert 2_000 * POLL_COST_US < bursts.comm.channel(1, 0)._fifo[0].ready_time_us \
            < 40_000 * POLL_COST_US
        kind, _, executed = bursts.burst(0, 8)
        assert (kind, executed) == (ExecOutcome.WAIT_RECV, 2)
        assert singles.single_steps(0, 8)[::2] == (kind, executed)
        assert bursts.entries[0].spin_threshold == 400_000
        assert bursts.entries[0].spin_remaining == 400_000
        assert bursts.state() == singles.state()

    def test_zero_progress_call_leaves_state_untouched(self):
        world = _BurstWorld(group_size=2)
        executor = world.executors[0]
        assert world.burst(0, 1)[0] is ExecOutcome.SUCCESS
        world.comm.channel(1, 0)  # the recv check would create it lazily
        before = world.state()
        outcome = executor.try_execute_current(world.clocks[0], world.engine, budget=8)
        assert (outcome.outcome, outcome.executed) == (ExecOutcome.WAIT_RECV, 0)
        assert world.state() == before


class TestCostModel:
    def test_primitive_time_includes_overhead(self):
        model = CostModel()
        assert model.primitive_time_us(0) >= model.primitive_overhead_us

    def test_transfer_dominates_for_slow_link(self):
        from repro.gpusim.interconnect import LinkSpec
        from repro.common.types import LinkType
        model = CostModel()
        link = LinkSpec.of(LinkType.RDMA)
        with_send = model.primitive_time_us(1 << 20, link=link, sends=True)
        without = model.primitive_time_us(1 << 20, link=None, sends=False)
        assert with_send > without


class TestTreeRelations:
    def test_binary_tree_heap_shape(self):
        from repro.collectives import binary_tree_relations
        parent, children = binary_tree_relations(0, 7)
        assert parent is None
        assert children == [1, 2]
        parent, children = binary_tree_relations(1, 7)
        assert parent == 0
        assert children == [3, 4]

    def test_mirror_tree_flips_roles(self):
        from repro.collectives import binary_tree_relations
        parent, children = binary_tree_relations(6, 7, mirror=True)
        assert parent is None  # rank n-1 is the mirror-tree root
        parent, _ = binary_tree_relations(0, 7, mirror=True)
        assert parent is not None

    def test_double_tree_interior_leaf_balance(self):
        """No rank is interior in both trees: the interior work of the two
        complementary trees lands on disjoint rank sets."""
        from repro.collectives import binary_tree_relations
        for size in (7, 8, 15, 16):
            for rank in range(size):
                _, children0 = binary_tree_relations(rank, size)
                _, children1 = binary_tree_relations(rank, size, mirror=True)
                assert not (children0 and children1)

    def test_binomial_tree_parents(self):
        from repro.collectives import binomial_tree_relations
        parent, children = binomial_tree_relations(0, 8, root=0)
        assert parent is None
        assert sorted(children) == [1, 2, 4]
        parent, _ = binomial_tree_relations(5, 8, root=0)
        assert parent == 1  # 5 = 0b101 -> clear high bit -> 1

    def test_binomial_tree_respects_root(self):
        from repro.collectives import binomial_tree_relations
        parent, _ = binomial_tree_relations(3, 8, root=3)
        assert parent is None

    def test_binomial_edges_cover_all_ranks(self):
        from repro.collectives import binomial_tree_relations
        for size in (2, 3, 5, 8, 13):
            for root in (0, 1):
                seen = set()
                for rank in range(size):
                    parent, _ = binomial_tree_relations(rank, size, root=root)
                    if parent is None:
                        seen.add(rank)
                    else:
                        seen.add(rank)
                        assert 0 <= parent < size
                assert seen == set(range(size))


class TestTreeSequences:
    def test_tree_allreduce_root_structure(self):
        sequence = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 0, 8, 1024, algorithm="tree")
        names = [primitive.name for primitive in sequence]
        # Small payload: single tree; the heap root reduces both children then
        # broadcasts back down.
        assert names == ["recvReduceCopy", "recvReduceCopy", "send", "send"]

    def test_tree_allreduce_leaf_structure(self):
        sequence = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 7, 8, 1024, algorithm="tree")
        names = [primitive.name for primitive in sequence]
        assert names == ["send", "recv"]

    def test_tree_allreduce_splits_large_payloads(self):
        from repro.collectives.sequences import TREE_SPLIT_MIN_BYTES
        small = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 0, 8, 1024, algorithm="tree")
        large = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 0, 8, TREE_SPLIT_MIN_BYTES,
            algorithm="tree", chunk_bytes=TREE_SPLIT_MIN_BYTES)
        # Above the split threshold the rank participates in both trees.
        assert len(large) > len(small)

    def test_tree_broadcast_roles(self):
        root_seq = generate_primitive_sequence(
            CollectiveKind.BROADCAST, 0, 8, 1024, algorithm="tree")
        assert all(primitive.name == "send" for primitive in root_seq)
        leaf_seq = generate_primitive_sequence(
            CollectiveKind.BROADCAST, 7, 8, 1024, algorithm="tree")
        assert [primitive.name for primitive in leaf_seq] == ["recv"]

    def test_tree_falls_back_to_ring_for_all_gather(self):
        ring = generate_primitive_sequence(
            CollectiveKind.ALL_GATHER, 2, 8, 4096, algorithm="ring")
        tree = generate_primitive_sequence(
            CollectiveKind.ALL_GATHER, 2, 8, 4096, algorithm="tree")
        assert [p.name for p in ring] == [p.name for p in tree]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(Exception):
            generate_primitive_sequence(
                CollectiveKind.ALL_REDUCE, 0, 8, 1024, algorithm="butterfly")

    @given(st.sampled_from([CollectiveKind.ALL_REDUCE, CollectiveKind.BROADCAST,
                            CollectiveKind.REDUCE]),
           st.integers(2, 17), st.integers(1, 1 << 16), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_tree_moves_byte_identical_totals_to_ring(self, kind, group_size,
                                                      per_rank_bytes, root):
        """Tree sequences deliver exactly the bytes the ring delivers.

        The totals of received and reduced bytes across all ranks are
        algorithm-invariant (payload chosen divisible by the group size so
        the ring's slice padding does not kick in).
        """
        nbytes = per_rank_bytes * group_size
        root = root % group_size

        def totals(algorithm):
            recv_bytes = reduce_bytes = 0
            for rank in range(group_size):
                sequence = generate_primitive_sequence(
                    kind, rank, group_size, nbytes, chunk_bytes=1 << 30,
                    root=root, algorithm=algorithm)
                for primitive in sequence:
                    if primitive.action & PrimitiveAction.RECV:
                        recv_bytes += primitive.nbytes
                    if primitive.action & PrimitiveAction.REDUCE:
                        reduce_bytes += primitive.nbytes
            return recv_bytes, reduce_bytes

        assert totals("tree") == totals("ring")

    @given(st.sampled_from([CollectiveKind.ALL_REDUCE, CollectiveKind.BROADCAST,
                            CollectiveKind.REDUCE]),
           st.integers(2, 16), st.integers(1, 1 << 19))
    @settings(max_examples=25, deadline=None)
    def test_tree_sequences_run_to_completion(self, kind, group_size, nbytes):
        """Every rank's tree sequence completes under round-robin execution
        (no deadlock or livelock among the generated primitives)."""
        cluster = build_cluster("dual-3090")
        comm = Communicator(cluster.devices[:group_size], cluster.interconnect)
        executors = []
        for rank in range(group_size):
            sequence = generate_primitive_sequence(
                kind, rank, group_size, nbytes, algorithm="tree")
            executors.append(PrimitiveExecutor(0, rank, comm, sequence))
        clocks = [VirtualClock() for _ in executors]
        for _ in range(20_000):
            if all(executor.done() for executor in executors):
                break
            for executor, clock in zip(executors, clocks):
                executor.try_execute_current(clock)
        assert all(executor.done() for executor in executors)
