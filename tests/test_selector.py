"""Tests for topology-aware ring-vs-tree algorithm selection."""

import pytest

from repro.common.types import CollectiveKind
from repro.collectives import AlgorithmSelector
from repro.core import DfcclConfig
from repro.bench.collective_perf import measure_collective, sweep_ring_vs_tree
from repro.gpusim import build_cluster


def dual_server_selector():
    cluster = build_cluster("dual-3090")
    device_ids = [device.device_id for device in cluster.devices]
    return AlgorithmSelector(cluster.interconnect), device_ids


class TestAlgorithmSelector:
    def test_small_messages_pick_tree(self):
        selector, device_ids = dual_server_selector()
        choice = selector.choose(CollectiveKind.ALL_REDUCE, 16 << 10, 16, device_ids)
        assert choice.algorithm == "tree"
        assert choice.tree_cost_us < choice.ring_cost_us

    def test_large_messages_pick_ring(self):
        selector, device_ids = dual_server_selector()
        choice = selector.choose(CollectiveKind.ALL_REDUCE, 4 << 20, 16, device_ids)
        assert choice.algorithm == "ring"
        assert choice.ring_cost_us < choice.tree_cost_us

    def test_non_tree_kinds_always_ring(self):
        selector, device_ids = dual_server_selector()
        for kind in (CollectiveKind.ALL_GATHER, CollectiveKind.REDUCE_SCATTER,
                     CollectiveKind.SEND_RECV):
            assert selector.select(kind, 512, 16, device_ids) == "ring"

    def test_tiny_groups_always_ring(self):
        selector, device_ids = dual_server_selector()
        assert selector.select(CollectiveKind.ALL_REDUCE, 512, 2,
                               device_ids[:2]) == "ring"

    def test_resolve_passes_explicit_choices_through(self):
        selector, _ = dual_server_selector()
        assert selector.resolve("ring", CollectiveKind.ALL_REDUCE, 512, 16) == "ring"
        assert selector.resolve("tree", CollectiveKind.ALL_REDUCE, 512, 16) == "tree"
        with pytest.raises(Exception):
            selector.resolve("butterfly", CollectiveKind.ALL_REDUCE, 512, 16)

    def test_selector_without_topology_falls_back(self):
        selector = AlgorithmSelector()
        assert selector.select(CollectiveKind.ALL_REDUCE, 512, 8) in ("ring", "tree")


class TestConfigWiring:
    def test_config_validates_algorithm(self):
        DfcclConfig(algorithm="auto").validate()
        with pytest.raises(ValueError):
            DfcclConfig(algorithm="butterfly").validate()

    def test_registered_collective_resolves_auto(self):
        from repro.api import make_backend

        cluster = build_cluster("dual-3090")
        group = make_backend("dfccl", cluster,
                             config=DfcclConfig(algorithm="auto")).new_group()
        small = group.all_reduce(0, count=1 << 12).invocation.coll
        large = group.all_reduce(0, count=1 << 20).invocation.coll
        assert small.algorithm == "tree"
        assert large.algorithm == "ring"

    def test_nccl_backend_resolves_auto(self):
        from repro.api import make_backend

        cluster = build_cluster("dual-3090")
        group = make_backend("nccl", cluster, algorithm="auto").new_group()
        op = group.all_reduce(0, count=1 << 12).op
        assert op.algorithm == "tree"


class TestSimulatedCrossover:
    def test_tree_beats_ring_for_small_messages(self):
        """16 GPUs over two nodes: tree all-reduce wins the latency-bound
        small-message regime (<= 64 KiB), ring wins the bandwidth regime."""
        small_ring = measure_collective("nccl", "all_reduce", 64 << 10, 16,
                                        "dual-3090", iterations=1,
                                        algorithm="ring")
        small_tree = measure_collective("nccl", "all_reduce", 64 << 10, 16,
                                        "dual-3090", iterations=1,
                                        algorithm="tree")
        assert small_tree["latency_us"] < small_ring["latency_us"]

        large_ring = measure_collective("nccl", "all_reduce", 4 << 20, 16,
                                        "dual-3090", iterations=1,
                                        algorithm="ring")
        large_tree = measure_collective("nccl", "all_reduce", 4 << 20, 16,
                                        "dual-3090", iterations=1,
                                        algorithm="tree")
        assert large_ring["latency_us"] < large_tree["latency_us"]

    def test_auto_tracks_the_winner_across_the_crossover(self):
        rows = sweep_ring_vs_tree(sizes=[16 << 10, 4 << 20], iterations=1)
        for row in rows:
            assert row["auto_algorithm"] == row["winner"]
            assert row["auto_latency_us"] == pytest.approx(
                min(row["ring_latency_us"], row["tree_latency_us"]), rel=0.05)


def fat_tree_selector(num_gpus=512):
    cluster = build_cluster(f"fat-tree-{num_gpus}")
    device_ids = [device.device_id for device in cluster.devices]
    return AlgorithmSelector(cluster.interconnect), device_ids


class TestHierarchicalSelection:
    def test_fat_tree_large_messages_pick_hierarchical(self):
        """512 ranks over 64 nodes: hierarchical beats flat ring and tree at 1 MiB."""
        selector, device_ids = fat_tree_selector()
        choice = selector.choose(CollectiveKind.ALL_REDUCE, 1 << 20,
                                 len(device_ids), device_ids)
        assert choice.algorithm == "hierarchical"
        assert choice.hierarchical_cost_us < choice.tree_cost_us
        assert choice.hierarchical_cost_us < choice.ring_cost_us

    def test_fat_tree_small_messages_still_pick_tree(self):
        selector, device_ids = fat_tree_selector()
        choice = selector.choose(CollectiveKind.ALL_REDUCE, 4 << 10,
                                 len(device_ids), device_ids)
        assert choice.algorithm == "tree"
        assert choice.tree_cost_us < choice.hierarchical_cost_us

    def test_two_island_groups_exclude_hierarchical_from_auto(self):
        """Dual-server (k=2) stays on the calibrated ring/tree estimates."""
        selector, device_ids = dual_server_selector()
        choice = selector.choose(CollectiveKind.ALL_REDUCE, 1 << 20, 16, device_ids)
        assert choice.algorithm in ("ring", "tree")
        assert choice.hierarchical_cost_us == float("inf")

    def test_hierarchical_structure_requires_equal_contiguous_islands(self):
        selector, device_ids = fat_tree_selector(64)
        structure = selector.hierarchical_structure(device_ids)
        assert structure is not None
        island_size, islands = structure[0], structure[1]
        assert island_size == 8 and islands == 8
        # A node-interleaved rank order has no contiguous island
        # decomposition (node pattern 0,1,0,1,... instead of 0,0,...,1,1,...).
        interleaved = [device_ids[rank % 8 * 8 + rank // 8] for rank in range(64)]
        assert selector.hierarchical_structure(interleaved) is None

    def test_resolve_accepts_hierarchical(self):
        selector, _ = dual_server_selector()
        assert selector.resolve("hierarchical", CollectiveKind.ALL_REDUCE,
                                512, 16) == "hierarchical"

    def test_config_accepts_hierarchical(self):
        DfcclConfig(algorithm="hierarchical").validate()


class TestTreeInterPodTerm:
    """The tree all-reduce's spine re-traversal cost on two-level fabrics."""

    def test_single_level_topologies_pay_nothing(self):
        # Flat dual-server and one-pod fat-trees have no spine; the inter-pod
        # term must vanish so their calibrated predictions stay unchanged.
        for selector, device_ids in (dual_server_selector(),
                                     fat_tree_selector(32)):
            assert selector._tree_inter_pod_cost_us(1 << 20, device_ids) == 0.0

    def test_two_level_fat_tree_charges_the_spine(self):
        selector, device_ids = fat_tree_selector(512)
        extra = selector._tree_inter_pod_cost_us(1 << 20, device_ids)
        assert extra > 0.0
        with_term = selector.predicted_cost_us(
            "tree", CollectiveKind.ALL_REDUCE, 1 << 20, 512, device_ids)
        without = selector.predicted_cost_us(
            "tree", CollectiveKind.ALL_REDUCE, 1 << 20, 512,
            params=selector.link_parameters(device_ids))
        assert with_term == pytest.approx(without + extra)

    def test_term_scales_with_pod_crossings(self):
        # 512 ranks (16 pods) cross pods more often on the deepest root path
        # than 256 ranks (8 pods): the charge must grow with fabric depth.
        selector_512, ids_512 = fat_tree_selector(512)
        selector_256, ids_256 = fat_tree_selector(256)
        assert (selector_512._tree_inter_pod_cost_us(1 << 20, ids_512)
                > selector_256._tree_inter_pod_cost_us(1 << 20, ids_256))


class TestPredictedCostBreakdown:
    """The per-bucket decomposition must sum to the scalar prediction."""

    def _assert_consistent(self, selector, device_ids, algorithm, kind,
                           nbytes, group_size):
        breakdown = selector.predicted_cost_breakdown(
            algorithm, kind, nbytes, group_size, device_ids)
        total = selector.predicted_cost_us(algorithm, kind, nbytes,
                                           group_size, device_ids)
        assert set(breakdown) == {"alpha_us", "beta_us", "memory_us",
                                  "overhead_us"}
        assert sum(breakdown.values()) == pytest.approx(total, rel=1e-9)

    def test_every_algorithm_and_kind_sums(self):
        selector, device_ids = fat_tree_selector(64)
        kinds = (CollectiveKind.ALL_REDUCE, CollectiveKind.ALL_GATHER,
                 CollectiveKind.REDUCE_SCATTER, CollectiveKind.BROADCAST,
                 CollectiveKind.REDUCE, CollectiveKind.SEND_RECV)
        for algorithm in ("ring", "tree", "hierarchical"):
            for kind in kinds:
                for nbytes in (512, 1 << 20):
                    self._assert_consistent(selector, device_ids, algorithm,
                                            kind, nbytes, 64)

    def test_two_level_tree_breakdown_includes_spine_term(self):
        selector, device_ids = fat_tree_selector(512)
        self._assert_consistent(selector, device_ids, "tree",
                                CollectiveKind.ALL_REDUCE, 1 << 20, 512)

    def test_invalid_hierarchical_structure_returns_none(self):
        selector, device_ids = fat_tree_selector(64)
        interleaved = [device_ids[rank % 8 * 8 + rank // 8]
                       for rank in range(64)]
        assert selector.predicted_cost_breakdown(
            "hierarchical", CollectiveKind.ALL_REDUCE, 1 << 20, 64,
            interleaved) is None

    def test_trivial_groups_are_all_zero(self):
        selector, device_ids = dual_server_selector()
        breakdown = selector.predicted_cost_breakdown(
            "ring", CollectiveKind.ALL_REDUCE, 1 << 20, 1, device_ids[:1])
        assert sum(breakdown.values()) == 0.0
