"""Multi-tenant suite: concurrent jobs on one shared 16-GPU cluster.

Replays a fixed-seed Zipf job stream per placement policy and backend,
checks the headline behaviour — co-located dedicated-kernel jobs wedge in a
cross-job SM-contention deadlock while DFCCL's shared daemon kernels drain
every job — and reports the per-policy JCT / goodput / SLO rows the CI
scheduler-smoke job archives as ``BENCH_multijob.json``.
"""

import pytest

from repro.bench import (
    deadlock_ratio_sweep,
    multijob_policy_comparison,
    multijob_under_churn,
    run_multijob,
)

MULTIJOB_SEED = 11

pytestmark = pytest.mark.timeout(600)


def test_headline_contention_deadlock_comparison(benchmark):
    """≥3 concurrent jobs, shared 16-GPU cluster: NCCL wedges, DFCCL drains."""

    def scenario():
        kwargs = {"policy": "packed", "seed": MULTIJOB_SEED, "num_jobs": 4,
                  "tenants_per_gpu": 2}
        return {
            "nccl": run_multijob(backend="nccl", **kwargs),
            "dfccl": run_multijob(backend="dfccl", **kwargs),
        }

    result = benchmark.pedantic(scenario, iterations=1, rounds=1)
    nccl, dfccl = result["nccl"], result["dfccl"]
    print("\nNCCL:", nccl["summary"])
    print("DFCCL:", dfccl["summary"])

    # >= 3 jobs were *genuinely concurrent*: count overlapping
    # [place, finish] intervals from the scheduler event log.
    def peak_concurrency(events):
        active = peak = 0
        for _, event, _ in sorted(events):
            if event == "place":
                active += 1
                peak = max(peak, active)
            elif event == "finish":
                active -= 1
        return peak

    assert peak_concurrency(dfccl["events"]) >= 3
    # Dedicated kernels: cross-job SM contention wedges the engine.
    assert nccl["engine_deadlock"]
    assert nccl["summary"]["unfinished"] >= 1
    assert nccl["contention"]["cross_tenant_block_waits"] > 0
    # Shared daemon kernels: every job of every tenant completes.
    assert not dfccl["engine_deadlock"]
    assert dfccl["summary"]["unfinished"] == 0
    assert dfccl["summary"]["completed"] == dfccl["summary"]["jobs"]
    # No cross-job communicator leakage observed by the namespaced pool.
    assert dfccl["pool"]["double_releases"] == 0


def test_policy_comparison_rows(benchmark):
    rows = benchmark.pedantic(
        multijob_policy_comparison,
        kwargs={"seed": MULTIJOB_SEED, "num_jobs": 4},
        iterations=1, rounds=1,
    )
    print()
    for row in rows:
        print({key: (round(value, 3) if isinstance(value, float) else value)
               for key, value in row.items()})
    cells = {(row["policy"], row["backend"]): row for row in rows}
    assert len(cells) == 6  # 3 policies x 2 backends
    # DFCCL drains every stream under every policy.
    for policy in ("packed", "spread", "nvlink-affine"):
        dfccl = cells[(policy, "dfccl")]
        assert dfccl["deadlock_ratio"] == 0.0
        assert dfccl["aggregate_goodput_samples_per_s"] > 0
    # Packed co-location wedges the dedicated-kernel baseline.
    packed_nccl = cells[("packed", "nccl")]
    assert packed_nccl["engine_deadlock"]
    assert packed_nccl["deadlock_ratio"] > 0
    assert packed_nccl["aggregate_goodput_samples_per_s"] < \
        cells[("packed", "dfccl")]["aggregate_goodput_samples_per_s"]


def test_deadlock_ratio_sweep_over_seeds(benchmark):
    report = benchmark.pedantic(
        deadlock_ratio_sweep,
        kwargs={"seeds": range(1, 4), "num_jobs": 3},
        iterations=1, rounds=1,
    )
    print("\nmean deadlock ratio:", report["mean_deadlock_ratio"])
    for row in report["rows"]:
        print(row)
    assert len(report["rows"]) == 3
    assert report["mean_deadlock_ratio"] > 0


def test_churn_degrades_affected_jobs_only(benchmark):
    result = benchmark.pedantic(
        multijob_under_churn,
        kwargs={"seed": MULTIJOB_SEED, "num_jobs": 3},
        iterations=1, rounds=1,
    )
    print("\nchurn:", result["summary"], "affected:", result["affected_jobs"])
    assert result["summary"]["unfinished"] == 0
    assert result["affected_jobs"], "the crash must hit at least one lease"
    states = {row["job"]: row["state"] for row in result["jobs"]}
    for row in result["jobs"]:
        if row["job"] in result["affected_jobs"]:
            assert states[row["job"]] in ("degraded", "completed")
        else:
            assert states[row["job"]] == "completed"
    assert result.get("recoveries", 0) >= 1
