"""Behaviour lock for the multi-tenant scheduler.

Nine seeded runs through the experiment drivers pin the scheduler's whole
observable history: the final virtual time, the ``(time, event, job)`` log,
every per-job metrics row and every summary value.  The runs cover the
non-preemptive multijob comparison (three placement policies on both
backends), job churn under a rank crash, and the control-plane stream with
preemption on and off.  A refactor of the scheduler must leave every value
identical; a multijob summary may only gain control-plane counters, each at
zero.

Regenerate the golden file (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_golden_scheduler.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheduler.json"

#: Counters a control-plane summary adds to the multijob summary keys.
CONTROL_PLANE_COUNTERS = ("rejected", "preemptions", "preempted_jobs",
                          "resumed_jobs", "migrations", "rejoins",
                          "grow_events", "starved")


def _multijob(backend, policy):
    def run():
        from repro.bench.multijob_experiments import run_multijob
        return run_multijob(backend=backend, policy=policy, seed=11)
    return run


def _churn():
    from repro.bench.multijob_experiments import multijob_under_churn
    return multijob_under_churn()


def _controlplane(preemption):
    def run():
        from repro.bench.controlplane_experiments import run_controlplane
        return run_controlplane(seed=11, preemption=preemption)
    return run


SCENARIOS = {
    **{f"multijob-{backend}-{policy}": _multijob(backend, policy)
       for policy in ("packed", "spread", "nvlink-affine")
       for backend in ("nccl", "dfccl")},
    "multijob-churn": _churn,
    "controlplane-preempt": _controlplane(True),
    "controlplane-no-preempt": _controlplane(False),
}


def capture(name):
    """Run one scenario and return its pinned values, JSON-shaped."""
    result = SCENARIOS[name]()
    return json.loads(json.dumps({
        "time_us": result["time_us"],
        "events": result["events"],
        "jobs": result["jobs"],
        "summary": result["summary"],
    }))


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scheduler_behaviour_is_pinned(name):
    expected = _golden()[name]
    actual = capture(name)
    for key in ("time_us", "events", "jobs"):
        assert actual[key] == expected[key], f"{name}: {key}"
    summary = dict(actual["summary"])
    for key, value in expected["summary"].items():
        assert summary.pop(key) == value, f"{name}: summary[{key!r}]"
    assert set(summary) <= set(CONTROL_PLANE_COUNTERS), f"{name}: {sorted(summary)}"
    assert all(value == 0 for value in summary.values()), f"{name}: {summary}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({name: capture(name) for name in sorted(SCENARIOS)},
                                      indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
