"""Control plane: the one multi-tenant scheduler, run as a service.

Leases the shared cluster to :mod:`repro.multijob` jobs with backfilling
placement, and adds live job submission, per-tenant admission control,
priority preemption with checkpoint/restore, elastic cluster growth and rank
rejoin, and job migration.  With ``preemption=False`` it is the plain
non-preemptive scheduler.  See ``docs/controlplane.md``.
"""

from repro.controlplane.checkpoint import JobCheckpoint, collective_fingerprints
from repro.controlplane.service import ControlPlane, install_control_plane

__all__ = [
    "ControlPlane",
    "JobCheckpoint",
    "collective_fingerprints",
    "install_control_plane",
]
