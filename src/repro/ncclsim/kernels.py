"""The dedicated NCCL collective kernel.

Each kernel executes one rank's primitive sequence of one collective.  When a
primitive cannot progress (its connector is not readable/writable) the kernel
blocks while *holding all of its blocks* — the hold-and-wait condition — and
there is no bound on how long it waits — the no-preemption condition.
"""

from __future__ import annotations

from repro.collectives.primitives import ExecOutcome
from repro.gpusim.device import KernelActor
from repro.gpusim.engine import StepResult


def grid_size_for(nbytes, max_blocks=4):
    """Blocks assigned to a collective kernel, growing with the payload.

    Mirrors NCCL's behaviour of using more channels (hence more blocks) for
    larger buffers, bounded by a small maximum.
    """
    blocks = 1 + nbytes // (4 << 20)
    return int(max(1, min(max_blocks, blocks)))


class NcclCollectiveKernel(KernelActor):
    """A resident kernel running one collective part to completion."""

    #: Most primitives one engine step's executor burst runs (keeps steps
    #: coarse without changing semantics: a step only covers primitives that
    #: can execute back-to-back without waiting).
    PRIMITIVES_PER_STEP = 8

    def __init__(self, name, device, executor, op, rank, grid_size=1, block_size=256):
        super().__init__(name, device, grid_size=grid_size, block_size=block_size)
        self.executor = executor
        self.op = op
        self.rank = rank
        self.blocked_polls = 0

    def waiting_on(self):
        """The peer device this kernel's current primitive is stuck on.

        Returns ``(device_id, direction)`` — the device whose send (or
        consume) the kernel busy-waits for — or ``None`` when the kernel can
        progress.  A dedicated kernel has no notion of peer failure: if the
        returned device is dead, the kernel waits forever while holding its
        blocks (the hold-and-wait + no-preemption conditions under faults).
        """
        outcome = self.executor.peek_blockers(self.now)
        primitive = outcome.primitive
        if primitive is None:
            return None
        communicator = self.executor.communicator
        if outcome.outcome is ExecOutcome.WAIT_RECV:
            return communicator.device_id(primitive.recv_peer), "recv"
        if outcome.outcome is ExecOutcome.WAIT_SEND:
            return communicator.device_id(primitive.send_peer), "send"
        return None

    def run_step(self):
        outcome = self.executor.try_execute_current(
            self.clock, self.engine, budget=self.PRIMITIVES_PER_STEP)
        kind = outcome.outcome
        if kind is ExecOutcome.SUCCESS:
            return StepResult.progress("primitive burst")
        if kind is ExecOutcome.ALL_DONE:
            self.op.mark_rank_complete(self.rank, self.now, self.engine)
            return self.complete(f"collective {self.op.op_id} done on rank {self.rank}")
        # WAIT_RECV / WAIT_SEND: hold resources and wait without bound.
        self.blocked_polls += 1
        return StepResult.blocked([outcome.wait_key],
                                  f"{outcome.primitive.name} waiting ({kind.value})")
