"""Primitives and their execution.

A primitive is a fusion of the basic actions ``send``, ``recv``, ``reduce``
and ``copy`` (Sec. 4.1).  Depending on which of ``send``/``recv`` it contains,
a primitive busy-waits until its send connector is writable and/or its recv
connector is readable before progressing.  The :class:`PrimitiveExecutor`
implements this check-then-execute logic once, so the NCCL baseline (which
waits forever) and the DFCCL daemon kernel (which bounds the wait with a spin
threshold) share exactly the same data-plane behaviour.
"""

from __future__ import annotations

import enum

from repro.common.errors import InvalidStateError
from repro.common.types import PrimitiveAction
from repro.collectives.channels import ChunkMessage
from repro.collectives.cost import DEFAULT_COST_MODEL


#: ``(sends, recvs, touches_memory)`` of every action, so a primitive's
#: construction pays one dict lookup instead of Flag arithmetic.
_ACTION_FLAGS = {
    action: (bool(action & PrimitiveAction.SEND),
             bool(action & PrimitiveAction.RECV),
             bool(action & (PrimitiveAction.REDUCE | PrimitiveAction.COPY)))
    for action in map(PrimitiveAction, range(
        (PrimitiveAction.SEND | PrimitiveAction.RECV | PrimitiveAction.REDUCE
         | PrimitiveAction.COPY).value + 1))
}


class Primitive:
    """One step of a collective's per-rank primitive sequence.

    A slotted plain class rather than a dataclass: a 1 MiB ring all-reduce
    at 512 ranks compiles 523,776 of these (1,023 per rank, once per
    registered collective, not per invocation), and the executor consults
    ``sends`` / ``recvs`` / ``touches_memory`` for every one it runs, so
    both construction and attribute reads sit on the hot path.  The flag
    booleans come precomputed per action from ``_ACTION_FLAGS``.
    """

    __slots__ = ("name", "action", "loop", "step", "chunk_index", "nbytes",
                 "send_peer", "recv_peer", "sends", "recvs", "touches_memory")

    def __init__(self, name, action, loop, step, chunk_index, nbytes,
                 send_peer=None, recv_peer=None):
        self.name = name
        self.action = action
        self.loop = loop
        self.step = step
        self.chunk_index = chunk_index
        self.nbytes = nbytes
        self.send_peer = send_peer
        self.recv_peer = recv_peer
        self.sends, self.recvs, self.touches_memory = _ACTION_FLAGS[action]

    def _identity(self):
        return (self.name, self.action, self.loop, self.step,
                self.chunk_index, self.nbytes, self.send_peer, self.recv_peer)

    def __eq__(self, other):
        if not isinstance(other, Primitive):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def __repr__(self):
        return (f"Primitive(name={self.name!r}, action={self.action!r}, "
                f"loop={self.loop}, step={self.step}, "
                f"chunk_index={self.chunk_index}, nbytes={self.nbytes}, "
                f"send_peer={self.send_peer}, recv_peer={self.recv_peer})")


#: Named fusions used by the Ring algorithm, mirroring NCCL's primitive names.
PRIM_SEND = PrimitiveAction.SEND
PRIM_RECV = PrimitiveAction.RECV | PrimitiveAction.COPY
PRIM_COPY = PrimitiveAction.COPY
PRIM_RECV_COPY_SEND = PrimitiveAction.RECV | PrimitiveAction.COPY | PrimitiveAction.SEND
PRIM_RECV_REDUCE_SEND = PrimitiveAction.RECV | PrimitiveAction.REDUCE | PrimitiveAction.SEND
PRIM_RECV_REDUCE_COPY = PrimitiveAction.RECV | PrimitiveAction.REDUCE | PrimitiveAction.COPY
PRIM_RECV_REDUCE_COPY_SEND = (
    PrimitiveAction.RECV
    | PrimitiveAction.REDUCE
    | PrimitiveAction.COPY
    | PrimitiveAction.SEND
)


class ExecOutcome(enum.Enum):
    """Result of attempting to execute the current primitive."""

    SUCCESS = "success"
    WAIT_RECV = "wait_recv"
    WAIT_SEND = "wait_send"
    ALL_DONE = "all_done"


#: Hot-path aliases: enum member access goes through ``EnumType.__getattr__``
#: on every lookup, which is measurable at one attempt per primitive.
_SUCCESS = ExecOutcome.SUCCESS
_WAIT_RECV = ExecOutcome.WAIT_RECV
_WAIT_SEND = ExecOutcome.WAIT_SEND
_ALL_DONE = ExecOutcome.ALL_DONE


class PrimitiveOutcome:
    """Outcome, the wait key to block/spin on when not successful, and the
    number of primitives the returning call ``executed``."""

    __slots__ = ("outcome", "primitive", "wait_key", "busy_time_us", "executed")

    def __init__(self, outcome, primitive=None, wait_key=None, busy_time_us=0.0):
        self.outcome = outcome
        self.primitive = primitive
        self.wait_key = wait_key
        self.busy_time_us = busy_time_us
        self.executed = 0


class PrimitiveExecutor:
    """Executes one rank's primitive sequence of one collective.

    The executor's ``position`` is the *dynamic context* of the collective on
    this GPU (Sec. 4.2): saving and restoring it is what makes preemption and
    resumption correct, because every already-executed primitive's data stays
    visible in the connectors.
    """

    def __init__(
        self,
        collective_id,
        group_rank,
        communicator,
        primitives,
        cost_model=None,
    ):
        self.collective_id = collective_id
        self.group_rank = group_rank
        self.communicator = communicator
        #: Read-only: a registered collective shares one compiled sequence
        #: among the executors of all its invocations.
        self.primitives = tuple(primitives)
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.position = 0
        self.executed_primitives = 0
        #: Per-peer channel cache: the communicator resolves channels through
        #: a keyed dict, but one executor only ever talks to its fixed ring /
        #: tree peers, so a local cache skips the tuple build + method call on
        #: every primitive attempt.
        self._recv_channels = {}
        self._send_channels = {}
        #: Link and busy-time caches keyed per peer, valid for one
        #: interconnect ``link_epoch``: a degradation or restore bumps the
        #: epoch and both caches are dropped wholesale.
        self._links = {}
        self._busy_cache = {}
        self._cache_epoch = communicator.interconnect.link_epoch
        #: Reused SUCCESS outcome: one is produced per executed primitive and
        #: immediately consumed by every caller, so allocating a fresh object
        #: each time only feeds the garbage collector.
        self._success_outcome = PrimitiveOutcome(_SUCCESS)
        #: Optional execution trace: a flat ``array('d')`` with one
        #: ``(start_us, end_us, busy_us)`` triple per executed primitive,
        #: attached by ``obs.analysis`` when time attribution is requested.
        #: ``None`` (the default) costs one load per burst and one identity
        #: check per executed primitive.
        self.trace = None

    # -- introspection ----------------------------------------------------------

    @property
    def remaining(self):
        return len(self.primitives) - self.position

    def done(self):
        return self.position >= len(self.primitives)

    def current(self):
        if self.done():
            return None
        return self.primitives[self.position]

    def progress_fraction(self):
        if not self.primitives:
            return 1.0
        return self.position / len(self.primitives)

    # -- context save/restore ----------------------------------------------------

    def save_dynamic_context(self):
        """Return the dynamic context (resume point) of this collective part."""
        return {"position": self.position}

    def load_dynamic_context(self, context):
        position = context["position"]
        if not 0 <= position <= len(self.primitives):
            raise InvalidStateError(
                f"invalid saved position {position} for collective {self.collective_id}"
            )
        self.position = position

    # -- execution -----------------------------------------------------------------

    def _recv_channel(self, primitive):
        peer = primitive.recv_peer
        channel = self._recv_channels.get(peer)
        if channel is None:
            channel = self.communicator.channel(peer, self.group_rank)
            self._recv_channels[peer] = channel
        return channel

    def _send_channel(self, primitive):
        peer = primitive.send_peer
        channel = self._send_channels.get(peer)
        if channel is None:
            channel = self.communicator.channel(self.group_rank, peer)
            self._send_channels[peer] = channel
        return channel

    def peek_blockers(self, now_us, max_wait_us=None):
        """Return the outcome the next execution attempt would have, without
        executing and without charging any time (used by schedulers)."""
        if self.done():
            return PrimitiveOutcome(ExecOutcome.ALL_DONE)
        primitive = self.current()
        if primitive.recvs and primitive.recv_peer is not None:
            recv_channel = self._recv_channel(primitive)
            if not recv_channel.readable(now_us, max_wait_us):
                return PrimitiveOutcome(_WAIT_RECV, primitive, recv_channel.readable_key)
        if primitive.sends and primitive.send_peer is not None:
            send_channel = self._send_channel(primitive)
            if not send_channel.writable():
                return PrimitiveOutcome(_WAIT_SEND, primitive, send_channel.writable_key)
        return PrimitiveOutcome(ExecOutcome.SUCCESS, primitive)

    def try_execute_current(self, clock, engine=None, max_wait_us=None, budget=1,
                            on_success=None):
        """Execute up to ``budget`` primitives back to back, advancing ``clock``.

        The burst stops at the first primitive that would wait, at the end of
        the sequence, or after ``budget`` successes, and returns the last
        attempt's :class:`PrimitiveOutcome` (SUCCESS: the budget ran out).  A
        WAIT_* outcome charges no time — busy-wait accounting (spinning or
        blocking) is the caller's, as NCCL and DFCCL handle it differently.
        ``max_wait_us`` bounds how far into the future the executor waits for
        in-flight data (DFCCL passes its remaining spin budget).
        ``on_success``, if given, runs after each executed primitive and
        returns the next one's ``max_wait_us``; once it returns the value
        already in force it has settled and is not called again this burst.
        """
        position = self.position
        primitives = self.primitives
        end = len(primitives)
        if position >= end:
            return PrimitiveOutcome(_ALL_DONE)

        # The readable/writable checks are inlined over the channel FIFOs;
        # `Channel.readable`/`writable` remain the reference semantics for
        # every other caller.  The call-invariant state is hoisted only once
        # the first primitive is known to run, so a visit that makes no
        # progress pays for its checks alone.  The rank's time lives in
        # ``now`` and is written back once: nothing the burst calls reads it.
        recv_channels = self._recv_channels
        send_channels = self._send_channels
        now = clock.now
        executed = 0
        while True:
            primitive = primitives[position]
            recv_channel = send_channel = None
            recv_peer = primitive.recv_peer
            if recv_peer is not None and primitive.recvs:
                recv_channel = recv_channels.get(recv_peer) or self._recv_channel(primitive)
                fifo = recv_channel._fifo
                if recv_channel.invalidated or not fifo or (
                    max_wait_us is not None
                    and fifo[0].ready_time_us > now + max_wait_us
                ):
                    outcome = PrimitiveOutcome(_WAIT_RECV, primitive,
                                               recv_channel.readable_key)
                    break
            send_peer = primitive.send_peer
            if send_peer is not None and primitive.sends:
                send_channel = send_channels.get(send_peer) or self._send_channel(primitive)
                if send_channel.invalidated or \
                        len(send_channel._fifo) >= send_channel.capacity:
                    outcome = PrimitiveOutcome(_WAIT_SEND, primitive,
                                               send_channel.writable_key)
                    break
            else:
                send_peer = None

            if not executed:
                epoch = self.communicator.interconnect.link_epoch
                if epoch != self._cache_epoch:
                    self._links.clear()
                    self._busy_cache.clear()
                    self._cache_epoch = epoch
                busy_cache = self._busy_cache
                rate = clock.rate
                trace = self.trace
                waiters = engine.waiters_by_key if engine is not None else ()
                collective_id = self.collective_id

            # Both wait checks passed: the primitive executes now.  The trace's
            # start is the clock *before* any arrival spin, so the analysis
            # layer can split recv wait from dilated work.
            start = now
            nbytes = primitive.nbytes
            busy_key = (nbytes, send_peer, primitive.touches_memory)
            busy = busy_cache.get(busy_key)
            if busy is None:
                busy = busy_cache[busy_key] = self._busy_time_us(primitive, send_peer)

            if recv_channel is not None:
                # Wait for the in-flight data to arrive, then consume it; the
                # message shell is dead now and returns to the freelist.
                message = fifo.popleft()
                recv_channel.popped_count += 1
                if message.ready_time_us > now:
                    now = message.ready_time_us
                recv_channel._free.append(message)
                # A signal with no registered waiter is a no-op, so consult
                # the engine's public waiter table before paying the call.
                key = recv_channel.writable_key
                if key in waiters:
                    engine.signal(key, now)

            # clock.advance(busy) inlined: busy is a cached non-negative cost.
            now += busy * rate

            if send_channel is not None:
                free = send_channel._free
                if free:
                    message = free.pop()
                    message.collective_id = collective_id
                    message.chunk_index = primitive.chunk_index
                    message.step = primitive.step
                    message.nbytes = nbytes
                    message.ready_time_us = now
                else:
                    message = ChunkMessage(collective_id, primitive.chunk_index,
                                           primitive.step, nbytes, now)
                send_channel._fifo.append(message)
                send_channel.pushed_count += 1
                send_channel.bytes_pushed += nbytes
                key = send_channel.readable_key
                if key in waiters:
                    engine.signal(key, now)

            if trace is not None:
                trace.extend((start, now, busy))

            executed += 1
            position += 1
            if on_success is not None:
                next_wait_us = on_success()
                if next_wait_us == max_wait_us:
                    on_success = None
                max_wait_us = next_wait_us
            if executed >= budget:
                outcome = self._success_outcome
                outcome.primitive = primitive
                outcome.busy_time_us = busy
                break
            if position >= end:
                outcome = PrimitiveOutcome(_ALL_DONE)
                break

        if executed:
            clock.now = now
            self.position = position
            self.executed_primitives += executed
            outcome.executed = executed
        return outcome

    def _busy_time_us(self, primitive, send_peer):
        """Cost of ``primitive``; ``send_peer`` is ``None`` unless it sends."""
        link = None
        if send_peer is not None:
            link = self._links.get(send_peer)
            if link is None:
                link = self._links[send_peer] = self.communicator.link(
                    self.group_rank, send_peer)
        return self.cost_model.primitive_time_us(
            primitive.nbytes, link=link, sends=send_peer is not None,
            touches_memory=primitive.touches_memory)
