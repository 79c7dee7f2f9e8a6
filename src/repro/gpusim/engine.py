"""Conservative discrete-event engine with wait-for-graph deadlock detection.

The engine owns a set of :class:`Actor` objects (GPUs, resident kernels, host
threads, network pollers).  Each actor has a local :class:`VirtualClock`; the
engine repeatedly steps the *runnable* actor with the smallest local time so
that all clocks stay within one quantum of each other.

An actor's ``step`` returns a :class:`StepResult`:

``PROGRESS``
    The actor did useful work and advanced its own clock.
``BLOCKED``
    The actor cannot proceed until one of the given *wait keys* is signalled
    by another actor (e.g. "a kernel on GPU 3 completed", "connector 7 has
    data").  Blocked actors are not stepped again until a signal arrives.
``SLEEP``
    The actor wants to be woken at an absolute virtual time (used for polling
    threads and voluntary-quit timers).
``DONE``
    The actor finished and is removed from scheduling.

When every live actor is blocked and none is sleeping, no signal can ever
arrive: the system is deadlocked.  The engine then either raises
:class:`DeadlockError` or records the deadlock and terminates, depending on
``deadlock_mode``.

Scheduling lives in ONE indexed event queue.  Every schedulable actor has at
most one live heap entry — ``(time, kind, seq, actor)`` where *kind* orders
sleepers before ready actors on time ties, exactly the order the old
ready/sleeping double heap produced by eagerly waking due sleepers.
Rescheduling or killing an actor invalidates its entry in place (the actor
slot is cleared) instead of leaving the old entry to be lazily skipped; when
stale entries outnumber live ones the heap is compacted, so cancelled or
killed actors can never make the queue grow without bound (fuzzing at
hundreds of ranks pops millions of entries — the queue must stay dense).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import DeadlockError, SimulationError
from repro.common.vtime import VirtualClock
from repro.obs import Observability

#: Entry kinds in the unified event queue.  Sleepers sort before ready actors
#: at equal times: the old scheduler woke every due sleeper (converting it to
#: a ready entry with a fresh sequence number) before stepping ready actors.
_KIND_SLEEP = 0
_KIND_READY = 1

#: Index of the actor slot inside a queue entry (cleared when invalidated).
_ENTRY_ACTOR = 3

#: Compaction threshold: never compact below this many stale entries (tiny
#: queues churn entries constantly and rebuilds would dominate).
_COMPACT_MIN_STALE = 64


class StepStatus(enum.Enum):
    """Outcome of a single actor step."""

    PROGRESS = "progress"
    BLOCKED = "blocked"
    SLEEP = "sleep"
    DONE = "done"


#: ``StepStatus`` -> value for the recorder's per-step tuple (no enum lookup).
_STATUS_NAMES = {status: status.value for status in StepStatus}


@dataclass
class StepResult:
    """Value returned by :meth:`Actor.step`."""

    status: StepStatus
    wait_keys: tuple = ()
    wake_at: float = 0.0
    detail: str = ""

    @classmethod
    def progress(cls, detail=""):
        return cls(StepStatus.PROGRESS, detail=detail)

    @classmethod
    def blocked(cls, wait_keys, detail=""):
        keys = tuple(wait_keys) if not isinstance(wait_keys, (str, tuple)) else wait_keys
        if isinstance(keys, str):
            keys = (keys,)
        if not keys:
            raise ValueError("a BLOCKED step must name at least one wait key")
        return cls(StepStatus.BLOCKED, wait_keys=tuple(keys), detail=detail)

    @classmethod
    def sleep(cls, wake_at, detail=""):
        return cls(StepStatus.SLEEP, wake_at=float(wake_at), detail=detail)

    @classmethod
    def done(cls, detail=""):
        return cls(StepStatus.DONE, detail=detail)


class Actor:
    """Base class for anything the engine schedules.

    ``daemon`` actors are service actors (GPU launch schedulers, completion
    pollers): they never keep the simulation alive, and being blocked forever
    is their normal idle state, so they are ignored by deadlock detection.
    """

    daemon = False

    def __init__(self, name, start_time_us=0.0):
        self.name = name
        self.clock = VirtualClock(start_time_us)
        self.engine = None
        self.finished = False

    @property
    def now(self):
        return self.clock.now

    def step(self):
        """Advance the actor by one quantum.  Subclasses must override."""
        raise NotImplementedError

    def on_registered(self, engine):
        """Hook invoked when the actor joins an engine."""
        self.engine = engine

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} t={self.now:.2f}us>"


@dataclass
class DeadlockReport:
    """Description of a detected deadlock."""

    time_us: float
    blocked_actors: list = field(default_factory=list)
    wait_graph: dict = field(default_factory=dict)

    def involved(self):
        """Names of the actors that were blocked when the deadlock was found."""
        return [actor.name for actor in self.blocked_actors]


class Engine:
    """Smallest-local-clock-first scheduler over a set of actors."""

    #: How many recent signal keys to retain for debugging.
    SIGNAL_LOG_LIMIT = 4096

    def __init__(self, deadlock_mode="raise", max_steps=50_000_000,
                 observability=None):
        if deadlock_mode not in ("raise", "record"):
            raise ValueError(f"unknown deadlock_mode {deadlock_mode!r}")
        self.deadlock_mode = deadlock_mode
        self.max_steps = max_steps
        #: The observability hub — always present; pass
        #: ``Observability(enabled=False)`` to opt out of recording.
        self.obs = observability if observability is not None else Observability()
        #: Hot-loop alias: the flight-recorder event ring, or ``None`` when
        #: observability is disabled (one branch per step either way).
        self._event_ring = self.obs.recorder.ring if self.obs.enabled else None
        self._actors = []
        #: The unified event queue: a heap of ``[time, kind, seq, actor]``
        #: entries.  ``self._entries`` maps each schedulable actor to its one
        #: live entry; invalidation clears the entry's actor slot.
        self._queue = []
        self._entries = {}
        self._stale = 0
        self._compactions = 0
        self._ready_count = 0
        self._live_worker_count = 0
        self._blocked = {}
        self._waiters = {}
        #: Public read-only alias of the waiter table, keyed by wait key.
        #: Hot paths (the primitive executor signals once or twice per
        #: primitive) test ``key in engine.waiters_by_key`` before paying the
        #: ``signal()`` call — a signal nobody waits on is a no-op.  The
        #: engine only ever mutates this dict in place, never rebinds it, so
        #: the alias stays valid for the engine's lifetime; external code
        #: must treat it as read-only.
        self.waiters_by_key = self._waiters
        self._counter = itertools.count()
        self._steps = 0
        self._horizon = 0.0
        self.deadlock_report = None
        self._signal_log = deque(maxlen=self.SIGNAL_LOG_LIMIT)
        self._signals = 0
        #: Devices that have crashed on this engine (bumped by
        #: ``GpuDevice.fail``).  Failure detectors skip looking for dead
        #: group members while it is zero.
        self.device_failures = 0
        if self.obs.enabled:
            registry = self.obs.metrics
            registry.gauge_fn("engine_steps", lambda: self._steps)
            registry.gauge_fn("engine_queue_entries", lambda: len(self._queue))
            registry.gauge_fn("engine_queue_live",
                              lambda: len(self._queue) - self._stale)
            registry.gauge_fn("engine_queue_stale", lambda: self._stale)
            registry.gauge_fn("engine_queue_compactions",
                              lambda: self._compactions)
            registry.gauge_fn("engine_queue_ready", lambda: self._ready_count)
            registry.gauge_fn("engine_signals", lambda: self._signals)

    # -- registration -------------------------------------------------------

    def _register(self, actor):
        """Shared registration bookkeeping of the add_actor/add_actors paths."""
        self._actors.append(actor)
        actor.on_registered(self)
        if not actor.daemon and not actor.finished:
            self._live_worker_count += 1
        self._observe_time(actor.now)

    def add_actor(self, actor):
        """Register an actor and make it runnable."""
        self._register(actor)
        self._schedule(actor, actor.now, _KIND_READY)
        return actor

    def add_actors(self, actors):
        """Batch-register many actors (one heapify instead of N sift-ups).

        Used by cluster construction: instantiating a 512-rank fat-tree
        registers hundreds of devices at once, and pushing them one by one is
        both slower and noisier in profiles than a single heapify.
        """
        actors = list(actors)
        for actor in actors:
            self._register(actor)
            # Same invariant as _schedule — one live entry per actor — with
            # the heap push deferred to the single heapify below.
            old = self._entries.get(actor)
            if old is not None:
                self._invalidate(old)
            entry = [actor.now, _KIND_READY, next(self._counter), actor]
            self._entries[actor] = entry
            self._queue.append(entry)
            self._ready_count += 1
        heapq.heapify(self._queue)
        return actors

    def actors(self):
        return list(self._actors)

    # -- event queue helpers -------------------------------------------------

    def _schedule(self, actor, time_us, kind):
        """Give ``actor`` a (new) live queue entry, invalidating any old one."""
        old = self._entries.get(actor)
        if old is not None:
            self._invalidate(old)
        entry = [time_us, kind, next(self._counter), actor]
        self._entries[actor] = entry
        heapq.heappush(self._queue, entry)
        if kind == _KIND_READY:
            self._ready_count += 1

    def _invalidate(self, entry):
        """Mark a queue entry stale in place; compact when stale dominates."""
        if entry[_ENTRY_ACTOR] is None:
            return
        if entry[1] == _KIND_READY:
            self._ready_count -= 1
        entry[_ENTRY_ACTOR] = None
        self._stale += 1
        if self._stale > _COMPACT_MIN_STALE and self._stale * 2 > len(self._queue):
            self._compact()

    def _discard_entry(self, actor):
        """Invalidate the live entry of ``actor``, if any."""
        entry = self._entries.pop(actor, None)
        if entry is not None:
            self._invalidate(entry)

    def _compact(self):
        """Rebuild the heap from live entries only."""
        self._queue = [entry for entry in self._queue
                       if entry[_ENTRY_ACTOR] is not None]
        heapq.heapify(self._queue)
        self._stale = 0
        self._compactions += 1

    def queue_stats(self):
        """Event-queue health counters (introspection / regression tests)."""
        return {
            "entries": len(self._queue),
            "live": len(self._queue) - self._stale,
            "stale": self._stale,
            "compactions": self._compactions,
            "ready": self._ready_count,
        }

    def _observe_time(self, time_us):
        """Keep the cached global horizon in sync with an observed clock."""
        if time_us > self._horizon:
            self._horizon = time_us

    def observe_time(self, time_us):
        """Public form of the horizon update, for external clock mutations
        (fault injection advances kernel clocks outside a step)."""
        self._observe_time(time_us)

    # -- signalling ----------------------------------------------------------

    def signal(self, key, time_us=None):
        """Wake every actor blocked on ``key``.

        ``time_us`` is the virtual time at which the signalled condition became
        true; woken actors have their clocks advanced to at least that time,
        modelling the spin-wait they performed while blocked.
        """
        self._signals += 1
        if self._event_ring is not None:
            self._signal_log.append(key)
        waiters = self._waiters.pop(key, None)
        if not waiters:
            return 0
        woken = 0
        for actor in waiters:
            keys = self._blocked.pop(actor, None)
            if keys is None:
                continue
            for other in keys:
                if other != key:
                    group = self._waiters.get(other)
                    if group is not None:
                        group.discard(actor)
                        if not group:
                            self._waiters.pop(other, None)
            if time_us is not None:
                actor.clock.advance_to(time_us)
                self._observe_time(actor.now)
            self._schedule(actor, actor.now, _KIND_READY)
            woken += 1
        return woken

    def _block(self, actor, keys):
        self._blocked[actor] = tuple(keys)
        for key in keys:
            self._waiters.setdefault(key, set()).add(actor)

    def wake_actor(self, actor, time_us=None):
        """Make one blocked *or sleeping* actor runnable immediately.

        ``signal`` can only reach actors parked on a wait key; an actor
        sleeping toward a deadline (a scheduler waiting for its next arrival)
        is invisible to it.  The control plane uses this to deliver live job
        submissions and scheduled preemptions: whatever state the target is
        in, it is rescheduled ready at ``max(actor.now, time_us)``.  Returns
        ``False`` when the actor is finished (nothing to wake).
        """
        if actor.finished:
            return False
        keys = self._blocked.pop(actor, None)
        if keys is not None:
            for key in keys:
                group = self._waiters.get(key)
                if group is not None:
                    group.discard(actor)
                    if not group:
                        self._waiters.pop(key, None)
        if time_us is not None:
            actor.clock.advance_to(time_us)
            self._observe_time(actor.now)
        self._schedule(actor, actor.now, _KIND_READY)
        return True

    # -- fault injection -----------------------------------------------------

    def kill_actor(self, actor, time_us=None):
        """Remove an actor from scheduling immediately (fault injection).

        The actor is marked finished, unhooked from every wait key and its
        queue entry is invalidated on the spot.  Unlike a normal DONE step,
        the actor gets no chance to clean up — this models a crash.
        """
        if actor.finished:
            return False
        actor.finished = True
        if not actor.daemon:
            self._live_worker_count -= 1
        if time_us is not None:
            actor.clock.advance_to(time_us)
            self._observe_time(actor.now)
        if self.obs.enabled:
            self.obs.metrics.counter("engine_actors_killed").inc()
            self.obs.recorder.record_event(actor.now, "fault",
                                           f"killed:{actor.name}")
        self._discard_entry(actor)
        keys = self._blocked.pop(actor, ())
        for key in keys:
            group = self._waiters.get(key)
            if group is not None:
                group.discard(actor)
                if not group:
                    self._waiters.pop(key, None)
        return True

    # -- main loop -----------------------------------------------------------

    @property
    def now(self):
        """Largest local time reached by any actor (the global horizon).

        Cached incrementally: the engine observes every clock advance it
        mediates (steps, signals, sleeper wake-ups), so reading ``now`` is
        O(1) instead of a scan over all actors on every access.
        """
        return self._horizon

    def _live_actors(self):
        return [actor for actor in self._actors if not actor.finished]

    def _live_workers(self):
        """Live non-daemon actors; when none remain the simulation is over."""
        return [
            actor for actor in self._actors if not actor.finished and not actor.daemon
        ]

    def run(self, until_us=None):
        """Run until no live actors remain, a deadline, or a deadlock.

        Returns the final global virtual time.
        """
        while True:
            self._steps += 1
            if self._steps > self.max_steps:
                raise SimulationError(
                    f"engine exceeded {self.max_steps} steps; "
                    "likely a livelock in a simulated component"
                )

            if until_us is not None and self._horizon >= until_us:
                return self._horizon

            actor = self._pop_runnable()
            if actor is None:
                if self._handle_stall():
                    continue
                return self._horizon

            result = actor.step()
            self._observe_time(actor.now)
            ring = self._event_ring
            status = result.status
            if ring is not None:
                # The flight recorder's entire hot-path cost: one bounded
                # deque append per step.
                ring.append((actor.now, actor.name, _STATUS_NAMES[status],
                             result.detail))

            if status is StepStatus.PROGRESS:
                self._schedule(actor, actor.now, _KIND_READY)
            elif status is StepStatus.BLOCKED:
                self._block(actor, result.wait_keys)
            elif status is StepStatus.SLEEP:
                self._schedule(actor, max(result.wake_at, actor.now), _KIND_SLEEP)
            elif status is StepStatus.DONE:
                actor.finished = True
                if not actor.daemon:
                    self._live_worker_count -= 1
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown step status {result.status}")

    def _pop_runnable(self):
        """Pop the next actor to step, respecting virtual-time causality.

        Ready and sleeping actors share the event queue, merged by timestamp
        (sleepers first on ties): a sleeper whose wake time precedes the
        earliest ready actor's clock is woken first, so no actor ever
        observes state produced "in its future".
        """
        queue = self._queue
        entries = self._entries
        while queue:
            entry = queue[0]
            actor = entry[_ENTRY_ACTOR]
            if actor is None:
                heapq.heappop(queue)
                self._stale -= 1
                continue
            if actor.finished:
                # Defensive: every finish path invalidates the entry, but an
                # actor finished behind the engine's back must not be stepped.
                heapq.heappop(queue)
                if entries.get(actor) is entry:
                    del entries[actor]
                if entry[1] == _KIND_READY:
                    self._ready_count -= 1
                continue
            if entry[1] == _KIND_READY:
                heapq.heappop(queue)
                del entries[actor]
                self._ready_count -= 1
                return actor
            # The earliest event is a sleeper wake-up.
            if self._ready_count == 0 and self._live_worker_count <= 0 \
                    and not self._live_workers():
                # Only daemon sleepers remain; let the caller finish.
                return None
            heapq.heappop(queue)
            del entries[actor]
            actor.clock.advance_to(entry[0])
            self._observe_time(actor.now)
            self._schedule(actor, actor.now, _KIND_READY)
        return None

    def _handle_stall(self):
        """Called when the event queue ran dry.

        Returns ``True`` when progress is still possible, ``False`` when the
        simulation has genuinely finished, and raises or records a deadlock
        when live actors remain but none can ever run.
        """
        workers = self._live_workers()
        if not workers:
            return False

        blocked = [actor for actor in workers if actor in self._blocked]
        if blocked:
            report = DeadlockReport(
                time_us=self.now,
                blocked_actors=blocked,
                wait_graph={actor.name: list(self._blocked[actor]) for actor in blocked},
            )
            self.deadlock_report = report
            if self.obs.enabled:
                self.obs.metrics.counter("engine_deadlocks").inc()
                self.obs.auto_dump("deadlock", context={
                    "time_us": report.time_us,
                    "blocked_actors": report.involved(),
                    "wait_graph": {name: [repr(key) for key in keys]
                                   for name, keys in
                                   report.wait_graph.items()},
                })
            if self.deadlock_mode == "raise":
                raise DeadlockError(
                    f"deadlock at t={self.now:.2f}us: "
                    f"{len(blocked)} actors blocked with no possible signal",
                    wait_graph=report.wait_graph,
                    blocked=report.involved(),
                )
            return False

        # Live actors exist but none is ready, blocked or sleeping: they were
        # all left unscheduled, which indicates an engine bug.
        raise SimulationError("live actors exist but none is schedulable")

    # -- introspection --------------------------------------------------------

    @property
    def step_count(self):
        return self._steps

    def blocked_actor_names(self):
        return [actor.name for actor in self._blocked]
