"""Span tracer for the traced benchmark run.

The tracer times calls into each simulator layer from outside the program:
:func:`install` replaces the public functions named in :data:`TARGETS` (and
every engine actor's ``step``) with wrappers that record one span per call,
and :func:`uninstall` puts the originals back.  Nothing under ``src/``
knows about it.

A span is ``(name, parent, start, end)``; every span of one run shares the
tracer's ``run_id``.  Spans are kept in compact arrays in memory and written
out by :meth:`Tracer.write` when the run ends.  Self time is computed online
as a span's duration minus the time its child spans cover (children are
properly nested because the wrappers use one call stack).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import uuid
from array import array

#: Layer spans timed by the traced run: (span name, module, attribute).
#: ``attribute`` is ``"Class.method"`` for a method or a plain function name;
#: a function is replaced in every ``repro`` module that imported it.
TARGETS = (
    ("gpusim.engine.run", "repro.gpusim.engine", "Engine.run"),
    ("core.daemon.run_step", "repro.core.daemon", "DaemonKernel.run_step"),
    ("ncclsim.kernel.run_step", "repro.ncclsim.kernels",
     "NcclCollectiveKernel.run_step"),
    ("collectives.primitives.try_execute", "repro.collectives.primitives",
     "PrimitiveExecutor.try_execute_current"),
    ("collectives.sequences.generate", "repro.collectives.sequences",
     "generate_primitive_sequence"),
    ("collectives.selector.resolve", "repro.collectives.selector",
     "AlgorithmSelector.resolve"),
    ("core.registration.active_ranks", "repro.core.registration",
     "RegisteredCollective.active_ranks"),
    ("core.registration.make_executor", "repro.core.registration",
     "RegisteredCollective.make_executor"),
    ("core.context.load", "repro.core.context", "ActiveContextCache.load"),
    ("core.context.save_on_preempt", "repro.core.context",
     "ActiveContextCache.save_on_preempt"),
    ("core.communicator_pool.acquire", "repro.core.communicator_pool",
     "CommunicatorPool.acquire"),
    ("multijob.placement.place", "repro.multijob.placement", "PlacementPolicy.place"),
    ("multijob.placement.place", "repro.multijob.placement",
     "NvlinkAffinePolicy.place"),
    ("multijob.runtime.launch", "repro.multijob.runtime", "ClusterJobRunner.launch"),
    ("multijob.runtime.preempt", "repro.multijob.runtime", "ClusterJobRunner.preempt"),
    ("workloads.build_programs", "repro.workloads.trainer",
     "TrainingRun.build_programs"),
    ("obs.record_collective", "repro.obs.observability",
     "Observability.record_collective"),
    ("obs.recorder.record_event", "repro.obs.recorder", "FlightRecorder.record_event"),
)

#: Every actor ``step`` method gets a span, so the engine's self time is the
#: dispatch loop alone.  These actors' spans carry the per-layer metric
#: names; any other actor's span is named ``<module>.<Class>.step``.
ACTOR_SPAN_NAMES = {
    "HostThread": "gpusim.host.step",
    "GpuDevice": "gpusim.device.step",
    "KernelActor": "gpusim.kernel.step",
    "Poller": "core.poller.step",
    "RecoveryManager": "core.recovery.step",
    "ClusterScheduler": "multijob.scheduler.step",
    "_FailureWatch": "multijob.failure_watch.step",
    "ControlPlane": "controlplane.step",
}

#: Modules imported before wrapping, so every actor class is discoverable.
_LAYER_MODULES = (
    "repro.gpusim", "repro.core", "repro.ncclsim", "repro.multijob",
    "repro.controlplane", "repro.faults", "repro.workloads", "repro.api",
)


class Tracer:
    """Records spans and per-name call counts and self times."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.self_s = []
        #: Names of the actor ``step`` spans: one call per engine step.
        self.actor_spans = set()
        # One frame per open span: [span index, time covered by children].
        self._stack = [[-1, 0.0]]

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, fn, name):
        """Return ``fn`` wrapped so every call records one span."""
        nid = self.name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent[0])
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                parent[1] += duration
                self_s[nid] += duration - frame[1]
                calls[nid] += 1

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span (the benchmark's own code)."""
        return self.wrap(fn, name)(*args)

    def totals(self):
        """``{name: (calls, self_s)}`` accumulated so far."""
        return {name: (self.calls[i], self.self_s[i])
                for i, name in enumerate(self.names)}

    def write(self, prefix, **context):
        """Write the spans: ``prefix.json`` (header) + ``prefix.bin`` (arrays).

        The binary file holds four consecutive native-endian arrays of
        ``count`` items each: name id (int32), parent span index (int32,
        -1 for a root), start and end (float64 seconds, ``perf_counter``).
        ``context`` is copied into the header.
        """
        header = {**context, "run_id": self.run_id, "names": self.names,
                  "count": len(self.span_start),
                  "layout": ["name:i4", "parent:i4", "start:f8", "end:f8"],
                  "byteorder": sys.byteorder}
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(f"{prefix}.bin", "wb") as fh:
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)


def _actor_classes():
    from repro.gpusim.engine import Actor

    seen, pending = [], [Actor]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


def install(tracer):
    """Wrap every target; returns the undo list for :func:`uninstall`.

    Must run before the cluster is built, so that every actor and executor
    created for the traced rep goes through the wrappers.
    """
    for module_name in _LAYER_MODULES:
        importlib.import_module(module_name)
    undo = []

    def patch(owner, attribute, wrapper):
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    for name, module_name, attribute in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            patch(owner, member, tracer.wrap(owner.__dict__[member], name))
            continue
        original = getattr(module, member)
        wrapper = tracer.wrap(original, name)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and other.__dict__.get(member) is original):
                patch(other, member, wrapper)
    for cls in _actor_classes():
        if "step" in cls.__dict__:
            short = cls.__module__.removeprefix("repro.")
            name = ACTOR_SPAN_NAMES.get(cls.__name__, f"{short}.{cls.__name__}.step")
            tracer.actor_spans.add(name)
            patch(cls, "step", tracer.wrap(cls.__dict__["step"], name))
    return undo


def uninstall(undo):
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
