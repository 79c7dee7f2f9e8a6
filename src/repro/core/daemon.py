"""The DFCCL daemon kernel (Sec. 4).

The daemon kernel is a persistent GPU kernel that executes, preempts and
schedules every collective of its GPU:

* it periodically fetches SQEs from the submission queue and keeps the
  corresponding collectives in its task queue;
* it executes the scheduled collective's primitive sequence in a two-phase
  blocking manner: each primitive may busy-wait only up to its spin threshold,
  after which the collective is deemed stuck and preempted via context switch;
* completed collectives produce CQEs on the completion queue;
* when it cannot fetch new SQEs for a while and nothing in the task queue can
  progress (or the queue is empty), it voluntarily quits, releasing its GPU
  resources — which is what lets blocking GPU synchronization complete and
  prevents the synchronization-related deadlocks of Fig. 1(d).

This implements Algorithm 1 of the paper one-to-one; the scheduling policies
live in :mod:`repro.core.scheduling`.
"""

from __future__ import annotations

from repro.collectives.primitives import ExecOutcome
from repro.core.context import ActiveContextCache
from repro.core.queues import Cqe
from repro.core.scheduling import (
    TaskEntry,
    TaskQueue,
    make_ordering_policy,
    make_spin_policy,
)
from repro.gpusim.device import KernelActor
from repro.gpusim.engine import StepResult

_SUCCESS = ExecOutcome.SUCCESS
_ALL_DONE = ExecOutcome.ALL_DONE


class DaemonKernel(KernelActor):
    """One generation of the daemon kernel on one GPU."""

    def __init__(self, rank_ctx, generation):
        device = rank_ctx.device
        super().__init__(
            name=f"dfccl-daemon-r{rank_ctx.global_rank}-g{generation}",
            device=device,
            grid_size=rank_ctx.daemon_grid_size(),
            block_size=rank_ctx.daemon_block_size(),
        )
        self.ctx = rank_ctx
        self.config = rank_ctx.config
        self.generation = generation
        self.stats = rank_ctx.stats

        self.task_queue = TaskQueue()
        self.ordering = make_ordering_policy(self.config)
        self.spin_policy = make_spin_policy(self.config)
        self.active_cache = ActiveContextCache(
            self.config, rank_ctx.context_buffer, clock=self.clock
        )

        self._queue_pos = 0
        self._pass_needs_init = True
        self._pass_progress = False
        self._last_pass_progress = True
        self._arrival_counter = 0
        self._final_exit_requested = False
        self._restart_requested = False
        self._last_activity_us = 0.0

    # -- lifecycle ----------------------------------------------------------------

    def on_launch(self, time_us):
        super().on_launch(time_us)
        self._last_activity_us = self.now
        self.stats.launches += 1
        # Re-adopt collectives that a previous daemon generation fetched but
        # did not complete; their dynamic contexts (executor positions) are
        # preserved in the global-memory context buffer.
        for invocation, priority in self.ctx.take_pending_entries():
            self._adopt_invocation(invocation, priority)

    def _adopt_invocation(self, invocation, priority):
        group_rank = self.ctx.group_rank_for(invocation.coll)
        entry = TaskEntry(
            invocation=invocation,
            group_rank=group_rank,
            executor=invocation.executor_for(group_rank),
            priority=priority,
            arrival_index=self._arrival_counter,
        )
        self._arrival_counter += 1
        self.task_queue.append(entry)
        return entry

    # -- SQ fetching -----------------------------------------------------------------

    def _fetch_sqes(self):
        """Fetch every pending SQE; returns the number fetched."""
        fetched = 0
        while self.ctx.sq.pending(self.ctx.consumer_id) > 0:
            self.clock.advance(self.config.sqe_read_cost_us)
            self.stats.sqe_read_time_us += self.config.sqe_read_cost_us
            sqe = self.ctx.sq.pop(self.ctx.consumer_id)
            self.stats.sqes_read += 1
            self.clock.advance(self.config.sqe_parse_cost_us)
            self.stats.preparing_time_us += self.config.sqe_parse_cost_us
            if sqe.exiting:
                self._final_exit_requested = True
                continue
            invocation = self.ctx.invocation_for_sqe(sqe)
            if invocation is None:
                # The collective was unregistered between the host's SQE push
                # and this fetch — a preempted job's rank process was killed
                # and its registrations torn down.  The stale SQE is dropped
                # exactly like an abandoned task entry would be.
                self.stats.stale_sqes_dropped += 1
                continue
            entry = self._adopt_invocation(invocation, sqe.priority)
            self.ctx.note_entry_fetched(invocation, sqe.priority)
            self.task_queue.record_length(entry.coll_id)
            self.stats.task_queue_length_samples.append(
                (entry.coll_id, len(self.task_queue))
            )
            self._last_activity_us = self.now
            fetched += 1
        return fetched

    # -- pass management ----------------------------------------------------------------

    def _begin_pass(self):
        """Start a pass over the task queue: fetch, order and set thresholds.

        Returns the number of SQEs fetched at this pass boundary.
        """
        fetched = 0
        should_fetch = self.ordering.should_fetch(
            queue_empty=(len(self.task_queue) == 0),
            pass_made_progress=self._last_pass_progress,
            at_pass_start=True,
        )
        if should_fetch:
            self.clock.advance(self.config.sq_poll_cost_us)
            fetched = self._fetch_sqes()
        self.ordering.order(self.task_queue)
        self.spin_policy.assign_initial(self.task_queue)
        self._queue_pos = 0
        self._pass_progress = False
        self._pass_needs_init = False
        return fetched

    def _end_pass(self):
        self._last_pass_progress = self._pass_progress
        self._pass_needs_init = True

    # -- main loop -------------------------------------------------------------------------

    def request_restart(self):
        """Ask the daemon to quit at the next pass boundary (recovery path).

        The exit is a normal voluntary quit: remaining task-queue entries are
        handed back to the rank context and re-adopted by the next generation,
        which compiles fresh executors for any invocation whose executor cache
        was invalidated by recovery.
        """
        self._restart_requested = True

    def run_step(self):
        if self._pass_needs_init:
            if self._restart_requested and not self._final_exit_requested:
                self._restart_requested = False
                self.stats.recovery_restarts += 1
                return self._exit(final=False)
            fetched = self._begin_pass()

            if self._final_exit_requested and len(self.task_queue) == 0:
                return self._exit(final=True)

            # Voluntary quitting is decided only at pass boundaries: the daemon
            # quits once it has gone a full quit period without fetching an SQE
            # while the task queue is empty or nothing in it can progress.
            idle = len(self.task_queue) == 0
            stuck = not idle and not self._last_pass_progress
            if fetched == 0 and (idle or stuck):
                if self.now - self._last_activity_us > self.config.quit_period_us:
                    return self._exit(final=False)

            if idle:
                self.clock.advance(self.config.idle_poll_interval_us)
                self._end_pass()
                return StepResult.progress("idle: polling SQ")

        if self._queue_pos >= len(self.task_queue):
            self._end_pass()
            return StepResult.progress("pass wrap")

        entry = self.task_queue[self._queue_pos]
        invocation = entry.invocation
        if invocation.coll.abandoned or invocation.is_aborted(entry.group_rank):
            # Recovery abandoned this collective: its channels span a dead
            # device and the executor can never progress.  Drop the entry and
            # abort-resolve this rank's part instead of spinning on it until
            # the end of time.
            self.task_queue.remove(entry)
            self.active_cache.evict(entry.coll_id)
            self.ctx.abort_invocation(invocation, self.now)
            self._pass_progress = True
            self._last_activity_us = self.now
            if self._queue_pos >= len(self.task_queue):
                self._end_pass()
            return StepResult.progress(f"dropped abandoned coll {entry.coll_id}")
        return self._execute_entry(entry)

    # -- entry execution ------------------------------------------------------------------------

    def _execute_entry(self, entry):
        config = self.config
        coll_id = entry.coll_id
        slot, load_cost = self.active_cache.load(coll_id)
        stats = self.stats
        stats.preparing_time_us += load_cost

        # One executor call runs the burst, calling ``on_success`` after each
        # executed primitive.  Both spin policies' update depends only on the
        # threshold, so a repeated max wait means it has settled.
        poll_cost_us = config.cost_model.poll_cost_us
        on_success = self.spin_policy.on_success

        def next_max_wait_us():
            on_success(entry)
            return entry.spin_remaining * poll_cost_us

        clock = self.clock
        burst_start_us = clock.now
        outcome = entry.executor.try_execute_current(
            clock, self.engine, entry.spin_remaining * poll_cost_us,
            config.primitives_per_step, next_max_wait_us)
        executed = outcome.executed
        if executed:
            # Failed attempts charge no time and the burst ends before the
            # completion / spin paths advance the clock.
            entry.progressed_since_load = True
            entry.spin_quantum = 500
            slot.dirty = True
            stats.primitives_executed += executed
            stats.execute_time_us += clock.now - burst_start_us
            self._pass_progress = True
            self._last_activity_us = clock.now
        kind = outcome.outcome
        if kind is _SUCCESS:
            return StepResult.progress(f"burst on coll {coll_id}")
        if kind is _ALL_DONE:
            return self._complete_entry(entry)
        return self._spin_or_preempt(entry)

    def _spin_or_preempt(self, entry):
        config = self.config
        # Exponential spin quantum: short waits (data arriving in a few
        # microseconds) cost little virtual time, long fruitless waits double
        # the quantum so they cost few simulation steps before preemption.
        polls = min(entry.spin_quantum, config.spin_batch, entry.spin_remaining)
        if polls > 0:
            spin_time = polls * config.cost_model.poll_cost_us
            self.clock.advance(spin_time)
            entry.spin_remaining -= polls
            entry.spin_polls += polls
            self.stats.spin_polls += polls
            self.stats.spin_time_us += spin_time
            entry.spin_quantum = min(entry.spin_quantum * 2, config.spin_batch)
        if entry.spin_remaining <= 0:
            self._preempt_entry(entry)
            return StepResult.progress(f"preempted coll {entry.coll_id}")
        return StepResult.progress(f"spinning on coll {entry.coll_id}")

    def _preempt_entry(self, entry):
        self.active_cache.save_on_preempt(entry.coll_id, entry.progressed_since_load)
        entry.progressed_since_load = False
        entry.context_switches += 1
        entry.invocation.add_context_switch(entry.group_rank)
        self.stats.preemptions += 1
        self._queue_pos += 1
        if self._queue_pos >= len(self.task_queue):
            self._end_pass()

    def _complete_entry(self, entry):
        config = self.config
        write_cost = self.ctx.cq.write_cost_us(config)
        self.clock.advance(write_cost)
        self.stats.cqe_write_time_us += write_cost
        self.stats.cqes_written += 1
        self.ctx.cq.push(
            Cqe(
                coll_id=entry.coll_id,
                invocation_id=entry.invocation.index,
                complete_time_us=self.now,
            )
        )
        entry.invocation.mark_gpu_complete(entry.group_rank, self.now)
        self.stats.record_invocation_switches(
            entry.invocation.invocation_id, entry.context_switches
        )
        self.active_cache.evict(entry.coll_id)
        self.task_queue.remove(entry)
        self.ctx.on_gpu_complete(entry.invocation, self.now)
        self._pass_progress = True
        self._last_activity_us = self.now
        if self._queue_pos >= len(self.task_queue):
            self._end_pass()
        if self.engine is not None:
            self.engine.signal(self.ctx.cqe_key, self.now)
        return StepResult.progress(f"completed coll {entry.coll_id}")

    # -- exiting ---------------------------------------------------------------------------------

    def _exit(self, final):
        # Save the dynamic context of anything that progressed since its last save.
        for entry in self.task_queue.entries():
            if entry.progressed_since_load:
                self.active_cache.save_on_preempt(entry.coll_id, True)
                entry.progressed_since_load = False
        if final:
            self.stats.final_exits += 1
        else:
            self.stats.voluntary_quits += 1
        self.ctx.on_daemon_exit(self, final=final, remaining_entries=self.task_queue.entries())
        label = "final exit" if final else "voluntary quit"
        return self.complete(f"daemon {label}")
