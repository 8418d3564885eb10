"""The parallel wave router: fan out to a persistent pool, merge, repair.

``ParallelRouter`` keeps the serial router's contract (``route()`` over a
connection list, same :class:`RoutingResult`) but routes the bulk of the
list in parallel waves (Ahrens et al., arXiv:2111.06169: bulk-route
spatially disjoint nets concurrently, then serially repair the
remainder):

0. **Auto-serial heuristic** — boards too small to amortize the pool, or
   congested enough that waves would poison the serial residue, are
   routed by the unchanged serial router without touching the pool
   (:func:`repro.parallel.partition.pool_decision`); the result is
   bit-identical to serial routing and flagged ``auto_serial``.
1. **Partition** — slice the board into disjoint strips and group the
   still-unrouted connections whose margin-expanded bounding boxes fit a
   strip (:mod:`repro.parallel.partition`).
2. **Fan out** — deal the groups to a persistent worker pool spawned
   once per routing call (:mod:`repro.parallel.pool`): idle workers
   steal groups from a shared deque, and between waves the master ships
   only compact workspace deltas, never fresh snapshots.
3. **Merge** — install the returned records in deterministic strip
   order; collisions are demoted to the next wave
   (:mod:`repro.parallel.merge`).  The merge is recorded as a
   :class:`~repro.channels.delta.WorkspaceDelta` and broadcast to the
   pool so every worker tracks the master state.
4. **Residue** — whatever never fit a strip, failed in a worker (rip-up
   is disabled there) or kept colliding is routed by the unchanged serial
   strategy stack, rip-up included, so completion can never regress.
5. **Parity fallback** — if the board still ends incomplete, the parallel
   attempt is discarded and the whole board is re-routed serially from
   scratch: on boards the serial router cannot finish either, the
   parallel router reproduces the serial result exactly, keeping
   parallelism a pure accelerator rather than a quality change.

Determinism: the partition is a pure function of board extent, worker
count and connection geometry; workers are deterministic and all sit at
the same sync epoch when a wave is dealt, so results do not depend on
which worker a group lands on; and the merge order is fixed.  Hence the
completed set depends only on the configuration, not on scheduling.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.board.board import Board
from repro.board.nets import Connection
from repro.channels.workspace import RoutingWorkspace
from repro.core import fastpath
from repro.core.budget import STOP_DEADLINE, BudgetTracker
from repro.core.profiling import RouterProfile
from repro.core.result import RoutingResult
from repro.core.sorting import sort_connections
from repro.obs.audit import WorkspaceAuditError, WorkspaceAuditor
from repro.obs.events import (
    AuditRun,
    AutoSerial,
    BackendSelected,
    CacheStats,
    DegradedMode,
    WaveEnd,
    WaveStart,
    WorkerRetry,
)
from repro.obs.sinks import NULL_SINK, EventSink

from repro.parallel.faults import InjectedFault, fault_spec, inject_inline
from repro.parallel.merge import merge_wave
from repro.parallel.partition import (
    WAVE_SPECS,
    WaveGroup,
    assign_strips,
    pool_decision,
    routing_margin,
    shard_round_robin,
    strip_spec,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.worker import GroupResult, route_group_in, worker_config


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ParallelRouter:
    """Wave-parallel PCB router with a serial repair phase."""

    def __init__(
        self,
        board: Board,
        config=None,
        workspace: Optional[RoutingWorkspace] = None,
        sink: Optional[EventSink] = None,
        budget_tracker: Optional[BudgetTracker] = None,
    ) -> None:
        from repro.core.router import RouterConfig

        self.board = board
        self.config = config or RouterConfig(workers=2)
        self.workspace = workspace or RoutingWorkspace(board)
        #: The resolved search backend, applied and reported per route().
        self.backend = fastpath.resolve_backend(self.config.backend)
        #: Master-side routing event stream (repro.obs).  Pool workers
        #: route in other processes and are not traced; their outcomes
        #: surface here as merge/demotion events.
        self.sink = sink if sink is not None else NULL_SINK
        self.profile = RouterProfile()
        #: Optional externally-owned deadline clock (mirrors the serial
        #: router); normally None and created per route() call.
        self.budget_tracker = budget_tracker
        #: Keep the worker pool alive past route() instead of closing
        #: it: the ECO session sets this so the mutate→reroute loop
        #: reuses one pool (claim it back with :meth:`release_pool`).
        self.keep_pool = False
        self._adopted_pool: Optional[WorkerPool] = None
        self._kept_pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------
    # pool handoff (ECO session reuse)
    # ------------------------------------------------------------------

    def attach_pool(self, pool: Optional[WorkerPool]) -> None:
        """Offer an already-running pool for the next route() call.

        The pool is adopted only if it is alive, mirrors *this*
        router's workspace object and matches the configured worker
        count; otherwise it is closed and a fresh pool spawns as usual.
        The caller must have synchronized the pool to the workspace's
        current state (see :meth:`RoutingWorkspace.drain_delta`).
        """
        self._adopted_pool = pool

    def release_pool(self) -> Optional[WorkerPool]:
        """Claim the surviving pool after a ``keep_pool`` route() call.

        Returns None when no pool survived (auto-serial with no prior
        pool, inline fallback, parity fallback, or ``keep_pool`` unset
        — in which case the pool was closed).
        """
        pool, self._kept_pool = self._kept_pool, None
        if pool is None:
            # route() may never have touched the pool (auto-serial or a
            # waveless call); hand an adopted pool back rather than
            # leaking it.  Its replicas catch up at the next sync.
            pool, self._adopted_pool = self._adopted_pool, None
        return pool

    # ------------------------------------------------------------------
    # wave execution
    # ------------------------------------------------------------------

    def _degrade_group(
        self, group: WaveGroup, reason: str, result: RoutingResult
    ) -> None:
        """Drop a group from its wave; the serial residue picks it up."""
        result.degraded_groups += 1
        if self.sink.enabled:
            self.sink.emit(
                DegradedMode(
                    f"group {group.strip_index}",
                    reason,
                    len(group.connections),
                )
            )

    def _run_inline(
        self,
        groups: List[WaveGroup],
        wave_cfg,
        result: RoutingResult,
        tracker: BudgetTracker,
    ) -> List[GroupResult]:
        """In-process fan-out fallback (same retry/degrade contract).

        Used when no worker pool can be created (restricted
        environments): each group routes against a private snapshot,
        which is behaviorally identical, just not concurrent.
        """
        cfg = self.config
        sink = self.sink
        spec = fault_spec()
        out: List[GroupResult] = []
        for group in groups:
            if tracker.deadline_exceeded(f"group {group.strip_index}"):
                self._degrade_group(group, "deadline", result)
                continue
            for attempt in range(cfg.worker_retries + 1):
                try:
                    inject_inline(spec, attempt)
                    out.append(
                        route_group_in(
                            self.workspace.snapshot(), wave_cfg, group
                        )
                    )
                    break
                except InjectedFault:
                    if attempt < cfg.worker_retries:
                        result.worker_retries += 1
                        if sink.enabled:
                            sink.emit(
                                WorkerRetry(
                                    group.strip_index, attempt, "error", 0.0
                                )
                            )
                    else:
                        self._degrade_group(group, "error", result)
        return out

    def _auto_serial(
        self,
        connections: Sequence[Connection],
        decision,
        tracker: BudgetTracker,
        started: float,
    ) -> RoutingResult:
        """Route the whole call serially, bypassing the pool entirely.

        The result is bit-identical to ``workers=1`` routing: same
        config (minus the worker count), same workspace, same tracker.
        """
        from repro.core.router import GreedyRouter

        if self.sink.enabled:
            self.sink.emit(
                AutoSerial(
                    decision.reason,
                    decision.demand,
                    decision.supply,
                    decision.utilization,
                    len(connections),
                )
            )
        serial = GreedyRouter(
            self.board,
            self._serial_config(),
            workspace=self.workspace,
            sink=self.sink,
            budget_tracker=tracker,
        )
        result = serial.route(connections)
        self.profile = serial.profile
        result.auto_serial = True
        result.cpu_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # the route entry point
    # ------------------------------------------------------------------

    def route(self, connections: Sequence[Connection]) -> RoutingResult:
        """Route a connection list; same contract as the serial router."""
        from repro.core.router import GreedyRouter

        started = time.perf_counter()
        self.profile = RouterProfile()
        cfg = self.config
        tracker = self.budget_tracker or BudgetTracker(
            cfg.budget, self.sink
        )
        timed = tracker.timed
        sink = self.sink
        ws = self.workspace
        fastpath.use_backend(ws, self.backend)
        self.profile.bump(f"backend_{self.backend}", 1)
        if sink.enabled:
            sink.emit(
                BackendSelected(
                    cfg.backend,
                    self.backend,
                    fastpath.backend_reason(self.backend),
                )
            )

        if cfg.workers > 1 and cfg.pool_auto_serial:
            decision = pool_decision(
                connections,
                ws.channel_supply(),
                self.board.grid.grid_per_via,
                cfg.pool_min_demand,
                cfg.pool_max_utilization,
                available_cpus=_available_cpus(),
            )
            if not decision.use_pool:
                return self._auto_serial(
                    connections, decision, tracker, started
                )

        ordered = (
            sort_connections(connections) if cfg.sort else list(connections)
        )
        result = RoutingResult(
            workspace=ws, connections=list(connections)
        )
        margin = routing_margin(cfg.radius, self.board.grid.grid_per_via)
        wave_cfg = worker_config(cfg)
        pending = [c for c in ordered if not ws.is_routed(c.conn_id)]

        #: The pool comes up lazily at the first wave that actually has
        #: groups to deal, and only once per route() call.
        pool: Optional[WorkerPool] = None
        inline = False

        def run_wave(groups: List[WaveGroup]) -> List[GroupResult]:
            nonlocal pool, inline
            if pool is None and not inline:
                adopted, self._adopted_pool = self._adopted_pool, None
                if (
                    adopted is not None
                    and adopted.alive
                    and adopted.workspace is ws
                    and adopted.n_workers == cfg.workers
                ):
                    pool = adopted
                else:
                    if adopted is not None:
                        adopted.close()
                    try:
                        with self.profile.measure("pool_spawn"):
                            if ws.delta_active:
                                # A continuous (ECO) recording may hold
                                # ops already baked into the snapshot
                                # the new workers are about to receive;
                                # drop them so the first sync does not
                                # replay them twice.
                                ws.drain_delta()
                            candidate = WorkerPool(
                                ws, cfg, cfg.workers, sink=sink
                            )
                            candidate.start()
                        pool = candidate
                    except (OSError, PermissionError):
                        # No subprocesses available (restricted
                        # environments): route in-process instead.
                        inline = True
            wcfg = self._wave_config(wave_cfg, tracker)
            if inline:
                return self._run_inline(groups, wcfg, result, tracker)
            return pool.run_wave(
                groups,
                wcfg,
                result.waves + 1,
                tracker,
                result,
                lambda group, reason: self._degrade_group(
                    group, reason, result
                ),
            )

        def merge_and_sync(group_results, rank=None, last=False):
            """Merge one wave, then ship the delta to the pool.

            The delta is recorded around the merge (the only master
            mutations between waves), so the broadcast carries exactly
            what this wave changed.  The last wave syncs only when the
            pool outlives this call (``keep_pool``); otherwise it is
            about to be closed.  Under an external continuous recording
            (the ECO session's), the log is *drained* at each sync
            point rather than opened and closed around the merge, so
            the session's own mutations never slip between windows.
            """
            external = ws.delta_active
            recording = pool is not None and (not last or self.keep_pool)
            if recording and not external:
                ws.begin_delta()
            try:
                with self.profile.measure("merge"):
                    outcome = merge_wave(
                        ws, group_results, result, rank, sink=sink
                    )
            finally:
                if recording:
                    delta = ws.drain_delta() if external else ws.end_delta()
                else:
                    delta = None
            if delta:
                digest = ws.state_digest() if cfg.audit else None
                with self.profile.measure("delta_sync"):
                    pool.sync(delta, digest)
            return outcome

        try:
            for axis, offset in WAVE_SPECS:
                if not pending:
                    break
                if timed:
                    if tracker.deadline_exceeded(
                        f"wave {result.waves + 1}"
                    ):
                        break
                    tracker.checkpoint(f"wave {result.waves + 1}")
                with self.profile.measure("partition"):
                    spec = strip_spec(
                        axis,
                        offset,
                        self.board.grid.via_nx,
                        self.board.grid.via_ny,
                        cfg.workers,
                        margin,
                    )
                    groups, leftover = assign_strips(pending, spec, margin)
                if len(groups) < 2:
                    # A single strip would just be serial routing with
                    # pool overhead; leave the rest to the residue phase.
                    continue
                if sink.enabled:
                    sink.emit(
                        WaveStart(
                            result.waves + 1,
                            len(groups),
                            sum(len(g.connections) for g in groups),
                        )
                    )
                with self.profile.measure("wave"):
                    group_results = run_wave(groups)
                for group_result in group_results:
                    self.profile.merge(group_result.profile)
                outcome = merge_and_sync(group_results)
                result.waves += 1
                result.demoted += len(outcome.demoted)
                if sink.enabled:
                    sink.emit(
                        WaveEnd(
                            result.waves,
                            outcome.merged,
                            len(outcome.demoted),
                            len(outcome.failed),
                        )
                    )
                if cfg.audit:
                    self._audit(f"wave {result.waves} merge")
                carry = {c.conn_id for c in leftover}
                carry |= outcome.demoted | outcome.failed
                pending = [
                    c
                    for c in pending
                    if c.conn_id in carry and not ws.is_routed(c.conn_id)
                ]

            # Speculative wave: the strip residue is dominated by long
            # connections whose bounding boxes never fit a strip —
            # exactly the Lee-heavy tail worth parallelising.  Shard
            # them round-robin with no disjointness guarantee and let
            # the merge's conflict detection arbitrate: records merge in
            # the master's sorted order, so contested space goes to the
            # connection the serial router would have preferred, and the
            # losers are demoted to the serial residue below.
            if (
                len(pending) > cfg.workers
                and not (
                    timed and tracker.deadline_exceeded("speculative wave")
                )
            ):
                if timed:
                    tracker.checkpoint("speculative wave")
                with self.profile.measure("partition"):
                    groups = shard_round_robin(pending, cfg.workers)
                if len(groups) >= 2:
                    if sink.enabled:
                        sink.emit(
                            WaveStart(
                                result.waves + 1, len(groups), len(pending)
                            )
                        )
                    with self.profile.measure("wave"):
                        group_results = run_wave(groups)
                    for group_result in group_results:
                        self.profile.merge(group_result.profile)
                    rank = {c.conn_id: i for i, c in enumerate(pending)}
                    outcome = merge_and_sync(
                        group_results, rank, last=True
                    )
                    result.waves += 1
                    result.demoted += len(outcome.demoted)
                    if sink.enabled:
                        sink.emit(
                            WaveEnd(
                                result.waves,
                                outcome.merged,
                                len(outcome.demoted),
                                len(outcome.failed),
                            )
                        )
                    if cfg.audit:
                        self._audit(f"wave {result.waves} merge")
        finally:
            if pool is not None:
                if self.keep_pool:
                    # The ECO session reclaims it via release_pool();
                    # its replicas sit at the post-merge sync state.
                    self._kept_pool = pool
                else:
                    pool.close()
                for counter, amount in pool.drain_counters().items():
                    if amount:
                        self.profile.bump(counter, amount)

        # Serial residue: the unchanged strategy stack (rip-up included)
        # over everything still unrouted, exactly as if those connections
        # had reached the hard tail of a serial run.  It shares this
        # call's budget tracker, so one deadline spans waves + residue.
        serial = GreedyRouter(
            self.board,
            self._serial_config(),
            workspace=ws,
            sink=sink,
            budget_tracker=tracker,
        )
        with self.profile.measure("residue"):
            serial_result = serial.route(ordered)
        self.profile.merge(serial.profile)
        result.passes += serial_result.passes
        result.rip_up_count += serial_result.rip_up_count
        result.putback_count += serial_result.putback_count
        result.lee_expansions += serial_result.lee_expansions
        result.routed_by.update(serial_result.routed_by)
        # The residue's rip-ups may have removed wave-routed connections
        # without restoring them; drop stale strategy entries.
        result.routed_by = {
            conn_id: strategy
            for conn_id, strategy in result.routed_by.items()
            if ws.is_routed(conn_id)
        }
        result.failed = [
            c.conn_id for c in ordered if not ws.is_routed(c.conn_id)
        ]
        result.stopped_reason = serial_result.stopped_reason
        result.failure_reasons = dict(serial_result.failure_reasons)

        if result.failed and cfg.parity_fallback:
            if tracker.deadline_hit:
                # Re-routing from scratch would destroy the deadline-
                # limited partial result with no clock left to rebuild
                # it; keep what we have.
                if sink.enabled:
                    sink.emit(
                        DegradedMode(
                            "parity_fallback",
                            "deadline",
                            len(result.failed),
                        )
                    )
            else:
                result = self._serial_fallback(
                    connections, result, tracker
                )

        if sink.enabled:
            # Aggregate over wave workers (merged from their profiles)
            # and the master-side serial phases.
            hits = self.profile.counters.get("gap_cache_hits", 0)
            misses = self.profile.counters.get("gap_cache_misses", 0)
            total = hits + misses
            sink.emit(
                CacheStats(
                    "parallel total",
                    hits,
                    misses,
                    hits / total if total else 0.0,
                )
            )
        result.cpu_seconds = time.perf_counter() - started
        return result

    def _audit(self, context: str) -> None:
        """Verify master invariants after a merge; raise on breakage."""
        report = WorkspaceAuditor(self.workspace).audit()
        if self.sink.enabled:
            self.sink.emit(AuditRun(context, len(report.violations)))
        if not report.ok:
            raise WorkspaceAuditError(report, context)

    def _serial_config(self):
        """The config for serial phases (single worker, same knobs)."""
        return replace(self.config, workers=1)

    def _wave_config(self, wave_cfg, tracker: BudgetTracker):
        """The config wave workers route with right now.

        A worker's own budget clock starts when its group does, so its
        deadline must be this call's *remaining* time, not the original
        ``deadline_seconds``.  Untimed runs return ``wave_cfg`` unchanged
        (bit-identical configs, zero overhead).
        """
        remaining = tracker.remaining()
        if remaining is None:
            return wave_cfg
        return replace(
            wave_cfg,
            budget=replace(
                wave_cfg.budget, deadline_seconds=max(0.0, remaining)
            ),
        )

    def _serial_fallback(
        self,
        connections: Sequence[Connection],
        attempt: RoutingResult,
        tracker: BudgetTracker,
    ) -> RoutingResult:
        """Discard the parallel attempt and re-route serially from scratch.

        Reached only on boards the wave pipeline could not complete —
        typically boards the serial router cannot complete either, where
        reproducing the serial result exactly matters more than speed.
        Shares the call's budget tracker; if the clock runs out mid-way
        and the from-scratch partial is *worse* than the parallel
        attempt, the attempt is kept instead.
        """
        from repro.core.router import GreedyRouter

        fresh = RoutingWorkspace(self.board)
        serial = GreedyRouter(
            self.board,
            self._serial_config(),
            fresh,
            sink=self.sink,
            budget_tracker=tracker,
        )
        result = serial.route(connections)
        self.profile.merge(serial.profile)
        if self._kept_pool is not None:
            # The kept pool mirrors the *discarded* workspace; a reroute
            # against the fresh one could never sync it coherently.
            self._kept_pool.close()
            self._kept_pool = None
        if (
            result.stopped_reason == STOP_DEADLINE
            and result.routed_count < attempt.routed_count
        ):
            if self.sink.enabled:
                self.sink.emit(
                    DegradedMode(
                        "parity_fallback",
                        "deadline",
                        len(attempt.failed),
                    )
                )
            return attempt
        self.workspace = fresh
        result.waves = attempt.waves
        result.demoted = attempt.demoted
        result.worker_retries = attempt.worker_retries
        result.degraded_groups = attempt.degraded_groups
        result.fallback_serial = True
        return result
