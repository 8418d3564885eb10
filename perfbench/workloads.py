"""The three workloads, driven through the public API as a user would.

A *batch* is the fixed unit of work a run repeats until its time is up:

* ``congested`` — three bulk requests, kdj11_2l at scale 0.30;
* ``local_bulk`` — one bulk request on a 160x160 six-layer board;
* ``eco_edit`` — one seeded edit stream on each of three coproc boards.

A bulk request is load (``RouteRequest.from_path``, which strings the
board) -> ``route()`` -> verify (``check_connectivity`` + ``run_drc``) ->
export (``save_routes``).  An ECO request is an ``EcoSession`` edit
followed by ``reroute()``.  Every output is checked outside the timed
region; a failed check is recorded in ``Batch.failures``.
"""

from __future__ import annotations

import importlib
import os
import random
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import EcoError, RouteRequest, RouterConfig, begin_eco, route
from repro import string_board
from repro.board.parts import PinRole
from repro.channels.workspace import RoutingWorkspace
from repro.grid.coords import ViaPoint
from repro.io import load_routes, save_board, save_routes
from repro.verify import check_connectivity, run_drc
from repro.verify.connectivity import connection_is_path
from repro.workloads import BoardSpec, NetlistSpec, generate_board
from repro.workloads import make_titan_board

from tracing import Tracer, instrument

#: Board seeds of the congested matrix (kdj11_2l at 0.30).  Fixed: on
#: this board route time per seed spans 0.12-1.85 s (seeds 1-16), so a
#: seed-dependent board set could not hold any bound; ``--seed`` only
#: rotates the order in which the three are routed.
CONGESTED_SEEDS = (1, 2, 3)
#: Board seeds of the ECO boards (coproc at 0.35), fixed for the same
#: reason; ``--seed`` draws the edit streams.
ECO_BOARD_SEEDS = (1, 2, 3)
#: Edits per stream (each stream starts from a fresh cold route).
EDITS_PER_STREAM = 70
#: Times each run repeats its set-up, for a median ``setup_s``.
SETUP_REPEATS = 3
#: Consecutive refused moves tolerated before a stream is failed.
MAX_REFUSALS = 50


@dataclass
class Batch:
    """What one batch measured, plus its checks and its fingerprint."""

    flow_s: float = 0.0
    requested: int = 0
    routed: int = 0
    #: Connections the batch's routing calls routed (bulk: all of them;
    #: ECO: the ones each reroute routed).
    routed_by_calls: int = 0
    #: Vias and wire length of the routed connections counted in
    #: ``wired`` (bulk: every request's result; ECO: each stream's
    #: final state).
    vias: int = 0
    wire: int = 0
    wired: int = 0
    requests: int = 0
    #: Requests (bulk requests, ECO edits) whose outputs failed a check.
    failed: int = 0
    #: Profile- and result-derived per-layer sums (see ``metrics``).
    raw: Counter = field(default_factory=Counter)
    rewire_ms: List[float] = field(default_factory=list)
    move_ms: List[float] = field(default_factory=list)
    #: Deterministic fingerprint per input: routed-state digest plus the
    #: counters that must repeat exactly on identical inputs.
    signature: Dict[str, tuple] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: Set by the runner for traced batches: the batch's slice of the
    #: tracer's spans and its outcome counts.
    traced: bool = False
    span_range: Tuple[int, int] = (0, 0)
    outcomes: Counter = field(default_factory=Counter)


class RouterCapture:
    """Keeps the router each ``route()``/``reroute()`` call builds.

    ``RouteResponse`` carries the profile's seconds and counters but not
    its call counts; the router object holds the full merged
    ``RouterProfile``.  Capturing it wraps ``make_router`` where the API
    and the ECO session look it up: one extra call per request.
    """

    TARGETS = ("repro.api", "repro.eco")

    def __init__(self) -> None:
        self.router = None

    @contextmanager
    def installed(self):
        modules = [importlib.import_module(name) for name in self.TARGETS]
        originals = [module.make_router for module in modules]

        def capturing(original):
            def make_router(*args, **kwargs):
                self.router = original(*args, **kwargs)
                return self.router

            return make_router

        try:
            for module, original in zip(modules, originals):
                module.make_router = capturing(original)
            yield self
        finally:
            for module, original in zip(modules, originals):
                module.make_router = original

    def take(self):
        router, self.router = self.router, None
        return router


def _profile_raw(router, response, raw: Counter) -> None:
    """Fold one routing call's profile, counters and result into ``raw``."""
    result = response.result
    counters = response.counters
    if router is not None:
        for phase, timing in router.profile.phases.items():
            raw[f"{phase}_calls"] += timing.calls
            raw[f"{phase}_s"] += timing.seconds
    for name in (
        "gap_cache_hits", "gap_cache_misses", "gap_cache_bypassed",
        "lb_hits", "lb_rebuilds", "lb_prunes", "cap_retries",
        "worker_steals", "eco_invalidated", "eco_rerouted",
    ):
        raw[name] += counters.get(name, 0)
    raw["lee_expansions"] += result.lee_expansions
    raw["passes"] += result.passes
    raw["waves"] += result.waves
    raw["displaced"] += result.rip_up_count
    raw["putbacks"] += result.putback_count


#: Raw counters that must repeat exactly for identical inputs.
DETERMINISTIC = (
    "lee_expansions", "ripup_calls", "zero_via_calls", "one_via_calls",
    "lee_calls", "gap_cache_hits", "gap_cache_misses",
    "gap_cache_bypassed", "lb_hits", "lb_rebuilds", "displaced",
    "putbacks",
)


def _signature(digest: str, raw: Counter) -> tuple:
    return (digest,) + tuple(raw[name] for name in DETERMINISTIC)


def _reload_digest(board, path: str) -> str:
    """Digest of a route dump reloaded into a fresh workspace."""
    fresh = RoutingWorkspace(board)
    with open(path, encoding="utf-8") as stream:
        load_routes(fresh, stream)
    return fresh.state_digest()


def _verdict(report, drc) -> List[str]:
    """Routed connections are paths, finished nets connect, DRC is clean."""
    failures = []
    if report.broken_connections:
        failures.append(
            f"{len(report.broken_connections)} routed connections are not "
            "connected paths"
        )
    if any(net.missing_edges == 0 and not net.connected for net in report.nets):
        failures.append("a fully routed net is open")
    if not drc.clean:
        failures.append(f"{len(drc.errors)} DRC errors")
    return failures


def _export_check(board, workspace, path: str) -> Tuple[str, List[str]]:
    """The workspace digest, and a failure if its dump does not reload."""
    digest = workspace.state_digest()
    if _reload_digest(board, path) != digest:
        return digest, ["exported routes do not reload to the same state"]
    return digest, []


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _instrumented(tracer):
    return instrument(tracer) if tracer is not None else nullcontext()


class Workload:
    """Set-up once, then one batch per call to :meth:`batch`."""

    name = ""

    def __init__(self, seed: int, workdir: str, cpus: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cpus = cpus
        self.capture = RouterCapture()
        self.setup_times: List[float] = []

    @property
    def config(self) -> RouterConfig:
        return RouterConfig()

    def setup(self) -> None:
        """Make the inputs (timed into ``setup_times``)."""

    def batch(self, index: int, tracer: Optional[Tracer]) -> Batch:
        """Run batch number ``index`` (traced when ``tracer`` is given)."""
        raise NotImplementedError

    def replay(self) -> Optional[Batch]:
        """Re-run part of the first batch when batches do not repeat
        their inputs, so the determinism check has a pair to compare."""
        return None


class BulkWorkload(Workload):
    """Bulk requests over board files written at set-up."""

    def boards(self) -> List[Tuple[str, object]]:
        """(label, board) pairs, in request order."""
        raise NotImplementedError

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.paths = []
            for label, board in self.boards():
                path = os.path.join(self.workdir, f"{label}.board")
                save_board(board, path)
                self.paths.append((label, path))
            self.setup_times.append(time.perf_counter() - started)

    def batch(self, index: int, tracer: Optional[Tracer]) -> Batch:
        out = Batch()
        with self.capture.installed():
            for label, path in self.paths:
                self._request(label, path, tracer, out)
        return out

    def _request(self, label: str, path: str, tracer, out: Batch) -> None:
        routes_path = os.path.join(self.workdir, f"{label}.routes")
        if tracer is not None:
            tracer.run += 1
        started = time.perf_counter()
        with _instrumented(tracer), _span(tracer, "request"):
            request = RouteRequest.from_path(path, config=self.config)
            response = route(request)
            workspace = response.result.workspace
            with _span(tracer, "verify.connectivity"):
                report = check_connectivity(
                    request.board, workspace, request.connections
                )
            with _span(tracer, "verify.drc"):
                drc = run_drc(request.board, workspace)
            with _span(tracer, "io.save"):
                save_routes(workspace, routes_path)
        out.flow_s += time.perf_counter() - started

        result = response.result
        raw = Counter()
        _profile_raw(self.capture.take(), response, raw)
        out.raw.update(raw)
        out.raw["connections"] += len(request.connections)
        out.raw["save_bytes"] += os.path.getsize(routes_path)
        out.requests += 1
        out.requested += result.total_count
        out.routed += result.routed_count
        out.routed_by_calls += result.routed_count
        out.vias += result.vias_added
        out.wire += result.total_wire_length
        out.wired += result.routed_count

        failures = _verdict(report, drc)
        requested = {c.conn_id for c in request.connections}
        if set(workspace.records) & requested != set(result.routed_by):
            failures.append("routed set disagrees with the workspace")
        digest, reload_failures = _export_check(
            request.board, workspace, routes_path
        )
        failures += reload_failures
        out.failed += bool(failures)
        out.failures.extend(f"{label}: {f}" for f in failures)
        out.signature[label] = _signature(digest, raw)


class Congested(BulkWorkload):
    name = "congested"

    def boards(self):
        shift = self.seed % len(CONGESTED_SEEDS)
        order = CONGESTED_SEEDS[shift:] + CONGESTED_SEEDS[:shift]
        return [
            (
                f"kdj11_2l-s{seed}",
                make_titan_board("kdj11_2l", scale=0.30, seed=seed),
            )
            for seed in order
        ]


class LocalBulk(BulkWorkload):
    name = "local_bulk"

    @property
    def config(self) -> RouterConfig:
        return RouterConfig(workers=min(2, self.cpus))

    def boards(self):
        seed = self.seed
        spec = BoardSpec(
            via_nx=160,
            via_ny=160,
            n_signal_layers=6,
            netlist=NetlistSpec(locality=0.9, local_radius=11, seed=seed),
            seed=seed,
        )
        return [(f"local160-s{seed}", generate_board(spec))]


class EcoEdit(Workload):
    """Seeded edit streams, each on a freshly cold-routed board.

    Each batch index draws its own streams (seeded by run seed, index
    and board), so a run averages over many distinct edits;
    :meth:`replay` repeats the first stream for the determinism check.
    """

    name = "eco_edit"

    @property
    def config(self) -> RouterConfig:
        return RouterConfig(search="goal")

    def batch(self, index: int, tracer: Optional[Tracer]) -> Batch:
        out = Batch()
        with self.capture.installed():
            for board_seed in ECO_BOARD_SEEDS:
                self._stream(board_seed, index, tracer, out)
        return out

    def replay(self) -> Batch:
        out = Batch()
        setups = len(self.setup_times)
        with self.capture.installed():
            self._stream(ECO_BOARD_SEEDS[0], 0, None, out)
        del self.setup_times[setups:]
        return out

    def _cold_session(self, board_seed: int):
        """Set-up: generate, string and cold-route (timed)."""
        started = time.perf_counter()
        board = make_titan_board("coproc", scale=0.35, seed=board_seed)
        request = RouteRequest(
            board=board, connections=string_board(board), config=self.config
        )
        response = route(request)
        session = begin_eco(request, response)
        self.setup_times.append(time.perf_counter() - started)
        self.capture.take()
        return session

    @staticmethod
    def _draw(rng: random.Random, board, rewire: bool):
        """One edit: ("rewire", net_id, pins) or ("move", part_id, origin)."""
        if rewire:
            nets = [net for net in board.signal_nets if len(net.pin_ids) >= 2]
            net = nets[rng.randrange(len(nets))]
            pins = [
                p for p in net.pin_ids
                if board.pins[p].role is not PinRole.TERMINATOR
            ]
            return "rewire", net.net_id, pins
        part_id = rng.randrange(len(board.parts))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        origin = board.parts[part_id].origin
        return "move", part_id, ViaPoint(origin.vx + dx, origin.vy + dy)

    def _stream(self, board_seed: int, index: int, tracer, out: Batch) -> None:
        label = f"coproc-s{board_seed}-b{index}"
        session = self._cold_session(board_seed)
        board = session.board
        rng = random.Random(f"{self.seed}:{index}:{board_seed}")
        raw = Counter()
        failures: List[str] = []
        refused_in_a_row = 0
        edits = 0
        if tracer is not None:
            tracer.run += 1
        with session, _instrumented(tracer):
            while edits < EDITS_PER_STREAM:
                # Rewires and moves alternate, so every stream has the
                # same mix of the cheap and the expensive kind.
                kind, target, arg = self._draw(rng, board, edits % 2 == 0)
                started = time.perf_counter()
                try:
                    with _span(tracer, "eco.mutate"):
                        if kind == "rewire":
                            session.cut_nets([target])
                            stats = session.add_nets([arg])
                        else:
                            stats = session.move_part(target, arg)
                except EcoError:
                    raw["refused"] += 1
                    refused_in_a_row += 1
                    if refused_in_a_row > MAX_REFUSALS:
                        failures.append("too many refused moves in a row")
                        out.failed += 1
                        break
                    continue
                refused_in_a_row = 0
                with _span(tracer, "eco.reroute"):
                    response = session.reroute()
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                samples = out.rewire_ms if kind == "rewire" else out.move_ms
                samples.append(elapsed_ms)
                out.flow_s += elapsed_ms / 1000.0
                edits += 1
                _profile_raw(self.capture.take(), response, raw)
                raw["cascades"] += len(stats.cascades)
                out.requests += 1
                out.requested += response.result.total_count
                out.routed += response.result.routed_count
                ws = session.workspace
                by_id = {c.conn_id: c for c in session.connections}
                broken = [
                    conn_id
                    for conn_id in stats.invalidated
                    if conn_id in ws.records
                    and not connection_is_path(
                        ws, by_id[conn_id], ws.records[conn_id]
                    )
                ]
                if broken:
                    out.failed += 1
                    failures.append(
                        f"edit {edits}: connections {broken} are not "
                        "connected paths"
                    )
        ws = session.workspace
        report = check_connectivity(board, ws, session.connections)
        final = _verdict(report, run_drc(board, ws))
        routes_path = os.path.join(self.workdir, f"{label}.routes")
        save_routes(ws, routes_path)
        digest, reload_failures = _export_check(board, ws, routes_path)
        final += reload_failures
        out.failed += bool(final)
        failures += [f"final state: {f}" for f in final]
        out.vias += sum(r.via_count for r in ws.records.values())
        out.wire += sum(r.wire_length for r in ws.records.values())
        out.wired += len(ws.records)
        out.routed_by_calls += raw["eco_rerouted"]
        out.raw.update(raw)
        out.failures.extend(f"{label}: {f}" for f in failures)
        out.signature[label] = _signature(digest, raw) + (raw["refused"],)


WORKLOADS = {cls.name: cls for cls in (Congested, LocalBulk, EcoEdit)}
