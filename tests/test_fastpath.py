"""Both Section 7 kernels against the reference DFS; the Vias memo; the
native kernel's build cache and backend resolution.

:mod:`repro.core.single_layer` runs ``trace``, ``reachable_vias`` and
``obstructions`` on the scalar kernel, and ``trace``/``reachable_vias``
also on its C port (:mod:`repro.core.fastpath`).  Each kernel must be
*bit-for-bit* substitutable for the plain depth-first search kept in
``tests/oracle_single_layer.py``: same results in the same emission
order (owner sets for ``obstructions``), same :class:`SearchStats`, same
truncation points at the ``max_gaps`` cap and at budget checkpoints,
and — with no memo — the same via-map probe accounting.  With the
per-search *Vias* memo, lists and statistics stay identical while
probes drop.  These tests drive the kernel and the oracle over
hypothesis-generated channel states and whole boards and assert exact
equality — no tolerances anywhere.  The parity classes run on the
scalar kernel; their ``…Native`` subclasses rerun every case on the C
kernel (skipped where it could not be built).
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RouteRequest, route
from repro.board.board import Board
from repro.channels.channel import ChannelConflictError
from repro.channels.workspace import RoutingWorkspace
from repro.core import fastpath
from repro.core.budget import BudgetTracker, RouteBudget
from repro.core.router import GreedyRouter, RouterConfig
from repro.cli import main as cli_main
from repro.core.single_layer import (
    SearchStats,
    obstructions,
    reachable_vias,
    trace,
)
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests import oracle_single_layer as oracle
from tests.conftest import make_connection, scaled


#: Marks a class that needs the C kernel on this machine.
needs_kernel = pytest.mark.skipif(
    fastpath.KERNEL is None,
    reason=f"native kernel unavailable: {fastpath.REASON}",
)


#: The kernels the parity suites hold to the reference DFS here.
KERNELS = ("python",) if fastpath.KERNEL is None else ("python", "native")


def _no_kernel(monkeypatch, reason="no C compiler (test)"):
    monkeypatch.setattr(fastpath, "KERNEL", None)
    monkeypatch.setattr(fastpath, "REASON", reason)


class TestResolveBackend:
    def test_python_always_resolves(self):
        assert fastpath.resolve_backend("python") == "python"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            fastpath.resolve_backend("cuda")

    @needs_kernel
    def test_auto_resolves_to_native_when_the_kernel_loaded(self):
        assert fastpath.resolve_backend("auto") == "native"
        assert fastpath.resolve_backend("native") == "native"
        assert RouterConfig(backend="auto").backend == "auto"
        board = Board.create(4, 4, 2)
        assert GreedyRouter(board, RouterConfig(backend="auto")).backend == (
            "native"
        )

    def test_auto_falls_back_without_the_kernel(self, monkeypatch):
        _no_kernel(monkeypatch)
        assert fastpath.resolve_backend("auto") == "python"
        assert fastpath.backend_reason("python") == "no C compiler (test)"

    def test_native_without_the_kernel_raises_with_the_reason(
        self, monkeypatch
    ):
        _no_kernel(monkeypatch)
        with pytest.raises(fastpath.BackendUnavailable, match="no C comp"):
            fastpath.resolve_backend("native")
        with pytest.raises(ValueError, match="unavailable: no C comp"):
            RouterConfig(backend="native")

    def test_explicit_numpy_without_numpy_raises(self):
        with pytest.raises(ValueError, match="numpy.*removed"):
            fastpath.resolve_backend("numpy")
        with pytest.raises(ValueError, match="numpy.*removed"):
            RouterConfig(backend="numpy")

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("GRR_BACKEND", raising=False)
        assert RouterConfig().backend == "auto"

    def test_router_applies_its_backend_to_the_workspace(self):
        board = Board.create(via_nx=6, via_ny=6, n_signal_layers=2)
        ws = RoutingWorkspace(board)
        GreedyRouter(board, RouterConfig(backend="python"), ws).route([])
        assert all(layer.kernel is None for layer in ws.layers)
        if fastpath.KERNEL is not None:
            GreedyRouter(board, RouterConfig(backend="native"), ws).route([])
            assert all(layer.kernel is fastpath.KERNEL for layer in ws.layers)
            # Copies (snapshots, spawn payloads) start on the scalar
            # kernel until their own router sets them.
            assert all(layer.kernel is None for layer in ws.snapshot().layers)


class TestKernelBuild:
    """The build cache and its fallbacks (``fastpath.load_kernel``)."""

    def _source(self, tmp_path):
        source = tmp_path / "_kernel.c"
        shutil.copyfile(fastpath.SOURCE, source)
        return source

    @needs_kernel
    def test_edited_source_rebuilds(self, tmp_path):
        source, cache = self._source(tmp_path), tmp_path / "cache"
        module, reason = fastpath.load_kernel(source, cache)
        assert module is not None and reason == ""
        first = sorted(cache.glob("_kernel_*"))
        assert len(first) == 1
        # Cached: a second load builds nothing new.
        assert fastpath.load_kernel(source, cache)[0] is not None
        assert sorted(cache.glob("_kernel_*")) == first
        with open(source, "a", encoding="utf-8") as stream:
            stream.write("\n/* edited */\n")
        module, reason = fastpath.load_kernel(source, cache)
        assert module is not None and reason == ""
        builds = sorted(cache.glob("_kernel_*"))
        assert len(builds) == 2 and first[0] in builds
        # No temp file is left behind.
        assert not list(cache.glob("*.tmp"))

    @needs_kernel  # a machine where the real build works
    def test_missing_compiler_falls_back_with_a_reason(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        module, reason = fastpath.load_kernel(
            self._source(tmp_path), tmp_path / "cache"
        )
        assert module is None
        assert "no-such-cc" in reason and "did not run" in reason
        assert not list((tmp_path / "cache").glob("*"))

    @needs_kernel
    def test_failing_compiler_falls_back_with_a_reason(self, tmp_path):
        source = self._source(tmp_path)
        source.write_text("#error deliberately broken\n")
        module, reason = fastpath.load_kernel(source, tmp_path / "cache")
        assert module is None and "exited" in reason

    def test_missing_source_falls_back_with_a_reason(self, tmp_path):
        module, reason = fastpath.load_kernel(
            tmp_path / "absent.c", tmp_path / "cache"
        )
        assert module is None and "cannot read absent.c" in reason

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_worker_reports_the_same_backend(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            worker = pool.submit(fastpath.resolve_backend, "auto").result()
        assert worker == fastpath.resolve_backend("auto")


class TestCliBackend:
    def _route(self, tmp_path, *extra):
        board = tmp_path / "t.board"
        conns = tmp_path / "t.conns"
        assert cli_main(
            ["generate", str(board), "--config", "tna", "--scale", "0.2"]
        ) == 0
        assert cli_main(["string", str(board), str(conns)]) == 0
        return cli_main(
            ["route", str(board), str(conns), str(tmp_path / "t.routes"),
             *extra]
        )

    def test_native_without_the_kernel_is_a_one_line_error(
        self, tmp_path, monkeypatch, capsys
    ):
        _no_kernel(monkeypatch, "C compiler 'cc' did not run (test)")
        assert self._route(tmp_path, "--backend", "native") == 2
        err = capsys.readouterr().err.strip()
        assert err == (
            "grr: backend 'native' is unavailable: "
            "C compiler 'cc' did not run (test)"
        )

    def test_resolved_backend_and_reason_reach_the_trace(
        self, tmp_path, monkeypatch
    ):
        _no_kernel(monkeypatch, "no compiler (test)")
        trace_path = tmp_path / "trace.jsonl"
        self._route(tmp_path, "--backend", "auto", "--trace", str(trace_path))
        first = json.loads(trace_path.read_text().splitlines()[0])
        assert first["event"] == "backend_selected"
        assert (first["requested"], first["selected"], first["reason"]) == (
            "auto", "python", "no compiler (test)"
        )


def _workspace(board, backend):
    """A fresh workspace whose searches run on ``backend``."""
    ws = RoutingWorkspace(board)
    fastpath.use_backend(ws, fastpath.resolve_backend(backend))
    return ws


def _populated_workspace(segments, backend):
    """Workspace over a 10x8 board with hypothesis-chosen obstructions."""
    board = Board.create(via_nx=10, via_ny=8, n_signal_layers=2)
    ws = _workspace(board, backend)
    for layer_index, channel_index, lo, hi, owner in segments:
        layer = ws.layers[layer_index]
        try:
            ws.add_segment(
                layer_index,
                channel_index % layer.n_channels,
                lo % layer.channel_length,
                hi % layer.channel_length,
                owner,
            )
        except (ChannelConflictError, ValueError):
            pass
    return ws


def _kernel_and_oracle(ws, kernel_call, oracle_call):
    """Run both calls with fresh stats; return both (result, stats, probes)."""
    out = []
    for call in (kernel_call, oracle_call):
        probes_before = ws.via_map.probe_count
        stats = SearchStats()
        result = call(stats)
        out.append(
            (result, stats, ws.via_map.probe_count - probes_before)
        )
    return out


def _effort(stats):
    return (stats.searches, stats.examined, stats.cap_hits)


ws_segment = st.tuples(
    st.integers(0, 1),       # layer
    st.integers(0, 40),      # channel (wrapped)
    st.integers(0, 80),      # lo (wrapped)
    st.integers(0, 80),      # hi (wrapped)
    st.integers(5, 9),       # owner
).map(lambda t: (t[0], t[1], min(t[2], t[3]), max(t[2], t[3]), t[4]))

grid_point = st.tuples(st.integers(0, 27), st.integers(0, 21)).map(
    lambda t: GridPoint(*t)
)


class TestSearchParity:
    """trace / reachable_vias / obstructions agree exactly with the
    reference DFS."""

    @given(
        segments=st.lists(ws_segment, max_size=16),
        a=grid_point,
        b=grid_point,
        layer_index=st.integers(0, 1),
        max_gaps=st.one_of(st.just(20000), st.integers(1, 6)),
        passable=st.frozensets(st.integers(5, 9), max_size=2),
        # None searches the whole board; a margin boxes a and b in.
        margin=st.one_of(
            st.none(), st.tuples(st.integers(0, 6), st.integers(0, 6))
        ),
    )
    @settings(max_examples=scaled(80), deadline=None)
    def test_trace_parity(
        self, segments, a, b, layer_index, max_gaps, passable, margin
    ):
        box = Box(0, 0, 27, 21)
        if margin is not None:
            mx, my = margin
            box = Box(
                max(min(a.gx, b.gx) - mx, 0), max(min(a.gy, b.gy) - my, 0),
                min(max(a.gx, b.gx) + mx, 27), min(max(a.gy, b.gy) + my, 21),
            )
        for backend in KERNELS:
            ws = _populated_workspace(segments, backend)
            layer = ws.layers[layer_index]
            (rk, sk, pk), (ro, so, po) = _kernel_and_oracle(
                ws,
                lambda stats: trace(layer, a, b, box, passable, max_gaps, stats),
                lambda stats: oracle.trace(
                    layer, a, b, box, passable, max_gaps, stats
                ),
            )
            assert rk == ro
            assert _effort(sk) == _effort(so)
            assert pk == po

    @given(
        segments=st.lists(ws_segment, max_size=16),
        a=grid_point,
        layer_index=st.integers(0, 1),
        max_gaps=st.one_of(st.just(20000), st.integers(1, 6)),
        passable=st.frozensets(st.integers(5, 9), max_size=2),
        box=st.tuples(st.integers(0, 10), st.integers(0, 8)).map(
            lambda t: Box(t[0], t[1], 27 - t[0], 21 - t[1])
        ),
    )
    @settings(max_examples=scaled(80), deadline=None)
    def test_reachable_vias_parity(
        self, segments, a, layer_index, max_gaps, passable, box
    ):
        for backend in KERNELS:
            ws = _populated_workspace(segments, backend)
            layer = ws.layers[layer_index]
            (rk, sk, pk), (ro, so, po) = _kernel_and_oracle(
                ws,
                lambda stats: reachable_vias(
                    layer, a, box, passable, ws.via_map, max_gaps, stats
                ),
                lambda stats: oracle.reachable_vias(
                    layer, a, box, passable, ws.via_map, max_gaps, stats
                ),
            )
            # Emission order is part of the contract (Lee heap entries
            # tiebreak on insertion order), so compare lists, not sets.
            assert rk == ro
            assert _effort(sk) == _effort(so)
            assert pk == po

    @given(
        segments=st.lists(ws_segment, max_size=16),
        a=grid_point,
        layer_index=st.integers(0, 1),
        max_gaps=st.one_of(st.just(20000), st.integers(1, 6)),
        passable=st.frozensets(st.integers(5, 9), max_size=2),
        box=st.tuples(st.integers(0, 10), st.integers(0, 8)).map(
            lambda t: Box(t[0], t[1], 27 - t[0], 21 - t[1])
        ),
    )
    @settings(max_examples=scaled(80), deadline=None)
    def test_obstructions_parity(
        self, segments, a, layer_index, max_gaps, passable, box
    ):
        ws = _populated_workspace(segments, "python")
        layer = ws.layers[layer_index]
        (rk, sk, _), (ro, so, _) = _kernel_and_oracle(
            ws,
            lambda stats: obstructions(
                layer, a, box, passable, max_gaps, stats
            ),
            lambda stats: oracle.obstructions(
                layer, a, box, passable, max_gaps, stats
            ),
        )
        assert rk == ro
        assert _effort(sk) == _effort(so)

    def test_obstructions_read_both_channel_ends(self):
        # The gap between single-cell segments on a channel's first and
        # last cells, walled in by its full neighbor channels: the end
        # owners are found only by the along-channel probes.
        board = Board.create(via_nx=10, via_ny=8, n_signal_layers=2)
        ws = _workspace(board, "python")
        layer = ws.layers[0]
        c, last = 4, layer.channel_length - 1
        ws.add_segment(0, c, 0, 0, 5)
        ws.add_segment(0, c, last, last, 6)
        for nc in (c - 1, c + 1):
            ws.add_segment(0, nc, 0, last, 7)
        a = layer.cc_point(c, last // 2)
        box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)
        for search in (obstructions, oracle.obstructions):
            assert search(layer, a, box) == {5, 6, 7}

    def test_sites_covered_by_two_owners_are_unavailable(self):
        # Owner 5 runs along via row 3 on layer 0; owner 6 crosses it on
        # layer 1 at via column 2.  With 5 passable the whole row is one
        # free gap on layer 0, but site (2, 3) is covered by two owners
        # (MIXED in the via map), so only the sites 5 alone covers count.
        board = Board.create(via_nx=10, via_ny=8, n_signal_layers=2)
        for backend in KERNELS:
            ws = _workspace(board, backend)
            ws.add_segment(0, 9, 0, 12, 5)
            ws.add_segment(1, 6, 6, 12, 6)
            layer = ws.layers[0]
            box = Box(0, 9, 27, 9)
            found = reachable_vias(
                layer, GridPoint(0, 9), box, frozenset({5}), ws.via_map
            )
            assert found == oracle.reachable_vias(
                layer, GridPoint(0, 9), box, frozenset({5}), ws.via_map
            )
            assert ViaPoint(1, 3) in found and ViaPoint(3, 3) in found
            assert ViaPoint(2, 3) not in found

    def test_budget_exhaustion_truncates_identically(self):
        for backend in KERNELS:
            # Tall empty board: >64 free gaps in the box, so the budget
            # checkpoint (every SEARCH_CHECK_MASK+1 pops) fires mid-search.
            board = Board.create(via_nx=8, via_ny=25, n_signal_layers=2)
            ws = _workspace(board, backend)
            layer = ws.layers[0]
            box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)
            results = []
            for search in (reachable_vias, oracle.reachable_vias):
                stats = SearchStats()
                found = search(
                    layer,
                    GridPoint(0, 0),
                    box,
                    frozenset(),
                    ws.via_map,
                    20000,
                    stats,
                    budget=_expired_budget(),
                )
                results.append((found, _effort(stats)))
            assert results[0] == results[1]
            # The truncation actually happened, at the first checkpoint.
            assert results[0][1][2] == 1

    def test_max_gaps_cap_truncates_identically(self):
        for backend in KERNELS:
            board = Board.create(via_nx=8, via_ny=25, n_signal_layers=2)
            ws = _workspace(board, backend)
            box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)
            results = []
            for search in (reachable_vias, oracle.reachable_vias):
                stats = SearchStats()
                found = search(
                    ws.layers[0],
                    GridPoint(0, 0),
                    box,
                    frozenset(),
                    ws.via_map,
                    5,
                    stats,
                )
                results.append((found, _effort(stats)))
            assert results[0] == results[1]
            assert results[0][1][2] == 1


def _expired_budget():
    """A hot budget tracker whose deadline has already passed."""
    clock_now = [0.0]
    tracker = BudgetTracker(
        RouteBudget(deadline_seconds=0.5), clock=lambda: clock_now[0]
    )
    clock_now[0] = 10.0
    return tracker.hot()


#: Boxes shared between calls, so calls can hit each other's entries.
memo_box = st.sampled_from(
    (Box(0, 0, 27, 21), Box(0, 3, 27, 9), Box(6, 0, 12, 21))
)

#: Start points on a few rows/columns, mostly via sites (x, y multiples
#: of the grid's 3 units per via), so neighbors share start gaps.
memo_point = st.tuples(
    st.integers(0, 9).map(lambda v: 3 * v),
    st.sampled_from((3, 6, 7, 9)),
).map(lambda t: GridPoint(*t))


class TestViasMemo:
    """A shared memo changes effort spent, never answers or statistics."""

    @given(
        segments=st.lists(ws_segment, max_size=16),
        calls=st.lists(
            st.tuples(st.integers(0, 1), memo_point, memo_box),
            min_size=1,
            max_size=12,
        ),
        max_gaps=st.one_of(st.just(20000), st.integers(1, 6)),
        passable=st.frozensets(st.integers(5, 9), max_size=2),
    )
    @settings(max_examples=scaled(80), deadline=None)
    def test_shared_memo_matches_fresh_calls(
        self, segments, calls, max_gaps, passable
    ):
        for backend in KERNELS:
            ws = _populated_workspace(segments, backend)
            memo: dict = {}
            for layer_index, a, box in calls:
                layer = ws.layers[layer_index]
                shared = SearchStats()
                fresh = SearchStats()
                with_memo = reachable_vias(
                    layer, a, box, passable, ws.via_map, max_gaps, shared,
                    memo=memo,
                )
                without = reachable_vias(
                    layer, a, box, passable, ws.via_map, max_gaps, fresh
                )
                assert with_memo == without
                assert _effort(shared) == _effort(fresh)
                assert fresh.memo_hits == 0

    def test_hits_replay_and_save_probes(self):
        for backend in KERNELS:
            board = Board.create(via_nx=10, via_ny=8, n_signal_layers=2)
            ws = _workspace(board, backend)
            layer = ws.layers[0]
            box = Box(0, 0, 27, 21)
            # Two via sites in one free gap of via channel 9.
            a, b = layer.cc_point(9, 0), layer.cc_point(9, 3)
            via_a, via_b = ws.grid.grid_to_via(a), ws.grid.grid_to_via(b)
            memo: dict = {}
            first, second = SearchStats(), SearchStats()
            probes = ws.via_map.probe_count
            found_a = reachable_vias(
                layer, a, box, frozenset(), ws.via_map, stats=first, memo=memo
            )
            spent = ws.via_map.probe_count - probes
            found_b = reachable_vias(
                layer, b, box, frozenset(), ws.via_map, stats=second, memo=memo
            )
            # Same start gap: a hit, answered without a single probe, that
            # replays the stored search's statistics.
            assert ws.via_map.probe_count - probes == spent
            assert (second.memo_hits, first.memo_hits) == (1, 0)
            assert _effort(second) == _effort(first)
            assert via_a not in found_a and via_a in found_b
            assert via_b in found_a and via_b not in found_b
            assert found_b == oracle.reachable_vias(
                layer, b, box, frozenset(), ws.via_map
            )

    def test_capped_search_is_not_stored(self):
        for backend in KERNELS:
            board = Board.create(via_nx=8, via_ny=25, n_signal_layers=2)
            ws = _workspace(board, backend)
            box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)
            memo: dict = {}
            stats = SearchStats()
            for _ in range(2):
                reachable_vias(
                    ws.layers[0], GridPoint(0, 0), box, frozenset(),
                    ws.via_map, 5, stats, memo=memo,
                )
            assert memo == {}
            assert (stats.cap_hits, stats.memo_hits) == (2, 0)

    def test_budget_truncated_search_is_not_stored(self):
        for backend in KERNELS:
            board = Board.create(via_nx=8, via_ny=25, n_signal_layers=2)
            ws = _workspace(board, backend)
            box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)
            memo: dict = {}
            stats = SearchStats()
            reachable_vias(
                ws.layers[0], GridPoint(0, 0), box, frozenset(), ws.via_map,
                20000, stats, budget=_expired_budget(), memo=memo,
            )
            assert memo == {}
            assert stats.cap_hits == 1

    def test_caller_may_mutate_a_hit(self):
        for backend in KERNELS:
            board = Board.create(via_nx=10, via_ny=8, n_signal_layers=2)
            ws = _workspace(board, backend)
            layer = ws.layers[0]
            box = Box(0, 0, 27, 21)
            memo: dict = {}
            expected = oracle.reachable_vias(
                layer, GridPoint(3, 9), box, frozenset(), ws.via_map
            )
            for _ in range(3):
                found = reachable_vias(
                    layer, GridPoint(3, 9), box, frozenset(), ws.via_map,
                    memo=memo,
                )
                assert found == expected
                found.append(ViaPoint(9, 7))
                del found[0]
            assert len(memo) == 1


class TestFullBoardParity:
    """Whole routed boards: kernel with memo against the reference DFS."""

    def _route(self, monkeypatch, board_fn, search, backend, reference,
               **config):
        if reference:
            oracle.install(monkeypatch)
        board, conns = board_fn()
        ws = RoutingWorkspace(board)
        router = GreedyRouter(
            board, RouterConfig(search=search, backend=backend, **config), ws
        )
        result = router.route(conns)
        monkeypatch.undo()
        # Gap-cache traffic and memo hits are effort bookkeeping that
        # the memo exists to change; everything else must match.
        counters = {
            k: v
            for k, v in router.profile.counters.items()
            if not k.startswith(("backend_", "gap_cache", "vias_memo"))
        }
        return (
            result.routed_by,
            result.failed,
            result.lee_expansions,
            ws.canonical_state(),
            counters.get("cap_hits", 0),
            counters,
        ), router.profile.counters.get("vias_memo_hits", 0)

    def test_routes_and_state_bit_identical(self, monkeypatch):
        # audit=True re-verifies workspace invariants after every pass
        # (the GRR_AUDIT=1 tier), so parity here covers the audit too;
        # without the optimal strategies every connection goes to Lee.
        config = dict(audit=True, enable_zero_via=False, enable_one_via=False)
        for search in ("classic", "goal"):
            reference, _ = self._route(
                monkeypatch, _small_board, search, "python", reference=True,
                **config,
            )
            for backend in KERNELS:
                kernel, _ = self._route(
                    monkeypatch, _small_board, search, backend,
                    reference=False, **config,
                )
                assert kernel == reference, (search, backend)

    @pytest.mark.slow
    @pytest.mark.parametrize("search", ["classic", "goal"])
    def test_kdj11_2l_bit_identical(self, monkeypatch, search):
        reference, _ = self._route(
            monkeypatch, _kdj11_2l, search, "python", reference=True
        )
        for backend in KERNELS:
            kernel, hits = self._route(
                monkeypatch, _kdj11_2l, search, backend, reference=False
            )
            assert kernel == reference, backend
            assert hits > 0


def _small_board():
    board = Board.create(via_nx=20, via_ny=15, n_signal_layers=4)
    pins = [
        ((2, 2), (17, 12)),
        ((3, 12), (16, 3)),
        ((2, 7), (17, 7)),
        ((9, 1), (9, 13)),
        ((5, 5), (14, 10)),
        ((4, 3), (15, 11)),
    ]
    conns = []
    for i, (pa, pb) in enumerate(pins):
        conn = make_connection(board, ViaPoint(*pa), ViaPoint(*pb), i)
        conn.conn_id = i
        conns.append(conn)
    return board, conns


def _kdj11_2l():
    """The congested two-layer board the paper failed on (Table 1)."""
    board = make_titan_board("kdj11_2l", scale=0.30, seed=1)
    return board, Stringer(board).string_all()


def test_memo_hits_reach_route_response_counters():
    board = make_titan_board("kdj11_2l", scale=0.30, seed=2)
    conns = tuple(Stringer(board).string_all())
    response = route(RouteRequest(board=board, connections=conns))
    assert response.counters.get("vias_memo_hits", 0) > 0
