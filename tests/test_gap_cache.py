"""The generation-stamped free-gap cache (repro.channels.gap_cache).

The load-bearing property: a :meth:`GapCache.full_bounds` read is
*always* equal to a fresh full-span ``Channel.free_gaps`` recompute, no
matter how adds, removes and probes interleave — the generation stamps
make a stale read structurally impossible.  Around that, unit tests for
the generation protocol, the base-view alias, the snapshot/pickle
semantics, the unified ``max_gaps`` cap signal and the reference DFS's
bisect-based ``gap_index_at``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.alternatives import MovingHeadChannel, TreeChannel
from repro.channels.channel import Channel, ChannelConflictError
from repro.channels.gap_cache import MAX_FULL_VARIANTS, GapCache
from repro.channels.workspace import RoutingWorkspace
from repro.core.lee import lee_route
from repro.core.router import GreedyRouter, RouterConfig
from repro.core.single_layer import SearchStats, reachable_vias, trace
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box
from repro.obs.sinks import RingBufferSink
from repro.stringer import Stringer
from repro.workloads import BoardSpec, NetlistSpec, generate_board

from tests.conftest import make_connection, scaled
from tests.oracle_single_layer import _FreeSpace

SPAN = 40
N_CHANNELS = 3


def _passable_for(conn):
    """The router's passable set: the connection and its two pins."""
    return frozenset((conn.conn_id, -(conn.pin_a + 1), -(conn.pin_b + 1)))


class _StubLayer:
    """Just enough of LayerData for GapCache: channels and length."""

    def __init__(self, n_channels: int = N_CHANNELS, span: int = SPAN):
        self.channels = [Channel() for _ in range(n_channels)]
        self.channel_length = span


#: Owners 0-3 hold segments; 4-11 never do, so passable sets drawn from
#: them see the base view (the alias path).  Up to 12 owners give more
#: distinct passable sets per channel than MAX_FULL_VARIANTS keeps.
OWNERS = 4

interval = st.tuples(
    st.integers(0, SPAN - 1), st.integers(1, 8), st.integers(0, OWNERS - 1)
).map(lambda t: (t[0], min(t[0] + t[1] - 1, SPAN - 1), t[2]))

probe = st.tuples(
    st.integers(0, N_CHANNELS - 1),
    st.sets(st.integers(0, 3 * OWNERS - 1), max_size=2),
).map(lambda t: (t[0], frozenset(t[1])))

op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, N_CHANNELS - 1), interval),
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6), st.none()),
    st.tuples(st.just("probe"), st.just(0), probe),
)


def _fresh(channel, passable):
    gaps = channel.free_gaps(0, SPAN - 1, passable)
    return (gaps, [g[0] for g in gaps], [g[1] for g in gaps])


def _run_ops(cache, layer, ops):
    """Apply ``ops``; every probe reads twice and must equal a fresh
    full-span recompute (the second read comes from the store)."""
    installed = []  # (channel_index, lo, hi, owner)
    for kind, arg, payload in ops:
        if kind == "add":
            lo, hi, owner = payload
            try:
                pieces = layer.channels[arg].add(lo, hi, owner)
            except ChannelConflictError:
                continue
            installed.extend((arg, plo, phi, owner) for plo, phi in pieces)
        elif kind == "remove":
            if not installed:
                continue
            c, lo, hi, owner = installed.pop(arg % len(installed))
            layer.channels[c].remove(lo, hi, owner)
        else:
            c, passable = payload
            fresh = _fresh(layer.channels[c], passable)
            assert cache.full_bounds(c, passable) == fresh
            assert cache.full_bounds(c, passable) == fresh
    # Post-sequence sweep: every channel, more passable sets than the
    # variant cap keeps, owning and non-owning alike.
    for c, channel in enumerate(layer.channels):
        for owner in range(MAX_FULL_VARIANTS + OWNERS + 1):
            passable = frozenset((owner,))
            assert cache.full_bounds(c, passable) == _fresh(
                channel, passable
            )
        assert cache.full_bounds(c, frozenset()) == _fresh(
            channel, frozenset()
        )


@given(st.lists(op, min_size=1, max_size=60))
@settings(max_examples=scaled(200), deadline=None)
def test_cache_reads_equal_fresh_recompute(ops):
    """Every ``full_bounds`` read under interleaved add/remove/probe
    sequences equals a fresh ``Channel.free_gaps`` recompute."""
    layer = _StubLayer()
    cache = GapCache(layer)
    _run_ops(cache, layer, ops)
    assert cache.hits > 0


@given(st.lists(op, min_size=1, max_size=60))
@settings(max_examples=scaled(100), deadline=None)
def test_disabled_cache_matches_recompute(ops):
    """``enabled=False`` recomputes every read but stays correct."""
    layer = _StubLayer()
    cache = GapCache(layer, enabled=False)
    _run_ops(cache, layer, ops)
    assert cache.hits == 0
    assert cache.misses > 0


class TestGenerations:
    def test_add_bumps_generation(self):
        channel = Channel()
        assert channel.generation == 0
        channel.add(3, 7, owner=1)
        assert channel.generation == 1
        channel.add(10, 12, owner=2)
        assert channel.generation == 2

    def test_noop_add_does_not_bump(self):
        channel = Channel()
        channel.add(3, 7, owner=1)
        generation = channel.generation
        # Fully covered by the same owner: no new pieces, no bump.
        assert channel.add(4, 6, owner=1) == []
        assert channel.generation == generation

    def test_remove_bumps_generation(self):
        channel = Channel()
        channel.add(3, 7, owner=1)
        generation = channel.generation
        channel.remove(3, 7, owner=1)
        assert channel.generation == generation + 1

    @pytest.mark.parametrize(
        "factory", [Channel, MovingHeadChannel, TreeChannel]
    )
    def test_all_channel_structures_carry_generations(self, factory):
        channel = factory()
        assert channel.generation == 0
        channel.add(1, 4, owner=1)
        after_add = channel.generation
        assert after_add > 0
        channel.remove(1, 4, owner=1)
        assert channel.generation > after_add

    def test_mutation_invalidates_cached_entry(self):
        layer = _StubLayer(n_channels=1)
        cache = GapCache(layer)
        passable = frozenset((7,))  # owns nothing: the base alias
        before = cache.full_bounds(0, passable)[0]
        assert before == [(0, SPAN - 1)]
        layer.channels[0].add(10, 14, owner=1)
        after = cache.full_bounds(0, passable)[0]
        assert after == [(0, 9), (15, SPAN - 1)]
        assert cache.full_bounds(0, frozenset())[0] == after

    def test_repeat_reads_hit(self):
        # A one-segment channel: no channel is too small to memoize.
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(5, 9, owner=1)
        cache = GapCache(layer)
        cache.full_bounds(0, frozenset())
        misses = cache.misses
        for _ in range(5):
            cache.full_bounds(0, frozenset())
        assert cache.misses == misses == 1
        assert cache.hits == 5

class TestPassableViews:
    def _layer(self):
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(5, 9, owner=1)
        layer.channels[0].add(20, 24, owner=2)
        return layer

    def test_non_owning_passable_aliases_the_base_view(self):
        cache = GapCache(self._layer())
        base = cache.full_bounds(0, frozenset())
        assert cache.full_bounds(0, frozenset((7, 8))) is base
        assert (cache.misses, cache.hits) == (1, 1)
        # The alias is stored: the next read is a plain store hit.
        assert cache.full_bounds(0, frozenset((7, 8))) is base
        assert (cache.misses, cache.hits) == (1, 2)

    def test_owning_passable_gets_its_own_view(self):
        cache = GapCache(self._layer())
        own = cache.full_bounds(0, frozenset((1,)))
        assert own[0] == [(0, 19), (25, SPAN - 1)]
        assert cache.full_bounds(0, frozenset())[0] == [
            (0, 4),
            (10, 19),
            (25, SPAN - 1),
        ]
        assert cache.misses == 2

    def test_variant_cap_clears_the_passable_store(self):
        cache = GapCache(self._layer())
        sets = [frozenset((1, 100 + i)) for i in range(MAX_FULL_VARIANTS)]
        for passable in sets:
            cache.full_bounds(0, passable)
        cache.full_bounds(0, sets[0])
        assert cache.hits == 1
        cache.full_bounds(0, frozenset((1, 99)))  # one past the cap
        misses = cache.misses
        cache.full_bounds(0, sets[0])  # evicted with the rest
        assert cache.misses == misses + 1


class TestRemoveDiagnostics:
    def test_remove_missing_names_nearest_segment(self):
        channel = Channel()
        channel.add(10, 20, owner=7)
        with pytest.raises(KeyError, match=r"\[10,20\] owned by 7"):
            channel.remove(11, 20, owner=7)

    def test_remove_wrong_owner_names_nearest(self):
        channel = Channel()
        channel.add(10, 20, owner=7)
        with pytest.raises(KeyError, match="owned by 7"):
            channel.remove(10, 20, owner=8)

    def test_remove_empty_channel(self):
        with pytest.raises(KeyError, match="channel is empty"):
            Channel().remove(0, 5, owner=1)

    def test_remove_scans_past_equal_lo(self):
        # Two segments sharing lo can only arise through removal of the
        # middle of a span; defensively synthesize it via the internals.
        channel = Channel()
        channel.add(10, 12, owner=1)
        channel.add(14, 20, owner=2)
        channel.remove(14, 20, owner=2)
        channel.add(14, 20, owner=3)
        channel.remove(14, 20, owner=3)
        channel.check_invariants()


class TestSnapshotSemantics:
    def test_pickle_resets_entries_and_counters(self):
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(3, 7, owner=1)
        cache = GapCache(layer)
        cache.full_bounds(0, frozenset())
        cache.full_bounds(0, frozenset())
        assert cache.hits + cache.misses > 0
        restored = pickle.loads(pickle.dumps(cache))
        assert restored.hits == 0
        assert restored.misses == 0
        assert restored.enabled
        # The generations travelled with the channels...
        assert restored.layer.channels[0].generation == 1
        # ...and the rebuilt cache still answers correctly.
        assert restored.full_bounds(0, frozenset())[0] == [
            (0, 2),
            (8, SPAN - 1),
        ]

    def test_workspace_snapshot_resets_cache(self, empty_board):
        ws = RoutingWorkspace(empty_board)
        ws.add_segment(0, 4, 2, 10, owner=1)
        ws.layers[0].gap_cache.full_bounds(2, frozenset())
        snap = ws.snapshot()
        for layer in snap.layers:
            assert layer.gap_cache.hits == 0
            assert layer.gap_cache.misses == 0
        # Generations match the originals channel by channel.
        for mine, theirs in zip(ws.layers, snap.layers):
            assert [c.generation for c in mine.channels] == [
                c.generation for c in theirs.channels
            ]

    def test_workspace_cache_switch(self, empty_board):
        ws = RoutingWorkspace(empty_board, gap_cache=False)
        assert all(not layer.gap_cache.enabled for layer in ws.layers)
        assert ws.gap_cache_stats() == (0, 0)


class TestCapSignal:
    def test_trace_cap_sets_stats(self, empty_workspace):
        ws = empty_workspace
        layer = ws.layers[0]
        # A comb of obstacles so the path needs many gap hops.
        for c in range(1, 30, 2):
            layer.channels[c].add(0, 50, owner=99)
        stats = SearchStats()
        box = Box(0, 0, ws.grid.nx - 1, ws.grid.ny - 1)
        pieces = trace(
            layer,
            GridPoint(0, 0),
            GridPoint(50, 30),
            box,
            frozenset(),
            max_gaps=1,
            stats=stats,
        )
        assert pieces is None
        assert stats.searches == 1
        assert stats.cap_hits == 1

    def test_vias_cap_sets_stats(self, empty_workspace):
        ws = empty_workspace
        stats = SearchStats()
        box = Box(0, 0, ws.grid.nx - 1, ws.grid.ny - 1)
        found = reachable_vias(
            ws.layers[0],
            GridPoint(0, 0),
            box,
            frozenset(),
            ws.via_map,
            max_gaps=1,
            stats=stats,
        )
        assert stats.cap_hits == 1
        assert len(found) <= ws.grid.via_nx  # truncated after one gap

    def test_uncapped_search_reports_clean(self, empty_workspace):
        ws = empty_workspace
        stats = SearchStats()
        box = Box(0, 0, 20, 20)
        # Crossing channels forces at least one gap pop (a same-gap
        # trace finds the goal before the search loop runs).
        trace(
            ws.layers[0],
            GridPoint(0, 0),
            GridPoint(10, 4),
            box,
            frozenset(),
            stats=stats,
        )
        assert stats.searches == 1
        assert stats.cap_hits == 0
        assert stats.examined >= 1

    def test_lee_routed_under_cap_emits_event(self, two_pin_board):
        board, conn = two_pin_board
        ws = RoutingWorkspace(board)
        sink = RingBufferSink()
        search = lee_route(
            ws, conn, passable=_passable_for(conn), max_gaps=1, sink=sink
        )
        # The empty board routes even with truncated searches; the cap
        # hits are still surfaced on the result and in the event stream.
        assert search.routed
        assert search.cap_hits > 0
        cap_events = sink.by_kind("cap_hit")
        assert len(cap_events) == 1
        assert cap_events[0].cap_hits == search.cap_hits
        assert cap_events[0].max_gaps == 1
        assert cap_events[0].routed

    def test_lee_blocked_under_cap_says_so(self):
        from repro.board.board import Board

        board = Board.create(
            via_nx=20, via_ny=15, n_signal_layers=4, name="cap"
        )
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(15, 11))
        ws = RoutingWorkspace(board)
        # Wall pin b in on every layer (its own cell stays the pin's) so
        # its wavefront dies immediately; the a-side searches still cap
        # at max_gaps=1 on the way.
        for layer_index, layer in enumerate(ws.layers):
            c, x = layer.point_cc(ws.grid.via_to_grid(conn.b))
            ws.add_segment(layer_index, c, x - 3, x - 1, owner=99)
            ws.add_segment(layer_index, c, x + 1, x + 3, owner=99)
            for nc in (c - 1, c + 1):
                ws.add_segment(layer_index, nc, x - 3, x + 3, owner=99)
        sink = RingBufferSink()
        search = lee_route(
            ws, conn, passable=_passable_for(conn), max_gaps=1, sink=sink
        )
        assert not search.routed
        assert search.blocked
        assert search.cap_hits > 0
        assert search.reason == "wavefront exhausted (gap cap)"
        cap_events = sink.by_kind("cap_hit")
        assert len(cap_events) == 1
        assert not cap_events[0].routed
        assert sink.by_kind("lee_exhausted")[0].reason == search.reason

    def test_lee_routed_run_reports_no_caps(self, two_pin_board):
        board, conn = two_pin_board
        ws = RoutingWorkspace(board)
        search = lee_route(ws, conn, passable=_passable_for(conn))
        assert search.routed
        assert search.cap_hits == 0
        assert search.gaps_examined > 0


class TestFreeSpaceView:
    """The reference DFS's box-clipped view, and the kernel's counters."""

    def test_gap_index_at_matches_linear_scan(self, empty_workspace):
        ws = empty_workspace
        layer = ws.layers[0]
        layer.channels[4].add(5, 9, owner=1)
        layer.channels[4].add(20, 24, owner=2)
        fs = _FreeSpace(
            layer, Box(0, 0, ws.grid.nx - 1, ws.grid.ny - 1), frozenset()
        )
        gaps = fs.gaps(4)
        assert gaps == [(0, 4), (10, 19), (25, layer.channel_length - 1)]
        for coord in range(0, layer.channel_length, 3):
            expected = None
            for i, (lo, hi) in enumerate(gaps):
                if lo <= coord <= hi:
                    expected = i
                    break
            assert fs.gap_index_at(4, coord) == expected

    def test_profile_counts_cache_traffic(self, two_pin_board):
        board, conn = two_pin_board
        # Lee issues hundreds of gap probes per connection; the optimal
        # strategies would finish after a handful with no reuse.
        router = GreedyRouter(
            board,
            RouterConfig(enable_zero_via=False, enable_one_via=False),
        )
        result = router.route([conn])
        assert result.complete
        counters = router.profile.counters
        assert counters.get("gap_cache_hits", 0) > 0
        assert counters.get("gap_cache_misses", 0) > 0
        assert "gap_cache_bypassed" not in counters


def _build_problem(seed: int = 3):
    spec = BoardSpec(
        name="gapcache",
        via_nx=40,
        via_ny=40,
        n_signal_layers=4,
        netlist=NetlistSpec(locality=0.9, local_radius=6, seed=seed),
        seed=seed,
    )
    board = generate_board(spec)
    return board, Stringer(board).string_all()


@pytest.mark.slow
def test_parallel_parity_with_cache_enabled():
    """workers=4 completes the same set as serial with the cache on
    (the default), and the run actually exercised the cache."""
    from repro.core.router import make_router

    board_s, conns_s = _build_problem()
    serial = GreedyRouter(board_s, RouterConfig(workers=1))
    serial_result = serial.route(conns_s)
    assert serial.profile.counters.get("gap_cache_hits", 0) > 0

    board_p, conns_p = _build_problem()
    parallel = make_router(board_p, RouterConfig(workers=4))
    parallel_result = parallel.route(conns_p)

    assert set(serial_result.routed_by) == set(parallel_result.routed_by)
    assert serial_result.failed == parallel_result.failed
