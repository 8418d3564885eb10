"""The generation-stamped free-gap cache (repro.channels.gap_cache).

The load-bearing property: a :class:`GapCache` read is *always* equal to
a fresh ``Channel.free_gaps`` recompute, no matter how adds, removes and
probes interleave — the generation stamps make a stale read structurally
impossible.  Around that, unit tests for the generation protocol, the
snapshot/pickle semantics, the unified ``max_gaps`` cap signal and the
bisect-based ``gap_index_at``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.alternatives import MovingHeadChannel, TreeChannel
from repro.channels.channel import Channel, ChannelConflictError
from repro.channels.gap_cache import GapCache
from repro.channels.workspace import RoutingWorkspace
from repro.core.lee import lee_route
from repro.core.router import GreedyRouter, RouterConfig
from repro.core.single_layer import (
    SearchStats,
    _FreeSpace,
    reachable_vias,
    trace,
)
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box
from repro.obs.sinks import RingBufferSink
from repro.stringer import Stringer
from repro.workloads import BoardSpec, NetlistSpec, generate_board

from tests.conftest import make_connection, scaled

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


interval = st.tuples(
    st.integers(0, SPAN - 1), st.integers(1, 8), st.integers(0, 3)
).map(lambda t: (t[0], min(t[0] + t[1] - 1, SPAN - 1), t[2]))

probe = st.tuples(
    st.integers(0, N_CHANNELS - 1),
    st.integers(0, SPAN - 1),
    st.integers(0, SPAN - 1),
    st.sets(st.integers(0, 3), max_size=2),
).map(
    lambda t: (t[0], min(t[1], t[2]), max(t[1], t[2]), frozenset(t[3]))
)

op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, N_CHANNELS - 1), interval),
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6), st.none()),
    st.tuples(st.just("probe"), st.just(0), probe),
)


@given(st.booleans(), st.lists(op, min_size=1, max_size=60))
@settings(max_examples=scaled(200), deadline=None)
def test_cache_reads_equal_fresh_recompute(graduated, ops):
    """Every cache read under interleaved add/remove/probe sequences
    equals a fresh ``Channel.free_gaps`` recompute — on probation
    (boxed-only stores) and graduated (full-span promotion) alike."""
    layer = _StubLayer()
    cache = GapCache(layer)
    # Exercise the memo machinery even on these small stub channels (the
    # small-channel bypass path is a direct free_gaps delegation, covered
    # by TestSmallChannelBypass).
    cache.bypass_threshold = 0
    if graduated:
        cache.graduate()
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
            c, lo, hi, passable = payload
            fresh = layer.channels[c].free_gaps(lo, hi, passable)
            # Twice: the first read may recompute, the second must come
            # from the clipped store — both must equal the recompute.
            assert cache.gaps(c, lo, hi, passable) == fresh
            assert cache.gaps(c, lo, hi, passable) == fresh
    # Post-sequence sweep over every channel at assorted clips.
    for c, channel in enumerate(layer.channels):
        for lo in range(0, SPAN, 7):
            hi = min(lo + 11, SPAN - 1)
            assert cache.gaps(c, lo, hi, frozenset()) == channel.free_gaps(
                lo, hi
            )


@given(st.lists(interval, min_size=1, max_size=25))
@settings(max_examples=scaled(100), deadline=None)
def test_disabled_cache_matches_recompute(ops):
    """``enabled=False`` must bypass memoization but stay correct."""
    layer = _StubLayer(n_channels=1)
    cache = GapCache(layer, enabled=False)
    for lo, hi, owner in ops:
        try:
            layer.channels[0].add(lo, hi, owner)
        except ChannelConflictError:
            pass
        assert cache.gaps(0, 0, SPAN - 1, frozenset()) == layer.channels[
            0
        ].free_gaps(0, SPAN - 1)
    assert cache.hits == 0
    assert cache.misses > 0


class TestSmallChannelBypass:
    """Channels at or below the threshold skip memoization entirely."""

    def _big_layer(self):
        layer = _StubLayer(n_channels=1, span=100)
        for i in range(17):  # 17 > SMALL_CHANNEL_SEGMENTS
            layer.channels[0].add(i * 5, i * 5 + 1, owner=i)
        return layer

    def test_small_channel_counts_bypasses_not_misses(self):
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(5, 9, owner=1)
        expected = [(0, 4), (10, SPAN - 1)]
        cache = GapCache(layer)
        assert cache.gaps(0, 0, SPAN - 1, frozenset()) == expected
        assert cache.gaps(0, 0, SPAN - 1, frozenset()) == expected
        assert cache.bypassed == 2
        assert cache.hits == 0
        assert cache.misses == 0

    def test_big_channel_is_memoized(self):
        layer = self._big_layer()
        cache = GapCache(layer)
        first = cache.gaps(0, 0, 99, frozenset())
        assert cache.gaps(0, 0, 99, frozenset()) == first
        assert cache.bypassed == 0
        assert cache.misses == 1
        assert cache.hits == 1

    def test_growth_across_the_threshold_switches_paths(self):
        layer = _StubLayer(n_channels=1, span=200)
        cache = GapCache(layer)
        for i in range(16):
            layer.channels[0].add(i * 5, i * 5 + 1, owner=i)
        cache.gaps(0, 0, 199, frozenset())
        assert cache.bypassed == 1 and cache.misses == 0
        layer.channels[0].add(180, 181, owner=99)  # 17th segment
        cache.gaps(0, 0, 199, frozenset())
        assert cache.bypassed == 1 and cache.misses == 1

    def test_zero_threshold_memoizes_everything(self):
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(5, 9, owner=1)
        cache = GapCache(layer)
        cache.bypass_threshold = 0
        cache.gaps(0, 0, SPAN - 1, frozenset())
        assert cache.bypassed == 0
        assert cache.misses == 1

    def test_hit_rate_excludes_bypassed_requests(self):
        layer = self._big_layer()
        layer.channels.append(Channel())  # small channel, index 1
        layer.channels[1].add(3, 4, owner=1)
        cache = GapCache(layer)
        cache.gaps(0, 0, 99, frozenset())
        cache.gaps(0, 0, 99, frozenset())
        for _ in range(10):
            cache.gaps(1, 0, 99, frozenset())
        assert cache.bypassed == 10
        assert cache.hit_rate == 0.5  # 1 hit / (1 hit + 1 miss)
        assert cache.requests == 12

    def test_pickle_preserves_threshold(self):
        layer = _StubLayer(n_channels=1)
        cache = GapCache(layer)
        cache.bypass_threshold = 3
        restored = pickle.loads(pickle.dumps(cache))
        assert restored.bypass_threshold == 3
        assert restored.bypassed == 0


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
        cache.bypass_threshold = 0
        before = cache.gaps(0, 0, SPAN - 1, frozenset())
        assert before == [(0, SPAN - 1)]
        layer.channels[0].add(10, 14, owner=1)
        after = cache.gaps(0, 0, SPAN - 1, frozenset())
        assert after == [(0, 9), (15, SPAN - 1)]

    def test_repeat_reads_hit(self):
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(5, 9, owner=1)
        cache = GapCache(layer)
        cache.bypass_threshold = 0
        cache.gaps(0, 0, SPAN - 1, frozenset())
        misses = cache.misses
        for _ in range(5):
            cache.gaps(0, 0, SPAN - 1, frozenset())
        assert cache.misses == misses
        assert cache.hits >= 5

    def test_clip_derived_from_full_span_counts_as_hit(self):
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(5, 9, owner=1)
        cache = GapCache(layer)
        cache.bypass_threshold = 0
        cache.graduate()  # promotion is a post-probation behaviour
        cache.gaps(0, 0, SPAN - 1, frozenset())  # warm the full span
        assert cache.gaps(0, 2, 7, frozenset()) == [(2, 4)]
        assert cache.gaps(0, 7, 20, frozenset()) == [(10, 20)]
        assert cache.misses == 1
        assert cache.hits == 2


class TestProbation:
    """The self-judgment: boxed-only warmup, then graduate or bypass."""

    def _layer(self):
        layer = _StubLayer(n_channels=1)
        layer.channels[0].add(5, 9, owner=1)
        return layer

    def test_probation_never_promotes_to_full_span(self):
        cache = GapCache(self._layer())
        cache.bypass_threshold = 0
        cache.gaps(0, 0, SPAN - 1, frozenset())  # would warm a full span
        # A sub-box is served by clip-from-full only after graduation;
        # on probation it is an independent boxed recompute.
        assert cache.gaps(0, 2, 7, frozenset()) == [(2, 4)]
        assert cache.misses == 2
        assert cache.hits == 0

    def test_probation_exact_repeats_still_hit(self):
        cache = GapCache(self._layer())
        cache.bypass_threshold = 0
        first = cache.gaps(0, 2, 7, frozenset())
        assert cache.gaps(0, 2, 7, frozenset()) == first
        assert (cache.misses, cache.hits) == (1, 1)

    def test_verdict_bypasses_a_layer_that_never_repeats(self):
        from repro.channels.gap_cache import ADAPTIVE_WARMUP_PROBES

        layer = _StubLayer(n_channels=1, span=4 * ADAPTIVE_WARMUP_PROBES)
        layer.channels[0].add(5, 9, owner=1)
        cache = GapCache(layer)
        cache.bypass_threshold = 0
        # Every probe unique: the tally stays at zero repeats.
        for i in range(ADAPTIVE_WARMUP_PROBES + 1):
            cache.gaps(0, i, i + 2, frozenset())
        assert cache.bypassed == 1  # the verdict probe itself
        assert cache.misses == ADAPTIVE_WARMUP_PROBES
        # ...and from here on every probe bypasses, hits stay frozen.
        cache.gaps(0, 0, 2, frozenset())  # would have been an exact hit
        assert cache.bypassed == 2
        assert cache.hits == 0

    def test_repeating_layer_graduates_and_promotes(self):
        from repro.channels.gap_cache import ADAPTIVE_WARMUP_PROBES

        cache = GapCache(self._layer())
        cache.bypass_threshold = 0
        for _ in range(ADAPTIVE_WARMUP_PROBES + 1):
            cache.gaps(0, 2, 7, frozenset())  # 100% exact repeats
        assert cache.bypassed == 0
        # Graduated: a fresh box now promotes (second distinct box
        # builds the full span, a third is served by clip-from-full).
        misses = cache.misses
        cache.gaps(0, 0, SPAN - 1, frozenset())
        cache.gaps(0, 7, 20, frozenset())
        assert cache.misses == misses + 1
        assert cache.gaps(0, 3, 8, frozenset()) == [(3, 4)]

    def test_snapshot_restarts_probation_but_keeps_a_verdict(self):
        from repro.channels.gap_cache import (
            ADAPTIVE_WARMUP_PROBES,
            _BYPASS_ALL,
        )

        layer = _StubLayer(n_channels=1, span=4 * ADAPTIVE_WARMUP_PROBES)
        layer.channels[0].add(5, 9, owner=1)
        cache = GapCache(layer)
        cache.bypass_threshold = 0
        for i in range(ADAPTIVE_WARMUP_PROBES + 1):
            cache.gaps(0, i, i + 2, frozenset())
        assert cache.bypass_threshold == _BYPASS_ALL
        restored = pickle.loads(pickle.dumps(cache))
        # The burned-in verdict travels; the tallies restart.
        assert restored.bypass_threshold == _BYPASS_ALL
        assert restored._probe_total == 0


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
        cache.gaps(0, 0, SPAN - 1, frozenset())
        cache.gaps(0, 0, SPAN - 1, frozenset())
        assert cache.requests > 0
        restored = pickle.loads(pickle.dumps(cache))
        assert restored.hits == 0
        assert restored.misses == 0
        assert restored.enabled
        # The generations travelled with the channels...
        assert restored.layer.channels[0].generation == 1
        # ...and the rebuilt cache still answers correctly.
        assert restored.gaps(0, 0, SPAN - 1, frozenset()) == [
            (0, 2),
            (8, SPAN - 1),
        ]

    def test_workspace_snapshot_resets_cache(self, empty_board):
        ws = RoutingWorkspace(empty_board)
        ws.add_segment(0, 4, 2, 10, owner=1)
        ws.layers[0].gap_cache.gaps(2, 0, 20, frozenset())
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
        assert ws.gap_cache_stats() == (0, 0, 0)


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
    def test_gap_index_at_matches_linear_scan(self, empty_workspace):
        ws = empty_workspace
        layer = ws.layers[0]
        layer.channels[4].add(5, 9, owner=1)
        layer.channels[4].add(20, 24, owner=2)
        fs = _FreeSpace(
            layer, Box(0, 0, ws.grid.nx - 1, ws.grid.ny - 1), frozenset()
        )
        gaps = fs.gaps(4)
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
        # On a near-empty board every channel is small enough for the
        # bypass, so recomputes may surface as bypasses, not misses.
        assert (
            counters.get("gap_cache_misses", 0)
            + counters.get("gap_cache_bypassed", 0)
        ) > 0


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
