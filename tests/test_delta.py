"""WorkspaceDelta: the pool's incremental synchronization primitive.

The contract the persistent worker pool rests on: a workspace snapshot
taken at sync point t0, plus the fold of every delta recorded on the
master between t0 and tN, equals the master's canonical state at tN —
for *any* interleaving of route / rip-up / putback and any placement of
the sync cuts.  A hypothesis fuzz drives exactly that, shipping each
delta through its wire payload; unit tests pin the recording lifecycle,
the payload roundtrip, and every :class:`DeltaConflictError` path.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board.board import Board
from repro.channels.delta import (
    OP_ADD,
    OP_REMOVE,
    DeltaConflictError,
    WorkspaceDelta,
)
from repro.channels.workspace import RouteRecord
from repro.core.result import RoutingResult
from repro.core.ripup import put_back, rip_up
from repro.core.router import GreedyRouter
from repro.grid.coords import ViaPoint

from tests.conftest import make_connection, scaled


def _route_one(board, a, b, conn_id=0):
    """Route a single connection; return (router, workspace, record)."""
    conn = make_connection(board, a, b, conn_id=conn_id)
    router = GreedyRouter(board)
    result = RoutingResult(workspace=router.workspace, connections=[conn])
    router._route_connection(conn, result)
    ws = router.workspace
    assert conn_id in ws.records, "test route must succeed"
    return router, ws, ws.records[conn_id]


class TestDeltaRecording:
    def test_mutations_are_logged_in_order(self, empty_board):
        board = empty_board
        conns = [
            make_connection(
                board, ViaPoint(3, 3), ViaPoint(12, 3), conn_id=0
            ),
            make_connection(
                board, ViaPoint(3, 8), ViaPoint(12, 8), conn_id=1
            ),
        ]
        router = GreedyRouter(board)
        ws = router.workspace
        result = RoutingResult(workspace=ws, connections=conns)
        ws.begin_delta()
        for conn in conns:
            router._route_connection(conn, result)
        rip_up(ws, {0})
        delta = ws.end_delta()
        assert delta.added == 2
        assert delta.removed == 1
        assert len(delta) == 3
        assert bool(delta)
        tags = [op for op, _ in delta.ops]
        assert tags == [OP_ADD, OP_ADD, OP_REMOVE]
        assert delta.ops[2][1] == 0  # the ripped connection id

    def test_empty_delta_is_falsy(self, empty_workspace):
        empty_workspace.begin_delta()
        delta = empty_workspace.end_delta()
        assert not delta
        assert len(delta) == 0
        assert delta.added == delta.removed == 0

    def test_begin_while_active_raises(self, empty_workspace):
        empty_workspace.begin_delta()
        with pytest.raises(RuntimeError, match="already active"):
            empty_workspace.begin_delta()

    def test_end_without_begin_raises(self, empty_workspace):
        with pytest.raises(RuntimeError, match="no delta recording"):
            empty_workspace.end_delta()

    def test_snapshot_never_carries_active_log(self, empty_board):
        """A copy taken mid-recording starts its own sync epoch."""
        board = empty_board
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(12, 3))
        router = GreedyRouter(board)
        ws = router.workspace
        result = RoutingResult(workspace=ws, connections=[conn])
        ws.begin_delta()
        snap = ws.snapshot()
        snap.begin_delta()  # must not raise: the copy has no active log
        assert not snap.end_delta()
        # ...and the original recording is still live and exact.
        router._route_connection(conn, result)
        assert ws.end_delta().added == 1

    def test_payload_roundtrip(self, empty_board):
        board = empty_board
        _, ws, record = _route_one(
            board, ViaPoint(3, 3), ViaPoint(12, 11)
        )
        delta = WorkspaceDelta()
        delta.record_add(record)
        delta.record_remove(7)
        restored = WorkspaceDelta.from_payload(delta.to_payload())
        assert len(restored) == 2
        assert restored.ops[0][0] == OP_ADD
        assert restored.ops[0][1].conn_id == record.conn_id
        assert sorted(restored.ops[0][1].segments) == sorted(
            record.segments
        )
        assert sorted(restored.ops[0][1].vias) == sorted(record.vias)
        assert restored.ops[1] == (OP_REMOVE, 7)


class TestDeltaConflicts:
    """Every divergence between source and target is a loud, typed error."""

    def test_add_of_already_routed_connection_raises(self, empty_board):
        board = empty_board
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(12, 3))
        router = GreedyRouter(board)
        ws = router.workspace
        result = RoutingResult(workspace=ws, connections=[conn])
        ws.begin_delta()
        router._route_connection(conn, result)
        delta = ws.end_delta()
        # Replaying onto the workspace that already holds the route is a
        # double-apply: the target was past the delta's sync point.
        with pytest.raises(DeltaConflictError, match="already-routed"):
            ws.apply_delta(delta)

    def test_remove_of_unrouted_connection_raises(self, empty_workspace):
        delta = WorkspaceDelta()
        delta.record_remove(99)
        with pytest.raises(DeltaConflictError, match="unrouted"):
            empty_workspace.apply_delta(delta)

    def test_colliding_add_raises_and_leaves_target_untouched(
        self, empty_board
    ):
        board = empty_board
        _, ws, record = _route_one(board, ViaPoint(3, 3), ViaPoint(12, 3))
        delta = WorkspaceDelta()
        delta.record_add(record)
        base = Board.create(via_nx=20, via_ny=15, n_signal_layers=4)
        target = GreedyRouter(base).workspace
        # Occupy one cell the record claims; the replay must refuse.
        layer_index, channel_index, lo, hi = record.segments[0]
        target.add_segment(layer_index, channel_index, lo, hi, owner=999)
        with pytest.raises(DeltaConflictError, match="collides"):
            target.apply_delta(delta)
        assert record.conn_id not in target.records


class TestGapCacheSurvivesSync:
    """apply_delta invalidates only the channels the delta touches."""

    def test_untouched_channel_stays_warm(self, empty_board):
        board = empty_board
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(12, 3))
        router = GreedyRouter(board)
        ws = router.workspace
        base = ws.snapshot()
        ws.begin_delta()
        result = RoutingResult(workspace=ws, connections=[conn])
        router._route_connection(conn, result)
        delta = ws.end_delta()
        record = ws.records[conn.conn_id]

        touched = {(li, ci) for li, ci, _, _ in record.segments}
        li, ci, _, _ = record.segments[0]
        # A channel on the same layer the route never enters.
        far = next(
            c
            for c in range(base.layers[li].n_channels - 1, -1, -1)
            if (li, c) not in touched
        )
        cache = base.layers[li].gap_cache
        cache.full_bounds(far, frozenset())   # prime: miss
        cache.full_bounds(ci, frozenset())    # prime the touched one too
        hits0, misses0 = cache.hits, cache.misses

        base.apply_delta(delta)

        cache.full_bounds(far, frozenset())
        assert cache.hits == hits0 + 1, "untouched channel lost its entry"
        cache.full_bounds(ci, frozenset())
        assert cache.misses == misses0 + 1, (
            "touched channel must be invalidated by the sync"
        )


# ---------------------------------------------------------------------------
# the folding property: snapshot + fold(deltas) == canonical_state
# ---------------------------------------------------------------------------

N_CONNS = 4

#: route / rip-up / putback interleavings, with "cut" closing the open
#: delta and starting the next one — so the fold crosses arbitrary sync
#: boundaries, exactly as waves do.
delta_op = st.one_of(
    st.tuples(st.just("route"), st.integers(0, N_CONNS - 1)),
    st.tuples(st.just("ripup"), st.integers(0, N_CONNS - 1)),
    st.tuples(st.just("putback"), st.just(0)),
    st.tuples(st.just("cut"), st.just(0)),
)

# Distinct pin sites: 2 per connection, drawn without replacement.
pin_sites = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 9)),
    min_size=2 * N_CONNS,
    max_size=2 * N_CONNS,
    unique=True,
)


@given(pin_sites, st.lists(delta_op, min_size=1, max_size=24))
@settings(max_examples=scaled(60), deadline=None)
def test_snapshot_plus_folded_deltas_is_canonical_state(sites, ops):
    """The property the pool's correctness reduces to.

    A worker that applies every broadcast delta, in order, to its
    startup snapshot holds exactly the master's wiring state — no matter
    how routes were installed, ripped up and put back between syncs, and
    no matter where the sync cuts fell.  Each delta crosses the same
    wire format the pool uses (``to_payload``/``from_payload``).
    """
    board = Board.create(via_nx=12, via_ny=10, n_signal_layers=2)
    conns = [
        make_connection(
            board, ViaPoint(*sites[2 * i]), ViaPoint(*sites[2 * i + 1]),
            conn_id=i,
        )
        for i in range(N_CONNS)
    ]
    router = GreedyRouter(board)
    ws = router.workspace
    base = ws.snapshot()  # sync point t0: pins only, nothing routed
    result = RoutingResult(workspace=ws, connections=conns)
    ripped: Dict[int, RouteRecord] = {}
    deltas = []
    ws.begin_delta()
    for op, index in ops:
        if op == "route":
            conn = conns[index]
            if not ws.is_routed(conn.conn_id):
                ripped.pop(conn.conn_id, None)
                router._route_connection(conn, result)
        elif op == "ripup":
            if ws.is_routed(index):
                ripped.update(rip_up(ws, {index}))
        elif op == "putback":
            failed = set(put_back(ws, ripped))
            ripped = {
                cid: rec for cid, rec in ripped.items() if cid in failed
            }
        else:  # cut: close the delta here, open the next
            deltas.append(ws.end_delta())
            ws.begin_delta()
    deltas.append(ws.end_delta())

    for delta in deltas:
        base.apply_delta(WorkspaceDelta.from_payload(delta.to_payload()))

    assert base.canonical_state() == ws.canonical_state()
    assert base.state_digest() == ws.state_digest()
