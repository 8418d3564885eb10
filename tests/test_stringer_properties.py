"""Property-based tests of the stringer on random nets."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board.board import Board
from repro.board.parts import PinRole, sip_package
from repro.grid.coords import ViaPoint, manhattan
from repro.stringer import Stringer, StringingError
from repro.stringer.stringer import TERMINATOR_BUCKET

from tests import oracle_stringer as oracle
from tests.conftest import scaled

VIA_N = 24


@st.composite
def net_problem(draw):
    """Random pin placement: some outputs, some inputs, spare terminators."""
    n_outputs = draw(st.integers(1, 3))
    n_inputs = draw(st.integers(1, 6))
    n_terms = draw(st.integers(1, 4))
    total = n_outputs + n_inputs + n_terms
    positions = draw(
        st.lists(
            st.tuples(st.integers(0, VIA_N - 1), st.integers(0, VIA_N - 1)),
            min_size=total,
            max_size=total,
            unique=True,
        )
    )
    return n_outputs, n_inputs, positions


def _build(n_outputs, n_inputs, positions):
    board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
    pins = []
    for i, (vx, vy) in enumerate(positions):
        if i < n_outputs:
            role = PinRole.OUTPUT
        elif i < n_outputs + n_inputs:
            role = PinRole.INPUT
        else:
            role = PinRole.TERMINATOR
        pins.append(
            board.add_part(
                sip_package(1), ViaPoint(vx, vy), roles=[role]
            ).pins[0]
        )
    net = board.add_net(
        [p.pin_id for p in pins[: n_outputs + n_inputs]]
    )
    return board, net, pins


@given(net_problem())
@settings(max_examples=scaled(100), deadline=None)
def test_chain_covers_every_pin_once(problem):
    n_outputs, n_inputs, positions = problem
    board, net, pins = _build(n_outputs, n_inputs, positions)
    chain = Stringer(board).string_net(net)
    ids = [p.pin_id for p in chain]
    # Every net pin exactly once, plus exactly one terminator at the end.
    assert len(ids) == len(set(ids))
    assert set(ids[:-1]) >= {p.pin_id for p in pins[: n_outputs + n_inputs]}
    assert len(ids) == n_outputs + n_inputs + 1
    assert chain[-1].role is PinRole.TERMINATOR


@given(net_problem())
@settings(max_examples=scaled(100), deadline=None)
def test_outputs_precede_inputs(problem):
    n_outputs, n_inputs, positions = problem
    board, net, pins = _build(n_outputs, n_inputs, positions)
    chain = Stringer(board).string_net(net)
    roles = [p.role for p in chain]
    last_output = max(
        i for i, r in enumerate(roles) if r is PinRole.OUTPUT
    )
    first_input = min(
        i for i, r in enumerate(roles) if r is PinRole.INPUT
    )
    assert last_output < first_input


@given(net_problem())
@settings(max_examples=scaled(60), deadline=None)
def test_nearest_neighbor_invariant(problem):
    """Each input hop goes to the nearest *remaining* input pin.

    This is the defining property of the greedy chain: at every position,
    the next input appended is at least as close to the current tail as
    any input that appears later in the chain.
    """
    n_outputs, n_inputs, positions = problem
    board, net, pins = _build(n_outputs, n_inputs, positions)
    chain = Stringer(board).string_net(net)
    roles = [p.role for p in chain]
    for i in range(len(chain) - 2):  # exclude the terminator hop
        if roles[i + 1] is not PinRole.INPUT:
            continue
        tail = chain[i].position
        next_distance = manhattan(tail, chain[i + 1].position)
        for later in chain[i + 2 : -1]:
            if later.role is PinRole.INPUT:
                assert next_distance <= manhattan(tail, later.position)


@given(net_problem())
@settings(max_examples=scaled(60), deadline=None)
def test_terminator_is_near_chain_end(problem):
    """The terminator is the nearest free one to the chain's last pin."""
    n_outputs, n_inputs, positions = problem
    board, net, pins = _build(n_outputs, n_inputs, positions)
    chain = Stringer(board).string_net(net)
    tail = chain[-2].position
    chosen = chain[-1]
    terminators = [
        p for p in pins[n_outputs + n_inputs :]
    ]
    best = min(manhattan(tail, t.position) for t in terminators)
    assert manhattan(tail, chosen.position) == best


# ----------------------------------------------------------------------
# the free-terminator index against the whole-board scan
# ----------------------------------------------------------------------


@st.composite
def terminator_layout(draw):
    """Terminator sites, a query sequence, and claims between queries.

    Queries often sit on a bucket edge.  Sites are spread over the
    board, packed next to the first query, or only near the board's
    corners (so the nearest one sits several bucket rings out).  Some
    sites get a mirror image through the first query point, so equal
    distances with different ``pin_id`` values are common, also across
    a bucket edge.
    """
    n = draw(st.sampled_from([6, 3 * TERMINATOR_BUCKET, 100]))
    edge = st.integers(0, n // TERMINATOR_BUCKET).flatmap(
        lambda k: st.sampled_from(
            [k * TERMINATOR_BUCKET - 1, k * TERMINATOR_BUCKET]
        )
    )
    coord = st.one_of(st.integers(0, n - 1), edge).map(
        lambda v: min(max(v, 0), n - 1)
    )
    queries = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    qx, qy = queries[0]
    kind = draw(st.sampled_from(["spread", "near", "corners"]))
    if kind == "corners":
        near = st.integers(0, 2)
        site = st.tuples(near, near, st.booleans(), st.booleans()).map(
            lambda t: (n - 1 - t[0] if t[2] else t[0],
                       n - 1 - t[1] if t[3] else t[1])
        )
    elif kind == "near":
        offset = st.integers(-TERMINATOR_BUCKET, TERMINATOR_BUCKET)
        site = st.tuples(offset, offset).map(
            lambda d: (min(max(qx + d[0], 0), n - 1),
                       min(max(qy + d[1], 0), n - 1))
        )
    else:
        site = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    sites = draw(st.lists(site, max_size=25, unique=True))
    for x, y in list(sites):
        mirror = (2 * qx - x, 2 * qy - y)
        if (
            0 <= mirror[0] < n
            and 0 <= mirror[1] < n
            and mirror not in sites
            and draw(st.booleans())
        ):
            sites.append(mirror)
    sites = draw(st.permutations(sites))
    if sites:
        picks = st.sets(st.sampled_from(range(len(sites))), max_size=3)
    else:
        picks = st.just(set())
    steps = [(query, draw(picks), draw(picks)) for query in queries]
    return n, sites, steps


@given(terminator_layout())
@settings(max_examples=scaled(200), deadline=None)
def test_indexed_terminator_matches_the_scan(layout):
    """Same pin (or ``None``) as the scan, query after query.

    Each step asks with a random ``reserved`` set, then claims a random
    set of terminators: later queries must skip them.
    """
    n, sites, steps = layout
    # Two spare columns on the right hold an ECL net for the final
    # no-terminator check.
    board = Board.create(via_nx=n + 2, via_ny=n, n_signal_layers=2)
    terminators = [
        board.add_part(
            sip_package(1), ViaPoint(x, y), roles=[PinRole.TERMINATOR]
        ).pins[0]
        for x, y in sites
    ]
    stringer = Stringer(board)
    for query, reserved, claims in steps:
        position = ViaPoint(*query)
        reserved = {terminators[i].pin_id for i in reserved}
        got = stringer._nearest_free_terminator(position, reserved)
        want = oracle.nearest_free_terminator(stringer, position, reserved)
        assert got is want
        claimed = [
            terminators[i].pin_id
            for i in sorted(claims)
            if terminators[i].net_id == -1
        ]
        if claimed:
            board.add_net(claimed)
    for p in board.free_terminator_pins():
        board.add_net([p.pin_id])
    assert stringer._nearest_free_terminator(ViaPoint(0, 0), set()) is None
    out = board.add_part(
        sip_package(1), ViaPoint(n, 0), roles=[PinRole.OUTPUT]
    ).pins[0]
    inp = board.add_part(
        sip_package(1), ViaPoint(n + 1, 0), roles=[PinRole.INPUT]
    ).pins[0]
    net = board.add_net([out.pin_id, inp.pin_id])
    with pytest.raises(StringingError):
        stringer.string_net(net)


def test_every_query_point_matches_the_scan():
    """Exhaustive over query points on small random layouts.

    Every point of a board three buckets wide, once with nothing
    reserved and once with the scan's answer reserved (so the runner-up
    must be found too).
    """
    n = 3 * TERMINATOR_BUCKET + 3
    for seed in range(6):
        rng = random.Random(seed)
        board = Board.create(via_nx=n, via_ny=n, n_signal_layers=2)
        sites = rng.sample([(x, y) for x in range(n) for y in range(n)], 6)
        for x, y in sites:
            board.add_part(
                sip_package(1), ViaPoint(x, y), roles=[PinRole.TERMINATOR]
            )
        stringer = Stringer(board)
        for x in range(n):
            for y in range(n):
                position = ViaPoint(x, y)
                first = oracle.nearest_free_terminator(
                    stringer, position, set()
                )
                second = oracle.nearest_free_terminator(
                    stringer, position, {first.pin_id}
                )
                assert stringer._nearest_free_terminator(
                    position, set()
                ) is first
                assert stringer._nearest_free_terminator(
                    position, {first.pin_id}
                ) is second


def test_equal_distance_ties_break_on_pin_id():
    """Two terminators at the same distance on either side of the query.

    Every query point of a row or column, every distance out to two
    buckets, with the smaller ``pin_id`` on either side: the index must
    look past a bucket edge for an equally near pin with a smaller id.
    """
    n = 3 * TERMINATOR_BUCKET + 3
    for vertical in (False, True):
        for descending in (False, True):
            board = Board.create(via_nx=n, via_ny=n, n_signal_layers=2)
            order = range(n - 1, -1, -1) if descending else range(n)
            line = {}
            for i in order:
                at = ViaPoint(0, i) if vertical else ViaPoint(i, 0)
                line[i] = board.add_part(
                    sip_package(1), at, roles=[PinRole.TERMINATOR]
                ).pins[0]
            everyone = {p.pin_id for p in line.values()}
            stringer = Stringer(board)
            for d in range(1, 2 * TERMINATOR_BUCKET + 2):
                for i in range(d, n - d):
                    position = ViaPoint(0, i) if vertical else ViaPoint(i, 0)
                    reserved = everyone - {
                        line[i - d].pin_id, line[i + d].pin_id
                    }
                    want = min(
                        line[i - d], line[i + d], key=lambda p: p.pin_id
                    )
                    assert oracle.nearest_free_terminator(
                        stringer, position, reserved
                    ) is want
                    assert stringer._nearest_free_terminator(
                        position, reserved
                    ) is want
