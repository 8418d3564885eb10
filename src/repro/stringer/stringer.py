"""The stringer: nearest-neighbor chaining with ECL termination.

Stringing happens before routing and fixes both the pin order of each chain
and, for ECL nets, which terminating resistor ends it.  The router input is
then a flat list of independent pin-to-pin connections (Figure 20 shows one
drawn as lines).

Net ordering is known to matter enormously — the paper reports a factor of
25 in CPU time between this stringing and a random one on the same problem
(reproduced in ``benchmarks/bench_stringing.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.board.board import Board
from repro.board.nets import Connection, Net
from repro.board.parts import Pin, PinRole
from repro.grid.coords import manhattan


#: Side, in via-grid cells, of the square buckets of the free-terminator
#: index.
TERMINATOR_BUCKET = 8


class StringingError(ValueError):
    """A net cannot be strung (e.g. no free terminator for an ECL net)."""


def chain_length(pins: Sequence[Pin]) -> int:
    """Total Manhattan length of a chain, in via-grid units."""
    return sum(
        manhattan(pins[i].position, pins[i + 1].position)
        for i in range(len(pins) - 1)
    )


class Stringer:
    """Prepares router input from a board's signal nets.

    The nearest free terminating resistor comes from a bucketed index of
    the terminator pins that were unclaimed when the first terminator
    query ran.  Pins claimed after that are filtered out at query time;
    pins freed after that are *not* seen.  A stringer therefore serves
    one pass over an unchanging board — :meth:`string_all`, or one
    :meth:`~repro.eco.EcoSession.add_nets` call — and a board edited
    between passes needs a fresh one.
    """

    def __init__(self, board: Board) -> None:
        self.board = board
        #: Bucket cell -> free terminator pins in it; built lazily.
        self._buckets: Optional[Dict[Tuple[int, int], List[Pin]]] = None
        #: (min cx, min cy, max cx, max cy) over the occupied cells.
        self._span = (0, 0, 0, 0)

    # ------------------------------------------------------------------
    # per-net chaining
    # ------------------------------------------------------------------

    def _greedy_chain(
        self, start: Pin, outputs: List[Pin], inputs: List[Pin]
    ) -> List[Pin]:
        """Nearest-neighbor chain from ``start``; outputs before inputs.

        "Any output may start the chain, but all output pins must precede
        the input pins."
        """
        chain = [start]
        remaining_outputs = [p for p in outputs if p.pin_id != start.pin_id]
        remaining_inputs = [p for p in inputs if p.pin_id != start.pin_id]
        for pool in (remaining_outputs, remaining_inputs):
            while pool:
                tail = chain[-1].position
                nearest = min(
                    pool, key=lambda p: (manhattan(tail, p.position), p.pin_id)
                )
                pool.remove(nearest)
                chain.append(nearest)
        return chain

    def _terminator_buckets(self) -> Dict[Tuple[int, int], List[Pin]]:
        """The free-terminator index, built by one pass over the pins."""
        if self._buckets is None:
            buckets: Dict[Tuple[int, int], List[Pin]] = {}
            for p in self.board.pins:
                if p.role is PinRole.TERMINATOR and p.net_id == -1:
                    cell = (
                        p.position[0] // TERMINATOR_BUCKET,
                        p.position[1] // TERMINATOR_BUCKET,
                    )
                    buckets.setdefault(cell, []).append(p)
            if buckets:
                xs = [cx for cx, _ in buckets]
                ys = [cy for _, cy in buckets]
                self._span = (min(xs), min(ys), max(xs), max(ys))
            self._buckets = buckets
        return self._buckets

    def _nearest_free_terminator(
        self, position, reserved: Set[int]
    ) -> Optional[Pin]:
        """Nearest unclaimed terminating-resistor pin.

        Ties break on the lower ``pin_id``.  The search visits rings of
        bucket cells at growing Chebyshev distance ``r`` from the query's
        cell; every pin in ring ``r >= 1`` is at least
        ``(r - 1) * TERMINATOR_BUCKET + 1`` away, so the search stops once
        that bound exceeds the best distance found.
        """
        buckets = self._terminator_buckets()
        if not buckets:
            return None
        cx = position[0] // TERMINATOR_BUCKET
        cy = position[1] // TERMINATOR_BUCKET
        lo_x, lo_y, hi_x, hi_y = self._span
        best: Optional[Pin] = None
        best_key = None
        for r in range(max(cx - lo_x, hi_x - cx, cy - lo_y, hi_y - cy) + 1):
            if best_key is not None and (
                (r - 1) * TERMINATOR_BUCKET + 1 > best_key[0]
            ):
                break
            for cell in _ring(cx, cy, r, self._span):
                pins = buckets.get(cell)
                if not pins:
                    continue
                live = [p for p in pins if p.net_id == -1]
                if len(live) < len(pins):
                    buckets[cell] = live
                for p in live:
                    if p.pin_id in reserved:
                        continue
                    key = (manhattan(position, p.position), p.pin_id)
                    if best_key is None or key < best_key:
                        best, best_key = p, key
        return best

    def string_net(
        self, net: Net, reserved_terminators: Optional[Set[int]] = None
    ) -> List[Pin]:
        """Best chain for one net (including its terminator for ECL).

        Tries every legal starting pin and keeps the shortest overall chain.
        For ECL nets the legal starts are the output pins (all outputs must
        precede inputs); for TTL any pin may start.
        """
        reserved = (
            reserved_terminators if reserved_terminators is not None else set()
        )
        pins = [self.board.pins[i] for i in net.pin_ids]
        if len(pins) < 2:
            return pins
        outputs = [p for p in pins if p.role is PinRole.OUTPUT]
        inputs = [p for p in pins if p.role is not PinRole.OUTPUT]
        if net.family.order_matters and outputs:
            starts = outputs
        else:
            starts = pins
        best_chain: Optional[List[Pin]] = None
        best_length = None
        for start in starts:
            chain = self._greedy_chain(start, outputs, inputs)
            if net.family.needs_termination:
                terminator = self._nearest_free_terminator(
                    chain[-1].position, reserved
                )
                if terminator is None:
                    raise StringingError(
                        f"no free terminating resistor for net {net.name}"
                    )
                chain = chain + [terminator]
            length = chain_length(chain)
            if best_length is None or length < best_length:
                best_length = length
                best_chain = chain
        assert best_chain is not None
        if net.family.needs_termination:
            terminator = best_chain[-1]
            reserved.add(terminator.pin_id)
            terminator.net_id = net.net_id
            net.pin_ids.append(terminator.pin_id)
        return best_chain

    # ------------------------------------------------------------------
    # whole-board stringing
    # ------------------------------------------------------------------

    def string_all(self) -> List[Connection]:
        """String every signal net; returns the flat connection list."""
        connections: List[Connection] = []
        reserved: Set[int] = set()
        for net in self.board.signal_nets:
            chain = self.string_net(net, reserved)
            connections.extend(
                self.connections_for_chain(net, chain, start_id=len(connections))
            )
        return connections

    @staticmethod
    def connections_for_chain(
        net: Net, chain: Sequence[Pin], start_id: int = 0
    ) -> List[Connection]:
        """Pin-to-pin connections for consecutive chain members."""
        connections = []
        for i in range(len(chain) - 1):
            a, b = chain[i], chain[i + 1]
            connections.append(
                Connection(
                    conn_id=start_id + i,
                    net_id=net.net_id,
                    pin_a=a.pin_id,
                    pin_b=b.pin_id,
                    a=a.position,
                    b=b.position,
                    family=net.family,
                )
            )
        return connections


def _ring(cx: int, cy: int, r: int, span: Tuple[int, int, int, int]):
    """Cells at Chebyshev distance ``r`` from ``(cx, cy)`` inside ``span``."""
    lo_x, lo_y, hi_x, hi_y = span
    if r == 0:
        yield cx, cy
        return
    x0, x1 = max(cx - r, lo_x), min(cx + r, hi_x)
    for y in (cy - r, cy + r):
        if lo_y <= y <= hi_y:
            for x in range(x0, x1 + 1):
                yield x, y
    y0, y1 = max(cy - r + 1, lo_y), min(cy + r - 1, hi_y)
    for x in (cx - r, cx + r):
        if lo_x <= x <= hi_x:
            for y in range(y0, y1 + 1):
                yield x, y
