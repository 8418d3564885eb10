"""Reference stringing: the whole-board terminator scans.

The stringer finds each ECL chain's nearest free terminating resistor
through a bucketed index (:meth:`repro.stringer.Stringer.
_nearest_free_terminator`), and the random-stringing baseline draws
from one free list it keeps up to date.  This module keeps the
straightforward versions both replaced, as test oracles only: every
query rebuilds :meth:`Board.free_terminator_pins` and takes the minimum
over all of it.  The parity tests in ``tests/test_stringer.py`` and
``tests/test_stringer_properties.py`` hold the fast code to them.

The bodies are the pre-index implementations, kept verbatim.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.board.board import Board
from repro.board.nets import Connection
from repro.board.parts import Pin
from repro.grid.coords import manhattan
from repro.stringer.stringer import Stringer, StringingError


def nearest_free_terminator(
    self: Stringer, position, reserved: Set[int]
) -> Optional[Pin]:
    """Nearest unclaimed terminating-resistor pin.

    A drop-in for ``Stringer._nearest_free_terminator``: patch it onto
    the class to string a board the brute-force way.
    """
    candidates = [
        p
        for p in self.board.free_terminator_pins()
        if p.pin_id not in reserved
    ]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda p: (manhattan(position, p.position), p.pin_id),
    )


def random_stringing(board: Board, seed: int = 0) -> List[Connection]:
    """Chain every signal net in a random pin order (with ECL termination)."""
    rng = random.Random(seed)
    connections: List[Connection] = []
    reserved: Set[int] = set()
    for net in board.signal_nets:
        pins = [board.pins[i] for i in net.pin_ids]
        if len(pins) < 2:
            continue
        chain = list(pins)
        rng.shuffle(chain)
        if net.family.needs_termination:
            candidates = [
                p
                for p in board.free_terminator_pins()
                if p.pin_id not in reserved
            ]
            if not candidates:
                raise StringingError(
                    f"no free terminating resistor for net {net.name}"
                )
            terminator = rng.choice(candidates)
            reserved.add(terminator.pin_id)
            terminator.net_id = net.net_id
            net.pin_ids.append(terminator.pin_id)
            chain.append(terminator)
        connections.extend(
            Stringer.connections_for_chain(
                net, chain, start_id=len(connections)
            )
        )
    return connections
