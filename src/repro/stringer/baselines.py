"""Stringing baselines, primarily the random ordering of the Section 3
experiment: "In one, the stringing was chosen by the method described
above.  In the other, it was random. ... there was [a] factor of 25
difference in the run times."
"""

from __future__ import annotations

import random
from typing import List

from repro.board.board import Board
from repro.board.nets import Connection
from repro.stringer.stringer import Stringer, StringingError


def random_stringing(board: Board, seed: int = 0) -> List[Connection]:
    """Chain every signal net in a random pin order (with ECL termination).

    The chains connect exactly the same nets as :class:`Stringer` — only
    the pin order (and terminator choice) is randomised, so the routing
    problem is electrically identical but much worse conditioned.
    """
    rng = random.Random(seed)
    connections: List[Connection] = []
    free = board.free_terminator_pins()
    for net in board.signal_nets:
        pins = [board.pins[i] for i in net.pin_ids]
        if len(pins) < 2:
            continue
        chain = list(pins)
        rng.shuffle(chain)
        if net.family.needs_termination:
            if not free:
                raise StringingError(
                    f"no free terminating resistor for net {net.name}"
                )
            terminator = rng.choice(free)
            free.remove(terminator)
            terminator.net_id = net.net_id
            net.pin_ids.append(terminator.pin_id)
            chain.append(terminator)
        connections.extend(
            Stringer.connections_for_chain(
                net, chain, start_id=len(connections)
            )
        )
    return connections
