"""Reference ``trace`` / ``reachable_vias``: the plain Section 7 DFS.

The router runs one scalar kernel for both searches
(:mod:`repro.core.single_layer`): full-span gap views, bisect windows,
flat integer gap keys and, for *Vias*, an optional per-search memo.
This module keeps the straightforward depth-first search over
box-clipped gap lists that the kernel replaced, as a test oracle only:
the parity suites in ``tests/test_fastpath.py`` hold the kernel to it
bit for bit — results, emission order, :class:`SearchStats` and via-map
probe accounting.

Both functions are the pre-kernel pure-python implementations, kept
verbatim apart from the removed backend dispatch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.channels.layer_data import ChannelPiece, LayerData
from repro.channels.via_map import ViaMap
from repro.core.budget import SEARCH_CHECK_MASK, BudgetTracker
from repro.core.single_layer import (
    DEFAULT_MAX_GAPS,
    GapKey,
    SearchStats,
    _adjacent_gaps,
    _explore_all,
    _FreeSpace,
)
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box


def _interval_distance(lo: int, hi: int, x: int) -> int:
    """Distance from coordinate ``x`` to the interval ``[lo, hi]``."""
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0


def trace(
    layer: LayerData,
    a: GridPoint,
    b: GridPoint,
    box: Box,
    passable: FrozenSet[int] = frozenset(),
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
) -> Optional[List[ChannelPiece]]:
    """Reference :func:`repro.core.single_layer.trace`."""
    ca, xa = layer.point_cc(a)
    cb, xb = layer.point_cc(b)
    fs = _FreeSpace(layer, box, passable)
    if fs.is_empty or not fs.in_box(ca, xa) or not fs.in_box(cb, xb):
        return None
    start_index = fs.gap_index_at(ca, xa)
    if start_index is None:
        return None
    start: GapKey = (ca, start_index)
    parents: Dict[GapKey, Optional[GapKey]] = {start: None}
    goal: Optional[GapKey] = None
    slo, shi = fs.gaps(ca)[start_index]
    if ca == cb and slo <= xb <= shi:
        goal = start
    stack: List[GapKey] = [start]
    examined = 0
    capped = False
    while stack and goal is None:
        key = stack.pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        if (
            budget is not None
            and (examined & SEARCH_CHECK_MASK) == 0
            and budget.search_exceeded()
        ):
            capped = True
            break
        c, gi = key
        glo, ghi = fs.gaps(c)[gi]
        children: List[Tuple[int, GapKey]] = []
        for nkey, (nglo, nghi) in _adjacent_gaps(fs, c, glo, ghi):
            if nkey in parents:
                continue
            parents[nkey] = key
            if nkey[0] == cb and nglo <= xb <= nghi:
                goal = nkey
                break
            # Best-to-worst: nearest the destination searched first
            # (pushed last so the DFS pops it first).
            distance = abs(nkey[0] - cb) + _interval_distance(nglo, nghi, xb)
            children.append((distance, nkey))
        if goal is not None:
            break
        children.sort(key=lambda item: -item[0])
        stack.extend(k for _, k in children)
    if stats is not None:
        stats.note(examined, capped)
    if goal is None:
        return None
    chain: List[GapKey] = []
    node: Optional[GapKey] = goal
    while node is not None:
        chain.append(node)
        node = parents[node]
    chain.reverse()
    return _trim_chain(fs, chain, xa, xb)


def _trim_chain(
    fs: _FreeSpace, chain: List[GapKey], xa: int, xb: int
) -> List[ChannelPiece]:
    """Trim gap overlaps back to single junction points (Section 7.1).

    Junctions are chosen by clamping the destination coordinate into each
    overlap, working backwards from the target, which funnels the trace
    towards ``b`` and keeps it short.
    """
    channels = [c for c, _ in chain]
    gaps = [fs.gaps(c)[gi] for c, gi in chain]
    n = len(chain)
    if n == 1:
        return [(channels[0], min(xa, xb), max(xa, xb))]
    overlaps: List[Tuple[int, int]] = []
    for i in range(n - 1):
        (l1, h1), (l2, h2) = gaps[i], gaps[i + 1]
        overlaps.append((max(l1, l2), min(h1, h2)))
    junctions = [0] * (n - 1)
    desired = xb
    for i in range(n - 2, -1, -1):
        lo, hi = overlaps[i]
        junctions[i] = min(max(desired, lo), hi)
        desired = junctions[i]
    pieces: List[ChannelPiece] = []
    prev = xa
    for i in range(n - 1):
        j = junctions[i]
        pieces.append((channels[i], min(prev, j), max(prev, j)))
        prev = j
    pieces.append((channels[-1], min(prev, xb), max(prev, xb)))
    return pieces


def reachable_vias(
    layer: LayerData,
    a: GridPoint,
    box: Box,
    passable: FrozenSet[int],
    via_map: ViaMap,
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
) -> List[ViaPoint]:
    """Reference :func:`repro.core.single_layer.reachable_vias` (no memo)."""
    ca, xa = layer.point_cc(a)
    fs = _FreeSpace(layer, box, passable)
    if fs.is_empty or not fs.in_box(ca, xa):
        return []
    a_via = (
        layer.grid.grid_to_via(a) if layer.grid.is_via_site(a) else None
    )
    start_index = fs.gap_index_at(ca, xa)
    if start_index is None:
        return []
    found: List[ViaPoint] = []
    for c, gi in _explore_all(fs, (ca, start_index), max_gaps, stats, budget):
        if not layer.is_via_channel(c):
            continue
        glo, ghi = fs.gaps(c)[gi]
        for via in layer.via_sites_in(c, glo, ghi):
            if via != a_via and via_map.is_available(via, passable):
                found.append(via)
    return found


def install(monkeypatch) -> None:
    """Route through this reference: patch it in where Lee and the
    optimal strategies look the searches up (the memo is ignored)."""
    monkeypatch.setattr(
        "repro.core.lee.reachable_vias",
        lambda *args, memo=None: reachable_vias(*args),
    )
    monkeypatch.setattr("repro.core.lee.trace", trace)
    monkeypatch.setattr("repro.core.optimal.trace", trace)
