"""Reference ``trace`` / ``reachable_vias`` / ``obstructions``: the plain
Section 7 DFS.

The router runs one scalar kernel for all three searches
(:mod:`repro.core.single_layer`): full-span gap views, bisect windows,
flat integer gap keys and, for *Vias*, an optional per-search memo.
This module keeps the straightforward depth-first search over
box-clipped gap lists that the kernel replaced, as a test oracle only:
the parity suites in ``tests/test_fastpath.py`` hold the kernel to it
bit for bit — results, emission order, :class:`SearchStats` and via-map
probe accounting.

The functions are the pre-kernel pure-python implementations, kept
verbatim apart from the removed backend dispatch.  The box-clipped view
reads ``Channel.free_gaps`` directly: the oracle shares no cache with
the kernel it checks.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.channels.layer_data import ChannelPiece, LayerData
from repro.channels.via_map import ViaMap
from repro.core.budget import SEARCH_CHECK_MASK, BudgetTracker
from repro.core.single_layer import DEFAULT_MAX_GAPS, SearchStats, _clip_box
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box

#: Identity of a free gap: (channel index, index in the channel's gap list).
GapKey = Tuple[int, int]

#: Sentinel larger than any gap hi-bound, so ``(coord, _COORD_INF)`` sorts
#: after every gap starting at ``coord`` in ``gap_index_at``'s bisect.
_COORD_INF = 1 << 62


class _FreeSpace:
    """Box-clipped free-gap view of one layer region for one search.

    Holds the box clip and a per-search ``{channel: list}`` memo so the
    ``gaps()`` call is a single int-keyed dict lookup.
    """

    def __init__(
        self, layer: LayerData, box: Box, passable: FrozenSet[int]
    ) -> None:
        self.layer = layer
        self.passable = passable
        self.c_lo, self.c_hi, self.lo, self.hi = _clip_box(layer, box)
        self._gaps: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def is_empty(self) -> bool:
        """True if the box misses the layer entirely."""
        return self.c_lo > self.c_hi or self.lo > self.hi

    def in_box(self, channel_index: int, coord: int) -> bool:
        """True if channel coordinates lie inside the clipped box."""
        return (
            self.c_lo <= channel_index <= self.c_hi
            and self.lo <= coord <= self.hi
        )

    def gaps(self, channel_index: int) -> List[Tuple[int, int]]:
        """Free gaps of one channel, clipped to the box (memoized)."""
        cached = self._gaps.get(channel_index)
        if cached is None:
            cached = self.layer.channels[channel_index].free_gaps(
                self.lo, self.hi, self.passable
            )
            self._gaps[channel_index] = cached
        return cached

    def gap_index_at(self, channel_index: int, coord: int) -> Optional[int]:
        """Index of the gap containing ``coord``, or None if blocked.

        The gap list is sorted and disjoint, so the candidate is the last
        gap starting at or before ``coord`` — found by bisect, not by
        scanning from index 0.
        """
        gaps = self.gaps(channel_index)
        i = bisect_right(gaps, (coord, _COORD_INF)) - 1
        if i >= 0 and gaps[i][1] >= coord:
            return i
        return None


def _adjacent_gaps(
    fs: _FreeSpace, channel_index: int, glo: int, ghi: int
) -> Iterator[Tuple[GapKey, Tuple[int, int]]]:
    """Gaps in the two neighboring channels overlapping ``[glo, ghi]``."""
    for nc in (channel_index - 1, channel_index + 1):
        if not fs.c_lo <= nc <= fs.c_hi:
            continue
        for ngi, (nglo, nghi) in enumerate(fs.gaps(nc)):
            if nghi < glo:
                continue
            if nglo > ghi:
                break
            yield (nc, ngi), (nglo, nghi)


def _explore_all(
    fs: _FreeSpace,
    start: GapKey,
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
) -> Iterator[GapKey]:
    """Enumerate all gaps reachable from ``start``, up to ``max_gaps``.

    Counts popped gaps — the same accounting as :func:`trace` — so one
    ``max_gaps`` value caps both search shapes identically.  Hitting the
    cap (or an exhausted ``budget``) truncates the enumeration and marks
    ``stats`` as capped.
    """
    seen: Set[GapKey] = {start}
    stack = [start]
    examined = 0
    capped = False
    while stack:
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
        yield key
        c, gi = key
        glo, ghi = fs.gaps(c)[gi]
        for nkey, _ in _adjacent_gaps(fs, c, glo, ghi):
            if nkey not in seen:
                seen.add(nkey)
                stack.append(nkey)
    if stats is not None:
        stats.note(examined, capped)


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


def obstructions(
    layer: LayerData,
    a: GridPoint,
    box: Box,
    passable: FrozenSet[int] = frozenset(),
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
) -> Set[int]:
    """Reference :func:`repro.core.single_layer.obstructions`."""
    ca, xa = layer.point_cc(a)
    fs = _FreeSpace(layer, box, passable)
    if fs.is_empty or not fs.in_box(ca, xa):
        return set()
    owners: Set[int] = set()
    channel_a = layer.channel(ca)
    start_index = fs.gap_index_at(ca, xa)
    if start_index is None:
        # The point itself is buried under another connection: that owner
        # is the obstruction.
        blocker = channel_a.owner_at(xa)
        if blocker is not None and blocker not in passable:
            owners.add(blocker)
        return owners
    for c, gi in _explore_all(fs, (ca, start_index), max_gaps, stats):
        channel = layer.channel(c)
        glo, ghi = fs.gaps(c)[gi]
        # Used segments bounding the gap along the channel.
        for x in (glo - 1, ghi + 1):
            if 0 <= x < layer.channel_length:
                owner = channel.owner_at(x)
                if owner is not None and owner not in passable:
                    owners.add(owner)
        # Used segments flanking the gap in the neighboring channels.
        for nc in (c - 1, c + 1):
            if 0 <= nc < layer.n_channels:
                owners |= layer.channel(nc).owners_in(glo, ghi, passable)
    return owners


def install(monkeypatch) -> None:
    """Route through this reference: patch it in where Lee, the optimal
    strategies and rip-up look the searches up (the memo is ignored)."""
    monkeypatch.setattr(
        "repro.core.lee.reachable_vias",
        lambda *args, memo=None: reachable_vias(*args),
    )
    monkeypatch.setattr("repro.core.lee.trace", trace)
    monkeypatch.setattr("repro.core.optimal.trace", trace)
    monkeypatch.setattr("repro.core.ripup.obstructions", obstructions)
