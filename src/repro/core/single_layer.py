"""The three single-layer algorithms (Section 7): Trace, Vias, Obstructions.

All three are variations of one underlying method: a depth-first search of
the *free space* of a single layer, viewed as a graph of free gaps — maximal
free intervals in each channel — where two gaps are adjacent when they lie
in neighboring channels and overlap.  The cost of a search is proportional
to the number of gaps examined, not to the distance between the end points:
"in the absence of obstacles, it is just as fast to make a connection across
the board as to the neighboring pin".

* :func:`trace` — "Is there a trace between a and b on layer l lying
  entirely within box?"  Returns the trimmed list of channel pieces.
* :func:`reachable_vias` — "What via sites are reachable from point a on
  layer l by paths lying entirely within box?"  (The paper's *Vias*.)
* :func:`obstructions` — "What connections are near point a on layer l
  lying in box?"  Victim selection for rip-up.

All three run on one scalar kernel shaped for the interpreter rather
than the textbook DFS kept in ``tests/oracle_single_layer.py``, which the
parity suites hold them to bit for bit (results, emission order,
:class:`SearchStats`, via-map probes).  ``trace`` and ``reachable_vias``
run on the router's hottest path (every Lee expansion calls *Vias* once
per layer); ``obstructions``, the kernel's third user, runs the *Vias*
DFS and reads owners around each popped gap.

The *Trace* and *Vias* loops, :func:`_trace_dfs` and :func:`_vias_dfs`,
also have a bit-for-bit C port (``_kernel.c``, built and loaded by
:mod:`repro.core.fastpath`) with the same arguments and results.  Each
layer's ``kernel`` attribute picks one: None runs the loops here, the
native module runs its port; a router sets it for its resolved
``RouterConfig.backend`` (``auto|native|python``).  The prologue, the
memo and the chain trim below run in python either way.

* **Full-span views.**  The DFS walks each channel's whole-length gap
  arrays (:meth:`repro.channels.gap_cache.GapCache.full_bounds`, one
  view per channel and passable set between mutations) and clamps
  extents to the box on the fly, so no box-clipped list is built.  This
  is exact: for a current gap clamped to ``[glo, ghi]`` inside the box,
  a neighbor's full gap overlaps it iff its clipped gap exists and
  overlaps it (``min(nghi, hi) >= glo`` iff ``nghi >= glo``, because
  ``hi >= ghi >= glo``), clipped lists are contiguous runs of the full
  ones, and clamped extents equal clipped extents.
* **Bisect windows.**  The neighbors of a gap in an adjacent channel are
  one ``bisect_left``/``bisect_right`` window over the sorted bound
  arrays, not a prefix scan; gaps are packed ``channel * stride + index``
  integers, and stack entries carry their clamped extents.
* **The per-search Vias memo.**  The board does not change during one
  Lee search, and every via in one row of a layer gets the same strip
  box, so two vias whose start points fall in the same free gap run an
  identical DFS.  Lee therefore passes ``reachable_vias`` a dict, created
  per search and keyed by (layer, clamped box, start gap), that stores
  the ordered sites (the start via's own site included) with the popped
  gap count.  A hit drops the caller's own site and replays
  :meth:`SearchStats.note` with the stored count; capped or
  budget-truncated searches are never stored.  Routes, emission order
  and search statistics are thus identical with or without the memo —
  only via-map probes and gap-cache traffic fall.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set, Tuple

from repro.channels.layer_data import ChannelPiece, LayerData
from repro.channels.via_map import MIXED, ViaMap
from repro.core.budget import SEARCH_CHECK_MASK
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box, Orientation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import BudgetTracker

#: Default cap on gaps examined per search, a safety net against
#: pathological congestion.  A capped search is *truncated*, not proven
#: blocked; callers that care pass a :class:`SearchStats` to tell the two
#: apart (rip-up victim selection must not treat truncation as blockage).
DEFAULT_MAX_GAPS = 20000


@dataclass
class SearchStats:
    """Accumulated effort of free-space searches (an out-parameter).

    All three Section 7 searches count the same unit — gaps popped off
    the search stack — and call :meth:`note` exactly once on the way out,
    so the ``max_gaps`` cap means one thing everywhere.
    """

    searches: int = 0
    examined: int = 0
    #: Searches that hit the ``max_gaps`` cap and were truncated.
    cap_hits: int = 0
    #: Of ``searches``, the *Vias* calls answered from a per-search memo
    #: (their stored gap count is replayed into ``examined``).
    memo_hits: int = 0

    def note(self, examined: int, capped: bool) -> None:
        """Record one finished (or truncated) search."""
        self.searches += 1
        self.examined += examined
        if capped:
            self.cap_hits += 1


def _clip_box(layer: LayerData, box: Box) -> Tuple[int, int, int, int]:
    """``box`` as (channel lo, channel hi, coord lo, coord hi) on the layer."""
    c_lo, c_hi, lo, hi = layer.box_cc(box)
    return (
        max(c_lo, 0),
        min(c_hi, layer.n_channels - 1),
        max(lo, 0),
        min(hi, layer.channel_length - 1),
    )


def trace(
    layer: LayerData,
    a: GridPoint,
    b: GridPoint,
    box: Box,
    passable: FrozenSet[int] = frozenset(),
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional["BudgetTracker"] = None,
) -> Optional[List[ChannelPiece]]:
    """Find a rectilinear path from ``a`` to ``b`` on one layer inside ``box``.

    Returns the path as channel pieces ``(channel_index, lo, hi)`` with the
    large gap overlaps already trimmed back to single junction points
    (Figure 7), or None if no path exists within the box.  A search that
    pops more than ``max_gaps`` gaps gives up and also returns None, but
    marks ``stats`` as capped — truncation, not a proven blockage.  A
    timed ``budget`` (see :mod:`repro.core.budget`) is consulted every few
    dozen pops; exhaustion truncates the search exactly like the cap.

    The DFS pops the child nearest the destination first; it runs over
    full-span gap views clamped to the box (see the module docstring),
    on the layer's kernel (:func:`_trace_dfs` or its native port).
    """
    ca, xa = layer.point_cc(a)
    cb, xb = layer.point_cc(b)
    c_lo, c_hi, lo, hi = _clip_box(layer, box)
    if not (
        c_lo <= ca <= c_hi and lo <= xa <= hi
        and c_lo <= cb <= c_hi and lo <= xb <= hi
    ):
        return None
    full_bounds = layer.gap_cache.full_bounds
    start_view = full_bounds(ca, passable)
    los_s = start_view[1]
    si = bisect_right(los_s, xa) - 1
    if si < 0 or start_view[2][si] < xa:
        return None
    kernel = layer.kernel
    dfs = _trace_dfs if kernel is None else kernel.trace_dfs
    chain, examined, capped = dfs(
        full_bounds, passable, start_view, layer.channel_length + 1,
        ca, si, max(los_s[si], lo), min(start_view[2][si], hi),
        c_lo, c_hi, lo, hi, cb, xb, max_gaps,
        None if budget is None else budget.search_exceeded,
    )
    if stats is not None:
        stats.note(examined, capped)
    if chain is None:
        return None
    return _trim_chain(chain, xa, xb)


def _trace_dfs(
    full_bounds, passable, start_view, stride, ca, si, start_lo, start_hi,
    c_lo, c_hi, lo, hi, cb, xb, max_gaps, search_exceeded,
) -> Tuple[Optional[List[Tuple[int, int, int]]], int, bool]:
    """The *Trace* DFS from gap ``si`` of channel ``ca`` towards ``(cb, xb)``.

    Returns ``(chain, examined, capped)``: the box-clamped ``(channel,
    lo, hi)`` gaps from source to destination (None when not found),
    the gaps popped, and whether the cap or ``search_exceeded`` cut the
    search short.  ``_kernel.c``'s ``trace_dfs`` is a port of this loop.
    """
    # Per-search view memo, indexed by channel offset from the box edge
    # (a list probe beats a dict probe on this hottest of lookups).
    views: list = [None] * (c_hi - c_lo + 1)
    views[ca - c_lo] = start_view
    start_key = ca * stride + si
    parents = {start_key: -1}
    goal = -1
    if ca == cb and start_lo <= xb <= start_hi:
        goal = start_key
    # Stack entries carry (key, channel, clamped lo, clamped hi) so a
    # pop never re-derives its gap from the views.
    stack = [(start_key, ca, start_lo, start_hi)]
    pop = stack.pop
    extend = stack.extend
    examined = 0
    capped = False
    while stack and goal < 0:
        key, c, glo, ghi = pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        if (
            search_exceeded is not None
            and (examined & SEARCH_CHECK_MASK) == 0
            and search_exceeded()
        ):
            capped = True
            break
        children: List[tuple] = []
        for nc in (c - 1, c + 1):
            if nc < c_lo or nc > c_hi:
                continue
            nview = views[nc - c_lo]
            if nview is None:
                nview = views[nc - c_lo] = full_bounds(nc, passable)
            los_n = nview[1]
            his_n = nview[2]
            i = bisect_left(his_n, glo)
            j = bisect_right(los_n, ghi, i)
            base = nc * stride
            for ngi in range(i, j):
                nkey = base + ngi
                if nkey in parents:
                    continue
                parents[nkey] = key
                nglo = los_n[ngi]
                if nglo < lo:
                    nglo = lo
                nghi = his_n[ngi]
                if nghi > hi:
                    nghi = hi
                if nc == cb and nglo <= xb <= nghi:
                    goal = nkey
                    break
                if xb < nglo:
                    distance = nglo - xb
                elif xb > nghi:
                    distance = xb - nghi
                else:
                    distance = 0
                children.append(
                    (distance + abs(nc - cb), (nkey, nc, nglo, nghi))
                )
            if goal >= 0:
                break
        if goal >= 0:
            break
        # Best-to-worst (stable on ties): the nearest child is pushed
        # last, so the DFS pops it first.
        children.sort(key=_negate_first)
        extend(item[1] for item in children)
    if goal < 0:
        return None, examined, capped
    chain: List[Tuple[int, int, int]] = []
    node = goal
    while node >= 0:
        c, gi = divmod(node, stride)
        view = views[c - c_lo]
        chain.append((c, max(view[1][gi], lo), min(view[2][gi], hi)))
        node = parents[node]
    chain.reverse()
    return chain, examined, capped


def _negate_first(item: Tuple[int, tuple]) -> int:
    return -item[0]


def _trim_chain(
    chain: List[Tuple[int, int, int]], xa: int, xb: int
) -> List[ChannelPiece]:
    """Trim gap overlaps back to single junction points (Section 7.1).

    ``chain`` holds the box-clamped ``(channel, lo, hi)`` gaps from
    source to destination.  Junctions are chosen by clamping the
    destination coordinate into each overlap, working backwards from the
    target, which funnels the trace towards ``b`` and keeps it short.
    """
    n = len(chain)
    if n == 1:
        return [(chain[0][0], min(xa, xb), max(xa, xb))]
    junctions = [0] * (n - 1)
    desired = xb
    for i in range(n - 2, -1, -1):
        _, l1, h1 = chain[i]
        _, l2, h2 = chain[i + 1]
        desired = junctions[i] = min(max(desired, l1, l2), h1, h2)
    pieces: List[ChannelPiece] = []
    prev = xa
    for i in range(n - 1):
        j = junctions[i]
        pieces.append((chain[i][0], min(prev, j), max(prev, j)))
        prev = j
    pieces.append((chain[-1][0], min(prev, xb), max(prev, xb)))
    return pieces


def reachable_vias(
    layer: LayerData,
    a: GridPoint,
    box: Box,
    passable: FrozenSet[int],
    via_map: ViaMap,
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional["BudgetTracker"] = None,
    memo: Optional[dict] = None,
) -> List[ViaPoint]:
    """All free via sites reachable from ``a`` on one layer within ``box``.

    This is the paper's *Vias* procedure: it defines the "neighbors" of a
    via in the generalized Lee algorithm (Modification 1).  A site counts
    as free when the via map allows drilling for a passable owner.  Sites
    come out in gap-pop order, ascending within a gap; the site of ``a``
    itself is never reported.

    ``memo`` is a dict owned by one Lee search (see the module
    docstring): every call sharing it must see the same board, passable
    set and ``max_gaps``.  A hit replays the stored search into
    ``stats`` instead of running it.  The returned list is always the
    caller's own.  The search runs on the layer's kernel
    (:func:`_vias_dfs` or its native port).
    """
    ca, xa = layer.point_cc(a)
    c_lo, c_hi, lo, hi = _clip_box(layer, box)
    if not (c_lo <= ca <= c_hi and lo <= xa <= hi):
        return []
    grid = layer.grid
    a_via = grid.grid_to_via(a) if grid.is_via_site(a) else None
    full_bounds = layer.gap_cache.full_bounds
    stride = layer.channel_length + 1
    start_view = full_bounds(ca, passable)
    los_s = start_view[1]
    si = bisect_right(los_s, xa) - 1
    if si < 0 or start_view[2][si] < xa:
        return []
    if memo is not None:
        memo_key = (layer, c_lo, c_hi, lo, hi, ca * stride + si)
        stored = memo.get(memo_key)
        if stored is not None:
            sites, examined = stored
            if stats is not None:
                stats.note(examined, False)
                stats.memo_hits += 1
            return _without(sites, a_via)
        # Stored with ``a``'s own site probed and kept: another via in
        # the same start gap replays this entry, and for it that site
        # counts.
        skip = None
    else:
        skip = a_via
    kernel = layer.kernel
    dfs = _vias_dfs if kernel is None else kernel.vias_dfs
    sites, examined, capped = dfs(
        full_bounds, passable, start_view, stride,
        ca, si, max(los_s[si], lo), min(start_view[2][si], hi),
        c_lo, c_hi, lo, hi, grid.grid_per_via, max_gaps,
        None if budget is None else budget.search_exceeded,
        via_map, layer.orientation is Orientation.HORIZONTAL,
        -1 if skip is None else skip.vx,
        -1 if skip is None else skip.vy,
    )
    if stats is not None:
        stats.note(examined, capped)
    if memo is None:
        return sites
    if not capped:
        memo[memo_key] = (sites, examined)
    return _without(sites, a_via)


def _vias_dfs(
    full_bounds, passable, start_view, stride, ca, si, start_lo, start_hi,
    c_lo, c_hi, lo, hi, g, max_gaps, search_exceeded,
    via_map, horizontal, skip_vx, skip_vy,
) -> Tuple[List[ViaPoint], int, bool]:
    """The *Vias* DFS from gap ``si`` of channel ``ca``, then its sites.

    Returns ``(sites, examined, capped)``: the available via sites of
    the popped via-channel gaps (:func:`_collect_sites`, skipping
    ``(skip_vx, skip_vy)``), the gaps popped, and whether the cap or
    ``search_exceeded`` cut the search short.  ``_kernel.c``'s
    ``vias_dfs`` is a port of this loop.
    """
    views: list = [None] * (c_hi - c_lo + 1)
    views[ca - c_lo] = start_view
    seen = {ca * stride + si}
    seen_add = seen.add
    # Stack entries carry (channel, clamped lo, clamped hi); the packed
    # int key exists only inside ``seen``, so a pop touches no view.
    stack = [(ca, start_lo, start_hi)]
    pop = stack.pop
    append = stack.append
    examined = 0
    capped = False
    # Via-channel gaps, divided down to via-site ranges in pop order.
    ranges: List[Tuple[int, int, int]] = []
    while stack:
        c, glo, ghi = pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        if (
            search_exceeded is not None
            and (examined & SEARCH_CHECK_MASK) == 0
            and search_exceeded()
        ):
            capped = True
            break
        if not c % g:
            v_lo = (glo + g - 1) // g
            v_hi = ghi // g
            if v_hi >= v_lo:
                ranges.append((c // g, v_lo, v_hi))
        # The two neighbor directions, unrolled (this is the hottest
        # loop on the board): c - 1 pushed first, then c + 1.
        nc = c - 1
        while True:
            if c_lo <= nc <= c_hi:
                nview = views[nc - c_lo]
                if nview is None:
                    nview = views[nc - c_lo] = full_bounds(nc, passable)
                los_n = nview[1]
                his_n = nview[2]
                i = bisect_left(his_n, glo)
                j = bisect_right(los_n, ghi, i)
                base = nc * stride
                for ngi in range(i, j):
                    nkey = base + ngi
                    if nkey not in seen:
                        seen_add(nkey)
                        nglo = los_n[ngi]
                        if nglo < lo:
                            nglo = lo
                        nghi = his_n[ngi]
                        if nghi > hi:
                            nghi = hi
                        append((nc, nglo, nghi))
            if nc > c:
                break
            nc = c + 1
    sites = _collect_sites(
        ranges, horizontal, skip_vx, skip_vy, via_map, passable
    )
    return sites, examined, capped


def _without(sites: List[ViaPoint], via: Optional[ViaPoint]) -> List[ViaPoint]:
    """A fresh copy of ``sites`` with ``via`` (listed at most once) dropped."""
    found = sites.copy()
    if via is not None:
        try:
            found.remove(via)
        except ValueError:
            pass
    return found


def _collect_sites(
    ranges: List[Tuple[int, int, int]],
    horizontal: bool,
    s_vx: int,
    s_vy: int,
    via_map: ViaMap,
    passable: FrozenSet[int],
) -> List[ViaPoint]:
    """Available sites of ``(via channel, first site, last site)`` ranges.

    Emission order is range order, ascending within a range; the site
    ``(s_vx, s_vy)`` is neither probed nor reported.  An inline of
    :meth:`ViaMap.is_available_xy` — free sites are available to everyone,
    covered sites only when solely owned by a passable owner — with the
    probe tally added in one lump.
    """
    found: List[ViaPoint] = []
    count = via_map._count
    via_ny = via_map.via_ny
    sole_get = via_map._sole.get
    probes = 0
    for vc, v_lo, v_hi in ranges:
        for v in range(v_lo, v_hi + 1):
            vx, vy = (v, vc) if horizontal else (vc, v)
            if vx == s_vx and vy == s_vy:
                continue
            probes += 1
            if not count[vx * via_ny + vy]:
                found.append(ViaPoint(vx, vy))
            else:
                # A bare (vx, vy) tuple hashes like the ViaPoint keys.
                sole = sole_get((vx, vy))
                if sole is not MIXED and sole in passable:
                    found.append(ViaPoint(vx, vy))
    via_map.probe_count += probes
    return found


def obstructions(
    layer: LayerData,
    a: GridPoint,
    box: Box,
    passable: FrozenSet[int] = frozenset(),
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
) -> Set[int]:
    """Owners of the used segments immediately surrounding ``a`` (Section 7.3).

    Enumerates the free space around ``a`` exhaustively and collects the
    owner of every used segment bounding or flanking a visited gap — "the
    list of immediate obstacles that surround a point on a given layer",
    used to select victims to be ripped up.  The DFS is the *Vias* one
    (same pop order, same ``max_gaps`` accounting); owners are read with
    each popped gap's box-clamped extent.
    """
    ca, xa = layer.point_cc(a)
    c_lo, c_hi, lo, hi = _clip_box(layer, box)
    if not (c_lo <= ca <= c_hi and lo <= xa <= hi):
        return set()
    owners: Set[int] = set()
    channels = layer.channels
    full_bounds = layer.gap_cache.full_bounds
    stride = layer.channel_length + 1
    views: list = [None] * (c_hi - c_lo + 1)
    start_view = views[ca - c_lo] = full_bounds(ca, passable)
    los_s = start_view[1]
    si = bisect_right(los_s, xa) - 1
    if si < 0 or start_view[2][si] < xa:
        # The point itself is buried under another connection: that owner
        # is the obstruction.
        blocker = channels[ca].owner_at(xa)
        if blocker is not None and blocker not in passable:
            owners.add(blocker)
        return owners
    seen = {ca * stride + si}
    stack = [(ca, max(los_s[si], lo), min(start_view[2][si], hi))]
    last_x = layer.channel_length - 1
    last_c = layer.n_channels - 1
    examined = 0
    capped = False
    while stack:
        c, glo, ghi = stack.pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        channel = channels[c]
        # Used segments bounding the gap along the channel.
        for x in (glo - 1, ghi + 1):
            if 0 <= x <= last_x:
                owner = channel.owner_at(x)
                if owner is not None and owner not in passable:
                    owners.add(owner)
        for nc in (c - 1, c + 1):
            # Used segments flanking the gap in the neighboring channel.
            if 0 <= nc <= last_c:
                owners |= channels[nc].owners_in(glo, ghi, passable)
            if nc < c_lo or nc > c_hi:
                continue
            nview = views[nc - c_lo]
            if nview is None:
                nview = views[nc - c_lo] = full_bounds(nc, passable)
            los_n = nview[1]
            his_n = nview[2]
            i = bisect_left(his_n, glo)
            j = bisect_right(los_n, ghi, i)
            base = nc * stride
            for ngi in range(i, j):
                nkey = base + ngi
                if nkey not in seen:
                    seen.add(nkey)
                    stack.append(
                        (nc, max(los_n[ngi], lo), min(his_n[ngi], hi))
                    )
    if stats is not None:
        stats.note(examined, capped)
    return owners
