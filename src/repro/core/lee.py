"""The generalized Lee maze search (Section 8.2), with all three
modifications from the paper:

1. the neighbors of a via are the via sites reachable from it by a trace
   on one layer (the *Vias* procedure) — neighbors radiate in a cross of
   radius strips (Figure 11), generalizing Hightower's line search;
2. wavefronts spread from both ends simultaneously; if either wavefront is
   exhausted the connection is blocked, and the point that made the most
   progress is remembered for rip-up victim selection;
3. wavefront lists are kept in increasing order of a pluggable cost
   function (``distance(n, target) * hops(n, source)`` by default).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.board.nets import Connection
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.core.bounds import HOPS_UNREACHABLE, TargetBounds
from repro.core.budget import SEARCH_CHECK_MASK, BudgetTracker
from repro.core.cost import CostFunction, distance_hops_cost
from repro.core.single_layer import (
    DEFAULT_MAX_GAPS,
    SearchStats,
    reachable_vias,
    trace,
)
from repro.grid.coords import ViaPoint, manhattan
from repro.grid.geometry import Box, Orientation
from repro.obs.events import LeeExhausted, SearchCapHit
from repro.obs.sinks import NULL_SINK, EventSink

#: Per-side wavefront mark: (hops from source, parent via, layer index used).
Mark = Tuple[int, Optional[ViaPoint], Optional[int]]

#: Weight on the lower bound in goal mode's ``g + W*lb`` heap ordering.
#: 1 is textbook A*; the hard prunes and the meet bookkeeping use the
#: unweighted admissible bound regardless, so raising this trades route
#: length for greed without touching the prune's soundness.  3 won the
#: benchmarks/bench_goal.py sweep on the titan suite (1 and 5 were
#: within a few percent; the frontier-size side selection matters far
#: more than the exact weight).
GOAL_WEIGHT = 3

#: Extra pops the live frontier may spend after the other side drains
#: pre-meet, before the search declares blocked.  Completions found in
#: this tail are cheap (the live side is bound-guided straight at the
#: dead side's territory); truly blocked connections pay at most this
#: much more than classic's give-up-immediately rule.
GOAL_TAIL_CAP = 8

#: Per-hop surcharge (via units) added to ``g`` in goal mode.  Every
#: hop in the waypoint chain is a potential via; without this the
#: chain-length metric happily strings many short hops, and the extra
#: via cover congests later connections (classic's ``distance * hops``
#: cost penalizes depth implicitly).  The lower bound stays admissible:
#: it underestimates the remaining *chain length*, which the surcharge
#: only ever increases.
GOAL_HOP_COST = 4


@dataclass
class LeeSearchResult:
    """Outcome of one bidirectional Lee search."""

    routed: bool
    record: Optional[RouteRecord] = None
    expansions: int = 0
    marked: int = 0
    blocked: bool = False
    reason: str = ""
    #: Single-layer searches truncated at the ``max_gaps`` cap during this
    #: route.  A blocked result with ``cap_hits > 0`` (reason suffixed
    #: "(gap cap)") was truncated, not proven blocked — rip-up victim
    #: selection should not treat it as a hard blockage.
    cap_hits: int = 0
    #: Gaps popped across all single-layer searches of this route.
    gaps_examined: int = 0
    #: Least-cost point ever inserted into each wavefront (a-side, b-side);
    #: the rip-up strategy removes obstacles around these (Section 8.3).
    best_points: Tuple[Optional[ViaPoint], Optional[ViaPoint]] = (None, None)
    #: Which side exhausted first ("a", "b" or "" if not blocked).
    exhausted_side: str = ""
    #: Heap entries discarded at pop time because the opposing wavefront
    #: had already marked the via (lazy deletion; only goal mode keeps
    #: searching past a cross-mark, so only goal mode accumulates these).
    heap_stale: int = 0
    #: Goal-mode expansions/pushes discarded because the admissible
    #: bound proved they could not beat the best meet (or the remaining
    #: expansion budget / hop geometry).
    lb_prunes: int = 0
    #: *Vias* calls answered from this search's memo instead of run
    #: (see :func:`repro.core.single_layer.reachable_vias`).
    vias_memo_hits: int = 0


def _strip_axis(orientation: Orientation) -> str:
    """Strip direction for ``RoutingGrid.via_strip`` on a layer."""
    return "x" if orientation is Orientation.HORIZONTAL else "y"


def _neighbors(
    workspace: RoutingWorkspace,
    via: ViaPoint,
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
    clip: Optional[Box] = None,
    memo: Optional[dict] = None,
) -> List[Tuple[ViaPoint, int]]:
    """All (neighbor via, layer index) pairs reachable in one hop.

    "To find the neighbors of a via, Vias is called once for each layer,
    and the result added to an accumulating list" — the cross of Figure 11.
    ``memo`` is the calling search's *Vias* memo: vias in one strip row
    whose start points share a free gap reuse one layer search.

    ``clip`` intersects every layer's strip (goal mode's corridor box
    around the expanded via and its target, see :func:`_goal_clip`):
    sites outside it would be push-pruned anyway, so clipping them away
    here saves the gap scan that would have found them.
    """
    point = workspace.grid.via_to_grid(via)
    result: List[Tuple[ViaPoint, int]] = []
    for layer_index, layer in enumerate(workspace.layers):
        box = workspace.grid.via_strip(
            via, radius, _strip_axis(layer.orientation)
        )
        if clip is not None:
            box = Box(
                max(box.x_lo, clip.x_lo),
                max(box.y_lo, clip.y_lo),
                min(box.x_hi, clip.x_hi),
                min(box.y_hi, clip.y_hi),
            )
            if box.x_lo > box.x_hi or box.y_lo > box.y_hi:
                continue
        for n in reachable_vias(
            layer,
            point,
            box,
            passable,
            workspace.via_map,
            max_gaps,
            stats,
            budget,
            memo=memo,
        ):
            result.append((n, layer_index))
    return result


def _back_chain(
    marks: Dict[ViaPoint, Mark], via: ViaPoint, side: str
) -> List[Tuple[ViaPoint, Optional[int]]]:
    """Chain from the wavefront source to ``via``: [(via, layer to reach it)].

    Every via on the chain was inserted into ``marks`` before its children,
    so a missing mark can only mean the table was corrupted after the
    search — raise with enough context to tell *where* the chain broke
    (a bare KeyError here made backend-parity debugging hopeless).
    """
    chain: List[Tuple[ViaPoint, Optional[int]]] = []
    current: Optional[ViaPoint] = via
    while current is not None:
        mark = marks.get(current)
        if mark is None:
            raise RuntimeError(
                f"retrace walked off the {side}-side wavefront at "
                f"{current}: no mark among {len(marks)} — the parent "
                f"chain is corrupt"
            )
        chain.append((current, mark[2]))
        current = mark[1]
    chain.reverse()
    return chain


def lee_route(
    workspace: RoutingWorkspace,
    conn: Connection,
    radius: int = 1,
    passable: Optional[FrozenSet[int]] = None,
    cost_fn: CostFunction = distance_hops_cost,
    max_expansions: int = 4000,
    max_gaps: int = DEFAULT_MAX_GAPS,
    single_front: bool = False,
    sink: EventSink = NULL_SINK,
    budget: Optional[BudgetTracker] = None,
    bounds: Optional[Tuple[TargetBounds, TargetBounds]] = None,
) -> LeeSearchResult:
    """Route one connection with the generalized bidirectional Lee search.

    ``single_front=True`` disables Modification 2: only the a-side
    wavefront spreads (the pre-modification behaviour benchmarked in
    ``benchmarks/bench_bidirectional.py``); the search still terminates
    when a neighbor of the frontier is the target pin.  ``sink`` receives
    a :class:`repro.obs.events.LeeExhausted` event when the search dies,
    carrying the best points rip-up will center on.  A timed ``budget``
    is consulted every few dozen expansions; exhaustion ends the search
    with reason ``"budget exhausted"`` — a truncation like the expansion
    limit, never an exception.

    ``bounds`` — per-side :class:`repro.core.bounds.TargetBounds`
    ``(toward b, toward a)`` — switches the search into **goal mode**
    (``RouterConfig.search = "goal"``): A*-style ``g + lb`` ordering on
    the accumulated waypoint-chain length, hard pruning against the best
    known meeting path, and early bidirectional termination.  ``None``
    keeps the paper's classic multiplicative heuristic and
    stop-at-first-meet behaviour.
    """
    if passable is None:
        passable = frozenset((conn.conn_id,))
    stats = SearchStats()
    # The board stays fixed for the whole search, so one Vias memo
    # serves every expansion (see repro.core.single_layer).
    memo: dict = {}
    if bounds is not None:
        return _lee_route_goal(
            workspace, conn, radius, passable, bounds, max_expansions,
            max_gaps, single_front, sink, budget, stats, memo,
        )
    a, b = conn.a, conn.b
    sources = (a, b)
    targets = (b, a)
    marks: Tuple[Dict[ViaPoint, Mark], Dict[ViaPoint, Mark]] = (
        {a: (0, None, None)},
        {b: (0, None, None)},
    )
    heaps: Tuple[list, list] = ([(0.0, 0, a)], [(0.0, 0, b)])
    counter = itertools.count(1)
    best: List[Tuple[float, ViaPoint]] = [
        (float("inf"), a),
        (float("inf"), b),
    ]
    expansions = 0
    heap_stale = 0
    meet: Optional[Tuple[int, ViaPoint, ViaPoint, int]] = None
    reason = ""
    exhausted = ""
    while meet is None:
        if not heaps[0] or not heaps[1]:
            # Modification 2: one exhausted wavefront means blocked.
            exhausted = "a" if not heaps[0] else "b"
            reason = "wavefront exhausted"
            break
        if expansions >= max_expansions:
            reason = "expansion limit"
            break
        if (
            budget is not None
            and (expansions & SEARCH_CHECK_MASK) == 0
            and budget.search_exceeded()
        ):
            reason = "budget exhausted"
            break
        if single_front:
            side = 0
        else:
            side = 0 if heaps[0][0][0] <= heaps[1][0][0] else 1
        _, _, p = heappop(heaps[side])
        if p in marks[1 - side] and p != sources[side]:
            # Lazy deletion: the opposing wavefront claimed the via after
            # we queued it; expanding it would only re-cover that side's
            # territory.  (Classic mode stops at the first cross-mark, so
            # this fires only in goal mode — the check is shared so both
            # modes pay the same single dict probe per pop.)
            heap_stale += 1
            continue
        expansions += 1
        hops_p = marks[side][p][0]
        found_meet = None
        for n, layer_index in _neighbors(
            workspace, p, radius, passable, max_gaps, stats, budget,
            memo=memo,
        ):
            if n in marks[side]:
                continue
            hops_n = hops_p + 1
            marks[side][n] = (hops_n, p, layer_index)
            if n in marks[1 - side]:
                found_meet = (side, p, n, layer_index)
                break
            cost = cost_fn(n, targets[side], hops_n)
            heappush(heaps[side], (cost, next(counter), n))
            if cost < best[side][0]:
                best[side] = (cost, n)
        if found_meet is not None:
            meet = found_meet
    best_points = (best[0][1], best[1][1])
    return _finish(
        workspace, conn, meet, marks, radius, passable, max_gaps, stats,
        budget, sink, expansions, best_points, reason, exhausted,
        heap_stale, 0,
    )


def _finish(
    workspace: RoutingWorkspace,
    conn: Connection,
    meet: Optional[Tuple[int, ViaPoint, ViaPoint, int]],
    marks: Tuple[Dict[ViaPoint, Mark], Dict[ViaPoint, Mark]],
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: SearchStats,
    budget: Optional[BudgetTracker],
    sink: EventSink,
    expansions: int,
    best_points: Tuple[Optional[ViaPoint], Optional[ViaPoint]],
    reason: str,
    exhausted: str,
    heap_stale: int,
    lb_prunes: int,
) -> LeeSearchResult:
    """Shared search tail: retrace a meet or report the blockage.

    Used by both the classic and goal loops so the cap-truncation
    bookkeeping and event emissions cannot drift between modes.
    """
    marked = len(marks[0]) + len(marks[1])
    if meet is None:
        # A cap-truncated search may have hidden reachable neighbors: the
        # failure is then unproven, and the reason says so.  Every
        # blocked reason gets the suffix — consumers (failure_reasons in
        # the api/serve summaries, rip-up victim selection) key on it to
        # tell truncations from hard blockages, so it must track
        # ``cap_hits`` exactly, whatever ended the search.
        if stats.cap_hits > 0:
            reason += " (gap cap)"
        if sink.enabled:
            sink.emit(
                LeeExhausted(
                    conn.conn_id,
                    exhausted,
                    reason,
                    expansions,
                    best_points[0],
                    best_points[1],
                )
            )
            if stats.cap_hits > 0:
                sink.emit(
                    SearchCapHit(
                        conn.conn_id,
                        stats.cap_hits,
                        stats.searches,
                        max_gaps,
                        False,
                    )
                )
        return LeeSearchResult(
            routed=False,
            expansions=expansions,
            marked=marked,
            blocked=True,
            reason=reason,
            cap_hits=stats.cap_hits,
            gaps_examined=stats.examined,
            best_points=best_points,
            exhausted_side=exhausted,
            heap_stale=heap_stale,
            lb_prunes=lb_prunes,
            vias_memo_hits=stats.memo_hits,
        )
    record = _retrace(
        workspace, conn, meet, marks, radius, passable, max_gaps, stats,
        budget,
    )
    if sink.enabled and stats.cap_hits > 0:
        sink.emit(
            SearchCapHit(
                conn.conn_id,
                stats.cap_hits,
                stats.searches,
                max_gaps,
                record is not None,
            )
        )
    if record is None:
        return LeeSearchResult(
            routed=False,
            expansions=expansions,
            marked=marked,
            blocked=True,
            reason=(
                "retrace failed (gap cap)"
                if stats.cap_hits > 0
                else "retrace failed"
            ),
            cap_hits=stats.cap_hits,
            gaps_examined=stats.examined,
            best_points=best_points,
            heap_stale=heap_stale,
            lb_prunes=lb_prunes,
            vias_memo_hits=stats.memo_hits,
        )
    return LeeSearchResult(
        routed=True,
        record=record,
        expansions=expansions,
        marked=marked,
        cap_hits=stats.cap_hits,
        gaps_examined=stats.examined,
        best_points=best_points,
        heap_stale=heap_stale,
        lb_prunes=lb_prunes,
        vias_memo_hits=stats.memo_hits,
    )


def _goal_clip(
    workspace: RoutingWorkspace, p: ViaPoint, target: ViaPoint, slack: int
) -> Box:
    """Corridor box for goal-mode neighbor generation, in grid coords.

    Once a meet of cost ``mu`` is known, any useful neighbor ``s`` of
    ``p`` must satisfy ``g(p) + manhattan(p, s) + manhattan(s, t) <=
    mu - 1`` (the push filter with the Manhattan floor of the bound).
    A site ``e`` via units outside the p-t bounding interval on either
    axis detours at least ``2e``, so everything past ``slack // 2``
    (``slack`` = the margin left over the straight p-t corridor) can
    never pass the filter — the strips are clipped to this box before
    the gap scan runs.
    """
    grid = workspace.grid
    half = (slack // 2) * grid.grid_per_via
    p_pt = grid.via_to_grid(p)
    t_pt = grid.via_to_grid(target)
    return Box(
        min(p_pt.gx, t_pt.gx) - half,
        min(p_pt.gy, t_pt.gy) - half,
        max(p_pt.gx, t_pt.gx) + half,
        max(p_pt.gy, t_pt.gy) + half,
    )


def _lee_route_goal(
    workspace: RoutingWorkspace,
    conn: Connection,
    radius: int,
    passable: FrozenSet[int],
    bounds: Tuple[TargetBounds, TargetBounds],
    max_expansions: int,
    max_gaps: int,
    single_front: bool,
    sink: EventSink,
    budget: Optional[BudgetTracker],
    stats: SearchStats,
    memo: dict,
) -> LeeSearchResult:
    """The goal-mode search loop (``RouterConfig.search = "goal"``).

    Differences from the classic loop, all driven by the admissible
    per-side ``bounds``:

    * heaps order on ``f = g + GOAL_WEIGHT * lb`` where ``g`` is the
      accumulated Manhattan length of the via-waypoint chain (via
      units) — a weighted-A* ordering instead of the multiplicative
      ``distance * hops`` heuristic;
    * each step expands the side with the *smaller open frontier*
      (Pohl's cardinality criterion) rather than the globally cheapest
      pop.  This is where most of the measured expansion saving comes
      from: a connection walled into a small pocket drains that pocket
      in ``|pocket|`` expansions flat, instead of racing a large
      opposing frontier against it, and on open boards the balanced
      fronts meet near the middle;
    * a cross-mark does not stop the search: it records a meet candidate
      of cost ``g_a + g_b`` and the loop keeps improving it until
      ``min(heap_a) + min(heap_b) >= mu`` (no open pair of frontier
      nodes can beat the best meet — early bidirectional termination;
      with ``GOAL_WEIGHT > 1`` the minima are inflated, so this fires
      quickly and the tail past the first meet is nearly free);
    * with a meet in hand, expansions and pushes that the bound proves
      useless (``g + lb >= mu``, or more remaining hops than expansion
      budget) are discarded (``lb_prunes``), and neighbor strips are
      clipped to the corridor that can still pass the push filter;
    * a target unreachable by hop geometry alone (single-orientation
      boards, see :meth:`TargetBounds.hop_bound`) is pruned pre-meet —
      sound, because hop reachability is symmetric, so no meet can
      exist either;
    * when one frontier drains pre-meet the live side keeps expanding
      for up to ``GOAL_TAIL_CAP`` extra pops before blocked is
      declared.  The dead side's marks blanket its entire reachable
      set, so the live side can still cross into it and complete the
      route — classic (paper Modification 2) gives up here, and its
      interleaved ordering just happens to meet first most of the
      time.  The cap bounds what a *truly* blocked connection pays for
      the second opinion.

    Completion safety is structural: pre-meet the loop explores exactly
    like A* (no pruning beyond the geometric-unreachability case), and
    every post-meet prune already has a routable meet in hand — so a
    stale-free bound can affect route choice and speed, never turn a
    routable connection into a blocked one.
    """
    a, b = conn.a, conn.b
    sources = (a, b)
    targets = (b, a)
    marks: Tuple[Dict[ViaPoint, Mark], Dict[ViaPoint, Mark]] = (
        {a: (0, None, None)},
        {b: (0, None, None)},
    )
    dists: Tuple[Dict[ViaPoint, int], Dict[ViaPoint, int]] = ({a: 0}, {b: 0})
    heaps: Tuple[list, list] = (
        [(GOAL_WEIGHT * bounds[0].lower_bound(a), 0, a)],
        [(GOAL_WEIGHT * bounds[1].lower_bound(b), 0, b)],
    )
    counter = itertools.count(1)
    best: List[Tuple[float, ViaPoint]] = [
        (float("inf"), a),
        (float("inf"), b),
    ]
    expansions = 0
    heap_stale = 0
    lb_prunes = 0
    mu = 0
    meet: Optional[Tuple[int, ViaPoint, ViaPoint, int]] = None
    reason = ""
    exhausted = ""
    tail_left = GOAL_TAIL_CAP
    while True:
        if not heaps[0] or not heaps[1]:
            if meet is not None:
                break  # keep the best meet found so far
            if (
                single_front
                or (not heaps[0] and not heaps[1])
                or tail_left <= 0
            ):
                # Blocked: both reachable sets are marked without a
                # cross-mark ever forming, or the capped one-sided tail
                # ran out.  Keep the side that drained *first* for the
                # rip-up hint.
                if not exhausted:
                    exhausted = "a" if not heaps[0] else "b"
                reason = "wavefront exhausted"
                break
            # One frontier drained pre-meet: capped one-sided tail
            # (see the docstring).
            if not exhausted:
                exhausted = "a" if not heaps[0] else "b"
            tail_left -= 1
        if expansions >= max_expansions:
            if meet is None:
                reason = "expansion limit"
            break
        if (
            budget is not None
            and (expansions & SEARCH_CHECK_MASK) == 0
            and budget.search_exceeded()
        ):
            if meet is None:
                reason = "budget exhausted"
            break
        if (
            meet is not None
            and heaps[0]
            and heaps[1]
            and heaps[0][0][0] + heaps[1][0][0] >= mu
        ):
            # Early bidirectional termination: any undiscovered path
            # crosses both open frontiers, so it costs at least the sum
            # of the heap minima — the best meet cannot be beaten.
            break
        if single_front:
            side = 0
        elif not heaps[0]:
            side = 1
        elif not heaps[1]:
            side = 0
        else:
            # Pohl's cardinality criterion: grow the smaller frontier.
            side = 0 if len(heaps[0]) <= len(heaps[1]) else 1
        _, _, p = heappop(heaps[side])
        if p in marks[1 - side] and p != sources[side]:
            heap_stale += 1
            continue
        side_bounds = bounds[side]
        g_p = dists[side][p]
        if meet is not None:
            if g_p + side_bounds.lower_bound(p) >= mu:
                lb_prunes += 1
                continue
            if side_bounds.hop_bound(p) > max_expansions - expansions:
                lb_prunes += 1
                continue
        elif side_bounds.hop_bound(p) >= HOPS_UNREACHABLE:
            lb_prunes += 1
            continue
        expansions += 1
        hops_p = marks[side][p][0]
        target = targets[side]
        clip = None
        if meet is not None:
            # slack >= 0 here: the pop survived the f-prune above, and
            # the bound never drops below Manhattan distance.
            clip = _goal_clip(
                workspace, p, target, mu - 1 - g_p - manhattan(p, target)
            )
        for n, layer_index in _neighbors(
            workspace, p, radius, passable, max_gaps, stats, budget, clip,
            memo,
        ):
            if n in marks[side]:
                continue
            g_n = g_p + manhattan(p, n) + GOAL_HOP_COST
            if n in marks[1 - side]:
                cand = g_n + dists[1 - side][n]
                if meet is None or cand < mu:
                    mu = cand
                    meet = (side, p, n, layer_index)
            lb_n = side_bounds.lower_bound(n)
            if meet is not None and g_n + lb_n >= mu:
                lb_prunes += 1
                continue
            marks[side][n] = (hops_p + 1, p, layer_index)
            dists[side][n] = g_n
            f_n = g_n + GOAL_WEIGHT * lb_n
            heappush(heaps[side], (f_n, next(counter), n))
            if f_n < best[side][0]:
                best[side] = (f_n, n)
    best_points = (best[0][1], best[1][1])
    return _finish(
        workspace, conn, meet, marks, radius, passable, max_gaps, stats,
        budget, sink, expansions, best_points, reason, exhausted,
        heap_stale, lb_prunes,
    )


def _retrace(
    workspace: RoutingWorkspace,
    conn: Connection,
    meet: Tuple[int, ViaPoint, ViaPoint, int],
    marks: Tuple[Dict[ViaPoint, Mark], Dict[ViaPoint, Mark]],
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
) -> Optional[RouteRecord]:
    """Retrace from the meeting point to the two sources (Figure 15).

    "The links in the retraced path are constructed with Trace.  They may
    all be on different layers."  Each hop's trace is searched in the strip
    of the via it was discovered from; installed hop by hop so later hops
    treat earlier ones as passable.  On any failure the partial route is
    rolled back.

    A via is drilled at a junction only when the resolved layers of the
    two adjoining links actually differ: the layer-fallback attempts can
    land consecutive links on the *same* layer, where a drill would be a
    wasted hole (it inflated the Table 1 via counts).  The junction's
    drill decision therefore waits until the next link's layer is known —
    safe, because the search already proved the site available and the
    connection's own segments are passable to its later traces.
    """
    side, p, n, meet_layer = meet
    # Edges as (u, v, layer, strip anchor): anchor is the via whose radius
    # strip the hop was discovered in (the parent in the original search).
    edges: List[Tuple[ViaPoint, ViaPoint, int, ViaPoint]] = []
    left = _back_chain(marks[side], p, "ab"[side])
    for i in range(len(left) - 1):
        u, _ = left[i]
        v, layer_index = left[i + 1]
        edges.append((u, v, layer_index, u))
    edges.append((p, n, meet_layer, p))
    right = _back_chain(marks[1 - side], n, "ab"[1 - side])
    # right runs source_other .. n; reverse it to continue n .. source_other.
    for i in range(len(right) - 1, 0, -1):
        u, layer_index = right[i]
        v, _ = right[i - 1]
        # The hop u<-v was discovered from parent v's strip.
        edges.append((u, v, layer_index, v))
    if side == 1:
        # The chains ran from b towards a; normalize the route to a -> b.
        edges = [
            (v, u, layer_index, anchor)
            for u, v, layer_index, anchor in reversed(edges)
        ]
    builder = workspace.route_builder(conn.conn_id, passable)
    grid = workspace.grid
    prev_layer: Optional[int] = None
    for u, v, layer_index, anchor in edges:
        pieces = None
        attempts = [(layer_index, anchor)]
        # Fallbacks: same layer anchored at either end, then any layer.
        attempts.append((layer_index, u))
        attempts.append((layer_index, v))
        for other_index in range(workspace.n_layers):
            if other_index != layer_index:
                attempts.append((other_index, u))
                attempts.append((other_index, v))
        for try_layer, try_anchor in attempts:
            layer = workspace.layers[try_layer]
            box = grid.via_strip(
                try_anchor, radius, _strip_axis(layer.orientation)
            )
            pieces = trace(
                layer,
                grid.via_to_grid(u),
                grid.via_to_grid(v),
                box,
                passable,
                max_gaps,
                stats,
                budget,
            )
            if pieces is not None:
                layer_index = try_layer
                break
        if pieces is None:
            builder.abort()
            return None
        if (
            prev_layer is not None
            and layer_index != prev_layer
            and u != conn.a
            and u != conn.b
        ):
            builder.drill(u)
        builder.add_link(
            layer_index, grid.via_to_grid(u), grid.via_to_grid(v), pieces
        )
        prev_layer = layer_index
    return builder.commit()
