"""Goal-oriented search: classic-vs-goal expansions and wall time.

Routes Table 1 boards twice per round at ``workers=1`` — once with
``search="classic"`` (the paper's multiplicative wavefront heuristic)
and once with ``search="goal"`` (A* over the reusable lower bounds of
:mod:`repro.core.bounds`) — and records the Lee-expansion and
wall-time ratios.  The two modes legitimately produce different (both
valid) routes, so the contract between them is *completion*: goal mode
must route at least as many connections as classic on the gate board.

Parity *within* goal mode is asserted unconditionally: workers 1 vs 4
(forced pool) must give an identical routed set and completion, the
parallel-router criterion for complete runs.

A warm-bounds ECO leg reroutes an edited session and checks the
:class:`repro.core.bounds.LowerBoundCache` carries across the edit: a
no-op reroute takes the fast path (zero lookups) and a one-net edit
rebuilds strictly fewer entries than the cold route did.

Timing discipline: ABBA rounds, best-of-N per leg, cyclic GC disabled
around the measured region.
CI's gates fail the run when, on the gate board, goal mode routes
fewer connections than classic, expands more than
``--gate-expansions`` times classic's Lee expansions, or takes more
than ``--gate-wall`` times classic's wall time.

Results land in ``BENCH_goal.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_goal.py --smoke \
        --gate-expansions 0.75 --gate-wall 0.85
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:
    import repro  # noqa: F401 - probe whether src/ is importable
except ImportError:  # direct script run without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

try:
    from benchmarks.ci_summary import append_table, gate_mark
except ImportError:  # run as a script: benchmarks/ is sys.path[0]
    from ci_summary import append_table, gate_mark

from repro.api import RouteRequest, begin_eco, route
from repro.channels.workspace import RoutingWorkspace
from repro.core.router import RouterConfig, make_router
from repro.stringer import Stringer
from repro.workloads import make_titan_board

#: Scale of the comparison suite (matches bench_table1.py); the seed is
#: pinned because completion deltas between the modes vary by a few
#: connections across stringer seeds — the gate criterion is defined at
#: this exact workload.
SUITE_SCALE = 0.30
SUITE_SEED = 1

#: Boards of the smoke configuration: the gate board only — the smaller
#: Table 1 boards route mostly via the optimal strategies and carry too
#: little Lee load to measure the search against.
SMOKE_BOARDS = ("kdj11_2l",)
FULL_BOARDS = ("dpath", "coproc", "kdj11_2l")

#: The ECO leg uses a scale at which the board routes to completion, so
#: the no-op reroute can prove the zero-lookup fast path.
ECO_SCALE = 0.25
ECO_SEED = 3

#: Timing legs take the best of this many interleaved classic/goal
#: rounds — routing is deterministic, only runner noise varies.
TIMING_REPEATS = 5


def _route_once(
    name: str, search: str, workers: int = 1
) -> Tuple[float, Dict]:
    """Route one fresh board; returns (seconds, fingerprint)."""
    board = make_titan_board(name, scale=SUITE_SCALE, seed=SUITE_SEED)
    connections = Stringer(board).string_all()
    workspace = RoutingWorkspace(board)
    config = RouterConfig(search=search, workers=workers)
    if workers > 1:
        config = RouterConfig(
            search=search, workers=workers, pool_auto_serial=False
        )
    router = make_router(board, config, workspace=workspace)
    gc.collect()
    gc.disable()
    started = time.perf_counter()
    result = router.route(connections)
    elapsed = time.perf_counter() - started
    gc.enable()
    fingerprint = {
        "connections": len(connections),
        "routed": len(result.routed_by),
        "complete": result.complete,
        "routed_by": {
            str(k): v.value for k, v in sorted(result.routed_by.items())
        },
        "lee_expansions": result.lee_expansions,
        "state_digest": workspace.state_digest(),
    }
    return elapsed, fingerprint


def _compare_board(name: str) -> Dict:
    """Best-of-N ABBA classic-vs-goal comparison on one board."""
    classic_s = goal_s = None
    classic_fp = goal_fp = None
    for round_index in range(TIMING_REPEATS):
        legs = (
            ("classic", "goal")
            if round_index % 2 == 0
            else ("goal", "classic")
        )
        for search in legs:
            seconds, fingerprint = _route_once(name, search)
            if search == "classic":
                classic_fp = fingerprint
                classic_s = (
                    seconds if classic_s is None else min(classic_s, seconds)
                )
            else:
                goal_fp = fingerprint
                goal_s = seconds if goal_s is None else min(goal_s, seconds)
    row = {
        "board": name,
        "connections": classic_fp["connections"],
        "classic_routed": classic_fp["routed"],
        "goal_routed": goal_fp["routed"],
        "classic_expansions": classic_fp["lee_expansions"],
        "goal_expansions": goal_fp["lee_expansions"],
        "expansion_ratio": (
            round(goal_fp["lee_expansions"] / classic_fp["lee_expansions"], 3)
            if classic_fp["lee_expansions"]
            else None
        ),
        "classic_seconds": round(classic_s, 3),
        "goal_seconds": round(goal_s, 3),
        "wall_ratio": round(goal_s / classic_s, 3) if classic_s > 0 else None,
    }
    print(
        f"{row['board']:8s} conns={row['connections']:5d} "
        f"routed {row['classic_routed']}->{row['goal_routed']} "
        f"expansions {row['classic_expansions']}->{row['goal_expansions']} "
        f"(x{row['expansion_ratio']}) wall x{row['wall_ratio']}",
        flush=True,
    )
    return row


def _goal_parity(name: str) -> Dict:
    """Worker parity within goal mode on one board."""
    _, py_fp = _route_once(name, "goal")
    _, par_fp = _route_once(name, "goal", workers=4)
    worker_parity = (
        set(par_fp["routed_by"]) == set(py_fp["routed_by"])
        and par_fp["complete"] == py_fp["complete"]
    )
    if not worker_parity:
        print(
            f"  goal worker mismatch: serial routed {py_fp['routed']} "
            f"complete={py_fp['complete']}, workers=4 routed "
            f"{par_fp['routed']} complete={par_fp['complete']}",
            flush=True,
        )
    return {
        "board": name,
        "worker_parity": worker_parity,
    }


def _eco_warm_bounds() -> Dict:
    """Warm lower-bound reuse across an EcoSession edit boundary."""
    board = make_titan_board("kdj11_2l", scale=ECO_SCALE, seed=ECO_SEED)
    connections = Stringer(board).string_all()
    request = RouteRequest(
        board=board,
        connections=connections,
        config=RouterConfig(search="goal"),
    )
    response = route(request)
    session = begin_eco(request, response)
    cold_hits, cold_rebuilds = session.workspace.bounds_stats()

    session.reroute()  # no edits: must take the zero-lookup fast path
    noop_hits, noop_rebuilds = session.workspace.bounds_stats()

    # Edit a net the cold route needed the Lee search for — cutting a
    # zero/one-via net would reroute without ever consulting the bounds
    # and prove nothing about warm reuse.
    from repro.core.result import Strategy

    lee_conns = {
        conn_id
        for conn_id, strategy in response.result.routed_by.items()
        if strategy is Strategy.LEE
    }
    net_by_conn = {c.conn_id: c.net_id for c in connections}
    net_id = next(
        net_by_conn[conn_id]
        for conn_id in sorted(lee_conns)
        if conn_id in net_by_conn
    )
    net = next(n for n in session.board.nets if n.net_id == net_id)
    pins = list(net.pin_ids)
    session.cut_nets([net.net_id])
    session.add_nets([pins])
    session.reroute()
    warm_hits, warm_rebuilds = session.workspace.bounds_stats()

    row = {
        "complete_cold": response.result.complete,
        "cold_rebuilds": cold_rebuilds,
        "noop_lookups": (noop_hits - cold_hits)
        + (noop_rebuilds - cold_rebuilds),
        "edit_rebuilds": warm_rebuilds - noop_rebuilds,
        "edit_hits": warm_hits - noop_hits,
    }
    # Warm reuse holds when the untouched board pays zero lookups, the
    # edited reroute actually consulted the cache, and it rebuilt
    # strictly fewer entries than the cold route — the edit's rip-up
    # only staled the bands it touched.
    row["warm_reuse"] = (
        bool(row["complete_cold"])
        and row["noop_lookups"] == 0
        and row["edit_rebuilds"] + row["edit_hits"] > 0
        and row["edit_rebuilds"] < row["cold_rebuilds"]
    )
    print(
        f"eco      cold_rebuilds={row['cold_rebuilds']} "
        f"noop_lookups={row['noop_lookups']} "
        f"edit_rebuilds={row['edit_rebuilds']} "
        f"warm_reuse={row['warm_reuse']}",
        flush=True,
    )
    return row


def run_benchmark(smoke: bool = False) -> Dict:
    """The whole benchmark; returns the JSON-ready report dict."""
    boards = SMOKE_BOARDS if smoke else FULL_BOARDS
    rows = [_compare_board(name) for name in boards]
    parity = _goal_parity("kdj11_2l")
    eco = _eco_warm_bounds()
    return {
        "experiment": "goal",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "suite_scale": SUITE_SCALE,
        "suite_seed": SUITE_SEED,
        "timing_repeats": TIMING_REPEATS,
        "boards": rows,
        "parity": parity,
        "eco": eco,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"route only the smoke boards {SMOKE_BOARDS}",
    )
    parser.add_argument(
        "--out",
        default="BENCH_goal.json",
        help="artifact path (default: BENCH_goal.json)",
    )
    parser.add_argument(
        "--gate-expansions",
        type=float,
        default=None,
        metavar="R",
        help="fail unless goal Lee expansions <= R * classic on the "
        "gate board",
    )
    parser.add_argument(
        "--gate-wall",
        type=float,
        default=None,
        metavar="R",
        help="fail unless goal wall <= R * classic wall on the gate "
        "board (best-of-N interleaved, so runner noise is damped)",
    )
    parser.add_argument(
        "--gate-board",
        default="kdj11_2l",
        metavar="BOARD",
        help="board the ratio gates apply to (default: kdj11_2l)",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    failures: List[str] = []
    parity = report["parity"]
    if not parity["worker_parity"]:
        failures.append("goal-mode workers 1-vs-4 parity broken")
    if not report["eco"]["warm_reuse"]:
        failures.append(
            "ECO warm-bound reuse broken "
            f"(noop_lookups={report['eco']['noop_lookups']}, "
            f"edit_rebuilds={report['eco']['edit_rebuilds']}, "
            f"cold_rebuilds={report['eco']['cold_rebuilds']})"
        )
    board_ok = {row["board"]: True for row in report["boards"]}
    gated = [r for r in report["boards"] if r["board"] == args.gate_board]
    if args.gate_expansions is not None or args.gate_wall is not None:
        if not gated:
            failures.append(f"gate board {args.gate_board} was not routed")
    if gated:
        row = gated[0]
        if row["goal_routed"] < row["classic_routed"]:
            board_ok[args.gate_board] = False
            failures.append(
                f"{args.gate_board} goal completion regressed: "
                f"{row['goal_routed']} < {row['classic_routed']}"
            )
        if (
            args.gate_expansions is not None
            and (
                row["expansion_ratio"] is None
                or row["expansion_ratio"] > args.gate_expansions
            )
        ):
            board_ok[args.gate_board] = False
            failures.append(
                f"{args.gate_board} goal/classic expansion ratio "
                f"{row['expansion_ratio']} > {args.gate_expansions}"
            )
        if args.gate_wall is not None and (
            row["wall_ratio"] is None or row["wall_ratio"] > args.gate_wall
        ):
            board_ok[args.gate_board] = False
            failures.append(
                f"{args.gate_board} goal/classic wall ratio "
                f"{row['wall_ratio']} > {args.gate_wall}"
            )
    append_table(
        "Goal-oriented search (bench_goal)",
        (
            "board",
            "routed (classic→goal)",
            "expansions",
            "wall",
            "gate",
            "status",
        ),
        (
            (
                row["board"],
                f"{row['classic_routed']}→{row['goal_routed']}",
                f"x{row['expansion_ratio']}",
                f"x{row['wall_ratio']}",
                (
                    f"exp <= {args.gate_expansions}, "
                    f"wall <= {args.gate_wall}"
                    if row["board"] == args.gate_board
                    else "—"
                ),
                gate_mark(board_ok[row["board"]]),
            )
            for row in report["boards"]
        ),
        note=(
            f"goal parity: workers={parity['worker_parity']}; "
            f"ECO warm reuse: "
            f"cold_rebuilds={report['eco']['cold_rebuilds']}, "
            f"noop_lookups={report['eco']['noop_lookups']}, "
            f"edit_rebuilds={report['eco']['edit_rebuilds']}"
        ),
    )
    summary_line = (
        f"wrote {args.out}: "
        + ", ".join(
            f"{r['board']} exp x{r['expansion_ratio']} "
            f"wall x{r['wall_ratio']}"
            for r in report["boards"]
        )
    )
    print(summary_line)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
