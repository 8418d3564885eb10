"""End-to-end and per-layer metrics from a run's batches.

Metric names and units are declared in ``BENCHMARK.json``; this module
computes a value under each name.  End-to-end metrics come from
untraced batches; per-layer metrics from traced ones.  Per-layer values are computed per batch and reported as
the median over the run's traced batches; latency percentiles pool
every traced sample.  ``README.md`` names the source of each metric.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Optional, Sequence

from tracing import LayerStats, attribute, overhead

#: Where each layer does most of its work: (workload, metric prefix,
#: witness metric).  A zero witness there means the layer was not
#: exercised, and its metrics are reported as not measured.
HOME = (
    ("congested", "ripup.", "ripup.rounds"),
    ("congested", "lee.", "lee.searches"),
    ("congested", "single_layer.vias", "single_layer.vias_calls"),
    ("local_bulk", "parallel.", "parallel.waves"),
    ("local_bulk", "stringer.", "stringer.connections"),
    ("local_bulk", "optimal.", "optimal.zero_via_calls"),
    ("local_bulk", "single_layer.trace", "single_layer.trace_calls"),
    ("local_bulk", "channels.", "channels.gap_hits"),
    ("local_bulk", "verify.", "verify.connectivity_s"),
    ("eco_edit", "bounds.", "bounds.lookups"),
    ("eco_edit", "eco.", "eco.reroute_s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(batches, setup_times: Sequence[float]) -> Dict[str, float]:
    flows = [b.flow_s for b in batches]
    return {
        "flow_s": statistics.median(flows),
        "conns_per_s": statistics.median(
            b.routed_by_calls / b.flow_s for b in batches
        ),
        "completion": _ratio(
            sum(b.routed for b in batches), sum(b.requested for b in batches)
        ),
        "vias_per_conn": _ratio(
            sum(b.vias for b in batches), sum(b.wired for b in batches)
        ),
        "wire_per_conn": _ratio(
            sum(b.wire for b in batches), sum(b.wired for b in batches)
        ),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_values(batch, stats: LayerStats) -> Dict[str, float]:
    """Per-layer values of one traced batch (before medians)."""
    raw = batch.raw
    zero_calls = raw["zero_via_calls"]
    lee_calls = raw["lee_calls"]
    lookups = raw["lb_hits"] + raw["lb_rebuilds"]
    victims = raw["displaced"] + raw["putbacks"]
    gap_lookups = raw["gap_cache_hits"] + raw["gap_cache_misses"]
    # Each attempt runs zero-via, then one-via when that fails, then Lee
    # when both fail; a cap retry adds a Lee call without an attempt.
    optimal_routed = zero_calls - (lee_calls - raw["cap_retries"])
    return {
        "io.load_s": stats.self_of("io.load"),
        "io.save_s": stats.total_of("io.save"),
        "io.save_bytes": raw["save_bytes"],
        "stringer.s": stats.total_of("stringer"),
        "stringer.connections": raw["connections"],
        "router.s": stats.total_of("core.router"),
        "router.self_s": stats.self_of("core.router"),
        "router.passes": raw["passes"],
        "optimal.zero_via_calls": zero_calls,
        "optimal.one_via_calls": raw["one_via_calls"],
        "optimal.hit_ratio": _ratio(optimal_routed, zero_calls),
        "optimal.s": raw["zero_via_s"] + raw["one_via_s"],
        "lee.searches": lee_calls,
        "lee.routed_ratio": _ratio(
            batch.outcomes["lee.ok"], stats.calls["lee"]
        ),
        "lee.expansions": raw["lee_expansions"],
        "lee.self_s": stats.self_of("lee"),
        "lee.cap_retries": raw["cap_retries"],
        "single_layer.vias_calls": stats.calls["single_layer.vias"],
        "single_layer.vias_s": stats.total_of("single_layer.vias"),
        "single_layer.trace_calls": stats.calls["single_layer.trace"],
        "single_layer.trace_s": stats.total_of("single_layer.trace"),
        "channels.gap_hits": raw["gap_cache_hits"],
        "channels.gap_misses": raw["gap_cache_misses"],
        "channels.gap_bypassed": raw["gap_cache_bypassed"],
        "channels.gap_hit_ratio": _ratio(raw["gap_cache_hits"], gap_lookups),
        "bounds.lookups": lookups,
        "bounds.hit_ratio": _ratio(raw["lb_hits"], lookups),
        "bounds.prunes": raw["lb_prunes"],
        "bounds.s": stats.total_of("bounds"),
        "ripup.rounds": raw["ripup_calls"],
        "ripup.victims": victims,
        "ripup.displaced": raw["displaced"],
        "ripup.putback_ratio": _ratio(raw["putbacks"], victims),
        "ripup.s": stats.total_of("ripup"),
        "parallel.waves": raw["waves"],
        "parallel.pool_spawn_s": raw["pool_spawn_s"],
        "parallel.wave_s": raw["wave_s"],
        "parallel.merge_s": raw["merge_s"],
        "parallel.delta_sync_s": raw["delta_sync_s"],
        "parallel.residue_s": raw["residue_s"],
        "parallel.steals": raw["worker_steals"],
        "verify.connectivity_s": stats.total_of("verify.connectivity"),
        "verify.drc_s": stats.total_of("verify.drc"),
        "eco.mutate_s": stats.total_of("eco.mutate"),
        "eco.reroute_s": stats.total_of("eco.reroute"),
        "eco.invalidated": raw["eco_invalidated"],
        "eco.cascades": raw["cascades"],
        "eco.refused": raw["refused"],
    }


def per_layer(workload: str, batches, tracer) -> Dict[str, Optional[float]]:
    """Median per-layer values over traced batches, plus pooled
    percentiles and the tracing overhead; None marks not measured."""
    traced = [b for b in batches if b.traced]
    untraced = [b for b in batches if not b.traced]
    per_batch = []
    lee_ms: List[float] = []
    for batch in traced:
        stats = LayerStats(tracer.rows(*batch.span_range))
        per_batch.append(layer_values(batch, stats))
        lee_ms += [d * 1000.0 for d in stats.durations.get("lee", [])]
    values: Dict[str, Optional[float]] = {
        name: statistics.median(v[name] for v in per_batch)
        for name in per_batch[0]
    }
    rewire = [ms for b in traced for ms in b.rewire_ms]
    move = [ms for b in traced for ms in b.move_ms]
    values.update(
        {
            "lee.search_p50_ms": percentile(lee_ms, 50),
            "lee.search_p99_ms": percentile(lee_ms, 99),
            "eco.rewire_p50_ms": percentile(rewire, 50),
            "eco.rewire_p90_ms": percentile(rewire, 90),
            "eco.move_p50_ms": percentile(move, 50),
            "eco.move_p90_ms": percentile(move, 90),
            "trace.overhead_ratio": overhead(
                [b.flow_s for b in traced], [b.flow_s for b in untraced]
            ),
            "trace.spans": statistics.median(
                b.span_range[1] - b.span_range[0] for b in traced
            ),
        }
    )
    for home, prefix, witness in HOME:
        if home == workload and not values[witness]:
            for name in values:
                if name.startswith(prefix):
                    values[name] = None
    return values


def route_attribution(batches, tracer) -> Dict[str, float]:
    """Share of traced ``route()`` wall time per layer (main process)."""
    shares: Dict[str, float] = {}
    for batch in batches:
        if batch.traced:
            rows = tracer.rows(*batch.span_range)
            for name, seconds in attribute(rows, "core.router").items():
                shares[name] = shares.get(name, 0.0) + seconds
    total = sum(shares.values())
    return {
        name: seconds / total
        for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1])
    }


def sample_counts(batches) -> Dict[str, int]:
    """Edit latency samples behind the percentiles (traced batches)."""
    traced = [b for b in batches if b.traced]
    return {
        "rewire": sum(len(b.rewire_ms) for b in traced),
        "move": sum(len(b.move_ms) for b in traced),
        "lee": sum(b.raw["lee_calls"] for b in traced),
    }
