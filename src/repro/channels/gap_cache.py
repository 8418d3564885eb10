"""Generation-stamped free-gap cache shared across searches.

Section 7's three single-layer searches (*Trace*, *Vias*, *Obstructions*)
all walk the same derived view — per-channel lists of maximal free gaps —
and the Lee loop issues hundreds of such probes between consecutive board
mutations.  Recomputing every channel's gap list per search (what the
per-search ``_FreeSpace`` memo used to do) therefore repeats identical
work hundreds of times.

The cache memoizes, per channel:

* a **base** full-span gap list (``passable`` ignored).  A probe whose
  passable set is disjoint from the owners present in the channel gets
  the *same* gap list a passable-aware recompute would produce (an O(1)
  owner-count probe on the channel decides this), so one base entry
  serves every connection — the common case, since a connection's own
  segments and pins live in a handful of channels;
* **passable-specific** full-span lists for the channels that do contain
  a passable owner's segments; and
* the **box-clipped** lists derived from either — a bisect-bounded slice
  with the two end gaps clamped, O(log gaps + answer) instead of an
  O(overlap) segment walk.

Full-span views are built lazily, on the *second* distinct box probed
per generation: the first probe after a mutation is served by a direct
box-limited recompute (exactly what an uncached router would do) and
only repeat traffic pays for — and then amortizes — the full-span
build.  Channels probed once between mutations therefore cost the same
as with no cache at all, while the hot channels of a Lee search get the
full memoized treatment.

Every entry is stamped with the channel's ``generation`` (a monotonic
counter bumped by ``Channel.add``/``remove``); a lookup that finds a
stale stamp discards that channel's entries and recomputes.  Because all
workspace mutations funnel through add/remove, explicit invalidation
calls are unnecessary and a stale read is structurally impossible — the
property the hypothesis suite and the :class:`~repro.obs.audit.
WorkspaceAuditor` (run under ``GRR_AUDIT=1``) both verify.

Snapshots (:meth:`RoutingWorkspace.snapshot`, used by parallel wave
workers) carry the generations with the channels but *reset* the cache:
entries are cheap to rebuild and shipping them to spawn-based workers
would be pure pickling overhead.  Forked workers inherit the parent's
warm cache copy-on-write, which stays coherent for the same reason the
parent's does — the generations travel with the channels.  The same
generation stamping is what lets pool workers keep their warm entries
across :meth:`RoutingWorkspace.apply_delta`: a delta bumps exactly the
generations of the channels it touches, so untouched channels keep
serving cached lists while touched ones recompute on first probe.

**Small channels are not memoized.**  Most channels on small boards hold
only a handful of segments, and recomputing their gap list directly from
the segment arrays is cheaper than the memo-key build, store lookups and
entry bookkeeping — especially under active routing, where every
mutation bumps the generation and throws the entry away anyway.  Probes
of channels at or below :data:`SMALL_CHANNEL_SEGMENTS` segments
therefore bypass the memo entirely (counted in ``bypassed``, neither a
hit nor a miss, so the hit *rate* keeps describing the memoized
traffic).  The threshold is an instance knob (``bypass_threshold``) so
ablation runs and unit tests can force either path.

**The cache also judges itself.**  The bypass threshold protects small
channels, but some boards defeat the memo at *any* channel size: when
routing mutates a channel between almost every pair of probes, entries
die before they earn a hit and every probe pays the miss-path
bookkeeping on top of the recompute it would have done anyway.  Channel
size cannot see this — it is a property of the probe/mutation rhythm,
not of the board — so each layer's cache starts on **probation**: for
its first :data:`ADAPTIVE_WARMUP_PROBES` memoized probes it never
builds a full-span view, only stores the boxed recomputes it had to do
anyway (a miss costs one dict insert more than an uncached probe), and
tallies how often an identical probe repeats within a generation.  At
the end of probation the tally is the verdict: a repeat fraction below
:data:`ADAPTIVE_MIN_HIT_RATE` flips the layer to whole-layer bypass for
the rest of the run; at or above it the layer graduates to the full
memo, promotion included.  Layers whose whole run ends inside probation
simply never pay for machinery they could not have amortized.  The
decision depends only on the (deterministic) probe stream, never on
timing, so routed results are unaffected and runs stay reproducible.
Measured on the Table 1 suite this bar cleanly separates the boards:
kdj11_2l layers repeat 30-37% of probes inside probation and graduate
(71-73% exact repeats by end of run), while every small-board layer
sits at 0-11% and sheds the memo — or finishes before the verdict,
having paid almost nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.layer_data import LayerData

#: One cached full-span view: (gap list, their lo bounds, their hi bounds).
_FullEntry = Tuple[List[Tuple[int, int]], List[int], List[int]]

#: Passable-specific full-span variants kept per channel (only channels
#: actually containing a passable owner's segments need one); exceeding
#: it clears the channel's passable store.  Searches for one connection
#: share a single passable set, so a handful covers the working set.
MAX_FULL_VARIANTS = 8

#: Distinct box-clipped lists kept per channel between mutations.
MAX_CLIPPED = 64

#: Entry slots: [generation, base full-span (None until promoted),
#: base clip store, passable full-span store, passable clip store].
_GEN, _BASE, _BASE_CLIPS, _PASS_FULLS, _PASS_CLIPS = range(5)

#: ``_PASS_FULLS`` marker: this passable set was probed once this
#: generation but its full-span view has not been built yet.
_PROBED_ONCE = False

#: Channels holding at most this many segments skip memoization: a
#: direct recompute beats the memo machinery below this size (measured
#: on the Table 1 small boards, where the pre-threshold cache *lost*
#: 10-25% of wall time to entry churn).
SMALL_CHANNEL_SEGMENTS = 16

#: Memoized probes each layer's cache stays on probation (boxed-only
#: stores, no full-span promotion) before judging itself — see the
#: module docstring.  Large enough that a congested board's layers can
#: demonstrate reuse, small enough that the verdict lands while most of
#: the run is still ahead.
ADAPTIVE_WARMUP_PROBES = 256

#: Exact-repeat fraction probation must reach; below it the layer flips
#: to whole-layer bypass for the rest of the run.  Measured margins on
#: the Table 1 suite: graduating layers (kdj11_2l) sit at 0.30-0.37 by
#: the verdict, every losing layer at or below 0.11.
ADAPTIVE_MIN_HIT_RATE = 0.20

#: ``bypass_threshold`` sentinel larger than any possible segment count:
#: every probe takes the bypass path.
_BYPASS_ALL = 1 << 30

class GapCache:
    """Memoized ``(channel, box-clip, passable) -> gap list`` per layer.

    One instance lives on each :class:`~repro.channels.layer_data.
    LayerData` and persists across searches; ``_FreeSpace`` delegates its
    gap-list fills here.  ``hits``/``misses`` count gap-list requests
    served without / with a fresh ``free_gaps`` recompute — including
    the per-search view's repeat serves, which credit ``hits`` directly,
    so the counters describe every request the searches make of the
    gap-serving subsystem.  ``bypassed`` counts small-channel requests
    that skipped memoization entirely (see the module docstring); they
    are requests but neither hits nor misses, so :attr:`hit_rate` keeps
    describing how well the memo serves the traffic it accepts.
    """

    __slots__ = (
        "layer",
        "enabled",
        "bypass_threshold",
        "hits",
        "misses",
        "bypassed",
        "_entries",
        "_probe_hits",
        "_probe_total",
    )

    def __init__(self, layer: "LayerData", enabled: bool = True) -> None:
        self.layer = layer
        self.enabled = enabled
        #: Channels with at most this many segments skip memoization;
        #: 0 memoizes everything (the pre-threshold behaviour).
        self.bypass_threshold = SMALL_CHANNEL_SEGMENTS
        self.hits = 0
        self.misses = 0
        self.bypassed = 0
        #: channel_index -> entry list (see the slot constants above);
        #: also holds the full-span views :meth:`full_bounds` serves to
        #: the Trace/Vias kernel.
        self._entries: Dict[int, list] = {}
        # Store-level warmup tallies for the self-judgment (module
        # docstring); unlike ``hits``, ``_probe_hits`` excludes the
        # per-search view's repeat credits.
        self._probe_hits = 0
        self._probe_total = 0

    def gaps(
        self,
        channel_index: int,
        lo: int,
        hi: int,
        passable: FrozenSet[int],
    ) -> List[Tuple[int, int]]:
        """Free gaps of one channel clipped to ``[lo, hi]`` (memoized).

        Equal to ``channel.free_gaps(lo, hi, passable)`` always; callers
        must treat the returned list as immutable (it is shared).
        """
        channel = self.layer.channels[channel_index]
        if not self.enabled:
            self.misses += 1
            return channel.free_gaps(lo, hi, passable)
        if len(channel) <= self.bypass_threshold:
            # Small channel: a direct recompute from the segment arrays
            # beats the memo machinery (see the module docstring).
            self.bypassed += 1
            return channel.free_gaps(lo, hi, passable)
        probes = self._probe_total
        probation = probes <= ADAPTIVE_WARMUP_PROBES
        if probation:
            if (
                probes == ADAPTIVE_WARMUP_PROBES
                and self._probe_hits < ADAPTIVE_MIN_HIT_RATE * probes
            ):
                # Verdict: this layer mutates faster than probes repeat,
                # so entries die before they earn hits and the memo is a
                # pure bookkeeping tax.  Bypass everything from here on.
                self.bypass_threshold = _BYPASS_ALL
                self.bypassed += 1
                return channel.free_gaps(lo, hi, passable)
            self._probe_total = probes + 1
        generation = channel.generation
        entry = self._entries.get(channel_index)
        if entry is None:
            entry = [generation, None, {}, {}, {}]
            self._entries[channel_index] = entry
        elif entry[_GEN] != generation:
            # Reuse the stale entry in place: clearing the stores is
            # cheaper than reallocating the list and three dicts on
            # every mutation of a hot channel.
            entry[_GEN] = generation
            entry[_BASE] = None
            entry[_BASE_CLIPS].clear()
            if entry[_PASS_FULLS]:
                entry[_PASS_FULLS].clear()
            if entry[_PASS_CLIPS]:
                entry[_PASS_CLIPS].clear()
        span_hi = self.layer.channel_length - 1
        if not passable or not channel.has_any_owner(passable):
            # No passable owner has segments here: the passable-blind
            # base view is exact for this probe, so one base entry
            # serves every connection.  The memo key packs (lo, hi)
            # into one int — cheaper to hash than a tuple.
            clipped_store = entry[_BASE_CLIPS]
            key = lo * (span_hi + 1) + hi
            clipped = clipped_store.get(key)
            if clipped is not None:
                self.hits += 1
                self._probe_hits += 1
                return clipped
            full = entry[_BASE]
            if full is None:
                self.misses += 1
                if probation or (not clipped_store and key != span_hi):
                    # First box this generation: a direct box recompute
                    # is what an uncached probe would cost; promote to a
                    # full-span view only on a second distinct box —
                    # and never while on probation, whose misses must
                    # cost no more than an uncached probe.
                    gaps = channel.free_gaps(lo, hi)
                    if len(clipped_store) >= MAX_CLIPPED:
                        clipped_store.clear()
                    clipped_store[key] = gaps
                    return gaps
                gaps = channel.free_gaps(0, span_hi)
                full = (gaps, [g[0] for g in gaps], [g[1] for g in gaps])
                entry[_BASE] = full
            else:
                self.hits += 1
                self._probe_hits += 1
        else:
            full_store: Dict[FrozenSet[int], object] = entry[_PASS_FULLS]
            clipped_store = entry[_PASS_CLIPS]
            key = (lo, hi, passable)
            clipped = clipped_store.get(key)
            if clipped is not None:
                self.hits += 1
                self._probe_hits += 1
                return clipped
            full = full_store.get(passable)
            if full is None or full is _PROBED_ONCE:
                self.misses += 1
                if len(full_store) >= MAX_FULL_VARIANTS:
                    full_store.clear()
                    clipped_store.clear()
                if probation or (
                    full is None and (lo, hi) != (0, span_hi)
                ):
                    # Same promote-on-reuse rule, tracked per passable
                    # set via the _PROBED_ONCE marker; probation stays
                    # boxed-only but still leaves the marker so reuse
                    # evidence survives graduation.
                    if full is None:
                        full_store[passable] = _PROBED_ONCE
                    gaps = channel.free_gaps(lo, hi, passable)
                    if len(clipped_store) >= MAX_CLIPPED:
                        clipped_store.clear()
                    clipped_store[key] = gaps
                    return gaps
                gaps = channel.free_gaps(0, span_hi, passable)
                full = (gaps, [g[0] for g in gaps], [g[1] for g in gaps])
                full_store[passable] = full
            else:
                self.hits += 1
                self._probe_hits += 1
        clipped = self._clip(full, lo, hi)
        if len(clipped_store) >= MAX_CLIPPED:
            clipped_store.clear()
        clipped_store[key] = clipped
        return clipped

    def full_bounds(
        self, channel_index: int, passable: FrozenSet[int]
    ) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
        """Full-span ``(gaps, los, his)`` view of one channel.

        The Trace/Vias kernel (:mod:`repro.core.single_layer`) traverses
        whole-channel gap arrays and clamps extents to the search box on
        the fly, so a single full-span view per ``(channel, passable)``
        serves *every* box between mutations — no per-box clip lists on
        the hot path.  The views
        are the same full-span entries :meth:`gaps` promotes into,
        under the same generation stamping.

        Unlike :meth:`gaps` this ignores both the adaptive bypass
        verdict *and* the static small-channel cutoff: those judge
        boxed-store churn (entries keyed by box die when boxes vary, and
        clipping a small list is nearly free), while full views are
        insensitive to box variation and only die on actual mutations —
        caching them is a win at every channel size.  Only ``enabled``
        is honored.  Returned lists are shared — treat them as
        immutable.
        """
        if not self.enabled:
            self.misses += 1
            channel = self.layer.channels[channel_index]
            gaps = channel.free_gaps(
                0, self.layer.channel_length - 1, passable
            )
            return (gaps, [g[0] for g in gaps], [g[1] for g in gaps])
        channel = self.layer.channels[channel_index]
        generation = channel.generation
        entry = self._entries.get(channel_index)
        if entry is None:
            entry = [generation, None, {}, {}, {}]
            self._entries[channel_index] = entry
        elif entry[_GEN] != generation:
            entry[_GEN] = generation
            entry[_BASE] = None
            entry[_BASE_CLIPS].clear()
            if entry[_PASS_FULLS]:
                entry[_PASS_FULLS].clear()
            if entry[_PASS_CLIPS]:
                entry[_PASS_CLIPS].clear()
        if not passable:
            full = entry[_BASE]
            if full is None:
                self.misses += 1
                gaps = channel.free_gaps(0, self.layer.channel_length - 1)
                full = (gaps, [g[0] for g in gaps], [g[1] for g in gaps])
                entry[_BASE] = full
            else:
                self.hits += 1
            return full
        full_store = entry[_PASS_FULLS]
        full = full_store.get(passable)
        if full is not None and full is not _PROBED_ONCE:
            self.hits += 1
            return full
        # Miss.  When the passable set owns nothing in this channel its
        # view IS the base view; an alias stored under the passable key
        # lets every later hit skip the ``has_any_owner`` scan.  Stale
        # aliases cannot survive: the generation bump above clears the
        # base and the store together.
        if len(full_store) >= MAX_FULL_VARIANTS:
            full_store.clear()
            entry[_PASS_CLIPS].clear()
        if not channel.has_any_owner(passable):
            full = entry[_BASE]
            if full is None:
                self.misses += 1
                gaps = channel.free_gaps(0, self.layer.channel_length - 1)
                full = (gaps, [g[0] for g in gaps], [g[1] for g in gaps])
                entry[_BASE] = full
            else:
                self.hits += 1
            full_store[passable] = full
            return full
        self.misses += 1
        gaps = channel.free_gaps(
            0, self.layer.channel_length - 1, passable
        )
        full = (gaps, [g[0] for g in gaps], [g[1] for g in gaps])
        full_store[passable] = full
        return full

    @staticmethod
    def _clip(
        full: _FullEntry, lo: int, hi: int
    ) -> List[Tuple[int, int]]:
        """Intersect a full-span gap list with ``[lo, hi]``.

        Freeness is pointwise, so the maximal free intervals of the box
        are exactly the full-span intervals intersected with it.
        """
        gaps, los, his = full
        i = bisect_left(his, lo)
        j = bisect_right(los, hi)
        if i >= j:
            return []
        clipped = gaps[i:j]
        first_lo, first_hi = clipped[0]
        if first_lo < lo:
            clipped[0] = (lo, first_hi)
        last_lo, last_hi = clipped[-1]
        if last_hi > hi:
            clipped[-1] = (last_lo, hi)
        return clipped

    # ------------------------------------------------------------------
    # stats / maintenance
    # ------------------------------------------------------------------

    @property
    def requests(self) -> int:
        """Total gap-list requests served (bypassed ones included)."""
        return self.hits + self.misses + self.bypassed

    @property
    def hit_rate(self) -> float:
        """Fraction of *memoized* requests served without a recompute.

        Bypassed small-channel requests are excluded from the
        denominator: they never consult the memo, so counting them would
        make the rate describe board topology rather than cache quality.
        """
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def graduate(self) -> None:
        """End probation immediately: enable full-span promotion.

        For tests and ablation runs that want the graduated memo
        without driving :data:`ADAPTIVE_WARMUP_PROBES` probes first.
        """
        self._probe_total = ADAPTIVE_WARMUP_PROBES + 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/bypass counters (entries are kept)."""
        self.hits = 0
        self.misses = 0
        self.bypassed = 0

    # ------------------------------------------------------------------
    # pickling: snapshots carry generations, not cache entries
    # ------------------------------------------------------------------

    def __getstate__(self):
        return (self.layer, self.enabled, self.bypass_threshold)

    def __setstate__(self, state) -> None:
        self.layer, self.enabled, self.bypass_threshold = state
        self.hits = 0
        self.misses = 0
        self.bypassed = 0
        self._entries = {}
        # Warmup tallies restart with the entries; a self-bypass verdict
        # already burned into ``bypass_threshold`` travels with it (same
        # board, same probe rhythm).
        self._probe_hits = 0
        self._probe_total = 0
