"""Generation-stamped full-span free-gap views shared across searches.

Section 7's three single-layer searches (*Trace*, *Vias*, *Obstructions*)
all walk the same derived view — per-channel lists of maximal free gaps —
and the Lee loop issues hundreds of such searches between consecutive
board mutations.  The scalar kernel (:mod:`repro.core.single_layer`)
walks each channel's *whole-length* gap arrays and clamps extents to its
search box on the fly, so one view per channel and passable set serves
every box, and this cache stores exactly that: one ``(gaps, los, his)``
view per ``(channel, passable)``, built on first use.

* The **base** view ignores ``passable``.  A passable set that owns no
  segment in the channel sees the same gaps, so its slot stores an
  *alias* of the base view: one base build serves every connection that
  merely passes through (the common case, since a connection's own
  segments and pins live in a handful of channels), and later reads of
  that passable set skip the owner probe.
* A passable set that does own segments in the channel gets its own
  view.  At most :data:`MAX_FULL_VARIANTS` are kept per channel.

Every entry is stamped with the channel's ``generation``, a counter that
``Channel.add``/``remove`` bump.  A read that finds a stale stamp clears
that channel's entry in place and rebuilds.  All workspace mutations go
through add/remove, so no explicit invalidation exists and a stale read
is structurally impossible.  The hypothesis suite and the
:class:`~repro.obs.audit.WorkspaceAuditor` (run under ``GRR_AUDIT=1``)
both check this.

No channel or layer bypasses the store.  A full-span view dies only on
a mutation of its own channel, never because a search asks for another
box, and building it costs the recompute an uncached search would do
anyway, so it pays at every channel size and mutation rate.

Snapshots (:meth:`RoutingWorkspace.snapshot`, used by parallel wave
workers) carry the generations with the channels but *reset* the cache:
entries are cheap to rebuild, and shipping them to spawn-based workers
would be pure pickling overhead.  Forked workers inherit the parent's
warm cache copy-on-write, which stays coherent because the generations
travel with the channels.  For the same reason pool workers keep their
warm entries across :meth:`RoutingWorkspace.apply_delta`: a delta bumps
exactly the generations of the channels it touches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.layer_data import LayerData

#: One full-span view: (gap list, their lo bounds, their hi bounds).
FullView = Tuple[List[Tuple[int, int]], List[int], List[int]]

#: Passable-specific views kept per channel; exceeding it clears the
#: channel's passable store.  Searches for one connection share a single
#: passable set, so a handful covers the working set.
MAX_FULL_VARIANTS = 8

#: Entry slots: [generation, base view (None until built), passable store].
_GEN, _BASE, _PASS = range(3)


def _view(gaps: List[Tuple[int, int]]) -> FullView:
    return (gaps, [g[0] for g in gaps], [g[1] for g in gaps])


class GapCache:
    """Memoized ``(channel, passable) -> full-span view`` for one layer.

    One instance lives on each :class:`~repro.channels.layer_data.
    LayerData` and persists across searches.  ``hits``/``misses`` count
    view reads served without / with a fresh ``free_gaps`` recompute;
    ``enabled=False`` recomputes on every read (the uncached baseline).
    """

    __slots__ = ("layer", "enabled", "hits", "misses", "_entries")

    def __init__(self, layer: "LayerData", enabled: bool = True) -> None:
        self.layer = layer
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: channel_index -> entry list (see the slot constants above).
        self._entries: Dict[int, list] = {}

    def full_bounds(
        self, channel_index: int, passable: FrozenSet[int]
    ) -> FullView:
        """Full-span ``(gaps, los, his)`` view of one channel.

        ``gaps`` equals ``channel.free_gaps(0, channel_length - 1,
        passable)`` always.  Returned lists are shared — treat them as
        immutable.
        """
        channel = self.layer.channels[channel_index]
        if not self.enabled:
            self.misses += 1
            return _view(
                channel.free_gaps(0, self.layer.channel_length - 1, passable)
            )
        generation = channel.generation
        entry = self._entries.get(channel_index)
        if entry is None:
            entry = [generation, None, {}]
            self._entries[channel_index] = entry
        elif entry[_GEN] != generation:
            # Clear the stale entry in place: cheaper than allocating a
            # new one on every mutation of a hot channel.
            entry[_GEN] = generation
            entry[_BASE] = None
            if entry[_PASS]:
                entry[_PASS].clear()
        if not passable:
            return self._base(entry, channel)
        store = entry[_PASS]
        full = store.get(passable)
        if full is not None:
            self.hits += 1
            return full
        if len(store) >= MAX_FULL_VARIANTS:
            store.clear()
        if channel.has_any_owner(passable):
            self.misses += 1
            full = _view(
                channel.free_gaps(0, self.layer.channel_length - 1, passable)
            )
        else:
            # Owning nothing here, the passable set sees the base view:
            # store an alias, so later reads skip the owner probe.  The
            # stamp check above clears base and alias together.
            full = self._base(entry, channel)
        store[passable] = full
        return full

    def _base(self, entry: list, channel) -> FullView:
        """The entry's passable-blind view, built on first use."""
        full = entry[_BASE]
        if full is None:
            self.misses += 1
            full = entry[_BASE] = _view(
                channel.free_gaps(0, self.layer.channel_length - 1)
            )
        else:
            self.hits += 1
        return full

    # ------------------------------------------------------------------
    # pickling: snapshots carry generations, not cache entries
    # ------------------------------------------------------------------

    def __getstate__(self):
        return (self.layer, self.enabled)

    def __setstate__(self, state) -> None:
        self.layer, self.enabled = state
        self.hits = 0
        self.misses = 0
        self._entries = {}
