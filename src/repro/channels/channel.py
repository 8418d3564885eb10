"""The production channel: disjoint used segments with fast interval probes.

The paper stores each channel as a doubly-linked segment list with a moving
head-of-list pointer, exploiting the locality of probes while routing one
connection.  In Python the equivalent engineering choice is a sorted array
probed with C-implemented ``bisect`` — same disjoint-segment model, same
O(overlap) enumeration, without interpreter-speed pointer chasing.  The
paper's two historical structures (moving-head list and binary tree) are
implemented verbatim in :mod:`repro.channels.alternatives` and compared in
``benchmarks/bench_channel_structure.py`` (experiment E7).

Invariants (checked by tests and hypothesis properties):

* segments are disjoint — every grid cell has at most one owner;
* segments are sorted by ``lo``;
* ``add`` never merges: each inserted piece stays an individual segment so
  that removal by exact bounds is always possible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.channels.segment import Segment

NO_PASSABLE: FrozenSet[int] = frozenset()


class ChannelConflictError(ValueError):
    """An added segment overlaps a segment with a different owner."""


class Channel:
    """Used segments along one grid line, sorted and disjoint."""

    __slots__ = (
        "_los",
        "_his",
        "_owners",
        "_owner_counts",
        "generation",
    )

    def __init__(self) -> None:
        self._los: List[int] = []
        self._his: List[int] = []
        self._owners: List[int] = []
        #: owner -> live segment count, maintained by add/remove so
        #: owner-presence probes (the gap cache's base/passable routing
        #: decision) cost O(1) per owner instead of a segment scan.
        self._owner_counts: dict = {}
        #: Monotonic mutation counter: bumped by every :meth:`add` that
        #: inserts at least one piece and every successful :meth:`remove`.
        #: :class:`repro.channels.gap_cache.GapCache` stamps its memoized
        #: gap lists with this value, so a stale read is impossible as
        #: long as all mutations go through add/remove (they do: every
        #: workspace mutation funnels into these two methods).
        self.generation: int = 0

    def __len__(self) -> int:
        return len(self._los)

    def __iter__(self) -> Iterator[Segment]:
        for lo, hi, owner in zip(self._los, self._his, self._owners):
            yield Segment(lo, hi, owner)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    def _first_overlap_index(self, lo: int) -> int:
        """Index of the first segment whose ``hi`` >= ``lo``.

        Because segments are disjoint and sorted, ``_his`` is sorted too,
        so a bisect on either array finds the scan start in O(log n).
        """
        return bisect_left(self._his, lo)

    def overlapping(self, lo: int, hi: int) -> Iterator[Segment]:
        """Segments sharing at least one cell with ``[lo, hi]``, in order."""
        i = self._first_overlap_index(lo)
        while i < len(self._los) and self._los[i] <= hi:
            yield Segment(self._los[i], self._his[i], self._owners[i])
            i += 1

    def owner_at(self, x: int) -> Optional[int]:
        """Owner of the segment covering cell ``x``, or None if free."""
        i = self._first_overlap_index(x)
        if i < len(self._los) and self._los[i] <= x:
            return self._owners[i]
        return None

    def is_free(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> bool:
        """True if no cell in ``[lo, hi]`` is used by a non-passable owner."""
        for seg in self.overlapping(lo, hi):
            if seg.owner not in passable:
                return False
        return True

    def free_gaps(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> List[Tuple[int, int]]:
        """Maximal sub-intervals of ``[lo, hi]`` free of non-passable owners.

        Passable segments count as free space, so gaps merge across them —
        this is how a connection walks over its own vias and traces.
        Works on the parallel arrays directly: this is the hottest probe
        in the router (every free-gap cache refill lands here), and the
        per-segment ``Segment`` construction of :meth:`overlapping` was
        measurable against it.
        """
        if hi < lo:
            return []
        los, his, owners = self._los, self._his, self._owners
        n = len(los)
        gaps: List[Tuple[int, int]] = []
        cursor = lo
        i = bisect_left(his, lo)
        while i < n and los[i] <= hi:
            if not passable or owners[i] not in passable:
                if los[i] > cursor:
                    gaps.append((cursor, los[i] - 1))
                # Disjoint + sorted means his[i] + 1 only ever grows.
                cursor = his[i] + 1
                if cursor > hi:
                    break
            i += 1
        if cursor <= hi:
            gaps.append((cursor, hi))
        return gaps

    def gap_at(
        self, x: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> Optional[Tuple[int, int]]:
        """Maximal free-or-passable interval containing ``x``, unclipped.

        Returns None if ``x`` is covered by a non-passable segment.  The
        interval may extend to +/- infinity; callers clip to their box, so
        the open ends are returned as None markers replaced by the caller.
        This implementation walks outward from ``x`` over the segment list.
        """
        i = self._first_overlap_index(x)
        if i < len(self._los) and self._los[i] <= x:
            if self._owners[i] not in passable:
                return None
        # Walk left from the segment before x for the nearest non-passable
        # boundary; passable segments merge into the gap.
        left = None
        k = i - 1
        while k >= 0:
            if self._owners[k] not in passable:
                left = self._his[k] + 1
                break
            k -= 1
        # Walk right.
        right = None
        k = i
        if k < len(self._los) and self._los[k] <= x:
            k += 1  # skip passable segment covering x
        while k < len(self._los):
            if self._owners[k] not in passable:
                right = self._los[k] - 1
                break
            k += 1
        lo = left if left is not None else -(1 << 60)
        hi = right if right is not None else (1 << 60)
        return (lo, hi)

    def owner_set(self) -> FrozenSet[int]:
        """All owners with at least one segment in this channel."""
        return frozenset(self._owner_counts)

    def has_any_owner(self, owners: FrozenSet[int]) -> bool:
        """True if any of ``owners`` has at least one segment here."""
        counts = self._owner_counts
        for owner in owners:
            if owner in counts:
                return True
        return False

    def owners_in(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> set:
        """Owners of non-passable segments overlapping ``[lo, hi]``."""
        return {
            seg.owner
            for seg in self.overlapping(lo, hi)
            if seg.owner not in passable
        }

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def add(
        self,
        lo: int,
        hi: int,
        owner: int,
        passable: FrozenSet[int] = NO_PASSABLE,
    ) -> List[Tuple[int, int]]:
        """Insert ``[lo, hi]`` for ``owner``; returns the pieces inserted.

        Cells already owned by ``owner`` or by a *passable* owner are
        skipped rather than conflicting: a connection may cross its own
        earlier pieces, and its traces start and end on cells occupied by
        its endpoint pins' vias.  The return value is the list of actually
        inserted sub-intervals — exactly what must later be removed.
        Overlap with any other owner raises :class:`ChannelConflictError`.
        """
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        blockers = []
        for seg in self.overlapping(lo, hi):
            if seg.owner != owner and seg.owner not in passable:
                raise ChannelConflictError(
                    f"[{lo},{hi}] owner {owner} overlaps {seg}"
                )
            blockers.append(seg)
        pieces: List[Tuple[int, int]] = []
        cursor = lo
        for seg in blockers:
            if seg.lo > cursor:
                pieces.append((cursor, min(seg.lo - 1, hi)))
            cursor = max(cursor, seg.hi + 1)
        if cursor <= hi:
            pieces.append((cursor, hi))
        for plo, phi in pieces:
            i = bisect_right(self._los, plo)
            self._los.insert(i, plo)
            self._his.insert(i, phi)
            self._owners.insert(i, owner)
        if pieces:
            counts = self._owner_counts
            counts[owner] = counts.get(owner, 0) + len(pieces)
            self.generation += 1
        return pieces

    def remove(self, lo: int, hi: int, owner: int) -> None:
        """Remove the segment with exactly these bounds and owner.

        Disjointness makes ``lo`` values unique, but the lookup scans
        forward past any equal-``lo`` candidates defensively (a broken
        invariant should surface as a diagnosable KeyError below, not as
        a silently wrong deletion).  On failure the KeyError names the
        nearest actual segment, so auditor-reported removal failures say
        what *is* there instead of a bare bounds mismatch.
        """
        i = bisect_left(self._los, lo)
        j = i
        while j < len(self._los) and self._los[j] == lo:
            if self._his[j] == hi and self._owners[j] == owner:
                del self._los[j]
                del self._his[j]
                del self._owners[j]
                counts = self._owner_counts
                remaining = counts[owner] - 1
                if remaining:
                    counts[owner] = remaining
                else:
                    del counts[owner]
                self.generation += 1
                return
            j += 1
        raise KeyError(
            f"no segment [{lo},{hi}] owned by {owner}; "
            f"nearest is {self._nearest_description(lo)}"
        )

    def _nearest_description(self, lo: int) -> str:
        """Human-readable nearest segment to ``lo`` (for remove errors)."""
        if not self._los:
            return "nothing (channel is empty)"
        i = bisect_left(self._los, lo)
        candidates = [k for k in (i - 1, i) if 0 <= k < len(self._los)]
        k = min(candidates, key=lambda k: abs(self._los[k] - lo))
        return (
            f"[{self._los[k]},{self._his[k]}] owned by {self._owners[k]}"
        )

    # ------------------------------------------------------------------
    # pickling: snapshots carry the segments and the generation
    # ------------------------------------------------------------------

    def __getstate__(self):
        return (
            self._los,
            self._his,
            self._owners,
            self._owner_counts,
            self.generation,
        )

    def __setstate__(self, state) -> None:
        (
            self._los,
            self._his,
            self._owners,
            self._owner_counts,
            self.generation,
        ) = state

    def check_invariants(self) -> None:
        """Assert sortedness and disjointness (used by property tests)."""
        for i in range(len(self._los)):
            if self._his[i] < self._los[i]:
                raise AssertionError(f"segment {i} inverted")
            if i and self._los[i] <= self._his[i - 1]:
                raise AssertionError(f"segments {i - 1},{i} overlap or unsorted")
