"""Per-layer channel array with orientation-aware coordinate mapping.

Section 4: "each layer is represented as an array of channels.  For a
vertical layer the channels are aligned vertically, so the array runs in the
horizontal dimension.  For a horizontal layer, the array runs vertically."

All single-layer algorithms work in *channel coordinates*: a grid point maps
to ``(channel_index, coord)`` where ``coord`` runs along the channel.  On a
horizontal layer the channel index is the row ``gy`` and the coordinate is
``gx``; on a vertical layer they swap.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

from repro.board.layers import Layer
from repro.channels.channel import Channel
from repro.channels.gap_cache import GapCache
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box, Orientation
from repro.grid.routing_grid import RoutingGrid

#: A path piece inside one channel: (channel_index, lo, hi).
ChannelPiece = Tuple[int, int, int]


class LayerData:
    """Channel array for one signal layer."""

    def __init__(
        self,
        layer: Layer,
        grid: RoutingGrid,
        channel_factory: Callable[[], Channel] = Channel,
    ) -> None:
        if layer.orientation is None:
            raise ValueError("LayerData requires a signal layer")
        self.layer = layer
        self.grid = grid
        self.orientation = layer.orientation
        if self.orientation is Orientation.HORIZONTAL:
            self.n_channels = grid.ny
            self.channel_length = grid.nx
        else:
            self.n_channels = grid.nx
            self.channel_length = grid.ny
        self.channels: List[Channel] = [
            channel_factory() for _ in range(self.n_channels)
        ]
        #: Generation-stamped free-gap memo shared by every search on
        #: this layer (see :mod:`repro.channels.gap_cache`).
        self.gap_cache = GapCache(self)

    # ------------------------------------------------------------------
    # coordinate mapping
    # ------------------------------------------------------------------

    def point_cc(self, point: GridPoint) -> Tuple[int, int]:
        """Grid point -> (channel index, along-channel coordinate)."""
        if self.orientation is Orientation.HORIZONTAL:
            return point.gy, point.gx
        return point.gx, point.gy

    def cc_point(self, channel_index: int, coord: int) -> GridPoint:
        """(channel index, coordinate) -> grid point."""
        if self.orientation is Orientation.HORIZONTAL:
            return GridPoint(coord, channel_index)
        return GridPoint(channel_index, coord)

    def box_cc(self, box: Box) -> Tuple[int, int, int, int]:
        """Box -> (channel_lo, channel_hi, coord_lo, coord_hi)."""
        if self.orientation is Orientation.HORIZONTAL:
            return box.y_lo, box.y_hi, box.x_lo, box.x_hi
        return box.x_lo, box.x_hi, box.y_lo, box.y_hi

    # ------------------------------------------------------------------
    # via-site geometry
    # ------------------------------------------------------------------

    def is_via_channel(self, channel_index: int) -> bool:
        """True if the channel passes through a row/column of via sites."""
        return channel_index % self.grid.grid_per_via == 0

    def via_sites_in(
        self, channel_index: int, lo: int, hi: int
    ) -> Iterator[ViaPoint]:
        """Via sites covered by ``[lo, hi]`` of the given channel.

        Pure grid arithmetic: on a via channel every ``grid_per_via``-th
        coordinate is a site, and the via cell indices are the integer
        quotients — no per-site grid-point round trip.  This runs on
        every *Vias* search gap, so the per-site cost matters.
        """
        g = self.grid.grid_per_via
        if channel_index % g:
            return
        v_channel = channel_index // g
        v_lo = (lo + g - 1) // g  # first site at or after lo
        v_hi = hi // g  # last site at or before hi
        if self.orientation is Orientation.HORIZONTAL:
            for v in range(v_lo, v_hi + 1):
                yield ViaPoint(v, v_channel)
        else:
            for v in range(v_lo, v_hi + 1):
                yield ViaPoint(v_channel, v)

    # ------------------------------------------------------------------
    # channel access
    # ------------------------------------------------------------------

    def channel(self, channel_index: int) -> Channel:
        """The channel at the given index."""
        return self.channels[channel_index]

    def owner_at(self, point: GridPoint) -> Optional[int]:
        """Owner of the segment covering ``point``, or None if free."""
        c, x = self.point_cc(point)
        return self.channels[c].owner_at(x)

    def is_point_free(
        self, point: GridPoint, passable: FrozenSet[int] = frozenset()
    ) -> bool:
        """True if ``point`` is free or covered only by passable owners."""
        owner = self.owner_at(point)
        return owner is None or owner in passable

    def used_cells(self) -> int:
        """Total grid cells covered by segments (density metric)."""
        return sum(
            seg.length for channel in self.channels for seg in channel
        )
