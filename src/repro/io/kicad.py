"""KiCad board interchange: import ``.kicad_pcb``, route, write back.

The import half turns a real KiCad board into the router's native
problem description:

* **copper layers** become the signal stack (preserving front-to-back
  order; copper layers KiCad marks as ``power`` become plane layers);
* **pads** are mapped onto the via grid.  Pads that land on a via site
  become ordinary through-hole pins of their footprint's part; off-grid
  and SMD pads are snapped through the existing
  :mod:`repro.extensions.dispersion` machinery — each gets the nearest
  usable via site plus a top-layer trace from its true position, and the
  pad→via mapping is recorded so exports land back on true coordinates;
* **nets** are extracted into :class:`~repro.board.board.Board` nets and
  strung into pin-to-pin :class:`~repro.board.nets.Connection` lists.

The export half writes routed traces and vias back into the *original*
document as ``segment``/``via`` s-expressions.  Nothing is
re-serialised: new expressions are spliced in front of the closing
paren (and expressions from an earlier export are removed first), so
every byte the router did not produce survives untouched.  Each
exported expression carries a ``uuid`` of the form ``grr-c<conn>-…`` /
``grr-p<pin>-…``; re-importing an exported board restores the routed
workspace exactly from those annotations — the round-trip CI gate
asserts ``canonical_state`` equality.

Caveats (see docs/API.md → "Board interchange"): units are millimetres
on a configurable via pitch (default 2.54 mm / 100 mil); copper not
written by grr is preserved but not imported as routing obstacles;
graphics, zones and silkscreen pass through untouched.
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.board.board import Board, PlacementError
from repro.board.nets import NetKind
from repro.board.parts import Package, PinRole
from repro.board.technology import LogicFamily, TechRules
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.extensions.dispersion import DispersionError, PadSpec, disperse_pads
from repro.grid.coords import GridPoint, ViaPoint
from repro.io.sexp import (
    Atom,
    SExpError,
    SList,
    format_expr,
    format_mm,
    parse,
    splice,
)
from repro.stringer import Stringer

MM_PER_MIL = 0.0254

#: Default routing margin kept around the outermost pads, in via pitches,
#: when the board has no Edge.Cuts outline to take the extent from.
DEFAULT_MARGIN_VIAS = 4

#: How far (in mm) a pad may sit from a routing-grid point and still be
#: considered *on* it.  Real through-hole boards are exact; the slack
#: absorbs unit-conversion noise (KiCad stores at most 6 decimals).
GRID_TOLERANCE_MM = 0.01

#: Refuse grids past this many via sites — a wrong pitch on a large
#: board would otherwise allocate gigabytes of channels.
MAX_VIA_SITES = 4_000_000

_UUID_PREFIX_CONN = "grr-c"
_UUID_PREFIX_PIN = "grr-p"

#: Net names treated as power/ground (kicad nets carry no kind of their
#: own).  Exact lower-case matches plus the usual voltage-rail spellings
#: (``+5V``, ``3V3``, ``-12V``, ``pwr2``); power nets become plane nets,
#: not routed signal traces.
_POWER_NAMES = frozenset(
    {
        "gnd", "agnd", "dgnd", "pgnd", "gnda", "gndd", "earth",
        "vcc", "vdd", "vss", "vee", "vtt", "vbat", "vbus", "vref",
    }
)
_POWER_PATTERN = re.compile(r"^(?:[+-]?\d+(?:\.\d+)?v\d*|pwr\d*)$")


def is_power_net_name(name: str) -> bool:
    """Whether a kicad net name looks like a power/ground rail."""
    lowered = name.strip().lower()
    if not lowered:
        return False
    if lowered in _POWER_NAMES:
        return True
    return bool(_POWER_PATTERN.match(lowered))


class KicadFormatError(ValueError):
    """The file is not a board this importer can handle."""


# ----------------------------------------------------------------------
# parsed geometry
# ----------------------------------------------------------------------


@dataclass
class PadRecord:
    """One footprint pad and everything the import decided about it."""

    pad_id: int  #: import order (document order)
    reference: str  #: footprint reference (``U1``)
    name: str  #: pad name/number within the footprint
    x_mm: float  #: absolute true position
    y_mm: float
    through_hole: bool
    kicad_net: int  #: 0 means unconnected
    role: PinRole = PinRole.INPUT
    pin_id: int = -1  #: board pin backing this pad (-1: not imported)
    via: Optional[ViaPoint] = None  #: grid site the router uses
    dispersed: bool = False  #: reached its via through a dispersion trace
    grid_point: Optional[GridPoint] = None  #: snapped routing-grid point
    trace_segments: List[tuple] = field(default_factory=list)


@dataclass
class KicadImport:
    """A ``.kicad_pcb`` file translated into a routable workspace.

    Holds both sides of the mapping: the native :attr:`board` /
    :attr:`connections` / :attr:`workspace` the router consumes, and the
    original :attr:`text` / :attr:`doc` plus the coordinate frame needed
    to write routes back with :func:`export_document`.
    """

    path: str
    text: str
    doc: SList
    board: Board
    workspace: RoutingWorkspace
    connections: List
    pads: List[PadRecord]
    origin_mm: Tuple[float, float]
    pitch_mm: float
    layer_names: List[str]  #: our signal layer index -> KiCad copper name
    kicad_net_names: Dict[int, str]
    kicad_net_for_net: Dict[int, int]  #: board net_id -> KiCad net id
    restored: List[int]  #: conn ids re-imported from a previous export
    foreign_copper: int  #: segments/vias present but not written by grr

    @property
    def step_mm(self) -> float:
        """Millimetres per routing-grid step."""
        return self.pitch_mm / self.board.grid.grid_per_via

    def grid_to_mm(self, point: GridPoint) -> Tuple[float, float]:
        """Routing-grid point -> absolute board coordinates."""
        ox, oy = self.origin_mm
        return ox + point.gx * self.step_mm, oy + point.gy * self.step_mm

    def mm_to_grid(self, x: float, y: float) -> GridPoint:
        """Absolute board coordinates -> nearest routing-grid point."""
        ox, oy = self.origin_mm
        return GridPoint(
            _round_half_up((x - ox) / self.step_mm),
            _round_half_up((y - oy) / self.step_mm),
        )

    def summary(self) -> Dict[str, object]:
        """The ``grr kicad inspect`` payload."""
        grid = self.board.grid
        return {
            "name": self.board.name,
            "copper_layers": list(self.layer_names),
            "power_layers": len(self.board.stack.power_layers),
            "pitch_mm": self.pitch_mm,
            "origin_mm": list(self.origin_mm),
            "via_grid": [grid.via_nx, grid.via_ny],
            "footprints": len({p.reference for p in self.pads}),
            "pads": len(self.pads),
            "on_grid_pads": sum(
                1 for p in self.pads if p.pin_id >= 0 and not p.dispersed
            ),
            "dispersed_pads": sum(1 for p in self.pads if p.dispersed),
            "nets": len(self.board.nets),
            "connections": len(self.connections),
            "restored_routes": len(self.restored),
            "foreign_copper": self.foreign_copper,
        }


def _round_half_up(value: float) -> int:
    """Deterministic nearest-integer rounding (no banker's ties)."""
    return math.floor(value + 0.5)


# ----------------------------------------------------------------------
# document scanning
# ----------------------------------------------------------------------


def _copper_layers(root: SList) -> Tuple[List[str], List[str]]:
    """(signal copper names, power copper names), front-to-back."""
    layers = root.find(
        "layers"
    )
    if layers is None:
        raise KicadFormatError("document has no (layers ...) section")
    signal: List[Tuple[int, str]] = []
    power: List[Tuple[int, str]] = []
    for entry in layers.items:
        if not isinstance(entry, SList):
            continue
        atoms = entry.atoms()
        if len(atoms) < 3:
            continue
        try:
            number = int(atoms[0])
        except ValueError:
            continue
        name, kind = atoms[1], atoms[2]
        if not name.endswith(".Cu"):
            continue
        if kind == "power":
            power.append((number, name))
        elif kind in ("signal", "mixed"):
            signal.append((number, name))
    signal.sort()
    power.sort()
    return [name for _, name in signal], [name for _, name in power]


def _footprint_reference(node: SList, fallback: str) -> str:
    for prop in node.find_all("property"):
        if prop.atom(1) == "Reference":
            value = prop.atom(2)
            if value:
                return value
    for text in node.find_all("fp_text"):
        if text.atom(1) == "reference":
            value = text.atom(2)
            if value:
                return value
    return fallback


def _number(node: SList, index: int, kind: type = float):
    """Operand ``index`` of ``node`` (``atom(index)``) as a finite number.

    Every numeric atom the importer reads goes through here, so a short
    or garbled node raises :class:`KicadFormatError`, never a bare
    ``IndexError``/``ValueError``.
    """
    value = node.atom(index)
    if value is None:
        raise KicadFormatError(f"({node.tag} ...) is missing operand {index}")
    try:
        number = kind(value)
    except ValueError:
        number = None
    if number is None or not math.isfinite(number):
        raise KicadFormatError(
            f"({node.tag} ...) operand {index} is not a number: {value!r}"
        )
    return number


def _at_values(node: SList) -> Tuple[float, float, float]:
    at = node.find("at")
    if at is None:
        raise KicadFormatError(f"{node.tag!r} has no (at ...)")
    rot = _number(at, 3) if at.atom(3) is not None else 0.0
    return _number(at, 1), _number(at, 2), rot


def _scan_pads(root: SList) -> List[PadRecord]:
    """Every connective pad, at its absolute position, in document order."""
    pads: List[PadRecord] = []
    index = 0
    for tag in ("footprint", "module"):
        for fp_no, fp in enumerate(root.find_all(tag)):
            reference = _footprint_reference(fp, f"FP{fp_no}")
            fx, fy, rot = _at_values(fp)
            angle = math.radians(rot)
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            for pad in fp.find_all("pad"):
                atoms = pad.atoms()
                if len(atoms) < 3:
                    raise KicadFormatError(
                        f"footprint {reference}: malformed pad"
                    )
                pad_name, pad_type = atoms[1], atoms[2]
                if pad_type == "np_thru_hole":
                    continue  # mechanical hole, nothing to connect
                px, py, _ = _at_values(pad)
                x = fx + px * cos_a + py * sin_a
                y = fy - px * sin_a + py * cos_a
                net_node = pad.find("net")
                kicad_net = 0
                if net_node is not None and net_node.atom(1):
                    kicad_net = _number(net_node, 1, int)
                pads.append(
                    PadRecord(
                        pad_id=index,
                        reference=reference,
                        name=pad_name,
                        x_mm=round(x, 6),
                        y_mm=round(y, 6),
                        through_hole=(pad_type == "thru_hole"),
                        kicad_net=kicad_net,
                    )
                )
                index += 1
    return pads


def _edge_bounds(root: SList) -> Optional[Tuple[float, float, float, float]]:
    """Bounding box of the Edge.Cuts outline, if the board has one."""
    xs: List[float] = []
    ys: List[float] = []
    for item in root.items:
        if not isinstance(item, SList) or not item.tag.startswith("gr_"):
            continue
        layer = item.value_of("layer")
        if layer != "Edge.Cuts":
            continue
        for child in item.items:
            if not isinstance(child, SList):
                continue
            if child.tag in ("start", "end", "center", "mid"):
                points = [child]
            elif child.tag == "pts":
                points = child.find_all("xy")
            else:
                continue
            for point in points:
                xs.append(_number(point, 1))
                ys.append(_number(point, 2))
    if not xs or not ys:
        return None
    return min(xs), min(ys), max(xs), max(ys)


def _grid_phase(values: Sequence[float], pitch: float) -> float:
    """The dominant residue of the coordinates modulo the via pitch."""
    if not values:
        return 0.0
    residues = Counter(round(v % pitch, 4) % pitch for v in values)
    best = max(residues.items(), key=lambda item: (item[1], -item[0]))
    return best[0]


# ----------------------------------------------------------------------
# import
# ----------------------------------------------------------------------


def import_board(
    text: str,
    *,
    path: str = "<kicad>",
    pitch_mm: Optional[float] = None,
    margin_vias: int = DEFAULT_MARGIN_VIAS,
    rules: Optional[TechRules] = None,
) -> KicadImport:
    """Translate ``.kicad_pcb`` text into a routable :class:`KicadImport`.

    ``pitch_mm`` sets the via grid (default: the :class:`TechRules` via
    pitch, 2.54 mm).  Boards whose fine-pitch pads would collide after
    snapping need a smaller pitch.  Raises :class:`KicadFormatError` on
    anything structurally unusable.
    """
    try:
        root = parse(text)
    except SExpError as exc:
        raise KicadFormatError(f"not an s-expression document: {exc}") from exc
    if root.tag != "kicad_pcb":
        raise KicadFormatError(
            f"top-level expression is {root.tag or '(empty)'!r}, "
            "expected kicad_pcb"
        )
    rules = rules or TechRules()
    if pitch_mm is None:
        pitch_mm = rules.via_pitch * MM_PER_MIL
    elif pitch_mm <= 0:
        raise KicadFormatError("pitch_mm must be positive")
    else:
        rules = TechRules(
            trace_width=rules.trace_width,
            trace_spacing=rules.trace_spacing,
            via_pad_diameter=min(
                rules.via_pad_diameter, pitch_mm / MM_PER_MIL * 0.6
            ),
            via_drill_diameter=min(
                rules.via_drill_diameter, pitch_mm / MM_PER_MIL * 0.37
            ),
            via_pitch=pitch_mm / MM_PER_MIL,
        )

    signal_names, power_names = _copper_layers(root)
    if len(signal_names) < 2:
        raise KicadFormatError(
            f"need at least two routable copper layers, found "
            f"{len(signal_names)}"
        )

    net_names: Dict[int, str] = {}
    for net in root.find_all("net"):
        values = net.atoms()[1:]
        if not values:
            continue
        net_id = _number(net, 1, int)
        net_names[net_id] = values[1] if len(values) > 1 else ""

    pads = _scan_pads(root)
    if not pads:
        raise KicadFormatError("board has no connective pads")

    # Coordinate frame: phase-align to the pads, extent from Edge.Cuts
    # when drawn (the true routable area), else pads plus a margin.
    phase_x = _grid_phase([p.x_mm for p in pads], pitch_mm)
    phase_y = _grid_phase([p.y_mm for p in pads], pitch_mm)
    edge = _edge_bounds(root)
    pad_min_x = min(p.x_mm for p in pads)
    pad_min_y = min(p.y_mm for p in pads)
    pad_max_x = max(p.x_mm for p in pads)
    pad_max_y = max(p.y_mm for p in pads)
    if edge is not None:
        lo_x = min(edge[0], pad_min_x)
        lo_y = min(edge[1], pad_min_y)
        hi_x = max(edge[2], pad_max_x)
        hi_y = max(edge[3], pad_max_y)
        margin = 0
    else:
        lo_x, lo_y, hi_x, hi_y = pad_min_x, pad_min_y, pad_max_x, pad_max_y
        margin = margin_vias
    ox = phase_x + pitch_mm * math.floor((lo_x - phase_x) / pitch_mm + 1e-9)
    oy = phase_y + pitch_mm * math.floor((lo_y - phase_y) / pitch_mm + 1e-9)
    ox -= margin * pitch_mm
    oy -= margin * pitch_mm
    via_nx = math.ceil((hi_x - ox) / pitch_mm - 1e-9) + 1 + margin
    via_ny = math.ceil((hi_y - oy) / pitch_mm - 1e-9) + 1 + margin
    via_nx = max(via_nx, 2)
    via_ny = max(via_ny, 2)
    if via_nx * via_ny > MAX_VIA_SITES:
        raise KicadFormatError(
            f"{via_nx}x{via_ny} via sites at pitch {pitch_mm} mm exceeds "
            f"the {MAX_VIA_SITES} site limit; pass an explicit pitch"
        )

    name = os.path.splitext(os.path.basename(path))[0]
    board = Board.create(
        via_nx=via_nx,
        via_ny=via_ny,
        n_signal_layers=len(signal_names),
        n_power_layers=len(power_names),
        rules=rules,
        name=name if name and name != "<kicad>" else "kicad",
    )
    grid = board.grid
    step = pitch_mm / grid.grid_per_via

    # Roles before placement: the first pad of each signal net drives
    # the chain; power-rail pads (by net name — kicad nets have no kind
    # of their own) become plane pins, not routed endpoints.
    power_nets = {
        net_id
        for net_id, net_name in net_names.items()
        if is_power_net_name(net_name)
    }
    first_in_net: Dict[int, int] = {}
    for pad in pads:
        if pad.kicad_net <= 0:
            continue
        if pad.kicad_net in power_nets:
            pad.role = PinRole.POWER
        elif pad.kicad_net not in first_in_net:
            first_in_net[pad.kicad_net] = pad.pad_id
            pad.role = PinRole.OUTPUT
        else:
            pad.role = PinRole.INPUT

    # Snap each pad: exact via sites become part pins, the rest disperse.
    tolerance = GRID_TOLERANCE_MM / step
    for pad in pads:
        fx = (pad.x_mm - ox) / step
        fy = (pad.y_mm - oy) / step
        gx, gy = _round_half_up(fx), _round_half_up(fy)
        gx = min(max(gx, 0), grid.nx - 1)
        gy = min(max(gy, 0), grid.ny - 1)
        pad.grid_point = GridPoint(gx, gy)
        exact = abs(fx - gx) <= tolerance and abs(fy - gy) <= tolerance
        g = grid.grid_per_via
        if exact and gx % g == 0 and gy % g == 0:
            pad.via = ViaPoint(gx // g, gy // g)
            pad.dispersed = False
        else:
            pad.via = None
            pad.dispersed = True

    by_reference: Dict[str, List[PadRecord]] = {}
    for pad in pads:
        by_reference.setdefault(pad.reference, []).append(pad)

    for reference, group in by_reference.items():
        on_grid = [p for p in group if not p.dispersed]
        if not on_grid:
            continue
        base_vx = min(p.via.vx for p in on_grid)
        base_vy = min(p.via.vy for p in on_grid)
        offsets = tuple(
            (p.via.vx - base_vx, p.via.vy - base_vy) for p in on_grid
        )
        if len(set(offsets)) != len(offsets):
            raise KicadFormatError(
                f"footprint {reference}: two pads snap to the same via "
                f"site at pitch {pitch_mm} mm; use a smaller pitch"
            )
        package = Package(f"kicad_{reference}", offsets)
        try:
            part = board.add_part(
                package,
                ViaPoint(base_vx, base_vy),
                name=reference,
                roles=[p.role for p in on_grid],
            )
        except PlacementError as exc:
            raise KicadFormatError(
                f"footprint {reference}: {exc} "
                f"(pads from two footprints share a via site at pitch "
                f"{pitch_mm} mm)"
            ) from exc
        for pad, pin in zip(on_grid, part.pins):
            pad.pin_id = pin.pin_id

    workspace = RoutingWorkspace(board)

    dispersed = [p for p in pads if p.dispersed]
    taken: Dict[GridPoint, int] = {}
    for pad in dispersed:
        other = taken.get(pad.grid_point)
        if other is not None:
            raise KicadFormatError(
                f"pads {pads[other].reference}.{pads[other].name} and "
                f"{pad.reference}.{pad.name} snap to the same routing-grid "
                f"point at pitch {pitch_mm} mm; use a smaller pitch"
            )
        taken[pad.grid_point] = pad.pad_id
    for index, pad in enumerate(dispersed):
        try:
            placed = disperse_pads(
                board,
                workspace,
                [PadSpec(position=pad.grid_point, role=pad.role)],
                part_name=f"{pad.reference}_{pad.name}",
                avoid=[p.grid_point for p in dispersed[index + 1 :]],
            )[0]
        except DispersionError as exc:
            raise KicadFormatError(
                f"pad {pad.reference}.{pad.name}: {exc}"
            ) from exc
        pad.pin_id = placed.pin.pin_id
        pad.via = placed.via
        pad.trace_segments = list(placed.segments)

    # Net extraction: KiCad nets (ascending id) over the pads' pins.
    kicad_net_for_net: Dict[int, int] = {}
    pins_by_net: Dict[int, List[int]] = {}
    for pad in pads:
        if pad.kicad_net > 0 and pad.pin_id >= 0:
            pins_by_net.setdefault(pad.kicad_net, []).append(pad.pin_id)
    for kicad_net in sorted(pins_by_net):
        members = pins_by_net[kicad_net]
        if len(members) < 2:
            continue
        net = board.add_net(
            members,
            name=net_names.get(kicad_net, f"net{kicad_net}"),
            kind=(
                NetKind.POWER
                if kicad_net in power_nets
                else NetKind.SIGNAL
            ),
            family=LogicFamily.TTL,
        )
        kicad_net_for_net[net.net_id] = kicad_net

    connections = Stringer(board).string_all()

    imported = KicadImport(
        path=path,
        text=text,
        doc=root,
        board=board,
        workspace=workspace,
        connections=connections,
        pads=pads,
        origin_mm=(ox, oy),
        pitch_mm=pitch_mm,
        layer_names=list(signal_names),
        kicad_net_names=net_names,
        kicad_net_for_net=kicad_net_for_net,
        restored=[],
        foreign_copper=0,
    )
    _restore_exported_routes(imported)
    return imported


def load_file(
    path: str,
    *,
    pitch_mm: Optional[float] = None,
    margin_vias: int = DEFAULT_MARGIN_VIAS,
    rules: Optional[TechRules] = None,
) -> KicadImport:
    """Read and import a ``.kicad_pcb`` file."""
    with open(path, encoding="utf-8") as stream:
        text = stream.read()
    return import_board(
        text,
        path=path,
        pitch_mm=pitch_mm,
        margin_vias=margin_vias,
        rules=rules,
    )


# ----------------------------------------------------------------------
# restoring a previous export
# ----------------------------------------------------------------------


def _grr_uuid(node: SList) -> Optional[str]:
    for tag in ("uuid", "tstamp"):
        value = node.value_of(tag)
        if value is not None:
            return value
    return None


def _restore_exported_routes(imp: KicadImport) -> None:
    """Rebuild route records from ``grr-c…`` segments/vias in the file."""
    records: Dict[int, RouteRecord] = {}
    layer_index = {name: i for i, name in enumerate(imp.layer_names)}
    for node in imp.doc.find_all("segment"):
        marker = _grr_uuid(node)
        if marker is None or not marker.startswith("grr-"):
            imp.foreign_copper += 1
            continue
        if marker.startswith(_UUID_PREFIX_PIN):
            continue  # dispersion trace: re-laid by the import itself
        conn_id = _parse_conn_marker(marker)
        start = node.find("start")
        end = node.find("end")
        layer_name = node.value_of("layer")
        if start is None or end is None or layer_name is None:
            raise KicadFormatError(f"segment {marker}: missing geometry")
        if layer_name not in layer_index:
            raise KicadFormatError(
                f"segment {marker}: unknown copper layer {layer_name!r}"
            )
        index = layer_index[layer_name]
        a = imp.mm_to_grid(_number(start, 1), _number(start, 2))
        b = imp.mm_to_grid(_number(end, 1), _number(end, 2))
        layer = imp.workspace.layers[index]
        ca, ka = layer.point_cc(a)
        cb, kb = layer.point_cc(b)
        if ca != cb:
            raise KicadFormatError(
                f"segment {marker}: not aligned with layer "
                f"{layer_name!r} channels"
            )
        record = records.setdefault(conn_id, RouteRecord(conn_id=conn_id))
        record.segments.append((index, ca, min(ka, kb), max(ka, kb)))
    for node in imp.doc.find_all("via"):
        marker = _grr_uuid(node)
        if marker is None or not marker.startswith("grr-"):
            imp.foreign_copper += 1
            continue
        if marker.startswith(_UUID_PREFIX_PIN):
            continue
        conn_id = _parse_conn_marker(marker)
        at = node.find("at")
        if at is None:
            raise KicadFormatError(f"via {marker}: missing (at ...)")
        point = imp.mm_to_grid(_number(at, 1), _number(at, 2))
        g = imp.board.grid.grid_per_via
        if point.gx % g or point.gy % g:
            raise KicadFormatError(f"via {marker}: not on a via site")
        record = records.setdefault(conn_id, RouteRecord(conn_id=conn_id))
        record.vias.append(ViaPoint(point.gx // g, point.gy // g))
    for conn_id in sorted(records):
        if not imp.workspace.restore_record(records[conn_id]):
            raise KicadFormatError(
                f"exported route {conn_id} no longer fits the imported "
                "board (was the document edited?)"
            )
        imp.restored.append(conn_id)


def _parse_conn_marker(marker: str) -> int:
    body = marker[len(_UUID_PREFIX_CONN):]
    head = body.split("-", 1)[0]
    try:
        return int(head)
    except ValueError:
        raise KicadFormatError(f"malformed grr route marker {marker!r}")


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


def _via_span(imp: KicadImport) -> Tuple[str, str]:
    return imp.layer_names[0], imp.layer_names[-1]


def _segment_expr(
    imp: KicadImport,
    ax: float,
    ay: float,
    bx: float,
    by: float,
    layer_name: str,
    kicad_net: int,
    marker: str,
    width_mm: float,
) -> str:
    return (
        f"(segment (start {format_mm(ax)} {format_mm(ay)}) "
        f"(end {format_mm(bx)} {format_mm(by)}) "
        f"(width {format_mm(width_mm)}) "
        f"(layer {format_expr(layer_name)[1:-1]}) "
        f"(net {kicad_net}) (uuid {marker}))"
    )


def export_expressions(
    imp: KicadImport, workspace: Optional[RoutingWorkspace] = None
) -> List[str]:
    """The ``segment``/``via`` expressions for a routed workspace.

    Dispersion traces come first (pad true coordinates to via sites,
    marked ``grr-p<pin>``), then every routed connection's installed
    occupancy and drilled vias (marked ``grr-c<conn>``).
    """
    workspace = workspace or imp.workspace
    rules = imp.board.rules
    width = rules.trace_width * MM_PER_MIL
    via_size = rules.via_pad_diameter * MM_PER_MIL
    via_drill = rules.via_drill_diameter * MM_PER_MIL
    top, bottom = _via_span(imp)
    out: List[str] = []

    kicad_net_for_pin: Dict[int, int] = {
        pad.pin_id: pad.kicad_net for pad in imp.pads if pad.pin_id >= 0
    }
    for pad in imp.pads:
        if not pad.dispersed or pad.pin_id < 0:
            continue
        net = max(pad.kicad_net, 0)
        snapped = imp.grid_to_mm(pad.grid_point)
        if (
            abs(snapped[0] - pad.x_mm) > 1e-6
            or abs(snapped[1] - pad.y_mm) > 1e-6
        ):
            out.append(
                _segment_expr(
                    imp,
                    pad.x_mm,
                    pad.y_mm,
                    snapped[0],
                    snapped[1],
                    imp.layer_names[0],
                    net,
                    f"{_UUID_PREFIX_PIN}{pad.pin_id}-pad",
                    width,
                )
            )
        for k, (layer_idx, channel, lo, hi) in enumerate(pad.trace_segments):
            layer = workspace.layers[layer_idx]
            ax, ay = imp.grid_to_mm(layer.cc_point(channel, lo))
            bx, by = imp.grid_to_mm(layer.cc_point(channel, hi))
            out.append(
                _segment_expr(
                    imp,
                    ax,
                    ay,
                    bx,
                    by,
                    imp.layer_names[layer_idx],
                    net,
                    f"{_UUID_PREFIX_PIN}{pad.pin_id}-s{k}",
                    width,
                )
            )

    net_for_conn: Dict[int, int] = {}
    for conn in imp.connections:
        net_for_conn[conn.conn_id] = imp.kicad_net_for_net.get(
            conn.net_id, kicad_net_for_pin.get(conn.pin_a, 0)
        )
    for conn_id in sorted(workspace.records):
        record = workspace.records[conn_id]
        net = max(net_for_conn.get(conn_id, 0), 0)
        for k, (layer_idx, channel, lo, hi) in enumerate(record.segments):
            layer = workspace.layers[layer_idx]
            ax, ay = imp.grid_to_mm(layer.cc_point(channel, lo))
            bx, by = imp.grid_to_mm(layer.cc_point(channel, hi))
            out.append(
                _segment_expr(
                    imp,
                    ax,
                    ay,
                    bx,
                    by,
                    imp.layer_names[layer_idx],
                    net,
                    f"{_UUID_PREFIX_CONN}{conn_id}-s{k}",
                    width,
                )
            )
        for k, via in enumerate(record.vias):
            x, y = imp.grid_to_mm(imp.board.grid.via_to_grid(via))
            out.append(
                f"(via (at {format_mm(x)} {format_mm(y)}) "
                f"(size {format_mm(via_size)}) "
                f"(drill {format_mm(via_drill)}) "
                f"(layers {format_expr(top)[1:-1]} "
                f"{format_expr(bottom)[1:-1]}) "
                f"(net {net}) (uuid {_UUID_PREFIX_CONN}{conn_id}-v{k}))"
            )
    return out


def export_document(
    imp: KicadImport, workspace: Optional[RoutingWorkspace] = None
) -> str:
    """The original document with the routed copper written back.

    Expressions from a previous grr export are removed first (export is
    idempotent); everything else is preserved byte-for-byte.  The new
    ``segment``/``via`` expressions land just before the closing paren.
    """
    removals: List[Tuple[int, int]] = []
    for tag in ("segment", "via"):
        for node in imp.doc.find_all(tag):
            marker = _grr_uuid(node)
            if marker is not None and marker.startswith("grr-"):
                removals.append((node.start, node.end))
    exprs = export_expressions(imp, workspace)
    block = "".join(f"  {expr}\n" for expr in exprs)
    insert_at = imp.doc.end - 1
    # Make sure the block starts on its own line.
    prefix = "" if imp.text[: insert_at].endswith("\n") else "\n"
    return splice(imp.text, removals, insert_at, prefix + block)


def save_file(
    imp: KicadImport,
    path: str,
    workspace: Optional[RoutingWorkspace] = None,
) -> None:
    """Write :func:`export_document` to a file."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(export_document(imp, workspace))


# ----------------------------------------------------------------------
# synthesising a document from a native board
# ----------------------------------------------------------------------


def _synth_layer_table(board: Board) -> Tuple[List[str], List[str]]:
    """Copper names for a synthesised doc: signal layers then planes."""
    total = board.stack.n_signal + len(board.stack.power_layers)
    names: List[str] = []
    for i in range(total):
        if i == 0:
            names.append("F.Cu")
        elif i == total - 1 and total > 1:
            names.append("B.Cu")
        else:
            names.append(f"In{i}.Cu")
    return names[: board.stack.n_signal], names[board.stack.n_signal:]


def write_board_sexp(board: Board, *, origin_mm: float = 20.0) -> str:
    """Render a native :class:`Board` as a minimal ``.kicad_pcb`` document.

    Through-hole footprints on the via grid, the net table, and an
    Edge.Cuts outline matching the board extent — enough for KiCad to
    open and for :func:`import_board` to reconstruct the same board
    (same grid, parts, pins and nets, in the same order).
    """
    pitch = board.rules.via_pitch * MM_PER_MIL
    pad_size = board.rules.via_pad_diameter * MM_PER_MIL
    drill = board.rules.via_drill_diameter * MM_PER_MIL
    grid = board.grid

    def via_mm(via: ViaPoint) -> Tuple[float, float]:
        return origin_mm + via.vx * pitch, origin_mm + via.vy * pitch

    signal_names, power_names = _synth_layer_table(board)
    lines: List[str] = [
        "(kicad_pcb",
        "  (version 20240108)",
        "  (generator grr)",
        "  (general",
        "    (thickness 1.6)",
        "  )",
        "  (layers",
    ]
    numbers = list(range(len(signal_names) + len(power_names)))
    if len(numbers) > 1:
        numbers[-1] = 31  # B.Cu's conventional KiCad index
    for number, name in zip(numbers, signal_names + power_names):
        kind = "power" if name in power_names else "signal"
        lines.append(f"    ({number} {format_expr(name)[1:-1]} {kind})")
    lines.append("    (44 \"Edge.Cuts\" user)")
    lines.append("  )")
    lines.append("  (net 0 \"\")")
    for net in board.nets:
        lines.append(f"  (net {net.net_id + 1} {quoted(net.name)})")
    for part in board.parts:
        px, py = via_mm(part.origin)
        lines.append(
            f"  (footprint {quoted('grr:' + part.package.name)} "
            f"(layer \"F.Cu\")"
        )
        lines.append(f"    (at {format_mm(px)} {format_mm(py)})")
        lines.append(
            f"    (property \"Reference\" {quoted(part.name)} "
            f"(at 0 0) (layer \"F.SilkS\"))"
        )
        for pin, (dx, dy) in zip(part.pins, part.package.pin_offsets):
            net_clause = ""
            if pin.net_id >= 0:
                net = board.nets[pin.net_id]
                net_clause = f" (net {net.net_id + 1} {quoted(net.name)})"
            lines.append(
                f"    (pad {quoted(str(pin.pin_id))} thru_hole circle "
                f"(at {format_mm(dx * pitch)} {format_mm(dy * pitch)}) "
                f"(size {format_mm(pad_size)} {format_mm(pad_size)}) "
                f"(drill {format_mm(drill)}) "
                f"(layers \"*.Cu\"){net_clause})"
            )
        lines.append("  )")
    hi_x = origin_mm + (grid.via_nx - 1) * pitch
    hi_y = origin_mm + (grid.via_ny - 1) * pitch
    lines.append(
        f"  (gr_rect (start {format_mm(origin_mm)} {format_mm(origin_mm)}) "
        f"(end {format_mm(hi_x)} {format_mm(hi_y)}) "
        f"(layer \"Edge.Cuts\") (width 0.1))"
    )
    lines.append(")")
    return "\n".join(lines) + "\n"


def quoted(value: str) -> str:
    """A always-quoted KiCad string (net and reference names)."""
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
