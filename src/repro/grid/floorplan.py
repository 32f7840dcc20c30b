"""Floorplan model: core area, functional blocks, power pads.

The PowerPlanningDL features are floorplan quantities: the X / Y coordinate
of a point in the planned floorplan and the switching current ``Id`` of the
functional block underneath (Section IV-B of the paper).  This module models
the floorplan explicitly so that feature extraction and grid construction
both read from the same source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class FunctionalBlock:
    """A placed functional block drawing switching current from the grid.

    Attributes:
        name: Block name, e.g. ``"b3"``.
        x: Lower-left X coordinate of the block in um.
        y: Lower-left Y coordinate of the block in um.
        width: Block width in um.
        height: Block height in um.
        switching_current: Total switching current ``Id`` of the block in
            amperes, as obtained from the front-end switching activity
            (value-change dump) in the paper.
    """

    name: str
    x: float
    y: float
    width: float
    height: float
    switching_current: float

    def __post_init__(self) -> None:
        if not (self.width > 0 and self.height > 0):  # NaN is not positive either
            raise ValueError(f"block {self.name!r} must have positive dimensions")
        if self.switching_current < 0:
            raise ValueError(f"block {self.name!r} switching current must be non-negative")

    @property
    def center(self) -> tuple[float, float]:
        """Return the centre coordinates of the block."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def area(self) -> float:
        """Return the block area in um^2."""
        return self.width * self.height

    @property
    def current_density(self) -> float:
        """Return the block current per unit area in A/um^2."""
        return self.switching_current / self.area

    def contains(self, x: float, y: float) -> bool:
        """Return True if the point ``(x, y)`` lies inside the block."""
        return self.x <= x <= self.x + self.width and self.y <= y <= self.y + self.height

    def with_current(self, current: float) -> "FunctionalBlock":
        """Return a copy of the block with a different switching current."""
        return replace(self, switching_current=current)


@dataclass(frozen=True)
class PowerPad:
    """A power pad (Vdd bump) location on the floorplan.

    Attributes:
        name: Pad name, e.g. ``"pad_0_0"``.
        x: X coordinate in um.
        y: Y coordinate in um.
        voltage: Supplied voltage in volts.
    """

    name: str
    x: float
    y: float
    voltage: float

    def __post_init__(self) -> None:
        if self.voltage <= 0:
            raise ValueError(f"pad {self.name!r} must have positive voltage")


class Floorplan:
    """A rectangular core area with placed functional blocks and power pads.

    Args:
        name: Floorplan name (usually matches the benchmark name).
        core_width: Core width ``Wcore`` in um (paper eq. 3).
        core_height: Core height in um.
        blocks: Functional blocks placed inside the core.
        pads: Power pads placed on or inside the core.

    Raises:
        ValueError: If the core dimensions are not positive or a block lies
            outside the core.
    """

    def __init__(
        self,
        name: str,
        core_width: float,
        core_height: float,
        blocks: Iterable[FunctionalBlock] = (),
        pads: Iterable[PowerPad] = (),
    ) -> None:
        if core_width <= 0 or core_height <= 0:
            raise ValueError("core dimensions must be positive")
        self.name = name
        self.core_width = float(core_width)
        self.core_height = float(core_height)
        self._blocks: dict[str, FunctionalBlock] = {}
        self._pads: dict[str, PowerPad] = {}
        for block in blocks:
            self.add_block(block)
        for pad in pads:
            self.add_pad(pad)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_block(self, block: FunctionalBlock) -> FunctionalBlock:
        """Add a functional block to the floorplan.

        Raises:
            ValueError: If the name is taken or the block is outside the core.
        """
        if block.name in self._blocks:
            raise ValueError(f"block {block.name!r} already exists")
        if block.x < 0 or block.y < 0:
            raise ValueError(f"block {block.name!r} has negative origin")
        if block.x + block.width > self.core_width + 1e-9:
            raise ValueError(f"block {block.name!r} exceeds the core width")
        if block.y + block.height > self.core_height + 1e-9:
            raise ValueError(f"block {block.name!r} exceeds the core height")
        self._blocks[block.name] = block
        return block

    def add_pad(self, pad: PowerPad) -> PowerPad:
        """Add a power pad to the floorplan.

        Raises:
            ValueError: If the name is taken or the pad is outside the core.
        """
        if pad.name in self._pads:
            raise ValueError(f"pad {pad.name!r} already exists")
        if not (0 <= pad.x <= self.core_width and 0 <= pad.y <= self.core_height):
            raise ValueError(f"pad {pad.name!r} lies outside the core")
        self._pads[pad.name] = pad
        return pad

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> dict[str, FunctionalBlock]:
        """Mapping of block name to functional block."""
        return self._blocks

    @property
    def pads(self) -> dict[str, PowerPad]:
        """Mapping of pad name to power pad."""
        return self._pads

    def iter_blocks(self) -> Iterator[FunctionalBlock]:
        """Iterate over functional blocks in insertion order."""
        return iter(self._blocks.values())

    def iter_pads(self) -> Iterator[PowerPad]:
        """Iterate over power pads in insertion order."""
        return iter(self._pads.values())

    @property
    def total_switching_current(self) -> float:
        """Total switching current of all blocks, in amperes."""
        return sum(block.switching_current for block in self._blocks.values())

    @property
    def core_area(self) -> float:
        """Core area in um^2."""
        return self.core_width * self.core_height

    # ------------------------------------------------------------------
    # Queries used by feature extraction and grid construction
    # ------------------------------------------------------------------
    def block_at(self, x: float, y: float) -> FunctionalBlock | None:
        """Return the block covering the point ``(x, y)``, if any.

        If blocks overlap, the first one in insertion order wins (synthetic
        floorplans produced by this library never overlap blocks).
        """
        for block in self._blocks.values():
            if block.contains(x, y):
                return block
        return None

    def switching_current_at(self, x: float, y: float) -> float:
        """Return the switching current ``Id`` associated with a point.

        This is the feature the paper extracts per power-grid interconnect:
        the switching current of the functional block underneath the
        interconnect location.  Points not covered by any block draw zero
        current.
        """
        block = self.block_at(x, y)
        if block is None:
            return 0.0
        return block.switching_current

    def switching_current_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`switching_current_at` over the tensor grid of ``xs`` and ``ys``.

        Each block covers one rectangle of grid indices: the points with
        ``x <= xs[i] <= x + width`` and ``y <= ys[j] <= y + height`` (the
        closed edges of :meth:`FunctionalBlock.contains`), found by binary
        search, so the query costs O(blocks + points).  Blocks are painted
        in reverse insertion order, so where blocks overlap the first one
        wins, matching the scalar query bit for bit.

        Args:
            xs: Ascending (non-decreasing) X coordinates, 1-D.
            ys: Ascending (non-decreasing) Y coordinates, 1-D.

        Returns:
            A ``(len(ys), len(xs))`` array, ``currents[j, i]`` being the
            switching current at ``(xs[i], ys[j])``: the layout of
            ``np.meshgrid(xs, ys)``.

        Raises:
            ValueError: If either vector is not 1-D and ascending (NaN
                included), naming the axis.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        for axis, values in (("xs", xs), ("ys", ys)):
            if values.ndim != 1 or not (values[1:] >= values[:-1]).all():
                raise ValueError(f"{axis} must be a 1-D ascending coordinate vector")
        currents = np.zeros((ys.size, xs.size))
        blocks = list(self._blocks.values())
        if not blocks:
            return currents
        edges = np.asarray(
            [(b.x, b.x + b.width, b.y, b.y + b.height) for b in blocks], dtype=float
        )
        x_start = np.searchsorted(xs, edges[:, 0], side="left").tolist()
        x_stop = np.searchsorted(xs, edges[:, 1], side="right").tolist()
        y_start = np.searchsorted(ys, edges[:, 2], side="left").tolist()
        y_stop = np.searchsorted(ys, edges[:, 3], side="right").tolist()
        for index in reversed(range(len(blocks))):
            currents[y_start[index] : y_stop[index], x_start[index] : x_stop[index]] = (
                blocks[index].switching_current
            )
        return currents

    def current_density_map(self, resolution: int = 64) -> np.ndarray:
        """Rasterise the per-block current density onto a square map.

        Args:
            resolution: Number of bins along each axis.

        Returns:
            A ``(resolution, resolution)`` array, ``map[j, i]`` giving the
            current density (A/um^2) at bin column ``i`` (x) and row ``j``
            (y).
        """
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        density = np.zeros((resolution, resolution), dtype=float)
        xs = (np.arange(resolution) + 0.5) * self.core_width / resolution
        ys = (np.arange(resolution) + 0.5) * self.core_height / resolution
        for block in self._blocks.values():
            ix = np.where((xs >= block.x) & (xs <= block.x + block.width))[0]
            iy = np.where((ys >= block.y) & (ys <= block.y + block.height))[0]
            if ix.size == 0 or iy.size == 0:
                continue
            density[np.ix_(iy, ix)] += block.current_density
        return density

    # ------------------------------------------------------------------
    # Modification helpers
    # ------------------------------------------------------------------
    def with_scaled_currents(self, factor: float, name: str | None = None) -> "Floorplan":
        """Return a copy with every block switching current scaled by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        blocks = [
            block.with_current(block.switching_current * factor) for block in self.iter_blocks()
        ]
        return Floorplan(
            name=name or self.name,
            core_width=self.core_width,
            core_height=self.core_height,
            blocks=blocks,
            pads=list(self.iter_pads()),
        )

    def with_block_currents(
        self, currents: dict[str, float], name: str | None = None
    ) -> "Floorplan":
        """Return a copy with selected block currents replaced.

        Args:
            currents: Mapping of block name to new switching current.
            name: Optional name for the new floorplan.

        Raises:
            KeyError: If a block name in ``currents`` does not exist.
        """
        for block_name in currents:
            if block_name not in self._blocks:
                raise KeyError(f"unknown block {block_name!r}")
        blocks = [
            block.with_current(currents.get(block.name, block.switching_current))
            for block in self.iter_blocks()
        ]
        return Floorplan(
            name=name or self.name,
            core_width=self.core_width,
            core_height=self.core_height,
            blocks=blocks,
            pads=list(self.iter_pads()),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Floorplan(name={self.name!r}, core={self.core_width}x{self.core_height} um, "
            f"blocks={len(self._blocks)}, pads={len(self._pads)})"
        )
