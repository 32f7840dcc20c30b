"""Synthetic stand-ins for the IBM power-grid benchmarks.

The paper trains and evaluates PowerPlanningDL on the IBM power-grid
benchmarks (Nassif, ASP-DAC 2008), which are proprietary extractions of IBM
processors with up to ~1.7 million nodes.  Those netlists are not available
offline, so this module generates *synthetic* benchmarks with the same
structure (mesh power grid over a block-level floorplan with Vdd pads and
per-block workload currents) and the same *relative* size ordering as
Table II of the paper, scaled down so that the conventional sparse-solver
baseline remains tractable on a single machine.

Each benchmark is generated deterministically from its name, so results are
reproducible across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import GridBuilder, GridTopology, uniform_topology
from .floorplan import Floorplan, FunctionalBlock, PowerPad
from .network import PowerGridNetwork
from .technology import DEFAULT_TECHNOLOGY, Technology


@dataclass(frozen=True)
class BenchmarkConfig:
    """Configuration of one synthetic IBM-style benchmark.

    Attributes:
        name: Benchmark name (``"ibmpg1"`` ... ``"ibmpgnew2"``).
        core_size: Core edge length in um (square core).
        num_vertical: Number of vertical power-grid lines.
        num_horizontal: Number of horizontal power-grid lines.
        num_blocks: Number of functional blocks placed on the floorplan.
        num_pads: Number of Vdd power pads.
        total_current: Total switching current of all blocks, in amperes.
        current_skew: Exponent controlling how unevenly the current is spread
            over the blocks (1.0 = uniform-ish, larger = a few hot blocks).
        seed: Seed for the deterministic random generator.
    """

    name: str
    core_size: float
    num_vertical: int
    num_horizontal: int
    num_blocks: int
    num_pads: int
    total_current: float
    current_skew: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.core_size <= 0:
            raise ValueError("core_size must be positive")
        if self.num_vertical < 2 or self.num_horizontal < 2:
            raise ValueError("need at least 2 lines per direction")
        if self.num_blocks < 1:
            raise ValueError("need at least one functional block")
        if self.num_pads < 1:
            raise ValueError("need at least one power pad")
        if self.total_current <= 0:
            raise ValueError("total_current must be positive")

    @property
    def num_lines(self) -> int:
        """Total number of power-grid lines."""
        return self.num_vertical + self.num_horizontal

    @property
    def approx_nodes(self) -> int:
        """Approximate node count of the built grid (two layers per crossing)."""
        return 2 * self.num_vertical * self.num_horizontal


# The relative ordering of grid sizes, pad counts and load counts follows
# Table II of the paper (ibmpg1 smallest, ibmpg6 / ibmpgnew1 largest), scaled
# down by roughly two orders of magnitude so that the sparse-solver baseline
# completes in seconds rather than minutes.
_SUITE_CONFIGS: dict[str, BenchmarkConfig] = {
    "ibmpg1": BenchmarkConfig(
        name="ibmpg1", core_size=2000.0, num_vertical=28, num_horizontal=28,
        num_blocks=12, num_pads=16, total_current=1.3, current_skew=1.8, seed=11,
    ),
    "ibmpg2": BenchmarkConfig(
        name="ibmpg2", core_size=4000.0, num_vertical=48, num_horizontal=48,
        num_blocks=24, num_pads=64, total_current=2.0, current_skew=1.6, seed=22,
    ),
    "ibmpg3": BenchmarkConfig(
        name="ibmpg3", core_size=8000.0, num_vertical=72, num_horizontal=72,
        num_blocks=40, num_pads=225, total_current=1.8, current_skew=1.4, seed=33,
    ),
    "ibmpg4": BenchmarkConfig(
        name="ibmpg4", core_size=8000.0, num_vertical=76, num_horizontal=76,
        num_blocks=44, num_pads=676, total_current=1.6, current_skew=1.3, seed=44,
    ),
    "ibmpg5": BenchmarkConfig(
        name="ibmpg5", core_size=9000.0, num_vertical=64, num_horizontal=64,
        num_blocks=36, num_pads=1024, total_current=0.5, current_skew=1.2, seed=55,
    ),
    "ibmpg6": BenchmarkConfig(
        name="ibmpg6", core_size=10000.0, num_vertical=80, num_horizontal=80,
        num_blocks=52, num_pads=576, total_current=1.2, current_skew=1.4, seed=66,
    ),
    "ibmpgnew1": BenchmarkConfig(
        name="ibmpgnew1", core_size=10000.0, num_vertical=84, num_horizontal=84,
        num_blocks=56, num_pads=256, total_current=2.8, current_skew=1.5, seed=77,
    ),
    "ibmpgnew2": BenchmarkConfig(
        name="ibmpgnew2", core_size=9000.0, num_vertical=78, num_horizontal=78,
        num_blocks=48, num_pads=400, total_current=2.4, current_skew=1.4, seed=88,
    ),
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITE_CONFIGS)
"""Names of the synthetic benchmarks, in the paper's Table II order."""


def benchmark_config(name: str) -> BenchmarkConfig:
    """Return the configuration of the named synthetic benchmark.

    Raises:
        KeyError: If the benchmark name is unknown.
    """
    try:
        return _SUITE_CONFIGS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(SUITE_NAMES)}"
        ) from exc


def generate_floorplan(config: BenchmarkConfig, technology: Technology | None = None) -> Floorplan:
    """Generate the synthetic floorplan of a benchmark.

    The floorplan tiles the core with non-overlapping functional blocks laid
    out on a coarse grid (jittered sizes), assigns each block a switching
    current drawn from a skewed distribution normalised to
    ``config.total_current``, and places power pads on a regular array, the
    way flip-chip bump arrays supply real designs.
    """
    technology = technology or DEFAULT_TECHNOLOGY
    rng = np.random.default_rng(config.seed)
    core = config.core_size

    # Block placement: a ceil(sqrt(num_blocks)) x ceil(sqrt(num_blocks)) tile
    # grid, taking the first num_blocks tiles, each block filling 60-95 % of
    # its tile so blocks never overlap.
    tiles_per_side = int(np.ceil(np.sqrt(config.num_blocks)))
    tile = core / tiles_per_side
    blocks: list[FunctionalBlock] = []
    raw_currents = rng.pareto(config.current_skew, size=config.num_blocks) + 0.2
    currents = raw_currents / raw_currents.sum() * config.total_current
    index = 0
    for row in range(tiles_per_side):
        for col in range(tiles_per_side):
            if index >= config.num_blocks:
                break
            fill_x = rng.uniform(0.6, 0.95)
            fill_y = rng.uniform(0.6, 0.95)
            width = tile * fill_x
            height = tile * fill_y
            x = col * tile + rng.uniform(0.0, tile - width)
            y = row * tile + rng.uniform(0.0, tile - height)
            blocks.append(
                FunctionalBlock(
                    name=f"b{index}",
                    x=float(x),
                    y=float(y),
                    width=float(width),
                    height=float(height),
                    switching_current=float(currents[index]),
                )
            )
            index += 1

    pads_per_side = max(1, int(round(np.sqrt(config.num_pads))))
    pad_xs = np.linspace(0.0, core, pads_per_side + 2)[1:-1]
    pad_ys = np.linspace(0.0, core, pads_per_side + 2)[1:-1]
    pads: list[PowerPad] = []
    pad_index = 0
    for y in pad_ys:
        for x in pad_xs:
            if pad_index >= config.num_pads:
                break
            pads.append(
                PowerPad(name=f"pad{pad_index}", x=float(x), y=float(y), voltage=technology.vdd)
            )
            pad_index += 1
    if pad_index == 0:
        pads.append(PowerPad(name="pad0", x=core / 2, y=core / 2, voltage=technology.vdd))

    return Floorplan(
        name=config.name,
        core_width=core,
        core_height=core,
        blocks=blocks,
        pads=pads,
    )


def generate_topology(config: BenchmarkConfig, floorplan: Floorplan | None = None) -> GridTopology:
    """Generate the stripe topology of a benchmark."""
    floorplan = floorplan or generate_floorplan(config)
    return uniform_topology(floorplan, config.num_vertical, config.num_horizontal)


@dataclass
class SyntheticBenchmark:
    """A fully generated synthetic benchmark: floorplan, topology, technology.

    The network itself is built on demand (by the conventional planner with
    sized widths, or uniformly for quick experiments).
    """

    config: BenchmarkConfig
    floorplan: Floorplan
    topology: GridTopology
    technology: Technology

    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.config.name

    def build_uniform_grid(self, width: float = 5.0) -> PowerGridNetwork:
        """Build the power grid with a uniform stripe width, for quick tests."""
        builder = GridBuilder(self.technology)
        return builder.build(self.floorplan, self.topology, width, name=self.name)

    def build_grid(self, widths: np.ndarray | list[float]) -> PowerGridNetwork:
        """Build the power grid with per-line widths."""
        builder = GridBuilder(self.technology)
        return builder.build(self.floorplan, self.topology, widths, name=self.name)


class SyntheticIBMSuite:
    """Factory for the whole synthetic benchmark suite.

    Args:
        technology: Technology used for all benchmarks (default: generic
            45 nm).
        scale: Optional global scale factor (< 1 shrinks every benchmark's
            stripe counts; useful to speed up the test-suite).
    """

    def __init__(self, technology: Technology | None = None, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.technology = technology or DEFAULT_TECHNOLOGY
        self.scale = scale

    def names(self) -> tuple[str, ...]:
        """Return the available benchmark names in Table II order."""
        return SUITE_NAMES

    def config(self, name: str) -> BenchmarkConfig:
        """Return the (possibly rescaled) configuration of a benchmark."""
        base = benchmark_config(name)
        if self.scale == 1.0:
            return base
        return BenchmarkConfig(
            name=base.name,
            core_size=base.core_size,
            num_vertical=max(4, int(round(base.num_vertical * self.scale))),
            num_horizontal=max(4, int(round(base.num_horizontal * self.scale))),
            num_blocks=max(2, int(round(base.num_blocks * min(1.0, self.scale * 2)))),
            num_pads=max(1, int(round(base.num_pads * min(1.0, self.scale * 2)))),
            total_current=base.total_current * min(1.0, self.scale * 2),
            current_skew=base.current_skew,
            seed=base.seed,
        )

    def load(self, name: str) -> SyntheticBenchmark:
        """Generate the named benchmark (floorplan + topology)."""
        config = self.config(name)
        floorplan = generate_floorplan(config, self.technology)
        topology = generate_topology(config, floorplan)
        return SyntheticBenchmark(
            config=config,
            floorplan=floorplan,
            topology=topology,
            technology=self.technology,
        )

    def load_all(self) -> list[SyntheticBenchmark]:
        """Generate every benchmark in the suite."""
        return [self.load(name) for name in self.names()]


def load_benchmark(
    name: str, technology: Technology | None = None, scale: float = 1.0
) -> SyntheticBenchmark:
    """Convenience wrapper: generate one synthetic IBM-style benchmark."""
    return SyntheticIBMSuite(technology=technology, scale=scale).load(name)
