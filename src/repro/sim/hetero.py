"""Simulating heterogeneous chips: per-cluster decomposition.

A :class:`~repro.arch.hetero.HeteroChip` is a set of clusters whose
DRAM bandwidth is statically QoS-partitioned (see ``repro.arch.hetero``),
so a run that spreads an SPMD workload across the whole chip decomposes
*exactly* into one independent homogeneous sub-run per cluster: each
cluster solves its own port/bandwidth fixed point against its own
bandwidth slice, at its own SMT level.  That makes every
:class:`~repro.experiments.runner.Strategy` reusable per cluster, and
the serial-vs-columnar differential bound (≤ 1e-9 relative) carries over
to heterogeneous results for free.

The chip-level wall time is the slowest cluster's wall time (a barrier
at the end of the data-parallel region); chip-level throughput is the
sum of per-cluster useful rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.arch.hetero import HeteroChip
from repro.sim.chip import ChipSolution, solve_chip
from repro.sim.engine import DEFAULT_WORK, RunSpec
from repro.sim.results import RunResult
from repro.sim.stream import StreamParams
from repro.simos.scheduler import place_threads
from repro.simos.sync import SyncProfile
from repro.simos.system import SystemSpec


@dataclass(frozen=True)
class HeteroRunSpec:
    """One workload run spread across every cluster of a hetero chip.

    ``levels`` maps cluster name -> SMT level; omitted clusters run at
    their maximum level (the chip's asymmetric ceilings).  Per-cluster
    seeds are derived from ``seed`` and the cluster index so clusters
    have independent (but reproducible) measurement jitter.
    """

    chip: HeteroChip
    stream: StreamParams
    sync: SyncProfile
    levels: Mapping[str, int] = field(default_factory=dict)
    n_chips: int = 1
    useful_instructions: float = DEFAULT_WORK
    seed: int = 0
    noise_rel: float = 0.01

    def __post_init__(self):
        if self.n_chips < 1:
            raise ValueError(f"n_chips must be >= 1, got {self.n_chips}")
        # Validates cluster names and each level against its ceiling.
        self.chip.validate_levels(self.levels)

    def resolved_levels(self) -> Dict[str, int]:
        return self.chip.validate_levels(self.levels)

    def cluster_specs(self) -> List[Tuple[str, RunSpec]]:
        """The per-cluster homogeneous sub-runs, in cluster order.

        Work splits across clusters proportionally to their context
        counts at the selected levels — breadth-first data-parallel
        decomposition, every context gets an equal slice.
        """
        levels = self.resolved_levels()
        contexts = {
            spec.name: spec.cores * levels[spec.name] * self.n_chips
            for spec in self.chip.clusters
        }
        total = sum(contexts.values())
        out: List[Tuple[str, RunSpec]] = []
        for i, spec in enumerate(self.chip.clusters):
            share = contexts[spec.name] / total
            out.append((
                spec.name,
                RunSpec(
                    system=SystemSpec(spec.arch, n_chips=self.n_chips),
                    smt_level=levels[spec.name],
                    stream=self.stream,
                    sync=self.sync,
                    useful_instructions=self.useful_instructions * share,
                    seed=self.seed * 1000003 + i,
                    noise_rel=self.noise_rel,
                ),
            ))
        return out


@dataclass(frozen=True)
class HeteroResult:
    """Chip-level outcome plus the per-cluster breakdown."""

    chip: HeteroChip
    levels: Mapping[str, int]
    cluster_results: Mapping[str, RunResult]

    @property
    def wall_seconds(self) -> float:
        """Slowest cluster: the data-parallel region's closing barrier."""
        return max(r.times.wall_time_s for r in self.cluster_results.values())

    @property
    def performance(self) -> float:
        """Useful work per second for the whole chip.

        Clusters finishing early idle at the barrier, so the chip-level
        rate is total useful work over the barrier wall time — not the
        sum of the clusters' isolated rates.
        """
        total_work = sum(
            r.useful_instructions for r in self.cluster_results.values()
        )
        return total_work / self.wall_seconds

    @property
    def aggregate_rate(self) -> float:
        """Sum of isolated per-cluster rates (no-barrier upper bound)."""
        return sum(r.performance for r in self.cluster_results.values())


def simulate_hetero(spec: HeteroRunSpec, strategy: str = "columnar") -> HeteroResult:
    """Simulate one hetero run via the per-cluster decomposition."""
    return simulate_many_hetero([spec], strategy=strategy)[0]


def simulate_many_hetero(
    specs: Sequence[HeteroRunSpec], strategy: str = "columnar"
) -> List[HeteroResult]:
    """Simulate many hetero runs, batching sub-runs across specs.

    All clusters of all specs are flattened into one spec list and
    handed to :func:`repro.experiments.runner.solve_specs` (no run
    cache), so every :class:`~repro.experiments.runner.Strategy` works
    per cluster.  The columnar path groups by cluster architecture
    instance, so e.g. every ``biglittle.big`` sub-run across the whole
    batch shares one :class:`ScenarioTable`.  A failed sub-run raises.
    """
    from repro.experiments.runner import solve_specs

    shapes = [(hspec, hspec.cluster_specs()) for hspec in specs]
    flat = [sub for _, subs in shapes for _, sub in subs]
    results = iter(solve_specs(flat, strategy=strategy).or_raise())
    return [
        HeteroResult(
            chip=hspec.chip,
            levels=hspec.resolved_levels(),
            cluster_results={name: next(results) for name, _ in subs},
        )
        for hspec, subs in shapes
    ]


def solve_hetero_chip(
    chip: HeteroChip,
    stream: StreamParams,
    levels: Optional[Mapping[str, int]] = None,
    n_chips: int = 1,
) -> Dict[str, ChipSolution]:
    """Steady-state fixed point per cluster (no sync/jitter layer).

    The hetero analogue of :func:`repro.sim.chip.solve_chip`: each
    cluster is packed breadth-first at its level and solved against its
    own QoS bandwidth slice.  Used by the invariant pillar to re-check
    physics laws on heterogeneous samples.
    """
    resolved = chip.validate_levels(levels or {})
    out: Dict[str, ChipSolution] = {}
    for spec in chip.clusters:
        system = SystemSpec(spec.arch, n_chips=n_chips)
        level = resolved[spec.name]
        placement = place_threads(system, level, system.contexts_at(level))
        out[spec.name] = solve_chip(placement, stream)
    return out
