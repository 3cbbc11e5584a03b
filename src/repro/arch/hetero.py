"""Heterogeneous chips: per-core-type clusters with asymmetric SMT.

A :class:`HeteroChip` composes *clusters* — groups of identical cores,
each described by a full :class:`~repro.arch.machine.Architecture` with
its own SMT ceiling, port topology, and cache geometry — into one chip,
in the style of big.LITTLE designs and lumos's heterogeneous MPSoC
models.  Two modelling decisions keep the whole existing simulator
stack (chip solver, columnar engine, fleet) valid per
cluster:

* **Clusters are Architectures.**  Each cluster is an ordinary
  :class:`Architecture` instance whose ``cores_per_chip`` is the
  cluster's core count, so ``solve_chip`` and ``ScenarioTable``
  operate on a cluster exactly as they do on a homogeneous chip.  The
  per-cluster ``(arch, level)`` spaces the scheduler and threshold
  machinery reason over fall out of :meth:`HeteroChip.level_space`.
* **Memory bandwidth is QoS-partitioned.**  The chip's DRAM bandwidth
  is split between clusters by a static ``bandwidth_share`` (the
  memory-controller QoS partition found on server SoCs), so each
  cluster's bandwidth fixed point is independent — which is what makes
  the per-cluster decomposition exact rather than approximate.

An optional lumos-style :class:`PowerAreaBudget` validates that the
cluster composition fits the chip's power/area envelope at build time.

Registered hetero chips also register every cluster in the main
architecture registry under ``"<chip>.<cluster>"`` (e.g.
``"biglittle.big"``), so clusters are first-class citizens of the CLI,
the fleet, the conformance checker, and the run cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.arch.armsmt import armsmt
from repro.arch.machine import Architecture
from repro.arch.power7 import power7
from repro.arch.registry import _BUILDERS, register_architecture
from repro.util.validation import check_positive


@dataclass(frozen=True)
class PowerAreaBudget:
    """A lumos-style chip envelope the cluster composition must fit."""

    power_w: float
    area_mm2: float

    def __post_init__(self):
        check_positive("power_w", self.power_w)
        check_positive("area_mm2", self.area_mm2)


@dataclass(frozen=True)
class ClusterSpec:
    """One core-type cluster of a heterogeneous chip.

    ``arch.cores_per_chip`` is the cluster's core count and
    ``arch.caches.mem_bandwidth_gbps`` its QoS-partitioned bandwidth
    slice; ``bandwidth_share`` records the fraction of the chip's total
    DRAM bandwidth that slice represents.  ``core_power_w`` and
    ``core_area_mm2`` are per-core costs for budget validation.
    """

    name: str
    arch: Architecture
    bandwidth_share: float
    core_power_w: float = 0.0
    core_area_mm2: float = 0.0

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise ValueError(
                f"cluster name must be a plain identifier, got {self.name!r}"
            )
        if not (0.0 < self.bandwidth_share <= 1.0):
            raise ValueError(
                f"bandwidth_share must be in (0, 1], got {self.bandwidth_share}"
            )
        if self.core_power_w < 0 or self.core_area_mm2 < 0:
            raise ValueError("per-core power/area costs must be >= 0")

    @property
    def cores(self) -> int:
        return self.arch.cores_per_chip

    @property
    def power_w(self) -> float:
        return self.cores * self.core_power_w

    @property
    def area_mm2(self) -> float:
        return self.cores * self.core_area_mm2


@dataclass(frozen=True)
class HeteroChip:
    """A chip composed of per-core-type clusters with asymmetric SMT."""

    name: str
    description: str
    clusters: Tuple[ClusterSpec, ...]
    budget: Optional[PowerAreaBudget] = None

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("a heterogeneous chip needs at least one cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names: {names}")
        share = sum(c.bandwidth_share for c in self.clusters)
        if share > 1.0 + 1e-9:
            raise ValueError(
                f"cluster bandwidth shares sum to {share:.3f} > 1 "
                "(the memory-controller QoS partition over-commits DRAM)"
            )
        if self.budget is not None:
            power = sum(c.power_w for c in self.clusters)
            area = sum(c.area_mm2 for c in self.clusters)
            if power > self.budget.power_w * (1 + 1e-9):
                raise ValueError(
                    f"cluster power {power:.1f} W exceeds the chip budget "
                    f"{self.budget.power_w:.1f} W"
                )
            if area > self.budget.area_mm2 * (1 + 1e-9):
                raise ValueError(
                    f"cluster area {area:.1f} mm^2 exceeds the chip budget "
                    f"{self.budget.area_mm2:.1f} mm^2"
                )

    # -- structure helpers ----------------------------------------------
    @property
    def cluster_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.clusters)

    @property
    def total_cores(self) -> int:
        return sum(c.cores for c in self.clusters)

    def cluster(self, name: str) -> ClusterSpec:
        for spec in self.clusters:
            if spec.name == name:
                return spec
        raise KeyError(
            f"no cluster {name!r} on {self.name}; clusters: {self.cluster_names}"
        )

    def level_space(self) -> Tuple[Tuple[str, int], ...]:
        """Every schedulable ``(cluster, smt_level)`` pair of the chip."""
        return tuple(
            (spec.name, level)
            for spec in self.clusters
            for level in spec.arch.smt_levels
        )

    def max_levels(self) -> Dict[str, int]:
        """Per-cluster SMT ceilings (the asymmetric part)."""
        return {spec.name: spec.arch.max_smt for spec in self.clusters}

    def validate_levels(self, levels: Mapping[str, int]) -> Dict[str, int]:
        """Check a per-cluster level assignment; returns a plain dict."""
        unknown = set(levels) - set(self.cluster_names)
        if unknown:
            raise ValueError(
                f"unknown clusters {sorted(unknown)}; known: {self.cluster_names}"
            )
        resolved: Dict[str, int] = {}
        for spec in self.clusters:
            level = levels.get(spec.name, spec.arch.max_smt)
            spec.arch.validate_smt_level(level)
            resolved[spec.name] = int(level)
        return resolved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{c.name}:{c.cores}x{c.arch.name}@smt{c.arch.max_smt}"
            for c in self.clusters
        )
        return f"HeteroChip({self.name!r}, {parts})"


def cluster_architecture(
    base: Architecture,
    *,
    name: str,
    bandwidth_share: float,
    chip_bandwidth_gbps: float,
    description: Optional[str] = None,
) -> Architecture:
    """Derive a cluster's Architecture from a base chip description.

    Renames the architecture and replaces its memory bandwidth with the
    cluster's QoS slice of the chip's DRAM bandwidth; everything else
    (ports, partition, latencies, SMT levels) is inherited from the
    base.  The returned instance revalidates through the dataclass
    ``__post_init__`` chain.
    """
    if not (0.0 < bandwidth_share <= 1.0):
        raise ValueError(f"bandwidth_share must be in (0, 1], got {bandwidth_share}")
    check_positive("chip_bandwidth_gbps", chip_bandwidth_gbps)
    caches = dataclasses.replace(
        base.caches, mem_bandwidth_gbps=chip_bandwidth_gbps * bandwidth_share
    )
    return dataclasses.replace(
        base,
        name=name,
        caches=caches,
        description=description or f"{base.description} [cluster of {name}]",
    )


def big_little() -> HeteroChip:
    """The reference 4+4 big/little chip: POWER7-class big cores (SMT4)
    plus ARM-class little cores (SMT2), under a shared 80 GB/s memory
    controller QoS-partitioned 65/35, inside a lumos-style 120 W /
    220 mm^2 envelope.
    """
    chip_bw = 80.0
    big = ClusterSpec(
        name="big",
        arch=cluster_architecture(
            power7(cores_per_chip=4),
            name="POWER7-big",
            bandwidth_share=0.65,
            chip_bandwidth_gbps=chip_bw,
            description="big cluster: 4 POWER7-class cores, SMT4",
        ),
        bandwidth_share=0.65,
        core_power_w=18.0,
        core_area_mm2=25.0,
    )
    little = ClusterSpec(
        name="little",
        arch=cluster_architecture(
            armsmt(cores_per_chip=4),
            name="ARMv8-little",
            bandwidth_share=0.35,
            chip_bandwidth_gbps=chip_bw,
            description="little cluster: 4 ARM-class cores, SMT2",
        ),
        bandwidth_share=0.35,
        core_power_w=6.0,
        core_area_mm2=8.0,
    )
    return HeteroChip(
        name="biglittle",
        description="4+4 big/little: POWER7-class SMT4 + ARM-class SMT2",
        clusters=(big, little),
        budget=PowerAreaBudget(power_w=120.0, area_mm2=220.0),
    )


# -- registry ------------------------------------------------------------

_HETERO_BUILDERS: Dict[str, Callable[[], HeteroChip]] = {}
#: Memoized chip instances: cluster Architectures must be *stable*
#: objects so the batch engines' identity-based grouping and the
#: fingerprint caches see one instance per cluster per process.
_HETERO_CACHE: Dict[str, HeteroChip] = {}


def register_hetero(
    name: str,
    builder: Callable[[], HeteroChip],
    *,
    register_clusters: bool = True,
) -> None:
    """Register a heterogeneous chip builder under ``name``.

    Also registers every cluster in the main architecture registry as
    ``"<name>.<cluster>"`` (unless ``register_clusters=False`` — the
    conformance checker's arch-coverage gate flags chips whose clusters
    are not reachable that way).  Raises if the name collides with an
    existing hetero chip or architecture.
    """
    key = name.lower()
    if key in _HETERO_BUILDERS:
        raise ValueError(f"hetero chip {name!r} is already registered")
    if key in _BUILDERS:
        raise ValueError(
            f"hetero chip name {name!r} collides with a registered architecture"
        )
    _HETERO_BUILDERS[key] = builder
    if register_clusters:
        chip = get_hetero(key)
        for i, spec in enumerate(chip.clusters):
            register_architecture(
                f"{key}.{spec.name}",
                lambda key=key, i=i: get_hetero(key).clusters[i].arch,
            )


def get_hetero(name: str) -> HeteroChip:
    """The named heterogeneous chip (case-insensitive, memoized)."""
    key = name.lower()
    chip = _HETERO_CACHE.get(key)
    if chip is not None:
        return chip
    try:
        builder = _HETERO_BUILDERS[key]
    except KeyError:
        raise KeyError(
            f"unknown hetero chip {name!r}; known: {sorted(_HETERO_BUILDERS)}"
        ) from None
    chip = builder()
    _HETERO_CACHE[key] = chip
    return chip


def list_hetero() -> List[str]:
    return sorted(_HETERO_BUILDERS)


def is_hetero(name: str) -> bool:
    return name.lower() in _HETERO_BUILDERS


def expand_node_archs(name: str) -> List[str]:
    """Fleet helper: the registry arch names one node of ``name`` uses.

    A plain architecture maps to itself; a heterogeneous chip expands to
    one entry per cluster (``"biglittle"`` -> ``["biglittle.big",
    "biglittle.little"]``), so a hetero node contributes each cluster as
    an independently schedulable (arch, level) space.
    """
    key = name.lower()
    if key in _HETERO_BUILDERS:
        return [f"{key}.{spec.name}" for spec in get_hetero(key).clusters]
    return [key]


def hetero_fingerprint(chip: HeteroChip) -> Dict[str, object]:
    """JSON-able fingerprint of a hetero chip, per-cluster specs included.

    Consumed by :func:`repro.check.goldens.model_fingerprint`: any
    change to a cluster's architecture, bandwidth share, or the chip's
    power/area budget must invalidate golden snapshots.
    """
    from repro.sim.runcache import _arch_fingerprint

    return {
        "name": chip.name,
        "clusters": [
            {
                "name": spec.name,
                "bandwidth_share": spec.bandwidth_share,
                "core_power_w": spec.core_power_w,
                "core_area_mm2": spec.core_area_mm2,
                "arch": _arch_fingerprint(spec.arch),
            }
            for spec in chip.clusters
        ],
        "budget": (
            dataclasses.asdict(chip.budget) if chip.budget is not None else None
        ),
    }


register_hetero("biglittle", big_little)
