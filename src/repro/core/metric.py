"""The SMT-selection metric, SMTsm (paper Eq. 1).

::

    SMTsm = sqrt( sum_i (f_i - ideal_i)^2 )        # instruction-mix deviation
            * DispHeld                             # dispatch-held fraction
            * TotalTime / AvgThrdTime              # scalability ratio

Smaller values indicate greater preference for a higher SMT level.

The architecture decides the metric space: POWER7 compares per-class
fractions against the (1/7, 1/7, 1/7, 2/7, 2/7) ideal (Eq. 2); Nehalem
compares per-issue-port fractions against the uniform 1/6 ideal
(Eq. 3); any :class:`~repro.arch.machine.Architecture` — including
user-defined ones — supplies its own ideal vector, which is how the
metric "can easily be adapted to other architectures" (§VII).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.counters.pmu import CounterSample, metric_layout
from repro.sim.results import RunResult


@dataclass(frozen=True)
class SmtsmResult:
    """An SMTsm evaluation with its factor breakdown.

    Keeping the factors visible is essential for the paper's analyses:
    Fig. 7 reads the mix term alone, §IV-B explains the SMT1 breakdown
    through which factors go blind at low SMT levels, and the ablation
    bench drops factors one at a time.
    """

    value: float
    mix_deviation: float
    dispatch_held: float
    scalability_ratio: float
    smt_level: int
    arch_name: str

    def __post_init__(self):
        for name in ("value", "mix_deviation", "dispatch_held"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.scalability_ratio <= 0:
            raise ValueError(
                f"scalability_ratio must be > 0, got {self.scalability_ratio}"
            )

    def factors(self) -> Tuple[float, float, float]:
        return (self.mix_deviation, self.dispatch_held, self.scalability_ratio)

    def __float__(self) -> float:
        return self.value


def smtsm(sample: CounterSample) -> SmtsmResult:
    """Evaluate the SMT-selection metric on a counter sample.

    Everything comes from online-measurable quantities: per-class (or
    per-port) issue counters for the mix term, the dispatch-held
    counter for the second term, and wall/CPU times for the third.
    """
    deviation, held, scalability = _smtsm_terms(sample)
    return SmtsmResult(
        value=deviation * held * scalability,
        mix_deviation=deviation,
        dispatch_held=held,
        scalability_ratio=scalability,
        smt_level=sample.smt_level,
        arch_name=sample.arch.name,
    )


def _smtsm_terms(sample: CounterSample) -> Tuple[float, float, float]:
    """The three Eq. 1 factors: mix deviation, dispatch-held fraction,
    scalability ratio.  The value is their product, in that order; the
    online controller reads them without building an
    :class:`SmtsmResult` per sample."""
    diff = sample.metric_fractions() - metric_layout(sample.arch)[1]
    deviation = math.sqrt((diff * diff).sum())
    return deviation, sample.dispatch_held_fraction, sample.scalability_ratio


def smtsm_from_run(result: RunResult) -> SmtsmResult:
    """Convenience: evaluate the metric on a simulated run's counters."""
    return smtsm(result.counter_sample())
