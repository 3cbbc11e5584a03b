"""Noise-hardened online SMTsm estimation and SMT-level control.

:func:`repro.core.metric.smtsm` assumes a perfect sample: every event
present, every count honest.  A production controller cannot — counter
groups drop out of the multiplex rotation, single counters glitch, and
phase boundaries spike the dispatch-held factor.  This module is the
defensive layer:

* :func:`robust_smtsm` never raises on an incomplete sample.  When
  metric-space events are missing it substitutes their *ideal* share
  (the zero-deviation assumption — conservative, it never manufactures
  deviation that was not observed) and reports a ``confidence`` equal
  to the observed fraction of the ideal mass.  With nothing missing it
  reproduces :func:`~repro.core.metric.smtsm` exactly.
* :class:`HardenedController` turns a stream of noisy samples into
  stable SMT-level decisions: confidence-weighted EWMA smoothing,
  outlier rejection, a hysteresis band around each predictor threshold,
  and a switch cooldown (debounce) so one glitched interval can never
  thrash the SMT level.  Below the maximum level the metric is blind
  (§IV-B), so the controller counts blind intervals and probes back up.
* :func:`naive_decision` is the strawman the robustness ablation
  compares against: trust one raw reading, crash on missing events.
* :func:`drive_online` wires an app (optionally fault-injected), a
  :class:`~repro.counters.perfstat.PerfStat` sampler and a controller
  into a closed loop that actually switches the app's SMT level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.metric import _smtsm_terms, smtsm
from repro.core.predictor import SmtPredictor
from repro.counters.pmu import CounterSample, metric_layout
from repro.obs import get_tracer
from repro.util.validation import check_fraction, check_positive


@dataclass(frozen=True)
class RobustSmtsm:
    """A degradation-aware SMTsm estimate.

    ``value`` is ``None`` only when *no* metric-space event survived
    (confidence 0); otherwise it is the best available estimate and
    ``confidence`` in ``(0, 1]`` is the fraction of the ideal-vector
    mass actually observed.  ``degraded`` flags any fallback at all.
    """

    value: Optional[float]
    confidence: float
    degraded: bool
    missing_events: Tuple[str, ...]
    smt_level: int
    arch_name: str


def robust_smtsm(sample: CounterSample) -> RobustSmtsm:
    """Evaluate SMTsm, degrading gracefully on missing events."""
    value, confidence, missing = _estimate(sample)
    return RobustSmtsm(
        value=value,
        confidence=confidence,
        degraded=bool(missing),
        missing_events=missing,
        smt_level=sample.smt_level,
        arch_name=sample.arch.name,
    )


def _estimate(
    sample: CounterSample,
) -> Tuple[Optional[float], float, Tuple[str, ...]]:
    """``(value, confidence, missing_events)`` of :func:`robust_smtsm`."""
    names, ideal = metric_layout(sample.arch)
    missing = tuple(n for n in names if n not in sample.events)
    if not missing:
        deviation, held, scalability = _smtsm_terms(sample)
        if held < 0:
            # The one factor a valid sample can still get wrong;
            # smtsm() refuses it too.
            raise ValueError(f"dispatch_held must be >= 0, got {held}")
        return deviation * held * scalability, 1.0, ()

    present = [i for i, n in enumerate(names) if n not in missing]
    observed_mass = float(sum(ideal[i] for i in present))
    observed_total = float(sum(sample.events[names[i]] for i in present))
    if observed_mass <= 0.0 or observed_total <= 0.0:
        return None, 0.0, missing

    # Assume the unobserved classes sat exactly at their ideal share:
    # estimate the grand total from the observed slice, then fill the
    # holes with the ideal fractions themselves (zero contribution to
    # the deviation term).
    total_est = observed_total / observed_mass
    deviation_sq = 0.0
    for i in present:
        frac = sample.events[names[i]] / total_est
        deviation_sq += (frac - float(ideal[i])) ** 2
    deviation = math.sqrt(deviation_sq)
    value = deviation * sample.dispatch_held_fraction * sample.scalability_ratio
    return value, observed_mass, missing


@dataclass(frozen=True)
class HardenedConfig:
    """Controller knobs (see ``docs/robustness.md`` for tuning guidance).

    ``ewma_alpha`` — weight of a fresh full-confidence reading; degraded
    readings are folded in with ``alpha * confidence``.
    ``hysteresis_rel`` — relative dead band around each predictor
    threshold: leaving the max level requires the smoothed metric to
    clear ``threshold * (1 + band)``, returning requires it to fall
    under ``threshold * (1 - band)``.
    ``cooldown_intervals`` — decision intervals after a switch during
    which no further switch is allowed (debounce).
    ``min_confidence`` — readings below this confidence update the
    estimate but never trigger a switch.
    ``warmup_samples`` — observations required before the first switch.
    ``outlier_rel`` — a reading farther than this factor from the
    smoothed estimate (either direction) is folded in at a tenth of its
    weight; heavy-tailed glitches die here instead of in the EWMA.
    ``probe_every`` — blind (below-max) intervals tolerated before the
    controller schedules a probe back to the max level.
    """

    ewma_alpha: float = 0.3
    hysteresis_rel: float = 0.15
    cooldown_intervals: int = 3
    min_confidence: float = 0.5
    warmup_samples: int = 3
    outlier_rel: float = 3.0
    probe_every: int = 6

    def __post_init__(self):
        check_fraction("ewma_alpha", self.ewma_alpha)
        if self.ewma_alpha == 0.0:
            raise ValueError("ewma_alpha must be > 0 (new samples must count)")
        check_positive("hysteresis_rel", self.hysteresis_rel)
        if self.hysteresis_rel >= 1.0:
            raise ValueError(
                f"hysteresis_rel must be < 1, got {self.hysteresis_rel}"
            )
        if self.cooldown_intervals < 0:
            raise ValueError(
                f"cooldown_intervals must be >= 0, got {self.cooldown_intervals}"
            )
        check_fraction("min_confidence", self.min_confidence)
        if self.warmup_samples < 1:
            raise ValueError(
                f"warmup_samples must be >= 1, got {self.warmup_samples}"
            )
        if self.outlier_rel <= 1.0:
            raise ValueError(f"outlier_rel must be > 1, got {self.outlier_rel}")
        if self.probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {self.probe_every}")


@dataclass(frozen=True)
class ControllerDecision:
    """The controller's state after folding in one sample."""

    index: int
    level: int
    raw: Optional[float]
    smoothed: Optional[float]
    confidence: float
    degraded: bool
    switched_to: Optional[int]


class HardenedController:
    """Noise-tolerant online SMT-level selection.

    ``predictors`` maps each lower SMT level to its fitted
    :class:`~repro.core.predictor.SmtPredictor` against the maximum
    level, exactly as :class:`~repro.core.optimizer.OptimizerConfig`
    does; the controller starts at (and probes back to) the max level.
    """

    def __init__(
        self,
        predictors: Dict[int, SmtPredictor],
        config: Optional[HardenedConfig] = None,
    ):
        if not predictors:
            raise ValueError("need at least one lower-level predictor")
        highs = {p.high_level for p in predictors.values()}
        if len(highs) != 1:
            raise ValueError(f"predictors disagree on the max level: {highs}")
        self.max_level = highs.pop()
        for low, pred in predictors.items():
            if pred.low_level != low or low >= self.max_level:
                raise ValueError(
                    f"predictor keyed {low} covers SMT{pred.high_level}v"
                    f"SMT{pred.low_level}; key must equal its low level "
                    f"and sit below SMT{self.max_level}"
                )
        self.predictors = dict(predictors)
        self.config = config if config is not None else HardenedConfig()
        # The hysteresis edges, lowest level first: leaving the max
        # level must clear threshold * (1 + band), returning must fall
        # under threshold * (1 - band).
        band = self.config.hysteresis_rel
        ordered = [(low, self.predictors[low].threshold)
                   for low in sorted(self.predictors)]
        self._leave_edges = tuple((low, t * (1.0 + band)) for low, t in ordered)
        self._return_edges = tuple((low, t * (1.0 - band)) for low, t in ordered)
        self.level = self.max_level
        self.smoothed: Optional[float] = None
        self._n = 0
        self._cooldown = 0
        self._blind = 0
        self.n_switches = 0

    # -- decision core -------------------------------------------------
    def _target(self, metric: float) -> int:
        """Hysteresis-banded version of the optimizer's level choice."""
        # Staying put is favoured: the band a crossing must clear
        # depends on which side the controller currently sits on.
        edges = self._leave_edges if self.level == self.max_level \
            else self._return_edges
        for low, edge in edges:
            if metric > edge:
                return low
        return self.max_level

    def observe(self, sample: CounterSample) -> ControllerDecision:
        """Fold one interval in; maybe decide to switch levels."""
        index = self._n
        raw, confidence, degraded, switched = self.fold(sample)
        return ControllerDecision(
            index=index, level=self.level, raw=raw, smoothed=self.smoothed,
            confidence=confidence, degraded=degraded, switched_to=switched,
        )

    def fold(
        self, sample: CounterSample
    ) -> Tuple[Optional[float], float, bool, Optional[int]]:
        """Fold one interval into the controller state, in place.

        Returns ``(raw, confidence, degraded, switched_to)``, the
        per-sample fields of :meth:`observe`'s decision record, which
        callers that only read :attr:`level` never build.
        """
        tracer = get_tracer()
        cfg = self.config
        self._n += 1
        switched: Optional[int] = None

        if sample.smt_level != self.max_level:
            # §IV-B: the metric is blind below the max level.  Count the
            # interval and schedule a probe back up instead of updating.
            self._blind += 1
            tracer.add("controller.blind")
            if self._cooldown > 0:
                self._cooldown -= 1
            elif self._blind >= cfg.probe_every:
                switched = self._switch(self.max_level)
                tracer.add("controller.probes")
            return None, 0.0, False, switched
        self._blind = 0

        raw, confidence, missing = _estimate(sample)
        if missing:
            tracer.add("controller.degraded")
        if raw is None:
            # Nothing measurable this interval; hold everything.
            tracer.add("controller.skipped")
            if self._cooldown > 0:
                self._cooldown -= 1
            return None, 0.0, True, None

        weight = cfg.ewma_alpha * confidence
        if self.smoothed is None:
            self.smoothed = raw
        else:
            lo, hi = self.smoothed / cfg.outlier_rel, self.smoothed * cfg.outlier_rel
            if raw < lo or raw > hi:
                tracer.add("controller.outliers")
                weight *= 0.1
            self.smoothed = weight * raw + (1.0 - weight) * self.smoothed

        if self._cooldown > 0:
            self._cooldown -= 1
            tracer.add("controller.held_cooldown")
        elif self._n >= cfg.warmup_samples and confidence >= cfg.min_confidence:
            target = self._target(self.smoothed)
            if target != self.level:
                switched = self._switch(target)
        elif confidence < cfg.min_confidence:
            tracer.add("controller.held_confidence")

        return raw, confidence, bool(missing), switched

    def _switch(self, target: int) -> int:
        self.level = target
        self._cooldown = self.config.cooldown_intervals
        self.n_switches += 1
        get_tracer().add("controller.switches")
        return target

    def reset(self) -> None:
        """Forget the estimate (e.g. after an external phase signal)."""
        self.smoothed = None
        self._n = 0
        self._blind = 0
        self._cooldown = 0


def naive_decision(
    sample: CounterSample, predictors: Dict[int, SmtPredictor]
) -> Optional[int]:
    """The unhardened baseline: one raw reading, no smoothing, no mercy.

    Returns the chosen SMT level, or ``None`` when the raw metric
    cannot be evaluated at all (missing events) — the situation in
    which a naive controller simply crashes.
    """
    try:
        metric = smtsm(sample).value
    except (KeyError, ValueError):
        return None
    max_level = next(iter(predictors.values())).high_level
    for low in sorted(predictors):
        if not predictors[low].predicts_higher(metric):
            return low
    return max_level


def drive_online(
    app,
    perf,
    controller: HardenedController,
    n_intervals: int,
) -> List[ControllerDecision]:
    """Closed loop: sample ``app`` through ``perf``, let ``controller``
    decide, and apply its switches to the app (when it supports
    ``switch_level``).  Returns the per-interval decisions."""
    if n_intervals < 1:
        raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
    decisions: List[ControllerDecision] = []
    can_switch = hasattr(app, "switch_level")
    for _ in range(n_intervals):
        reading = perf.sample(app)
        decision = controller.observe(reading.sample)
        if decision.switched_to is not None and can_switch:
            app.switch_level(decision.switched_to)
        decisions.append(decision)
    return decisions
