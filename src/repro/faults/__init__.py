"""Deterministic fault injection for the online-measurement stack.

Two halves:

* **counter faults** — :class:`FaultConfig` (the fault model) and
  :class:`FaultyApp` (a ``MeasurableApp`` wrapper that corrupts the
  samples of whatever it wraps, reproducibly, from seeded RNG
  streams).  :func:`noise_profile` is the one-knob composite severity
  the robustness ablation sweeps.
* **serving chaos** — :class:`ChaosConfig` injects worker hangs, hard
  crashes, slow jobs and response corruption into the ``repro.serve``
  worker pool (:class:`ChaosPlan` executes it inside each worker);
  :func:`chaos_profile` is the serving analogue of
  :func:`noise_profile`, one scalar severity over every chaos axis.

:class:`RetryPolicy` is the bounded-retry policy the ``repro.serve``
worker dispatch recovers with.

See ``docs/robustness.md`` for the fault model and tuning guidance.
"""

from repro.faults.app import PROTECTED_EVENTS, FaultyApp
from repro.faults.chaos import (
    ENV_SERVE_CHAOS,
    ChaosConfig,
    ChaosPlan,
    chaos_profile,
)
from repro.faults.model import FaultConfig, noise_profile
from repro.faults.retry import RetryPolicy

__all__ = [
    "ChaosConfig",
    "ChaosPlan",
    "chaos_profile",
    "ENV_SERVE_CHAOS",
    "FaultConfig",
    "noise_profile",
    "FaultyApp",
    "PROTECTED_EVENTS",
    "RetryPolicy",
]
