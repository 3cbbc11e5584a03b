"""Argument validation helpers.

The simulator configuration surface is large (architectures, workloads,
cache geometries); failing fast with a precise message at construction
time is much cheaper than debugging a nonsense steady-state downstream.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Validate ``value`` lies in [0, 1] (or (0, 1) when not inclusive)."""
    v = float(value)
    if inclusive:
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not (0.0 < v < 1.0):
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return v


def check_positive(name: str, value: float) -> float:
    v = float(value)
    if not (v > 0.0) or not math.isfinite(v):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return v


def check_nonnegative(name: str, value: float) -> float:
    v = float(value)
    if v < 0.0 or not math.isfinite(v):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return v


def check_probability_vector(name: str, values: Iterable[float], *, atol: float = 1e-6) -> np.ndarray:
    """Validate a vector of non-negative fractions summing to 1."""
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector, got shape {arr.shape}")
    if np.any(arr < -atol):
        raise ValueError(f"{name} has negative entries: {arr.tolist()}")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-9 * arr.size):
        raise ValueError(f"{name} must sum to 1 (got {total:.9f}): {arr.tolist()}")
    # Renormalize so downstream code can rely on sum == 1 up to round-off.
    # A vector already within summation round-off of 1 is returned as is:
    # dividing it again would move entries by an ulp, so validating an
    # already-validated vector would not be idempotent (a Mix rebuilt from
    # another Mix's vector would then hash differently while comparing
    # equal).  One division leaves the sum within ``size * eps`` of 1.
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > arr.size * np.finfo(float).eps:
        arr = arr / total
    return arr


def check_int_in(name: str, value: int, allowed: Iterable[int]) -> int:
    v = int(value)
    allowed = tuple(allowed)
    if v not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return v
