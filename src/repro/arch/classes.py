"""Instruction classes and instruction-mix vectors.

The paper reasons about five architecture-neutral instruction classes
(its POWER7 metric, Eq. 2, is written directly over them): loads,
stores, branches, fixed-point (integer) and vector-scalar (floating
point / SIMD).  A workload's *instruction mix* is a probability vector
over these classes; architectures map the classes onto issue ports.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping, Optional, Union

import numpy as np

from repro.util.validation import check_probability_vector


class InstrClass(enum.IntEnum):
    """Architecture-neutral instruction classes (paper §II)."""

    LOAD = 0
    STORE = 1
    BRANCH = 2
    FX = 3  # fixed point / integer ALU
    VS = 4  # vector-scalar: floating point and SIMD

    @property
    def is_memory(self) -> bool:
        return self in (InstrClass.LOAD, InstrClass.STORE)


#: Canonical ordering used for every mix vector in the package.
CLASS_ORDER = tuple(InstrClass)
N_CLASSES = len(CLASS_ORDER)


class Mix:
    """An immutable instruction-mix vector over :data:`CLASS_ORDER`.

    Mixes are validated to be probability vectors at construction.  The
    class supports the operations the simulator needs: blending (for
    spin-loop pollution of a base mix), per-class lookup, and conversion
    to/from numpy arrays.
    """

    __slots__ = ("_vec", "_hash")

    def __init__(self, values: Union[Mapping[InstrClass, float], Iterable[float]]):
        if isinstance(values, Mapping):
            vec = np.zeros(N_CLASSES, dtype=float)
            for klass, frac in values.items():
                vec[InstrClass(klass)] = float(frac)
        else:
            vec = np.asarray(list(values), dtype=float)
            if vec.shape != (N_CLASSES,):
                raise ValueError(
                    f"mix vector must have {N_CLASSES} entries "
                    f"({[c.name for c in CLASS_ORDER]}), got shape {vec.shape}"
                )
        self._vec = check_probability_vector("instruction mix", vec)
        self._vec.flags.writeable = False
        self._hash: Optional[int] = None

    # -- constructors -------------------------------------------------
    @classmethod
    def from_counts(cls, counts: Mapping[InstrClass, float]) -> "Mix":
        """Build a mix from raw per-class instruction counts."""
        vec = np.zeros(N_CLASSES, dtype=float)
        for klass, count in counts.items():
            if count < 0:
                raise ValueError(f"negative count for {InstrClass(klass).name}: {count}")
            vec[InstrClass(klass)] = float(count)
        total = vec.sum()
        if total <= 0:
            raise ValueError("cannot build a mix from all-zero counts")
        return cls(vec / total)

    @classmethod
    def uniform(cls) -> "Mix":
        return cls(np.full(N_CLASSES, 1.0 / N_CLASSES))

    # -- accessors -----------------------------------------------------
    def __getitem__(self, klass: InstrClass) -> float:
        return float(self._vec[InstrClass(klass)])

    @property
    def vector(self) -> np.ndarray:
        """Read-only numpy view in :data:`CLASS_ORDER` order."""
        return self._vec

    @property
    def memory_fraction(self) -> float:
        return self[InstrClass.LOAD] + self[InstrClass.STORE]

    def as_dict(self) -> Dict[InstrClass, float]:
        return {klass: float(self._vec[klass]) for klass in CLASS_ORDER}

    # -- operations ----------------------------------------------------
    def blend(self, other: "Mix", weight: float) -> "Mix":
        """Return ``(1-weight)*self + weight*other``.

        Used to model spin-wait pollution: time spent in a spin loop
        replaces a fraction of the application's instruction stream with
        the spin loop's branch/load-heavy stream (paper §II: "an
        application that spends significant time spinning on locks will
        have a large percentage of branch instructions").
        """
        if not (0.0 <= weight <= 1.0):
            raise ValueError(f"blend weight must be in [0, 1], got {weight}")
        return Mix((1.0 - weight) * self._vec + weight * other.vector)

    def deviation_from(self, ideal: np.ndarray) -> float:
        """Euclidean distance to an ideal vector (first SMTsm factor)."""
        ideal = np.asarray(ideal, dtype=float)
        if ideal.shape != self._vec.shape:
            raise ValueError(
                f"ideal vector shape {ideal.shape} != mix shape {self._vec.shape}"
            )
        return float(np.sqrt(np.sum((self._vec - ideal) ** 2)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mix):
            return NotImplemented
        return bool(np.allclose(self._vec, other._vec, atol=1e-12))

    def __hash__(self) -> int:
        # The vector is read-only, so the rounded-tuple hash is computed
        # once; serial-rate memo lookups hash the same mixes repeatedly.
        if self._hash is None:
            self._hash = hash(tuple(np.round(self._vec, 12)))
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{c.name}={self._vec[c]:.3f}" for c in CLASS_ORDER)
        return f"Mix({parts})"


#: The instruction stream of a test-and-test-and-set spin loop: a load of
#: the lock word, a compare (FX), and a conditional branch, repeated.
SPIN_LOOP_MIX = Mix(
    {
        InstrClass.LOAD: 0.35,
        InstrClass.STORE: 0.02,
        InstrClass.BRANCH: 0.38,
        InstrClass.FX: 0.25,
        InstrClass.VS: 0.0,
    }
)
