"""Deterministic random-number plumbing.

Every stochastic component of the simulator draws from an
:class:`RngStream` derived from a single experiment seed, so that full
experiment sweeps are reproducible run-to-run while distinct components
(e.g. two hardware threads, or the PMU noise model vs. the branch
predictor) see statistically independent streams.

The scheme hashes a tuple of string/int keys into a ``numpy`` seed
sequence; it mirrors how large simulators hand out child seeds without
threading a generator object through every call site.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

import numpy as np

Key = Union[str, int]


class RngStream:
    """A named, forkable random stream.

    Wraps :class:`numpy.random.Generator` and remembers the key path used
    to derive it, so child streams are reproducible functions of
    ``(root_seed, *keys)``.
    """

    __slots__ = ("seed", "keys", "_gen")

    def __init__(self, seed: int, keys: tuple = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.keys = tuple(keys)
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        """The generator, seeded on first use.

        Streams that only derive children never pay for a PCG64.  Key
        material is always below 2**32, so a seed that also fits goes
        in as one ``uint32`` array — the same entropy words the list
        form coerces to, without the per-int conversion.
        """
        if self._gen is None:
            material = [self.seed] + [_key_to_int(k) for k in self.keys]
            if self.seed <= 0xFFFFFFFF:
                material = np.array(material, dtype=np.uint32)
            self._gen = np.random.default_rng(np.random.SeedSequence(material))
        return self._gen

    def child(self, *keys: Key) -> "RngStream":
        """Derive an independent stream for a named sub-component."""
        return RngStream(self.seed, self.keys + tuple(keys))

    # Convenience passthroughs used throughout the simulator ----------
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def geometric(self, p: float, size=None):
        return self.gen.geometric(p, size)

    def random(self, size=None):
        return self.gen.random(size)

    def integers(self, low: int, high: int, size=None):
        return self.gen.integers(low, high, size)

    def choice(self, a, size=None, p=None):
        return self.gen.choice(a, size=size, p=p)

    def jitter(self, value: float, rel_sigma: float) -> float:
        """Multiplicative log-normal-ish jitter used for run-to-run noise.

        ``rel_sigma`` is the relative standard deviation; the result is
        clamped to stay positive.
        """
        if rel_sigma <= 0.0:
            return value
        factor = 1.0 + self.gen.normal(0.0, rel_sigma)
        return value * max(0.05, factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, keys={self.keys!r})"


def _key_to_int(key: Key) -> int:
    if isinstance(key, int):
        return key & 0xFFFFFFFF
    return _fnv1a(str(key))


#: Stream keys repeat (arch names, component labels), so the byte loop
#: is memoized; the bound keeps arbitrary user keys from growing it.
_FNV_CACHE_MAX = 4096


@lru_cache(maxsize=_FNV_CACHE_MAX)
def _fnv1a(text: str) -> int:
    # FNV-1a over the utf-8 bytes: stable across processes (unlike hash()).
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


def spawn_rng(seed: int, *keys: Key) -> RngStream:
    """Create the root stream for an experiment component."""
    return RngStream(seed, tuple(keys))
