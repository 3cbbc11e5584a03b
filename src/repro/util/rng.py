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
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

Key = Union[str, int]

_U32 = 0xFFFFFFFF


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
            material = self._entropy()
            if self.seed <= _U32:
                material = np.array(material, dtype=np.uint32)
            self._gen = np.random.default_rng(np.random.SeedSequence(material))
        return self._gen

    def _entropy(self) -> List[int]:
        return [self.seed] + [_key_to_int(k) for k in self.keys]

    def child(self, *keys: Key) -> "RngStream":
        """Derive an independent stream for a named sub-component."""
        return RngStream(self.seed, self.keys + tuple(keys))

    # Convenience passthroughs used throughout the simulator ----------
    # (``self._gen or self.gen``: a seeded stream skips the property.)
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return (self._gen or self.gen).uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return (self._gen or self.gen).normal(loc, scale, size)

    def geometric(self, p: float, size=None):
        return (self._gen or self.gen).geometric(p, size)

    def random(self, size=None):
        return (self._gen or self.gen).random(size)

    def integers(self, low: int, high: int, size=None):
        return (self._gen or self.gen).integers(low, high, size)

    def choice(self, a, size=None, p=None):
        return (self._gen or self.gen).choice(a, size=size, p=p)

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


# -- batch seeding -------------------------------------------------------
#
# ``SeedSequence`` mixes its entropy with a fixed chain of 32-bit hash
# constants that does not depend on the data, so the state words of
# many entropy vectors of one length can be computed as uint32 column
# operations.  The constants and the mixing order are numpy's
# (``numpy/random/bit_generator.pyx``); a self-check against
# ``SeedSequence`` guards them.

_POOL_SIZE = 4
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row
    of a ``(n, length)`` uint32 entropy matrix (uint32 products wrap,
    as the reference's do)."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, length = entropy.shape
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A
        value = value * hash_a
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    with np.errstate(over="ignore"):
        zeros = np.zeros(n, dtype=np.uint32)
        pool = [hashmix(entropy[:, i] if i < length else zeros)
                for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(_POOL_SIZE, length):
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
        hash_b = _INIT_B
        words = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
        for i in range(2 * _POOL_SIZE):
            value = pool[i % _POOL_SIZE] ^ hash_b
            hash_b = hash_b * _MULT_B
            value = value * hash_b
            words[:, i] = value ^ (value >> _XSHIFT)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords:
    """A seed sequence that hands ``PCG64`` precomputed state words, so
    numpy's own C code seeds the generator.  Registered as an
    ``ISeedSequence`` by the self-check, so that importing this module
    does not load ``numpy.random``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed state words are 4 x uint64")
        return self.words


def _seeded(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


#: Entropy vectors the fast path must reproduce before it is trusted:
#: the edges of the uint32 range, and lengths on both sides of the pool.
_CHECK_ENTROPY = (
    (0,), (_U32,), (11, 0x2ACD4ECA), (0, 0, 0, 0),
    (_U32, _U32, _U32, _U32, _U32), (7, 1, 2, 3, 4, 5, 6, 8),
)
_fast_seeding: Optional[bool] = None


def _matches_seed_sequence(entropy) -> bool:
    row = np.array(entropy, dtype=np.uint32)
    words = _state_words(row[None, :])[0]
    reference = np.random.SeedSequence(row)
    return (
        np.array_equal(words, reference.generate_state(4, np.uint64))
        and _seeded(words).bit_generator.state
        == np.random.default_rng(reference).bit_generator.state
    )


def _fast_seeding_ok() -> bool:
    """Whether batch seeding matches ``SeedSequence`` on this numpy
    (checked once per process; on a mismatch every stream keeps
    ``SeedSequence`` for good)."""
    global _fast_seeding
    if _fast_seeding is None:
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_StateWords)
        try:
            _fast_seeding = all(map(_matches_seed_sequence, _CHECK_ENTROPY))
        except (TypeError, ValueError):
            _fast_seeding = False
    return _fast_seeding


#: Measured crossover, not a setting: a group of fewer streams seeds
#: faster one stream at a time through :attr:`RngStream.gen`.  The
#: vectorised pass has a fixed cost of ~150 µs and then ~4 µs per stream,
#: against ~12 µs per stream through ``SeedSequence`` (2-vCPU Xeon,
#: Python 3.11, numpy 2.4.6); the two meet at 16-17 streams.
_BATCH_MIN = 16


def seed_streams(streams: Iterable[RngStream]) -> None:
    """Seed many streams at once, each exactly as its first use would.

    Unseeded streams whose seed fits 32 bits (the ``uint32`` entropy of
    :attr:`RngStream.gen`) are grouped by entropy length.  A group of at
    least ``_BATCH_MIN`` streams gets its ``SeedSequence`` state words
    from one vectorised pass, then a ``PCG64`` seeded by numpy from
    those words; a smaller group is seeded stream by stream through
    :attr:`RngStream.gen`.  Streams that are already seeded, and wider
    seeds, are left to :attr:`RngStream.gen`.
    """
    by_length: Dict[int, List[RngStream]] = {}
    for stream in streams:
        if stream._gen is None and stream.seed <= _U32:
            by_length.setdefault(len(stream.keys), []).append(stream)
    if not by_length:
        return
    fast = _fast_seeding_ok()
    for group in by_length.values():
        if not fast or len(group) < _BATCH_MIN:
            for stream in group:
                stream.gen
            continue
        entropy = np.array([stream._entropy() for stream in group], dtype=np.uint32)
        for stream, words in zip(group, _state_words(entropy)):
            stream._gen = _seeded(words)
