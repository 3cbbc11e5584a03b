"""Persistent on-disk cache of converged :class:`RunResult`s.

A full catalog sweep is deterministic: the result of one run is a pure
function of the architecture, system shape, run spec (stream, sync,
work, seed, noise) and the simulator's model constants.  Bench sessions
and figure projections repeat the same sweeps over and over, so the
converged results are content-addressed and stored on disk — a rerun
with identical inputs is a file read, not a simulation.

The cache key is a SHA-256 over a canonical JSON rendering of:

* ``MODEL_VERSION`` — bumped whenever the simulator's semantics change;
* the physics constants of every model layer (cache pressure caps,
  bandwidth knee, spin iteration count, ...), so editing a constant
  invalidates stale entries automatically;
* the full architecture description (ports, partition, caches, ...);
* the system shape and every :class:`RunSpec` field (stream, sync,
  thread count, work, seed, noise).

Floats are embedded with ``repr`` round-tripping (Python's ``json``
preserves IEEE doubles exactly), so any change in any input produces a
different key.  Entries live under ``results/.runcache/`` by default;
override with the ``REPRO_RUNCACHE_DIR`` environment variable or the
constructor argument, and disable default use entirely by setting
``REPRO_RUNCACHE=0``.  Stored payloads carry the full result (times,
counter events, per-thread IPC), so a cache hit reconstructs a
:class:`RunResult` that is exactly equal to the recomputed one.

**Multi-process safety.**  The serving tier's worker pool has many
processes reading and writing one cache directory concurrently, with
no lock.  Three rules make that safe:

* *Atomic publish*: :meth:`RunCache.put` writes the payload to an
  exclusive ``mkstemp`` temp file in the cache directory and publishes
  it with ``os.replace`` — atomic within a filesystem — so a reader
  sees either no entry or a complete entry, never a torn half-write.
  Concurrent writers of the same key are last-write-wins, which is
  harmless: the payload is a pure function of the key.
* *Schema-checked reads*: every :meth:`RunCache.get` validates the
  stored ``schema`` stamp and the full field set before trusting the
  bytes; anything malformed is counted (``runcache.corrupt`` /
  ``runcache.schema_mismatch``), deleted, and treated as a miss —
  unlinking is itself atomic, so racing readers degrade to misses.
* *Crash-safe cleanup*: a writer killed between ``mkstemp`` and
  ``os.replace`` leaves only an orphaned ``*.tmp`` file that no reader
  ever looks at (``get`` resolves ``*.json`` paths only);
  :meth:`RunCache.clear` sweeps such stragglers.

``tests/sim/test_runcache_concurrent.py`` hammers these guarantees
with N simultaneous writer/reader processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.arch.machine import Architecture
from repro.obs import get_tracer
from repro.sim import chip, fast_core, memory
from repro.sim.branch import SHARING_PENALTY_PER_THREAD
from repro.sim.cache import (
    MAX_PRESSURE_SCALE,
    MAX_RELATIVE_PRESSURE,
    MIN_RELATIVE_PRESSURE,
)
from repro.sim.results import RunResult
from repro.sim.stream import REF_L1_KB, REF_L2_KB, REF_L3_MB_PER_THREAD
from repro.simos.timebase import TimeAccounting

#: Bump on any behavioural change to the solvers or run loop.
MODEL_VERSION = 1

#: Environment switches.
ENV_DISABLE = "REPRO_RUNCACHE"      # "0" disables default caching
ENV_CACHE_DIR = "REPRO_RUNCACHE_DIR"

DEFAULT_CACHE_DIR = Path("results") / ".runcache"


def cache_enabled_by_default() -> bool:
    """Whether callers should cache when the user expressed no choice."""
    return os.environ.get(ENV_DISABLE, "1") != "0"


def default_cache_dir() -> Path:
    return Path(os.environ.get(ENV_CACHE_DIR, str(DEFAULT_CACHE_DIR)))


def _constants_fingerprint() -> Dict[str, Any]:
    """Model constants whose change must invalidate cached runs."""
    from repro.arch.classes import SPIN_LOOP_MIX
    from repro.sim.engine import MAX_SPIN, SPIN_ITERATIONS

    return {
        "queue_fill_factor": fast_core.QUEUE_FILL_FACTOR,
        "priority_weight_base": fast_core.PRIORITY_WEIGHT_BASE,
        "neutral_priority": fast_core.NEUTRAL_PRIORITY,
        "sharing_penalty_per_thread": SHARING_PENALTY_PER_THREAD,
        "max_pressure_scale": MAX_PRESSURE_SCALE,
        "relative_pressure": [MIN_RELATIVE_PRESSURE, MAX_RELATIVE_PRESSURE],
        "ref_geometry": [REF_L1_KB, REF_L2_KB, REF_L3_MB_PER_THREAD],
        "rho_cap": memory.RHO_CAP,
        "max_latency_mult": memory.MAX_LATENCY_MULT,
        "bisection": [chip.BISECTION_STEPS, chip.TOLERANCE],
        "spin": [SPIN_ITERATIONS, MAX_SPIN],
        "spin_loop_mix": SPIN_LOOP_MIX.vector.tolist(),
        "model_version": MODEL_VERSION,
    }


def _arch_fingerprint(arch: Architecture) -> Dict[str, Any]:
    topo = arch.topology
    part = arch.partition
    return {
        "name": arch.name,
        "frequency_ghz": arch.frequency_ghz,
        "cores_per_chip": arch.cores_per_chip,
        "smt_levels": list(arch.smt_levels),
        "routing": topo.routing_matrix.tolist(),
        "capacities": topo.capacities.tolist(),
        "port_names": list(topo.port_names),
        "partition": {
            "fetch_width": part.fetch_width,
            "dispatch_width": part.dispatch_width,
            "issue_width": part.issue_width,
            "queue_entries": part.queue_entries,
            "rob_entries": part.rob_entries,
            "queue_share": {str(k): v for k, v in sorted(part.queue_share.items())},
            "rob_share": {str(k): v for k, v in sorted(part.rob_share.items())},
            "smt1_boost": part.smt1_boost,
        },
        "caches": asdict(arch.caches),
        "branch_penalty": arch.branch_penalty,
        "metric_space": arch.metric_space,
        "ideal_class_fractions": (
            list(arch.ideal_class_fractions)
            if arch.ideal_class_fractions is not None
            else None
        ),
        "dispatch_held_event": arch.dispatch_held_event,
    }


def _spec_fingerprint(spec) -> Dict[str, Any]:
    stream = spec.stream
    return {
        "smt_level": spec.smt_level,
        "n_threads": spec.resolved_threads(),
        "n_chips": spec.system.n_chips,
        "useful_instructions": spec.useful_instructions,
        "seed": spec.seed,
        "noise_rel": spec.noise_rel,
        "stream": {
            "mix": stream.mix.vector.tolist(),
            "ilp": stream.ilp,
            "mlp": stream.mlp,
            "branch_mispredict_rate": stream.branch_mispredict_rate,
            "memory": asdict(stream.memory),
        },
        "sync": asdict(spec.sync),
    }


#: Architectures are unhashable (dict-valued partition tables), so their
#: serialized fingerprints are memoized by object identity; the stored
#: reference pins the id against reuse.  The memo is cleared when full,
#: so freshly built architectures cannot grow it without bound.
_ARCH_FP_CACHE: Dict[int, Tuple[Architecture, str]] = {}
_ARCH_FP_CACHE_MAX = 64


def _arch_fp_json(arch: Architecture) -> str:
    hit = _ARCH_FP_CACHE.get(id(arch))
    if hit is not None and hit[0] is arch:
        return hit[1]
    text = json.dumps(_arch_fingerprint(arch), sort_keys=True)
    if len(_ARCH_FP_CACHE) >= _ARCH_FP_CACHE_MAX:
        _ARCH_FP_CACHE.clear()
    _ARCH_FP_CACHE[id(arch)] = (arch, text)
    return text


_CONSTANTS_FP_JSON: Optional[str] = None


def _constants_fp_json() -> str:
    global _CONSTANTS_FP_JSON
    if _CONSTANTS_FP_JSON is None:
        _CONSTANTS_FP_JSON = json.dumps(_constants_fingerprint(), sort_keys=True)
    return _CONSTANTS_FP_JSON


def run_cache_key(spec) -> str:
    """Content-hash key for one :class:`repro.sim.engine.RunSpec`."""
    digest = hashlib.sha256()
    digest.update(_constants_fp_json().encode())
    digest.update(b"\x00")
    digest.update(_arch_fp_json(spec.system.arch).encode())
    digest.update(b"\x00")
    digest.update(json.dumps(_spec_fingerprint(spec), sort_keys=True).encode())
    return digest.hexdigest()


#: Version of the stored-payload *format* (distinct from
#: :data:`MODEL_VERSION`, which fingerprints solver behaviour and is
#: part of the key).  Bump whenever ``_result_payload`` changes shape so
#: that entries written by an older layout are rejected instead of
#: silently deserializing into wrong fields.
PAYLOAD_SCHEMA = 2


def _result_payload(result: RunResult) -> Dict[str, Any]:
    return {
        "schema": PAYLOAD_SCHEMA,
        "smt_level": result.smt_level,
        "n_threads": result.n_threads,
        "n_chips": result.n_chips,
        "useful_instructions": result.useful_instructions,
        "times": asdict(result.times),
        "events": dict(result.events),
        "spin_fraction": result.spin_fraction,
        "blocked_fraction": result.blocked_fraction,
        "mem_latency_mult": result.mem_latency_mult,
        "mem_utilization": result.mem_utilization,
        "per_thread_ipc": list(result.per_thread_ipc),
        "dispatch_held_fraction": result.dispatch_held_fraction,
    }


def _result_from_payload(payload: Dict[str, Any], arch: Architecture) -> RunResult:
    return RunResult(
        arch=arch,
        smt_level=int(payload["smt_level"]),
        n_threads=int(payload["n_threads"]),
        n_chips=int(payload["n_chips"]),
        useful_instructions=float(payload["useful_instructions"]),
        times=TimeAccounting(**payload["times"]),
        events=dict(payload["events"]),
        spin_fraction=float(payload["spin_fraction"]),
        blocked_fraction=float(payload["blocked_fraction"]),
        mem_latency_mult=float(payload["mem_latency_mult"]),
        mem_utilization=float(payload["mem_utilization"]),
        per_thread_ipc=tuple(float(v) for v in payload["per_thread_ipc"]),
        dispatch_held_fraction=float(payload["dispatch_held_fraction"]),
    )


class RunCache:
    """Content-addressed store of converged runs under one directory.

    All I/O failures degrade to cache misses (``get``) or silent no-ops
    (``put``): a read-only filesystem or a corrupt entry never breaks a
    sweep, it just forfeits the speedup.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def key(self, spec) -> str:
        return run_cache_key(spec)

    def get(self, spec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` on a miss.

        Telemetry: ``runcache.hits`` / ``runcache.misses`` count lookup
        outcomes; a present-but-malformed entry additionally counts as
        ``runcache.corrupt`` and is *deleted* — it behaves as a miss
        once, instead of being re-parsed (and re-missed) on every
        sweep until someone clears the cache by hand.  An entry whose
        stored ``schema`` differs from :data:`PAYLOAD_SCHEMA` (written
        by an older/newer layout) is likewise deleted and counted as
        ``runcache.schema_mismatch``.
        """
        tracer = get_tracer()
        path = self._path(run_cache_key(spec))
        try:
            text = path.read_text()
        except OSError:
            tracer.add("runcache.misses")
            return None
        try:
            payload = json.loads(text)
            if (not isinstance(payload, dict)
                    or payload.get("schema") != PAYLOAD_SCHEMA):
                # A different (or pre-versioning) payload layout: the
                # fields may parse but mean something else.  Refuse it.
                tracer.add("runcache.misses")
                tracer.add("runcache.schema_mismatch")
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing eviction
                    pass
                return None
            result = _result_from_payload(payload, spec.system.arch)
        except (ValueError, KeyError, TypeError):
            tracer.add("runcache.misses")
            tracer.add("runcache.corrupt")
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing eviction
                pass
            return None
        tracer.add("runcache.hits")
        return result

    def put(self, spec, result: RunResult) -> None:
        """Store ``result`` under ``spec``'s key (atomic, best-effort)."""
        get_tracer().add("runcache.puts")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(_result_payload(result))
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, self._path(run_cache_key(spec)))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Also sweeps orphaned ``*.tmp`` files — the droppings of a
        writer killed between ``mkstemp`` and the atomic publish
        (counted separately as ``runcache.tmp_swept``, not in the
        return value).
        """
        removed = 0
        swept = 0
        try:
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.root.glob("*.tmp"):
                try:
                    path.unlink()
                    swept += 1
                except OSError:
                    pass
        except OSError:
            pass
        tracer = get_tracer()
        tracer.add("runcache.invalidated", removed)
        if swept:
            tracer.add("runcache.tmp_swept", swept)
        return removed

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0
