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
different key.

**How a key is assembled.**  The hashed text is
``constants JSON + NUL + arch JSON + NUL + spec JSON``, each part
``json.dumps(..., sort_keys=True)``.  Only the last part varies from
run to run, so a lookup does not re-render the rest:

* the SHA-256 state after ``constants + NUL + arch + NUL`` is kept per
  architecture (``_ARCH_MEMO``, which also serves the arch JSON to
  :func:`repro.check.goldens.model_fingerprint`); a key ``copy()``s it;
* the spec JSON's ``"stream"``/``"sync"`` sub-objects are rendered once
  per ``(stream, sync)`` pair (``_WORKLOAD_MEMO``), and the scalar
  fields are spliced around that fragment in ``sort_keys`` order, so
  the text is byte for byte what one ``json.dumps`` of the whole spec
  object would give.

Both memos key on object *identity* and pin the objects they key on
(so an id cannot be reused while its entry lives), never on value:
``data_sharing=-0.0`` equals ``0.0`` and hashes alike but renders
differently, so a value-keyed memo would hand one spec the other's key.
Registered architectures and catalog workloads are shared instances,
so repeated sweeps hit; each memo is cleared when it reaches its cap.
``tests/sim/test_runcache.py`` pins key and record bytes written by
earlier versions, so existing entries stay addressable.

Entries live under ``results/.runcache/`` by default;
override with the ``REPRO_RUNCACHE_DIR`` environment variable or the
constructor argument, and disable default use entirely by setting
``REPRO_RUNCACHE=0``.  Each entry, ``<key>.bin``, is one little-endian
record of the full result (times, counter events, per-thread IPC; the
layout is at :func:`_encode`), so a hit rebuilds a :class:`RunResult`
exactly equal to the recomputed one with one ``struct`` unpack.
Entries of the old JSON layout (``<key>.json``) are never read;
:meth:`RunCache.clear` removes them.

**Multi-process safety.**  The serving tier's worker pool has many
processes reading and writing one cache directory concurrently, with
no lock.  Three rules make that safe:

* *Atomic publish*: :meth:`RunCache.put` writes the record to an
  exclusive ``mkstemp`` temp file in the cache directory and publishes
  it with ``os.replace`` — atomic within a filesystem — so a reader
  sees either no entry or a complete entry, never a torn half-write.
  Concurrent writers of the same key are last-write-wins, which is
  harmless: the record is a pure function of the key.
* *Checked reads*: every :meth:`RunCache.get` checks the stamp, that
  the length and the names agree with the counts, and the
  ``RunResult``/``TimeAccounting`` validation before trusting the
  bytes; anything malformed is counted (``runcache.corrupt``, or
  ``runcache.schema_mismatch`` for the right magic with another
  schema), deleted, and treated as a miss — unlinking is itself
  atomic, so racing readers degrade to misses.
* *Crash-safe cleanup*: a writer killed between ``mkstemp`` and
  ``os.replace`` leaves only an orphaned ``*.tmp`` file that no reader
  ever looks at (``get`` resolves ``*.bin`` paths only);
  :meth:`RunCache.clear` sweeps such stragglers.

``tests/sim/test_runcache_concurrent.py`` hammers these guarantees
with N simultaneous writer/reader processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
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


_CONSTANTS_FP_JSON: Optional[str] = None


def _constants_fp_json() -> str:
    global _CONSTANTS_FP_JSON
    if _CONSTANTS_FP_JSON is None:
        _CONSTANTS_FP_JSON = json.dumps(_constants_fingerprint(), sort_keys=True)
    return _CONSTANTS_FP_JSON


#: Architectures are unhashable (dict-valued partition tables), so the
#: per-architecture part of every key is memoized by object identity:
#: ``id(arch) -> (arch, constants JSON, arch JSON, key prefix)``, where
#: the prefix is a SHA-256 already fed ``constants + NUL + arch + NUL``.
#: The stored reference pins the id against reuse; an entry built under
#: other constants is rebuilt.  The memo is cleared when full, so
#: freshly built architectures cannot grow it without bound.
_ARCH_MEMO: Dict[int, Tuple[Architecture, str, str, Any]] = {}
_ARCH_MEMO_MAX = 64


def _arch_entry(arch: Architecture) -> Tuple[Architecture, str, str, Any]:
    constants = _constants_fp_json()
    hit = _ARCH_MEMO.get(id(arch))
    if hit is not None and hit[0] is arch and hit[1] is constants:
        return hit
    arch_json = json.dumps(_arch_fingerprint(arch), sort_keys=True)
    prefix = hashlib.sha256(
        constants.encode() + b"\x00" + arch_json.encode() + b"\x00"
    )
    if len(_ARCH_MEMO) >= _ARCH_MEMO_MAX:
        _ARCH_MEMO.clear()
    entry = (arch, constants, arch_json, prefix)
    _ARCH_MEMO[id(arch)] = entry
    return entry


def _arch_fp_json(arch: Architecture) -> str:
    return _arch_entry(arch)[2]


#: The ``"stream": {...}, "sync": {...}`` fragment of the spec JSON,
#: memoized by the identities of the pair and pinned like the arch memo
#: (never by value: see the module docstring on ``-0.0``).
_WORKLOAD_MEMO: Dict[Tuple[int, int], Tuple[Any, Any, str]] = {}
_WORKLOAD_MEMO_MAX = 256


def _workload_fp_json(stream, sync) -> str:
    hit = _WORKLOAD_MEMO.get((id(stream), id(sync)))
    if hit is not None and hit[0] is stream and hit[1] is sync:
        return hit[2]
    fingerprint = {
        "stream": {
            "mix": stream.mix.vector.tolist(),
            "ilp": stream.ilp,
            "mlp": stream.mlp,
            "branch_mispredict_rate": stream.branch_mispredict_rate,
            "memory": asdict(stream.memory),
        },
        "sync": asdict(sync),
    }
    text = json.dumps(fingerprint, sort_keys=True)[1:-1]  # drop the braces
    if len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_MAX:
        _WORKLOAD_MEMO.clear()
    _WORKLOAD_MEMO[(id(stream), id(sync))] = (stream, sync, text)
    return text


_INF = float("inf")


def _scalar_json(value) -> str:
    """``json.dumps(value)`` for one number, without building an encoder."""
    if type(value) is int or (type(value) is float and -_INF < value < _INF):
        return repr(value)
    return json.dumps(value)


def run_cache_key(spec) -> str:
    """Content-hash key for one :class:`repro.sim.engine.RunSpec`."""
    digest = _arch_entry(spec.system.arch)[3].copy()
    # The spec object as ``json.dumps(..., sort_keys=True)`` renders it.
    text = (
        '{"n_chips": %s, "n_threads": %s, "noise_rel": %s, "seed": %s, '
        '"smt_level": %s, %s, "useful_instructions": %s}' % (
            _scalar_json(spec.system.n_chips),
            _scalar_json(spec.resolved_threads()),
            _scalar_json(spec.noise_rel),
            _scalar_json(spec.seed),
            _scalar_json(spec.smt_level),
            _workload_fp_json(spec.stream, spec.sync),
            _scalar_json(spec.useful_instructions),
        )
    )
    digest.update(text.encode())
    return digest.hexdigest()


#: Version of the stored-record *format* (distinct from
#: :data:`MODEL_VERSION`, which fingerprints solver behaviour and is
#: part of the key).  Bump whenever the record layout changes so that
#: entries written by an older layout are rejected instead of silently
#: deserializing into wrong fields.
PAYLOAD_SCHEMA = 3

#: Every entry file is ``<key>`` + this suffix.
ENTRY_SUFFIX = ".bin"

_MAGIC = b"RUNR"
_STAMP = _MAGIC + struct.pack("<I", PAYLOAD_SCHEMA)
_COUNTS = struct.Struct("<4q3I")
_HEAD = len(_STAMP) + _COUNTS.size
_SEP = b"\xff"  # never occurs in UTF-8
_N_SCALARS = 10  # floats ahead of the events


def _encode(result: RunResult) -> bytes:
    """The little-endian record of ``result``: the stamp; the four int
    fields (``int64``); the event, IPC and name-byte counts (``uint32``);
    the event names in key order, UTF-8, joined by ``0xFF``; one
    ``float64`` block of the scalars, the events and ``per_thread_ipc``.
    """
    times, events, ipc = result.times, result.events, result.per_thread_ipc
    names = _SEP.join(name.encode() for name in events)
    floats = (
        result.useful_instructions, times.wall_time_s, times.serial_time_s,
        times.parallel_time_s, times.total_cpu_s, result.spin_fraction,
        result.blocked_fraction, result.mem_latency_mult,
        result.mem_utilization, result.dispatch_held_fraction,
        *events.values(), *ipc,
    )
    return b"".join((
        _STAMP,
        _COUNTS.pack(result.smt_level, result.n_threads, result.n_chips,
                     times.n_threads, len(events), len(ipc), len(names)),
        names,
        struct.pack(f"<{len(floats)}d", *floats),
    ))


def _decode(data: bytes, arch: Architecture) -> RunResult:
    """The result a stamped record holds; raises if it is malformed."""
    (smt_level, n_threads, n_chips, times_threads,
     n_events, n_ipc, n_names) = _COUNTS.unpack_from(data, len(_STAMP))
    start = _HEAD + n_names
    n_floats = _N_SCALARS + n_events + n_ipc
    names = data[_HEAD:start].split(_SEP) if n_events else []
    if len(data) != start + 8 * n_floats or len(names) != n_events:
        raise ValueError("record length or names disagree with its counts")
    values = struct.unpack_from(f"<{n_floats}d", data, start)
    split = _N_SCALARS + n_events
    return RunResult(
        arch=arch,
        smt_level=smt_level,
        n_threads=n_threads,
        n_chips=n_chips,
        useful_instructions=values[0],
        times=TimeAccounting(*values[1:5], times_threads),
        events=dict(zip(map(bytes.decode, names), values[_N_SCALARS:split])),
        spin_fraction=values[5],
        blocked_fraction=values[6],
        mem_latency_mult=values[7],
        mem_utilization=values[8],
        per_thread_ipc=values[split:],
        dispatch_held_fraction=values[9],
    )


class RunCache:
    """Content-addressed store of converged runs under one directory.

    All I/O failures degrade to cache misses (``get``) or silent no-ops
    (``put``): a read-only filesystem or a corrupt entry never breaks a
    sweep, it just forfeits the speedup.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> str:
        return f"{self.root}{os.sep}{key}{ENTRY_SUFFIX}"

    def key(self, spec) -> str:
        return run_cache_key(spec)

    def _discard(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:  # pragma: no cover - racing eviction
            pass

    def get(self, spec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` on a miss.

        Telemetry: ``runcache.hits`` / ``runcache.misses`` count lookup
        outcomes; a present-but-malformed entry additionally counts as
        ``runcache.corrupt`` and is *deleted* — it behaves as a miss
        once, instead of being re-read (and re-missed) on every
        sweep until someone clears the cache by hand.  A record whose
        stamp carries another schema than :data:`PAYLOAD_SCHEMA`
        (written by an older/newer layout) is likewise deleted and
        counted as ``runcache.schema_mismatch``.
        """
        tracer = get_tracer()
        key = run_cache_key(spec)
        try:
            with open(self._path(key), "rb", buffering=0) as handle:
                data = handle.read()
        except OSError:
            tracer.add("runcache.misses")
            return None
        if not data.startswith(_STAMP):
            tracer.add("runcache.misses")
            if data.startswith(_MAGIC) and len(data) >= len(_STAMP):
                # Another record layout: the bytes may unpack but mean
                # something else.  Refuse it.
                tracer.add("runcache.schema_mismatch")
            else:
                tracer.add("runcache.corrupt")
            self._discard(key)
            return None
        try:
            result = _decode(data, spec.system.arch)
        except (ValueError, struct.error):
            # Also names that are not UTF-8 and refused field values.
            tracer.add("runcache.misses")
            tracer.add("runcache.corrupt")
            self._discard(key)
            return None
        tracer.add("runcache.hits")
        return result

    def put(self, spec, result: RunResult) -> None:
        """Store ``result`` under ``spec``'s key (atomic, best-effort)."""
        get_tracer().add("runcache.puts")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            record = _encode(result)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(record)
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

        Legacy ``*.json`` entries (payload schema 2 and older, never
        read) count as entries.  Also sweeps orphaned ``*.tmp`` files —
        the droppings of a writer killed between ``mkstemp`` and the
        atomic publish (counted separately as ``runcache.tmp_swept``,
        not in the return value).
        """
        removed = 0
        swept = 0
        try:
            for pattern in ("*" + ENTRY_SUFFIX, "*.json"):
                for path in self.root.glob(pattern):
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
            return sum(1 for _ in self.root.glob("*" + ENTRY_SUFFIX))
        except OSError:
            return 0
