"""Request handlers: the only bridge from the service to the model.

Every operation is implemented in terms of :mod:`repro.api` — the
documented stable facade — and **nothing else**: no deep imports into
``repro.sim``, ``repro.core`` or ``repro.experiments`` (a test pins
this).  Handlers are plain synchronous functions; the server runs them
on a worker executor, and the micro-batcher calls
:func:`handle_predict_batch` with whole coalesced batches so the facade
can vectorize them in one pass.

All handlers take/return plain JSON-able dicts.  Validation errors
raise :class:`HandlerError` (mapped to ``invalid_request`` on the
wire); anything else propagating out is an internal error the server
retries per its :class:`repro.faults.RetryPolicy`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import repro.api as api

__all__ = [
    "HandlerError",
    "batch_key",
    "handle_ping",
    "handle_predict_batch",
    "handle_score",
    "handle_sweep",
]


class HandlerError(ValueError):
    """Bad request parameters (client error, not retryable)."""


def _session(params: Mapping[str, Any],
             defaults: Optional[Mapping[str, Any]]) -> api.Session:
    """The shared facade session for one request's (arch, chips) target.

    ``defaults`` are server-level session knobs (seed, work budget,
    cache, threshold) applied uniformly so that every request against
    the same system lands in the same session — the precondition for
    batching their runs together.
    """
    kwargs = dict(defaults or {})
    try:
        return api.get_session(
            params.get("arch", "p7"),
            n_chips=params.get("n_chips"),
            **kwargs,
        )
    except (KeyError, ValueError) as exc:
        raise HandlerError(f"cannot resolve system: {exc}") from None


def batch_key(op: str, params: Mapping[str, Any]) -> Tuple[Hashable, ...]:
    """Requests with equal keys may be dispatched as one batch.

    Predictions batch per (architecture, chip count) — the facade
    vectorizes across workloads, levels and seeds within a system.
    Other operations run one-per-dispatch.
    """
    if op == "predict":
        return (op, params.get("arch", "p7"), params.get("n_chips"))
    return (op, id(params))


def handle_predict_batch(
    params_list: Sequence[Mapping[str, Any]],
    defaults: Optional[Mapping[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Answer a coalesced batch of predict requests in one facade call."""
    if not params_list:
        return []
    session = _session(params_list[0], defaults)
    queries = []
    for params in params_list:
        workload = params.get("workload")
        if not isinstance(workload, str) or not workload:
            raise HandlerError("'workload' must be a non-empty string")
        level = params.get("level")
        seed = params.get("seed")
        queries.append(api.PredictQuery(workload=workload, level=level, seed=seed))
    try:
        predictions = session.predict_many(queries)
    except (KeyError, ValueError) as exc:
        raise HandlerError(str(exc)) from None
    return [p.payload() for p in predictions]


def handle_sweep(
    params: Mapping[str, Any],
    defaults: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Run a catalog slice and return its JSON summary."""
    session = _session(params, defaults)
    names = params.get("workloads")
    if names is not None and (
        not isinstance(names, (list, tuple))
        or not all(isinstance(n, str) for n in names)
    ):
        raise HandlerError("'workloads' must be a list of workload names")
    levels = params.get("levels")
    if levels is not None and not isinstance(levels, (list, tuple)):
        raise HandlerError("'levels' must be a list of SMT levels")
    strategy = params.get("strategy", api.DEFAULT_STRATEGY)
    try:
        return session.sweep_summary(
            names, tuple(levels) if levels is not None else None,
            strategy=strategy,
        )
    except (KeyError, ValueError) as exc:
        raise HandlerError(str(exc)) from None


def handle_score(
    params: Mapping[str, Any],
    defaults: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Evaluate SMTsm on raw counter readings shipped by the client."""
    session = _session(params, defaults)
    events = params.get("events")
    if not isinstance(events, dict):
        raise HandlerError("'events' must be an object of counter: count")
    try:
        result = session.score_counters(
            {str(k): float(v) for k, v in events.items()},
            smt_level=int(params["smt_level"]),
            wall_time_s=float(params["wall_time_s"]),
            avg_thread_cpu_s=float(params["avg_thread_cpu_s"]),
            n_software_threads=int(params["n_software_threads"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise HandlerError(f"bad score request: {exc}") from None
    return {
        "smtsm": result.value,
        "factors": {
            "mix_deviation": result.mix_deviation,
            "dispatch_held": result.dispatch_held,
            "scalability_ratio": result.scalability_ratio,
        },
        "smt_level": result.smt_level,
        "arch": result.arch_name,
    }


def handle_ping(params: Mapping[str, Any],
                defaults: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    return {"pong": True}
