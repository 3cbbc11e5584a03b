"""Wrap points of the traced pass: which callable times which layer.

Each patch replaces the name *where the caller looks it up*.  Several
modules import names directly (``from x import f``), so for example the
serve decode step is patched as ``repro.serve.server.parse_request`` and
the batched solver entry as ``repro.experiments.runner.simulate_many``.
Public callables are used where they exist; the underscore entry points
(``engine._finalize_run``, ``table._View.solve``,
``table._View.chip_phase``) are the only boundary of their layer and
are listed in ``bench/README.md``.

Run ``python -m bench.hooks serve --out PATH -- <repro serve args>`` to
start a traced ``repro serve``: it installs :func:`install_core` and
:class:`ServeStamps`, runs the server until it drains, and writes the
layer snapshot and per-request stamps to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional, Sequence

from bench.trace import STAMPS, Tracer

#: Params of the ``ping`` request that ends the server's set-up phase:
#: the traced server saves its set-up layers and starts a clean window.
RESET_PARAMS = {"bench_reset": True}

_ADMIT_END, _HANDLER_START, _HANDLER_END, _ENCODE_START, _ENCODE_END = (
    STAMPS.index(name) for name in
    ("admit_end", "handler_start", "handler_end", "encode_start", "encode_end"))


def _is_hit(result: Any) -> float:
    return 0.0 if result is None else 1.0


def install_core(tracer: Tracer) -> None:
    """Run cache, both default solver engines, and the API facade."""
    import repro.api as api
    from repro.experiments import runner
    from repro.sim import engine, fast_core, runcache, table

    patch = tracer.patch
    patch(runcache.RunCache, "get", "runcache.get", tally=("runcache.hit", _is_hit))
    patch(runcache.RunCache, "put", "runcache.put")

    runs = ("sim.runs", len)
    # Batched engine (the Session.sweep default).  simulate_many's own
    # time is thread placement plus the spin fixed-point bookkeeping.
    patch(runner, "simulate_many", "sim.spin", tally=runs)
    patch(engine, "solve_chip_batch", "sim.bisection")
    patch(engine, "_finalize_run", "sim.finalize")
    patch(fast_core.CoreBatch, "__init__", "sim.build")
    patch(fast_core.CoreBatch, "solve", "sim.kernel")
    patch(fast_core.CoreBatch, "materialize", "sim.finalize")
    # Columnar engine (the predict, run_catalog and fleet default).
    patch(table, "simulate_many_columnar", "sim.build", tally=runs)
    patch(table.ScenarioTable, "__init__", "sim.build")
    patch(table.ScenarioTable, "view", "sim.build")
    patch(table.ScenarioTable, "drive", "sim.spin")
    patch(table.ScenarioTable, "finalize", "sim.finalize")
    patch(table._View, "solve", "sim.kernel")
    patch(table._View, "chip_phase", "sim.bisection")

    patch(api, "run_catalog", "api.sweep")
    patch(api.Session, "predict_many", "api.score")
    patch(api.Session, "score_counters", "api.score")
    patch(api.Session, "predictor", "api.fit")


def install_fleet(tracer: Tracer) -> None:
    """The fleet's event loop and the layers it calls per job."""
    from repro.fleet import node, policy, scheduler

    patch = tracer.patch
    patch(scheduler, "get_perf_model", "fleet.perfmodel")
    patch(scheduler, "generate_trace", "fleet.trace")
    patch(scheduler.FleetScheduler, "__init__", "fleet.loop")
    patch(scheduler.FleetScheduler, "run", "fleet.loop")
    for attr in ("place", "level_for", "touch"):
        patch(policy.SmtsmPolicy, attr, "fleet.place")
    patch(node.Node, "measure", "fleet.measure")
    patch(scheduler.ControllerBank, "observe", "fleet.controller")


class ServeStamps:
    """Serve-layer spans plus per-request stamps, stitched by identity.

    ``parse_request`` yields the :class:`Request` whose ``params`` dict
    is the very object ``MicroBatcher.submit`` and ``dispatch_batch``
    later receive, and the response handed to ``protocol.encode``
    carries the request id; so each stamp lands on its request without
    any change to the server.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stamps: Dict[str, List[float]] = {}
        self._rid: Dict[int, Any] = {}     # id(params) -> (params, request id)
        self.setup: Optional[Dict[str, Any]] = None

    def _stamp(self, params: Any, slot: int, t: float) -> None:
        entry = self._rid.get(id(params))
        if entry is not None and entry[0] is params:
            self.stamps[entry[1]][slot] = t

    def install(self) -> None:
        from repro.serve import batching, handlers, protocol, server

        tracer = self.tracer
        clock = tracer.clock
        enter, exit_ = tracer.enter, tracer.exit
        stamps, rid, stamp = self.stamps, self._rid, self._stamp

        def decode(original):
            def parse_request(raw):
                start = clock()
                enter("serve.decode")
                try:
                    request = original(raw)
                finally:
                    exit_()
                stamps[request.id] = [start, clock()] + [math.nan] * (len(STAMPS) - 2)
                rid[id(request.params)] = (request.params, request.id)
                return request
            return parse_request

        def submit(original):
            def traced_submit(batcher, key, payload, deadline_t=None):
                enter("serve.admit")
                try:
                    future = original(batcher, key, payload, deadline_t)
                finally:
                    exit_()
                stamp(payload, _ADMIT_END, clock())
                return future
            return traced_submit

        def dispatch(original):
            def dispatch_batch(key, payloads, defaults):
                start = clock()
                for params in payloads:
                    stamp(params, _HANDLER_START, start)
                enter("serve.handler")
                try:
                    results = original(key, payloads, defaults)
                finally:
                    exit_()
                end = clock()
                for params in payloads:
                    stamp(params, _HANDLER_END, end)
                tracer.tally("serve.batch", len(payloads))
                if key[0] == "ping" and payloads and payloads[0] == RESET_PARAMS:
                    self.setup = tracer.snapshot()
                    tracer.reset()
                    stamps.clear()
                    rid.clear()
                return results
            return dispatch_batch

        def encode(original):
            def traced_encode(response):
                start = clock()
                enter("serve.encode")
                try:
                    data = original(response)
                finally:
                    exit_()
                times = stamps.get(response.get("id"))
                if times is not None:
                    times[_ENCODE_START] = start
                    times[_ENCODE_END] = clock()
                return data
            return traced_encode

        tracer.replace(server, "parse_request", decode)
        tracer.patch(handlers, "batch_key", "serve.admit")
        tracer.replace(batching.MicroBatcher, "submit", submit)
        tracer.replace(server, "dispatch_batch", dispatch)
        tracer.replace(protocol, "encode", encode)

    def payload(self) -> Dict[str, Any]:
        return {
            "setup": self.setup,
            "window": self.tracer.snapshot(),
            "stamps": {
                rid: times for rid, times in self.stamps.items()
                if not any(math.isnan(t) for t in times)
            },
        }


def serve_main(argv: Sequence[str]) -> int:
    """``repro serve`` with the serve and core layers traced."""
    parser = argparse.ArgumentParser(prog="python -m bench.hooks serve")
    parser.add_argument("--out", required=True,
                        help="where to write the layer JSON once drained")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER,
                        help="arguments for repro serve, after --")
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.cli import main as repro_main

    tracer = Tracer()
    install_core(tracer)
    stamps = ServeStamps(tracer)
    stamps.install()
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
    with open(args.out, "w") as handle:
        json.dump(stamps.payload(), handle)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] != ["serve"]:
        sys.exit("usage: python -m bench.hooks serve --out PATH -- <repro serve args>")
    sys.exit(serve_main(sys.argv[2:]))
