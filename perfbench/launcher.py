"""Traced server launcher: ``repro``'s CLI with its serve layers wrapped.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py SPANS.jsonl store serve --store DIR --port 0

Wraps the serving layers' functions with :mod:`spans` wrappers, then
calls :func:`repro.cli.main` with the remaining arguments — the same
entry point ``python -m repro`` runs.  Spans stay in memory.  Signals
drive the measurement window:

* ``SIGUSR1`` writes what was recorded so far (set-up and warm-up) to
  ``SPANS.jsonl.setup``, forgets it (start of the timed phase) and
  prints ``perfbench: reset``;
* ``SIGUSR2`` writes the spans and the per-layer summary to
  ``SPANS.jsonl`` and prints ``perfbench: dumped``.

The spans are written once more at exit.
"""

from __future__ import annotations

import atexit
import signal
import sys

from spans import Tracer


def install(tracer: Tracer) -> None:
    """Wrap the serve path's layer functions: server, protocol,
    multiplex, engine, planner, cache, reconstruction and store."""
    from repro.core.reconstruction import ResidualIndex
    from repro.serve import engine, server
    from repro.serve.cache import SingleFlightLRU
    from repro.serve.multiplex import EngineRouter
    from repro.serve.planner import QueryPlanner
    from repro.store.registry import SynopsisStore

    handler = server._Handler
    tracer.wrap(handler, "do_POST", "server.handler")
    tracer.wrap(handler, "_send_body", "server.write")
    tracer.wrap(handler, "_read_json", "protocol.parse")
    tracer.wrap(server, "parse_marginal_request", "protocol.parse")
    tracer.wrap(server, "parse_batch_request", "protocol.parse")
    tracer.wrap(handler, "_send_json", "protocol.encode")
    tracer.wrap(server, "encode_answer", "protocol.encode")
    tracer.wrap(EngineRouter, "lease", "router.lease")
    tracer.wrap(engine.QueryEngine, "answer", "engine.dispatch", anchor=True)
    tracer.wrap(
        engine.QueryEngine, "answer_batch", "engine.dispatch", anchor=True
    )
    tracer.wrap(QueryPlanner, "validate", "planner.plan")
    tracer.wrap(QueryPlanner, "plan", "planner.plan")
    for method in ("get_or_compute", "get", "items"):
        tracer.wrap(SingleFlightLRU, method, "cache.lookup")
    tracer.wrap(engine, "reconstruct", "solve")
    tracer.wrap(engine, "reconstruct_batch", "solve")
    tracer.wrap(ResidualIndex, "solve", "solve")
    tracer.wrap(ResidualIndex, "solve_batch", "solve")
    tracer.wrap(SynopsisStore, "load_version", "store.load_verify")


def _request_key():
    from repro.obs import propagation

    context = propagation.current_context()
    return None if context is None else id(context)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(context_key=_request_key)
    install(tracer)

    def on_reset(signum, frame):
        tracer.dump(spans_path + ".setup")
        tracer.reset()
        print("perfbench: reset", flush=True)

    def on_dump(signum, frame):
        tracer.dump(spans_path)
        print("perfbench: dumped", flush=True)

    signal.signal(signal.SIGUSR1, on_reset)
    signal.signal(signal.SIGUSR2, on_dump)
    atexit.register(tracer.dump, spans_path)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
