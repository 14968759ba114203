"""Program process for the stream and fit workloads.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/worker.py CONFIG.json

``CONFIG.json`` names a mode and its inputs (written by the harness);
the worker prints ``ready`` once the program is imported and set up,
runs the operations, writes ``config["result"]`` as JSON and prints
``done``.  Modes:

* ``stream`` — one ``repro stream run`` ingest: ``read_jsonl_events``
  into ``WindowScheduler.run`` with count windows, under the same
  obs session and strict ledger audit the CLI uses;
* ``fit`` — ``PriView.fit`` on a freshly handed uint8 matrix followed
  by ``SynopsisStore.publish``, repeated for ``seconds``.

With ``"trace": true`` the layer functions are wrapped by
:mod:`spans` before the first operation and the per-layer summary is
part of the result; ``"cpu": k`` pins the process to CPU ``k``.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from time import perf_counter

from proc import peak_rss_mb
from spans import Tracer


def install(tracer: Tracer) -> None:
    """Wrap the fit path's and the stream path's layer functions."""
    import repro.core.priview as priview
    import repro.stream.scheduler as scheduler
    from repro.kernels.packed import PackedDataset
    from repro.store.registry import SynopsisStore

    tracer.wrap(priview.PriView, "fit", "core.fit")
    tracer.wrap(priview, "as_packed", "kernels.pack")
    tracer.wrap(PackedDataset, "marginal", "kernels.count")
    tracer.wrap(priview, "noisy_marginal", "mechanisms.noise")
    tracer.wrap(priview, "_parallel_noisy_views", "mechanisms.noise")
    tracer.wrap(priview, "make_consistent", "core.consistency")
    tracer.wrap(priview, "apply_nonnegativity", "core.ripple")
    tracer.wrap(SynopsisStore, "publish", "store.publish")
    tracer.wrap(SynopsisStore, "load_version", "store.load_verify")
    tracer.wrap_iter(scheduler, "iter_windows", "stream.route_pack")


def _ready() -> None:
    print("ready", flush=True)


def run_stream(config: dict, tracer: Tracer | None) -> dict:
    from repro import obs
    from repro.store import SynopsisStore
    from repro.stream import (
        BudgetSchedule,
        CountWindowPolicy,
        WindowScheduler,
        read_jsonl_events,
    )

    store = SynopsisStore(config["store"])
    scheduler = WindowScheduler(
        store,
        config["dataset"],
        config["num_attributes"],
        BudgetSchedule(config["epsilon"]),
        CountWindowPolicy(config["window"]),
        seed=config["seed"],
    )
    _ready()
    releases: list[float] = []
    fit_publish: list[float] = []
    published = [0.0]
    with obs.session(trace=False) as sess:

        def on_release(record) -> None:
            releases.append(perf_counter())
            # This window's publish time: the growth of the program's
            # own publish-time sum since the previous release.
            total = sess.metrics.observation("store.publish_seconds")["sum"]
            fit_publish.append(record.fit_seconds + total - published[0])
            published[0] = total

        events = read_jsonl_events(config["events"])
        if tracer is not None:
            events = tracer.leaf_iter(events, "stream.parse")
            tracer.reset()
        start = perf_counter()
        released = scheduler.run(events, on_release=on_release)
        elapsed = perf_counter() - start
        summary = tracer.summary() if tracer is not None else None
        sess.ledger.check()
        spent = sess.ledger.total_spent()
        counters = sess.metrics.snapshot()["counters"]
    versions = []
    for record in released:
        info = store.resolve(f"{config['dataset']}@{record.version}")
        versions.append({
            "version": info.version,
            "records": record.records,
            "manifest_records": info.extra["window"]["records"],
            "size_bytes": info.size_bytes,
        })
    return {
        "elapsed_s": elapsed,
        "events": sum(record.records for record in released),
        "window_s": [
            end - begin for begin, end in zip([start, *releases], releases)
        ],
        "fit_publish_s": fit_publish,
        "ledger_spent": spent,
        "versions": versions,
        "ripple_passes": counters.get("ripple.passes", 0),
        "ripple_cells_clipped": counters.get("ripple.cells_clipped", 0),
        "trace": summary,
    }


def run_fit(config: dict, tracer: Tracer | None) -> dict:
    import numpy as np

    from repro import obs
    from repro.core.priview import PriView
    from repro.covering.repository import best_design
    from repro.marginals.dataset import BinaryDataset
    from repro.store import SynopsisStore

    d = config["num_attributes"]
    design = best_design(d, config["view_width"], config["strength"])
    store = SynopsisStore(config["store"])
    name = config["dataset"]
    _ready()
    data = np.load(config["data"])
    ops = []
    counters: dict = {}
    deadline = perf_counter() + config["seconds"]
    while len(ops) < config["min_ops"] or perf_counter() < deadline:
        # A fresh dataset per operation, so packing is paid every time.
        dataset = BinaryDataset(data, name=name)
        session = nullcontext()
        if tracer is not None:
            tracer.reset()
            # Traced ops read the Ripple counters from a metrics session.
            session = obs.session(trace=False, ledger=False)
        start = perf_counter()
        with session as sess:
            synopsis = PriView(
                config["epsilon"], design=design, seed=config["seed"],
                **config["mechanism"],
            ).fit(dataset)
            info = store.publish(name, synopsis)
        elapsed = perf_counter() - start
        if sess is not None:
            for key, value in sess.metrics.snapshot()["counters"].items():
                counters[key] = counters.get(key, 0) + value
        ops.append({
            "elapsed_s": elapsed,
            "sha256": info.sha256,
            "version": info.version,
            "size_bytes": info.size_bytes,
            "trace": tracer.summary() if tracer is not None else None,
        })
    checks = []
    for op in (ops[0], ops[-1]):
        reloaded = store.get(f"{name}@{op['version']}", verify=True)
        checks.append({
            "version": op["version"],
            "views": len(reloaded.views),
            "num_attributes": reloaded.num_attributes,
            "epsilon": reloaded.epsilon,
            "design_blocks": design.num_blocks,
        })
    return {
        "ops": ops,
        "reloads": checks,
        "ripple_passes": counters.get("ripple.passes", 0),
        "ripple_cells_clipped": counters.get("ripple.cells_clipped", 0),
    }


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        config = json.load(handle)
    if config.get("cpu") is not None:
        os.sched_setaffinity(0, {config["cpu"]})
    tracer = None
    if config.get("trace"):
        tracer = Tracer()
        install(tracer)
    run = {"stream": run_stream, "fit": run_fit}[config["mode"]]
    result = run(config, tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
