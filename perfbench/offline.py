"""The offline workloads: stream ingest and fit-and-publish.

* ``stream-ingest`` — the ``repro stream run`` path over a seeded
  kosarak-like JSON-lines file: 600k events in count windows of 200k
  at epsilon 1, three versions published to a fresh store per pass.
  One pass per program process, pinned to each CPU in turn.
* ``fit-publish`` — ``PriView(1.0, design=C_2(8,72), packed=True,
  workers=2)`` fitting a freshly handed d=64, N=1M click-stream uint8
  matrix, then ``SynopsisStore.publish``; repeated in three program
  processes.
"""

from __future__ import annotations

import os
from statistics import median

import numpy as np

import inputs

STREAM_DATASET = "clicks"
STREAM_ATTRIBUTES = 32
#: One stream round (a pass per CPU) per this many seconds of
#: ``--seconds``: a fixed amount of work, so every run rests on the
#: same number of windows however fast the box is that minute.
STREAM_SECONDS_PER_ROUND = 10
FIT_DATASET = "clicks64"
FIT_ATTRIBUTES = 64
FIT_WORKERS = 3
EPSILON = 1.0


def _stream_pass(ctx, index: int, events: str, cpu: int, traced: bool) -> dict:
    """One ingest pass in a fresh program process and store; checked."""
    scale = ctx.scale
    windows = -(-scale.stream_events // scale.stream_window)
    result = ctx.run_worker(f"stream-{index}", {
        "mode": "stream",
        "events": events,
        "store": os.path.join(ctx.work, f"stream-store-{index}"),
        "dataset": STREAM_DATASET,
        "num_attributes": STREAM_ATTRIBUTES,
        "epsilon": EPSILON,
        "window": scale.stream_window,
        "seed": ctx.seed,
        "trace": traced,
        "cpu": cpu,
    })
    result["cpu"] = cpu
    ctx.attempted += windows
    records = [v["records"] for v in result["versions"]]
    expected = [scale.stream_window] * (windows - 1) + [
        scale.stream_events - scale.stream_window * (windows - 1)
    ]
    if ctx.doctor:
        records[0] -= 1
    ok_windows = sum(
        1 for v, got, want in zip(result["versions"], records, expected)
        if got == want == v["manifest_records"]
    )
    ctx.failed += windows - ok_windows
    ctx.check(
        records == expected
        and [v["version"] for v in result["versions"]]
        == list(range(1, windows + 1)),
        f"stream pass {index}: versions/records {result['versions']}",
    )
    ctx.check(result["events"] == scale.stream_events,
              f"stream pass {index}: {result['events']} events ingested")
    ctx.check(
        result["ledger_spent"] == EPSILON,
        f"stream pass {index}: ledger spent {result['ledger_spent']}, "
        f"expected exactly one window's epsilon {EPSILON}",
    )
    return result


def _per_cpu(passes, value) -> float:
    """Mean over CPUs of the median, over every window of the passes
    on that CPU, of ``value(pass)``, a list with one entry per window."""
    by_cpu: dict = {}
    for p in passes:
        by_cpu.setdefault(p["cpu"], []).extend(value(p))
    return sum(median(v) for v in by_cpu.values()) / len(by_cpu)


def run_stream(ctx) -> None:
    """A fixed number of rounds of one pass per CPU, each pass pinned
    to its CPU; every metric is the mean over CPUs of the per-CPU
    median over windows.  The CPUs of a small virtual machine can
    differ in speed by 20-40%, and an unpinned, mostly single-threaded
    pass would land on either; a window median shrugs off a window
    that a busy host slowed down."""
    rows = inputs.clickstream_rows(
        ctx.seed, ctx.scale.stream_events, STREAM_ATTRIBUTES, **inputs.KOSARAK
    )
    events = os.path.join(ctx.work, "events.jsonl")
    ctx.details["events_file_bytes"] = inputs.write_jsonl_events(rows, events)
    del rows
    cpus = sorted(os.sched_getaffinity(0))
    if ctx.trace:
        # The same CPU for the untraced and the traced pass.
        plain, traced = (
            _stream_pass(ctx, i, events, cpus[0], traced=bool(i))
            for i in range(2)
        )
        _stream_layers(ctx, plain, traced)
        return
    rounds = max(1, round(ctx.seconds / STREAM_SECONDS_PER_ROUND))
    passes = [
        _stream_pass(ctx, len(cpus) * r + k, events, cpu, False)
        for r in range(rounds)
        for k, cpu in enumerate(cpus)
    ]

    def window_ms(p):
        return [1e3 * s for s in p["window_s"]]

    ctx.metrics.update({
        "qps": _per_cpu(passes, lambda p: [1 / s for s in p["window_s"]]),
        "latency_p50_ms": _per_cpu(passes, window_ms),
        "latency_p95_ms": _per_cpu(
            passes, lambda p: [float(np.percentile(window_ms(p), 95))]
        ),
        "events_per_s": _per_cpu(passes, lambda p: [
            v["records"] / s for v, s in zip(p["versions"], p["window_s"])
        ]),
        "fit_publish_s": _per_cpu(passes, lambda p: p["fit_publish_s"]),
        "setup_s": _per_cpu(passes, lambda p: [p["_setup_s"]]),
        "peak_rss_mb": median(p["_peak_rss_mb"] for p in passes),
    })
    ctx.details["passes"] = [
        {"cpu": p["cpu"], "events_per_s": p["events"] / p["elapsed_s"],
         "window_s": p["window_s"], "peak_rss_mb": p["_peak_rss_mb"]}
        for p in passes
    ]


def _stream_layers(ctx, plain: dict, traced: dict) -> None:
    summary = traced["trace"]
    self_s, calls = summary["self_s"], summary["calls"]
    publishes = calls.get("store.publish", 0)
    ctx.metrics.update({
        "stream.parse_s": self_s.get("stream.parse", 0.0),
        "stream.route_pack_s": self_s.get("stream.route_pack", 0.0),
        "ripple.passes": traced["ripple_passes"],
        "ripple.cells_clipped": traced["ripple_cells_clipped"],
        "store.publish_s": (
            self_s.get("store.publish", 0.0) / publishes if publishes else 0.0
        ),
        "store.artifact_bytes": float(np.mean(
            [v["size_bytes"] for v in traced["versions"]]
        )),
        "trace.overhead_pct": 100.0 * (
            traced["elapsed_s"] / plain["elapsed_s"] - 1.0
        ),
        "trace.coverage": sum(self_s.values()) / traced["elapsed_s"],
    })
    ctx.metrics.update(_fit_layers(self_s))


def _fit_layers(self_s: dict, per: float = 1.0) -> dict:
    return {
        "kernels.pack_s": self_s.get("kernels.pack", 0.0) / per,
        "kernels.count_s": self_s.get("kernels.count", 0.0) / per,
        "mechanisms.noise_s": self_s.get("mechanisms.noise", 0.0) / per,
        "core.consistency_s": self_s.get("core.consistency", 0.0) / per,
        "core.ripple_s": self_s.get("core.ripple", 0.0) / per,
    }


def run_fit(ctx) -> None:
    scale = ctx.scale
    rows = inputs.clickstream_rows(
        ctx.seed, scale.fit_records, FIT_ATTRIBUTES, **inputs.CLICKSTREAM
    )
    data = os.path.join(ctx.work, "clicks64.npy")
    np.save(data, rows)
    del rows
    plan = [False, True] if ctx.trace else [False] * FIT_WORKERS
    results = []
    for index, traced in enumerate(plan):
        results.append(ctx.run_worker(f"fit-{index}", {
            "mode": "fit",
            "data": data,
            "store": os.path.join(ctx.work, f"fit-store-{index}"),
            "dataset": FIT_DATASET,
            "num_attributes": FIT_ATTRIBUTES,
            "view_width": 8,
            "strength": 2,
            "epsilon": EPSILON,
            "seed": ctx.seed,
            "mechanism": {"packed": True, "workers": 2},
            "min_ops": 2,
            "seconds": ctx.seconds / len(plan),
            "trace": traced,
        }))
    ops = [op for result in results for op in result["ops"]]
    shas = [op["sha256"] for op in ops]
    if ctx.doctor:
        shas[-1] = "0" * 64
    ctx.attempted += len(ops)
    ctx.failed += sum(1 for sha in shas if sha != shas[0])
    ctx.check(len(set(shas)) == 1,
              f"fit-publish: the same seed gave {len(set(shas))} artifacts")
    for result in results:
        for reload in result["reloads"]:
            ctx.check(
                reload["views"] == reload["design_blocks"]
                and reload["num_attributes"] == FIT_ATTRIBUTES
                and reload["epsilon"] == EPSILON,
                f"fit-publish: reloaded artifact {reload} is wrong",
            )
    ctx.details["ops"] = len(ops)

    if ctx.trace:
        plain, traced = (r["ops"] for r in results)
        n = len(traced)
        totals: dict = {}
        publishes = 0
        for op in traced:
            for name, value in op["trace"]["self_s"].items():
                totals[name] = totals.get(name, 0.0) + value
            publishes += op["trace"]["calls"].get("store.publish", 0)
        wall = sum(op["elapsed_s"] for op in traced)
        ctx.metrics.update(_fit_layers(totals, n))
        ctx.metrics.update({
            "ripple.passes": results[1]["ripple_passes"] / n,
            "ripple.cells_clipped": results[1]["ripple_cells_clipped"] / n,
            "store.publish_s": totals.get("store.publish", 0.0) / publishes,
            "store.artifact_bytes": float(traced[0]["size_bytes"]),
            "trace.overhead_pct": 100.0 * (
                median(op["elapsed_s"] for op in traced)
                / median(op["elapsed_s"] for op in plain) - 1.0
            ),
            "trace.coverage": sum(totals.values()) / wall,
        })
        return
    times = [op["elapsed_s"] for op in ops]
    p50, p95 = np.percentile(np.asarray(times) * 1e3, [50, 95])
    ctx.metrics.update({
        "qps": len(times) / sum(times),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "events_per_s": scale.fit_records * len(times) / sum(times),
        "fit_publish_s": median(times),
        "setup_s": median(r["_setup_s"] for r in results),
        "peak_rss_mb": median(r["_peak_rss_mb"] for r in results),
    })
