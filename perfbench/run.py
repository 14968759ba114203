"""PriView benchmark: serve, stream and fit as users run them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Workloads: ``serve-hot``, ``serve-cold``, ``stream-ingest`` and
``fit-publish`` (see ``perfbench/NOTES.md``).  The program runs from
the checkout's ``src`` in separate processes; this harness generates
the inputs from ``--seed``, drives the load, times it, checks the
outputs and prints, as its last line, one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, from a run
that times the program's layer functions (and an untraced phase to
measure the tracing overhead).  The line before it is a JSON report
with the machine fingerprint and per-workload operation counts.  Exit
status 0 means the run completed; it is 1 when a check failed, 2 when
the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from dataclasses import dataclass, field
from time import perf_counter

import offline
import serve_load
from proc import Child, ChildError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hot", "serve-cold", "stream-ingest", "fit-publish")


@dataclass(frozen=True)
class Scale:
    """Input sizes; the self-test runs every workload at ``TINY``."""

    serve_records: int = 200_000
    stream_events: int = 600_000
    stream_window: int = 200_000
    fit_records: int = 1_000_000
    #: Fewest answered requests a serve percentile may rest on.
    min_requests: int = 100


TINY = Scale(
    serve_records=20_000, stream_events=6_000, stream_window=2_000,
    fit_records=20_000, min_requests=1,
)


@dataclass
class Context:
    """One run's settings, results and correctness state."""

    root: str
    work: str
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: Scale = Scale()
    #: Corrupt one output before it is checked (self-test only).
    doctor: bool = False
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    children: list = field(default_factory=list)

    def spawn(self, args: list[str], tag: str):
        """Start a program process (``python`` + ``args``) logging its
        stderr to the work directory; reaped when the run ends."""
        child = Child(args, self.root, os.path.join(self.work, f"{tag}.log"))
        self.children.append(child)
        return child

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    def run_worker(self, tag: str, config: dict) -> dict:
        """Run ``perfbench/worker.py`` on ``config``; its result plus
        ``_setup_s`` (launch to ready) and ``_peak_rss_mb``."""
        config = dict(config, result=os.path.join(self.work, f"{tag}.out.json"))
        path = os.path.join(self.work, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        child = self.spawn(["perfbench/worker.py", path], tag)
        try:
            child.expect(lambda line: line == "ready", timeout=120)
            setup_s = perf_counter() - child.started
            child.expect(lambda line: line == "done", timeout=170)
        finally:
            code = child.wait(30.0)
        if code != 0:
            raise ChildError(f"worker {tag} exited with {code}; {child.log_tail()}")
        with open(config["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["_setup_s"] = setup_s
        result["_peak_rss_mb"] = result.pop("peak_rss_mb")
        return result


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(ctx: Context) -> dict:
    """Run one workload; returns the result object (last output line)."""
    runners = {
        "serve-hot": serve_load.run,
        "serve-cold": serve_load.run,
        "stream-ingest": offline.run_stream,
        "fit-publish": offline.run_fit,
    }
    os.makedirs(ctx.work, exist_ok=True)
    try:
        runners[ctx.workload](ctx)
    finally:
        for child in ctx.children:
            child.wait(0.0)  # kills and reaps any still running
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass  # another run's directory is still there
    declared = declared_metrics(ctx.trace)
    metrics = {}
    for name, unit in declared.items():
        if name in ctx.metrics:
            value = float(ctx.metrics[name])
        elif ctx.trace:
            value = 0.0  # the layer is not on this workload's path
        else:
            ctx.check(False, f"end-to-end metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(ctx.metrics) - set(declared))
    ctx.check(not extra, f"undeclared metrics {extra}")
    if ctx.trace:
        coverage = metrics["trace.coverage"]["value"]
        ctx.check(coverage >= 0.9, f"trace.coverage {coverage:.3f} is below 0.9")
    else:
        for name, entry in metrics.items():
            ctx.check(entry["value"] > 0, f"{name} is {entry['value']}")
    ctx.check(ctx.attempted >= 1, "no operation was attempted")
    return {
        "correct": not ctx.errors,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"error: no program under {ROOT}/src (run from a full checkout)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    ctx = Context(
        root=ROOT,
        work=os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}"),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    result = run_workload(ctx)
    print(json.dumps({
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": ctx.trace,
        "machine": fingerprint(),
        "operations": {
            "attempted": ctx.attempted,
            "succeeded": ctx.attempted - ctx.failed,
            "failed": ctx.failed,
        },
        "details": ctx.details,
        "errors": ctx.errors,
    }))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
