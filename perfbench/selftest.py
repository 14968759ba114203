"""Self-test of the benchmark harness at tiny input sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* the same seed regenerates identical inputs and a different seed
  changes them (record matrices, the event file, query pools, the
  Zipf draw and the cold batches);
* every workload, traced and untraced, emits exactly the metrics
  ``BENCHMARK.json`` declares, each with its unit, and passes its
  correctness checks;
* a doctored answer (one count changed, one window short, one
  artifact digest changed) trips each workload's correctness check.

Takes about a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import inputs  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        FAILURES.append(message)


def check_inputs() -> None:
    from repro.covering.repository import best_design

    blocks = best_design(32, 8, 2).blocks
    a = inputs.clickstream_rows(1, 3000, 32, **inputs.KOSARAK)
    expect(np.array_equal(a, inputs.clickstream_rows(1, 3000, 32, **inputs.KOSARAK)),
           "same seed regenerates the same record matrix")
    expect(not np.array_equal(a, inputs.clickstream_rows(2, 3000, 32, **inputs.KOSARAK)),
           "a different seed changes the record matrix")
    os.makedirs(os.path.join(run.ROOT, ".perfbench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT, ".perfbench_work")) as tmp:
        paths = [os.path.join(tmp, f"{i}.jsonl") for i in range(3)]
        inputs.write_jsonl_events(a, paths[0])
        inputs.write_jsonl_events(a, paths[1])
        inputs.write_jsonl_events(
            inputs.clickstream_rows(2, 3000, 32, **inputs.KOSARAK), paths[2]
        )
        data = [open(p, "rb").read() for p in paths]
    expect(data[0] == data[1], "same seed regenerates the same event file")
    expect(data[0] != data[2], "a different seed changes the event file")
    import json
    lines = data[0].decode().splitlines()
    expect(
        all(json.loads(line) == np.flatnonzero(row).tolist()
            for line, row in zip(lines, a)) and len(lines) == len(a),
        "the event file holds one JSON item list per record",
    )
    expect(inputs.hot_pool(1, blocks, 32) == inputs.hot_pool(1, blocks, 32),
           "same seed regenerates the same hot pool")
    expect(inputs.hot_pool(1, blocks, 32) != inputs.hot_pool(2, blocks, 32),
           "a different seed changes the hot pool")
    z = inputs.zipf_sequence(1, 256, 1000)
    expect(np.array_equal(z, inputs.zipf_sequence(1, 256, 1000)),
           "same seed regenerates the same Zipf draw")
    expect(not np.array_equal(z, inputs.zipf_sequence(2, 256, 1000)),
           "a different seed changes the Zipf draw")
    cold = inputs.cold_batches(1, blocks, 32, 20, universe_seed=7)
    expect(cold == inputs.cold_batches(1, blocks, 32, 20, universe_seed=7),
           "same seed regenerates the same cold batches")
    expect(cold != inputs.cold_batches(2, blocks, 32, 20, universe_seed=7),
           "a different seed changes the cold batches")
    flat = [q for batch in cold for q in batch]
    expect(
        len(set(flat)) == len(flat)
        and not any(set(p) < set(q) for p in flat for q in flat),
        "cold queries never repeat and none is a subset of another",
    )


def run_tiny(workload: str, trace: bool, doctor: bool = False) -> dict:
    ctx = run.Context(
        root=run.ROOT,
        work=os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}"),
        workload=workload,
        seed=3,
        seconds=1.0,
        trace=trace,
        scale=run.TINY,
        doctor=doctor,
    )
    return run.run_workload(ctx)


def check_workloads() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} --trace {int(trace)}"
            result = run_tiny(workload, trace)
            declared = run.declared_metrics(trace)
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(emitted == declared,
                   f"{label}: every declared metric emitted with its unit")
            expect(
                result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{label}: correct, {result['attempted']} attempted, "
                f"{result['failed']} failed",
            )
        result = run_tiny(workload, False, doctor=True)
        expect(
            not result["correct"] and result["failed"] >= 1,
            f"{workload}: a doctored answer fails the check "
            f"({result['failed']} of {result['attempted']} failed)",
        )


def main() -> int:
    check_inputs()
    check_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
