"""The serve workloads: ``repro store serve`` under closed-loop HTTP load.

Both workloads host the same kosarak-like d=32, N=200k synopsis over
``C_2(8,20)``, fitted and published by the program in a set-up
process, and load it through keep-alive ``http.client`` connections,
one client thread each, each sending its next request only after the
previous answer's last byte (closed loop):

* ``serve-hot`` — two connections send single
  ``POST /v1/d/{name}/marginal`` requests drawn Zipf-skewed from a
  pre-warmed pool of 256 queries of 2 to 4 attributes (covered,
  derived and solved paths), so nearly every request is a cache hit;
  runs for ``--seconds``.
* ``serve-cold`` — one connection sends ``POST /v1/d/{name}/batch``
  requests of 16 distinct, never-repeated uncovered queries of 4 to 6
  attributes, so every query misses the cache and is solved (server
  default method).  It sends whole fixed universes of batches (see
  ``inputs.cold_batches``) until half of ``--seconds`` has passed.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
from statistics import median
from time import perf_counter
from urllib.parse import urlsplit

import numpy as np

import inputs
from proc import ChildError, peak_rss_mb

DATASET = "kosarak"
NUM_ATTRIBUTES = 32
#: The served synopsis, and the cold query universes, are the same in
#: every run (the repository's fixed data seed): the solver's cost
#: depends strongly on which synopsis and which rare hard queries it
#: meets, and drawing them per seed would turn run-to-run spread into
#: input-to-input spread.  The query order comes from the workload seed.
FIXED_SEED = 20140622
SETUP_LAUNCHES = 3
PUBLISH_CPUS = 4
BATCH_SIZE = 16
#: Cold batches per universe, per second of ``--seconds``: 200 at 20 s,
#: so the p95 rests on ten samples beyond it.
COLD_UNIVERSE_PER_S = 10
#: Cold batches generated per second of ``--seconds``: room for a
#: program several times faster than today's before the plan runs out.
COLD_BATCHES_PER_S = 100
#: A cold phase never runs past this many times ``--seconds``.
COLD_CAP = 3
#: Every Nth hot response, plus each pool query's first answer per
#: connection, is kept and checked after the timed phase.
HOT_CHECK_EVERY = 97
COLD_CHECK_BATCHES = 8
#: The max-entropy solver's convergence tolerance (relative mismatch).
SOLVER_TOL = 1e-9
HEADERS = {"Content-Type": "application/json"}


class _Conn:
    """One keep-alive connection; ``post`` returns (status, body)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, body: bytes = b"") -> tuple[int, bytes]:
        try:
            self.conn.request("POST", path, body=body, headers=HEADERS)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=120
            )
            return 0, b""

    def get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class Server:
    """One ``repro store serve`` process (traced through the launcher)."""

    def __init__(self, ctx, store_dir: str, traced: bool, tag: str):
        self.spans_path = os.path.join(ctx.work, f"spans-{tag}.jsonl")
        if traced:
            args = ["perfbench/launcher.py", self.spans_path]
        else:
            args = ["-m", "repro"]
        args += ["store", "serve", "--store", store_dir, "--port", "0"]
        self.child = ctx.spawn(args, tag)
        line = self.child.expect(lambda l: " on http://" in l, timeout=120)
        url = urlsplit(line.rsplit(" on ", 1)[1].strip())
        self.host, self.port = url.hostname, url.port

    def connect(self) -> _Conn:
        return _Conn(self.host, self.port)

    def trace_signal(self, signum, reply: str) -> None:
        self.child.signal(signum)
        self.child.expect(lambda l: l == f"perfbench: {reply}", timeout=60)

    def read_spans(self, suffix: str = "") -> dict:
        with open(self.spans_path + suffix, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        return json.loads(lines[-1])["summary"]

    def scrape(self) -> tuple[dict, dict]:
        """(engine ``/stats``, ``/metrics`` samples summed over labels)."""
        from repro.obs.prometheus import parse_prometheus

        conn = self.connect()
        try:
            _, body = conn.post(f"/v1/d/{DATASET}/stats")
            _, text = conn.get("/metrics")
        finally:
            conn.close()
        values: dict = {}
        for family in parse_prometheus(text.decode()).values():
            for name, _labels, value in family["samples"]:
                values[name] = values.get(name, 0.0) + value
        return json.loads(body), values

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        rss = peak_rss_mb(self.child.proc.pid)
        code = self.child.stop()
        if code != 0:
            raise ChildError(f"server exited with {code}; {self.child.log_tail()}")
        return rss


def publish_synopsis(ctx, store: str, data: str, cpu: int):
    """Fit and publish the served synopsis five times in one program
    process pinned to ``cpu``; returns the median seconds per op and
    the set of published sha256 digests."""
    ops = ctx.run_worker(f"publish-{len(ctx.children)}", {
        "mode": "fit",
        "data": data,
        "store": store,
        "dataset": DATASET,
        "num_attributes": NUM_ATTRIBUTES,
        "view_width": 8,
        "strength": 2,
        "epsilon": 1.0,
        "seed": FIXED_SEED,
        "mechanism": {},
        "min_ops": 5,
        "seconds": 0,
        "cpu": cpu,
    })["ops"]
    return median(op["elapsed_s"] for op in ops), {op["sha256"] for op in ops}


def launch(ctx, store: str, traced: bool, launches: int):
    """Start the server ``launches`` times; keep the last one.

    Set-up time is launch to the first answered request (store load,
    sha256 verify and engine build happen on that first request).
    Returns the running server and every launch's set-up time.
    """
    setups = []
    server = None
    first = inputs.marginal_body((0, 1))
    kind = "traced" if traced else "plain"
    for i in range(launches):
        server = Server(ctx, store, traced, f"server-{kind}-{i}")
        conn = server.connect()
        status, body = conn.post(f"/v1/d/{DATASET}/marginal", first)
        setups.append(perf_counter() - server.child.started)
        conn.close()
        ctx.check(status == 200, f"first request answered {status}: {body[:200]!r}")
        if i < launches - 1:
            server.stop()
    return server, setups


def closed_loop(server: Server, plans, keep, stop):
    """One client thread per plan, a list of ``(path, body, tag)``.

    Before each request ``stop(i, elapsed_s)`` may end the thread's
    loop.  Returns per-connection ``(latencies_s, failed, kept)``,
    where latencies cover 200 answers only and ``kept`` holds the
    ``(tag, body)`` answers ``keep(slot, i, tag)`` selected, and the
    wall time from the common start to the last answer.
    """
    results: list = [None] * len(plans)
    ends = [0.0] * len(plans)
    barrier = threading.Barrier(len(plans) + 1)

    def client(slot: int, plan) -> None:
        conn = server.connect()
        latencies: list[float] = []
        kept: list = []
        failed = 0
        barrier.wait()
        begin = perf_counter()
        try:
            for i, (path, body, tag) in enumerate(plan):
                start = perf_counter()
                if stop(i, start - begin):
                    break
                status, data = conn.post(path, body)
                elapsed = perf_counter() - start
                if status != 200:
                    failed += 1
                    continue
                latencies.append(elapsed)
                if keep(slot, i, tag):
                    kept.append((tag, data))
        finally:
            conn.close()
            ends[slot] = perf_counter()
            results[slot] = (latencies, failed, kept)

    threads = [
        threading.Thread(target=client, args=(slot, plan), daemon=True)
        for slot, plan in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    return results, max(ends) - start


def total_ok(answer: dict, total: float) -> bool:
    """Whether an answer's table total equals the synopsis total.

    Equal up to the solver tolerance, or, for an answer whose solve
    did not converge (``meta.maxent.converged`` false), up to the
    relative mismatch the solver reports for it.
    """
    maxent = (answer.get("meta") or {}).get("maxent") or {}
    tol = SOLVER_TOL
    if maxent and not maxent.get("converged", True):
        tol = max(tol, float(maxent["residual"]))
    return abs(answer["total"] - total) <= tol * total


def _doctor(samples, eligible) -> None:
    """Add one count to every kept answer ``eligible(tag)`` selects
    (self-test: the checks must catch it)."""
    for k, (tag, data) in enumerate(samples):
        if eligible(tag):
            body = json.loads(data)
            answer = body["answers"][0] if "answers" in body else body
            answer["counts"][0] += 1.0
            samples[k] = (tag, json.dumps(body).encode())


class _Hot:
    """serve-hot: Zipf draws over a pre-warmed 256-query pool."""

    connections = 2
    queries_per_request = 1
    path = f"/v1/d/{DATASET}/marginal"

    def __init__(self, ctx, synopsis, blocks, seconds: float):
        self.ctx, self.synopsis, self.seconds = ctx, synopsis, seconds
        self.pool = inputs.hot_pool(ctx.seed, blocks, NUM_ATTRIBUTES)
        bodies = [inputs.marginal_body(attrs) for attrs, _ in self.pool]
        horizon = int(seconds * 20_000)
        self.plans = []
        for slot in range(self.connections):
            draws = inputs.zipf_sequence(ctx.seed + 7919 * slot, len(self.pool), horizon)
            self.plans.append([(self.path, bodies[i], i) for i in draws.tolist()])
        self._seen = [set() for _ in range(self.connections)]

    def stop(self, i: int, elapsed: float) -> bool:
        return elapsed >= self.seconds

    def keep(self, slot: int, i: int, tag: int) -> bool:
        if tag not in self._seen[slot]:
            self._seen[slot].add(tag)
            return True
        return i % HOT_CHECK_EVERY == 0

    def doctor(self, samples) -> None:
        _doctor(samples, lambda tag: self.pool[tag][1] == "covered")

    def warm(self, server: Server) -> None:
        """Cache the pool: two batches, the solved parents first so the
        derived queries find them."""
        ctx = self.ctx
        conn = server.connect()
        try:
            solved = [q for q in self.pool if q[1] == "solved"]
            rest = [q for q in self.pool if q[1] != "solved"]
            for group in (solved, rest):
                status, data = conn.post(
                    f"/v1/d/{DATASET}/batch",
                    inputs.batch_body([attrs for attrs, _ in group]),
                )
                ctx.check(status == 200, f"warm-up batch answered {status}")
                if status != 200:
                    continue
                for (attrs, expected), answer in zip(
                    group, json.loads(data)["answers"]
                ):
                    ctx.check(
                        answer["path"] == expected,
                        f"warm-up {attrs}: path {answer['path']}, "
                        f"expected {expected}",
                    )
        finally:
            conn.close()

    def verify(self, samples) -> None:
        """Kept answers: right path, a cache hit, the synopsis total,
        and covered answers bitwise equal to ``synopsis.marginal``."""
        total = self.synopsis.total_count()
        for tag, data in samples:
            attrs, expected = self.pool[tag]
            answer = json.loads(data)
            ok = answer["path"] == expected and answer["cached"] is True
            ok = ok and total_ok(answer, total)
            if expected == "covered":
                want = self.synopsis.marginal(attrs).counts
                ok = ok and np.array_equal(np.asarray(answer["counts"]), want)
            self.ctx.check(ok, f"serve-hot answer for {attrs} ({expected}) is wrong")
            self.ctx.failed += not ok


class _Cold:
    """serve-cold: whole universes of never-repeated uncovered batches."""

    connections = 1
    queries_per_request = BATCH_SIZE
    path = f"/v1/d/{DATASET}/batch"

    def __init__(self, ctx, synopsis, blocks, seconds: float):
        self.ctx, self.synopsis, self.seconds = ctx, synopsis, seconds
        self.universe = max(1, int(seconds * COLD_UNIVERSE_PER_S))
        self.batches = inputs.cold_batches(
            ctx.seed, blocks, NUM_ATTRIBUTES,
            max(self.universe, int(seconds * COLD_BATCHES_PER_S)),
            universe_seed=FIXED_SEED, universe_batches=self.universe,
            batch_size=BATCH_SIZE,
        )
        self.plans = [[
            (self.path, inputs.batch_body(batch), j)
            for j, batch in enumerate(self.batches)
        ]]
        self._check_rng = np.random.default_rng([ctx.seed, 4])

    def stop(self, i: int, elapsed: float) -> bool:
        """Stop at the first universe boundary past half of the
        seconds, so every run asks whole universes."""
        boundary = i > 0 and i % self.universe == 0
        return (boundary and elapsed >= self.seconds / 2) or (
            elapsed >= COLD_CAP * self.seconds
        )

    def keep(self, slot: int, i: int, tag: int) -> bool:
        return True

    def doctor(self, samples) -> None:
        _doctor(samples, lambda tag: True)

    def warm(self, server: Server) -> None:
        pass

    def verify(self, samples) -> None:
        """A seeded sample of batches: each answer solved, uncached,
        of the synopsis total, and bitwise equal to an in-process
        ``QueryEngine`` on the same synopsis."""
        from repro.serve import QueryEngine

        ctx, total = self.ctx, self.synopsis.total_count()
        chosen = self._check_rng.choice(
            len(samples), size=min(COLD_CHECK_BATCHES, len(samples)),
            replace=False,
        )
        for k in sorted(chosen.tolist()):
            tag, data = samples[k]
            body = json.loads(data)
            queries = self.batches[tag]
            # A fresh engine per batch holds, like the server, no cached
            # superset of any query, so it solves the same stack.
            with QueryEngine(self.synopsis) as engine:
                expected = engine.answer_batch(queries)
            ok = body["count"] == len(queries)
            for got, want in zip(body["answers"], expected):
                maxent = got["meta"].get("maxent") or {}
                ctx.details["unconverged_answers"] = ctx.details.get(
                    "unconverged_answers", 0
                ) + (not maxent.get("converged", True))
                ctx.details["checked_answers"] = ctx.details.get(
                    "checked_answers", 0
                ) + 1
                ok = ok and got["path"] == "solved" and not got["cached"]
                ok = ok and np.array_equal(
                    np.asarray(got["counts"]), want.table.counts
                )
                ok = ok and total_ok(got, total)
            ctx.check(ok, f"serve-cold batch {tag} differs from in-process")
            ctx.failed += not ok


def _layer_metrics(ctx, server, summary, latencies, before, after,
                   untraced_mean) -> dict:
    """Per-layer metrics of one traced serve phase, per request."""
    (stats0, prom0), (stats1, prom1) = before, after
    delta = lambda name: prom1.get(name, 0.0) - prom0.get(name, 0.0)
    n = len(latencies)
    client_s = sum(latencies)
    handler_s = summary["root_s"]
    self_s = summary["self_s"]
    per_us = lambda layer: 1e6 * self_s.get(layer, 0.0) / n
    cache0, cache1 = stats0["cache"], stats1["cache"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    solved = delta("maxent_calls_total") + delta("residual_calls_total")
    maxent_calls = delta("maxent_calls_total")
    ctx.check(
        summary["roots"] == n,
        f"traced {summary['roots']} handler calls for {n} answered requests",
    )
    return {
        "wire_ms": 1e3 * (client_s - handler_s) / n,
        "wire.share": (client_s - handler_s) / client_s,
        "server.handler_ms": 1e3 * handler_s / n,
        "protocol.parse_us": per_us("protocol.parse"),
        "protocol.encode_us": per_us("protocol.encode"),
        "router.lease_us": per_us("router.lease"),
        "engine.dispatch_us": per_us("engine.dispatch"),
        "planner.plan_us": per_us("planner.plan"),
        "cache.lookup_us": per_us("cache.lookup"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": cache1["evictions"] - cache0["evictions"],
        "cache.coalesced": cache1["coalesced"] - cache0["coalesced"],
        "solve.ms_per_query": (
            1e3 * delta("serve_solve_seconds_sum") / solved if solved else 0.0
        ),
        "maxent.sweeps_per_query": (
            delta("maxent_sweeps_total") / maxent_calls if maxent_calls else 0.0
        ),
        "solve.fallbacks": delta("serve_solve_fallback_total"),
        "store.load_verify_s": server.read_spans(".setup")["self_s"].get(
            "store.load_verify", 0.0
        ),
        "trace.overhead_pct": 100.0 * (client_s / n / untraced_mean - 1.0),
        "trace.coverage": (client_s - handler_s + sum(self_s.values())) / client_s,
    }


def run(ctx) -> None:
    from repro.covering.repository import best_design
    from repro.store import SynopsisStore

    rows = inputs.clickstream_rows(
        FIXED_SEED, ctx.scale.serve_records, NUM_ATTRIBUTES, **inputs.KOSARAK
    )
    data = os.path.join(ctx.work, "kosarak.npy")
    np.save(data, rows)
    store_dir = os.path.join(ctx.work, "store")
    # fit_publish_s: one publishing process per CPU before the timed
    # phase and again after it.  The CPUs of a small virtual machine
    # can differ in speed by 20-40% and drift over tens of seconds;
    # pinning and spreading the ops over the run averages both out.
    cpus = sorted(os.sched_getaffinity(0))[:PUBLISH_CPUS]
    fit_publish: list[float] = []
    shas: set = set()

    def publish_round() -> None:
        for cpu in cpus:
            seconds, digests = publish_synopsis(ctx, store_dir, data, cpu)
            fit_publish.append(seconds)
            shas.update(digests)
        ctx.check(len(shas) == 1, f"the served synopsis's sha256 varies: {shas}")

    publish_round()
    store = SynopsisStore(store_dir, create=False)
    synopsis = store.get(DATASET, verify=True)
    blocks = best_design(NUM_ATTRIBUTES, 8, 2).blocks
    # A traced run measures an untraced and a traced phase, half each.
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    load = (_Hot if ctx.workload == "serve-hot" else _Cold)(
        ctx, synopsis, blocks, seconds
    )

    def measure(server):
        results, wall = closed_loop(server, load.plans, load.keep, load.stop)
        latencies = [x for r in results for x in r[0]]
        failed = sum(r[1] for r in results)
        samples = [s for r in results for s in r[2]]
        ctx.attempted += len(latencies) + failed
        ctx.failed += failed
        ctx.check(failed == 0, f"{failed} requests failed or were not 200")
        # Percentiles need samples; a traced run reports none.
        ctx.check(ctx.trace or len(latencies) >= ctx.scale.min_requests,
                  f"only {len(latencies)} requests answered")
        if ctx.doctor:
            load.doctor(samples)
        return latencies, wall, samples

    if not ctx.trace:
        server, setups = launch(ctx, store_dir, False, SETUP_LAUNCHES)
        try:
            load.warm(server)
            latencies, wall, samples = measure(server)
        finally:
            rss = server.stop()
        load.verify(samples)
        publish_round()
        p50, p95 = np.percentile(np.asarray(latencies) * 1e3, [50, 95])
        qps = len(latencies) / wall
        ctx.metrics.update({
            "qps": qps,
            "latency_p50_ms": p50,
            "latency_p95_ms": p95,
            "events_per_s": qps * load.queries_per_request,
            "fit_publish_s": sum(fit_publish) / len(fit_publish),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
        })
        ctx.details.update(requests=len(latencies), seconds=wall,
                           setup_runs_s=setups)
        return

    # Traced run: the same load on a plain server, then on one started
    # through the tracing launcher; the first gives the overhead base.
    means = []
    for traced in (False, True):
        server, _ = launch(ctx, store_dir, traced, 1)
        try:
            load.warm(server)
            if traced:
                before = server.scrape()
                server.trace_signal(signal.SIGUSR1, "reset")
            latencies, _, samples = measure(server)
            if traced:
                server.trace_signal(signal.SIGUSR2, "dumped")
                summary = server.read_spans()
                after = server.scrape()
                layers = _layer_metrics(
                    ctx, server, summary, latencies, before, after, means[0]
                )
        finally:
            server.stop()
        load.verify(samples)
        means.append(sum(latencies) / len(latencies))
    ctx.metrics.update(layers)
    ctx.metrics["store.artifact_bytes"] = store.resolve(DATASET).size_bytes
    ctx.details["requests"] = len(latencies)
