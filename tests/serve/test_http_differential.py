"""Differential: answers over HTTP vs the in-process engine.

One synopsis is served both ways — as a single source
(``/v1/marginal``, ``/v1/batch``) and from a store
(``/v1/d/{name}/marginal``, ``/v1/d/{name}/batch``) — and the wire
must add nothing: every served table is bitwise equal to what a fresh
in-process :class:`QueryEngine` answers for the same request
sequence, on the covered, derived and solved (``maxent`` and
``residual``) paths.  JSON floats round-trip exactly, so bitwise is
the right bar.

A batch is compared with :meth:`QueryEngine.answer_batch`, the call
the batch route makes: the stacked maxent pre-solve agrees with
one-at-a-time answers only to solver tolerance
(``test_recon_differential``), so ``answer`` is not its bitwise
reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import MarginalServer, QueryClient, QueryEngine, serve_store
from repro.store import SynopsisStore

#: (attrs, method, planner path) — each derived query follows a solved
#: superset of the same method.
SEQUENCE = [
    ((0, 1), "maxent", "covered"),
    ((0, 1, 4, 6), "maxent", "solved"),
    ((0, 4, 6), "maxent", "derived"),
    ((1, 3, 6), "residual", "solved"),
    ((1, 6), "residual", "derived"),
    ((2, 7), "residual", "solved"),
]


@pytest.fixture(params=["single", "store"])
def client(request, chain_synopsis, tmp_path):
    """A client of a fresh server hosting ``chain_synopsis``."""
    if request.param == "single":
        with MarginalServer(QueryEngine(chain_synopsis), port=0) as server:
            yield QueryClient(server.url)
    else:
        store = SynopsisStore(tmp_path / "store")
        store.publish("chain", chain_synopsis)
        with serve_store(store, port=0) as server:
            yield QueryClient(server.url, dataset="chain")


def assert_bitwise(payload: dict, answer) -> None:
    assert payload["path"] == answer.path
    assert payload["method"] == answer.method
    got = np.asarray(payload["counts"], dtype=np.float64)
    assert got.tobytes() == np.ascontiguousarray(answer.table.counts).tobytes()


def test_marginal_route_matches_answer(client, chain_synopsis):
    with QueryEngine(chain_synopsis) as engine:
        for attrs, method, path in SEQUENCE:
            payload = client.marginal(attrs, method=method)
            want = engine.answer(attrs, method=method)
            assert want.path == path
            assert_bitwise(payload, want)


def test_batch_route_matches_answer_batch(client, chain_synopsis):
    workload = [(attrs, method) for attrs, method, _ in SEQUENCE]
    payload = client.batch(workload)
    with QueryEngine(chain_synopsis) as engine:
        want = engine.answer_batch(workload)
    assert [a.path for a in want] == [path for _, _, path in SEQUENCE]
    assert payload["count"] == len(want)
    for got, answer in zip(payload["answers"], want):
        assert_bitwise(got, answer)
