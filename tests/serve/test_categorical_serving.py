"""Serving a categorical synopsis goes through the real planner.

Categorical views are ordinary view tables now, so the engine plans
them covered → derived → solved like binary ones, pre-solves a batch
of uncovered queries in one stacked max-entropy solve, and absorbs the
binary-only residual solver's refusal through its maxent fallback.
"""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.categorical import CategoricalDataset, CategoricalPriView
from repro.core import reconstruction
from repro.core.reconstruction import (
    ResidualIndex,
    extract_constraints,
    residual,
)
from repro.exceptions import ReconstructionError
from repro.marginals.domain import Domain
from repro.serve import PATH_COVERED, PATH_DERIVED, PATH_SOLVED, QueryEngine
from repro.serve.protocol import decode_table, encode_answer


@pytest.fixture(scope="module")
def synopsis():
    domain = Domain.from_arities((3, 2, 4, 2, 3, 5, 2))
    data = CategoricalDataset.random(
        6000, domain, rng=np.random.default_rng(8)
    )
    return CategoricalPriView(2.0, max_cells=48, seed=4).fit(data)


def _uncovered(synopsis, k):
    return [
        q for q in itertools.combinations(range(synopsis.num_attributes), k)
        if not synopsis.is_covered(q)
    ]


class TestPlannerPaths:
    def test_covered_derived_solved(self, synopsis):
        view = synopsis.views[0]
        covered = tuple(view.attrs[:2])
        # views cover every pair, so derive an uncovered 3-way from a
        # solved 4-way
        parent = next(
            q for q in _uncovered(synopsis, 4)
            if any(not synopsis.is_covered(s) for s in itertools.combinations(q, 3))
        )
        derived = next(
            s for s in itertools.combinations(parent, 3)
            if not synopsis.is_covered(s)
        )
        with QueryEngine(synopsis) as engine:
            a_cov = engine.answer(covered)
            a_sol = engine.answer(parent)
            a_der = engine.answer(derived)
        assert [a_cov.path, a_sol.path, a_der.path] == [
            PATH_COVERED, PATH_SOLVED, PATH_DERIVED,
        ]
        assert a_cov.source == view.attrs
        np.testing.assert_array_equal(
            a_cov.table.counts, view.project(covered).counts
        )
        np.testing.assert_array_equal(
            a_der.table.counts, a_sol.table.project(derived).counts
        )
        for answer in (a_cov, a_sol, a_der):
            assert answer.table.arities == tuple(
                synopsis.arities[a] for a in answer.attrs
            )
            assert answer.table.total() == pytest.approx(synopsis.total_count())

    def test_wire_round_trip_keeps_arities(self, synopsis):
        query = _uncovered(synopsis, 3)[0]
        with QueryEngine(synopsis) as engine:
            answer = engine.answer(query)
        payload = encode_answer(answer)
        assert payload["arities"] == [synopsis.arities[a] for a in query]
        table = decode_table(payload)
        assert table.arities == answer.table.arities
        np.testing.assert_array_equal(table.counts, answer.table.counts)


class TestStackedBatch:
    def test_uncovered_batch_is_one_maxent_solve(self, synopsis, monkeypatch):
        calls = []
        stacked = reconstruction._BATCH_SOLVERS["maxent"]

        def spy(constraint_lists, targets, total):
            calls.append(len(targets))
            return stacked(constraint_lists, targets, total)

        monkeypatch.setitem(reconstruction._BATCH_SOLVERS, "maxent", spy)
        workload = _uncovered(synopsis, 3)[:5]
        with obs.session() as sess:
            with QueryEngine(synopsis) as engine:
                answers = engine.answer_batch(workload)
            counters = sess.metrics.snapshot()["counters"]
        assert calls == [len(workload)]
        assert counters["serve.solve.batched"] == len(workload)
        assert [a.path for a in answers] == [PATH_SOLVED] * len(workload)
        for query, answer in zip(workload, answers):
            single = synopsis.marginal(query)
            np.testing.assert_allclose(
                answer.table.counts, single.counts,
                rtol=0, atol=1e-6 * synopsis.total_count(),
            )


class TestResidualOnNonBinary:
    def test_solvers_refuse_non_binary(self, synopsis):
        with pytest.raises(ReconstructionError, match="binary"):
            ResidualIndex(synopsis.views)
        target = _uncovered(synopsis, 3)[0]
        constraints = extract_constraints(synopsis.views, target)
        with pytest.raises(ReconstructionError, match="binary"):
            residual(
                constraints,
                reconstruction.solver_target(target, constraints),
                synopsis.total_count(),
            )

    def test_engine_falls_back_to_maxent(self, synopsis):
        query = _uncovered(synopsis, 3)[0]
        batch = _uncovered(synopsis, 3)[1:4]
        with obs.session() as sess:
            with QueryEngine(synopsis, default_method="residual") as engine:
                single = engine.answer(query)
                answers = engine.answer_batch(batch)
                stats = engine.stats()
            counters = sess.metrics.snapshot()["counters"]
        assert single.method == "residual" and single.path == PATH_SOLVED
        np.testing.assert_array_equal(
            single.table.counts, synopsis.marginal(query).counts
        )
        assert all(a.path == PATH_SOLVED for a in answers)
        assert stats["solve"]["fallbacks"] == 1 + len(batch)
        assert counters["serve.solve.fallback"] == 1 + len(batch)
