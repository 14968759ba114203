"""Differential: a binary dataset and the same 0/1 matrix as an
arity-2 categorical dataset are the same problem.

Same records, same view blocks, same seed: ``PriView`` over the
``BinaryDataset`` and ``CategoricalPriView(views=blocks)`` over the
``CategoricalDataset`` of arities ``(2,) * d`` must release bitwise
identical views on both noise streams, and a ``QueryEngine`` over
either synopsis must answer every query — covered, derived and
solved — with bitwise identical counts.
"""

import itertools

import numpy as np
import pytest

from repro.categorical import CategoricalDataset, CategoricalPriView
from repro.core.priview import PriView
from repro.covering.design import CoveringDesign
from repro.marginals.dataset import BinaryDataset
from repro.serve import PATH_COVERED, PATH_DERIVED, PATH_SOLVED, QueryEngine
from repro.serve.protocol import encode_answer

BLOCKS = (
    (0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8), (2, 5, 7, 9), (3, 6, 8, 9),
    (0, 7, 9, 1), (2, 4, 8, 6), (3, 5, 1, 9),
)


@pytest.fixture(scope="module")
def matrix() -> np.ndarray:
    rng = np.random.default_rng(2014)
    n, d = 3000, 10
    types = rng.integers(0, 3, n)
    profiles = rng.random((3, d)) * 0.8
    return (rng.random((n, d)) < profiles[types]).astype(np.uint8)


def _fit_both(matrix, workers, packed):
    design = CoveringDesign(10, 4, 2, blocks=BLOCKS)
    binary = PriView(
        1.0, design=design, seed=17, workers=workers, packed=packed
    ).fit(BinaryDataset(matrix))
    arity2 = CategoricalPriView(
        1.0, views=[tuple(sorted(b)) for b in BLOCKS], seed=17,
        workers=workers, packed=packed,
    ).fit(CategoricalDataset(matrix, (2,) * matrix.shape[1]))
    return binary, arity2


def _queries(synopsis):
    uncovered = [
        q for q in itertools.combinations(range(synopsis.num_attributes), 4)
        if not synopsis.is_covered(q)
    ]
    covered = tuple(synopsis.views[2].attrs[:3])
    # a solved 4-way, then a 3-subset of it that no view covers (derived)
    parent = next(
        q for q in uncovered
        if any(not synopsis.is_covered(s) for s in itertools.combinations(q, 3))
    )
    derived = next(
        s for s in itertools.combinations(parent, 3)
        if not synopsis.is_covered(s)
    )
    return [covered, parent, derived], uncovered[5:11]


@pytest.mark.parametrize("workers", [None, 2], ids=["legacy", "workers2"])
@pytest.mark.parametrize("packed", [False, True], ids=["raw", "packed"])
def test_views_bitwise_equal(matrix, workers, packed):
    binary, arity2 = _fit_both(matrix, workers, packed)
    assert binary.num_views == arity2.num_views
    for a, b in zip(binary.views, arity2.views):
        assert a.attrs == b.attrs
        assert a.is_binary and b.is_binary
        np.testing.assert_array_equal(a.counts, b.counts)


@pytest.mark.parametrize("workers", [None, 2], ids=["legacy", "workers2"])
@pytest.mark.parametrize("method", ["maxent", "residual"])
def test_engine_answers_bitwise_equal(matrix, workers, method):
    binary, arity2 = _fit_both(matrix, workers, packed=False)
    singles, batch = _queries(binary)
    with QueryEngine(binary) as left, QueryEngine(arity2) as right:
        answers = [
            (left.answer(q, method=method), right.answer(q, method=method))
            for q in singles
        ]
        answers += list(zip(
            left.answer_batch(batch, method=method),
            right.answer_batch(batch, method=method),
        ))
        fallbacks = (
            left.stats()["solve"]["fallbacks"], right.stats()["solve"]["fallbacks"]
        )
    assert [a.path for a, _ in answers[:3]] == [
        PATH_COVERED, PATH_SOLVED, PATH_DERIVED,
    ]
    for a, b in answers:
        assert a.path == b.path
        np.testing.assert_array_equal(a.table.counts, b.table.counts)
        wire_a, wire_b = encode_answer(a), encode_answer(b)
        assert "arities" not in wire_a and "arities" not in wire_b
        assert wire_a["counts"] == wire_b["counts"]
    assert fallbacks == (0, 0)
