"""Golden bytes: one substrate for binary and categorical data changes
nothing a user can observe.

The fixtures in ``tests/data/golden`` were written by the code that
still kept separate binary and categorical stacks (its own table,
packed dataset, Ripple, IPF and synopsis classes for categorical
data):

* ``golden.json`` holds the sha256 of every ``SynopsisStore.publish``
  artifact below, and the engine answers to a fixed query sequence;
* ``*-v3.npz`` / ``binary-v2.npz`` are artifacts that code wrote.

Binary artifacts and answers must stay bitwise identical; categorical
artifacts too.  Categorical *solved* answers (and projections of
them) may differ within solver tolerance, because one IPF now serves
both kinds and orders its constraints the binary way.
"""

import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.categorical import CategoricalDataset, CategoricalPriView
from repro.core.priview import PriView
from repro.core.serialization import load_synopsis, save_synopsis
from repro.covering.design import CoveringDesign
from repro.marginals.dataset import BinaryDataset
from repro.marginals.domain import Attribute, Domain
from repro.serve import PATH_COVERED, QueryEngine
from repro.store import SynopsisStore

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

DESIGN = CoveringDesign(10, 4, 2, blocks=(
    (3, 4, 5, 7), (0, 1, 4, 9), (2, 4, 6, 8), (0, 2, 6, 7), (3, 5, 8, 9),
    (0, 3, 5, 6), (1, 2, 3, 5), (0, 1, 7, 8), (1, 6, 7, 9), (2, 4, 7, 9),
))

MIXED = Domain((
    Attribute("age", 4, kind="numeric", bins=(0.0, 25, 45, 65, 100)),
    Attribute("job", 3, labels=("none", "blue", "white")),
    Attribute("flag", 2),
    Attribute("kids", 4, kind="ordinal"),
    Attribute("region", 5),
    Attribute("pet", 2),
))


def _binary_data() -> np.ndarray:
    rng = np.random.default_rng(20140622)
    n, d = 4000, 10
    types = rng.integers(0, 3, n)
    profiles = rng.random((3, d)) * 0.8
    return (rng.random((n, d)) < profiles[types]).astype(np.uint8)


def _categorical_data(arities) -> np.ndarray:
    rng = np.random.default_rng(4711)
    n = 5000
    latent = rng.integers(0, 3, n)
    columns = []
    for b in arities:
        prefs = rng.dirichlet(np.ones(b), size=3)
        cdf = prefs[latent].cumsum(axis=1)
        columns.append((rng.random((n, 1)) > cdf[:, :-1]).sum(axis=1))
    return np.stack(columns, axis=1)


def _fit(name: str):
    if name.startswith("binary"):
        workers = None if "wNone" in name else 2
        packed = name.endswith("p1")
        dataset = BinaryDataset(_binary_data(), name="golden")
        return PriView(
            1.0, design=DESIGN, seed=5, packed=packed, workers=workers
        ).fit(dataset)
    fast = dict(packed=True, workers=2) if name.endswith("w2-p1") else {}
    if name.startswith("cat-mixed"):
        dataset = CategoricalDataset(
            _categorical_data(MIXED.arities), MIXED.arities, domain=MIXED
        )
        return CategoricalPriView(1.0, max_cells=60, seed=3, **fast).fit(dataset)
    dataset = CategoricalDataset(_categorical_data((2,) * 8), (2,) * 8)
    return CategoricalPriView(1.0, max_cells=16, seed=3, **fast).fit(dataset)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((GOLDEN / "golden.json").read_text())


@pytest.fixture(scope="module")
def synopses(golden) -> dict:
    return {name: _fit(name) for name in golden["sha256"]}


class TestPublishedBytes:
    def test_every_artifact_sha256_unchanged(self, golden, synopses, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        for name, expected in golden["sha256"].items():
            info = store.publish(
                name, synopses[name], created_at="2026-01-01T00:00:00Z"
            )
            assert info.sha256 == expected, name
            again = store.get(name, verify=True)
            assert [list(v.attrs) for v in again.views] == golden["views"][name]

    def test_categorical_kind_follows_the_design(self, synopses, tmp_path):
        # all-arity-2 categorical fits still have no covering design,
        # which is what makes them serialise as "categorical"
        assert synopses["cat-two"].design is None
        assert all(v.arities == (2,) * v.arity for v in synopses["cat-two"].views)
        assert synopses["binary-wNone-p0"].design is DESIGN
        for name, kind in [("cat-two", "categorical"), ("binary-wNone-p0", "priview")]:
            path = save_synopsis(synopses[name], tmp_path / f"{name}.npz")
            with np.load(path) as archive:
                header = json.loads(str(archive["header"]))
            assert header["kind"] == kind
            assert ("view_arities" in header) == (kind == "categorical")

    @pytest.mark.parametrize("filename", [
        "binary-v2.npz", "binary-wNone-p0-v3.npz",
        "cat-mixed-v3.npz", "cat-two-v3.npz",
    ])
    def test_old_artifacts_load_verified(self, filename, synopses):
        loaded = load_synopsis(GOLDEN / filename, verify=True)
        fitted = synopses[
            "binary-wNone-p0" if filename.startswith("binary") else
            filename.removesuffix("-v3.npz")
        ]
        assert (loaded.design is None) == (fitted.design is None)
        assert loaded.arities == fitted.arities
        assert loaded.domain == fitted.domain
        for a, b in zip(loaded.views, fitted.views):
            assert a.attrs == b.attrs and a.arities == b.arities
            np.testing.assert_array_equal(a.counts, b.counts)


def _replay(synopsis, method: str):
    """The query sequence golden.json answers, through a fresh engine."""
    d = synopsis.num_attributes

    def uncovered(k):
        return [
            combo for combo in itertools.combinations(range(d), k)
            if not synopsis.is_covered(combo)
        ]

    solved = uncovered(4)[:3]
    sequence = [tuple(synopsis.views[0].attrs[:3])] + solved + [solved[0][:3]]
    with QueryEngine(synopsis, cache_size=64, workers=2) as engine:
        answers = [engine.answer(q, method=method) for q in sequence]
        answers += engine.answer_batch(uncovered(3)[:6], method=method)
    return answers


class TestServedAnswers:
    @pytest.mark.parametrize("name", ["binary-wNone-p0", "binary-w2-p1"])
    @pytest.mark.parametrize("method", ["maxent", "residual"])
    def test_binary_answers_bitwise(self, golden, synopses, name, method):
        expected = golden["answers"][name][method]
        answers = _replay(synopses[name], method)
        assert len(answers) == len(expected)
        for answer, row in zip(answers, expected):
            assert list(answer.attrs) == row["attrs"]
            assert answer.path == row["path"]
            np.testing.assert_array_equal(answer.table.counts, row["counts"])

    @pytest.mark.parametrize("name", ["cat-mixed", "cat-two"])
    def test_categorical_answers(self, golden, synopses, name):
        synopsis = synopses[name]
        total = synopsis.total_count()
        expected = golden["answers"][name]["maxent"]
        answers = _replay(synopsis, "maxent")
        assert len(answers) == len(expected)
        for answer, row in zip(answers, expected):
            assert list(answer.attrs) == row["attrs"]
            # The old engine hid categorical views from its planner, so
            # it labelled covered answers "solved" (and could derive a
            # covered set from a cached solve); its projections of a
            # view are still bitwise ours.
            if answer.path == PATH_COVERED and row["path"] == "solved":
                np.testing.assert_array_equal(answer.table.counts, row["counts"])
            else:
                np.testing.assert_allclose(
                    answer.table.counts, row["counts"], rtol=0, atol=1e-9 * total
                )
