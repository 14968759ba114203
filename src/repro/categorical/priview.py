"""PriView for categorical datasets (Section 4.7, end to end).

The pipeline is the binary one — noisy views, overall consistency,
Ripple, max-entropy reconstruction — run over mixed-radix tables: a
binary attribute is simply an arity-2 attribute, so
:class:`CategoricalPriView` is a :class:`~repro.core.priview.PriView`
that only changes *view selection*.  Instead of a covering design it
picks views with a per-view cell budget
(:func:`~repro.categorical.views.select_categorical_views`), and the
fitted :class:`~repro.core.synopsis.PriViewSynopsis` has no design.

The exact marginals come off :meth:`Dataset.marginal
<repro.marginals.dataset.Dataset.marginal>`'s own ``bincount``:
multi-valued data is never bit-packed, because packing multi-valued
codes costs more than it saves (data whose arities are all 2 is packed,
exactly as for the binary mechanism).  ``workers=N`` fans the
views out with per-view ``SeedSequence`` child noise streams,
bit-identical for any worker count, exactly as for the binary
mechanism.
"""

from __future__ import annotations

from repro.categorical.views import select_categorical_views
from repro.core.nonnegativity import DEFAULT_THETA
from repro.core.priview import PriView


class CategoricalPriView(PriView):
    """PriView over multi-valued attributes.

    Parameters
    ----------
    epsilon:
        Privacy budget (``inf`` = noise-free).
    max_cells:
        Per-view cell budget; defaults to the Section 4.7 guideline.
    views:
        Explicit attribute tuples, overriding greedy selection.
    theta:
        Ripple threshold.
    seed:
        Seeds view selection and the noise generator.
    workers / packed:
        As in the binary :class:`~repro.core.priview.PriView`
        (``packed`` is deprecated and ignored).

    Every noise draw lands in a strict ``CategoricalPriView.fit``
    budget scope that balances exactly to ``epsilon`` (view selection
    spends nothing).
    """

    name = "categorical-priview"
    ledger_scope = "CategoricalPriView.fit"

    def __init__(
        self,
        epsilon: float,
        max_cells: int | None = None,
        views: list[tuple[int, ...]] | None = None,
        theta: float = DEFAULT_THETA,
        seed: int | None = None,
        packed: bool | None = None,
        workers: int | None = None,
    ):
        super().__init__(epsilon, theta=theta, seed=seed, workers=workers)
        self.max_cells = max_cells
        self.views = views

    def choose_views(self, dataset) -> tuple[None, list[tuple[int, ...]]]:
        """Cell-budget greedy views (or the explicit ``views``)."""
        return None, self.views or select_categorical_views(
            dataset.arities, max_cells=self.max_cells, rng=self._rng
        )

    def selection_epsilon(self) -> float:
        return 0.0
