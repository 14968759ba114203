"""The end-to-end PriView mechanism (paper Section 4.2).

Typical use::

    from repro import PriView
    mechanism = PriView(epsilon=1.0, seed=7)
    synopsis = mechanism.fit(dataset)          # the only private step
    table = synopsis.marginal((0, 5, 9, 23))   # any k-way marginal

``fit`` spends the entire epsilon on the noisy views (Laplace noise of
scale ``w / epsilon`` per view, by sequential composition over the
``w`` views); everything afterwards is post-processing and free.

The fit hot path (one exact ℓ-way marginal per view — the only step
touching raw records) picks its extractor from the data
(:func:`repro.kernels.as_packed`): binary data is read through the
bit-sliced kernels of :class:`repro.kernels.PackedDataset`, categorical
data through its own ``bincount``.  Both count exactly, so the choice
never changes a released synopsis.  The one fit setting is ``workers``::

    PriView(epsilon=1.0, seed=7, workers=8).fit(dataset)

``workers=None`` (the default) draws the noise from one sequential
stream.  Any integer switches to per-view ``SeedSequence.spawn`` child
streams and fans the views over that many threads: the synopsis is
then bit-identical for any worker count (1, 2, 8, …), though different
from the sequential stream.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import obs
from repro.core.consistency import make_consistent
from repro.core.nonnegativity import DEFAULT_THETA, apply_nonnegativity
from repro.core.synopsis import PriViewSynopsis
from repro.core.view_selection import (
    DEFAULT_VIEW_WIDTH,
    RECORD_COUNT_EPSILON,
    noisy_record_count,
    select_views,
)
from repro.covering.design import CoveringDesign
from repro.exceptions import PrivacyBudgetError
from repro.kernels import config as kernels_config
from repro.kernels.fit import generate_noisy_views as _parallel_noisy_views
from repro.kernels.packed import as_packed
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import noisy_marginal


class PriView:
    """Configurable PriView mechanism.

    Parameters
    ----------
    epsilon:
        Total privacy budget; ``float('inf')`` gives the paper's
        noise-free ``C*`` variants.
    view_width:
        The ``l`` of the covering design (paper recommends 8).
    strength:
        Covering strength ``t``; ``None`` picks it with the Section 4.5
        heuristic from a noisy record count.
    design:
        Explicit covering design, overriding automatic selection —
        used by the experiments that sweep designs.
    nonnegativity:
        ``"ripple"`` (default), ``"simple"``, ``"global"`` or
        ``"none"``.
    nonneg_rounds:
        How many (non-negativity + consistency) rounds follow the
        initial consistency pass.  1 reproduces the paper's
        Consistency + Ripple + Consistency; Figure 4 shows more rounds
        add nothing.
    theta:
        Ripple threshold.
    seed:
        Seeds the noise generator for reproducible experiments.
    workers:
        ``None`` (default, possibly overridden by the process-wide
        default from :func:`repro.kernels.set_fit_defaults`, e.g. the
        CLI's ``run --workers``): legacy sequential noise stream.  Any
        integer: fan the views out over that many threads with
        per-view ``SeedSequence.spawn`` streams — bit-identical for
        every worker count, including 1.
    packed:
        Deprecated and ignored: binary data is always read through the
        packed kernels, categorical data never (see the module
        docstring).
    """

    name = "priview"
    #: strict budget scope every fit's noise draws are recorded under
    ledger_scope = "PriView.fit"

    def __init__(
        self,
        epsilon: float,
        view_width: int = DEFAULT_VIEW_WIDTH,
        strength: int | None = None,
        design: CoveringDesign | None = None,
        nonnegativity: str = "ripple",
        nonneg_rounds: int = 1,
        theta: float = DEFAULT_THETA,
        consistency: bool = True,
        seed: int | None = None,
        packed: bool | None = None,
        workers: int | None = None,
    ):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
        defaults = kernels_config.fit_defaults()
        self.epsilon = float(epsilon)
        self.view_width = view_width
        self.strength = strength
        self.design = design
        self.nonnegativity = nonnegativity
        self.nonneg_rounds = nonneg_rounds
        self.theta = theta
        self.consistency = consistency
        self.workers = defaults["workers"] if workers is None else workers
        self._rng = np.random.default_rng(seed)
        self._seed_seq = np.random.SeedSequence(seed)

    # ------------------------------------------------------------------
    def choose_design(self, dataset) -> CoveringDesign:
        """The covering design ``fit`` will use for ``dataset``."""
        if self.design is not None:
            return self.design
        n_estimate = (
            dataset.num_records
            if np.isinf(self.epsilon)
            else noisy_record_count(dataset.num_records, rng=self._rng)
        )
        return select_views(
            n_estimate,
            dataset.num_attributes,
            self.epsilon,
            block_size=self.view_width,
            strength=self.strength,
        )

    def choose_views(
        self, dataset
    ) -> tuple[CoveringDesign | None, list[tuple[int, ...]]]:
        """View selection: the design (if any) and the view attribute sets.

        The binary mechanism releases the blocks of a covering design;
        subclasses choosing views another way return ``None`` as the
        design (see :class:`~repro.categorical.priview.CategoricalPriView`).
        """
        with obs.span("choose_design"):
            design = self.choose_design(dataset)
        obs.set_gauge("priview.design_blocks", design.num_blocks)
        obs.set_gauge("priview.design_width", design.block_size)
        return design, list(design.blocks)

    def selection_epsilon(self) -> float:
        """Budget :meth:`choose_views` spends (the noisy record count of
        an automatic design choice), on top of ``epsilon``."""
        if self.design is None and not np.isinf(self.epsilon):
            return RECORD_COUNT_EPSILON
        return 0.0

    def generate_noisy_views(self, dataset, design) -> list[MarginalTable]:
        """Step 2: the only step that touches the private data.

        ``design`` is a :class:`CoveringDesign` or a list of view
        attribute sets.  The exact marginals come off the extractor
        :func:`~repro.kernels.as_packed` picks for ``dataset``; with
        ``workers`` set, views are fanned out with per-view child
        noise streams (see the module docstring for the determinism
        contract).
        """
        blocks = design.blocks if isinstance(design, CoveringDesign) else design
        w = len(blocks)
        source = as_packed(dataset)
        if self.workers is None:
            obs.set_gauge("fit.workers", 1)
            return [
                noisy_marginal(
                    source.marginal(block), self.epsilon, sensitivity=w, rng=self._rng
                )
                for block in blocks
            ]
        return _parallel_noisy_views(
            source,
            blocks,
            self.epsilon,
            sensitivity=w,
            root_seed=self._seed_seq,
            workers=self.workers,
        )

    def post_process(self, views: list[MarginalTable]) -> list[MarginalTable]:
        """Steps 3: consistency and non-negativity, in the paper's order.

        Consistency, then ``nonneg_rounds`` repetitions of
        (non-negativity + consistency).  Runs in place and returns the
        same list for convenience.
        """
        if self.consistency:
            with obs.span("consistency"):
                make_consistent(views)
        rounds = self.nonneg_rounds if self.nonnegativity != "none" else 0
        for _ in range(rounds):
            with obs.span("nonnegativity"):
                for view in views:
                    apply_nonnegativity(view, self.nonnegativity, theta=self.theta)
            if self.consistency:
                with obs.span("consistency"):
                    make_consistent(views)
        return views

    def fit(self, dataset) -> PriViewSynopsis:
        """Run the full pipeline and return the private synopsis.

        Under an observability session the fit is traced stage by stage
        and every noise draw lands in the strict :attr:`ledger_scope`
        budget scope.  The scope's configured total is ``epsilon`` plus
        whatever view selection spends (:meth:`selection_epsilon` —
        the paper's ``RECORD_COUNT_EPSILON`` sliver when the design is
        chosen automatically under finite budget), so the ledger audit
        balances exactly.
        """
        configured = self.epsilon + self.selection_epsilon()
        fit_start = perf_counter()
        with obs.span(f"{self.name}.fit"), obs.budget_scope(
            self.ledger_scope, configured
        ):
            design, blocks = self.choose_views(dataset)
            with obs.span("noisy_views"):
                views = self.generate_noisy_views(dataset, blocks)
            with obs.span("post_process"):
                views = self.post_process(views)
            obs.observe(
                "fit.seconds",
                perf_counter() - fit_start,
                {"mechanism": self.name},
            )
        if design is None:
            # no design carries the views, so the metadata records them
            metadata = {"view_attrs": [tuple(b) for b in blocks], "theta": self.theta}
            arities = tuple(dataset.arities)
        else:
            metadata = {
                "nonnegativity": self.nonnegativity,
                "nonneg_rounds": self.nonneg_rounds,
                "theta": self.theta,
            }
            arities = None
        return PriViewSynopsis(
            design=design,
            views=views,
            epsilon=self.epsilon,
            num_attributes=dataset.num_attributes,
            domain=getattr(dataset, "domain", None),
            metadata=metadata,
            arities=arities,
        )
