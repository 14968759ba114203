"""Categorical-attribute extension of PriView (paper Section 4.7).

The main library handles binary datasets, following the paper's main
sections.  Section 4.7 sketches the extension to attributes with
``b >= 2`` values each.  A binary attribute is an arity-2 attribute,
so the core already implements it: one
:class:`~repro.marginals.dataset.Dataset` holds records of any arity
(``CategoricalDataset``, re-exported here, is its alias),
:class:`~repro.marginals.table.MarginalTable` lays its cells out by
its attributes' arities, Ripple changes one value instead of flipping
one bit, and the max-entropy reconstruction runs the same IPF over
mixed-radix projections.  The extension experiment's Direct and
Uniform baselines are the general :class:`~repro.baselines.\
DirectMethod` and :class:`~repro.baselines.UniformMethod`.  This
subpackage adds only what is specific to multi-valued data: view
selection that bounds the *cell count* per view using the Section 4.7
``s`` guideline instead of the attribute count
(:mod:`repro.categorical.views`), and the
:class:`~repro.categorical.priview.CategoricalPriView` mechanism that
uses it.
"""

from repro.marginals.dataset import CategoricalDataset
from repro.categorical.priview import CategoricalPriView
from repro.categorical.views import select_categorical_views

__all__ = [
    "CategoricalDataset",
    "CategoricalPriView",
    "select_categorical_views",
]
