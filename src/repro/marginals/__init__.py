"""Marginal-table substrate: datasets, marginal tables and projections.

This subpackage implements the data structures the paper's Section 2
defines: datasets over ``d`` attributes (one :class:`Dataset` for every
arity; a binary attribute has arity 2), k-way marginal contingency
tables, and the full contingency table (for small binary ``d``).

Cell indexing convention
------------------------
A marginal table over the sorted attribute tuple ``attrs = (a_0 < a_1 <
... < a_{m-1})`` with arities ``b_j`` stores ``prod(b_j)`` cells, in
mixed radix: cell ``i`` is the assignment where ``a_j`` takes the value
``(i // prod(b_0..b_{j-1})) % b_j``.  For binary attributes that is
``2**m`` cells, with ``a_j`` taking the value ``(i >> j) & 1``.
Every module in this package uses this convention; helpers in
:mod:`repro.marginals.projection` translate between tables over nested
attribute sets.
"""

from repro.marginals.attrs import AttrSet, as_attrs
from repro.marginals.dataset import BinaryDataset, CategoricalDataset, Dataset
from repro.marginals.domain import (
    ATTRIBUTE_KINDS,
    Attribute,
    Domain,
    as_domain,
)
from repro.marginals.table import MarginalTable
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.projection import (
    constraint_matrix,
    projection_index,
    projection_map,
)
from repro.marginals.queries import (
    all_attribute_subsets,
    consecutive_attribute_sets,
    random_attribute_sets,
)
from repro.marginals.analysis_queries import (
    conditional_probability,
    count_where,
    fraction_where,
    most_common_cells,
)

__all__ = [
    "ATTRIBUTE_KINDS",
    "AttrSet",
    "Attribute",
    "Domain",
    "as_attrs",
    "as_domain",
    "BinaryDataset",
    "CategoricalDataset",
    "Dataset",
    "MarginalTable",
    "FullContingencyTable",
    "projection_map",
    "projection_index",
    "constraint_matrix",
    "all_attribute_subsets",
    "consecutive_attribute_sets",
    "random_attribute_sets",
    "conditional_probability",
    "count_where",
    "fraction_where",
    "most_common_cells",
]
