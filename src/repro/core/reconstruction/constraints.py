"""Constraint extraction for k-way reconstruction (paper Section 4.3).

For a target attribute set ``A`` and a view ``V``, the view's marginal
projected onto ``B = V ∩ A`` imposes one linear constraint per cell of
``T_B`` (``2**|B|`` for binary attributes) on the cells of ``T_A``.
Constraints from a ``B`` nested inside another view's ``B'`` are
implied once the views are consistent, so only maximal intersections
are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReconstructionError
from repro.marginals.projection import constraint_matrix, subset_positions
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable


@dataclass(frozen=True)
class MarginalConstraint:
    """``T_A[attrs] == target`` — one view's contribution."""

    attrs: tuple[int, ...]  # subset of the reconstruction target A
    target: np.ndarray  # one entry per cell of T_attrs

    @property
    def arity(self) -> int:
        return len(self.attrs)


def extract_constraints(
    views: list[MarginalTable],
    target_attrs,
    keep_maximal_only: bool = True,
) -> list[MarginalConstraint]:
    """Constraints on ``T_A`` induced by the given view marginals.

    With ``keep_maximal_only`` (the default, appropriate for mutually
    consistent views) a constraint set nested in another is dropped,
    and duplicate sets are collapsed to one (their targets agree after
    consistency; we average to also support raw views).
    """
    target = AttrSet(target_attrs)
    target_set = set(target)
    by_attrs: dict[tuple[int, ...], list[MarginalTable]] = {}
    for view in views:
        inter = tuple(sorted(target_set.intersection(view.attrs)))
        if not inter:
            continue
        by_attrs.setdefault(inter, []).append(view)

    if not by_attrs:
        raise ReconstructionError(
            f"no view intersects the target attributes {target}"
        )

    kept = list(by_attrs)
    if keep_maximal_only:
        as_sets = {b: frozenset(b) for b in by_attrs}
        kept = [
            b
            for b, b_set in as_sets.items()
            if not any(
                b_set < other for other in as_sets.values() if other is not b_set
            )
        ]
    # Dominated intersections are dropped *before* any projection runs
    # — on a wide synopsis most views lose to a larger overlap, and
    # projecting them first was the solved path's main fixed cost.
    constraints = []
    for attrs in sorted(kept, key=lambda a: (-len(a), a)):
        projected = [view.project(attrs) for view in by_attrs[attrs]]
        merged = projected[0].counts if len(projected) == 1 else np.mean(
            [p.counts for p in projected], axis=0
        )
        constraints.append(MarginalConstraint(projected[0].attrs, merged))
    return constraints


def solver_target(target_attrs, constraints: list[MarginalConstraint]) -> AttrSet:
    """The target attribute set with the arities its constraints record.

    The views are the only record of an attribute's arity, so the
    solvers' cell layout for the target comes from the constraints the
    views induced.  Binary constraints carry no arities and leave the
    target binary; otherwise every target attribute must appear in
    some constraint.
    """
    target = AttrSet(target_attrs)
    arity_of: dict[int, int] = {}
    for c in constraints:
        attrs = AttrSet(c.attrs)
        if attrs.arities is not None:
            arity_of.update(zip(attrs, attrs.arities))
    if not arity_of:
        return target
    missing = [a for a in target if a not in arity_of]
    if missing:
        raise ReconstructionError(
            f"attributes {missing} appear in no view; their arities are unknown"
        )
    return target.with_arities(arity_of[a] for a in target)


def covering_view(views: list[MarginalTable], target_attrs) -> MarginalTable | None:
    """The first view fully containing the target, if any (trivial case)."""
    target = set(AttrSet(target_attrs))
    for view in views:
        if target.issubset(view.attrs):
            return view
    return None


def build_constraint_system(
    constraints: list[MarginalConstraint],
    target_attrs,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack constraints into a dense system ``M x = b``.

    ``x`` is the flattened cell vector of the target marginal.
    Used by the LP and least-squares solvers; the max-entropy solver
    works directly on the structured constraints instead.
    """
    target = AttrSet(target_attrs)
    layout = target.arities or len(target)
    rows = []
    rhs = []
    for c in constraints:
        positions = subset_positions(target, c.attrs)
        rows.append(constraint_matrix(layout, positions))
        rhs.append(c.target)
    return np.vstack(rows), np.concatenate(rhs)
