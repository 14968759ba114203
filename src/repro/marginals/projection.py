"""Index arithmetic shared by marginal-table operations.

The central object is the *projection map*: for a table over ``m``
attributes and a sub-table over a subset of those attributes, the map
sends each parent cell to the sub-table cell it contributes to.
Projection is then a weighted bincount over this map, and the
consistency update of Section 4.4 is a gather through it.

Cells use the mixed-radix convention: a table over attributes with
arities ``(b_0, ..., b_{m-1})`` has ``prod(b_j)`` cells, and cell
``i`` assigns attribute ``j`` the value ``(i // stride_j) % b_j`` with
``stride_j = b_0 * ... * b_{j-1}``.  A binary attribute is simply an
arity-2 attribute, for which this is the bit-``j`` convention.  Every
map takes the parent's *layout*: an attribute count ``m`` for an
all-binary table, or its tuple of arities.  An arity tuple of all 2s
is the binary layout and yields the very same (shared) map.

Every helper here is memoised: the same subset→index maps recur
constantly across consistency passes, Ripple, the reconstruction
constraint builders and the serving engine, so each distinct map is
built once per process and shared (returned arrays are read-only).
Cache keys always include the layout, never just attribute tuples —
:class:`~repro.marginals.attrs.AttrSet` equality ignores arities.
:mod:`repro.kernels.indexcache` exposes aggregate hit/miss statistics
over these caches.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.exceptions import DimensionError


def table_size(arities) -> int:
    """Number of cells of a table with the given attribute arities."""
    return math.prod(int(b) for b in arities)


def strides(arities) -> tuple[int, ...]:
    """Mixed-radix place values: ``stride_j = prod(arities[:j])``."""
    out = []
    acc = 1
    for b in arities:
        out.append(acc)
        acc *= int(b)
    return tuple(out)


def _canonical(layout):
    """A layout's cache key: the attribute count when it is binary (an
    int, or all-2 arities), so both spellings share one map; else the
    arity tuple."""
    if isinstance(layout, int):
        return layout
    layout = tuple(layout)
    return len(layout) if all(b == 2 for b in layout) else layout


def _arity_tuple(layout) -> tuple[int, ...]:
    return (2,) * layout if isinstance(layout, int) else layout


def _check_positions(m: int, positions: tuple[int, ...]) -> None:
    if any(pos < 0 or pos >= m for pos in positions):
        raise DimensionError(
            f"positions {positions} out of range for an {m}-attribute table"
        )
    if len(set(positions)) != len(positions):
        raise DimensionError(f"positions {positions} contain duplicates")


@functools.lru_cache(maxsize=4096)
def projection_map(layout, positions: tuple[int, ...]) -> np.ndarray:
    """Map each cell of a table to its projected cell.

    Parameters
    ----------
    layout:
        The parent table's layout: its attribute count ``m`` when every
        attribute is binary, else its tuple of arities.
    positions:
        Positions (each in ``range(m)``) of the attributes retained by
        the projection, in the order they appear in the sub-table.

    Returns
    -------
    numpy.ndarray
        An int64 array ``p`` over the parent cells where ``p[i]`` is
        the index of the sub-table cell that parent cell ``i`` maps to.
    """
    key = _canonical(layout)
    if key != layout:
        return projection_map(key, positions)
    arities = _arity_tuple(layout)
    _check_positions(len(arities), positions)
    parent_strides = strides(arities)
    cells = np.arange(table_size(arities), dtype=np.int64)
    out = np.zeros(cells.size, dtype=np.int64)
    sub_stride = 1
    for pos in positions:
        out += (cells // parent_strides[pos]) % arities[pos] * sub_stride
        sub_stride *= arities[pos]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8192)
def subset_positions(attrs: tuple[int, ...], sub: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of ``sub``'s attributes inside the sorted tuple ``attrs``.

    Raises :class:`~repro.exceptions.DimensionError` if ``sub`` is not a
    subset of ``attrs``.
    """
    index = {attr: j for j, attr in enumerate(attrs)}
    try:
        return tuple(index[a] for a in sub)
    except KeyError as exc:
        raise DimensionError(f"{sub} is not a subset of {attrs}") from exc


@functools.lru_cache(maxsize=8192)
def projection_index(
    attrs: tuple[int, ...], sub: tuple[int, ...], arities=None
) -> tuple[tuple[int, ...], np.ndarray]:
    """One-stop cached ``(positions, projection map)`` for a subset pair.

    The common lookup on the table/consistency/serving hot paths:
    resolving ``sub`` inside ``attrs`` and building the cell map used by
    projections and consistency updates, in a single cache probe keyed
    on the attribute tuples *and* the parent's ``arities`` (``None``
    for a binary table).
    """
    positions = subset_positions(tuple(attrs), tuple(sub))
    layout = len(attrs) if arities is None else tuple(arities)
    return positions, projection_map(layout, positions)


@functools.lru_cache(maxsize=4096)
def embedding_masks(k: int, positions: tuple[int, ...]) -> np.ndarray:
    """Cell masks of a ``k``-attribute table spanned by ``positions``.

    Entry ``s`` of the returned length-``2**len(positions)`` int64
    array is the ``k``-bit mask obtained by scattering the bits of
    ``s`` onto ``positions`` (bit ``r`` of ``s`` lands on bit
    ``positions[r]``).  In the Walsh–Hadamard (residual) basis these
    are exactly the coefficient indices of ``T_A`` that the marginal
    over the sub-attributes at ``positions`` determines — the inverse
    direction of :func:`projection_map`, used by the residual
    reconstruction solver.
    """
    _check_positions(k, positions)
    sub = np.arange(1 << len(positions), dtype=np.int64)
    out = np.zeros(1 << len(positions), dtype=np.int64)
    for rank, pos in enumerate(positions):
        out |= ((sub >> rank) & 1) << pos
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=1024)
def constraint_matrix(layout, positions: tuple[int, ...]) -> np.ndarray:
    """Dense 0/1 matrix expressing a sub-marginal as sums of parent cells.

    ``layout`` is the parent's attribute count (binary) or arities, as
    for :func:`projection_map`.  Row ``r`` of the returned
    ``(sub cells, parent cells)`` matrix has a 1 in column ``i``
    exactly when parent cell ``i`` projects to sub-table cell ``r``.
    Used by the LP and least-squares reconstruction solvers, which
    need explicit linear constraints, and by the stacked IPF sweeps.
    The returned matrix is cached and read-only; callers that need to
    mutate must copy.
    """
    pmap = projection_map(layout, positions)
    arities = _arity_tuple(_canonical(layout))
    rows = table_size(arities[p] for p in positions)
    mat = np.zeros((rows, pmap.size), dtype=np.float64)
    mat[pmap, np.arange(pmap.size)] = 1.0
    mat.setflags(write=False)
    return mat


@functools.lru_cache(maxsize=128)
def cell_neighbours(layout) -> np.ndarray:
    """Change-one-value neighbours of every cell of a table.

    Returns a read-only ``(cells, sum(b_j - 1))`` int64 array whose
    row ``i`` lists the cells obtained from ``i`` by changing the value
    of one attribute — attribute by attribute, each to every other
    value.  For a binary table (``layout`` an int ``m``) that is the
    ``m`` single-bit flips.  Used by the Ripple non-negativity
    procedure (Sections 4.4 and 4.7).
    """
    key = _canonical(layout)
    if key != layout:
        return cell_neighbours(key)
    arities = _arity_tuple(layout)
    parent_strides = strides(arities)
    cells = np.arange(table_size(arities), dtype=np.int64)
    columns = []
    for stride, b in zip(parent_strides, arities):
        digit = (cells // stride) % b
        base = cells - digit * stride
        for other in range(1, b):
            columns.append(base + (digit + other) % b * stride)
    out = np.stack(columns, axis=1) if columns else np.zeros((1, 0), np.int64)
    out.setflags(write=False)
    return out
