"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical inputs, a different seed changes them.  The
program under test only ever sees what these functions produce (a
uint8 record matrix, a JSON-lines event file, HTTP request bodies).

The record generator follows the click-stream model of
``repro.datasets.clickstream`` (Zipf base popularity, per-type boosts,
Gamma user activity) but draws in fixed-size chunks, so a d=64, N=1M
matrix never materialises a float64 (N, d) probability array.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

#: Rows drawn per chunk (bounds the float64 scratch to a few MB).
CHUNK_ROWS = 16_384

#: Kosarak-like (d=32) and generic click-stream (d=64) parameters, as
#: in ``repro.datasets.clickstream.kosarak_like`` / ``clickstream_dataset``.
KOSARAK = {"num_types": 8, "zipf_exponent": 1.1, "mean_intensity": 1.2}
CLICKSTREAM = {"num_types": 6, "zipf_exponent": 1.1, "mean_intensity": 1.0}


def clickstream_rows(
    seed: int,
    num_records: int,
    num_attributes: int,
    num_types: int,
    zipf_exponent: float,
    mean_intensity: float,
    activity_shape: float = 1.5,
    boost_range: tuple[float, float] = (3.0, 10.0),
) -> np.ndarray:
    """An ``(N, d)`` 0/1 uint8 click-stream matrix drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    base = 1.0 / np.arange(1, num_attributes + 1) ** zipf_exponent
    boosts = np.ones((num_types, num_attributes))
    for t in range(num_types):
        favourites = rng.choice(
            num_attributes, size=max(2, num_attributes // 4), replace=False
        )
        boosts[t, favourites] = rng.uniform(*boost_range, size=favourites.size)
    weights = base[None, :] * boosts
    out = np.empty((num_records, num_attributes), dtype=np.uint8)
    for start in range(0, num_records, CHUNK_ROWS):
        n = min(CHUNK_ROWS, num_records - start)
        types = rng.integers(0, num_types, size=n)
        activity = rng.gamma(
            activity_shape, mean_intensity / activity_shape, size=n
        )
        probs = 1.0 - np.exp(-activity[:, None] * weights[types])
        out[start:start + n] = rng.random((n, num_attributes)) < probs
    return out


def write_jsonl_events(rows: np.ndarray, path) -> int:
    """Write one ``[item, ...]`` JSON array per row; returns the byte size.

    Vectorised: every row gets an end marker in an extra column, and
    each nonzero cell maps to one of ``2 * (d + 1)`` precomputed tokens
    (``"[c"`` / ``", c"`` for items, ``"[]\\n"`` / ``"]\\n"`` for the
    marker), so the text is one ``join`` over a token table lookup.
    The bytes equal ``json.dumps(items) + "\\n"`` per row.
    """
    d = rows.shape[1]
    first = [f"[{c}" for c in range(d)] + ["[]\n"]
    later = [f", {c}" for c in range(d)] + ["]\n"]
    table = np.array(first + later, dtype=object)
    size = 0
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, rows.shape[0], 8 * CHUNK_ROWS):
            chunk = rows[start:start + 8 * CHUNK_ROWS]
            marked = np.ones((chunk.shape[0], d + 1), dtype=np.uint8)
            marked[:, :d] = chunk
            row_idx, col_idx = np.nonzero(marked)
            is_later = np.ones(row_idx.size, dtype=np.int64)
            is_later[0] = 0
            is_later[1:] = row_idx[1:] == row_idx[:-1]
            text = "".join(table[is_later * (d + 1) + col_idx].tolist())
            handle.write(text)
            size += len(text)
    return size


# ----------------------------------------------------------------------
# Query workloads
# ----------------------------------------------------------------------
def _covered(attrs, block_masks) -> bool:
    mask = sum(1 << a for a in attrs)
    return any(mask & b == mask for b in block_masks)


def _masks(blocks) -> list[int]:
    return [sum(1 << a for a in block) for block in blocks]


def hot_pool(seed: int, blocks, num_attributes: int, size: int = 256):
    """The serve-hot query pool: ``[(attrs, expected_path), ...]``.

    Half covered (2 to 4 attributes inside one view), a quarter solved
    (uncovered 4-sets) and a quarter derived (uncovered 3-subsets of
    the solved 4-sets, answered by projecting the cached parent).  The
    list is in warm-up order: solved parents first, so the derived
    subsets find them in the cache.
    """
    rng = np.random.default_rng([seed, 1])
    masks = _masks(blocks)
    blocks = [tuple(b) for b in blocks]
    solved: list[tuple] = []
    derived: list[tuple] = []
    seen: set = set()
    quarter = size // 4
    while len(derived) < quarter:
        parent = tuple(sorted(
            rng.choice(num_attributes, 4, replace=False).tolist()
        ))
        if parent in seen or _covered(parent, masks):
            continue
        subsets = [
            s for s in combinations(parent, 3)
            if not _covered(s, masks) and s not in seen
        ]
        if not subsets:
            continue
        solved.append(parent)
        seen.add(parent)
        child = subsets[rng.integers(len(subsets))]
        derived.append(child)
        seen.add(child)
    while len(solved) < quarter:
        attrs = tuple(sorted(
            rng.choice(num_attributes, 4, replace=False).tolist()
        ))
        # A 4-set is never a strict superset of another 4-set, so extra
        # solved parents cannot turn an earlier query into a derived one.
        if attrs not in seen and not _covered(attrs, masks):
            solved.append(attrs)
            seen.add(attrs)
    covered: list[tuple] = []
    while len(covered) < size - len(solved) - len(derived):
        block = blocks[rng.integers(len(blocks))]
        k = int(rng.integers(2, 5))
        attrs = tuple(sorted(rng.choice(block, k, replace=False).tolist()))
        if attrs not in seen:
            covered.append(attrs)
            seen.add(attrs)
    return (
        [(a, "solved") for a in solved]
        + [(a, "derived") for a in derived]
        + [(a, "covered") for a in covered]
    )


def zipf_sequence(seed: int, pool_size: int, length: int,
                  exponent: float = 1.1) -> np.ndarray:
    """``length`` pool indices drawn Zipf-skewed over a seeded ranking."""
    rng = np.random.default_rng([seed, 2])
    ranking = rng.permutation(pool_size)
    weights = 1.0 / np.arange(1, pool_size + 1) ** exponent
    draws = rng.choice(pool_size, size=length, p=weights / weights.sum())
    return ranking[draws]


def cold_batches(seed: int, blocks, num_attributes: int, count: int,
                 universe_seed: int, universe_batches: int = 200,
                 batch_size: int = 16) -> list[list[tuple]]:
    """``count`` batches of distinct, never-repeated uncovered queries.

    Each query has 4 to 6 attributes, is covered by no view, appears
    once, and is no subset of any query of its own or the neighbouring
    universes, so every one misses the server's answer cache (which
    holds fewer entries than a universe) and goes to the solver rather
    than the derived (project-a-cached-superset) path.

    The batches come in fixed *universes* of ``universe_batches``
    batches drawn from ``universe_seed``; the workload ``seed``
    shuffles the order of the batches within each universe.  A run
    that gets through a whole universe has therefore sent the same
    batches as every other run, so the rare batches that hold a
    slow-to-solve query do not vary from seed to seed.
    """
    rng = np.random.default_rng([universe_seed, 3])
    order = np.random.default_rng([seed, 3])
    masks = _masks(blocks)
    universe = universe_batches * batch_size
    wanted = -(-count // universe_batches) * universe
    queries: list[tuple] = []
    # Per universe: its queries and every 4- or 5-subset of one.  A
    # candidate is checked against its own universe and the previous
    # one, all that a shuffled universe boundary brings within reach.
    chosen: list[set] = [set()]
    contained: list[set] = [set()]
    asked: set = set()
    while len(queries) < wanted:
        # Candidates in vectorised blocks: k in 4..6, k distinct attrs.
        ks = rng.integers(4, 7, size=4096)
        picks = np.argsort(rng.random((ks.size, num_attributes)), axis=1)
        for k, pick in zip(ks.tolist(), picks[:, :6].tolist()):
            attrs = tuple(sorted(pick[:k]))
            live = (chosen[-2:], contained[-2:])
            if attrs in asked or _covered(attrs, masks) or any(
                attrs in group for sets in live for group in sets
            ):
                continue
            subsets = [s for r in range(4, k) for s in combinations(attrs, r)]
            if any(s in group for s in subsets for group in live[0]):
                continue
            asked.add(attrs)
            chosen[-1].add(attrs)
            contained[-1].update(subsets)
            queries.append(attrs)
            if len(queries) == wanted:
                break
            if len(queries) % universe == 0:
                chosen.append(set())
                contained.append(set())
    batches: list[list[tuple]] = []
    for start in range(0, wanted, universe_batches):
        shuffled = order.permutation(universe_batches) + start
        batches += [
            queries[i * batch_size:(i + 1) * batch_size]
            for i in shuffled.tolist()
        ]
    return batches[:count]


def marginal_body(attrs) -> bytes:
    return json.dumps({"attrs": list(attrs)}).encode()


def batch_body(queries) -> bytes:
    return json.dumps({"queries": [{"attrs": list(q)} for q in queries]}).encode()
