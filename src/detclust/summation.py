"""Reproducible floating-point reductions.

tree_sum is a fixed-shape pairwise reduction whose association order
depends only on the length of the input, never on threading or chunking;
it is the one-row case of tree_sum_rows. tree_sum sums the ring deltas
and the offset F. tree_sum_rows sums the member weights behind every
1-center centroid (one row per set in geometry.solve_1centers) and the
costs of every center set in geometry._power_costs (power_cost is its
one-set case), every point set against its own centers in
geometry._own_center_costs (the candidate families' anchors), every
center tuple in rings.verify_offset_coreset and every init in
solve._polish_all (one row per set, tuple or init, equal to its
power_cost). Each row's summands are put in canonical_order first, so
power_cost is bit-identical across permutations of the points too.
Other sums (.sum, einsum) round in numpy's own order; those that drive
decisions (the swap and greedy scores, and the subset-cost table that
solve._all_subset_costs fills through solve_1centers) are pinned by the
golden digests, not tree_sum.
"""

import numpy as np


def tree_sum(values):
    """Pairwise (tree) sum of a 1-d array with a length-determined shape.

    Equivalent to a balanced binary reduction: adjacent pairs are added,
    an odd trailing element is carried, repeat. O(n) work, O(log n) passes.
    The one-row case of tree_sum_rows.
    """
    return float(tree_sum_rows(np.ravel(values)[None, :])[0])


def tree_sum_rows(rows):
    """tree_sum of every row of a 2-d array, one pass per tree level.

    Rows are padded with -0.0 on the right to a power-of-two width: for
    every x, x + -0.0 is x bit for bit, so an odd element paired with the
    padding is the carried element, and rows of different lengths can be
    summed together. The empty sum is +0.0."""
    a = np.asarray(rows, dtype=np.float64)
    m, n = a.shape
    if n == 0:
        return np.zeros(m)
    width = 1 << (n - 1).bit_length()
    if width > n:
        a = np.concatenate([a, np.full((m, width - n), -0.0)], axis=1)
    while a.shape[1] > 1:
        a = a[:, 0::2] + a[:, 1::2]
    return a[:, 0]


def canonical_keys(points, weights):
    """The np.lexsort keys of canonical_order: the weight, then the columns
    from last to first. np.lexsort's primary key is its last one, so rows
    sort by their first column, ties by the next, and the weight breaks
    the ties that remain; a caller may append keys that take precedence."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    keys = [pts[:, j] for j in range(pts.shape[1] - 1, -1, -1)]
    keys.insert(0, np.asarray(weights, dtype=np.float64))
    return keys


def canonical_order(points, weights):
    """Permutation sorting rows lexicographically, the weight as the final
    tie-break (see canonical_keys). Duplicate (point, weight) rows may land
    in any relative order; their summands are identical so sums are
    unaffected.
    """
    return np.lexsort(canonical_keys(points, weights))
