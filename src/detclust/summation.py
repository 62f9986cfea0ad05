"""Reproducible floating-point reductions.

tree_sum is a fixed-shape pairwise reduction whose association order
depends only on the length of the input, never on threading or chunking.
It sums power_cost, partition_cost, the ring deltas and the offset F.
tree_sum_rows sums the member weights behind every 1-center centroid (one
row per set in geometry.solve_1centers), the costs of every center tuple
in rings.verify_offset_coreset, of every init in solve._polish_all and
of every projection seed's lifted centers in bicriteria._power_costs
(one row per tuple, init or seed, equal to its power_cost). power_cost and
partition_cost also sort the summands canonically, so they are
bit-identical across permutations too.
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
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        half = a.size // 2
        s = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if a.size % 2:
            s = np.append(s, a[-1])
        a = s
    return float(a[0])


def tree_sum_rows(rows):
    """tree_sum of every row of a 2-d array, one pass per tree level.

    Trailing zeros leave a row's sum bit-identical (an odd element paired
    with 0 is the carried element), so the rows are zero-padded to a
    power-of-two width, and rows of different lengths can be summed
    together, each padded on the right."""
    a = np.asarray(rows, dtype=np.float64)
    m, n = a.shape
    width = 1 << max(n - 1, 0).bit_length()
    if width > n:
        a = np.hstack([a, np.zeros((m, width - n))])
    while a.shape[1] > 1:
        a = a[:, 0::2] + a[:, 1::2]
    return a[:, 0]


def canonical_order(points, weights=None):
    """Permutation sorting rows lexicographically (last column is the
    primary key for np.lexsort, so feed columns reversed), with the weight
    as the final tie-break. Duplicate (point, weight) rows may land in any
    relative order; their summands are identical so sums are unaffected.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    keys = [pts[:, j] for j in range(pts.shape[1] - 1, -1, -1)]
    if weights is not None:
        keys.insert(0, np.asarray(weights, dtype=np.float64))
    return np.lexsort(keys)
