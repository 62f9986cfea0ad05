"""Exact, near-optimal, and polished constant-factor (k, z) solvers.

exact_solve enumerates every clustering of the input (restricted-growth
strings) and is the oracle the rest of the package is tested against.
approx_solve runs the dimension-reduced coreset pipeline and enumerates
clusterings of the coreset instead, lifting the winner back to the
original space; when the coreset is still too large to enumerate it falls
back to the polished k-center solver and says so.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bicriteria import DEFAULT_ALPHA, constant_factor_approx, lift_by_clusters
from .errors import BudgetError, InputError
from .geometry import (
    CenterSet,
    Partition,
    _coerce_pointset,
    min_power_dists,
    power_cost,
    solve_1centers,
)
from .partition import _restricted_growth_strings
from .rings import euclidean_pipeline

ENUM_MAX_N = 14
ENUM_MAX_K = 4
DEFAULT_POLISH_ROUNDS = 50
DEFAULT_SUBSET_CAP = 256


@dataclass(frozen=True)
class SolveResult:
    """A k-center solution in the original space.

    cost is always the full power_cost recomputation against the input,
    never an intermediate objective. enumeration_stats counts partitions
    examined (exact, ptas) or initializations polished (bicriteria).
    downgraded marks an approx_solve that had to fall back.
    """

    centers: CenterSet
    cost: float
    method: str  # "exact" | "ptas" | "bicriteria"
    enumeration_stats: int
    downgraded: bool = False


def partition_count(n, k):
    """Number of partitions of n items into at most k nonempty parts."""
    S = [0] * (k + 1)
    S[0] = 1
    for _ in range(n):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = j * S[j] + S[j - 1]
        S = new
    return sum(S[1:])


def enumerate_partitions(n, k):
    """All partitions of n items into at most k nonempty parts.

    Yields Partition objects in lexicographic restricted-growth-string
    order, each exactly once. Hard budget n <= 14, k <= 4; past it the
    error carries the requested and allowed partition counts.
    """
    if n < 1 or k < 1:
        raise InputError("need n >= 1 items and k >= 1 parts")
    if n > ENUM_MAX_N or k > ENUM_MAX_K:
        raise BudgetError(
            f"partition enumeration capped at n <= {ENUM_MAX_N}, "
            f"k <= {ENUM_MAX_K}",
            required=partition_count(n, min(k, n)),
            allowed=partition_count(ENUM_MAX_N, ENUM_MAX_K),
        )
    return (
        Partition(np.array(a, dtype=np.int64), k)
        for a in _restricted_growth_strings(n, k)
    )


_MASK_CHUNK = 2048


def _all_subset_costs(base, ext, w, z):
    """Optimal 1-center (costs, centers) of every index subset, by bitmask.

    One solve_1centers call per _MASK_CHUNK masks, for every z; entry 0,
    the empty set, costs 0 (its center row is zeros).
    """
    n = base.shape[0]
    M = 1 << n
    costs = np.zeros(M)
    centers = np.zeros((M, base.shape[1]))
    bits = np.arange(n, dtype=np.int64)
    for lo in range(1, M, _MASK_CHUNK):
        hi = min(lo + _MASK_CHUNK, M)
        ids = np.arange(lo, hi, dtype=np.int64)
        members = ((ids[:, None] >> bits) & 1).astype(bool)
        centers[lo:hi], costs[lo:hi], _ = solve_1centers(base, ext, w, members, z)
    return costs, centers


def _best_partition(n, k, base, ext, w, z):
    """Scan all partitions against the subset-cost table.

    A partition's total is the left-to-right sum of its parts' table
    entries. The winner has the smallest total, ties going to the lowest
    rank in restricted-growth order (the first one seen). A partition
    stops summing once its running total reaches the best total so far:
    the entries are >= 0 and adding them never lowers a float sum, so it
    cannot win. Every partition still counts as examined. The winner's
    centers are the table's. At k = 1 the whole set is the winner and one
    1-center solve replaces the table.
    """
    enumerate_partitions(n, k)  # raises past the budget, before the table
    if k == 1:  # the whole set is the only partition: no table to build
        best, examined = (0,) * n, 1
        centers = solve_1centers(base, ext, w, np.ones((1, n), dtype=bool), z)[0]
    else:
        table, mask_centers = _all_subset_costs(base, ext, w, z)
        table = table.tolist()
        bit = [1 << i for i in range(n)]
        best, best_masks, best_total = None, None, math.inf
        examined = 0
        for rgs in _restricted_growth_strings(n, k):
            examined += 1
            masks = [0] * k
            for i, j in enumerate(rgs):
                masks[j] |= bit[i]
            total = 0.0
            for m in masks:  # labels past the last part add table[0] = 0
                total += table[m]
                if total >= best_total:  # entries are >= 0: it cannot win
                    break
            if total < best_total:
                best, best_masks, best_total = rgs, masks, total
        # restricted growth: the nonempty parts are labels 0 .. p-1
        centers = mask_centers[[m for m in best_masks if m]]
    return centers, Partition(np.array(best, dtype=np.int64), k), examined


def exact_solve(P, params):
    """Optimal (k, z) solution by exhaustive clustering enumeration.

    Minimizes over every partition of the points into at most k parts,
    each part paying its optimal 1-center cost; subject to the
    enumeration budget. The induced per-part centers are returned.
    """
    pts, w = _coerce_pointset(P)
    n = pts.shape[0]
    if params.k >= n:
        C = CenterSet(pts.copy())
        return SolveResult(
            centers=C,
            cost=power_cost(P, C, params.z),
            method="exact",
            enumeration_stats=0,
        )
    centers, _, examined = _best_partition(
        n, params.k, pts, None, w, params.z
    )
    C = CenterSet(centers)
    return SolveResult(
        centers=C,
        cost=power_cost(P, C, params.z),
        method="exact",
        enumeration_stats=examined,
    )


def _polish(pts, w, C, z, rounds, centers):
    """Alternate assign / per-cluster recenter; monotone, early stop.

    centers memoizes the 1-center of each cluster, keyed by its member
    mask's bytes; each round solves the clusters it has not seen in one
    solve_1centers call. A row's center depends on its members alone, so
    one dict can serve every init and round on the same pts, w, z."""
    C = np.array(C, dtype=np.float64)
    cost = power_cost((pts, w), C, z)
    for _ in range(rounds):
        _, lbl = min_power_dists(pts, C, z)
        keys, unseen = {}, {}  # per nonempty cluster; unseen member masks
        for t in range(C.shape[0]):
            row = lbl == t
            if row.any():
                keys[t] = row.tobytes()
                if keys[t] not in centers:
                    unseen[keys[t]] = row
        if unseen:
            got = solve_1centers(pts, None, w, np.array(list(unseen.values())), z)[0]
            centers.update(zip(unseen, got))
        new = C.copy()
        for t, key in keys.items():
            new[t] = centers[key]
        new_cost = power_cost((pts, w), new, z)
        if new_cost >= cost * (1.0 - 1e-12):
            break
        C, cost = new, new_cost
    return C, cost


def bicriteria_solve(P, params, *, alpha=DEFAULT_ALPHA):
    """Exactly k centers from the constant-factor machinery plus polish.

    Initializations: the swap-search solution, and every k-subset of
    distinct input points when there are at most DEFAULT_SUBSET_CAP of
    them. Each is polished by
    up to DEFAULT_POLISH_ROUNDS assign/recenter rounds; winner by (cost,
    init order). One memo of per-cluster 1-center solutions, keyed by
    member mask, is shared by every init and round, so each distinct
    cluster is solved once per call.
    """
    pts, w = _coerce_pointset(P)
    n, k, z = pts.shape[0], params.k, params.z
    if k >= n:
        C = CenterSet(pts.copy())
        return SolveResult(
            centers=C,
            cost=power_cost(P, C, z),
            method="bicriteria",
            enumeration_stats=0,
        )
    inits = [constant_factor_approx(P, params, alpha=alpha).centers]
    _, first = np.unique(pts, axis=0, return_index=True)
    distinct = np.sort(first)
    if distinct.size >= k and math.comb(distinct.size, k) <= DEFAULT_SUBSET_CAP:
        for combo in itertools.combinations(distinct.tolist(), k):
            inits.append(pts[list(combo)])
    best = None
    centers = {}
    for C0 in inits:
        C, cost = _polish(pts, w, C0, z, DEFAULT_POLISH_ROUNDS, centers)
        if best is None or cost < best[0]:
            best = (cost, C)
    C = CenterSet(best[1])
    return SolveResult(
        centers=C,
        cost=power_cost(P, C, z),
        method="bicriteria",
        enumeration_stats=len(inits),
    )


def approx_solve(P, params, *, alpha=DEFAULT_ALPHA, full_output=False):
    """Near-optimal solve via the coreset pipeline.

    Builds the deterministic offset coreset with euclidean_pipeline,
    enumerates its clusterings with extension-0 centers, assigns the
    original points by the winning sketched centers, and re-solves each
    induced cluster in the original space. A coreset too large for the
    enumeration budget downgrades to bicriteria_solve.

    full_output also returns a dict with the pipeline result, the winning
    partition, the sketched-space centers, and the induced labels.

    P may be an array, a (points, weights) pair or a WeightedPointSet, but
    every weight must be 1: the ring coreset counts points.
    """
    pts, w = _coerce_pointset(P)
    if (w != 1.0).any():
        raise InputError("approx_solve needs unit weights")
    pipe = euclidean_pipeline(pts, params, alpha=alpha)
    core = pipe.coreset
    if core.size > ENUM_MAX_N or params.k > ENUM_MAX_K:
        fb = bicriteria_solve(pts, params, alpha=alpha)
        res = SolveResult(
            centers=fb.centers,
            cost=fb.cost,
            method="bicriteria",
            enumeration_stats=fb.enumeration_stats,
            downgraded=True,
        )
        if full_output:
            return res, {"pipeline": pipe, "partition": None,
                         "centers_sketch": None, "labels": None}
        return res

    rows = core.points
    base, ext = rows[:, :-1], rows[:, -1]
    w = core.weights
    centers_sk, part, examined = _best_partition(
        core.size, params.k, base, ext, w, params.z
    )

    # induced assignment: each original point follows its sketched row
    if pipe.passthrough:
        all_base = pts
    else:
        all_base = pipe.sketch.sketched_points().as_rows()[:, :-1]
    _, labels = min_power_dists(all_base, centers_sk, params.z)

    C = CenterSet(lift_by_clusters(pts, labels, params.z))
    res = SolveResult(
        centers=C,
        cost=power_cost(pts, C, params.z),
        method="ptas",
        enumeration_stats=examined,
    )
    if full_output:
        return res, {
            "pipeline": pipe,
            "partition": part,
            "centers_sketch": centers_sk,
            "labels": labels,
        }
    return res
