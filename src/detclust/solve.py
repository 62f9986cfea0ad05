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

from .bicriteria import constant_factor_approx, lift_by_clusters
from .errors import BudgetError, InputError
from .geometry import (
    _CHUNK,
    CenterSet,
    ExtendedPointSet,
    _coerce_pointset,
    _power_from_sq,
    _split_extended,
    min_power_dists,
    power_cost,
    solve_1centers,
    sq_dist_matrix,
)
from .partition import _restricted_growth_strings
from .rings import euclidean_pipeline
from .summation import canonical_order, tree_sum_rows

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
    """Scan all partitions against the subset-cost table; returns the
    winner's centers and the number of partitions examined.

    A partition's total is the left-to-right sum of its parts' table
    entries. The winner has the smallest total, ties going to the lowest
    rank in restricted-growth order (the first one seen). A partition
    stops summing once its running total reaches the best total so far:
    the entries are >= 0 and adding them never lowers a float sum, so it
    cannot win. Every partition still counts as examined. The winner's
    centers are the table's. At k = 1 the whole set is the winner and one
    1-center solve replaces the table. Past the budget n <= ENUM_MAX_N,
    k <= ENUM_MAX_K it raises before building the table, the error carrying
    the requested and allowed partition counts; when every total overflows
    (inf or NaN) there is no winner and it raises InputError.
    """
    if n > ENUM_MAX_N or k > ENUM_MAX_K:
        raise BudgetError(
            f"partition enumeration capped at n <= {ENUM_MAX_N}, "
            f"k <= {ENUM_MAX_K}",
            required=partition_count(n, min(k, n)),
            allowed=partition_count(ENUM_MAX_N, ENUM_MAX_K),
        )
    if k == 1:  # the whole set is the only partition: no table to build
        examined = 1
        centers = solve_1centers(base, ext, w, np.ones((1, n), dtype=bool), z)[0]
    else:
        table, mask_centers = _all_subset_costs(base, ext, w, z)
        table = table.tolist()
        bit = [1 << i for i in range(n)]
        best_masks, best_total = None, math.inf
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
                best_masks, best_total = masks, total
        if best_masks is None:
            raise InputError("every clustering cost overflows float64; rescale the input")
        # restricted growth: the nonempty parts are labels 0 .. p-1
        centers = mask_centers[[m for m in best_masks if m]]
    return centers, examined


def exact_solve(P, params):
    """Optimal (k, z) solution by exhaustive clustering enumeration.

    Minimizes over every partition of the points into at most k parts,
    each part paying its optimal 1-center cost; subject to the
    enumeration budget. The induced per-part centers are returned. An
    ExtendedPointSet gets base-space centers at extension 0, each part
    paying its extensions too.
    """
    base, ext, w = _split_extended(P)
    n = base.shape[0]
    if params.k >= n:
        C = CenterSet(base.copy())
        return SolveResult(
            centers=C,
            cost=power_cost(P, C, params.z),
            method="exact",
            enumeration_stats=0,
        )
    centers, examined = _best_partition(n, params.k, base, ext, w, params.z)
    C = CenterSet(centers)
    return SolveResult(
        centers=C,
        cost=power_cost(P, C, params.z),
        method="exact",
        enumeration_stats=examined,
    )


def _polish_all(pts, w, inits, z, rounds):
    """Centers of the best init after up to rounds assign / per-cluster
    recenter rounds each, inits in lockstep; early stop per init.

    A round's one sq_dist_matrix table against every live init's centers
    gives each its labels and its power_cost bits (argmin, power, times w,
    tree_sum_rows in canonical order), and labels the next round. One
    solve_1centers call per round solves the member sets no init has seen,
    memoized by member mask: a set's center depends on its members alone.
    An init leaves once a round fails to lower its cost by a factor
    1 - 1e-12. The winner is the first init of least cost. Inits go in
    groups of _CHUNK // (n k), so a table holds at most _CHUNK entries."""
    n, (k, d) = pts.shape[0], inits[0].shape
    order = canonical_order(pts, w)

    def assess(centers):
        sq = sq_dist_matrix(pts, centers.reshape(-1, d)).reshape(n, -1, k)
        lbl = sq.argmin(axis=2)  # first minimum = lowest center index
        best = np.take_along_axis(sq, lbl[:, :, None], axis=2)[:, :, 0]
        costs = w[:, None] * _power_from_sq(best, z)
        return lbl.T, tree_sum_rows(costs[order].T)

    memo, winner = {}, None
    per = max(1, _CHUNK // (n * k))
    for lo in range(0, len(inits), per):
        C = np.array(inits[lo : lo + per], dtype=np.float64)  # (inits, k, d)
        lbl, cost = assess(C)
        live = np.arange(C.shape[0])
        for _ in range(rounds):  # rows: the members of each live init's centers
            rows = (lbl[live][:, None, :] == np.arange(k)[:, None]).reshape(-1, n)
            used = np.flatnonzero(rows.any(axis=1))  # empty clusters keep their center
            keys = [rows[i].tobytes() for i in used]
            unseen = {key: rows[i] for i, key in zip(used, keys) if key not in memo}
            if unseen:
                got = solve_1centers(pts, None, w, np.array(list(unseen.values())), z)[0]
                memo.update(zip(unseen, got))
            new = C[live]
            new.reshape(-1, d)[used] = [memo[key] for key in keys]
            new_lbl, new_cost = assess(new)
            go = ~(new_cost >= cost[live] * (1.0 - 1e-12))
            live = live[go]
            C[live], cost[live], lbl[live] = new[go], new_cost[go], new_lbl[go]
            if not live.size:
                break
        i = np.argmin(cost)
        if winner is None or cost[i] < winner[0]:
            winner = (cost[i], C[i])
    return winner[1]


def bicriteria_solve(P, params):
    """Exactly k centers from the constant-factor machinery plus polish.

    Initializations: the swap-search solution, and every k-subset of
    distinct input points when there are at most DEFAULT_SUBSET_CAP of
    them. _polish_all polishes them all in lockstep, each by up to
    DEFAULT_POLISH_ROUNDS assign/recenter rounds, with one distance table
    and one solve_1centers call per round; winner by (cost, init order).
    One memo of per-cluster 1-center solutions, keyed by member mask, is
    shared by every init and round, so each distinct cluster is solved
    once per call. An ExtendedPointSet is refused.
    """
    if isinstance(P, ExtendedPointSet):
        raise InputError("bicriteria_solve expects plain or weighted points")
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
    inits = [constant_factor_approx(P, params).centers]
    _, first = np.unique(pts, axis=0, return_index=True)
    distinct = np.sort(first)
    if distinct.size >= k and math.comb(distinct.size, k) <= DEFAULT_SUBSET_CAP:
        for combo in itertools.combinations(distinct.tolist(), k):
            inits.append(pts[list(combo)])
    C = CenterSet(_polish_all(pts, w, inits, z, DEFAULT_POLISH_ROUNDS))
    return SolveResult(
        centers=C,
        cost=power_cost(P, C, z),
        method="bicriteria",
        enumeration_stats=len(inits),
    )


def approx_solve(P, params):
    """Near-optimal solve via the coreset pipeline.

    Builds the deterministic offset coreset with euclidean_pipeline,
    enumerates its clusterings with extension-0 centers (_best_partition),
    assigns the original points by the winning sketched centers, and
    re-solves each induced cluster in the original space. A coreset too
    large for the enumeration budget downgrades to bicriteria_solve.

    P may be an array, a (points, weights) pair or a WeightedPointSet, but
    every weight must be 1: the ring coreset counts points.
    """
    pts, w = _coerce_pointset(P)
    if (w != 1.0).any():
        raise InputError("approx_solve needs unit weights")
    pipe = euclidean_pipeline(pts, params)
    core = pipe.coreset
    if core.size > ENUM_MAX_N or params.k > ENUM_MAX_K:
        fb = bicriteria_solve(pts, params)
        return SolveResult(
            centers=fb.centers,
            cost=fb.cost,
            method="bicriteria",
            enumeration_stats=fb.enumeration_stats,
            downgraded=True,
        )

    rows = core.points
    base, ext = rows[:, :-1], rows[:, -1]
    w = core.weights
    centers_sk, examined = _best_partition(core.size, params.k, base, ext, w, params.z)

    # induced assignment: each original point follows its sketched row
    if pipe.sketch is None:
        all_base = pts
    else:
        all_base = pipe.sketch.sketched_points().points
    _, labels = min_power_dists(all_base, centers_sk, params.z)

    C = CenterSet(lift_by_clusters(pts, labels, params.z))
    return SolveResult(
        centers=C,
        cost=power_cost(pts, C, params.z),
        method="ptas",
        enumeration_stats=examined,
    )
