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

from .bicriteria import (
    DEFAULT_ALPHA,
    PIPELINE_MAX_CANDIDATES,
    constant_factor_approx,
    lift_by_clusters,
)
from .errors import BudgetError, InputError
from .geometry import (
    CenterSet,
    ExtendedPointSet,
    Partition,
    _coerce_pointset,
    _power_from_sq,
    min_power_dists,
    power_cost,
    solve_1center,
    solve_1center_constrained,
    sq_dist_matrix,
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


def _part_center(base, ext, w, z, idx):
    """(center, cost) of the part idx through the canonical 1-center solver.

    ext None is the plain 1-center; otherwise the center sits at extension
    0 and every member pays its extension too."""
    if ext is None:
        c = solve_1center((base[idx], w[idx]), z)
        sq = ((base[idx] - c) ** 2).sum(axis=1)
    else:
        E = ExtendedPointSet(base[idx], ext[idx], weights=w[idx])
        c = solve_1center_constrained(E, z)
        sq = ((base[idx] - c) ** 2).sum(axis=1) + ext[idx] ** 2
    return c, float((w[idx] * _power_from_sq(sq, z)).sum())


_MASK_CHUNK = 2048
_WEISZFELD_ROUNDS = 120
_NEWTON_ROUNDS = 50


def _newton_medians(W, c, base, ext_sq, floor, certified):
    """Damped Newton on the smoothed 1-median objective, one row per mask.

    Row m minimizes sum_i W[m, i] sqrt(|c - b_i|^2 + e_i^2 + floor^2),
    starting from c[m]: per-row d x d Hessians, one batched
    eigendecomposition, Armijo backtracking per row. A row leaves once
    certified(W, c, true_distances) accepts it or once its step stops
    descending; a singular or ill-conditioned Hessian (collinear parts,
    flat valleys) leaves the row where it is. Returns the new centers.
    """
    d = base.shape[1]
    c = c.copy()
    s2 = ext_sq + floor * floor
    live = np.arange(c.shape[0])
    for _ in range(_NEWTON_ROUNDS):
        Wl, cl = W[live], c[live]
        sq = sq_dist_matrix(cl, base)
        r2 = sq + s2
        r = np.sqrt(r2)
        coef = Wl / r
        diff = cl[:, None, :] - base[None, :, :]
        g = np.einsum("mi,mid->md", coef, diff, optimize=False)
        H = coef.sum(axis=1)[:, None, None] * np.eye(d)
        H -= np.einsum("mi,mid,mie->mde", coef / r2, diff, diff, optimize=False)
        lam, V = np.linalg.eigh(H)
        well = lam[:, 0] > 1e-12 * lam[:, -1]
        lam = np.where(well[:, None], lam, 1.0)
        step = -np.einsum(
            "mde,me->md", V, np.einsum("mde,md->me", V, g) / lam, optimize=False
        )
        gd = np.einsum("md,md->m", g, step, optimize=False)
        pend = well & (gd < 0.0) & ~certified(Wl, cl, np.sqrt(sq + ext_sq))
        f0 = np.einsum("mi,mi->m", Wl, r, optimize=False)
        t = np.ones(live.size)
        moved = np.zeros(live.size, dtype=bool)
        for _ in range(40):
            rows = np.flatnonzero(pend)
            if not rows.size:
                break
            c_try = cl[rows] + t[rows, None] * step[rows]
            f_try = np.einsum(
                "mi,mi->m",
                Wl[rows],
                np.sqrt(sq_dist_matrix(c_try, base) + s2),
                optimize=False,
            )
            # near the optimum the decrease drops below f's rounding, so a
            # full step may gain up to 1e-13 relative; a damped step must
            # lower f strictly, or rows creep by invisible steps
            lim = f0[rows] + 0.25 * t[rows] * gd[rows]
            acc = np.where(
                t[rows] == 1.0,
                f_try <= lim + 1e-13 * f0[rows],
                (f_try <= lim) & (f_try < f0[rows]),
            )
            c[live[rows[acc]]] = c_try[acc]
            moved[rows[acc]] = True
            pend[rows[acc]] = False
            t[rows[~acc]] *= 0.5
        live = live[moved]
        if not live.size:
            break
    return c


def _batched_subset_costs(base, ext_sq, w, z, costs):
    """Fill costs[mask] for z in {1, 2}, batched over masks.

    z = 2 is the closed-form centroid. z = 1 runs 120 rounds of smoothed
    Weiszfeld on every mask at once, then certifies each mask: its
    gradient norm times the hull diameter bounds the gap to the optimum,
    or its cheapest member point passes the subgradient optimality test.
    The masks left uncertified get a batched damped Newton on the smoothed
    objective sum_i w_i sqrt(|c - b_i|^2 + e_i^2 + floor^2)
    (_newton_medians) and are certified again. Every entry is the cost of
    a real center, the smaller of the iterate's cost and the cheapest
    member point's; the tiny smoothing floor perturbs costs far below the
    ranking gaps the enumeration cares about. Returns the masks whose
    z = 1 value is still uncertified.
    """
    n = base.shape[0]
    M = 1 << n
    bits = np.arange(n, dtype=np.int64)
    diam = float(np.sqrt(((base.max(0) - base.min(0)) ** 2).sum()))
    scale = max(diam, float(np.sqrt(ext_sq.max())))
    floor = 1e-12 * scale
    if z == 1:
        # the 1-median can sit exactly on a data point, where Weiszfeld
        # stalls; centers at the points themselves give an exact candidate
        D = np.sqrt(sq_dist_matrix(base, base) + ext_sq[:, None])

    def _iterate(Wm, cm):
        for _ in range(_WEISZFELD_ROUNDS):
            sq = sq_dist_matrix(cm, base)
            delta = np.maximum(np.sqrt(sq + ext_sq[None, :]), floor)
            coef = Wm / delta
            den = coef.sum(axis=1)
            den = np.where(den > 0.0, den, 1.0)
            c_new = np.einsum("mi,id->md", coef, base, optimize=False)
            c_new /= den[:, None]
            step = float(np.abs(c_new - cm).max())
            cm = c_new
            if step < 1e-13 * scale:
                break
        return cm

    def _grad_ok(Wm, cm, d_true):
        # gradient norm times hull diameter bounds the gap to the optimum
        coef = Wm / np.maximum(d_true, floor)
        g = cm * coef.sum(axis=1)[:, None]
        g -= np.einsum("mi,id->md", coef, base, optimize=False)
        gn = np.sqrt((g**2).sum(axis=1))
        return gn * diam <= 1e-10 * scale * float(w.sum())

    def _certify(Wm, cm, PCm):
        # a mask is certified by the iterate's gradient, or when the
        # cheapest member point passes the subgradient optimality test
        # (then the snapped point cost is exact)
        d_true = np.sqrt(sq_dist_matrix(cm, base) + ext_sq[None, :])
        wcost = np.einsum("mi,mi->m", Wm, d_true, optimize=False)
        v = np.minimum(wcost, PCm.min(axis=1))
        ok = _grad_ok(Wm, cm, d_true)
        j = np.argmin(np.where(Wm > 0.0, PCm, np.inf), axis=1)
        Dq = D[:, j].T
        atq = Dq < 1e-12 * scale
        coefq = np.where(atq, 0.0, Wm / np.maximum(Dq, floor))
        gq = base[j] * coefq.sum(axis=1)[:, None]
        gq -= np.einsum("mi,id->md", coefq, base, optimize=False)
        w_at = np.where(atq, Wm, 0.0).sum(axis=1)
        ok |= np.sqrt((gq**2).sum(axis=1)) <= w_at
        return v, ok

    unsure = []
    for lo in range(1, M, _MASK_CHUNK):
        hi = min(lo + _MASK_CHUNK, M)
        ids = np.arange(lo, hi, dtype=np.int64)
        B = ((ids[:, None] >> bits) & 1).astype(np.float64)
        W = B * w
        tw = W.sum(axis=1)
        tw_safe = np.where(tw > 0.0, tw, 1.0)
        c = np.einsum("mi,id->md", W, base, optimize=False) / tw_safe[:, None]
        if z == 2:
            sq = sq_dist_matrix(c, base)
            costs[lo:hi] = np.einsum(
                "mi,mi->m", W, sq + ext_sq[None, :], optimize=False
            )
            continue
        if scale == 0.0:
            costs[lo:hi] = np.einsum(
                "mi,i->m", W, np.sqrt(ext_sq), optimize=False
            )
            continue
        c = _iterate(W, c)
        PC = np.einsum("mj,ji->mi", W, D, optimize=False)
        v, ok = _certify(W, c, PC)
        costs[lo:hi] = v
        bad = ~ok
        if not bad.any():
            continue
        c2 = _newton_medians(W[bad], c[bad], base, ext_sq, floor, _grad_ok)
        v2, ok2 = _certify(W[bad], c2, PC[bad])
        costs[lo:hi][bad] = np.minimum(v[bad], v2)
        unsure.extend(ids[bad][~ok2].tolist())
    return unsure


def _all_subset_costs(base, ext, w, z):
    """Optimal 1-center cost of every index subset, indexed by bitmask.

    Every z is tabulated. For z in {1, 2} the batched passes fill the
    table, and the canonical per-part solver (_part_center) solves the
    z = 1 masks they cannot certify, keeping the smaller value. For
    z >= 3 every mask goes to the per-part solver. Entry 0 is 0.
    """
    n = base.shape[0]
    M = 1 << n
    costs = np.full(M, np.inf)
    costs[0] = 0.0
    if z in (1, 2):
        ext_sq = ext**2 if ext is not None else np.zeros(n)
        unsure = _batched_subset_costs(base, ext_sq, w, z, costs)
    else:
        unsure = range(1, M)
    bits = np.arange(n, dtype=np.int64)
    for m in unsure:
        idx = np.flatnonzero((m >> bits) & 1)
        costs[m] = min(costs[m], _part_center(base, ext, w, z, idx)[1])
    return costs


def _best_partition(n, k, base, ext, w, z):
    """Scan all partitions against the subset-cost table.

    A partition's total is the left-to-right sum of its parts' table
    entries. The winner has the smallest total, ties going to the lowest
    rank in restricted-growth order (the first one seen). A partition
    stops summing once its running total reaches the best total so far:
    the entries are >= 0 and adding them never lowers a float sum, so it
    cannot win. Every partition still counts as examined. Only the
    winner's parts are re-solved for their centers, by _part_center. At
    k = 1 the whole set is the winner and no table is built.
    """
    enumerate_partitions(n, k)  # raises past the budget, before the table
    if k == 1:  # the whole set is the only partition: no table to build
        best, examined = (0,) * n, 1
    else:
        table = _all_subset_costs(base, ext, w, z).tolist()
        bit = [1 << i for i in range(n)]
        best, best_total = None, math.inf
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
                best, best_total = rgs, total
    best = Partition(np.array(best, dtype=np.int64), k)
    centers = [_part_center(base, ext, w, z, idx)[0] for _, idx in best.parts()]
    return np.vstack(centers), best, examined


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

    centers memoizes solve_1center per cluster, keyed by the member
    indices' bytes; the solver is deterministic in (pts[idx], w[idx], z),
    so one dict can serve every init and round on the same pts, w, z."""
    C = np.array(C, dtype=np.float64)
    cost = power_cost((pts, w), C, z)
    for _ in range(rounds):
        _, lbl = min_power_dists(pts, C, z)
        new = C.copy()
        for t in range(C.shape[0]):
            idx = np.flatnonzero(lbl == t)
            if idx.size:
                key = idx.tobytes()
                if key not in centers:
                    centers[key] = solve_1center((pts[idx], w[idx]), z)
                new[t] = centers[key]
        new_cost = power_cost((pts, w), new, z)
        if new_cost >= cost * (1.0 - 1e-12):
            break
        C, cost = new, new_cost
    return C, cost


def bicriteria_solve(P, params, *, alpha=DEFAULT_ALPHA):
    """Exactly k centers from the constant-factor machinery plus polish.

    Initializations: the swap-search solution (candidate budget
    PIPELINE_MAX_CANDIDATES), and every k-subset of distinct input points
    when there are at most DEFAULT_SUBSET_CAP of them. Each is polished by
    up to DEFAULT_POLISH_ROUNDS assign/recenter rounds; winner by (cost,
    init order). One memo of per-cluster 1-center solutions, keyed by
    member indices, is shared by every init and round, so each distinct
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
    inits = [
        constant_factor_approx(
            P, params, alpha=alpha, max_candidates=PIPELINE_MAX_CANDIDATES
        ).centers
    ]
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
