"""Recursive extension partition coreset.

Each node holds a cluster C and a tentative representative m. If adding k
centers cannot beat clustering C to m alone by more than a BETA fraction,
every point of C collapses onto m and its residual distance moves into an
extension coordinate; the resulting multiset preserves the cost of every
partition of C against every centered assignment, up to epsilon. Otherwise
the node splits along a bicriteria solution and recurses, to depth GAMMA.

BETA = 0.1 and GAMMA = 3 are practical settings that verify_partition_coreset
checks after the fact; the paper's provable margin (of order eps^(z+6)) and
depth give trees that are astronomically large on all but degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bicriteria import bicriteria
from .errors import InputError
from .geometry import (
    ClusteringParams,
    _coerce_centers,
    _coerce_pointset,
    _power_from_sq,
    _refuse_overflow,
    _seeded_rng,
    first_seen_rows,
    min_power_dists,
    power_cost,
    solve_1center,
    sq_dist_matrix,
)

FANOUT_CAP_PER_K = 64
BETA = 0.1  # a node stops when k centers beat its one center by at most this fraction
GAMMA = 3  # depth cap


@dataclass(frozen=True)
class NodeTrace:
    size: int
    depth: int
    reason: str  # "stable" | "max-depth" | "leaf" | "split"
    cost_to_m: float
    parent: int
    truncated: bool = False


@dataclass(frozen=True)
class PartitionCoresetResult:
    representatives: np.ndarray
    rep_index: np.ndarray  # per input point
    extensions: np.ndarray  # per input point
    recursion_trace: tuple

    @property
    def size(self):
        """Number of distinct coreset points."""
        return self.representatives.shape[0]

    @property
    def truncated(self):
        return any(t.truncated for t in self.recursion_trace)


def build(P, params: ClusteringParams):
    """Builds the extension partition coreset, breadth first.

    Nodes are processed in (depth, parent, child) order so the trace and the
    representative numbering are deterministic. A node stops ("stable")
    when its bicriteria solution beats its one center by at most BETA of
    its cost, which a node of cost 0 does without solving, and nodes at
    depth GAMMA stop anyway ("max-depth"). A node spawning more than
    FANOUT_CAP_PER_K * k children keeps the most expensive ones and stops
    the cheapest in place (collapse onto their own center), flagged as
    truncated in the trace.
    """
    pts, w = _coerce_pointset(P)
    n = pts.shape[0]
    if n < 1:
        raise InputError("need at least one point")
    if (w != 1.0).any():
        raise InputError("partition coreset maps unweighted points")
    z = params.z
    _refuse_overflow(pts, z)
    # built fresh, not replace(params, ...): node solves keep the default
    # alpha whatever the caller's
    node_params = ClusteringParams(k=params.k, z=z, epsilon=min(BETA, 1.0 / 3.0))

    emitted = []  # (point indices, representative) per stopped node
    extensions = np.zeros(n)
    trace = []

    def emit(idx, m, depth, reason, cost_m, parent, truncated=False):
        emitted.append((idx, m))
        d = np.sqrt(((pts[idx] - m) ** 2).sum(axis=1))
        extensions[idx] = d if reason == "stable" else 0.0
        trace.append(NodeTrace(len(idx), depth, reason, cost_m, parent, truncated))

    root_m = solve_1center(pts, z)
    queue = [(np.arange(n), root_m, power_cost(pts, root_m[None, :], z), 0, -1)]
    while queue:
        idx, m, cost_m, depth, parent = queue.pop(0)
        C = pts[idx]

        if len(idx) == 1 and depth < GAMMA:
            # a singleton collapses onto itself exactly
            pool_m = C[0]
            emit(idx, pool_m, depth, "leaf", cost_m, parent)
            continue

        if cost_m == 0.0:
            # the stop test below reads -res.cost <= 0, true of any cost >= 0
            emit(idx, m, depth, "stable", cost_m, parent)
            continue
        res = bicriteria(C, node_params)
        if cost_m - res.cost <= BETA * cost_m:
            emit(idx, m, depth, "stable", cost_m, parent)
            continue
        if depth == GAMMA:
            emit(idx, m, depth, "max-depth", cost_m, parent)
            continue

        centers = res.centers.centers
        _, labels = min_power_dists(C, centers, z)
        me = len(trace)
        trace.append(NodeTrace(len(idx), depth, "split", cost_m, parent))

        children = []
        for lbl in np.unique(labels):
            sub = idx[labels == lbl]
            c_cost = power_cost(pts[sub], centers[lbl][None, :], z)
            children.append((c_cost, lbl, sub))

        cap = FANOUT_CAP_PER_K * params.k
        if len(children) > cap:
            children.sort(key=lambda t: (t[0], t[1]))
            stopped, kept = children[: len(children) - cap], children[-cap:]
            kept.sort(key=lambda t: t[1])
            for c_cost, lbl, sub in stopped:
                emit(sub, centers[lbl], depth + 1, "stable", c_cost, me, truncated=True)
            children = kept
        for c_cost, lbl, sub in children:
            queue.append((sub, centers[lbl], c_cost, depth + 1, me))

    reps = np.array([m for _, m in emitted])
    quantum = 1e-12 * max(1.0, float(np.abs(pts).max(initial=0.0)))
    keep, index = first_seen_rows(reps, quantum)
    rep_index = np.full(n, -1, dtype=np.int64)
    for (idx, _), i in zip(emitted, index.tolist()):
        rep_index[idx] = i
    return PartitionCoresetResult(
        representatives=reps[keep],
        rep_index=rep_index,
        extensions=extensions,
        recursion_trace=tuple(trace),
    )


@dataclass(frozen=True)
class VerificationReport:
    max_relative_error: float
    checked: int
    witness: tuple  # (partition labels, center tuple) of the worst case, or None


def _restricted_growth_strings(n, k):
    """Every partition of n items into at most k nonempty parts, once each.

    Lazily yields restricted-growth strings over {0..k-1} as tuples, in
    lexicographic order: item 0 is in part 0, and each later item joins an
    earlier part or opens the next one.
    """
    rgs = [0] * n

    def grow(i, mx):
        if i == n:
            yield tuple(rgs)
            return
        for v in range(min(mx + 1, k - 1) + 1):
            rgs[i] = v
            yield from grow(i + 1, max(mx, v))

    return grow(1, 0)


def verify_partition_coreset(
    P,
    result: PartitionCoresetResult,
    params: ClusteringParams,
    center_grid,
    *,
    all_partitions=True,
    samples=200,
    seed=0,
):
    """Measures the worst relative cost deviation of the coreset.

    Compares, over partitions of P into at most k parts and over k-tuples
    drawn from the center grid (the tuple member serving each part), the
    original clustering cost against the coreset cost with centers embedded
    at extension 0. all_partitions enumerates every partition (only
    feasible for |P| <= 12, k <= 3); otherwise `samples` >= 1 random
    partitions and tuples are drawn from a seeded generator. A case whose cost
    overflows (inf or NaN) on either side scores inf.
    """
    pts, w = _coerce_pointset(P)
    if (w != 1.0).any():
        raise InputError("verification expects unweighted points")
    n = pts.shape[0]
    k, z = params.k, params.z
    grid = _coerce_centers(center_grid)
    g = grid.shape[0]
    if g < k:
        raise InputError(f"center grid has {g} < k = {k} centers")

    sq_orig = sq_dist_matrix(pts, grid)
    reps = result.representatives[result.rep_index]
    sq_core = sq_dist_matrix(reps, grid) + result.extensions[:, None] ** 2
    D_orig, D_core = _power_from_sq(sq_orig, z), _power_from_sq(sq_core, z)

    if all_partitions:
        if n > 12 or k > 3:
            raise InputError("exhaustive verification needs |P| <= 12 and k <= 3")
        partitions = _restricted_growth_strings(n, k)
    else:
        if samples < 1:
            raise InputError("sampled verification needs samples >= 1")
        rng = _seeded_rng(seed)
        partitions = [tuple(rng.integers(0, k, size=n)) for _ in range(samples)]

    worst = 0.0
    witness = None
    checked = 0
    for rgs in partitions:
        labels = np.asarray(rgs)
        parts = np.unique(labels)
        j = len(parts)
        # per-part cost rows against every grid center
        po = np.stack([D_orig[labels == v].sum(axis=0) for v in parts])
        pc = np.stack([D_core[labels == v].sum(axis=0) for v in parts])
        if all_partitions:
            idx_iter = np.indices((g,) * j).reshape(j, -1).T
        else:
            idx_iter = _seeded_rng(seed + checked + 1).integers(
                0, g, size=(min(samples, g**j), j)
            )
        rows = np.arange(j)
        orig = po[rows[None, :], idx_iter].sum(axis=1)
        core = pc[rows[None, :], idx_iter].sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.abs(core - orig) / orig
        rel[orig == 0.0] = np.where(core[orig == 0.0] == 0.0, 0.0, np.inf)
        rel[~(np.isfinite(orig) & np.isfinite(core))] = np.inf  # overflowed
        checked += len(idx_iter)
        t = int(np.argmax(rel))
        if rel[t] > worst:
            worst = float(rel[t])
            witness = (tuple(labels.tolist()), tuple(idx_iter[t].tolist()))
    return VerificationReport(
        max_relative_error=worst,
        checked=checked,
        witness=witness if worst > params.epsilon else None,
    )
