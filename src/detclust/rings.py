"""Coresets with offset for (k, z)-clustering.

The construction: grow a center set greedily until it is either low-cost
(then the weighted centers themselves are the coreset) or locally stable;
split each cluster into cost rings around its average; drop the inner
rings into their center's weight and the outer rings into a scalar offset
F; replace every surviving main ring by a set approximation with uniform
rational weights. The verifier checks the offset-coreset contract
|cost(core, S) + F - cost(P, S)| <= eps * cost(P, S) against explicit
center tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# candidate_centers stays importable as rings.candidate_centers, the name
# perfbench/tests/test_harness.py wraps and restores
from .bicriteria import DEFAULT_ALPHA, bicriteria, candidate_centers  # noqa: F401
from .dimreduce import cost_preserving_sketch
from .epsapprox import (
    ball_test_family,
    halving_approx,
    uniform_sample_approx,
    vc_dim_hint_euclidean,
)
from .errors import InputError
from .geometry import (
    CenterSet,
    WeightedPointSet,
    _as_points,
    _coerce_pointset,
    _power_from_sq,
    min_power_dists,
    power_cost,
)
from .partition import VerificationReport
from .summation import tree_sum

RING_ZERO = np.iinfo(np.int64).min  # bucket for zero-cost points
PASSTHROUGH_DIM = 12


@dataclass(frozen=True)
class SeedingResult:
    """Greedily grown center set G with the branch it stopped on."""

    centers: CenterSet
    status: str  # "low-cost" | "locally-stable"
    c_A: float
    cost_G: float
    baseline_size: int  # |A| the greedy phase started from


@dataclass(frozen=True)
class RingDecomposition:
    """Per-cluster cost rings around the average cost Delta_i.

    buckets maps (cluster index, ring index) to ascending point indices;
    ring index j holds points with 2^j Delta_i <= cost(p, G) < 2^{j+1}
    Delta_i, and RING_ZERO holds zero-cost points. classes tags each
    bucket inner, main, or outer.
    """

    deltas: np.ndarray
    labels: np.ndarray
    costs: np.ndarray
    buckets: dict
    classes: dict

    def indices_of(self, kind):
        out = [idx for key, idx in self.buckets.items() if self.classes[key] == kind]
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(out))

    def main_rings(self):
        """Main buckets in canonical (cluster, ring) order."""
        keys = sorted(k for k, c in self.classes.items() if c == "main")
        return [(k, self.buckets[k]) for k in keys]


@dataclass(frozen=True)
class OffsetCoreset:
    """Weighted point rows plus a scalar offset F.

    Weights are exact count ratios |ring| / |kept|, stored as integer
    numerator/denominator arrays so the total weight equals the input size
    without rounding. provenance tags each row ("center", i) or
    ("ring", i, j).
    """

    points: np.ndarray
    weight_num: np.ndarray
    weight_den: np.ndarray
    offset: float
    provenance: tuple

    def __post_init__(self):
        if self.offset < 0:
            raise InputError("offset must be nonnegative")
        if (self.weight_num <= 0).any() or (self.weight_den <= 0).any():
            raise InputError("weights must be positive count ratios")

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def weights(self):
        return self.weight_num / self.weight_den

    @property
    def total_weight(self):
        """Exact rational total."""
        return sum(
            Fraction(int(a), int(b))
            for a, b in zip(self.weight_num, self.weight_den)
        )


def greedy_seeding(P, params, *, alpha=DEFAULT_ALPHA, zero_last_coord=False):
    """Grow centers greedily from a constant-factor baseline A.

    Adds candidate centers while each drops the cost by the factor
    eps/(c_A k), stopping early once the cost falls to eps cost(A)/c_A
    (status low-cost) and otherwise ending locally stable, with c_A =
    alpha. This is the bicriteria solver's output, which handles high
    dimension by projection.
    """
    res = bicriteria(P, params, alpha=alpha, zero_last_coord=zero_last_coord)
    status = "low-cost" if res.stopped_reason == "low-cost" else "locally-stable"
    return SeedingResult(
        centers=res.centers,
        status=status,
        c_A=res.alpha_used,
        cost_G=res.cost,
        baseline_size=res.baseline_size,
    )


def ring_thresholds(z, eps):
    """(inner, outer) cost thresholds as multiples of the cluster average."""
    return (eps / z) ** z, (z / eps) ** (2 * z)


def _bucket_indices(ratio):
    """j with 2^j <= ratio < 2^{j+1}, elementwise; log edges corrected."""
    j = np.floor(np.log2(ratio)).astype(np.int64)
    j[np.exp2(j.astype(np.float64)) > ratio] -= 1
    j[np.exp2((j + 1).astype(np.float64)) <= ratio] += 1
    return j


def ring_decompose(P, seeding: SeedingResult, params):
    """Split each cluster of the seeding solution into cost rings.

    A bucket is inner when its whole cost interval sits at or below
    (eps/z)^z Delta_i (so every inner point individually satisfies the
    threshold), outer when its lower edge exceeds (z/eps)^{2z} Delta_i,
    main otherwise. Zero-cost clusters and zero-cost points are inner by
    convention.
    """
    pts, w = _coerce_pointset(P)
    if (w != 1.0).any():
        raise InputError("ring decomposition expects unit weights")
    if seeding.status != "locally-stable":
        raise InputError("low-cost seedings skip the ring stage")
    G = seeding.centers.centers
    _, labels = min_power_dists(pts, G, params.z)
    # per-point form, not the table's einsum: the two round differently in
    # the last bit at d >= 3, and these costs feed the rings and F
    sq = ((pts - G[labels]) ** 2).sum(axis=1)
    costs = _power_from_sq(sq, params.z)
    t_in, t_out = ring_thresholds(params.z, params.epsilon)

    deltas = np.zeros(G.shape[0])
    buckets = {}
    classes = {}
    for i in range(G.shape[0]):
        idx = np.flatnonzero(labels == i)
        if idx.size == 0:
            continue
        delta = tree_sum(costs[idx]) / idx.size
        deltas[i] = delta
        if delta == 0.0:
            buckets[(i, RING_ZERO)] = idx
            classes[(i, RING_ZERO)] = "inner"
            continue
        zero = idx[costs[idx] == 0.0]
        if zero.size:
            buckets[(i, RING_ZERO)] = zero
            classes[(i, RING_ZERO)] = "inner"
        live = idx[costs[idx] > 0.0]
        if live.size == 0:
            continue
        ring = _bucket_indices(costs[live] / delta)
        for j in np.unique(ring):
            sel = live[ring == j]
            buckets[(i, int(j))] = sel
            if 2.0 ** (int(j) + 1) <= t_in:
                classes[(i, int(j))] = "inner"
            elif 2.0 ** int(j) > t_out:
                classes[(i, int(j))] = "outer"
            else:
                classes[(i, int(j))] = "main"
    return RingDecomposition(
        deltas=deltas, labels=labels, costs=costs, buckets=buckets, classes=classes
    )


def build_instance_IG(P, rings: RingDecomposition, seeding: SeedingResult):
    """Collapse inner and outer rings onto their centers.

    Returns the reduced weighted instance (centers first, carrying the
    removed-point counts, then the main-ring points at weight one) and the
    offset F = cost of the outer points against the seeding solution.
    """
    pts, _ = _coerce_pointset(P)
    G = seeding.centers.centers
    removed = np.zeros(G.shape[0])
    for (i, j), idx in rings.buckets.items():
        if rings.classes[(i, j)] != "main":
            removed[i] += idx.size
    outer = rings.indices_of("outer")
    F = float(tree_sum(rings.costs[outer])) if outer.size else 0.0
    main = rings.indices_of("main")
    rows = np.vstack([G, pts[main]]) if main.size else G.copy()
    weights = np.concatenate([removed, np.ones(main.size)])
    return WeightedPointSet(rows, weights), F


def epsilon_prime(z, eps, *, clamp=True):
    """Per-ring approximation budget 20 * 8^z * eps^2 / ln(4z/eps).

    The raw value exceeds eps at practical eps, so it is clamped to eps by
    default; clamp=False reports the raw formula value.
    """
    if z < 1:
        raise InputError("z must be at least 1")
    if not (0.0 < eps <= 1.0 / 3.0):
        raise InputError("eps must lie in (0, 1/3]")
    raw = 20.0 * 8.0**z * eps * eps / math.log(4.0 * z / eps)
    return min(eps, raw) if clamp else raw


def tiny_huge_masks(cost_to_solution, base, z, eps):
    """Tiny/huge split of a ring against a fixed solution.

    Groups have edges (1 + eps/10)^l * base with base the ring's lower
    cost edge. Tiny groups end at or below eps * base (so their total cost
    is at most eps times the ring's seeding cost); huge groups start at or
    above 4 * (4z/eps)^z * base, far enough that every ring point costs
    within (1 +- 2 eps) of any huge point.
    """
    c = np.asarray(cost_to_solution, dtype=np.float64)
    if base <= 0:
        raise InputError("ring base cost must be positive")
    eps2 = eps / 10.0
    step = math.log1p(eps2)
    lt = math.floor(math.log(eps) / step)
    while (1.0 + eps2) ** lt > eps:
        lt -= 1
    tiny_edge = (1.0 + eps2) ** lt * base
    target = 4.0 * (4.0 * z / eps) ** z
    lh = math.ceil(math.log(target) / step)
    while (1.0 + eps2) ** lh < target:
        lh += 1
    huge_edge = (1.0 + eps2) ** lh * base
    return c < tiny_edge, c >= huge_edge


def ring_coreset(
    P,
    params,
    mode="deterministic",
    *,
    seed=0,
    delta=0.1,
    alpha=DEFAULT_ALPHA,
    zero_last_coord=False,
):
    """Full coreset-with-offset pipeline.

    Low-cost seedings return the centers weighted by served-point counts
    with F = 0. Otherwise each main ring is replaced by a set
    approximation at epsilon_prime(z, eps): halving against the default
    ball_test_family (deterministic mode) or a seeded uniform sample
    (randomized mode, one derived seed per ring), each kept point weighted
    |ring| / |kept|.
    """
    if mode not in ("deterministic", "randomized"):
        raise InputError(f"unknown mode {mode!r}")
    pts, w = _coerce_pointset(P)
    if (w != 1.0).any():
        raise InputError("ring coreset expects unit weights")

    seeding = greedy_seeding(
        P, params, alpha=alpha, zero_last_coord=zero_last_coord
    )
    G = seeding.centers.centers

    if seeding.status == "low-cost":
        _, labels = min_power_dists(pts, G, params.z)
        counts = np.bincount(labels, minlength=G.shape[0])
        kept = np.flatnonzero(counts > 0)
        return OffsetCoreset(
            points=G[kept].copy(),
            weight_num=counts[kept].astype(np.int64),
            weight_den=np.ones(kept.size, dtype=np.int64),
            offset=0.0,
            provenance=tuple(("center", int(i)) for i in kept),
        )

    rings = ring_decompose(P, seeding, params)
    IG, F = build_instance_IG(P, rings, seeding)
    removed = IG.weights[: G.shape[0]]  # points collapsed onto each center

    eps_p = epsilon_prime(params.z, params.epsilon)
    rows = [G[i] for i in np.flatnonzero(removed > 0)]
    nums = [int(removed[i]) for i in np.flatnonzero(removed > 0)]
    dens = [1] * len(rows)
    prov = [("center", int(i)) for i in np.flatnonzero(removed > 0)]

    for t, ((i, j), idx) in enumerate(rings.main_rings()):
        ground = pts[idx]
        if mode == "deterministic":
            approx = halving_approx(ground, eps_p, ball_test_family(ground, params.k))
        else:
            approx = uniform_sample_approx(
                ground,
                eps_p,
                delta,
                vc_dim_hint_euclidean(params.k, pts.shape[1]),
                seed + t,
            )
        kept = idx[approx.indices]
        rows.extend(pts[kept])
        nums.extend([int(idx.size)] * kept.size)
        dens.extend([int(approx.indices.size)] * kept.size)
        prov.extend([("ring", int(i), int(j))] * kept.size)

    return OffsetCoreset(
        points=np.array(rows),
        weight_num=np.asarray(nums, dtype=np.int64),
        weight_den=np.asarray(dens, dtype=np.int64),
        offset=F,
        provenance=tuple(prov),
    )


def verify_offset_coreset(
    P,
    core: OffsetCoreset,
    params,
    center_grid,
    *,
    exhaustive_tuples=True,
    samples=200,
    seed=0,
    max_tuples=200_000,
):
    """Worst relative error of the offset-coreset contract over center
    tuples drawn from a grid.

    Exhaustive mode enumerates every k-subset of the grid (within
    max_tuples); otherwise a seeded sample of k-subsets is used. Tuples
    with cost(P, S) = 0 are excluded.
    """
    pts, _ = _coerce_pointset(P)
    grid = _as_points(center_grid, "center grid")
    k = params.k
    if grid.shape[0] < k:
        raise InputError("center grid smaller than k")
    if exhaustive_tuples:
        total = math.comb(grid.shape[0], k)
        if total > max_tuples:
            raise InputError(
                f"{total} center tuples exceed the budget {max_tuples}"
            )
        combos = itertools.combinations(range(grid.shape[0]), k)
    else:
        rng = np.random.default_rng(seed)
        combos = [
            tuple(np.sort(rng.choice(grid.shape[0], size=k, replace=False)))
            for _ in range(samples)
        ]
    cw = (core.points, core.weights)
    worst = 0.0
    witness = None
    checked = 0
    for tup in combos:
        S = grid[list(tup)]
        orig = power_cost(pts, S, params.z)
        if orig == 0.0:
            continue
        approx = power_cost(cw, S, params.z) + core.offset
        rel = abs(approx - orig) / orig
        checked += 1
        if rel > worst:
            worst = rel
            witness = (tup, rel)
    return VerificationReport(
        max_relative_error=worst,
        checked=checked,
        witness=witness if worst > params.epsilon else None,
    )


@dataclass(frozen=True)
class EuclideanPipelineResult:
    """Offset coreset in the sketched slice space plus lifting context.

    Rows of the coreset live in R^{m+1} with the extension as the last
    coordinate; centers are meant to stay at extension 0. sketch is None
    when the input was low-dimensional enough to pass through unchanged.
    """

    coreset: OffsetCoreset
    sketch: object
    passthrough: bool

    @property
    def ambient_dim(self):
        return self.coreset.points.shape[1]


def euclidean_pipeline(P, params, *, alpha=DEFAULT_ALPHA):
    """Dimension-reduced deterministic coreset with offset.

    Low dimension (d <= PASSTHROUGH_DIM): the input is embedded at
    extension 0 and the ring coreset runs directly. Otherwise the input is
    first collapsed to its partition coreset and sketched with the default
    cost_preserving_sketch, and the ring coreset runs on the sketched
    extended rows; the sketch is returned so solutions can be lifted back
    to the original space.
    """
    pts = _as_points(P, "points")
    sk = None
    if pts.shape[1] <= PASSTHROUGH_DIM:
        rows = np.hstack([pts, np.zeros((pts.shape[0], 1))])
    else:
        sk = cost_preserving_sketch(pts, params)
        rows = sk.sketched_points().as_rows()
    core = ring_coreset(rows, params, alpha=alpha, zero_last_coord=True)
    return EuclideanPipelineResult(coreset=core, sketch=sk, passthrough=sk is None)
