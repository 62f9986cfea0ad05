"""Coresets with offset for (k, z)-clustering.

The construction: grow a center set greedily until it is either low-cost
(then the weighted centers themselves are the coreset) or locally stable;
split each cluster into cost rings around its average, one ring index and
one kind (inner, main, outer) per point; drop the inner rings into their
center's weight and the outer rings into a scalar offset F; replace every
surviving main ring by a set approximation with uniform rational weights.
A low-cost seeding is the case where every point collapses onto its
center, so both outcomes share one assembly of the rows. The verifier
checks the offset-coreset contract
|cost(core, S) + F - cost(P, S)| <= eps * cost(P, S) against explicit
center tuples.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# candidate_centers stays importable as rings.candidate_centers, the name
# perfbench/tests/test_harness.py wraps and restores
from .bicriteria import bicriteria, candidate_centers  # noqa: F401
from .dimreduce import cost_preserving_sketch
from .epsapprox import (
    DEFAULT_MAX_RANGES,
    ball_test_families,
    halving_approx,
    uniform_sample_approx,
    vc_dim_hint_euclidean,
)
from .errors import InputError
from .geometry import (
    CenterSet,
    ExtendedPointSet,
    _as_points,
    _coerce_pointset,
    _CHUNK,
    _power_from_sq,
    _seeded_rng,
    min_power_dists,
    sq_dist_matrix,
)
from .partition import VerificationReport
from .summation import canonical_order, tree_sum, tree_sum_rows

RING_ZERO = np.iinfo(np.int64).min  # ring of zero-cost points and clusters
PASSTHROUGH_DIM = 12
SAMPLE_DELTA = 0.1  # failure probability of each randomized ring sample
MAX_TUPLES = 200_000  # center tuples an exhaustive verification may check


@dataclass(frozen=True)
class SeedingResult:
    """Greedily grown center set G with the branch it stopped on."""

    centers: CenterSet
    status: str  # "low-cost" | "locally-stable"


@dataclass(frozen=True)
class RingDecomposition:
    """Per-point cost rings around each cluster's average cost Delta_i.

    rings[p] is the j with 2^j Delta_i <= cost(p, G) < 2^{j+1} Delta_i for
    p's cluster i = labels[p], or RING_ZERO for a zero-cost point or a
    point of a zero-cost cluster; kinds[p] tags p's ring "inner", "main"
    or "outer".
    """

    deltas: np.ndarray
    labels: np.ndarray
    costs: np.ndarray
    rings: np.ndarray
    kinds: np.ndarray

    def indices_of(self, kind):
        return np.flatnonzero(self.kinds == kind)

    def main_rings(self):
        """((cluster, ring), ascending point indices) of every main ring,
        in canonical (cluster, ring) order."""
        main = self.indices_of("main")
        order = main[np.lexsort((self.rings[main], self.labels[main]))]  # stable
        lab, ring = self.labels[order], self.rings[order]
        first = np.ones(order.size, dtype=bool)  # the first point of each ring
        first[1:] = (lab[1:] != lab[:-1]) | (ring[1:] != ring[:-1])
        starts = np.flatnonzero(first)
        return [
            ((int(lab[s]), int(ring[s])), idx)
            for s, idx in zip(starts, np.split(order, starts[1:]))
        ]


@dataclass(frozen=True)
class OffsetCoreset:
    """Weighted point rows plus a scalar offset F.

    Weights are exact count ratios |ring| / |kept|, stored as integer
    numerator/denominator arrays so the total weight equals the input size
    without rounding. The center rows come first, then the kept points of
    each main ring in canonical (cluster, ring) order.
    """

    points: np.ndarray
    weight_num: np.ndarray
    weight_den: np.ndarray
    offset: float

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
        """Exact rational total, one Fraction per distinct weight."""
        counts = Counter(zip(self.weight_num.tolist(), self.weight_den.tolist()))
        return sum(Fraction(a * c, b) for (a, b), c in counts.items())


def greedy_seeding(P, params):
    """Grow centers greedily from a constant-factor baseline A.

    Adds candidate centers while each drops the cost by the factor
    eps/(c_A k), stopping early once the cost falls to eps cost(A)/c_A
    (status low-cost) and otherwise ending locally stable, with c_A =
    params.alpha. This is the bicriteria solver's output, which handles
    high dimension by projection.
    """
    res = bicriteria(P, params)
    status = "low-cost" if res.stopped_reason == "low-cost" else "locally-stable"
    return SeedingResult(centers=res.centers, status=status)


def ring_thresholds(z, eps):
    """(inner, outer) cost thresholds as multiples of the cluster average."""
    return (eps / z) ** z, (z / eps) ** (2 * z)


def _ring_indices(ratio):
    """j with 2^j <= ratio < 2^{j+1}, elementwise; log edges corrected."""
    j = np.floor(np.log2(ratio)).astype(np.int64)
    j[np.exp2(j.astype(np.float64)) > ratio] -= 1
    j[np.exp2((j + 1).astype(np.float64)) <= ratio] += 1
    return j


def ring_decompose(P, seeding: SeedingResult, params):
    """Split each cluster of the seeding solution into cost rings.

    A ring is inner when its whole cost interval sits at or below
    (eps/z)^z Delta_i (so every inner point individually satisfies the
    threshold), outer when its lower edge exceeds (z/eps)^{2z} Delta_i,
    main otherwise. Zero-cost clusters and zero-cost points are inner by
    convention. Delta_i is one tree_sum per nonempty cluster.
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

    counts = np.bincount(labels, minlength=G.shape[0])
    deltas = np.zeros(G.shape[0])
    for i in np.flatnonzero(counts):
        deltas[i] = tree_sum(costs[labels == i]) / counts[i]
    live = (costs > 0.0) & (deltas[labels] != 0.0)
    rings = np.full(pts.shape[0], RING_ZERO)
    rings[live] = _ring_indices(costs[live] / deltas[labels[live]])
    j = rings[live]
    kinds = np.full(pts.shape[0], "inner")
    kinds[live] = np.where(
        np.ldexp(1.0, j + 1) <= t_in,
        "inner",
        np.where(np.ldexp(1.0, j) > t_out, "outer", "main"),
    )
    return RingDecomposition(
        deltas=deltas, labels=labels, costs=costs, rings=rings, kinds=kinds
    )


def epsilon_prime(z, eps):
    """Per-ring approximation budget min(eps, 20 * 8^z * eps^2 / ln(4z/eps)).

    The raw formula over eps grows with eps and passes 1 at eps = 0.0305
    (z = 1), 0.00567 (z = 2), 0.000925 (z = 3) and 0.000142 (z = 4); above
    that the raw value exceeds eps and the budget is eps itself, so at
    every practical eps the budget is eps (raw 35.1 at z = 2, eps = 0.3).
    Where the formula comes from is not in this repository (PAPER.md
    holds only the abstract); ROADMAP item 2(c) asks for its source, since
    a per-ring budget above the overall eps suggests a constant on the
    wrong side of a fraction.
    """
    if z < 1:
        raise InputError("z must be at least 1")
    if not (0.0 < eps <= 1.0 / 3.0):
        raise InputError("eps must lie in (0, 1/3]")
    return min(eps, 20.0 * 8.0**z * eps * eps / math.log(4.0 * z / eps))


def ring_coreset(P, params, mode="deterministic", *, seed=0):
    """Full coreset-with-offset pipeline.

    Every point outside a main ring collapses onto its center, which then
    weighs the count of such points, and F is the outer points' cost; a
    low-cost seeding collapses every point, with F = 0. Each main ring is
    replaced by a set approximation at epsilon_prime(z, eps): halving
    against the ring's far-ball family (deterministic mode; one
    ball_test_families pass at DEFAULT_MAX_RANGES builds every main ring's
    family) or a seeded uniform sample at failure probability SAMPLE_DELTA
    (randomized mode, seed an integer >= 0, seed + t the seed of main ring
    t), each kept point weighted |ring| / |kept|.

    Slice mode, P an ExtendedPointSet, keeps the seeding centers at
    extension 0; the coreset rows then carry each point's extension as
    their last coordinate, and a center row a 0 there.
    """
    if mode not in ("deterministic", "randomized"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "randomized":
        _seeded_rng(seed)  # a bad seed fails here, not at the first large ring
    pts, w = _coerce_pointset(P)
    if (w != 1.0).any():
        raise InputError("ring coreset expects unit weights")

    seeding = greedy_seeding(P, params)
    G = seeding.centers.centers
    if seeding.status == "low-cost":
        _, collapsed = min_power_dists(pts, G, params.z)
        offset, main = 0.0, []
    else:
        rings = ring_decompose(P, seeding, params)
        collapsed = rings.labels[rings.kinds != "main"]
        outer = rings.indices_of("outer")
        offset = tree_sum(rings.costs[outer]) if outer.size else 0.0
        main = [idx for _, idx in rings.main_rings()]

    eps_p = epsilon_prime(params.z, params.epsilon)
    if mode == "deterministic" and main:
        families = ball_test_families(
            pts[np.concatenate(main)],
            np.cumsum([0] + [idx.size for idx in main[:-1]]),
            params.k,
            DEFAULT_MAX_RANGES,
        )
    kept = []
    for t, idx in enumerate(main):
        if mode == "deterministic":
            approx = halving_approx(pts[idx], eps_p, families[t])
        else:
            approx = uniform_sample_approx(
                pts[idx],
                eps_p,
                SAMPLE_DELTA,
                vc_dim_hint_euclidean(params.k, pts.shape[1]),
                seed + t,
            )
        kept.append(idx[approx.indices])

    removed = np.bincount(collapsed, minlength=G.shape[0])
    centers = np.flatnonzero(removed)
    return OffsetCoreset(
        points=np.vstack([G[centers]] + [pts[s] for s in kept]),
        weight_num=np.concatenate(
            [removed[centers]] + [np.full(s.size, idx.size) for s, idx in zip(kept, main)]
        ),
        weight_den=np.concatenate(
            [np.ones(centers.size, dtype=np.int64)] + [np.full(s.size, s.size) for s in kept]
        ),
        offset=offset,
    )


def _cost_table(X, w, grid):
    """(squared distances, weights) of the rows of X in canonical order:
    the (grid, n) table that _tuple_costs gathers each tuple's rows from."""
    order = canonical_order(X, w)
    return np.ascontiguousarray(sq_dist_matrix(X[order], grid).T), w[order]


def _tuple_costs(table, tuples, z):
    """power_cost of a _cost_table's points against every center tuple (a
    row of grid indices), bit for bit: each tuple's minima are gathered
    from the table and summed by tree_sum_rows in canonical order."""
    sq, w = table
    near = sq[tuples[:, 0]]
    for j in range(1, tuples.shape[1]):
        np.minimum(near, sq[tuples[:, j]], out=near)
    return tree_sum_rows(w * _power_from_sq(near, z))


def check_tuple_budget(grid_rows, k):
    """Raise InputError when the k-subsets of grid_rows centers, the tuples
    an exhaustive verification checks, outnumber MAX_TUPLES; callers that
    know the grid's size check it before they build the grid. C(rows, i)
    grows with i up to min(k, rows - k), and the count stops once it
    passes the budget, so a huge grid or k costs a few steps and the
    message holds no number too long to print."""
    count = 1
    for i in range(min(k, grid_rows - k)):
        count = count * (grid_rows - i) // (i + 1)  # C(rows, i + 1), exact
        if count > MAX_TUPLES:
            raise InputError(f"more than {MAX_TUPLES} center tuples exceed the budget {MAX_TUPLES}")


def verify_offset_coreset(
    P,
    core: OffsetCoreset,
    params,
    center_grid,
    *,
    exhaustive_tuples=True,
    samples=200,
    seed=0,
):
    """Worst relative error of the offset-coreset contract over center
    tuples drawn from a grid.

    Exhaustive mode enumerates every k-subset of the grid (within
    check_tuple_budget). Otherwise `samples` >= 1 distinct k-subsets are
    drawn from one seeded stream, a repeated draw skipped, and every
    k-subset is checked once samples reaches their number. Tuples with
    cost(P, S) = 0 are excluded; a tuple whose cost overflows (inf or NaN)
    on either side scores inf. Both costs of every tuple equal power_cost
    bit for bit, with P's weights. The tuples go in chunks of
    at most _CHUNK // n, so a chunk's (tuples, points) cost table holds at
    most geometry._CHUNK elements; the witness, reported only above eps,
    is the first tuple that reaches the maximum.
    """
    pts, w = _coerce_pointset(P)
    grid = _as_points(center_grid, "center grid")
    k = params.k
    if grid.shape[0] < k:
        raise InputError("center grid smaller than k")
    if exhaustive_tuples:
        check_tuple_budget(grid.shape[0], k)
    elif samples < 1:
        raise InputError("sampled verification needs samples >= 1")
    total = math.comb(grid.shape[0], k)
    if exhaustive_tuples or samples >= total:
        combos = itertools.combinations(range(grid.shape[0]), k)
        tuples = np.fromiter(
            itertools.chain.from_iterable(combos), dtype=np.int64, count=total * k
        ).reshape(total, k)
    else:
        rng = _seeded_rng(seed)
        draws = {}  # distinct tuples in first-drawn order
        while len(draws) < samples:
            draw = tuple(np.sort(rng.choice(grid.shape[0], size=k, replace=False)).tolist())
            draws.setdefault(draw)
        tuples = np.array(list(draws), dtype=np.int64).reshape(samples, k)
    full = _cost_table(pts, w, grid)
    coreset = _cost_table(core.points, core.weights, grid)
    step = max(1, _CHUNK // max(pts.shape[0], core.size))
    worst = 0.0
    witness = None
    checked = 0
    for lo in range(0, tuples.shape[0], step):
        chunk = tuples[lo : lo + step]
        orig = _tuple_costs(full, chunk, params.z)
        live = np.flatnonzero(orig != 0.0)
        approx = _tuple_costs(coreset, chunk[live], params.z) + core.offset
        with np.errstate(invalid="ignore"):  # inf - inf, scored inf below
            rel = np.abs(approx - orig[live]) / orig[live]
        rel[~(np.isfinite(approx) & np.isfinite(orig[live]))] = np.inf
        checked += live.size
        if live.size and rel.max() > worst:
            top = int(np.argmax(rel))  # the first maximum
            worst = float(rel[top])
            witness = (tuple(chunk[live[top]].tolist()), worst)
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


def euclidean_pipeline(P, params):
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
        E = ExtendedPointSet(pts, np.zeros(pts.shape[0]))
    else:
        sk = cost_preserving_sketch(pts, params)
        E = sk.sketched_points()
    core = ring_coreset(E, params)
    return EuclideanPipelineResult(coreset=core, sketch=sk)
