"""Deterministic and randomized set approximations for far-ball ranges.

A range here is "the points at distance at least r from every center in a
small center tuple". A subset A approximates the ground set G when, for
every range R in a test family, |R cap G|/|G| and |R cap A|/|A| differ by
at most eps_prime. The deterministic route repeatedly halves G with a
pessimistic-estimator coloring; the randomized route draws a uniform
sample sized by the usual VC bound. Both are checked by an explicit
verifier against the finite family; the gap to the continuous range space
is a documented limitation, not a silent assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import _as_points, center_grid, sq_dist_matrix

HALVING_MIN_SIZE = 8
DEFAULT_SAMPLE_C = 2.0
DEFAULT_MAX_RANGES = 64


@dataclass(frozen=True)
class BallRange:
    """Far range: membership(p) iff min over centers of dist(p, c) >= radius."""

    centers: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "centers", _as_points(self.centers, "range centers")
        )
        if self.radius < 0:
            raise InputError("radius must be nonnegative")


@dataclass(frozen=True)
class RangeTestFamily:
    ranges: tuple
    generation: str  # "from-grid" or "from-data-distances"

    def __len__(self):
        return len(self.ranges)


@dataclass(frozen=True)
class SetApproximation:
    """Index subset standing in for the ground set, each kept point carrying
    the uniform weight ground_size / len(indices)."""

    indices: np.ndarray
    ground_size: int
    seed: int | None = None  # set when the subset came from a seeded draw

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.size == 0:
            raise InputError("approximation must keep at least one point")
        if np.unique(idx).size != idx.size:
            raise InputError("approximation indices must be distinct")
        if idx.min() < 0 or idx.max() >= self.ground_size:
            raise InputError("approximation indices out of range")

    @property
    def weight(self):
        return self.ground_size / self.indices.size


def range_membership(p, range_: BallRange):
    """True iff p is at distance >= radius from every center of the range."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] != range_.centers.shape[1]:
        raise InputError("point dimension does not match range centers")
    dmin = float(np.sqrt(((range_.centers - p) ** 2).sum(axis=1)).min())
    return dmin >= range_.radius


def _membership_matrix(points, tests):
    """(n_ranges, n_points) boolean membership table.

    One distance table against the centers of every range; each range
    then takes the minimum over its own columns."""
    if any(r.centers.shape[1] != points.shape[1] for r in tests.ranges):
        raise InputError("range centers dimension does not match points")
    dist = np.sqrt(sq_dist_matrix(points, np.vstack([r.centers for r in tests.ranges])))
    bounds = np.cumsum([0] + [r.centers.shape[0] for r in tests.ranges])
    return np.array(
        [
            dist[:, lo:hi].min(axis=1) >= r.radius
            for r, lo, hi in zip(tests.ranges, bounds[:-1], bounds[1:])
        ]
    )


def ball_test_family(
    points,
    k,
    generation="from-data-distances",
    *,
    max_ranges=DEFAULT_MAX_RANGES,
    per_axis=3,
):
    """Finite surrogate for the continuous far-ball range space.

    Centers come from an axis grid over the data box; each range uses
    1 + (t mod k) consecutive grid rows (wrapping). Radii are either evenly
    ranked values of the point-to-grid distance multiset
    (from-data-distances) or a uniform lattice over [0, max distance]
    (from-grid). Deterministic given the inputs.

    The axis grid is exponential in dimension, so past per_axis**d = 4096
    the candidate centers fall back to at most 64 evenly spaced data rows
    (canonical order). Same contract, still deterministic.
    """
    pts = _as_points(points, "points")
    if k < 1:
        raise InputError("k must be at least 1")
    if max_ranges < 1:
        raise InputError("max_ranges must be at least 1")
    if generation not in ("from-grid", "from-data-distances"):
        raise InputError(f"unknown generation {generation!r}")
    if float(per_axis) ** pts.shape[1] <= 4096:
        grid = center_grid(pts, per_axis=per_axis)
    else:
        take = np.round(np.linspace(0, pts.shape[0] - 1, min(pts.shape[0], 64)))
        grid = pts[np.unique(take.astype(np.int64))]
    dists = np.sqrt(sq_dist_matrix(pts, grid)).ravel()
    dists = np.unique(dists)
    if generation == "from-data-distances":
        pos = np.linspace(0, dists.size - 1, max_ranges)
        radii = dists[np.round(pos).astype(np.int64)]
    else:
        radii = np.linspace(0.0, float(dists.max()), max_ranges)
    g = grid.shape[0]
    ranges = []
    for t, radius in enumerate(radii):
        size = min(1 + (t % k), g)
        start = (t * size) % g
        take = [(start + j) % g for j in range(size)]
        ranges.append(BallRange(grid[take], float(radius)))
    return RangeTestFamily(ranges=tuple(ranges), generation=generation)


def verify_set_approx(ground, approx: SetApproximation, tests: RangeTestFamily):
    """Max over the family of | |R cap G|/|G| - |R cap A|/|A| |."""
    pts = _as_points(ground, "ground")
    n = pts.shape[0]
    if approx.ground_size != n:
        raise InputError("approximation was built over a different ground set")
    if len(tests) == 0:
        return 0.0
    M = _membership_matrix(pts, tests)
    gfrac = M.sum(axis=1) / n
    afrac = M[:, approx.indices].sum(axis=1) / approx.indices.size
    return float(np.abs(gfrac - afrac).max())


def _halve(order, M, lam):
    """One pessimistic-estimator halving pass.

    Walks the points in canonical (ascending index) order; each sign choice
    minimizes sum over ranges of cosh(lam * running signed discrepancy),
    ties keeping +1. Returns the +1 class. M must include a final all-ones
    balance row so the kept class stays near half the input.
    """
    disc = np.zeros(M.shape[0])
    keep = []
    for j, idx in enumerate(order):
        m = M[:, j]
        up = float(np.cosh(lam * (disc[m] + 1.0)).sum())
        dn = float(np.cosh(lam * (disc[m] - 1.0)).sum())
        if dn < up:
            disc[m] -= 1.0
        else:
            disc[m] += 1.0
            keep.append(idx)
    return np.asarray(keep, dtype=np.int64)


def halving_approx(
    ground, eps_prime, tests: RangeTestFamily, *, min_size=HALVING_MIN_SIZE
):
    """Deterministic set approximation by repeated halving.

    Each level recolors the surviving points and keeps the +1 class; a
    level is accepted only if the verified deviation against the original
    ground stays within eps_prime. Halving stops at min_size, except that
    zero-deviation halvings (duplicate-heavy grounds) remain free below the
    floor. If even the first halving overshoots, the full ground comes back
    (deviation 0).
    """
    pts = _as_points(ground, "ground")
    n = pts.shape[0]
    if not (0.0 < eps_prime <= 1.0):
        raise InputError("eps_prime must lie in (0, 1]")
    if len(tests) == 0:
        raise InputError("test family must be nonempty")
    M = _membership_matrix(pts, tests)
    gfrac = M.sum(axis=1) / n
    M_est = np.vstack([M, np.ones((1, n), dtype=bool)])

    current = np.arange(n, dtype=np.int64)
    while current.size > 1:
        lam = math.sqrt(2.0 * math.log(2.0 * len(tests)) / current.size)
        cand = _halve(current, M_est[:, current], lam)
        if cand.size == 0 or cand.size == current.size:
            break
        dev = float(
            np.abs(gfrac - M[:, cand].sum(axis=1) / cand.size).max()
        )
        if dev > eps_prime:
            break
        if current.size <= min_size and dev > 0.0:
            break
        current = cand
    return SetApproximation(indices=current, ground_size=n)


def vc_dim_hint_euclidean(k, d):
    """Working bound used to size uniform samples for k far-ball ranges in
    R^d (scales like k d log k)."""
    return math.ceil(3.0 * k * d * math.log2(k + 1))


def uniform_sample_approx(
    ground, eps_prime, delta, vc_dim_hint, seed, *, c=DEFAULT_SAMPLE_C
):
    """Uniform sample without replacement at the VC-style size

        min(|ground|, ceil(c * eps'^-2 * (vc*ln(vc/eps') + ln(1/delta)))).

    Randomized: the seed is recorded on the result for replay.
    """
    pts = _as_points(ground, "ground")
    n = pts.shape[0]
    if not (0.0 < eps_prime < 1.0):
        raise InputError("eps_prime must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0, 1)")
    if vc_dim_hint < 1:
        raise InputError("vc_dim_hint must be at least 1")
    size = math.ceil(
        c
        * eps_prime**-2
        * (vc_dim_hint * math.log(vc_dim_hint / eps_prime) + math.log(1.0 / delta))
    )
    size = min(n, max(1, size))
    if size == n:
        idx = np.arange(n, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)
    return SetApproximation(indices=idx, ground_size=n, seed=seed)
