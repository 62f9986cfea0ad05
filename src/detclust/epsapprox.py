"""Deterministic and randomized set approximations for far-ball ranges.

A range here is "the points at distance at least r from every center in a
small center tuple". A subset A approximates the ground set G when, for
every range R in a test family, |R cap G|/|G| and |R cap A|/|A| differ by
at most eps_prime. The deterministic route repeatedly halves G with a
pessimistic-estimator coloring; the randomized route draws a uniform
sample sized by the usual VC bound. Both are checked by an explicit
verifier against the finite family; the gap to the continuous range space
is a documented limitation, not a silent assumption.

A family (RangeTestFamily, built by ball_test_families) is three arrays:
the shared centers (g, d), one row of center indices per range (R, s),
and the radii (R,). A range with fewer than s centers repeats its last
index in its row; the minimum over the row ignores the repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import _CHUNK, _as_points, _box_grids, _seeded_rng, sq_dist_blocks, sq_dist_matrix

HALVING_MIN_SIZE = 8
SAMPLE_C = 2.0
DEFAULT_MAX_RANGES = 64
_GRID_PER_AXIS = 3  # family centers: grid values per axis while 3**d <= 4096
_MAX_DATA_CENTERS = 64  # past that, at most this many evenly spaced data rows


@dataclass(frozen=True)
class RangeTestFamily:
    """R far-ball ranges over g shared centers, as three arrays.

    centers: (g, d) float; cols: (R, s) int, row t indexing the centers of
    range t; radii: (R,) nonnegative. Range t holds the points at distance
    >= radii[t] from every centers[cols[t]]. A range with fewer than s
    centers repeats its last index, which the minimum ignores.
    """

    centers: np.ndarray
    cols: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = _as_points(self.centers, "range centers")
        cols = np.asarray(self.cols, dtype=np.int64)
        radii = np.asarray(self.radii, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[0] == 0 or cols.shape[1] == 0:
            raise InputError("cols must be a nonempty (R, s) index array")
        if cols.min() < 0 or cols.max() >= centers.shape[0]:
            raise InputError("cols must index the range centers")
        if radii.shape != (cols.shape[0],):
            raise InputError("radii must hold one radius per range")
        if not np.isfinite(radii).all() or (radii < 0).any():
            raise InputError("radii must be finite and nonnegative")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "radii", radii)

    def __len__(self):
        return self.radii.shape[0]


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


def _check_dim(points, tests):
    if tests.centers.shape[1] != points.shape[1]:
        raise InputError("range centers dimension does not match points")


def _membership_matrix(points, tests):
    """(n_ranges, n_points) boolean membership table.

    One distance table against the family's centers; each range then takes
    the minimum over its own columns, O(n R s) memory. The square root is
    monotone and correctly rounded, so it commutes with the minimum."""
    _check_dim(points, tests)
    sq = sq_dist_matrix(points, tests.centers)
    return (np.sqrt(sq[:, tests.cols].min(axis=2)) >= tests.radii).T


def _deviation(M, gfrac, keep):
    """Max over ranges of |ground fraction - fraction of the kept columns|."""
    return float(np.abs(gfrac - M[:, keep].sum(axis=1) / keep.size).max())


def ball_test_families(points, starts, k, max_ranges):
    """Finite surrogates for the continuous far-ball range space, one
    RangeTestFamily per ground, all built in one pass.

    The grounds are consecutive row blocks of points: block r starts at
    row starts[r] and ends where the next one starts. A ground's centers
    come from the 3-per-axis grid over its data box (center_grid); once
    3**d exceeds 4096 they fall back to at most 64 evenly spaced rows of
    the ground. Range t uses size = min(1 + (t mod k), g) consecutive
    centers starting at t * size (mod g, wrapping), so cols has
    s = min(k, g) columns and shorter ranges repeat their last index. The
    radii are max_ranges evenly ranked values of the distinct
    point-to-center distances. A family depends on its own ground alone,
    so ball_test_families(ground, [0], k, R)[0] is one ground's family;
    the ring coreset asks for R = DEFAULT_MAX_RANGES.

    Blocks are processed in groups of about _CHUNK // (g d) points, g the
    centers per ground; within a group the boxes, grids, distances and
    distinct-distance ranks of all grounds are whole-array passes. Grounds
    with equal center counts share one cols array.
    """
    pts = _as_points(points, "points")  # C order: sq_dist_blocks rounds by layout
    n, d = pts.shape
    starts = np.asarray(starts, dtype=np.int64)
    if k < 1:
        raise InputError("k must be at least 1")
    if max_ranges < 1:
        raise InputError("max_ranges must be at least 1")
    if (
        starts.ndim != 1
        or starts.size == 0
        or starts[0] != 0
        or (np.diff(starts) <= 0).any()
        or starts[-1] >= n
    ):
        raise InputError("starts must rise strictly from 0 and index the points")
    grid = float(_GRID_PER_AXIS) ** d <= 4096
    g_max = _GRID_PER_AXIS**d if grid else _MAX_DATA_CENTERS
    # a group ends at the first ground that starts past its point budget
    group = starts // max(1, _CHUNK // (g_max * d))
    cuts = np.append(np.flatnonzero(np.diff(group)) + 1, starts.size)
    cols = {}
    out = []
    lo = 0
    for hi in cuts.tolist():
        a = int(starts[lo])
        b = int(starts[hi]) if hi < starts.size else n
        out.extend(_families(pts[a:b], starts[lo:hi] - a, k, max_ranges, grid, cols))
        lo = hi
    return out


def _families(pts, starts, k, max_ranges, grid, cols):
    """ball_test_families of one group of grounds (see there)."""
    n = pts.shape[0]
    sizes = np.diff(np.append(starts, n))
    owner = np.repeat(np.arange(starts.size), sizes)
    if grid:  # center_grid(ground, 3) per ground, C-ordered as pts is
        centers = _box_grids(pts, starts, _GRID_PER_AXIS)
        g = np.full(starts.size, centers.shape[1])
    else:  # round(linspace(0, size - 1, g)) per ground; no two rows coincide
        g = np.minimum(sizes, _MAX_DATA_CENTERS)
        slot = np.minimum(np.arange(g.max()), (g - 1)[:, None])
        take = _linspace_ranks(sizes - 1, g)[np.arange(starts.size)[:, None], slot]
        centers = pts[starts[:, None] + take]  # short grounds repeat their last row
    dist = np.sqrt(sq_dist_blocks(pts, centers, owner)).ravel()
    block = np.repeat(owner, centers.shape[1])
    order = np.lexsort((dist, block))
    dist, block = dist[order], block[order]
    new = np.ones(dist.size, dtype=bool)
    new[1:] = (block[1:] != block[:-1]) | (dist[1:] != dist[:-1])
    distinct = dist[new]
    counts = np.bincount(block[new], minlength=starts.size)
    first = np.cumsum(counts) - counts
    ranks = _linspace_ranks(counts - 1, np.full(starts.size, max_ranges))
    radii = distinct[first[:, None] + ranks]
    out = []
    for r, gr in enumerate(g.tolist()):
        if gr not in cols:
            cols[gr] = _range_cols(k, gr, max_ranges)
        out.append(RangeTestFamily(centers=centers[r, :gr], cols=cols[gr], radii=radii[r]))
    return out


def _linspace_ranks(top, num):
    """np.round(np.linspace(0, top[r], num[r])) as int64 for every r, padded
    to max(num) columns.

    linspace's own step formula, one ground at a time: one np.linspace over
    all grounds would take its zero-step formula everywhere once any top is
    0, which rounds other grounds differently."""
    width = int(num.max())
    div = np.maximum(num - 1, 1)
    y = np.arange(width, dtype=np.float64) * (top / div)[:, None]
    last = num > 1
    y[last, num[last] - 1] = top[last]
    return np.round(y).astype(np.int64)


def _range_cols(k, g, max_ranges):
    """The (max_ranges, min(k, g)) center indices of a family over g
    centers (see ball_test_families)."""
    t = np.arange(max_ranges)
    size = np.minimum(1 + t % k, g)
    step = np.minimum(np.arange(min(k, g)), size[:, None] - 1)
    return (((t * size) % g)[:, None] + step) % g


def verify_set_approx(ground, approx: SetApproximation, tests: RangeTestFamily):
    """Max over the family of | |R cap G|/|G| - |R cap A|/|A| |."""
    pts = _as_points(ground, "ground")
    n = pts.shape[0]
    if approx.ground_size != n:
        raise InputError("approximation was built over a different ground set")
    M = _membership_matrix(pts, tests)
    return _deviation(M, M.sum(axis=1) / n, approx.indices)


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


def halving_approx(ground, eps_prime, tests: RangeTestFamily):
    """Deterministic set approximation by repeated halving.

    Each level recolors the surviving points and keeps the +1 class; a
    level is accepted only if the verified deviation against the original
    ground stays within eps_prime. Halving stops at HALVING_MIN_SIZE, except
    that zero-deviation halvings (duplicate-heavy grounds) remain free below
    the floor; a level there is not even tried when no kept size below the
    current one can have deviation 0. If even the first halving
    overshoots, the full ground comes back (deviation 0).
    """
    pts = _as_points(ground, "ground")
    n = pts.shape[0]
    if not (0.0 < eps_prime <= 1.0):
        raise InputError("eps_prime must lie in (0, 1]")
    if n == 1:  # nothing to halve: keep the point, build no table
        _check_dim(pts, tests)
        return SetApproximation(indices=np.zeros(1, dtype=np.int64), ground_size=1)
    M = _membership_matrix(pts, tests)
    counts = M.sum(axis=1)
    gfrac = counts / n
    M_est = np.vstack([M, np.ones((1, n), dtype=bool)])
    # deviation 0 needs kept count / c == counts / n in every range (equal
    # floats of such small counts are equal fractions): c a multiple of step
    step = n // math.gcd(n, *counts.tolist())

    current = np.arange(n, dtype=np.int64)
    while current.size > 1:
        if current.size <= HALVING_MIN_SIZE and step >= current.size:
            break  # no smaller kept size can reach deviation 0
        lam = math.sqrt(2.0 * math.log(2.0 * len(tests)) / current.size)
        cand = _halve(current, M_est[:, current], lam)
        if cand.size == 0 or cand.size == current.size:
            break
        dev = _deviation(M, gfrac, cand)
        if dev > eps_prime:
            break
        if current.size <= HALVING_MIN_SIZE and dev > 0.0:
            break
        current = cand
    return SetApproximation(indices=current, ground_size=n)


def vc_dim_hint_euclidean(k, d):
    """Working bound used to size uniform samples for k far-ball ranges in
    R^d (scales like k d log k)."""
    return math.ceil(3.0 * k * d * math.log2(k + 1))


def uniform_sample_approx(ground, eps_prime, delta, vc_dim_hint, seed):
    """Uniform sample without replacement at the VC-style size

        min(|ground|, ceil(c * eps'^-2 * (vc*ln(vc/eps') + ln(1/delta)))),

    c = SAMPLE_C.

    Randomized: the seed, an integer >= 0, is recorded on the result for
    replay; it is checked even when the sample is the whole ground.
    """
    pts = _as_points(ground, "ground")
    n = pts.shape[0]
    if not (0.0 < eps_prime < 1.0):
        raise InputError("eps_prime must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0, 1)")
    if vc_dim_hint < 1:
        raise InputError("vc_dim_hint must be at least 1")
    rng = _seeded_rng(seed)
    size = math.ceil(
        SAMPLE_C
        * eps_prime**-2
        * (vc_dim_hint * math.log(vc_dim_hint / eps_prime) + math.log(1.0 / delta))
    )
    size = min(n, max(1, size))
    if size == n:
        idx = np.arange(n, dtype=np.int64)
    else:
        idx = np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)
    return SetApproximation(indices=idx, ground_size=n, seed=seed)
