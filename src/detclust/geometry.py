"""Core geometric types and primitives for (k, z)-clustering.

Costs are powers of Euclidean distances: serving point p from center s costs
w(p) * ||p - s||^z. Everything here is deterministic. power_cost sums in
a canonical point order with fixed-shape pairwise summation (see
summation.py), so permuting the rows of an input leaves the cost
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .summation import canonical_keys, canonical_order, tree_sum_rows

_CHUNK = 1 << 22  # max temp elements for distance matrices
DEFAULT_ALPHA = 50.0
GRID_MARGIN = 0.25  # center_grid inflates the data box by this share of its extent


def _as_points(arr, name="points"):
    """arr as a validated (n, d) float64 array in C order (no copy if it is
    one), so the distance tables built from it ignore the caller's layout."""
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise InputError(f"{name} must be a nonempty (n, d) array, d >= 1")
    if not np.isfinite(pts).all():
        raise InputError(f"{name} contains NaN or Inf")
    return np.ascontiguousarray(pts)


def _as_weights(w, n):
    """w as n validated float64 weights, all 1 when w is None."""
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    if w.shape != (n,) or not np.isfinite(w).all() or (w < 0).any():
        raise InputError("weights must be finite, >= 0, one per point")
    return w


def _seeded_rng(seed):
    """np.random.default_rng(seed) for an integer seed >= 0, the package's
    one way to open a seeded stream; any other seed raises InputError."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InputError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class WeightedPointSet:
    """Multiset of points in R^d with nonnegative real weights."""

    points: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        pts = _as_points(self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", _as_weights(self.weights, pts.shape[0]))


@dataclass(frozen=True)
class ExtendedPointSet:
    """Weighted points in R^d, each carrying a nonnegative extension scalar.

    The extension acts as an extra orthogonal coordinate: the distance from
    (p, e) to a center embedded at extension 0 is sqrt(||p - c||^2 + e^2).
    """

    points: np.ndarray
    extensions: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        pts = _as_points(self.points)
        ext = np.asarray(self.extensions, dtype=np.float64)
        if ext.shape != (pts.shape[0],):
            raise InputError("extensions shape must match number of points")
        if not np.isfinite(ext).all() or (ext < 0).any():
            raise InputError("extensions must be finite and >= 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "extensions", ext)
        object.__setattr__(self, "weights", _as_weights(self.weights, pts.shape[0]))

    def as_rows(self):
        """(n, d+1) array with the extension as the last coordinate."""
        return np.hstack([self.points, self.extensions[:, None]])


@dataclass(frozen=True)
class CenterSet:
    """A finite set of centers."""

    centers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", _as_points(self.centers, "centers"))

    @property
    def k(self):
        return self.centers.shape[0]


@dataclass(frozen=True)
class ClusteringParams:
    """Problem parameters: k centers, power z >= 1, accuracy 0 < eps <= 1/3.

    alpha is c_A, the approximation factor the seeding assumes of its
    constant-factor solution A: it sets the candidate radii and the greedy
    accept and stop thresholds. It steers how a coreset is built, not what
    it guarantees, so coreset and sketch files do not store it and read
    back the default. At the default 50 the bicriteria solver returns
    nearly one center per point on small inputs, which is why the coreset
    workloads pass alpha = 2.
    """

    k: int
    z: int
    epsilon: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise InputError("k must be an integer >= 1")
        if not (isinstance(self.z, (int, np.integer)) and self.z >= 1):
            raise InputError("z must be an integer >= 1")
        if not (0 < self.epsilon <= 1 / 3):
            raise InputError("epsilon must satisfy 0 < eps <= 1/3")
        if not (1 <= self.alpha < np.inf):
            raise InputError("alpha must be finite and >= 1")


def _coerce_pointset(P):
    """(rows, weights) of a WeightedPointSet, an ExtendedPointSet, a
    (points, weights) pair (validated as a WeightedPointSet), or raw arrays.

    An ExtendedPointSet is slice-mode input: its rows carry the extension
    as the last coordinate, and centers of it carry a trailing 0 there, so
    every distance table reads sqrt(||p - c||^2 + e^2)."""
    if isinstance(P, tuple) and len(P) == 2:
        P = WeightedPointSet(*P)
    if isinstance(P, WeightedPointSet):
        return P.points, P.weights
    if isinstance(P, ExtendedPointSet):
        return P.as_rows(), P.weights
    pts = _as_points(P)
    return pts, np.ones(pts.shape[0])


def _split_extended(P):
    """(base, ext, weights) of a point set; ext is None unless P is an
    ExtendedPointSet, whose centers sit at extension 0 (slice mode)."""
    if isinstance(P, ExtendedPointSet):
        return P.points, P.extensions, P.weights
    pts, w = _coerce_pointset(P)
    return pts, None, w


def _refuse_overflow(P, z):
    """Raise InputError when sum w (d S^2)^(z/2), which bounds every
    clustering cost of P, is not finite: S the largest coordinate span of
    its rows (the extension spans from 0, where centers sit)."""
    rows, w = _coerce_pointset(P)
    with np.errstate(over="ignore", invalid="ignore"):
        span = (rows.max(axis=0) - rows.min(axis=0)).max()
        if isinstance(P, ExtendedPointSet):
            span = max(span, P.extensions.max())
        bound = w.sum() * (rows.shape[1] * span * span) ** (z / 2)
    if not np.isfinite(bound):
        raise InputError("clustering costs overflow float64; rescale the input")


def _coerce_centers(S):
    if isinstance(S, CenterSet):
        return S.centers
    return _as_points(S, "centers")


def sq_dist_matrix(X, C):
    """(n, m) squared Euclidean distances, chunked, ufunc-only (no BLAS).

    With sq_dist_blocks, the package's only rows-by-centers distance
    tables. At d <= 2 each entry is the coordinate-order sum
    (x0 - c0)^2 + (x1 - c1)^2, one rounded ufunc step at a time; these are
    the einsum's bits too (at most two terms, and adding two numbers is
    commutative), without its (rows, m, d) temporary. At d >= 3 one einsum
    fixes how every entry is rounded; it rounds by the layout of its
    operands, so X and C are read in C order (copied only when they are
    not), and the table depends on the values alone at every d. Distances
    from many rows to a single center stay ((X - c) ** 2).sum(axis=1),
    which rounds differently in the last bit at d >= 3, so the two forms
    are not interchangeable. X and C must agree on d.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    n, d = X.shape
    if C.ndim != 2 or C.shape[1] != d:
        raise InputError("points and centers disagree on dimension")
    m = C.shape[0]
    rows = max(1, int(_CHUNK // max(1, m * d)))
    table = _coordinate_table if d <= 2 else _einsum_table
    if rows >= n:
        return table(X, C)
    out = np.empty((n, m))
    for i in range(0, n, rows):
        out[i : i + rows] = table(X[i : i + rows], C)
    return out


def _coordinate_table(X, C):
    """sq_dist_matrix's table at d <= 2: (x0 - c0)^2, then + (x1 - c1)^2."""
    out = X[:, :1] - C[:, 0]
    out *= out
    if X.shape[1] == 2:
        t = X[:, 1:] - C[:, 1]
        t *= t
        out += t
    return out


def _einsum_table(X, C):
    """sq_dist_matrix's table at d >= 3: one einsum over the differences."""
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff, optimize=False)


def sq_dist_blocks(X, C, owner):
    """(n, m) squared distances from row i of X to the m centers of its own
    block C[owner[i]], C an (R, m, d) array: sq_dist_matrix's einsum on the
    gathered blocks, chunked like it. Equal bytes to sq_dist_matrix(X[i],
    C[owner[i]]) at d <= 2, and at d >= 3 when X and C are C-ordered, as
    the einsum rounds by the layout of its operands there."""
    n, d = X.shape
    m = C.shape[1]
    rows = max(1, int(_CHUNK // max(1, m * d)))
    out = np.empty((n, m))
    for i in range(0, n, rows):
        diff = X[i : i + rows, None, :] - C[owner[i : i + rows]]
        out[i : i + rows] = np.einsum("ijk,ijk->ij", diff, diff, optimize=False)
    return out


def _row_keys(rows, quantum):
    """One opaque byte key per row of rows: its coordinates rounded to
    multiples of quantum, as int64, read as one np.void. Two keys are equal
    exactly when the rows round alike in every coordinate."""
    keys = np.round(rows / quantum).astype(np.int64, order="C")
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def first_seen_rows(rows, quantum):
    """(keep, index) of the (r, d) array rows deduplicated up to coordinate
    quantization, the first occurrence kept.

    Two rows are one when their _row_keys are equal. keep lists the first
    occurrence of each distinct row in ascending order; index[i] is the
    position in keep of row i's first occurrence. One np.unique over the
    byte keys, which sorts stably when asked for indices.
    """
    _, first, inverse = np.unique(_row_keys(rows, quantum), return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return np.sort(first), rank[inverse]


def min_power_dists(X, C, z):
    """min_s ||x - s||^z per row of X, plus the argmin index (lowest wins).

    The package's only nearest-center labeler."""
    sq = sq_dist_matrix(X, C)
    idx = np.argmin(sq, axis=1)  # first minimum = lowest center index
    best = sq[np.arange(sq.shape[0]), idx]
    return _power_from_sq(best, z), idx


def _power_from_sq(sq, z):
    """sq ** (z / 2) of a fresh array sq: z = 2 returns sq itself and z = 1
    takes its root in place, so a table is never copied."""
    if z == 2:
        return sq
    if z == 1:
        return np.sqrt(sq, out=sq)
    return np.sqrt(sq) ** z


def power_cost(P, S, z):
    """Clustering cost: sum over points of w(p) * min_{s in S} ||p - s||^z.

    The centers of an ExtendedPointSet live in its base space, at extension
    0. The per-point costs are summed in canonical (lexicographically
    sorted) point order with a fixed-shape pairwise tree, so the result is
    permutation-invariant at the bit level. The one-set case of
    _power_costs.
    """
    centers = _coerce_centers(S)
    if not (isinstance(z, (int, np.integer)) and z >= 1):
        raise InputError("z must be an integer >= 1")
    return float(_power_costs(P, [centers], z)[0])


def _power_costs(P, center_sets, z):
    """power_cost(P, C, z) of every C in center_sets: one distance table
    against all of them; each set's nearest-center power, times w, is
    summed in canonical order by tree_sum_rows."""
    pts, ext, w = _split_extended(P)
    C = np.vstack(center_sets)
    if ext is not None:  # the extension as a last coordinate, 0 at the centers
        pts = np.column_stack([pts, ext])
        C = np.column_stack([C, np.zeros(C.shape[0])])
    starts = np.cumsum([0] + [c.shape[0] for c in center_sets[:-1]])
    best = np.minimum.reduceat(sq_dist_matrix(pts, C), starts, axis=1)
    costs = w[:, None] * _power_from_sq(best, z)
    return tree_sum_rows(costs[canonical_order(pts, w)].T)


def _own_center_costs(X, w, C, z):
    """power_cost((X[s], w[s]), C[s], z) of every set s, bit for bit: X
    (sets, n, d) rows, w (sets, n), C (sets, m, d). One sq_dist_blocks
    table over the stacked rows, one lexsort by set and then by
    canonical_order's keys (both stable, so each set keeps its own order),
    one tree_sum_rows."""
    sets, n, d = X.shape
    rows, w = X.reshape(sets * n, d), w.ravel()
    owner = np.repeat(np.arange(sets), n)
    costs = w * _power_from_sq(sq_dist_blocks(rows, C, owner).min(axis=1), z)
    order = np.lexsort(canonical_keys(rows, w) + [owner])
    return tree_sum_rows(costs[order].reshape(sets, n))


_WEISZFELD_ROUNDS = 20  # lockstep z = 1 warm-up rounds before the Newton
_NEWTON_ROUNDS = 50
# members nearest the z = 1 iterate scored as centers; at least the
# enumeration's ENUM_MAX_N, so a subset-table row scores all its members
_POINT_CANDIDATES = 16


def solve_1centers(base, ext, w, members, z):
    """Optimal 1-center of each of many member sets of one point set.

    Row r of the boolean (m, n) matrix members picks a set R; its center
    minimizes f_r(c) = sum_{i in R} w_i (|b_i - c|^2 + e_i^2)^(z/2) over
    c in R^d. ext None means e = 0, the plain 1-center; otherwise the center
    sits at extension 0 and every member pays its extension too. Returns
    (centers, costs, certified), one row per set, costs[r] = f_r(centers[r]).

    z = 2 is the closed-form centroid, whose denominator is the tree_sum of
    the members' weights. Otherwise every row starts at its centroid; z = 1
    takes _WEISZFELD_ROUNDS smoothed Weiszfeld rounds, and the rows not yet
    certified then run _newton_centers. A row is certified when its
    gradient norm times its members' hull diameter, which bounds the gap to
    the optimum, is at most 1e-12 scale^z sum(w), scale being the larger of
    that diameter and the largest extension; at z = 1 also when its
    _median_point passes the same test with its smallest subgradient. At
    z = 1 that member point is the center whenever it costs less than the
    iterate. A row's bytes depend on that row alone, never on the rest of
    the batch. A set of total weight 0 gets its members' mean.
    """
    m, n = members.shape
    ext_sq = np.zeros(n) if ext is None else ext**2
    W = np.where(members, w, 0.0)
    first = np.argsort(~members, axis=1, kind="stable")  # members first
    wsum = tree_sum_rows(np.take_along_axis(W, first, axis=1))
    empty = wsum == 0.0
    c = np.einsum("mi,id->md", np.where(empty[:, None], members, W), base, optimize=False)
    c /= np.where(empty, members.sum(axis=1), wsum)[:, None]
    certified = np.ones(m, dtype=bool)
    if z != 2:
        lo, hi = np.empty((2, m, base.shape[1]))
        for j, col in enumerate(base.T):  # (m, n) temporaries, not (m, n, d)
            lo[:, j] = np.where(members, col, np.inf).min(axis=1)
            hi[:, j] = np.where(members, col, -np.inf).max(axis=1)
        diam = np.sqrt(((hi - lo) ** 2).sum(axis=1))
        scale = np.maximum(diam, np.sqrt(np.where(members, ext_sq, 0.0).max(axis=1)))
        flat = scale == 0.0  # every member on one point: that point
        c[flat] = base[np.argmax(members[flat], axis=1)]
        live = np.flatnonzero(~flat & ~empty)
        if live.size:
            c[live], certified[live] = _descend(
                base, ext_sq, W[live], members[live], c[live],
                diam[live], scale[live], wsum[live], z,
            )
    sq = sq_dist_matrix(c, base) + ext_sq
    costs = np.einsum("mi,mi->m", W, _power_from_sq(sq, z), optimize=False)
    return c, costs, certified


def _descend(base, ext_sq, W, members, c, diam, scale, wsum, z):
    """(centers, certified) of the z != 2 rows of solve_1centers."""
    floor = 1e-12 * scale
    if z == 1:
        for _ in range(_WEISZFELD_ROUNDS):
            delta = np.sqrt(sq_dist_matrix(c, base) + ext_sq)
            coef = W / np.maximum(delta, floor[:, None])
            c = np.einsum("mi,id->md", coef, base, optimize=False)
            c /= coef.sum(axis=1)[:, None]

    def gap_ok(rows, c_rows, sq):
        g = _gradient_norm(W[rows], c_rows, sq, base, floor[rows], z)
        return g * diam[rows] <= 1e-12 * scale[rows] ** z * wsum[rows]

    def certify(rows):
        ok = gap_ok(rows, c[rows], sq_dist_matrix(c[rows], base) + ext_sq)
        if z == 1:
            point[rows], point_cost[rows], excess = _median_point(
                W[rows], members[rows], c[rows], base, ext_sq, floor[rows]
            )
            ok |= excess * diam[rows] <= 1e-12 * scale[rows] * wsum[rows]
        return ok

    point = np.zeros(c.shape[0], dtype=np.int64)
    point_cost = np.zeros(c.shape[0])
    ok = certify(np.arange(c.shape[0]))
    rows = np.flatnonzero(~ok)
    per = max(1, _CHUNK // base.size)  # the Newton's (rows, n, d) temporaries
    for i in range(0, rows.size, per):
        blk = rows[i : i + per]
        c[blk] = _newton_centers(
            W[blk], c[blk], base, ext_sq, floor[blk], z,
            lambda live, cl, sq: gap_ok(blk[live], cl, sq),
        )
    if rows.size:
        ok[rows] = certify(rows)
    if z == 1:
        sq = sq_dist_matrix(c, base) + ext_sq
        snap = point_cost < np.einsum("mi,mi->m", W, np.sqrt(sq), optimize=False)
        c[snap] = base[point[snap]]
    return c, ok


def _gradient_norm(W, c, sq, base, floor, z):
    """|grad f| per row at c; sq holds the squared distances from c to the
    points, extensions in, and distances below floor count as floor."""
    r = np.sqrt(np.maximum(sq, (floor * floor)[:, None]))
    coef = W * r ** (z - 2)
    g = c * coef.sum(axis=1)[:, None]
    g -= np.einsum("mi,id->md", coef, base, optimize=False)
    return z * np.sqrt((g**2).sum(axis=1))


def _median_point(W, members, c, base, ext_sq, floor):
    """The cheapest of each row's _POINT_CANDIDATES members nearest c, as a
    z = 1 center: (point index, cost, norm of its smallest subgradient).

    The members within floor of the point put a ball of radius w_at, their
    weight, into the subdifferential there; the smallest subgradient is
    max(0, |g| - w_at), g the pull of the other members. Times the hull
    diameter it bounds the point's gap to the optimum, as the gradient
    norm does for an iterate, so a point that meets the optimality
    condition |g| <= w_at with equality passes despite rounding.
    """
    rows = np.arange(W.shape[0])
    dist = np.where(members, sq_dist_matrix(c, base), np.inf)
    near = np.argsort(dist, axis=1, kind="stable")[:, :_POINT_CANDIDATES]
    J = np.unique(near)
    DJ = np.sqrt(sq_dist_matrix(base[J], base) + ext_sq)
    PC = np.einsum("mi,ji->mj", W, DJ, optimize=False)
    allowed = np.zeros(PC.shape, dtype=bool)
    allowed[rows[:, None], np.searchsorted(J, near)] = np.take_along_axis(
        members, near, axis=1
    )
    col = np.argmin(np.where(allowed, PC, np.inf), axis=1)
    Dq = DJ[col]
    at = members & (Dq < floor[:, None])
    pull = np.divide(W, Dq, out=np.zeros_like(W), where=members & ~at)
    g = base[J[col]] * pull.sum(axis=1)[:, None]
    g -= np.einsum("mi,id->md", pull, base, optimize=False)
    w_at = np.where(at, W, 0.0).sum(axis=1)
    return J[col], PC[rows, col], np.maximum(np.sqrt((g**2).sum(axis=1)) - w_at, 0.0)


def _newton_centers(W, c, base, ext_sq, floor, z, certified):
    """Damped Newton on the smoothed objective, one row per set.

    Row m minimizes sum_i W[m, i] rho_i^z from c[m], where
    rho_i = sqrt(|c - b_i|^2 + e_i^2 + floor[m]^2). Its gradient is
    z sum_i W rho^(z-2) (c - b_i), its Hessian
    z sum_i W rho^(z-2) I + z (z-2) sum_i W rho^(z-4) (c - b_i)(c - b_i)^T:
    per-row d x d Hessians, one batched eigendecomposition, Armijo
    backtracking per row in two tables a round: the full step of every
    pending row, then all 39 halvings 2^-1 .. 2^-39 of the rows that
    reject it, each row taking its first acceptable step size, in
    _step_costs blocks of at most _CHUNK elements. A row leaves once
    certified(live rows, centers, squared distances) accepts it or once
    its step stops descending; a singular or ill-conditioned Hessian
    (z = 1 on collinear sets, flat valleys) leaves the row where it is.
    Returns the new centers.
    """
    d = base.shape[1]
    c = c.copy()
    s2 = ext_sq + (floor * floor)[:, None]
    halvings = np.ldexp(1.0, -np.arange(1, 40))
    live = np.arange(c.shape[0])
    for _ in range(_NEWTON_ROUNDS):
        Wl, cl, s2l = W[live], c[live], s2[live]
        sq = sq_dist_matrix(cl, base)
        r = np.sqrt(sq + s2l)
        coef = Wl * r ** (z - 2)
        diff = cl[:, None, :] - base[None, :, :]
        g = z * np.einsum("mi,mid->md", coef, diff, optimize=False)
        H = coef.sum(axis=1)[:, None, None] * np.eye(d)
        H += (z - 2) * np.einsum("mi,mid,mie->mde", coef / r**2, diff, diff, optimize=False)
        lam, V = np.linalg.eigh(z * H)
        well = lam[:, 0] > 1e-12 * lam[:, -1]
        lam = np.where(well[:, None], lam, 1.0)
        step = -np.einsum(
            "mde,me->md", V, np.einsum("mde,md->me", V, g) / lam, optimize=False
        )
        gd = np.einsum("md,md->m", g, step, optimize=False)
        pend = np.flatnonzero(well & (gd < 0.0) & ~certified(live, cl, sq + ext_sq))
        f0 = np.einsum("mi,mi->m", Wl, r**z, optimize=False)
        # near the optimum the decrease drops below f's rounding, so a full
        # step may gain up to 1e-13 relative; a damped step must lower f
        # strictly, or rows creep by invisible steps
        t = np.ones(pend.size)  # per pending row: its step size, 0 for none
        f = _step_costs(Wl, cl, step, s2l, base, z, pend, t)
        rej = ~(f <= f0[pend] + 0.25 * gd[pend] + 1e-13 * f0[pend])
        rows = pend[rej]
        pairs = np.repeat(rows, halvings.size), np.tile(halvings, rows.size)
        f = _step_costs(Wl, cl, step, s2l, base, z, *pairs)
        f = f.reshape(rows.size, halvings.size)
        acc = (f <= f0[rows, None] + 0.25 * halvings * gd[rows, None]) & (f < f0[rows, None])
        t[rej] = np.where(acc.any(axis=1), halvings[acc.argmax(axis=1)], 0.0)
        moved = pend[t > 0.0]
        c[live[moved]] = cl[moved] + t[t > 0.0, None] * step[moved]
        live = live[moved]
        if not live.size:
            break
    return c


def _step_costs(W, c, step, s2, base, z, rows, t):
    """f at c[rows] + t step[rows], one (row, step size) pair per entry of
    rows and t, _CHUNK // n pairs a table."""
    f = np.empty(rows.size)
    per = max(1, _CHUNK // base.shape[0])
    for i in range(0, rows.size, per):
        r, tr = rows[i : i + per], t[i : i + per]
        c_try = c[r] + tr[:, None] * step[r]
        r_try = np.sqrt(sq_dist_matrix(c_try, base) + s2[r])
        f[i : i + per] = np.einsum("mi,mi->m", W[r], r_try**z, optimize=False)
    return f


def solve_1center(P, z):
    """Optimal single center of a weighted point set under the z-th power cost.

    The one-set case of solve_1centers, whose third column certifies the
    center. P is a WeightedPointSet or an array (weights default to 1), or
    an ExtendedPointSet, whose center sits at extension 0: it minimizes
    sum_i w_i (||b_i - c||^2 + e_i^2)^(z/2) over c in R^d.
    """
    base, ext, w = _split_extended(P)
    members = np.ones((1, base.shape[0]), dtype=bool)
    return solve_1centers(base, ext, w, members, int(z))[0][0]


def power_triangle_bound(d_ab, d_ac, d_bc, z, eps):
    """Relaxed triangle inequality bounds for z-th powers of distances.

    Returns (sum_bound, diff_bound) with, for any metric triple,

        d(a,b)^z            <= sum_bound  = (1+eps)^(z-1) d(a,c)^z
                                            + ((1+eps)/eps)^(z-1) d(b,c)^z
        |d(a,b)^z - d(a,c)^z| <= diff_bound = eps * d(a,c)^z
                                            + ((z+eps)/eps)^(z-1) d(b,c)^z

    Inputs may be scalars or broadcastable arrays; eps may exceed 1/3 here
    (the bounds hold for any eps > 0).
    """
    d_ab = np.asarray(d_ab, dtype=np.float64)
    d_ac = np.asarray(d_ac, dtype=np.float64)
    d_bc = np.asarray(d_bc, dtype=np.float64)
    if (np.min(d_ab) < 0) or (np.min(d_ac) < 0) or (np.min(d_bc) < 0):
        raise InputError("distances must be >= 0")
    if not (isinstance(z, (int, np.integer)) and z >= 1):
        raise InputError("z must be an integer >= 1")
    if not eps > 0:
        raise InputError("eps must be > 0")
    sum_bound = (1 + eps) ** (z - 1) * d_ac**z + ((1 + eps) / eps) ** (z - 1) * d_bc**z
    diff_bound = eps * d_ac**z + ((z + eps) / eps) ** (z - 1) * d_bc**z
    return sum_bound, diff_bound


def center_grid(P, per_axis):
    """Deterministic axis-aligned lattice over the data bounding box.

    A small finite stand-in for "all center sets" in verification oracles:
    per_axis >= 1 values per coordinate, so per_axis ** d rows, box
    inflated by GRID_MARGIN * extent. The one-ground case of _box_grids.
    """
    if per_axis < 1:
        raise InputError("per_axis must be at least 1")
    pts, _ = _coerce_pointset(P)
    return _box_grids(pts, [0], per_axis)[0]


def _box_grids(pts, starts, per_axis):
    """center_grid of every ground, as one C-ordered (grounds, per_axis ** d,
    d) array: the grounds are consecutive row blocks of the (n, d) array
    pts, block r starting at row starts[r]. Row i of a grid reads its axis
    values in the digits of i, base per_axis, the first axis the slowest
    (np.meshgrid's "ij" order)."""
    d = pts.shape[1]
    lo = np.minimum.reduceat(pts, starts)
    hi = np.maximum.reduceat(pts, starts)
    span = hi - lo
    pad = GRID_MARGIN * np.where(span > 0, span, 1.0)
    axes = np.linspace(lo - pad, hi + pad, per_axis)  # (per_axis, grounds, d)
    digits = np.indices((per_axis,) * d).reshape(d, -1).T
    grounds = np.arange(len(starts))[:, None, None]
    return np.ascontiguousarray(axes[digits, grounds, np.arange(d)])
