"""Core geometric types and primitives for (k, z)-clustering.

Costs are powers of Euclidean distances: serving point p from center s costs
w(p) * ||p - s||^z. Everything here is deterministic. power_cost and
partition_cost sum in a canonical point order with fixed-shape pairwise
summation (see summation.py), so permuting the rows of an input leaves
those two costs bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .summation import canonical_order, tree_sum

_CHUNK = 1 << 22  # max temp elements for distance matrices


def _as_points(arr, name="points"):
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputError(f"{name} must be a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise InputError(f"{name} contains NaN or Inf")
    return pts


@dataclass(frozen=True)
class WeightedPointSet:
    """Multiset of points in R^d with nonnegative real weights."""

    points: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        pts = _as_points(self.points)
        w = self.weights
        if w is None:
            w = np.ones(pts.shape[0])
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise InputError("weights shape must match number of points")
        if not np.isfinite(w).all() or (w < 0).any():
            raise InputError("weights must be finite and >= 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def total_weight(self):
        return tree_sum(self.weights)


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
        w = self.weights
        if w is None:
            w = np.ones(pts.shape[0])
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (pts.shape[0],) or not np.isfinite(w).all() or (w < 0).any():
            raise InputError("weights must be finite, >= 0, one per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "extensions", ext)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def as_rows(self):
        """(n, d+1) array with the extension as the last coordinate."""
        return np.hstack([self.points, self.extensions[:, None]])


@dataclass(frozen=True)
class CenterSet:
    """A finite set of centers, optionally with a declared size budget."""

    centers: np.ndarray
    budget: int = None

    def __post_init__(self):
        c = _as_points(self.centers, "centers")
        object.__setattr__(self, "centers", c)
        if self.budget is not None and c.shape[0] > self.budget:
            raise InputError(
                f"center set has {c.shape[0]} centers, declared budget {self.budget}"
            )

    @property
    def k(self):
        return self.centers.shape[0]

    @property
    def dim(self):
        return self.centers.shape[1]


@dataclass(frozen=True)
class Partition:
    """Assignment of n items to parts 0..k-1 (parts may be empty)."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise InputError("assignment must be a nonempty 1-d integer array")
        if (a < 0).any() or (a >= self.k).any():
            raise InputError("assignment labels must lie in [0, k)")
        object.__setattr__(self, "assignment", a)

    @property
    def n(self):
        return self.assignment.size

    def parts(self):
        """Index arrays of the nonempty parts, in part order."""
        for j in range(self.k):
            idx = np.flatnonzero(self.assignment == j)
            if idx.size:
                yield j, idx


@dataclass(frozen=True)
class ClusteringParams:
    """Problem parameters: k centers, power z >= 1, accuracy 0 < eps <= 1/3."""

    k: int
    z: int
    epsilon: float

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise InputError("k must be an integer >= 1")
        if not (isinstance(self.z, (int, np.integer)) and self.z >= 1):
            raise InputError("z must be an integer >= 1")
        if not (0 < self.epsilon <= 1 / 3):
            raise InputError("epsilon must satisfy 0 < eps <= 1/3")


def _coerce_pointset(P):
    """Accept WeightedPointSet, ExtendedPointSet-as-rows, or raw arrays."""
    if isinstance(P, WeightedPointSet):
        return P.points, P.weights
    if isinstance(P, ExtendedPointSet):
        return P.as_rows(), P.weights
    if isinstance(P, tuple) and len(P) == 2:
        pts = _as_points(P[0])
        w = np.asarray(P[1], dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise InputError("weights shape must match number of points")
        return pts, w
    pts = _as_points(P)
    return pts, np.ones(pts.shape[0])


def _coerce_centers(S):
    if isinstance(S, CenterSet):
        return S.centers
    return _as_points(S, "centers")


def sq_dist_matrix(X, C):
    """(n, m) squared Euclidean distances, chunked, ufunc-only (no BLAS).

    The package's only rows-by-centers distance table: one einsum fixes how
    every table entry is rounded. Distances from many rows to a single
    center stay ((X - c) ** 2).sum(axis=1), which rounds differently in the
    last bit at d >= 3, so the two forms are not interchangeable.
    """
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    n, d = X.shape
    m = C.shape[0]
    rows = max(1, int(_CHUNK // max(1, m * d)))
    if rows >= n:
        diff = X[:, None, :] - C[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff, optimize=False)
    out = np.empty((n, m))
    for i in range(0, n, rows):
        diff = X[i : i + rows, None, :] - C[None, :, :]
        out[i : i + rows] = np.einsum("ijk,ijk->ij", diff, diff, optimize=False)
    return out


class RowPool:
    """Rows deduplicated up to coordinate quantization, first seen kept.

    Two rows are one when they round to the same multiple of `quantum` in
    every coordinate. rows lists the kept rows in first-seen order.
    """

    def __init__(self, quantum):
        self.quantum = quantum
        self.rows = []
        self._index = {}

    def add(self, rows):
        """Pool index of each row of the (r, d) array `rows`."""
        keys = np.round(rows / self.quantum).astype(np.int64).tolist()
        out = []
        for row, key in zip(rows, map(tuple, keys)):
            i = self._index.setdefault(key, len(self.rows))
            if i == len(self.rows):
                self.rows.append(row)
            out.append(i)
        return out


def min_power_dists(X, C, z):
    """min_s ||x - s||^z per row of X, plus the argmin index (lowest wins).

    The package's only nearest-center labeler."""
    sq = sq_dist_matrix(X, C)
    idx = np.argmin(sq, axis=1)  # first minimum = lowest center index
    best = sq[np.arange(sq.shape[0]), idx]
    return _power_from_sq(best, z), idx


def _power_from_sq(sq, z):
    if z == 2:
        return sq.copy() if isinstance(sq, np.ndarray) else sq
    if z == 1:
        return np.sqrt(sq)
    return np.sqrt(sq) ** z


def power_cost(P, S, z):
    """Clustering cost: sum over points of w(p) * min_{s in S} ||p - s||^z.

    The per-point costs are summed in canonical (lexicographically sorted)
    point order with a fixed-shape pairwise tree, so the result is
    permutation-invariant at the bit level.
    """
    pts, w = _coerce_pointset(P)
    centers = _coerce_centers(S)
    if centers.shape[1] != pts.shape[1]:
        raise InputError("points and centers disagree on dimension")
    if not (isinstance(z, (int, np.integer)) and z >= 1):
        raise InputError("z must be an integer >= 1")
    costs, _ = min_power_dists(pts, centers, z)
    order = canonical_order(pts, w)
    return tree_sum((w * costs)[order])


def _diameter(pts):
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    return float(np.sqrt(((hi - lo) ** 2).sum()))


def _center_objective(base, ext_sq, w, c, z):
    sq = ((base - c) ** 2).sum(axis=1) + ext_sq
    return tree_sum(w * _power_from_sq(sq, z))


def _solve_center(base, ext, w, z, tol, max_iter):
    """Shared solver for min_c sum_i w_i (||b_i - c||^2 + e_i^2)^(z/2).

    Returns (center, info). The unconstrained 1-center is the special case
    e = 0. z = 2 is closed form; z = 1 uses damped Weiszfeld with the
    Vardi-Zhang fix at data points; z >= 3 uses gradient descent with
    backtracking. Stops when the step norm drops below tol * diameter.
    """
    n, d = base.shape
    ext_sq = ext**2
    wsum = tree_sum(w)
    info = {"converged": True, "iterations": 0, "residual": 0.0}

    if wsum == 0.0:
        return base.mean(axis=0), info
    if z == 2:
        c = np.einsum("i,ij->j", w, base, optimize=False) / wsum
        return c, info

    diam = _diameter(base)
    scale = max(diam, float(np.sqrt(ext_sq.max())) if n else 0.0)
    if scale == 0.0:
        return base[0].copy(), info

    c = np.einsum("i,ij->j", w, base, optimize=False) / wsum
    eps_sing = 1e-12 * scale
    step = np.inf

    def _grad_certified(c, delta_c):
        # gradient norm times hull diameter bounds the gap to the optimum
        coef = w / np.maximum(delta_c, eps_sing)
        g = np.einsum("i,ij->j", coef, c - base, optimize=False)
        return float(np.sqrt((g**2).sum())) * diam <= 1e-12 * scale * wsum

    def _point_scan(delta_c):
        # exact cost of centering on each zero-extension data point
        zero_ext = ext_sq <= (eps_sing**2)
        if not zero_ext.any():
            return -1, math.inf
        cand = np.flatnonzero(zero_ext)
        if cand.size > 2048:
            order = np.argsort(delta_c[cand], kind="stable")
            cand = cand[order[:64]]
        best_f = math.inf
        best_i = -1
        for lo in range(0, cand.size, 256):
            sq = sq_dist_matrix(base[cand[lo : lo + 256]], base)
            dq = np.sqrt(sq + ext_sq[None, :])
            fq = np.einsum("qi,i->q", dq, w, optimize=False)
            i = int(np.argmin(fq))
            if float(fq[i]) < best_f:
                best_f = float(fq[i])
                best_i = int(cand[lo + i])
        return best_i, best_f

    def _point_optimal(qi):
        # subgradient condition: the point is a global 1-median optimum
        q = base[qi]
        dq = np.sqrt(((base - q) ** 2).sum(axis=1) + ext_sq)
        at = dq < eps_sing
        far = ~at
        if not far.any():
            return True
        g = np.einsum("i,ij->j", w[far] / dq[far], q - base[far], optimize=False)
        return float(np.sqrt((g**2).sum())) <= tree_sum(w[at])

    def _newton_polish_2d(c):
        # Weiszfeld stalls in nearly flat valleys (close-to-balanced
        # medians); damped Newton on the smoothed objective cuts through
        # them. Planar only: the 2x2 solve stays closed form.
        s2 = eps_sing**2
        fc = None
        for _ in range(50):
            dvec = c - base
            r2 = (dvec**2).sum(axis=1) + ext_sq + s2
            r = np.sqrt(r2)
            cw = w / r
            g = np.einsum("i,ij->j", cw, dvec, optimize=False)
            gn = float(np.sqrt((g**2).sum()))
            if gn * diam <= 1e-12 * scale * wsum:
                return c, True
            c3 = cw / r2
            tr = tree_sum(cw)
            hxx = tr - tree_sum(c3 * dvec[:, 0] ** 2)
            hyy = tr - tree_sum(c3 * dvec[:, 1] ** 2)
            hxy = -tree_sum(c3 * dvec[:, 0] * dvec[:, 1])
            det = hxx * hyy - hxy * hxy
            if det <= 0.0:
                return c, False
            dx = -(hyy * g[0] - hxy * g[1]) / det
            dy = -(hxx * g[1] - hxy * g[0]) / det
            gd = g[0] * dx + g[1] * dy
            if gd >= 0.0:
                return c, False
            if fc is None:
                fc = tree_sum(w * r)
            t = 1.0
            accepted = False
            for _ in range(40):
                c_try = c + t * np.array([dx, dy])
                d2 = ((base - c_try) ** 2).sum(axis=1) + ext_sq + s2
                f_try = tree_sum(w * np.sqrt(d2))
                if f_try <= fc + 0.25 * t * gd:
                    c, fc = c_try, f_try
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                return c, False
        return c, False

    def _finish_median(c):
        # Weiszfeld creeps when the optimum sits on a data point or in a
        # nearly flat valley (close-to-collinear weighted medians), so the
        # final iterate is only trusted when its gradient certifies a
        # negligible gap. Otherwise the zero-extension data points are
        # scored exactly and the cheapest candidate wins.
        delta_c = np.sqrt(((base - c) ** 2).sum(axis=1) + ext_sq)
        if _grad_certified(c, delta_c):
            return c
        best_i, best_f = _point_scan(delta_c)
        if best_i >= 0 and best_f <= tree_sum(w * delta_c):
            return base[best_i].copy()
        return c

    if z == 1:
        tried_newton = False
        for it in range(1, max_iter + 1):
            delta = np.sqrt(((base - c) ** 2).sum(axis=1) + ext_sq)
            at = delta < eps_sing
            if at.any():
                # c sits on a data point with zero extension: subgradient test
                w_at = tree_sum(w[at])
                far = ~at
                if not far.any():
                    info["iterations"] = it
                    return c, info
                g = np.einsum(
                    "i,ij->j", w[far] / delta[far], c - base[far], optimize=False
                )
                gnorm = float(np.sqrt((g**2).sum()))
                if gnorm <= w_at:
                    info["iterations"] = it
                    return c, info
                # Vardi-Zhang: shrink the Weiszfeld step toward the stuck point
                t = np.einsum(
                    "i,ij->j", w[far] / delta[far], base[far], optimize=False
                ) / tree_sum(w[far] / delta[far])
                lam = min(1.0, w_at / gnorm)
                c_new = (1.0 - lam) * t + lam * c
            else:
                c_new = np.einsum("i,ij->j", w / delta, base, optimize=False) / tree_sum(
                    w / delta
                )
            step = float(np.sqrt(((c_new - c) ** 2).sum()))
            c = c_new
            if step < tol * scale:
                info["iterations"] = it
                return _finish_median(c), info
            if it % 150 == 0:
                # periodic escape hatch for creeping runs: accept a
                # certified iterate or a provably optimal data point
                delta_c = np.sqrt(((base - c) ** 2).sum(axis=1) + ext_sq)
                if _grad_certified(c, delta_c):
                    info["iterations"] = it
                    return c, info
                qi, _ = _point_scan(delta_c)
                if qi >= 0 and _point_optimal(qi):
                    info["iterations"] = it
                    return base[qi].copy(), info
                if d == 2 and not tried_newton:
                    tried_newton = True
                    c, certified = _newton_polish_2d(c)
                    if certified:
                        info["iterations"] = it
                        return c, info
    else:
        f = _center_objective(base, ext_sq, w, c, z)
        for it in range(1, max_iter + 1):
            sq = ((base - c) ** 2).sum(axis=1) + ext_sq
            coef = w * z * _power_from_sq(sq, z - 2)
            grad = np.einsum("i,ij->j", coef, c - base, optimize=False)
            gnorm = float(np.sqrt((grad**2).sum()))
            if gnorm == 0.0:
                info["iterations"] = it
                return c, info
            # backtrack from a normalized first step, later from twice the
            # last accepted one: restarting at scale / gnorm every time only
            # ever accepts steps of scale * 2^-j, which cycle just above
            # tol * scale near the optimum
            t = scale / gnorm if it == 1 else 2.0 * t
            for _ in range(60):
                c_new = c - t * grad
                f_new = _center_objective(base, ext_sq, w, c_new, z)
                if f_new <= f - 0.3 * t * gnorm**2:
                    break
                t *= 0.5
            step = float(np.sqrt(((c_new - c) ** 2).sum()))
            c, f = c_new, f_new
            if step < tol * scale:
                info["iterations"] = it
                return c, info

    info["converged"] = False
    info["iterations"] = max_iter
    info["residual"] = step / scale
    if z == 1:
        return _finish_median(c), info
    return c, info


def solve_1center(P, z, tol=1e-9, max_iter=10_000, full_output=False):
    """Optimal single center of a weighted point set under the z-th power cost.

    Args:
        P: WeightedPointSet or array (weights default to 1).
        z: integer power >= 1.
        tol: relative step tolerance (times the data diameter).
        max_iter: iteration cap; hitting it flags non-convergence instead of
            raising, with the last relative step as residual.
        full_output: also return the solver info dict.
    """
    pts, w = _coerce_pointset(P)
    c, info = _solve_center(pts, np.zeros(pts.shape[0]), w, int(z), tol, max_iter)
    return (c, info) if full_output else c


def solve_1center_constrained(E, z, tol=1e-9, max_iter=10_000, full_output=False):
    """Optimal center at extension 0 for an extended point set.

    Minimizes sum_i w_i (||b_i - c||^2 + e_i^2)^(z/2) over c in R^d: the
    1-center constrained to the zero-extension slice.
    """
    if not isinstance(E, ExtendedPointSet):
        raise InputError("solve_1center_constrained expects an ExtendedPointSet")
    c, info = _solve_center(E.points, E.extensions, E.weights, int(z), tol, max_iter)
    return (c, info) if full_output else c


def partition_cost(P, partition, z, tol=1e-9, max_iter=10_000, full_output=False):
    """Cost of a partition: each part pays its optimal 1-center cost.

    Accepts WeightedPointSet or ExtendedPointSet; extended parts use the
    extension-0 constrained center. Solver non-convergence is propagated as
    a flag in the info dict (full_output=True), never as an exception.
    """
    extended = isinstance(P, ExtendedPointSet)
    if extended:
        pts, w = P.points, P.weights
        ext = P.extensions
    else:
        pts, w = _coerce_pointset(P)
        ext = np.zeros(pts.shape[0])
    if isinstance(partition, Partition):
        part_iter = list(partition.parts())
    else:
        a = np.asarray(partition, dtype=np.int64)
        if a.shape != (pts.shape[0],):
            raise InputError("assignment length must match number of points")
        part_iter = [
            (j, np.flatnonzero(a == j)) for j in np.unique(a) if (a == j).any()
        ]
    per_part = []
    infos = []
    for _, idx in part_iter:
        c, info = _solve_center(pts[idx], ext[idx], w[idx], int(z), tol, max_iter)
        sq = ((pts[idx] - c) ** 2).sum(axis=1) + ext[idx] ** 2
        costs = w[idx] * _power_from_sq(sq, z)
        order = canonical_order(pts[idx], w[idx])
        per_part.append(tree_sum(costs[order]))
        infos.append(info)
    total = tree_sum(per_part)
    if not full_output:
        return total
    return total, {
        "converged": all(i["converged"] for i in infos),
        "part_costs": per_part,
        "residuals": [i["residual"] for i in infos],
    }


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


def center_grid(P, per_axis=4, margin=0.25, include_points=False):
    """Deterministic axis-aligned lattice over the data bounding box.

    A small finite stand-in for "all center sets" in verification oracles:
    per_axis values per coordinate, box inflated by margin * extent.
    """
    pts, _ = _coerce_pointset(P)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    pad = margin * np.where(span > 0, span, 1.0)
    axes = [np.linspace(lo[j] - pad[j], hi[j] + pad[j], per_axis) for j in range(pts.shape[1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    if include_points:
        grid = np.vstack([grid, pts])
    return grid
