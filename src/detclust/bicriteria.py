"""Deterministic bicriteria solver for (k, z)-clustering.

Low dimension: farthest-point seeding, single-swap local search over a
lattice candidate family, then greedy center augmentation (more than k
centers are allowed; the payoff is near-optimal cost). High dimension:
solve inside seeded sign-matrix projections and lift the best solution back.

All tie-breaks are index-lexicographic and every run is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import (
    CenterSet,
    RowPool,
    _coerce_centers,
    _coerce_pointset,
    _power_from_sq,
    min_power_dists,
    power_cost,
    solve_1centers,
    sq_dist_matrix,
    ExtendedPointSet,
)
from .linmap import LinearMap

_EVAL_CHUNK = 1 << 22
_LIFT_POINTS = 128  # points per lift_by_clusters solve call
_SEED_BITS = 16  # projection seeds lie in [0, 2**_SEED_BITS)

DEFAULT_ALPHA = 50.0
MAX_CANDIDATES = 4096  # lattice candidates per candidate_centers call
DEFAULT_DIM_THRESHOLD = 20
DEFAULT_PROJECTION_SEEDS = 16
SWAP_ROUNDS = 100


@dataclass(frozen=True)
class CandidateCenters:
    """Finite candidate family: all input points plus lattice ball covers.

    provenance_point[i] is the index of the input point whose ball generated
    candidate i; provenance_level[i] is the radius level (LEVEL_INPUT for the
    mandatory copies of the input points). spacing_scale records the
    power-of-two thinning factor applied to fit the candidate budget.
    """

    points: np.ndarray
    provenance_point: np.ndarray
    provenance_level: np.ndarray
    spacing_scale: int = 1

    LEVEL_INPUT = np.iinfo(np.int64).min

    @property
    def size(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class BicriteriaResult:
    centers: CenterSet
    cost: float
    stopped_reason: str  # "no-improving-center" | "low-cost"
    alpha_used: float
    projection_seed: int = None
    baseline_size: int = 0  # |S0| the augmentation started from


def _splitmix64(x):
    """Finalizer of splitmix64; vectorized over uint64 arrays."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def seeded_projection_family(d, m, seed):
    """Member `seed` of a deterministic family of sign-matrix projections.

    Entries are +-1/sqrt(m), the sign being bit 63 of a counter-based
    splitmix64 stream keyed by the seed. Same (d, m, seed) always yields the
    same matrix, on any platform.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise InputError("m must be an integer >= 1")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise InputError("d must be an integer >= 1")
    if not (0 <= seed < (1 << _SEED_BITS)):
        raise InputError(f"seed must lie in [0, 2^{_SEED_BITS})")
    idx = np.arange(m * d, dtype=np.uint64)
    with np.errstate(over="ignore"):  # modular uint64 arithmetic is the point
        key = np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(
            0x243F6A8885A308D3
        )
        bits = _splitmix64(key ^ _splitmix64(idx + np.uint64(1)))
    signs = np.where((bits >> np.uint64(63)) & np.uint64(1), 1.0, -1.0)
    matrix = signs.reshape(m, d) / np.sqrt(float(m))
    return LinearMap(matrix)


# ---------------- candidate family ----------------


def ball_lattice(centers, radii, spacing):
    """Origin-anchored lattice of the given spacing, trimmed to each ball.

    One pass over the m balls B(centers[b], radii[b]) of one spacing.
    Returns (rows, owner): the kept lattice points and, per row, the index
    b of the ball that generated it. Rows come in ball order and, within a
    ball, in np.meshgrid(..., indexing="ij") order (last axis fastest), so
    owner is sorted. A lattice point inside two balls appears once per ball.

    Together with the ball's own center this is a (spacing * sqrt(d))-cover
    of each ball: any target in the ball has a kept lattice point within
    spacing * sqrt(d) (boundary targets may lose their nearest cell to
    trimming, but a cell nearer the center survives).
    """
    P = np.asarray(centers, dtype=np.float64)
    r = np.asarray(radii, dtype=np.float64)
    if P.ndim != 2 or r.shape != (P.shape[0],):
        raise InputError("need (m, d) centers and m radii")
    if (r < 0).any() or spacing <= 0:
        raise InputError("need radii >= 0 and spacing > 0")
    d = P.shape[1]
    los = np.ceil((P - r[:, None]) / spacing).astype(np.int64)
    his = np.floor((P + r[:, None]) / spacing).astype(np.int64)
    counts = np.maximum(his - los + 1, 0)  # an empty axis empties the box
    sizes = counts.prod(axis=1)
    owner = np.repeat(np.arange(P.shape[0]), sizes)
    # mixed-radix decode of each cell's rank inside its ball's box
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cells = np.empty((owner.size, d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        radix = counts[owner, j]
        cells[:, j] = los[owner, j] + rank % radix
        rank //= radix
    cand = cells * spacing
    keep = ((cand - P[owner]) ** 2).sum(axis=1) <= (r * r * (1.0 + 1e-12))[owner]
    return cand[keep], owner[keep]


def candidate_centers(
    P,
    params,
    anchor,
    *,
    alpha=DEFAULT_ALPHA,
    zero_last_coord=False,
):
    """Candidate centers around an anchor solution.

    For each input point p and radius level i in [log2(eps/(alpha z)),
    log2(n/alpha)] (rounded outward), take the axis-aligned lattice with
    spacing (eps/z) * r_i / sqrt(d) inside B(p, r_i), r_i = 2^(i/z) *
    Delta^(1/z), Delta the anchor's average cost. Every input point is always
    a candidate. If the lattice estimate exceeds MAX_CANDIDATES the spacing
    is doubled (deterministically) until it fits, at most 40 times; the
    fitting power of two is found by a galloping search on the exponent,
    and spacing_scale records it.

    Generation order: the n input points in index order, then one
    ball_lattice pass per radius level (lowest level first) over the balls
    of all input points, in point order. Duplicates are merged by
    coordinate quantization; a merged row keeps its first occurrence in
    that order, and its provenance is the point and level of that first
    occurrence.

    zero_last_coord restricts candidates to the slice {last coordinate = 0}
    (balls are intersected with the slice; input points are projected).
    """
    pts, w = _coerce_pointset(P)
    anchor_c = _coerce_centers(anchor)
    n, d = pts.shape
    z, eps = params.z, params.epsilon

    if zero_last_coord:
        base = pts[:, :-1]
        lift_ext = pts[:, -1]
        lat_dim = d - 1
        if lat_dim == 0:
            raise InputError("zero_last_coord needs dimension >= 2")
    else:
        base = pts
        lift_ext = np.zeros(n)
        lat_dim = d

    def _with_slice(x):
        if not zero_last_coord:
            return x
        return np.hstack([x, np.zeros((x.shape[0], 1))])

    total_w = float(w.sum())
    delta = power_cost((pts, w), anchor_c, z) / total_w if total_w > 0 else 0.0

    pool = RowPool(1e-9 * max(1.0, float(np.abs(pts).max())))
    prov_point = []
    prov_level = []

    def _push(arr, owner, level):
        before = len(pool.rows)
        idx, first = np.unique(pool.add(arr), return_index=True)
        new = first[idx >= before]  # pool indices grow in first-seen order
        prov_point.extend(owner[new].tolist())
        prov_level.extend([level] * new.size)

    _push(_with_slice(base), np.arange(n), CandidateCenters.LEVEL_INPUT)

    spacing_scale = 1
    if delta > 0:
        lo = int(np.floor(np.log2(eps / (alpha * z))))
        hi = int(np.ceil(np.log2(max(n, 1) / alpha)))
        levels = list(range(lo, hi + 1)) if hi >= lo else []
        radii = [2.0 ** (i / z) * delta ** (1.0 / z) for i in levels]
        # slice mode: a ball only reaches the slice where r >= ext
        eff_sq = [r * r - lift_ext**2 for r in radii]
        effs = [np.sqrt(np.maximum(0.0, e)) for e in eff_sq]

        def _estimate(scale):
            total = 0.0
            for r, eff in zip(radii, effs):
                s = (eps / z) * r / np.sqrt(lat_dim) * scale
                per_axis = (
                    np.floor(base / s + eff[:, None] / s)
                    - np.ceil(base / s - eff[:, None] / s)
                    + 1.0
                )
                cells = np.prod(np.maximum(per_axis, 0.0), axis=1)
                total += float(np.minimum(cells, 1e18).sum())
                if total > 1e17:
                    return total
            return total

        # first exponent e <= 40 with _estimate(2^e) <= MAX_CANDIDATES. The
        # estimate never grows with the scale (the 2s-lattice is a
        # sublattice of the s-lattice, and a power-of-two scale divides
        # every base / s and eff / s exactly in float), so galloping over
        # e = 0, 1, 3, 7, ... and then bisecting finds the same first fit
        # as doubling one step at a time. Every e < lo_e overflows; hi_e
        # fits or is the cap.
        lo_e, hi_e = 0, 0
        while hi_e < 40 and _estimate(1 << hi_e) > MAX_CANDIDATES:
            lo_e, hi_e = hi_e + 1, min(2 * hi_e + 1, 40)
        while lo_e < hi_e:
            mid = (lo_e + hi_e) // 2
            if _estimate(1 << mid) > MAX_CANDIDATES:
                lo_e = mid + 1
            else:
                hi_e = mid
        spacing_scale = 1 << hi_e

        for level, r, e_sq, eff in zip(levels, radii, eff_sq, effs):
            s = (eps / z) * r / np.sqrt(lat_dim) * spacing_scale
            live = np.flatnonzero(e_sq >= 0)  # balls that reach the slice
            cand, owner = ball_lattice(base[live], eff[live], s)
            _push(_with_slice(cand), live[owner], level)

    return CandidateCenters(
        points=np.array(pool.rows),
        provenance_point=np.array(prov_point, dtype=np.int64),
        provenance_level=np.array(prov_level, dtype=np.int64),
        spacing_scale=spacing_scale,
    )


# ---------------- evaluation helpers ----------------


def _power_table(cand_pts, pts, w, z):
    """(C, n) table of w_p * ||c - p||^z."""
    return _power_from_sq(sq_dist_matrix(cand_pts, pts), z) * w[None, :]


def _scores_all(PC, cur):
    """sum_p min(cur_p, PC[c, p]) for every candidate row c, chunked."""
    C, n = PC.shape
    out = np.empty(C)
    rows = max(1, int(_EVAL_CHUNK // max(1, n)))
    for i in range(0, C, rows):
        out[i : i + rows] = np.minimum(PC[i : i + rows], cur[None, :]).sum(axis=1)
    return out


# ---------------- constant factor ----------------


def _gonzalez_seeds(pts, k, slice_mode=False):
    """Farthest-point traversal from index 0, ties to the lowest index.

    In slice mode the chosen points are projected to the zero slice before
    being used as centers (distances are still measured to the raw points).
    """
    n = pts.shape[0]
    seeds = [0]
    raw = pts
    d2 = ((raw - raw[0]) ** 2).sum(axis=1)
    while len(seeds) < min(k, n):
        nxt = int(np.argmax(d2))  # first occurrence = lowest index
        seeds.append(nxt)
        d2 = np.minimum(d2, ((raw - raw[nxt]) ** 2).sum(axis=1))
    chosen = pts[seeds].copy()
    if slice_mode:
        chosen[:, -1] = 0.0
    return chosen


def constant_factor_approx(
    P,
    params,
    *,
    alpha=DEFAULT_ALPHA,
    zero_last_coord=False,
):
    """Deterministic k centers at constant-factor cost.

    Gonzalez farthest-point seeding followed by at most SWAP_ROUNDS rounds
    of single-swap local search over the candidate family built around the
    seeds, accepting swaps while they improve the cost by a factor
    (1 - 1/(100 k)). Returns the k centers; fewer than k input points means
    every point becomes a center.
    """
    pts, w = _coerce_pointset(P)
    k, z = params.k, params.z
    n = pts.shape[0]
    if n < k:
        out = pts.copy()
        if zero_last_coord:
            out[:, -1] = 0.0
        return CenterSet(out)

    centers = _gonzalez_seeds(pts, k, slice_mode=zero_last_coord)
    cand = candidate_centers(
        P,
        params,
        centers,
        alpha=alpha,
        zero_last_coord=zero_last_coord,
    ).points
    PC = _power_table(cand, pts, w, z)
    ctr_tbl = _power_table(centers, pts, w, z)  # (k, n)
    cost = float(ctr_tbl.min(axis=0).sum())

    for _ in range(SWAP_ROUNDS):
        if cost == 0.0:
            break
        best = (cost, -1, -1)  # (new_cost, swap position, candidate)
        for j in range(ctr_tbl.shape[0]):
            rest = np.delete(ctr_tbl, j, axis=0).min(axis=0) if ctr_tbl.shape[0] > 1 else np.full(n, np.inf)
            scores = _scores_all(PC, rest)
            cbest = int(np.argmin(scores))
            if scores[cbest] < best[0]:
                best = (float(scores[cbest]), j, cbest)
        new_cost, j, cidx = best
        if j < 0 or new_cost > (1.0 - 1.0 / (100.0 * k)) * cost:
            break
        centers[j] = cand[cidx]
        ctr_tbl[j] = PC[cidx]
        cost = new_cost

    return CenterSet(centers)


# ---------------- greedy augmentation ----------------


def greedy_augment(P, S0, candidates, params, *, alpha=DEFAULT_ALPHA, full_output=False):
    """Greedily add candidate centers while each helps enough.

    Repeatedly adds the candidate with the largest cost decrease as long as
    the new cost is at most (1 - eps/(alpha k)) times the current one; stops
    with "no-improving-center" otherwise, or with "low-cost" once the cost
    falls to (eps/alpha) * cost(S0). Candidate ties break to the lowest
    index. Gains are tracked incrementally and exactly.

    full_output also returns the cost history, cost(S0) first.
    """
    pts, w = _coerce_pointset(P)
    k, z, eps = params.k, params.z, params.epsilon
    S0c = _coerce_centers(S0)
    cand = candidates.points if isinstance(candidates, CandidateCenters) else np.asarray(candidates)

    cur = min_power_dists(pts, S0c, z)[0] * w
    cost0 = float(cur.sum())
    cost = cost0
    low_threshold = (eps / alpha) * cost0
    accept_factor = 1.0 - eps / (alpha * k)

    PC = _power_table(cand, pts, w, z)
    decrease = cost - _scores_all(PC, cur)
    np.maximum(decrease, 0.0, out=decrease)

    chosen = []
    history = [cost]
    reason = "no-improving-center"
    while True:
        if cost <= low_threshold:
            reason = "low-cost"
            break
        j = int(np.argmax(decrease))
        new_cost = cost - float(decrease[j])
        if decrease[j] <= 0.0 or new_cost > accept_factor * cost:
            reason = "no-improving-center"
            break
        chosen.append(j)
        newly = PC[j] < cur
        if newly.any():
            idx = np.flatnonzero(newly)
            old = cur[idx]
            new = PC[j, idx]
            # decrease_c -= sum_{p in idx} [max(0,old-PC) - max(0,new-PC)]
            delta_tbl = np.maximum(PC[:, idx] - new[None, :], 0.0) - np.maximum(
                PC[:, idx] - old[None, :], 0.0
            )
            decrease += delta_tbl.sum(axis=1) - (old - new).sum()
            np.maximum(decrease, 0.0, out=decrease)
            cur[idx] = new
        decrease[j] = 0.0
        cost = new_cost
        history.append(cost)

    centers = np.vstack([S0c, cand[chosen]]) if chosen else S0c.copy()
    res = BicriteriaResult(
        centers=CenterSet(centers),
        cost=cost,
        stopped_reason=reason,
        alpha_used=alpha,
        baseline_size=S0c.shape[0],
    )
    return (res, history) if full_output else res


# ---------------- full bicriteria ----------------


def _measure_alpha(cost_S0, alpha_cap, oracle_opt):
    if oracle_opt is None or oracle_opt <= 0:
        return alpha_cap
    return float(min(alpha_cap, max(1.0, cost_S0 / oracle_opt)))


def _bicriteria_lowdim(P, params, alpha_cap, oracle_opt, zero_last_coord):
    pts, w = _coerce_pointset(P)
    S0 = constant_factor_approx(
        P, params, alpha=alpha_cap, zero_last_coord=zero_last_coord
    )
    cost_S0 = power_cost((pts, w), S0, params.z)
    alpha = _measure_alpha(cost_S0, alpha_cap, oracle_opt)
    # not the family constant_factor_approx already built: that one is
    # anchored at the Gonzalez seeds, this one at the swapped S0 (and at the
    # measured alpha when oracle_opt is given). The families differ (422 vs
    # 454, 283 vs 387 and 349 vs 449 candidates on the coreset-2d benchmark
    # instances), so reusing the first would change the greedy output.
    cands = candidate_centers(
        P, params, S0, alpha=alpha, zero_last_coord=zero_last_coord
    )
    res = greedy_augment(P, S0, cands, params, alpha=alpha)
    return res


def lift_by_clusters(P, labels, z, *, slice_mode=False):
    """Per-cluster optimal centers in the original space, in label order.

    slice_mode treats the last coordinate as an extension and solves the
    constrained 1-center on the base coordinates (center extension 0).
    One solve_1centers call covers each run of whole clusters, in label
    order, holding at most _LIFT_POINTS points (a larger cluster is a run
    of its own), on those points alone: a call's (clusters, points) tables
    stay small however many clusters there are. A run keeps the points in
    input order, so up to _LIFT_POINTS points the call is the whole set.
    """
    pts, w = _coerce_pointset(P)
    ext = None
    if slice_mode:
        E = ExtendedPointSet(pts[:, :-1], extensions=pts[:, -1], weights=w)
        pts, ext = E.points, E.extensions
    order = np.argsort(labels, kind="stable")
    ids, starts = np.unique(labels[order], return_index=True)
    ends = np.append(starts[1:], labels.size)
    out = []
    lo = 0
    while lo < ids.size:
        hi = lo + 1
        while hi < ids.size and ends[hi] - starts[lo] <= _LIFT_POINTS:
            hi += 1
        cols = np.sort(order[starts[lo] : ends[hi - 1]])
        members = labels[cols][None, :] == ids[lo:hi, None]
        sub_ext = None if ext is None else ext[cols]
        out.append(solve_1centers(pts[cols], sub_ext, w[cols], members, z)[0])
        lo = hi
    c = np.vstack(out)
    return np.hstack([c, np.zeros((c.shape[0], 1))]) if slice_mode else c


def bicriteria(
    P,
    params,
    *,
    alpha=DEFAULT_ALPHA,
    oracle_opt=None,
    zero_last_coord=False,
):
    """Bicriteria solution: more than k centers, near-optimal cost.

    Dimension at most DEFAULT_DIM_THRESHOLD: constant-factor seeds, lattice
    candidates, greedy augmentation. Above it: scan the first
    DEFAULT_PROJECTION_SEEDS sign-matrix projection seeds into
    DEFAULT_DIM_THRESHOLD dimensions (one fewer base dimension in slice
    mode), solve in each projected space, lift every solution back via
    per-cluster 1-centers, and keep the (cost, seed)-lexicographic best.
    zero_last_coord needs the last coordinate to be a valid extension (>= 0).
    """
    pts, w = _coerce_pointset(P)
    if zero_last_coord and (pts[:, -1] < 0).any():
        raise InputError("extensions must be finite and >= 0")
    d = pts.shape[1]
    if d <= DEFAULT_DIM_THRESHOLD:
        return _bicriteria_lowdim(P, params, alpha, oracle_opt, zero_last_coord)

    base_dim = d - 1 if zero_last_coord else d
    m = min(base_dim, DEFAULT_DIM_THRESHOLD - (1 if zero_last_coord else 0))
    best = None
    for seed in range(DEFAULT_PROJECTION_SEEDS):
        lin = seeded_projection_family(base_dim, m, seed)
        if zero_last_coord:
            proj = np.hstack([lin.apply(pts[:, :-1]), pts[:, -1:]])
        else:
            proj = lin.apply(pts)
        res = _bicriteria_lowdim((proj, w), params, alpha, oracle_opt, zero_last_coord)
        _, labels = min_power_dists(proj, res.centers.centers, params.z)
        lifted = lift_by_clusters((pts, w), labels, params.z, slice_mode=zero_last_coord)
        cost = power_cost((pts, w), lifted, params.z)
        if best is None or cost < best[0]:
            best = (cost, seed, lifted, res)
    cost, seed, lifted, res = best
    return BicriteriaResult(
        centers=CenterSet(lifted),
        cost=cost,
        stopped_reason=res.stopped_reason,
        alpha_used=res.alpha_used,
        projection_seed=seed,
        baseline_size=res.baseline_size,
    )
