"""Deterministic bicriteria solver for (k, z)-clustering.

One path of stages, run on a batch of point sets of one n and dimension:
farthest-point seeding, single-swap local search over a lattice candidate
family, then greedy center augmentation over a second family (more than k
centers are allowed; the payoff is near-optimal cost). Low dimension runs
it on the input alone; high dimension on seeded sign-matrix projections of
the input, and lifts the best solution back.

All tie-breaks are index-lexicographic and every run is bit-reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import (
    _CHUNK,
    CenterSet,
    _coerce_centers,
    _coerce_pointset,
    _own_center_costs,
    _power_costs,
    _power_from_sq,
    _refuse_overflow,
    _split_extended,
    min_power_dists,
    power_cost,
    solve_1centers,
    sq_dist_matrix,
    ExtendedPointSet,
    WeightedPointSet,
    first_seen_rows,
)
from .linmap import LinearMap

_ESTIMATE_ELEMENTS = 1 << 15  # spacing-estimate entries per group of sets
_LIFT_POINTS = 128  # points per lift_by_clusters solve call
_SEED_BITS = 16  # projection seeds lie in [0, 2**_SEED_BITS)

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
    spacing_scale: int

    LEVEL_INPUT = np.iinfo(np.int64).min

    @property
    def size(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class BicriteriaResult:
    centers: CenterSet
    cost: float
    stopped_reason: str  # "no-improving-center" | "low-cost"
    baseline_size: int  # |S0| the augmentation started from
    projection_seed: int  # the winning seed above DEFAULT_DIM_THRESHOLD, else None


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


@functools.lru_cache(maxsize=2 * DEFAULT_PROJECTION_SEEDS)
def _scan_projection(d, m, seed):
    """seeded_projection_family(d, m, seed) with a read-only matrix,
    memoized: every d > DEFAULT_DIM_THRESHOLD bicriteria call projects by
    the same seeds, so the plain and the slice-mode scan of one d fit the
    cache, each matrix at most DEFAULT_DIM_THRESHOLD rows."""
    lin = seeded_projection_family(d, m, seed)
    lin.matrix.flags.writeable = False
    return lin


# ---------------- candidate family ----------------


def ball_lattice(centers, radii, spacing):
    """Origin-anchored lattice of each ball's spacing, trimmed to the ball.

    One pass over the m balls B(centers[b], radii[b]); spacing is one
    value for every ball or one per ball. Returns (rows, owner): the kept
    lattice points and, per row, the index b of the ball that generated
    it. Rows come in ball order and, within a ball, in
    np.meshgrid(..., indexing="ij") order (last axis fastest), so owner is
    sorted. A lattice point inside two balls appears once per ball.

    Together with the ball's own center this is a (spacing * sqrt(d))-cover
    of each ball: any target in the ball has a kept lattice point within
    spacing * sqrt(d) (boundary targets may lose their nearest cell to
    trimming, but a cell nearer the center survives).
    """
    P = np.asarray(centers, dtype=np.float64)
    r = np.asarray(radii, dtype=np.float64)
    if P.ndim != 2 or r.shape != (P.shape[0],):
        raise InputError("need (m, d) centers and m radii")
    s = np.broadcast_to(np.asarray(spacing, dtype=np.float64), r.shape)
    if (r < 0).any() or (s <= 0).any():
        raise InputError("need radii >= 0 and spacing > 0")
    los = np.ceil((P - r[:, None]) / s[:, None]).astype(np.int64)
    his = np.floor((P + r[:, None]) / s[:, None]).astype(np.int64)
    counts = np.maximum(his - los + 1, 0)  # an empty axis empties the box
    sizes = counts.prod(axis=1)
    owner = np.repeat(np.arange(P.shape[0]), sizes)
    if (sizes <= 1).all():  # each box is empty or its low corner alone
        cells = los[owner]
    else:
        # mixed-radix decode of each cell's rank inside its ball's box:
        # digit j is rank // stride_j % counts_j, stride_j the product of
        # the counts after axis j (the last axis runs fastest)
        rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        stride = np.ones_like(counts)
        stride[:, :-1] = np.cumprod(counts[:, :0:-1].T, axis=0)[::-1].T
        cells = rank[:, None] // np.repeat(stride, sizes, axis=0)
        cells %= np.repeat(counts, sizes, axis=0)
        cells += np.repeat(los, sizes, axis=0)
    cand = cells * s[owner, None]
    keep = ((cand - P[owner]) ** 2).sum(axis=1) <= (r * r * (1.0 + 1e-12))[owner]
    return cand[keep], owner[keep]


def _on_slice(x, ext):
    """Base-space rows x as center rows: with a trailing extension-0
    coordinate in slice mode (ext not None), x itself otherwise."""
    return x if ext is None else np.hstack([x, np.zeros((x.shape[0], 1))])


def candidate_centers(P, params, anchor):
    """Candidate centers around an anchor solution.

    For each input point p and radius level i in [log2(eps/(alpha z)),
    log2(n/alpha)] (rounded outward, alpha = params.alpha), take the
    axis-aligned lattice with spacing (eps/z) * r_i / sqrt(d) inside
    B(p, r_i), r_i = 2^(i/z) * Delta^(1/z), Delta the anchor's average
    cost. Every input point is always a candidate. If the lattice estimate
    exceeds MAX_CANDIDATES the spacing is doubled (deterministically) until
    it fits, at most 40 times; the fitting power of two is found by a
    search on the exponent that starts at a closed-form guess, and
    spacing_scale records it.

    Generation order: the n input points in index order, then the
    lattice rows of one ball_lattice pass over every (level, point) ball,
    level-major: lowest level first, and within a level the balls of all
    input points in point order. Duplicates are merged by coordinate
    quantization; a merged row keeps its first occurrence in that order,
    and its provenance is the point and level of that first occurrence.

    Slice mode, P an ExtendedPointSet, keeps the candidates at extension 0:
    the lattice lives in the base space, each ball is intersected with the
    slice, input points enter at extension 0, and every candidate row
    carries that 0 as its last coordinate.

    The one-set case of _candidate_families.
    """
    return _candidate_families([P], params, [anchor])[0]


def _candidate_families(sets, params, anchors):
    """candidate_centers(sets[i], params, anchors[i]) of every i, bit for bit.

    The sets share n and the dimension, as the projected copies of one
    point set do, and the anchors share their size. One
    geometry._own_center_costs call costs every anchor. One search finds
    every set's spacing exponent in lockstep: each round estimates the
    lattice of every set still searching, at that set's own next exponent,
    in (sets, levels, n, d) arrays of about _ESTIMATE_ELEMENTS elements per
    group of sets. Then ball_lattice and first_seen_rows run once per set.
    """
    z, eps, alpha = params.z, params.epsilon, params.alpha
    rows = [_coerce_pointset(P) for P in sets]
    split = [_split_extended(P) for P in sets]
    n, lat_dim = split[0][0].shape
    X, W = (np.array(a) for a in zip(*rows))
    costs = _own_center_costs(X, W, np.array([_coerce_centers(a) for a in anchors]), z)
    deltas = [c / t if t > 0 else 0.0 for c, t in zip(costs.tolist(), map(float, map(np.sum, W)))]
    live = [i for i, delta in enumerate(deltas) if delta > 0]
    scales = np.ones(len(sets), dtype=np.int64)
    if live:
        lo = int(np.floor(np.log2(eps / (alpha * z))))
        hi = int(np.ceil(np.log2(max(n, 1) / alpha)))
        levels = np.arange(lo, hi + 1, dtype=np.int64)
        radii = np.array(
            [[2.0 ** (i / z) * deltas[s] ** (1.0 / z) for i in levels.tolist()] for s in live]
        )
        unit = (eps / z) * radii / np.sqrt(lat_dim)  # per-level spacing at scale 1
        base = np.array([split[s][0] for s in live])  # (sets, n, d)
        ext_sq = np.array([np.zeros(n) if split[s][1] is None else split[s][1] ** 2 for s in live])
        # (set, level, point) balls; slice mode: a ball only reaches the
        # slice where r >= ext
        eff_sq = radii[:, :, None] * radii[:, :, None] - ext_sq[:, None, :]
        eff = np.sqrt(np.maximum(0.0, eff_sq))
        scales[live] = 1 << _spacing_exponents(base, unit, eff)
    out = []
    for s, ((pts, _), (base_s, ext_s, _)) in enumerate(zip(rows, split)):
        cand_rows = [base_s]
        prov_point = [np.arange(n)]
        prov_level = [np.full(n, CandidateCenters.LEVEL_INPUT)]
        if deltas[s] > 0:
            g = live.index(s)
            lvl, pt = np.nonzero(eff_sq[g] >= 0)  # balls that reach the slice
            cand, owner = ball_lattice(
                base_s[pt], eff[g][lvl, pt], unit[g][lvl] * int(scales[s])
            )
            cand_rows.append(cand)
            prov_point.append(pt[owner])
            prov_level.append(levels[lvl[owner]])
        cand_rows = _on_slice(np.vstack(cand_rows), ext_s)
        first, _ = first_seen_rows(cand_rows, 1e-9 * max(1.0, float(np.abs(pts).max())))
        out.append(
            CandidateCenters(
                points=cand_rows[first],
                provenance_point=np.concatenate(prov_point)[first],
                provenance_level=np.concatenate(prov_level)[first],
                spacing_scale=int(scales[s]),
            )
        )
    return out


def _spacing_exponents(base, unit, eff):
    """Per set, the first exponent e <= 40 whose lattice estimate at scale
    2^e fits MAX_CANDIDATES; base (sets, n, d), unit (sets, levels), eff
    (sets, levels, n).

    The estimate never grows with the scale (the 2s-lattice is a
    sublattice of the s-lattice, and a power-of-two scale divides every
    base / s and eff / s exactly in float), so every search order finds
    the same first fit as doubling one step at a time. Each set probes its
    _spacing_hints exponent, then the one below it if that fits or the
    one above it if not, then bisects what is left. One _estimate_over
    call a round probes every set still searching. Every e < lo
    overflows; hi fits or is the cap, which is never probed.
    """
    sets = unit.shape[0]
    lo, hi = [0] * sets, [40] * sets
    guess = _spacing_hints(unit, eff, base.shape[2]).tolist()
    first = True
    while True:
        act, probe = [], []
        for s in range(sets):
            if lo[s] < hi[s]:
                act.append(s)
                g = guess[s]
                probe.append((lo[s] + hi[s]) // 2 if g is None else g)
        if not act:
            return np.array(hi)
        pick = slice(None) if len(act) == sets else act  # no copies while all search
        scale = np.ldexp(1.0, probe)[:, None]
        over = _estimate_over(base[pick], unit[pick] * scale, eff[pick])
        for s, e, o in zip(act, probe, over.tolist()):
            if o:
                lo[s] = e + 1
            else:
                hi[s] = e
            guess[s] = e + (1 if o else -1) if first else None
        first = False


def _spacing_hints(unit, eff, d):
    """Per set, the exponent e at which the boxes of its balls, about
    (2 eff / (unit 2^e))^d cells each, sum to MAX_CANDIDATES: e =
    ceil((log2 sum (2 eff / unit)^d - log2 MAX_CANDIDATES) / d), taken in
    log2 space so no power overflows, clamped to [0, 39] (below the cap
    40), and 0 where it is not finite (every ball of radius 0, or no
    budget)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = d * np.log2(2.0 * eff / unit[:, :, None])
        top = logs.max(axis=(1, 2))
        total = top + np.log2(np.exp2(logs - top[:, None, None]).sum(axis=(1, 2)))
        e = np.ceil((total - np.log2(MAX_CANDIDATES)) / d)
    return np.where(np.isfinite(e), np.clip(e, 0, 39), 0).astype(np.int64)


def _estimate_over(base, spacing, eff):
    """Per set, whether the lattice cells in the boxes of its (level, point)
    balls, at most 1e18 a box, exceed MAX_CANDIDATES at the given
    per-level spacing; sets go in groups of about _ESTIMATE_ELEMENTS
    (set, level, point, axis) entries. The counts are whole numbers, so
    every summation order answers alike: a sum stays exact while it is
    below 2^53, far above any budget."""
    sets, n, d = base.shape
    per = max(1, _ESTIMATE_ELEMENTS // (spacing.shape[1] * n * d))
    over = np.empty(sets, dtype=bool)
    for i in range(0, sets, per):
        s = spacing[i : i + per, :, None, None]
        b, e = base[i : i + per, None] / s, eff[i : i + per, :, :, None] / s
        cells = np.prod(np.maximum(np.floor(b + e) - np.ceil(b - e) + 1.0, 0.0), axis=3)
        over[i : i + per] = np.minimum(cells, 1e18).sum(axis=(1, 2)) > MAX_CANDIDATES
    return over


# ---------------- evaluation helpers ----------------


def _power_table(cand_pts, pts, w, z):
    """(C, n) table of w_p * ||c - p||^z, weighted in place: at n=4000 one
    such table is over 100 MB."""
    PC = _power_from_sq(sq_dist_matrix(cand_pts, pts), z)
    PC *= w
    return PC


def _scores_all(PC, cur):
    """sum_p min(cur_p, PC[c, p]) for every candidate row c, chunked."""
    C, n = PC.shape
    out = np.empty(C)
    rows = max(1, int(_CHUNK // max(1, n)))
    for i in range(0, C, rows):
        out[i : i + rows] = np.minimum(PC[i : i + rows], cur[None, :]).sum(axis=1)
    return out


# ---------------- constant factor ----------------


def _gonzalez_seeds(pts, k):
    """Farthest-point traversal from index 0, ties to the lowest index;
    returns a copy of the chosen rows (of every row when there are fewer
    than k)."""
    if pts.shape[0] < k:
        return pts.copy()
    seeds = [0]
    d2 = ((pts - pts[0]) ** 2).sum(axis=1)
    while len(seeds) < k:
        nxt = int(np.argmax(d2))  # first occurrence = lowest index
        seeds.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[seeds].copy()


def constant_factor_approx(P, params):
    """Deterministic k centers at constant-factor cost.

    Gonzalez farthest-point seeding followed by at most SWAP_ROUNDS rounds
    of single-swap local search over the candidate family built around the
    seeds, accepting swaps while they improve the cost by a factor
    (1 - 1/(100 k)). Returns the k centers; fewer than k input points means
    every point becomes a center. In slice mode the seeds are farthest
    points by their extended rows and then move to extension 0. The
    one-set case of _constant_factors.
    """
    return _constant_factors([P], params)[0]


def _constant_factors(sets, params):
    """constant_factor_approx of every set (sets of one n and dimension),
    bit for bit: the Gonzalez seeds of each set, one _candidate_families
    call around them, then _swap_search per set."""
    seeds = [_gonzalez_seeds(_coerce_pointset(S)[0], params.k) for S in sets]
    for S, c in zip(sets, seeds):
        if isinstance(S, ExtendedPointSet):
            c[:, -1] = 0.0  # slice mode: the seeds move to extension 0
    if seeds[0].shape[0] < params.k:
        return [CenterSet(c) for c in seeds]
    families = _candidate_families(sets, params, seeds)
    return [_swap_search(S, params, c, f) for S, c, f in zip(sets, seeds, families)]


def _swap_search(P, params, centers, family):
    """constant_factor_approx's single-swap local search from centers over
    the candidate family; centers is updated in place."""
    pts, w = _coerce_pointset(P)
    k, z = params.k, params.z
    n = pts.shape[0]
    cand = family.points
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


def _augment(P, S0, family, params):
    """Greedily add centers of the candidate family while each helps enough.

    Repeatedly adds the candidate with the largest cost decrease as long as
    the new cost is at most (1 - eps/(alpha k)) times the current one; stops
    with "no-improving-center" otherwise, or with "low-cost" once the cost
    falls to (eps/alpha) * cost(S0), alpha = params.alpha. Candidate ties
    break to the lowest index. Those tests read a cost tracked
    incrementally, which drifts from the true cost by rounding: returns
    (centers, stopped reason, history of the tracked costs), and bicriteria
    costs the centers with power_cost.
    """
    pts, w = _coerce_pointset(P)
    k, z, eps, alpha = params.k, params.z, params.epsilon, params.alpha
    S0c = _coerce_centers(S0)
    cand = family.points

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
    return centers, reason, history


# ---------------- full bicriteria ----------------


def _bicriteria_lockstep(sets, params):
    """The bicriteria stages of every set (sets of one n and dimension),
    without the final cost: one (centers, stopped reason, baseline size)
    per set. _constant_factors gives every set its baseline S0, and one
    more _candidate_families call the augmentation's families, anchored at
    S0: the swap search's families (around the Gonzalez seeds) differ, so
    reusing them would change the greedy output."""
    S0 = _constant_factors(sets, params)
    families = _candidate_families(sets, params, S0)
    return [_augment(S, s0, f, params)[:2] + (s0.k,) for S, s0, f in zip(sets, S0, families)]


def lift_by_clusters(P, labels, z):
    """Per-cluster optimal centers in the original space, in label order.

    Slice mode, P an ExtendedPointSet, solves each cluster's 1-center at
    extension 0 on the base coordinates and returns base-space centers.
    One solve_1centers call covers each run of whole clusters, in label
    order, holding at most _LIFT_POINTS points (a larger cluster is a run
    of its own), on those points alone: a call's (clusters, points) tables
    stay small however many clusters there are. A run keeps the points in
    input order, so up to _LIFT_POINTS points the call is the whole set.
    The one-labeling case of _lift_all.
    """
    return _lift_all(P, [labels], z)[0]


def _lift_all(P, labelings, z):
    """lift_by_clusters(P, labels, z) of every labels in labelings, bit for
    bit: the runs of all labelings over the same points share one
    solve_1centers call (a row's center depends on that row alone), so up
    to _LIFT_POINTS points every labeling is lifted in one call."""
    base, ext, w = _split_extended(P)
    calls = {}  # run points (as bytes) -> (points, member rows)
    pieces = []  # per labeling: (call key, first row, rows) of each run
    for labels in labelings:
        order = np.argsort(labels, kind="stable")
        ids, starts = np.unique(labels[order], return_index=True)
        ends = np.append(starts[1:], labels.size)
        runs = []
        lo = 0
        while lo < ids.size:
            hi = lo + 1
            while hi < ids.size and ends[hi] - starts[lo] <= _LIFT_POINTS:
                hi += 1
            cols = np.sort(order[starts[lo] : ends[hi - 1]])
            cols_rows = calls.setdefault(cols.tobytes(), (cols, []))[1]
            runs.append((cols.tobytes(), sum(r.shape[0] for r in cols_rows), hi - lo))
            cols_rows.append(labels[cols][None, :] == ids[lo:hi, None])
            lo = hi
        pieces.append(runs)
    centers = {}
    for key, (cols, members) in calls.items():
        sub_ext = None if ext is None else ext[cols]
        centers[key] = solve_1centers(base[cols], sub_ext, w[cols], np.vstack(members), z)[0]
    return [np.vstack([centers[key][a : a + m] for key, a, m in runs]) for runs in pieces]


def bicriteria(P, params):
    """Bicriteria solution: more than k centers, near-optimal cost.

    Input whose costs may overflow float64 raises InputError first.
    Dimension at most DEFAULT_DIM_THRESHOLD: _bicriteria_lockstep of P
    alone. Above it: project onto the first DEFAULT_PROJECTION_SEEDS
    sign-matrix projection seeds into DEFAULT_DIM_THRESHOLD dimensions,
    run _bicriteria_lockstep on the projected sets, lift every solution
    back via per-cluster 1-centers, and keep the (cost, seed)-lexicographic
    best. Slice mode, P an ExtendedPointSet, counts the extension as a
    dimension, projects only the base coordinates (one fewer of them) and
    keeps every center at extension 0, a trailing 0 on its row.

    The scan runs seed 0 first. A lifted cost of exactly 0 is the least a
    seed can reach, so then seed 0 wins and no other seed is projected or
    solved. Otherwise the other seeds run in lockstep: one spacing search
    per candidate family covers them all, one solve_1centers call lifts
    the clusters of all of them (up to _LIFT_POINTS points), and one
    distance table gives each its lifted cost. Per seed stay the
    projection, the Gonzalez seeding, ball_lattice and the dedup of each
    family, the swap search, the greedy augmentation and the projected
    labels. A seed replaces the best one only at a strictly lower cost, so
    a NaN cost never wins over an earlier seed. The results are those of
    solving one seed at a time, bit for bit.
    """
    _refuse_overflow(P, params.z)
    pts, w = _coerce_pointset(P)
    if pts.shape[1] <= DEFAULT_DIM_THRESHOLD:
        ((centers, reason, baseline),) = _bicriteria_lockstep([P], params)
        cost = power_cost((pts, w), centers, params.z)
        return BicriteriaResult(CenterSet(centers), cost, reason, baseline, projection_seed=None)

    base, ext, _ = _split_extended(P)
    base_dim = base.shape[1]
    # projected rows, the extension column included, fit the threshold
    m = min(base_dim, DEFAULT_DIM_THRESHOLD - (pts.shape[1] - base_dim))

    def solve(seeds):  # (results, lifted centers, lifted costs) of the seeds
        projs = [_scan_projection(base_dim, m, seed).apply(base) for seed in seeds]
        subs = [
            WeightedPointSet(x, w) if ext is None else ExtendedPointSet(x, ext, w) for x in projs
        ]
        res = _bicriteria_lockstep(subs, params)
        labels = [
            min_power_dists(_coerce_pointset(S)[0], r[0], params.z)[1] for S, r in zip(subs, res)
        ]
        lifted = _lift_all(P, labels, params.z)
        return res, lifted, _power_costs(P, lifted, params.z).tolist()

    results, lifted, costs = solve([0])
    if costs[0] != 0.0:  # a cost of 0 is the least: nothing beats seed 0
        more = solve(range(1, DEFAULT_PROJECTION_SEEDS))
        results, lifted, costs = results + more[0], lifted + more[1], costs + more[2]
    seed = 0
    for s, cost in enumerate(costs):
        if cost < costs[seed]:
            seed = s
    _, reason, baseline = results[seed]
    return BicriteriaResult(
        centers=CenterSet(_on_slice(lifted[seed], ext)),
        cost=costs[seed],
        stopped_reason=reason,
        projection_seed=seed,
        baseline_size=baseline,
    )
