"""Independent oracles used to freeze expected values.

Deliberately naive: pure-python double loops, brute grid searches, and
re-enumerations that share no code with the library paths they check.
The sequential references at the end (sequential_polish,
sequential_newton_centers, sequential_bicriteria,
sequential_projection_scan, flush_build_net,
galloping_spacing_exponents) are the exception: they pin bits, so they
run the library's own kernels one init, one step size, one set, one
projection seed, one subset or one search order at a time. So are
carried_tree_sum and argmin_power_cost, the one-sum bodies that
tree_sum and power_cost had before they became the one-row and one-set
cases of their batched forms, meshgrid_center_grid, the per-axis
center_grid that the batched box grid replaced, every_level_halving,
the halving loop that tried each level below the floor before checking
whether any could be accepted, and pair_directions with
materialized_conditional_signs, the conditional-expectation sign choice
over a stored (pairs, d) table of unit pair directions that the streamed
one replaced, and dict_ring_decompose with dict_collapsed_instance, the
ring stage's (cluster, ring) bucket dicts and the collapsed instance
built from them, which the per-point ring arrays replaced.
"""

import itertools
import math

import numpy as np

from detclust import geometry
from detclust.geometry import min_power_dists, power_cost, solve_1centers
from detclust.rings import RING_ZERO, ring_thresholds
from detclust.summation import tree_sum


def naive_power_cost(points, centers, z, weights=None):
    """Double-loop clustering cost, no numpy reductions."""
    pts = [list(map(float, p)) for p in points]
    cts = [list(map(float, c)) for c in centers]
    if weights is None:
        weights = [1.0] * len(pts)
    total = 0.0
    for w, p in zip(weights, pts):
        best = math.inf
        for c in cts:
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, c)))
            best = min(best, d)
        total += w * best**z
    return total


def naive_extended_cost(base, exts, centers, z, weights=None):
    """Cost of extended points against extension-0 centers, double loop."""
    if weights is None:
        weights = [1.0] * len(base)
    total = 0.0
    for w, p, e in zip(weights, base, exts):
        best = math.inf
        for c in centers:
            d2 = sum((a - b) ** 2 for a, b in zip(p, c)) + float(e) ** 2
            best = min(best, d2)
        total += w * best ** (z / 2.0)
    return total


def grid_search_1center(points, z, weights=None, resolution=1e-4, stages=None):
    """Coarse-to-fine grid search for the 1-center objective.

    The objective c -> sum w ||p - c||^z is convex for z >= 1, so zooming
    on the best cell of a 21-per-axis grid cannot lose the optimum as long
    as each stage's window keeps a neighborhood of the previous best cell.
    Refines until the grid step is below `resolution`.
    """
    pts = [list(map(float, p)) for p in points]
    if weights is None:
        weights = [1.0] * len(pts)
    d = len(pts[0])

    def obj(c):
        return sum(
            w * math.sqrt(sum((a - b) ** 2 for a, b in zip(p, c))) ** z
            for w, p in zip(weights, pts)
        )

    lo = [min(p[j] for p in pts) for j in range(d)]
    hi = [max(p[j] for p in pts) for j in range(d)]
    span = max(max(h - l for h, l in zip(hi, lo)), resolution)
    center = [(h + l) / 2 for h, l in zip(hi, lo)]
    half = span / 2
    per_axis = 21
    best_c, best_f = list(center), obj(center)
    while True:
        axes = [
            [center[j] - half + 2 * half * i / (per_axis - 1) for i in range(per_axis)]
            for j in range(d)
        ]
        for c in itertools.product(*axes):
            f = obj(c)
            if f < best_f:
                best_f, best_c = f, list(c)
        step = 2 * half / (per_axis - 1)
        if step <= resolution:
            return best_c, best_f
        center = best_c
        half = 2 * step  # keep a neighborhood of the best cell

def all_assignments(n, k):
    """Every map {0..n-1} -> {0..k-1} (ordered parts, may be empty)."""
    return itertools.product(range(k), repeat=n)


def set_partitions_up_to_k(n, k):
    """Every set partition of {0..n-1} into at most k parts, as canonical
    restricted-growth strings (independent re-enumeration, recursive)."""
    out = []

    def grow(prefix, mx):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(min(mx + 1, k - 1) + 1):
            grow(prefix + [v], max(mx, v))

    grow([0], 0)
    return out


def weiszfeld_1median(points, weights=None, iters=2000):
    """Textbook Weiszfeld fixed point for the weighted 1-median."""
    pts = [list(map(float, p)) for p in points]
    if weights is None:
        weights = [1.0] * len(pts)
    d = len(pts[0])
    tw = sum(weights)
    c = [sum(w * p[j] for w, p in zip(weights, pts)) / tw for j in range(d)]
    for _ in range(iters):
        num = [0.0] * d
        den = 0.0
        for w, p in zip(weights, pts):
            dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, c)))
            if dist < 1e-15:
                continue
            num = [u + w * a / dist for u, a in zip(num, p)]
            den += w / dist
        if den == 0.0:
            break
        nxt = [u / den for u in num]
        if max(abs(a - b) for a, b in zip(nxt, c)) < 1e-14:
            c = nxt
            break
        c = nxt
    return c


def newton_1median(points, weights, c, iters=60):
    """Newton polish of a weighted 1-median start c on the exact objective.

    Weiszfeld creeps when the median sits near a data point; Newton steps
    (Gaussian elimination, halved until the cost drops strictly) finish the
    job. Stops on a data point, a singular Hessian or a step that no longer
    lowers the cost.
    """
    pts = [list(map(float, p)) for p in points]
    d = len(c)

    def obj(x):
        return sum(
            w * math.sqrt(sum((a - b) ** 2 for a, b in zip(p, x)))
            for w, p in zip(weights, pts)
        )

    c = list(map(float, c))
    f = obj(c)
    for _ in range(iters):
        g = [0.0] * d
        H = [[0.0] * d for _ in range(d)]
        for w, p in zip(weights, pts):
            diff = [a - b for a, b in zip(c, p)]
            r = math.sqrt(sum(x * x for x in diff))
            if r == 0.0:
                return c
            for j in range(d):
                g[j] += w * diff[j] / r
                for k in range(d):
                    H[j][k] += w * ((j == k) / r - diff[j] * diff[k] / r**3)
        # solve H step = -g by elimination with partial pivoting
        A = [row[:] + [-gj] for row, gj in zip(H, g)]
        big = max(abs(x) for row in H for x in row)
        for j in range(d):
            piv = max(range(j, d), key=lambda i: abs(A[i][j]))
            if abs(A[piv][j]) <= 1e-14 * big:
                return c
            A[j], A[piv] = A[piv], A[j]
            for i in range(j + 1, d):
                m = A[i][j] / A[j][j]
                A[i] = [a - m * b for a, b in zip(A[i], A[j])]
        step = [0.0] * d
        for j in range(d - 1, -1, -1):
            step[j] = (A[j][d] - sum(A[j][k] * step[k] for k in range(j + 1, d))) / A[j][j]
        t = 1.0
        while t > 1e-12:
            trial = [a + t * b for a, b in zip(c, step)]
            f_try = obj(trial)
            if f_try < f:
                break
            t /= 2
        else:
            return c
        c, f = trial, f_try
    return c


def part_cost(points, weights, z):
    """Optimal 1-center cost of one part, independent solvers per z."""
    if not points:
        return 0.0
    if weights is None:
        weights = [1.0] * len(points)
    if z == 2:
        tw = sum(weights)
        d = len(points[0])
        mean = [sum(w * p[j] for w, p in zip(weights, points)) / tw for j in range(d)]
        return sum(
            w * sum((a - b) ** 2 for a, b in zip(p, mean))
            for w, p in zip(weights, points)
        )
    if z == 1:
        c = newton_1median(points, weights, weiszfeld_1median(points, weights, iters=300))
        f = naive_power_cost(points, [c], 1, weights)
        # a data point can be the median; Weiszfeld may stall short of it
        best = min(naive_power_cost(points, [q], 1, weights) for q in points)
        return min(f, best)
    raise NotImplementedError("oracle covers z in {1, 2}")


def exact_kz_cost(points, k, z, weights=None):
    """Exact (k, z) optimum by enumerating set partitions into <= k parts."""
    pts = [list(map(float, p)) for p in points]
    if weights is None:
        weights = [1.0] * len(pts)
    best = math.inf
    for rgs in set_partitions_up_to_k(len(pts), k):
        groups = {}
        for i, g in enumerate(rgs):
            groups.setdefault(g, []).append(i)
        total = 0.0
        for idx in groups.values():
            total += part_cost([pts[i] for i in idx], [weights[i] for i in idx], z)
            if total >= best:
                break
        best = min(best, total)
    return best


def recount_witness_net(reps, D, R, eps, z, max_cover_steps=3):
    """Independent recount of witness net size: plain-python re-enumeration
    of origin + subset hull covers + pivoted Gram-Schmidt bases, with the
    same 1e-12 dedup quantization."""
    d = len(reps[0])
    eps_prime = eps / (4.0 * D * z)
    scale = max(1.0, max(abs(c) for p in reps for c in p))
    q = 1e-12 * scale
    seen = set()

    def push(row):
        seen.add(tuple(round(x / q) for x in row))

    def compositions(total, parts):
        slots = total + parts - 1
        for bars in itertools.combinations(range(slots), parts - 1):
            prev, out = -1, []
            for b in bars:
                out.append(b - prev - 1)
                prev = b
            out.append(slots - prev - 1)
            yield out

    push([0.0] * d)
    T = len(reps)
    for j in range(1, min(R, T) + 1):
        for combo in itertools.combinations(range(T), j):
            S = [list(map(float, reps[i])) for i in combo]
            diam = 0.0
            for a in range(j):
                for b in range(a + 1, j):
                    diam = max(diam, math.dist(S[a], S[b]))
            if j == 1 or diam == 0.0:
                push(S[0])
            else:
                G = min(
                    max(1, math.ceil((j - 1) * diam / (eps_prime * diam))),
                    max_cover_steps,
                )
                for comp in compositions(G, j):
                    push(
                        [
                            sum(c / G * S[i][t] for i, c in enumerate(comp))
                            for t in range(d)
                        ]
                    )
            work = [row[:] for row in S]
            smax = max(math.sqrt(sum(x * x for x in row)) for row in work)
            for _ in range(min(len(work), d)):
                norms = [math.sqrt(sum(x * x for x in row)) for row in work]
                i = norms.index(max(norms))
                if norms[i] <= 1e-12 * smax or norms[i] == 0.0:
                    break
                qv = [x / norms[i] for x in work[i]]
                push(qv)
                work = [
                    [x - sum(a * b for a, b in zip(row, qv)) * y for x, y in zip(row, qv)]
                    for row in work
                ]
    return len(seen)


def stirling_partial_sum(n, k):
    """sum_{j<=k} S(n, j) via the recurrence S(n,j) = j*S(n-1,j) + S(n-1,j-1)."""
    S = [[0] * (k + 1) for _ in range(n + 1)]
    S[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            S[i][j] = j * S[i - 1][j] + S[i - 1][j - 1]
    return sum(S[n][j] for j in range(1, k + 1))


def raw_epsilon_prime(z, eps):
    """The per-ring budget formula 20 * 8^z * eps^2 / ln(4z/eps) before
    rings.epsilon_prime clamps it to eps."""
    return 20.0 * 8.0**z * eps * eps / math.log(4.0 * z / eps)


def naive_far_membership(p, centers, radius):
    """Plain-python recomputation of far-range membership: true iff every
    listed center is at distance >= radius from p."""
    return all(math.dist(list(p), list(c)) >= radius for c in centers)


def recount_deviation(points, indices, ranges):
    """Max deviation between ground and subset counting fractions, double
    loop over (range, point). ranges: list of (centers, radius) pairs."""
    n = len(points)
    sub = set(indices)
    worst = 0.0
    for centers, radius in ranges:
        g = a = 0
        for i, p in enumerate(points):
            if naive_far_membership(p, centers, radius):
                g += 1
                if i in sub:
                    a += 1
        worst = max(worst, abs(g / n - a / len(sub)))
    return worst


def per_range_ball_family(points, k, max_ranges=64):
    """The far-ball test family one range at a time: a list of
    (centers, radius) pairs.

    Centers come from the 3-per-axis grid over the data box inflated by a
    quarter of its extent (d <= 7), else from at most 64 evenly spaced data
    rows. Range t takes size = 1 + (t mod k) consecutive grid rows from
    t * size (mod g, wrapping); its radius is the round(pos)-th of the
    sorted distinct point-to-grid distances, pos evenly spaced. The
    distance table repeats the library's einsum so the radii are the same
    doubles, not merely close ones.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, d = pts.shape
    if 3**d <= 4096:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = hi - lo
        pad = 0.25 * np.where(span > 0, span, 1.0)
        axes = [np.linspace(lo[j] - pad[j], hi[j] + pad[j], 3) for j in range(d)]
        grid = np.array(list(itertools.product(*axes)))
    else:
        take = sorted({int(x) for x in np.round(np.linspace(0, n - 1, min(n, 64)))})
        grid = pts[take]
    diff = pts[:, None, :] - grid[None, :, :]
    dists = np.unique(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff, optimize=False)))
    g = grid.shape[0]
    out = []
    for t, pos in enumerate(np.linspace(0, dists.size - 1, max_ranges)):
        size = min(1 + t % k, g)
        start = (t * size) % g
        out.append((grid[[(start + j) % g for j in range(size)]], float(dists[int(np.round(pos))])))
    return out


def planar_two_means_opt(points):
    """Optimal 2-means cost in the plane via separating-line enumeration.

    An optimal 2-means clustering is split by the perpendicular bisector
    of its two centers, so it appears as a prefix of the point order along
    some direction. Sweeping every pairwise difference direction, its
    perpendicular, and tiny rotations of each covers all such orders.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    n = len(pts)

    def split_best(order):
        xs = [pts[i][0] for i in order]
        ys = [pts[i][1] for i in order]
        sq = [x * x + y * y for x, y in zip(xs, ys)]
        cx = list(itertools.accumulate(xs))
        cy = list(itertools.accumulate(ys))
        csq = list(itertools.accumulate(sq))
        best = csq[-1] - (cx[-1] ** 2 + cy[-1] ** 2) / n
        for m in range(1, n):
            a = csq[m - 1] - (cx[m - 1] ** 2 + cy[m - 1] ** 2) / m
            bx = cx[-1] - cx[m - 1]
            by = cy[-1] - cy[m - 1]
            b = (csq[-1] - csq[m - 1]) - (bx * bx + by * by) / (n - m)
            best = min(best, a + b)
        return best

    dirs = [(1.0, 0.0), (0.0, 1.0)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[j][0] - pts[i][0]
            dy = pts[j][1] - pts[i][1]
            if dx == 0.0 and dy == 0.0:
                continue
            dirs.append((dx, dy))
            dirs.append((-dy, dx))
    best = math.inf
    rot = 1e-7
    for dx, dy in dirs:
        for ux, uy in (
            (dx, dy),
            (dx - rot * dy, dy + rot * dx),
            (dx + rot * dy, dy - rot * dx),
        ):
            order = sorted(range(n), key=lambda i: (ux * pts[i][0] + uy * pts[i][1], i))
            best = min(best, split_best(order))
    return best


def meshgrid_ball(center, radius, spacing):
    """Origin-anchored lattice cells of one ball in np.meshgrid "ij" order,
    trimmed to the ball; also whether the ball's box holds no cell."""
    los = np.ceil((center - radius) / spacing).astype(np.int64)
    his = np.floor((center + radius) / spacing).astype(np.int64)
    mesh = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(los, his)], indexing="ij")
    cand = np.stack([m.ravel() for m in mesh], axis=1) * spacing
    keep = ((cand - center) ** 2).sum(axis=1) <= radius * radius * (1.0 + 1e-12)
    return cand[keep], bool((his < los).any())


def per_axis_ball_lattice(centers, radii, spacing):
    """bicriteria.ball_lattice with its mixed-radix decode one axis at a
    time, last axis first: cell j = lo_j + rank % count_j, then rank //=
    count_j. Returns (rows, owner)."""
    P = np.asarray(centers, dtype=np.float64)
    r = np.asarray(radii, dtype=np.float64)
    s = np.broadcast_to(np.asarray(spacing, dtype=np.float64), r.shape)
    d = P.shape[1]
    los = np.ceil((P - r[:, None]) / s[:, None]).astype(np.int64)
    his = np.floor((P + r[:, None]) / s[:, None]).astype(np.int64)
    counts = np.maximum(his - los + 1, 0)
    sizes = counts.prod(axis=1)
    owner = np.repeat(np.arange(P.shape[0]), sizes)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cells = np.empty((owner.size, d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        radix = counts[owner, j]
        cells[:, j] = los[owner, j] + rank % radix
        rank //= radix
    cand = cells * s[owner, None]
    keep = ((cand - P[owner]) ** 2).sum(axis=1) <= (r * r * (1.0 + 1e-12))[owner]
    return cand[keep], owner[keep]


def linear_spacing_scale(pts, anchor_cost, z, eps, alpha, max_candidates, zero_last_coord):
    """Lattice spacing factor by plain doubling: 1, 2, 4, ... until the
    per-level cell estimate fits max_candidates, stopping at 2**40.
    anchor_cost is the anchor's total power cost over the unit-weight
    points. Returns (scale, levels, radii); no levels when that cost is 0.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = pts.shape[0]
    base = pts[:, :-1] if zero_last_coord else pts
    ext = pts[:, -1] if zero_last_coord else np.zeros(n)
    lat_dim = base.shape[1]
    delta = anchor_cost / n
    if delta <= 0:
        return 1, [], []
    lo = int(np.floor(np.log2(eps / (alpha * z))))
    hi = int(np.ceil(np.log2(max(n, 1) / alpha)))
    levels = list(range(lo, hi + 1))
    radii = [2.0 ** (i / z) * delta ** (1.0 / z) for i in levels]

    def estimate(scale):
        total = 0.0
        for r in radii:
            s = (eps / z) * r / np.sqrt(lat_dim) * scale
            eff = np.sqrt(np.maximum(0.0, r * r - ext**2))
            per_axis = np.floor(base / s + eff[:, None] / s) - np.ceil(base / s - eff[:, None] / s) + 1.0
            total += float(np.minimum(np.prod(np.maximum(per_axis, 0.0), axis=1), 1e18).sum())
            if total > 1e17:
                return total
        return total

    scale = 1
    while estimate(scale) > max_candidates and scale < (1 << 40):
        scale *= 2
    return scale, levels, radii


def per_ball_candidates(pts, anchor_cost, z, eps, alpha, max_candidates, zero_last_coord):
    """Candidate family built one ball at a time, the way the lattice family
    was first generated: a meshgrid per (point, level) ball, trimmed by
    ((cand - p) ** 2).sum(axis=1), pushed row by row through a first-seen
    dict keyed by 1e-9-quantized coordinates. anchor_cost is the anchor's
    total power cost over the unit-weight points.

    Returns (points, provenance_point, provenance_level, spacing_scale,
    missed, empty): missed counts balls that never reach the slice, empty
    counts balls whose lattice box holds no cell.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = pts.shape[0]
    base = pts[:, :-1] if zero_last_coord else pts
    ext = pts[:, -1] if zero_last_coord else np.zeros(n)
    lat_dim = base.shape[1]
    quantum = 1e-9 * max(1.0, float(np.abs(pts).max()))
    seen, rows, prov_point, prov_level = {}, [], [], []
    missed = empty = 0

    def push(row, owner, level):
        key = tuple(np.round(row / quantum).astype(np.int64).tolist())
        if key not in seen:
            seen[key] = len(rows)
            rows.append(row)
            prov_point.append(owner)
            prov_level.append(level)

    for i in range(n):
        push(np.append(base[i], 0.0) if zero_last_coord else base[i], i, np.iinfo(np.int64).min)

    scale, levels, radii = linear_spacing_scale(
        pts, anchor_cost, z, eps, alpha, max_candidates, zero_last_coord
    )
    for level, r in zip(levels, radii):
        s = (eps / z) * r / np.sqrt(lat_dim) * scale
        for i in range(n):
            eff_sq = r * r - ext[i] ** 2
            if eff_sq < 0:
                missed += 1
                continue
            cand, empty_box = meshgrid_ball(base[i], np.sqrt(eff_sq), s)
            empty += empty_box
            for row in cand:
                push(np.append(row, 0.0) if zero_last_coord else row, i, level)
    return (
        np.array(rows),
        np.array(prov_point, dtype=np.int64),
        np.array(prov_level, dtype=np.int64),
        scale,
        missed,
        empty,
    )


def dict_row_pool(rows, quantum):
    """(keep, index) of rows deduplicated by a dict over their quantized
    coordinates, one row at a time, the first occurrence kept."""
    pool, keep, index = {}, [], []
    for i, row in enumerate(np.asarray(rows, dtype=np.float64)):
        key = tuple(int(v) for v in np.round(row / quantum).astype(np.int64))
        if key not in pool:
            pool[key] = len(keep)
            keep.append(i)
        index.append(pool[key])
    return keep, index


def per_composition_cover(S, spacing, max_steps=None):
    """Hull cover of the rows of S, one barycentric weight vector at a time:
    each composition of G into |S| parts (stars and bars, lexicographic by
    bar positions), divided by G, combined by einsum("i,ij->j")."""
    S = np.asarray(S, dtype=np.float64)
    j = S.shape[0]
    diam = max(
        (math.dist(S[a], S[b]) for a in range(j) for b in range(a + 1, j)), default=0.0
    )
    if diam == 0.0:
        return S[:1].copy()
    G = max(1, math.ceil((j - 1) * diam / spacing))
    if max_steps is not None:
        G = min(G, max_steps)
    out = []
    for bars in itertools.combinations(range(G + j - 1), j - 1):
        edges = [-1, *bars, G + j - 1]
        comp = [edges[i + 1] - edges[i] - 1 for i in range(j)]
        out.append(np.einsum("i,ij->j", np.array(comp, dtype=np.float64) / G, S))
    return np.array(out)


def json_dump_sketch(lin, net_points, params, path):
    """A sketch bundle written by json.dump(sort_keys=True, indent=1) over
    the whole document, the way io.write_sketch first wrote it."""
    import json

    from detclust.io import _hex_tree

    doc = {
        "format": "dclus-sketch-1",
        "k": params.k,
        "z": params.z,
        "eps": float(params.epsilon).hex(),
        "map_eps": None if lin.eps is None else float(lin.eps).hex(),
        "rows": int(lin.m),
        "cols": int(lin.d),
        "matrix": [float(v).hex() for v in lin.matrix.ravel(order="C")],
        "certificate": None
        if lin.certificate is None
        else {k: _hex_tree(v) for k, v in lin.certificate.items()},
        "net": [[float(v).hex() for v in row] for row in np.asarray(net_points, dtype=np.float64)],
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def per_row_points_csv(header_line, rows):
    """Point CSV text written one row and one value at a time."""
    out = header_line + "\n"
    for row in rows:
        out += ",".join(repr(float(v)) for v in row) + "\n"
    return out


def per_row_coreset_csv(header_line, points, nums, dens):
    """Coreset CSV text written one row and one value at a time."""
    out = header_line + "\n"
    for row, num, den in zip(points, nums, dens):
        out += ",".join(repr(float(v)) for v in row) + f",{int(num)}/{int(den)}\n"
    return out


def sequential_polish(pts, w, inits, z, rounds):
    """Centers of the best init, each polished on its own, one after the
    other: alternate assign / per-cluster recenter, stopping once a round
    fails to lower power_cost by a factor 1 - 1e-12; winner by (cost, init
    order). One memo of solved member masks serves every init and round."""
    memo, best = {}, None
    for C0 in inits:
        C = np.array(C0, dtype=np.float64)
        cost = power_cost((pts, w), C, z)
        for _ in range(rounds):
            _, lbl = min_power_dists(pts, C, z)
            keys, unseen = {}, {}
            for t in range(C.shape[0]):
                row = lbl == t
                if row.any():
                    keys[t] = row.tobytes()
                    if keys[t] not in memo:
                        unseen[keys[t]] = row
            if unseen:
                got = solve_1centers(pts, None, w, np.array(list(unseen.values())), z)[0]
                memo.update(zip(unseen, got))
            new = C.copy()
            for t, key in keys.items():
                new[t] = memo[key]
            new_cost = power_cost((pts, w), new, z)
            if new_cost >= cost * (1.0 - 1e-12):
                break
            C, cost = new, new_cost
        if best is None or cost < best[0]:
            best = (cost, C)
    return best[1]


def sequential_newton_centers(W, c, base, ext_sq, floor, z, certified, exhausted=None):
    """geometry._newton_centers with its Armijo search one step size at a
    time: t = 1, 1/2, ..., 2^-39, one distance table per try for the rows
    still pending. exhausted, a list, collects the rows (indices into c)
    that reject all 40 step sizes in some round."""
    d = base.shape[1]
    c = c.copy()
    s2 = ext_sq + (floor * floor)[:, None]
    live = np.arange(c.shape[0])
    for _ in range(geometry._NEWTON_ROUNDS):
        Wl, cl, s2l = W[live], c[live], s2[live]
        sq = geometry.sq_dist_matrix(cl, base)
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
        pend = well & (gd < 0.0) & ~certified(live, cl, sq + ext_sq)
        f0 = np.einsum("mi,mi->m", Wl, r**z, optimize=False)
        t = np.ones(live.size)
        moved = np.zeros(live.size, dtype=bool)
        for _ in range(40):
            rows = np.flatnonzero(pend)
            if not rows.size:
                break
            c_try = cl[rows] + t[rows, None] * step[rows]
            r_try = np.sqrt(geometry.sq_dist_matrix(c_try, base) + s2l[rows])
            f_try = np.einsum("mi,mi->m", Wl[rows], r_try**z, optimize=False)
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
        if exhausted is not None:
            exhausted.extend(live[pend].tolist())
        live = live[moved]
        if not live.size:
            break
    return c


def sequential_lift(P, labels, z):
    """bicriteria.lift_by_clusters for one labeling, one run at a time: a
    solve_1centers call per run of whole clusters holding at most
    _LIFT_POINTS points, on those points alone."""
    from detclust.bicriteria import _LIFT_POINTS

    base, ext, w = geometry._split_extended(P)
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
        out.append(solve_1centers(base[cols], sub_ext, w[cols], members, z)[0])
        lo = hi
    return np.vstack(out)


def sequential_bicriteria(P, params):
    """The d <= DEFAULT_DIM_THRESHOLD branch of bicriteria, stage by stage
    on one set: Gonzalez seeds (every point when there are fewer than k,
    at extension 0 in slice mode), the swap search over candidate_centers
    around them, the greedy augmentation over candidate_centers around the
    swapped baseline, and power_cost of the result."""
    import importlib

    bic = importlib.import_module("detclust.bicriteria")  # not the function
    pts, w = geometry._coerce_pointset(P)
    seeds = bic._gonzalez_seeds(pts, params.k)
    if isinstance(P, geometry.ExtendedPointSet):
        seeds[:, -1] = 0.0
    if seeds.shape[0] < params.k:
        S0 = geometry.CenterSet(seeds)
    else:
        S0 = bic._swap_search(P, params, seeds, bic.candidate_centers(P, params, seeds))
    centers, reason, _ = bic._augment(P, S0, bic.candidate_centers(P, params, S0), params)
    return bic.BicriteriaResult(
        centers=geometry.CenterSet(centers),
        # geometry's, not this module's power_cost, which tests patch to
        # count the scan's lifted costs
        cost=geometry.power_cost((pts, w), centers, params.z),
        stopped_reason=reason,
        baseline_size=S0.k,
        projection_seed=None,
    )


def sequential_projection_scan(P, params):
    """The d > DEFAULT_DIM_THRESHOLD branch of bicriteria, one projection
    seed at a time: project, solve with sequential_bicriteria, label in
    the projected space, lift with sequential_lift, cost with power_cost,
    and keep the (cost, seed)-lexicographic best. Returns (centers, cost,
    stopped_reason, projection_seed, baseline_size)."""
    import importlib

    bic = importlib.import_module("detclust.bicriteria")  # not the function
    pts, w = geometry._coerce_pointset(P)
    base, ext, _ = geometry._split_extended(P)
    base_dim = base.shape[1]
    m = min(base_dim, bic.DEFAULT_DIM_THRESHOLD - (pts.shape[1] - base_dim))
    best = None
    for seed in range(bic.DEFAULT_PROJECTION_SEEDS):
        proj = bic.seeded_projection_family(base_dim, m, seed).apply(base)
        sub = (proj, w) if ext is None else geometry.ExtendedPointSet(proj, ext, w)
        res = sequential_bicriteria(sub, params)
        rows, _ = geometry._coerce_pointset(sub)
        _, labels = min_power_dists(rows, res.centers.centers, params.z)
        lifted = sequential_lift(P, labels, params.z)
        cost = power_cost(P, lifted, params.z)
        if best is None or cost < best[0]:
            best = (cost, seed, lifted, res)
    cost, seed, lifted, res = best
    centers = lifted if ext is None else np.hstack([lifted, np.zeros((lifted.shape[0], 1))])
    return centers, cost, res.stopped_reason, seed, res.baseline_size


def sequential_orthobasis(V):
    """Orthonormal basis of the row span of V alone: Gram-Schmidt pivoting
    on the largest residual norm (ties to the lowest row), stopping at a
    residual of norm 0 or at most 1e-12 times the largest row norm."""
    work = np.array(V, dtype=np.float64)
    scale = float(np.sqrt((work**2).sum(axis=1)).max(initial=0.0))
    basis = []
    for _ in range(min(work.shape)):
        norms = np.sqrt((work**2).sum(axis=1))
        i = int(np.argmax(norms))
        if norms[i] <= 1e-12 * scale or norms[i] == 0.0:
            break
        q = work[i] / norms[i]
        basis.append(q)
        work = work - np.outer(np.einsum("ij,j->i", work, q), q)
    return np.array(basis) if basis else np.empty((0, V.shape[1]))


def flush_build_net(reps, D, R, eps, z, chunk):
    """dimreduce.build_net one subset at a time, in the paper's terms:
    subsets of up to R representatives, per-composition covers at spacing
    eps' * diam with eps' = eps / (4 D z) (at most MAX_COVER_STEPS steps),
    sequential_orthobasis, and a dedup pass each time chunk rows are
    pending, which runs first_seen_rows over the whole kept net stacked on
    the pending rows. Returns (points, sources)."""
    from detclust.dimreduce import MAX_COVER_STEPS

    reps = np.asarray(reps, dtype=np.float64)
    T = reps.shape[0]
    eps_prime = eps / (4.0 * D * z)
    quantum = 1e-12 * max(1.0, float(np.abs(reps).max(initial=0.0)))
    net = np.zeros((1, reps.shape[1]))
    sources = [(-1, "origin")]
    pending, tags = [], []

    def flush():
        nonlocal net
        rows = np.vstack([net, *pending])
        keep, _ = geometry.first_seen_rows(rows, quantum)
        sources.extend(tags[i] for i in (keep[net.shape[0] :] - net.shape[0]).tolist())
        net = rows[keep]
        pending.clear()
        tags.clear()

    sid = 0
    for j in range(1, min(R, T) + 1):
        for combo in itertools.combinations(range(T), j):
            S = reps[list(combo)]
            diam = max(
                (float(np.sqrt(((S[b] - S[a]) ** 2).sum()))
                 for a in range(j) for b in range(a + 1, j)),
                default=0.0,
            )
            cover = S[:1] if diam == 0.0 else per_composition_cover(
                S, eps_prime * diam, MAX_COVER_STEPS
            )
            for rows, kind in ((cover, "cover"), (sequential_orthobasis(S), "basis")):
                pending.append(rows)
                tags.extend([(sid, kind)] * rows.shape[0])
            sid += 1
            if len(tags) >= chunk:
                flush()
    flush()
    return net, tuple(sources)


def galloping_spacing_exponents(base, unit, eff):
    """bicriteria._spacing_exponents by the search it first had: galloping
    over e = 0, 1, 3, 7, ... (capped at 40), then bisecting, every set
    from exponent 0 whatever its lattice, one _estimate_over call a round
    for every set still searching. Returns the exponent per set."""
    from detclust.bicriteria import _estimate_over

    sets = unit.shape[0]
    lo, hi, gallop = [0] * sets, [0] * sets, [True] * sets
    while True:
        act, probe = [], []
        for s in range(sets):
            gallop[s] = gallop[s] and hi[s] < 40
            if gallop[s] or lo[s] < hi[s]:
                act.append(s)
                probe.append(hi[s] if gallop[s] else (lo[s] + hi[s]) // 2)
        if not act:
            return np.array(hi)
        scale = np.ldexp(1.0, probe)[:, None]
        over = _estimate_over(base[act], unit[act] * scale, eff[act])
        for s, e, o in zip(act, probe, over.tolist()):
            if gallop[s] and o:
                lo[s], hi[s] = e + 1, min(2 * e + 1, 40)
            elif gallop[s]:
                gallop[s] = False
            elif o:
                lo[s] = e + 1
            else:
                hi[s] = e


def json_load_sketch(path):
    """(matrix, net) of a sketch bundle parsed the way io.read_sketch first
    parsed them: json.load, then one float.fromhex per entry in list
    comprehensions, shaped by np.array (an empty net is shape (0,))."""
    import json

    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    matrix = np.array([float.fromhex(v) for v in doc["matrix"]], dtype=np.float64)
    net = np.array([[float.fromhex(v) for v in row] for row in doc["net"]], dtype=np.float64)
    return matrix.reshape(int(doc["rows"]), int(doc["cols"])), net


def measured_pair_distortions(matrix, vectors):
    """linmap.pair_distortions measuring every pair's mapped distance, as
    it first did, also under a map that moves no vector: (checked, 1 +
    max |ratio - 1|), a pair row whose maximum is NaN ignored."""
    V = np.asarray(vectors, dtype=np.float64)
    Y = np.einsum("ij,kj->ik", V, np.asarray(matrix), optimize=False)
    worst, checked = 0.0, 0
    for i in range(V.shape[0] - 1):
        nv2 = ((V[i + 1 :] - V[i]) ** 2).sum(axis=1)
        ny2 = ((Y[i + 1 :] - Y[i]) ** 2).sum(axis=1)
        nz = nv2 > 0
        checked += int(nz.sum())
        if nz.any():
            worst = max(worst, float(np.abs(np.sqrt(ny2[nz] / nv2[nz]) - 1.0).max()))
    return checked, 1.0 + worst


def carried_tree_sum(values):
    """Pairwise sum whose odd trailing element is carried to the next
    level, not paired with padding: the bits summation.tree_sum keeps."""
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        half = a.size // 2
        s = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if a.size % 2:
            s = np.append(s, a[-1])
        a = s
    return float(a[0])


def argmin_power_cost(P, S, z):
    """power_cost of one center set from its own argmin labels, summed in
    canonical order by carried_tree_sum: the bits geometry.power_cost keeps."""
    from detclust.summation import canonical_order

    pts, ext, w = geometry._split_extended(P)
    centers = geometry._coerce_centers(S)
    if ext is not None:
        pts = np.column_stack([pts, ext])
        centers = np.column_stack([centers, np.zeros(centers.shape[0])])
    costs, _ = min_power_dists(pts, centers, z)
    return carried_tree_sum((w * costs)[canonical_order(pts, w)])


def every_level_halving(ground, eps_prime, tests):
    """epsapprox.halving_approx's loop as it was: every level is halved and
    then tested, also below HALVING_MIN_SIZE where only deviation 0 can be
    accepted. Returns (kept indices, number of _halve runs)."""
    from detclust import epsapprox

    pts = np.asarray(ground, dtype=np.float64)
    n = pts.shape[0]
    if n == 1:
        return np.zeros(1, dtype=np.int64), 0
    M = epsapprox._membership_matrix(pts, tests)
    gfrac = M.sum(axis=1) / n
    M_est = np.vstack([M, np.ones((1, n), dtype=bool)])
    current = np.arange(n, dtype=np.int64)
    runs = 0
    while current.size > 1:
        lam = math.sqrt(2.0 * math.log(2.0 * len(tests)) / current.size)
        cand = epsapprox._halve(current, M_est[:, current], lam)
        runs += 1
        if cand.size == 0 or cand.size == current.size:
            break
        dev = epsapprox._deviation(M, gfrac, cand)
        if dev > eps_prime:
            break
        if current.size <= epsapprox.HALVING_MIN_SIZE and dev > 0.0:
            break
        current = cand
    return current, runs


def meshgrid_center_grid(P, per_axis):
    """geometry.center_grid as it was: one np.linspace per axis over the
    data box inflated by GRID_MARGIN of its extent, then np.meshgrid."""
    pts, _ = geometry._coerce_pointset(P)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = hi - lo
    pad = geometry.GRID_MARGIN * np.where(span > 0, span, 1.0)
    axes = [np.linspace(lo[j] - pad[j], hi[j] + pad[j], per_axis) for j in range(pts.shape[1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def pair_directions(V):
    """(pairs, d) unit difference vectors V[j] - V[i] of all pairs i < j at
    nonzero distance, walked row by row."""
    n = V.shape[0]
    rows = []
    for i in range(n - 1):
        dv = V[i + 1 :] - V[i]
        nv = np.sqrt((dv**2).sum(axis=1))
        nz = nv > 0
        if nz.any():
            rows.append(dv[nz] / nv[nz, None])
    if not rows:
        return np.empty((0, V.shape[1]))
    return np.vstack(rows)


def materialized_conditional_signs(W, m, eps):
    """dimreduce._conditional_sign_matrix as it was, reading the stored
    table W of unit pair directions and its square: the bits the streamed
    form keeps."""
    P, d = W.shape
    signs = np.ones((m, d))
    if P == 0:
        return signs
    lam = max(1.0, m * eps / 4.0)
    done = np.zeros(P)
    Wsq = W**2
    for r in range(m):
        pd = np.zeros(P)
        rem = np.ones(P)
        tail = (m - r - 1) / m
        for jcol in range(d):
            wj = W[:, jcol]
            rem_next = rem - Wsq[:, jcol]
            base = done + tail - 1.0
            plus = np.cosh(lam * (base + ((pd + wj) ** 2 + rem_next) / m))
            minus = np.cosh(lam * (base + ((pd - wj) ** 2 + rem_next) / m))
            if float(minus.sum()) < float(plus.sum()):
                signs[r, jcol] = -1.0
                pd = pd - wj
            else:
                pd = pd + wj
            rem = rem_next
        done = done + pd**2 / m
    return signs


class DictRings:
    """The ring decomposition in its bucket-dict form: buckets maps
    (cluster, ring) to ascending point indices, classes tags each bucket
    inner, main or outer."""

    def __init__(self, deltas, labels, costs, buckets, classes):
        self.deltas, self.labels, self.costs = deltas, labels, costs
        self.buckets, self.classes = buckets, classes

    def indices_of(self, kind):
        out = [idx for key, idx in self.buckets.items() if self.classes[key] == kind]
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(out))

    def main_rings(self):
        keys = sorted(k for k, c in self.classes.items() if c == "main")
        return [(k, self.buckets[k]) for k in keys]


def dict_ring_decompose(P, seeding, params):
    """rings.ring_decompose as it was, one cluster and one ring at a time
    into (cluster, ring) dicts: the bits the per-point arrays keep."""
    pts, _ = geometry._coerce_pointset(P)
    G = seeding.centers.centers
    _, labels = min_power_dists(pts, G, params.z)
    sq = ((pts - G[labels]) ** 2).sum(axis=1)
    costs = geometry._power_from_sq(sq, params.z)
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
        ratio = costs[live] / delta
        ring = np.floor(np.log2(ratio)).astype(np.int64)
        ring[np.exp2(ring.astype(np.float64)) > ratio] -= 1
        ring[np.exp2((ring + 1).astype(np.float64)) <= ratio] += 1
        for j in np.unique(ring):
            sel = live[ring == j]
            buckets[(i, int(j))] = sel
            if 2.0 ** (int(j) + 1) <= t_in:
                classes[(i, int(j))] = "inner"
            elif 2.0 ** int(j) > t_out:
                classes[(i, int(j))] = "outer"
            else:
                classes[(i, int(j))] = "main"
    return DictRings(deltas, labels, costs, buckets, classes)


def dict_collapsed_instance(P, rings, seeding):
    """The collapsed instance I_G of a DictRings: (rows, weights, F), the
    centers first, carrying the counts of the removed inner and outer
    points, then the main-ring points at weight one; F is the outer
    points' cost against the seeding solution."""
    pts, _ = geometry._coerce_pointset(P)
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
    return rows, weights, F
