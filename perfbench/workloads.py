"""Workload definitions: seeded inputs, the CLI operations of one pass, and
the checks each operation's output must pass.

A workload is built in two steps. ``setup()`` generates the inputs from
the seed and writes them as point files into the current directory; it is
what ``setup_s`` times. ``ops()`` then lists the CLI calls of one pass in
order. Every op names its metric kind, its argv, the file it writes (for
the digest) and a check that receives the op's stdout and raises
``CheckFailed``.

The checks are written against the file formats and the cost model, not
against detclust's own verifiers: coreset weights are summed as exact
fractions, relative errors are recomputed in numpy, and solve costs are
compared with a brute-force optimum over all subsets (``optimum_bounds``).
"""

import itertools
import re
from fractions import Fraction

import numpy as np

K = 2
EPS = 0.3
ALPHA = "2.0"
# the criterion-7 sandwich leaves no slack for the oracle's own rounding
ORACLE_TOL = 1e-7


class CheckFailed(Exception):
    pass


class Op:
    """One CLI call of a pass."""

    def __init__(self, kind, label, argv, *, points, output=None, check=None):
        self.kind = kind
        self.label = label
        self.argv = [str(a) for a in argv]
        self.points = points
        self.output = output
        self.check = check


# ---------------- file parsing and cost model ----------------


def read_point_file(path):
    with open(path, encoding="ascii") as fh:
        head = fh.readline()
        if not head.startswith("# dim="):
            raise CheckFailed(f"{path}: not a text point file")
        rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
    return np.array(rows, dtype=np.float64)


def read_coreset_file(path):
    """(points, exact weights, offset F) from a coreset CSV."""
    with open(path, encoding="ascii") as fh:
        head = fh.readline()
        m = re.match(r"# dim=(\d+) F=(\S+) ", head)
        if m is None:
            raise CheckFailed(f"{path}: bad coreset header {head!r}")
        dim, offset = int(m.group(1)), float.fromhex(m.group(2))
        pts, weights = [], []
        for line in fh:
            if not line.strip():
                continue
            cols = line.strip().split(",")
            if len(cols) != dim + 1:
                raise CheckFailed(f"{path}: row with {len(cols)} columns")
            pts.append([float(v) for v in cols[:dim]])
            weights.append(Fraction(cols[dim]))
    return np.array(pts, dtype=np.float64), weights, offset


def cost(points, centers, z, weights=None):
    sq = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    per = np.sqrt(sq) ** z if z != 2 else sq
    return float(per.sum() if weights is None else (weights * per).sum())


def max_relative_error(points, core_pts, core_w, offset, tuples, z):
    """Worst |cost(coreset, S) + F - cost(P, S)| / cost(P, S) over tuples."""
    w = np.array([float(x) for x in core_w])
    worst = 0.0
    for S in tuples:
        orig = cost(points, S, z)
        if orig == 0.0:
            continue
        approx = cost(core_pts, S, z, w) + offset
        worst = max(worst, abs(approx - orig) / orig)
    return worst


def grid_tuples(points, per_axis=4, margin=0.25, k=K):
    """Every k-subset of the per_axis^d box lattice that `coreset verify`
    replays (box inflated by margin * extent)."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = hi - lo
    pad = margin * np.where(span > 0, span, 1.0)
    axes = [np.linspace(lo[j] - pad[j], hi[j] + pad[j], per_axis) for j in range(points.shape[1])]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return [grid[list(c)] for c in itertools.combinations(range(grid.shape[0]), k)]


def sampled_tuples(points, rng, count, k=K):
    """count k-subsets of the data points themselves (seeded)."""
    return [points[np.sort(rng.choice(points.shape[0], size=k, replace=False))] for _ in range(count)]


def _weiszfeld(points, member, c, steps):
    for _ in range(steps):
        d = np.sqrt(((points[None, :, :] - c[:, None, :]) ** 2).sum(axis=2))
        inv = member / np.maximum(d, 1e-300)
        c = (inv @ points) / inv.sum(axis=1)[:, None]
    return c


def _median_bounds(points, member, c, chunk=512):
    """Per-subset bounds on the optimal sum of distances, in row chunks so
    the oracle never outgrows the program it checks in peak memory."""
    out = [_median_bounds_rows(points, member[i : i + chunk], c[i : i + chunk])
           for i in range(0, member.shape[0], chunk)]
    return np.concatenate([o[0] for o in out]), np.concatenate([o[1] for o in out])


def _median_bounds_rows(points, member, c):
    """Per-subset bounds on the optimal sum of distances.

    The sum of distances f is convex, so f(opt) >= f(x) - |g| * max_p |p - x|
    for the min-norm subgradient g at any x (opt lies in the hull of the
    subset). The bound is taken at the iterate c and at every member point,
    which makes it exact when the median sits on a data point.
    """
    diff = c[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    hi = (member * dist).sum(axis=1)
    g = np.einsum("sp,spk->sk", member, diff / np.where(dist > 0, dist, np.inf)[:, :, None])
    slack = np.maximum(np.linalg.norm(g, axis=1) - (member * (dist == 0)).sum(axis=1), 0.0)
    lo = hi - slack * (member * dist).max(axis=1)

    pd = points[:, None, :] - points[None, :, :]
    D = np.sqrt((pd**2).sum(axis=2))
    f_q = member @ D
    g_q = np.einsum("sp,qpk->sqk", member, pd / np.where(D > 0, D, np.inf)[:, :, None])
    slack_q = np.maximum(np.linalg.norm(g_q, axis=2) - member @ (D == 0), 0.0)
    lo_q = f_q - slack_q * (member[:, None, :] * D[None, :, :]).max(axis=2)
    inside = member > 0
    hi = np.minimum(hi, np.where(inside, f_q, np.inf).min(axis=1))
    lo = np.maximum(lo, np.where(inside, lo_q, -np.inf).max(axis=1))
    return np.maximum(lo, 0.0), hi


def optimum_bounds(points, k, z):
    """(lower, upper) bounds on the optimal (k, z) cost by brute force over
    every subset of the points.

    z=2: each subset pays its squared distances to its mean, in closed form,
    and the minimum over partitions comes from ``optimum``. z=1 (k=2 only):
    batched Weiszfeld iterates give upper bounds and ``_median_bounds`` lower
    ones; subsets of bipartitions that could still beat the best one are
    iterated further until the two bounds meet.
    """
    n = points.shape[0]
    masks = np.arange(1, 1 << n)
    member = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    size = member.sum(axis=1)
    if z == 2:
        table = np.empty(1 << n)
        table[0] = 0.0
        s1 = member @ points
        table[1:] = np.maximum(member @ (points**2).sum(axis=1) - (s1**2).sum(axis=1) / size, 0.0)
        best = optimum(table, n, k)
        return best, best
    if (z, k) != (1, 2):
        raise ValueError("the oracle covers z=2, and z=1 with k=2")
    c = _weiszfeld(points, member, (member @ points) / size[:, None], 50)
    lo, hi = _median_bounds(points, member, c)
    first = masks[(masks & 1) == 1] - 1  # row of each subset holding item 0
    rest = ((1 << n) - 1) ^ (first + 1)  # its complement as a mask (0: empty)

    def totals(t):
        return t[first] + np.where(rest > 0, t[rest - 1], 0.0)

    for _ in range(100):
        best = totals(hi).min()
        live = totals(lo) < best * (1.0 - 1e-12)
        if not live.any():
            break
        rows = np.unique(np.concatenate([first[live], rest[live][rest[live] > 0] - 1]))
        c[rows] = _weiszfeld(points, member[rows], c[rows], 100)
        lo[rows], hi[rows] = _median_bounds(points, member[rows], c[rows])
    return float(totals(lo).min()), float(totals(hi).min())


def optimum(table, n, k):
    """Min over partitions of n items into at most k parts (subset DP)."""
    full = (1 << n) - 1
    if k == 1:
        return float(table[full])
    best = {}

    def dp(mask, parts):
        if parts == 1:
            return table[mask]
        key = (mask, parts)
        if key not in best:
            low = mask & -mask
            rest = mask ^ low
            val = table[mask]
            sub = rest
            while True:  # every part containing the lowest item
                part = sub | low
                if part != mask:
                    val = min(val, table[part] + dp(mask ^ part, parts - 1))
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            best[key] = val
        return best[key]

    return float(dp(full, k))


def parse_hex(stdout, field):
    m = re.search(rf"{field}=\S+ \((\S+)\)", stdout)
    if m is None:
        raise CheckFailed(f"no {field}= in output {stdout!r}")
    return float.fromhex(m.group(1))


# ---------------- shared op builders ----------------


def coreset_check(n, quality, *, det, error_tuples=None, z=None, src=None):
    """Weights sum to n exactly; det rows are recorded for rows_per_n and,
    given error_tuples, replayed for the max relative error."""

    def check(stdout, out_path):
        pts, weights, offset = read_coreset_file(out_path)
        if sum(weights) != n:
            raise CheckFailed(f"total weight {sum(weights)} != n={n}")
        if det:
            quality["rows"][out_path] = (pts.shape[0], n)
        if error_tuples is not None:
            err = max_relative_error(src, pts, weights, offset, error_tuples, z)
            quality["errors"][out_path] = err
            if not err <= EPS:
                raise CheckFailed(f"sampled relative error {err} > eps={EPS}")

    return check


def verify_check(src, core_path, z, quality):
    """`coreset verify` passed, and its reported error matches an
    independent replay of the same grid."""

    def check(stdout, _):
        reported = parse_hex(stdout, "max_relative_error")
        pts, weights, offset = read_coreset_file(core_path)
        mine = max_relative_error(src, pts, weights, offset, grid_tuples(src), z)
        if "verification passed" not in stdout or not reported <= EPS:
            raise CheckFailed(f"verify reported {reported} > eps={EPS}")
        if abs(mine - reported) > 1e-9:
            raise CheckFailed(f"verify reported {reported}, replay gives {mine}")
        quality["errors"][core_path] = reported

    return check


def _new_quality():
    return {"rows": {}, "errors": {}, "ratios": {}}


def coreset_quality(q):
    rows = sum(r for r, _ in q["rows"].values())
    n = sum(m for _, m in q["rows"].values())
    return {
        "coreset_rows_per_n": rows / n,
        "coreset_max_rel_error": max(q["errors"].values()),
    }


# ---------------- inputs ----------------


def two_blobs(rng, n, d, separation):
    """Two unit Gaussians whose means lie `separation` apart on the first
    axis. The distance is fixed rather than drawn, so the amount of work an
    instance takes depends little on the seed."""
    shift = np.zeros(d)
    shift[0] = separation
    half = n // 2
    return np.vstack([rng.standard_normal((half, d)), rng.standard_normal((n - half, d)) + shift])


def rigid_copy(rng, points):
    """`points` rotated, translated and reordered by `rng`: the same
    clustering problem in other coordinates."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = points @ rot.T + rng.uniform(-10.0, 10.0, size=2)
    return moved[rng.permutation(points.shape[0])]


# ---------------- workloads ----------------


class Coreset2D:
    """Ring coreset builds in the plane. bicriteria.candidate_centers and the
    (C, n) power tables take most of the time, and peak RSS shows the
    O(n^2) wall; halving is a small share of det builds and absent from the
    rand build."""

    name = "coreset-2d"
    kinds = ("coreset_build", "coreset_build_rand", "coreset_verify")

    def __init__(self, seed, big=400, small=200):
        self.seed, self.big, self.small = seed, big, small
        self.quality = _new_quality()

    def setup(self):
        from detclust import write_points

        rng = np.random.default_rng(self.seed)
        self.src = {"a": two_blobs(rng, self.big, 2, 6.0), "b": two_blobs(rng, self.small, 2, 6.0)}
        for key, pts in self.src.items():
            write_points(pts, f"{key}.csv")

    def ops(self):
        q = self.quality
        ops = []
        for key, z in (("a", 2), ("b", 2), ("b", 1)):
            src, n = self.src[key], self.src[key].shape[0]
            inp, core = f"{key}.csv", f"{key}-det-z{z}.core"
            ops.append(Op("coreset_build", f"build det n={n} z={z}",
                          ["coreset", "build", "--in", inp, "--out", core, "--k", K,
                           "--z", z, "--eps", EPS, "--alpha", ALPHA, "--mode", "det"],
                          points=n, output=core, check=coreset_check(n, q, det=True)))
            ops.append(Op("coreset_verify", f"verify n={n} z={z}",
                          ["coreset", "verify", "--points", inp, "--coreset", core,
                           "--per-axis", 4],
                          points=n, check=verify_check(src, core, z, q)))
        n = self.src["b"].shape[0]
        core = "b-rand-z2.core"
        ops.append(Op("coreset_build_rand", f"build rand n={n} z=2",
                      ["coreset", "build", "--in", "b.csv", "--out", core, "--k", K,
                       "--z", 2, "--eps", EPS, "--alpha", ALPHA, "--mode", "rand",
                       "--seed", self.seed],
                      points=n, output=core, check=coreset_check(n, q, det=False)))
        return ops

    def quality_metrics(self):
        return coreset_quality(self.quality)


class SolveSmall:
    """Criterion-7 shaped solves: two unit Gaussians 5 apart. Time goes to
    the partition walk and the 1-center solvers; bicriteria is a few
    percent.

    Solve times depend strongly on the point set (the z=1 solvers iterate
    until certified), so the point sets come from a fixed bank and the seed
    places each one: a rotation, a translation and an order of its points.
    One pass covers every set of the bank."""

    name = "solve-small"
    kinds = ("solve_exact", "solve_ptas", "solve_bicriteria")
    BANK_SEED = 0

    def __init__(self, seed, n=8, sets=2):
        self.seed, self.n, self.sets = seed, n, sets
        self.quality = _new_quality()
        self._opt = {}

    def setup(self):
        from detclust import write_points

        bank = np.random.default_rng(self.BANK_SEED)
        rng = np.random.default_rng(self.seed)
        self.src = {f"s{i}": rigid_copy(rng, two_blobs(bank, self.n, 2, 5.0))
                    for i in range(self.sets)}
        for key, pts in self.src.items():
            write_points(pts, f"{key}.csv")

    def _check(self, key, k, z, method, label):
        src = self.src[key]
        if (key, k, z) not in self._opt:
            self._opt[(key, k, z)] = optimum_bounds(src, k, z)
        lo, hi = self._opt[(key, k, z)]

        def check(stdout, out_path):
            got = parse_hex(stdout, "cost")
            if f"method={method} downgraded=False" not in stdout:
                raise CheckFailed(f"expected method={method} without downgrade: {stdout!r}")
            centers = read_point_file(out_path)
            if centers.shape[0] != k:
                raise CheckFailed(f"{centers.shape[0]} centers, expected {k}")
            if abs(cost(src, centers, z) - got) > 1e-9 * max(1.0, got):
                raise CheckFailed("reported cost disagrees with the written centers")
            ratio = {"exact": 1.0, "ptas": (1 + EPS) / (1 - EPS), "bicriteria": 1 + EPS}[method]
            if not lo * (1 - ORACLE_TOL) <= got <= ratio * hi * (1 + ORACLE_TOL):
                raise CheckFailed(f"{method} cost {got} outside [{lo}, {ratio} * {hi}]")
            if method != "exact":
                self.quality["ratios"][label] = got / hi

        return check

    def ops(self):
        """One pass over every instance set. The brute-force optimum of
        every solve is computed here, outside every timed region."""
        ops = []
        for i in range(self.sets):
            key = f"s{i}"
            plan = [("exact", 3, 2), ("exact", 2, 1)]
            plan += [(m, 2, z) for z in (1, 2) for m in ("ptas", "bicriteria")]
            for method, k, z in plan:
                label = f"{method} n={self.n} k={k} z={z} #{i}"
                out = f"{method}-{key}-k{k}-z{z}.centers"
                ops.append(Op(f"solve_{method}", label,
                              ["solve", method, "--in", f"{key}.csv",
                               "--out", out, "--k", k, "--z", z, "--eps", EPS],
                              points=self.n, output=out,
                              check=self._check(key, k, z, method, label)))
        return ops

    def quality_metrics(self):
        return {"solve_cost_ratio": max(self.quality["ratios"].values())}


class HighDim:
    """d=30: the bicriteria projection scan inside a det coreset build, plus
    criterion-4 style sketches (partition, witness net, certified map)."""

    name = "highdim"
    kinds = ("coreset_build", "sketch")

    def __init__(self, seed, n=24, sketch_n=8, error_tuples=256):
        self.seed, self.n, self.sketch_n = seed, n, sketch_n
        self.error_tuples = error_tuples
        self.quality = _new_quality()

    def setup(self):
        from detclust import write_points

        rng = np.random.default_rng(self.seed)
        anchors = rng.standard_normal((2, 30)) * 8.0
        self.src = {
            "blobs": two_blobs(rng, self.n, 30, 6.0),
            "gauss": rng.standard_normal((self.sketch_n, 30)) * 2.0,
            "dup": anchors[rng.integers(0, 2, self.sketch_n)],
        }
        for key, pts in self.src.items():
            write_points(pts, f"{key}.csv")

    def ops(self):
        src = self.src["blobs"]
        n = src.shape[0]
        core = "blobs-det-z2.core"
        # center_grid would be 4^30 points here, so the error is replayed on
        # seeded pairs of data points instead of `coreset verify`
        tuples = sampled_tuples(src, np.random.default_rng(self.seed), self.error_tuples)
        ops = [Op("coreset_build", f"build det n={n} d=30 z=2",
                  ["coreset", "build", "--in", "blobs.csv",
                   "--out", core, "--k", K, "--z", 2, "--eps", EPS, "--alpha", ALPHA,
                   "--mode", "det"],
                  points=n, output=core,
                  check=coreset_check(n, self.quality, det=True, error_tuples=tuples,
                                      z=2, src=src))]
        for key in ("gauss", "dup"):
            sk = f"{key}.sketch.json"
            ops.append(Op("sketch", f"sketch build {key} n={self.sketch_n}",
                          ["sketch", "build", "--in", f"{key}.csv",
                           "--out", sk, "--k", K, "--z", 2, "--eps", EPS],
                          points=self.sketch_n, output=sk))
            ops.append(Op("sketch", f"sketch verify {key}",
                          ["sketch", "verify", "--sketch", sk], points=0,
                          check=_expect_passed))
        return ops

    def quality_metrics(self):
        return coreset_quality(self.quality)


def _expect_passed(stdout, _):
    if "verification passed" not in stdout:
        raise CheckFailed(f"verify did not pass: {stdout!r}")


WORKLOADS = {w.name: w for w in (Coreset2D, SolveSmall, HighDim)}
