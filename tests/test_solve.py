"""Partition enumeration, the exact solver, and both approximate solvers.

Frozen expectations come from the independent oracles in oracles.py:
brute partition enumeration for small exact costs and the planar
separating-line sweep for the 2-means instance.
"""

import itertools
import math

import numpy as np
import pytest

from detclust.errors import BudgetError, InputError
from detclust import geometry, solve
from detclust.bicriteria import lift_by_clusters
from detclust.datasets import gaussian_blobs
from detclust.geometry import (
    CenterSet,
    ClusteringParams,
    ExtendedPointSet,
    WeightedPointSet,
    min_power_dists,
    power_cost,
)
from detclust.partition import _restricted_growth_strings
from detclust.rings import euclidean_pipeline
from detclust.solve import (
    ENUM_MAX_K,
    ENUM_MAX_N,
    approx_solve,
    bicriteria_solve,
    exact_solve,
    partition_count,
)

from oracles import (
    exact_kz_cost,
    grid_search_1center,
    naive_power_cost,
    part_cost,
    planar_two_means_opt,
    sequential_newton_centers,
    sequential_polish,
    stirling_partial_sum,
)


def two_blob_points():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 2)) * 0.7
    b = rng.standard_normal((6, 2)) * 0.7 + [4.0, 0.0]
    return np.vstack([a, b])


def clique_points():
    # two far groups, each a pair of coincident anchors plus a tight shell
    rng = np.random.default_rng(21)
    blobs = []
    for cx in (0.0, 8.0):
        blobs.append(np.tile([cx, 0.0], (2, 1)))
        shell = np.tile([cx + 1.0, 0.0], (18, 1))
        blobs.append(shell + rng.standard_normal((18, 2)) * 1e-3)
    return np.vstack(blobs)


def test_partition_count_known_values():
    assert partition_count(4, 2) == 8
    assert partition_count(3, 3) == 5
    assert partition_count(10, 2) == 512
    assert partition_count(ENUM_MAX_N, ENUM_MAX_K) == 11188907


def test_partition_count_matches_stirling_oracle():
    for n in range(1, 11):
        for k in range(1, 5):
            assert partition_count(n, k) == stirling_partial_sum(n, k)


def test_restricted_growth_strings_canonical_order():
    seen = []
    for a in _restricted_growth_strings(6, 3):
        assert a[0] == 0
        for i in range(1, 6):
            assert a[i] <= max(a[:i]) + 1  # restricted growth
        assert max(a) <= 2
        seen.append(a)
    assert len(seen) == partition_count(6, 3)
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen)


class _TableBuilt(Exception):
    pass


def test_exact_solve_budget_raises_before_the_table(monkeypatch):
    def no_table(*args):
        raise _TableBuilt

    monkeypatch.setattr(solve, "_all_subset_costs", no_table)
    rng = np.random.default_rng(4)
    with pytest.raises(BudgetError) as ei:
        exact_solve(rng.standard_normal((15, 2)), ClusteringParams(k=2, z=2, epsilon=0.3))
    assert ei.value.required == partition_count(15, 2)
    assert ei.value.allowed == partition_count(ENUM_MAX_N, ENUM_MAX_K)
    with pytest.raises(BudgetError) as ei:
        exact_solve(rng.standard_normal((8, 2)), ClusteringParams(k=5, z=2, epsilon=0.3))
    assert ei.value.required == partition_count(8, 5)
    # the full budget itself goes on to build the table
    with pytest.raises(_TableBuilt):
        exact_solve(
            rng.standard_normal((ENUM_MAX_N, 2)),
            ClusteringParams(k=ENUM_MAX_K, z=2, epsilon=0.3),
        )


def test_exact_solve_names_an_overflowing_cost():
    # every clustering of these points costs inf, so none can win
    pts = gaussian_blobs(200, 2, blobs=2, seed=1, separation=6)[:9] * 2.0**600
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match="overflow"):
            exact_solve(pts, ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0))


def test_exact_trivial_when_k_covers_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    res = exact_solve(pts, ClusteringParams(k=3, z=2, epsilon=0.3))
    assert res.method == "exact"
    assert res.cost == 0.0
    assert res.enumeration_stats == 0
    assert np.array_equal(np.sort(res.centers.centers, axis=0), np.sort(pts, axis=0))


def test_exact_two_line_pairs():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    for z in (2, 3):
        res = exact_solve(pts, ClusteringParams(k=2, z=z, epsilon=0.3))
        assert res.cost == pytest.approx(4 * 0.5**z, abs=1e-12)
        assert sorted(res.centers.centers.ravel().tolist()) == pytest.approx(
            [0.5, 10.5]
        )
        assert res.enumeration_stats == partition_count(4, 2)


def test_exact_matches_brute_oracle_squared():
    for seed in (5, 6):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((7, 2)) * 1.5
        for k in (2, 3, 4):
            res = exact_solve(pts, ClusteringParams(k=k, z=2, epsilon=0.3))
            ref = exact_kz_cost(pts.tolist(), k, 2)
            assert res.cost == pytest.approx(ref, rel=1e-9)


def test_exact_matches_brute_oracle_median():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((7, 2)) * 1.5
    for k in (2, 3):
        res = exact_solve(pts, ClusteringParams(k=k, z=1, epsilon=0.3))
        ref = exact_kz_cost(pts.tolist(), k, 1)
        # both sides solve 1-medians iteratively, so allow a small band
        assert res.cost <= ref + 1e-7
        assert res.cost >= ref * (1.0 - 1e-7) - 1e-9


def test_exact_weighted_equals_expanded():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((6, 2))
    w = np.array([3.0, 1.0, 2.0, 1.0, 4.0, 2.0])
    expanded = np.repeat(pts, w.astype(int), axis=0)
    for z in (1, 2):
        p = ClusteringParams(k=2, z=z, epsilon=0.3)
        a = exact_solve((pts, w), p)
        b = exact_solve(expanded, p)
        assert a.cost == pytest.approx(b.cost, rel=1e-9)


def test_exact_solves_extended_input_at_extension_zero():
    P = ExtendedPointSet([[-1.0], [1.0], [3.0], [4.0]], extensions=[1.0, 2.0, 0.5, 0.1])
    res = exact_solve(P, ClusteringParams(k=2, z=2, epsilon=0.3))
    assert res.centers.centers.tolist() == [[0.0], [3.5]]
    assert res.cost == pytest.approx(7.76, rel=1e-12)
    # z = 2: the extensions add sum(e^2) whatever the partition
    rng = np.random.default_rng(6)
    base, ext = rng.standard_normal((7, 2)), rng.uniform(0.0, 1.0, 7)
    for k in (1, 2, 3):
        res = exact_solve(ExtendedPointSet(base, ext), ClusteringParams(k=k, z=2, epsilon=0.3))
        assert res.centers.centers.shape[1] == 2
        assert res.cost == pytest.approx(exact_kz_cost(base, k, 2) + (ext**2).sum(), rel=1e-9)
    res = exact_solve(ExtendedPointSet(base[:2], ext[:2]), ClusteringParams(k=2, z=2, epsilon=0.3))
    assert res.centers.centers.tolist() == base[:2].tolist()
    assert res.cost == pytest.approx((ext[:2] ** 2).sum(), rel=1e-12)


def test_bicriteria_refuses_extended_input_before_any_work(monkeypatch):
    def fail(*_):
        raise AssertionError("ran before the input check")

    monkeypatch.setattr(solve, "constant_factor_approx", fail)
    monkeypatch.setattr(solve, "_polish_all", fail)
    P = ExtendedPointSet([[-1.0], [1.0], [3.0], [4.0]], extensions=[1.0, 2.0, 0.5, 0.1])
    for k in (2, 5):
        with pytest.raises(InputError):
            bicriteria_solve(P, ClusteringParams(k=k, z=2, epsilon=0.3))


def test_exact_enumeration_stats_counts_partitions():
    # the scan's early exit skips the rest of a partition, never the count
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((7, 2))
    for k in (2, 3, 4):
        res = exact_solve(pts, ClusteringParams(k=k, z=2, epsilon=0.3))
        assert res.enumeration_stats == partition_count(7, k)


def _record_solves(monkeypatch):
    # every 1-center solve of the solve module goes through solve_1centers
    calls = []
    solver = solve.solve_1centers

    def recorded(base, ext, w, members, z):
        out = solver(base, ext, w, members, z)
        calls.append((members.copy(), out[2]))
        return out

    monkeypatch.setattr(solve, "solve_1centers", recorded)
    return calls


def test_exact_k1_solves_one_part_only(monkeypatch):
    # one partition exists at k=1, so no subset table: one 1-center solve
    pts = gaussian_blobs(10, 2, blobs=2, seed=1, separation=6)
    calls = _record_solves(monkeypatch)
    res = exact_solve(pts, ClusteringParams(k=1, z=3, epsilon=0.3))
    assert len(calls) == 1 and calls[0][0].tolist() == [[True] * 10]
    assert res.enumeration_stats == 1
    assert res.centers.centers.shape == (1, 2)
    assert res.cost == power_cost(pts, res.centers, 3)
    _, ref = grid_search_1center(pts.tolist(), 3)
    assert res.cost <= ref * (1 + 1e-9)
    assert res.cost >= ref * (1 - 1e-6)


def _line_points(seed, noise):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.standard_normal(8)) * 3.0
    return t[:, None] * np.array([1.0, 2.0]) + noise * rng.standard_normal((8, 2))


def _z1_table_cases():
    yield "blobs seed 1", gaussian_blobs(8, 2, blobs=2, seed=1, separation=6), None
    yield "blobs seed 7", gaussian_blobs(8, 2, blobs=2, seed=7, separation=6), None
    # even counts on a line: flat valleys with singular Hessians
    yield "collinear", _line_points(0, 0.0) + np.array([0.5, -1.0]), None
    # near-collinear: the Newton meets ill-conditioned Hessians here, and
    # one z=1 mask stays uncertified (its cost still meets the oracle)
    yield "near-collinear", _line_points(2, 1e-3), None
    dup = np.repeat(gaussian_blobs(4, 2, blobs=2, seed=4, separation=6), 2, axis=0)
    yield "duplicates", dup, None
    ext = np.abs(np.random.default_rng(0).standard_normal(8))
    yield "extended", gaussian_blobs(8, 2, blobs=2, seed=2, separation=6), ext


def test_z1_subset_table_matches_part_cost_oracle():
    # an extended point (b, e) against an extension-0 center is the pair
    # (b, +e), (b, -e) at half weight each: by symmetry the unconstrained
    # median of the mirrored pairs has last coordinate 0
    for name, pts, ext in _z1_table_cases():
        n = pts.shape[0]
        table = solve._all_subset_costs(pts, ext, np.ones(n), 1)[0]
        for mask in range(1, 1 << n):
            idx = [i for i in range(n) if mask >> i & 1]
            if ext is None:
                ref = part_cost(pts[idx].tolist(), None, 1)
            else:
                mirrored = [list(pts[i]) + [s * ext[i]] for i in idx for s in (1, -1)]
                ref = part_cost(mirrored, [0.5] * len(mirrored), 1)
            assert table[mask] == pytest.approx(ref, rel=1e-9, abs=1e-12), (name, mask)


def test_median_point_scores_every_member_of_a_table_row():
    # _median_point scores a row's _POINT_CANDIDATES members nearest the
    # iterate; a subset-table row has at most ENUM_MAX_N members, so all of
    # them are scored and the exact point optimum is never missed
    assert ENUM_MAX_N <= geometry._POINT_CANDIDATES


def test_z3_subset_table_matches_grid_oracle():
    # a sample of masks per instance against the coarse-to-fine grid; the
    # extended case uses the mirrored half-weight pairs, whose z=3 center
    # has last coordinate 0 by symmetry, as at z=1
    masks = [3, 77, 150, 201, 255]
    for name, pts, ext in _z1_table_cases():
        n = pts.shape[0]
        table = solve._all_subset_costs(pts, ext, np.ones(n), 3)[0]
        for mask in masks:
            idx = [i for i in range(n) if mask >> i & 1]
            if ext is None:
                _, ref = grid_search_1center(pts[idx].tolist(), 3)
            else:
                mirrored = [list(pts[i]) + [s * ext[i]] for i in idx for s in (1, -1)]
                _, ref = grid_search_1center(
                    mirrored, 3, [0.5] * len(mirrored), resolution=1e-3
                )
            assert table[mask] <= ref * (1 + 1e-12), (name, mask)
            assert table[mask] == pytest.approx(ref, rel=1e-6), (name, mask)


def test_z1_subset_table_certifies_slow_masks_in_few_passes(monkeypatch):
    # the slow masks used to run 3000 lockstep Weiszfeld rounds, one
    # distance table each (3123 tables for this instance); now every mask
    # is certified, with no per-mask solve
    tables = []
    kernel = geometry.sq_dist_matrix

    def counted_kernel(*args):
        tables.append(1)
        return kernel(*args)

    monkeypatch.setattr(geometry, "sq_dist_matrix", counted_kernel)
    calls = _record_solves(monkeypatch)
    pts = gaussian_blobs(8, 2, blobs=2, seed=1, separation=6)
    solve._all_subset_costs(pts, None, np.ones(8), 1)
    assert 0 < len(tables) < 1000
    assert len(calls) == 1 and calls[0][1].all()


def test_newton_medians_leaves_singular_rows_and_solves_the_rest():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                     [0.0, 1.0], [2.0, 3.0]])
    W = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0],   # collinear
                  [1.0, 0.0, 1.0, 0.0, 1.0, 1.0]])
    c = np.array([[0.5, 0.0], W[1] @ base / W[1].sum()])
    ext_sq = np.zeros(6)
    floor = np.full(2, 1e-12 * 5.0)

    def certified(z):
        def gap_ok(live, cm, sq):
            g = geometry._gradient_norm(W[live], cm, sq, base, floor[live], z)
            return g <= 1e-12

        return gap_ok

    def sq_at(cm):
        return geometry.sq_dist_matrix(cm, base) + ext_sq

    # z=1: the collinear row's Hessian is singular, and it stays in place
    out = geometry._newton_centers(W, c, base, ext_sq, floor, 1, certified(1))
    assert out[0].tobytes() == c[0].tobytes()
    assert certified(1)(np.array([1]), out[1:], sq_at(out[1:]))[0]
    cost = np.sqrt(((base[W[1] > 0] - out[1]) ** 2).sum(axis=1)).sum()
    assert cost == pytest.approx(part_cost(base[W[1] > 0].tolist(), None, 1), rel=1e-12)
    # z=3: the same collinear row is strictly convex, and the Newton solves it
    out = geometry._newton_centers(W, c, base, ext_sq, floor, 3, certified(3))
    assert certified(3)(np.arange(2), out, sq_at(out)).all()
    _, ref = grid_search_1center(base[:4].tolist(), 3)
    assert (np.sqrt(sq_at(out[:1])[0, :4]) ** 3).sum() <= ref * (1 + 1e-12)
    assert out[0, 1] == 0.0


def test_lockstep_polish_matches_the_sequential_polish(monkeypatch):
    # every init polished in lockstep gives the bytes of polishing them one
    # after the other, on the inits bicriteria_solve hands it
    handed = []
    lockstep = solve._polish_all

    def recorded(*args):
        handed.append(args)
        return lockstep(*args)

    monkeypatch.setattr(solve, "_polish_all", recorded)
    rng = np.random.default_rng(17)
    for d, z, k in itertools.product((1, 2, 3, 5, 9), (1, 2, 3), (2, 3)):
        for chunk in (solve._CHUNK, 40):
            monkeypatch.setattr(solve, "_CHUNK", chunk)  # 40: a few inits a group
            n = int(rng.integers(k + 3, 10))
            pts = rng.standard_normal((n, d)) + 4.0 * (np.arange(n) % k)[:, None]
            pts[-1] = pts[0]  # a duplicate: the subsets range over distinct points
            w = rng.uniform(0.2, 3.0, n)
            res = bicriteria_solve((pts, w), ClusteringParams(k=k, z=z, epsilon=0.3))
            want = sequential_polish(*handed.pop())
            assert res.centers.centers.tobytes() == want.tobytes()
            assert res.cost.hex() == power_cost((pts, w), want, z).hex()
            assert res.enumeration_stats == 1 + math.comb(n - 1, k)


def _newton_instances(rng, d, z):
    """Rows of random weights over a few blobs; z = 1 rows start within
    1e-12 .. 1e-6 of a data point, where the line search runs longest."""
    n, m = int(rng.integers(3, 12)), 6
    base = rng.standard_normal((n, d)) + 3.0 * (np.arange(n) % 2)[:, None]
    W = rng.uniform(0.5, 2.0, (m, n)) * (rng.random((m, n)) < 0.8)
    W[:, :2] = 1.0
    if z == 1:
        off = 10.0 ** rng.integers(-12, -5, (m, 1))
        c = base[rng.integers(0, n, m)] + off * rng.standard_normal((m, d))
    else:
        c = W @ base / W.sum(axis=1)[:, None] + rng.standard_normal((m, d))
    ext_sq = rng.uniform(0.0, 0.5, n) ** 2 if rng.random() < 0.3 else np.zeros(n)
    return W, c, base, ext_sq, np.full(m, 1e-12)


def test_one_table_armijo_matches_the_sequential_line_search(monkeypatch):
    rng = np.random.default_rng(23)

    def never(live, cm, sq):
        return np.zeros(live.size, dtype=bool)

    exhausted = []
    for chunk in (geometry._CHUNK, 60):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)  # 60: a few pairs a table
        for d in (1, 2, 3, 5):
            for z in (1, 3):
                for _ in range(4):
                    W, c, base, ext_sq, floor = _newton_instances(rng, d, z)

                    def certified(live, cm, sq):
                        g = geometry._gradient_norm(W[live], cm, sq, base, floor[live], z)
                        return g <= 1e-12 * W[live].sum(axis=1)

                    for cert in (certified, never):
                        want = sequential_newton_centers(
                            W, c, base, ext_sq, floor, z, cert, exhausted
                        )
                        out = geometry._newton_centers(W, c, base, ext_sq, floor, z, cert)
                        assert out.tobytes() == want.tobytes()
    assert exhausted  # some row rejected all 40 step sizes


def test_approx_identical_blobs_is_exactly_zero():
    pts = np.vstack([np.tile([0.0, 0.0], (8, 1)), np.tile([5.0, 1.0], (8, 1))])
    res = approx_solve(pts, ClusteringParams(k=2, z=2, epsilon=0.3))
    assert res.method == "ptas"
    assert not res.downgraded
    assert res.cost == 0.0


def test_approx_accepts_unit_weight_forms_and_rejects_weights():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((10, 2)) * 2.0
    p = ClusteringParams(k=2, z=2, epsilon=0.3)
    ref = approx_solve(pts, p)
    for P in (WeightedPointSet(pts), (pts, np.ones(10))):
        res = approx_solve(P, p)
        assert res.cost == ref.cost
        assert np.array_equal(res.centers.centers, ref.centers.centers)
    w = np.ones(10)
    w[3] = 2.0
    for P in (WeightedPointSet(pts, w), (pts, w)):
        with pytest.raises(InputError):
            approx_solve(P, p)


def test_approx_sandwich_on_generic_small_instance():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((10, 2)) * 2.0
    eps = 0.3
    for z in (1, 2):
        p = ClusteringParams(k=2, z=z, epsilon=eps)
        ex = exact_solve(pts, p)
        ap = approx_solve(pts, p)
        assert ap.method == "ptas"
        assert ap.cost >= ex.cost - 1e-9
        assert ap.cost <= (1 + eps) / (1 - eps) * ex.cost + 1e-9


def test_approx_clique_meets_planar_oracle():
    pts = clique_points()
    eps = 0.3
    res = approx_solve(pts, ClusteringParams(k=2, z=2, epsilon=eps))
    opt = planar_two_means_opt(pts)
    assert res.method == "ptas"
    assert not res.downgraded
    assert res.cost >= opt - 1e-9
    assert res.cost <= (1 + eps) / (1 - eps) * opt + 1e-9
    assert res.cost == pytest.approx(3.599351414827654, rel=1e-9)


def test_approx_downgrades_past_enumeration_budget():
    rng = np.random.default_rng(0)
    pts = np.vstack(
        [rng.standard_normal((100, 2)), rng.standard_normal((100, 2)) + [6.0, 0.0]]
    )
    p = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    res = approx_solve(pts, p)
    assert res.method == "bicriteria"
    assert res.downgraded
    assert euclidean_pipeline(pts, p).coreset.size > ENUM_MAX_N
    direct = bicriteria_solve(pts, p)
    assert res.cost == direct.cost
    assert np.array_equal(res.centers.centers, direct.centers.centers)


def test_bicriteria_stays_in_ptas_band_on_small_instances():
    eps = 0.3
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        pts = rng.standard_normal((9, 2)) * 2.0
        for z in (1, 2):
            p = ClusteringParams(k=2, z=z, epsilon=eps)
            ex = exact_solve(pts, p)
            bc = bicriteria_solve(pts, p)
            assert bc.cost >= ex.cost - 1e-9
            assert bc.cost <= (1 + eps) * ex.cost + 1e-9


def test_bicriteria_returns_exactly_k_and_counts_inits():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((7, 2))
    res = bicriteria_solve(pts, ClusteringParams(k=3, z=2, epsilon=0.3))
    assert res.method == "bicriteria"
    assert res.centers.k == 3
    assert res.enumeration_stats == 1 + math.comb(7, 3)


def test_bicriteria_solves_each_distinct_cluster_once(monkeypatch):
    # the polish of every init recenters on the same few clusters; one
    # memo per call keeps it to one 1-center solve per member set
    calls = _record_solves(monkeypatch)
    for seed, k in ((3, 2), (1, 2), (2, 3)):
        pts = gaussian_blobs(8, 2, blobs=2, seed=seed, separation=6)
        calls.clear()
        res = bicriteria_solve(pts, ClusteringParams(k=k, z=1, epsilon=0.3))
        sets = [row.tobytes() for members, _ in calls for row in members]
        assert sets and len(sets) == len(set(sets))
        assert res.enumeration_stats == 1 + math.comb(8, k)


def ptas_steps(pts, p, res):
    """approx_solve's pipeline, winning sketched centers and induced
    labels, replayed from euclidean_pipeline and solve._best_partition;
    lifting the labels gives res's centers, bit for bit."""
    pipe = euclidean_pipeline(pts, p)
    core = pipe.coreset
    rows = core.points
    centers_sk = solve._best_partition(
        core.size, p.k, rows[:, :-1], rows[:, -1], core.weights, p.z
    )[0]
    base = pts if pipe.sketch is None else pipe.sketch.sketched_points().points
    labels = min_power_dists(base, centers_sk, p.z)[1]
    lifted = lift_by_clusters(pts, labels, p.z)
    assert res.method == "ptas" and lifted.tobytes() == res.centers.centers.tobytes()
    return pipe, centers_sk, labels


def test_lift_never_costs_more_than_sketched_centers():
    pts = two_blob_points()
    for z in (1, 2):
        p = ClusteringParams(k=2, z=z, epsilon=0.3)
        res = approx_solve(pts, p)
        pipe, centers_sk, _ = ptas_steps(pts, p, res)
        assert pipe.sketch is None
        direct = power_cost(pts, CenterSet(centers_sk), z)
        assert res.cost <= direct + 1e-9


def test_result_cost_matches_returned_centers():
    pts = two_blob_points()
    for z in (1, 2):
        p = ClusteringParams(k=2, z=z, epsilon=0.3)
        for res in (
            exact_solve(pts, p),
            approx_solve(pts, p),
            bicriteria_solve(pts, p),
        ):
            ref = naive_power_cost(pts.tolist(), res.centers.centers.tolist(), z)
            assert res.cost == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_all_methods_agree_on_separated_blobs():
    pts = two_blob_points()
    frozen = {1: 10.452551195264288, 2: 16.30953980984015}
    for z in (1, 2):
        p = ClusteringParams(k=2, z=z, epsilon=0.3)
        ex = exact_solve(pts, p)
        ap = approx_solve(pts, p)
        bc = bicriteria_solve(pts, p)
        assert ex.cost == pytest.approx(frozen[z], rel=1e-9)
        assert ap.cost == pytest.approx(ex.cost, rel=1e-12)
        assert bc.cost == pytest.approx(ex.cost, rel=1e-12)


def test_approx_is_deterministic_across_reruns():
    pts = clique_points()
    p = ClusteringParams(k=2, z=2, epsilon=0.3)
    r1, r2 = approx_solve(pts, p), approx_solve(pts, p)
    assert r1.cost == r2.cost
    assert r1.centers.centers.tobytes() == r2.centers.centers.tobytes()
    assert np.array_equal(ptas_steps(pts, p, r1)[2], ptas_steps(pts, p, r2)[2])


def test_high_dim_duplicates_track_weighted_exact():
    # ten distinct locations in d=30, six copies each: the sketched
    # pipeline must stay close to the exact weighted optimum
    rng = np.random.default_rng(13)
    locs = rng.standard_normal((10, 30)) * 3.0
    dup = np.repeat(locs, 6, axis=0)
    eps = 0.3
    p = ClusteringParams(k=2, z=2, epsilon=eps)
    res = approx_solve(dup, p)
    assert ptas_steps(dup, p, res)[0].sketch is not None
    exw = exact_solve((locs, np.full(10, 6.0)), p)
    assert res.cost >= exw.cost - 1e-9
    assert res.cost <= (1 + 5 * eps) * exw.cost + 1e-9


def test_tuple_weights_are_validated():
    # a (points, weights) pair is checked like a WeightedPointSet
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    p = ClusteringParams(k=1, z=2, epsilon=0.3)
    for bad in ([-1.0, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0, -3.0]):
        with pytest.raises(InputError):
            power_cost((pts, bad), pts[:1], 2)
        with pytest.raises(InputError):
            exact_solve((pts, bad), p)
        with pytest.raises(InputError):
            bicriteria_solve((pts, bad), p)
