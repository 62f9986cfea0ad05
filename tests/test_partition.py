import itertools

import numpy as np
import pytest

import detclust.partition as partition
from detclust import InputError
from detclust.geometry import ClusteringParams, center_grid, power_cost
from detclust.partition import build, verify_partition_coreset

from oracles import naive_extended_cost, naive_power_cost, set_partitions_up_to_k


def test_build_identical_points_single_stable_node():
    pts = np.tile([[2.0, -1.0]], (6, 1))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    res = build(pts, params)
    assert res.size == 1
    assert np.allclose(res.representatives[0], [2.0, -1.0])
    assert len(res.recursion_trace) == 1
    node = res.recursion_trace[0]
    assert node.reason == "stable" and node.depth == 0 and node.size == 6
    assert (res.extensions == 0.0).all()


def test_build_singletons_leaves():
    pts = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    params = ClusteringParams(k=3, z=2, epsilon=0.25)
    res = build(pts, params)
    reasons = [t.reason for t in res.recursion_trace]
    assert reasons[0] == "split"
    assert reasons.count("leaf") == 3
    # each point represents itself exactly, extension 0
    assert np.array_equal(
        np.sort(res.representatives[res.rep_index], axis=0), np.sort(pts, axis=0)
    )
    assert (res.extensions == 0.0).all()
    rep = verify_partition_coreset(pts, res, params, center_grid(pts, per_axis=3))
    assert rep.max_relative_error == 0.0


def test_build_root_uses_optimal_1center():
    from detclust.geometry import solve_1center

    rng = np.random.default_rng(2)
    pts = rng.standard_normal((9, 2))
    params = ClusteringParams(k=1, z=2, epsilon=0.25)
    res = build(pts, params)
    root = res.recursion_trace[0]
    m = solve_1center(pts, 2)
    assert root.cost_to_m == power_cost(pts, m[None, :], 2)
    assert root.parent == -1
    # the bicriteria step may down the line beat a single center by more
    # than beta even for k=1, so the root is allowed to split; stable
    # would only be forced if the root cost were zero
    assert root.reason in ("stable", "split")


def test_build_stable_collapse_symmetric_pair_exact(monkeypatch):
    # z=2: a stable node collapses {p, 2m - p} onto m and keeps |p - m| as
    # the extension, which is cost-exact for every center
    monkeypatch.setattr(partition, "BETA", 1.0)  # every node stops at once
    p, m = np.array([4.0, 5.0]), np.array([1.0, 1.0])
    pts = np.array([p, 2 * m - p])
    res = build(pts, ClusteringParams(k=1, z=2, epsilon=0.25))
    assert [t.reason for t in res.recursion_trace] == ["stable"]
    assert np.array_equal(res.representatives, [m])
    assert np.array_equal(res.extensions, [5.0, 5.0])
    reps = res.representatives[res.rep_index]
    for c in ([0.0, 7.0], [-2.0, 3.0], [5.0, -1.0]):
        c = np.array(c)
        before = ((pts - c) ** 2).sum()
        after = ((reps - c) ** 2).sum() + (res.extensions**2).sum()
        assert before == after  # integer coordinates, exact in floats


def test_build_single_point_is_leaf():
    res = build(np.array([[1.5, -2.0]]), ClusteringParams(k=2, z=2, epsilon=0.25))
    assert res.size == 1
    assert res.recursion_trace[0].reason == "leaf"
    assert res.extensions[0] == 0.0


def test_build_mapping_total_and_counts_match():
    rng = np.random.default_rng(8)
    pts = np.vstack(
        [rng.standard_normal((7, 2)), rng.standard_normal((7, 2)) + [12, 0]]
    )
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    res = build(pts, params)
    assert res.rep_index.shape == (14,)
    assert (res.rep_index >= 0).all() and (res.rep_index < res.size).all()
    assert (res.extensions >= 0.0).all()
    assert res.size <= len(res.recursion_trace)
    # stable rows carry the exact residual distances
    for t in res.recursion_trace:
        assert t.reason in ("stable", "max-depth", "leaf", "split")
        assert t.depth <= partition.GAMMA


def test_build_depth_capped(monkeypatch):
    monkeypatch.setattr(partition, "BETA", 0.01)
    monkeypatch.setattr(partition, "GAMMA", 1)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((30, 2)) * 5.0
    params = ClusteringParams(k=2, z=1, epsilon=0.25)
    res = build(pts, params)
    assert max(t.depth for t in res.recursion_trace) <= 1
    assert any(t.reason in ("max-depth", "stable", "leaf") for t in res.recursion_trace)


def test_build_child_costs_decrease():
    rng = np.random.default_rng(5)
    pts = np.vstack(
        [
            rng.standard_normal((10, 2)),
            rng.standard_normal((10, 2)) + [9, 0],
            rng.standard_normal((10, 2)) + [0, 9],
        ]
    )
    params = ClusteringParams(k=3, z=2, epsilon=0.25)
    res = build(pts, params)
    beta = partition.BETA
    trace = res.recursion_trace
    by_parent = {}
    for i, t in enumerate(trace):
        by_parent.setdefault(t.parent, []).append(t)
    for i, t in enumerate(trace):
        if t.reason != "split":
            continue
        kids = by_parent.get(i, [])
        assert kids, "split node with no recorded children"
        child_total = sum(c.cost_to_m for c in kids)
        assert child_total <= (1 - beta) * t.cost_to_m + 1e-9 * max(t.cost_to_m, 1.0)


def test_build_stable_certificate_recheck():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((16, 2)) * 2.0
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    res = build(pts, params)
    beta = partition.BETA
    # group points by representative; every stable node's certificate is
    # checkable from the result: cost to m minus a fresh bicriteria cost
    from detclust.bicriteria import bicriteria

    groups = {}
    for i, (r, e) in enumerate(zip(res.rep_index, res.extensions)):
        groups.setdefault(int(r), []).append(i)
    stable_sizes = sorted(
        t.size for t in res.recursion_trace if t.reason == "stable" and not t.truncated
    )
    for r, idx in groups.items():
        if len(idx) == 1:
            continue
        m = res.representatives[r]
        sub = pts[idx]
        if not np.allclose(np.sqrt(((sub - m) ** 2).sum(axis=1)), res.extensions[idx]):
            continue  # not a stable emission (max-depth keeps extension 0)
        cost_m = power_cost(sub, m[None, :], 2)
        node_params = ClusteringParams(k=2, z=2, epsilon=min(beta, 1 / 3))
        again = bicriteria(sub, node_params)
        assert cost_m - again.cost <= beta * cost_m + 1e-9 * max(cost_m, 1.0)
        assert len(idx) in stable_sizes


def test_build_rejects_weighted_or_empty():
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    with pytest.raises(InputError):
        build((np.ones((3, 2)), np.array([1.0, 2.0, 1.0])), params)
    with pytest.raises(Exception):
        build(np.empty((0, 2)), params)


def test_verify_on_symmetric_pairs_exact(monkeypatch):
    # two symmetric pairs around distinct midpoints, k=2, z=2: the collapse
    # is exact for every partition and every center tuple
    m1, m2 = np.array([0.0, 0.0]), np.array([10.0, 0.0])
    d1, d2 = np.array([1.0, 2.0]), np.array([-2.0, 1.0])
    pts = np.array([m1 + d1, m1 - d1, m2 + d2, m2 - d2])
    params = ClusteringParams(k=2, z=2, epsilon=0.2)
    monkeypatch.setattr(partition, "BETA", 0.3)
    res = build(pts, params)
    grid = np.array([[0.0, 0.0], [10.0, 0.0], [3.0, -2.0], [7.0, 5.0]])
    # integer-coordinate samples make both cost sides float-exact
    if all(t.reason in ("stable", "leaf") for t in res.recursion_trace):
        report = verify_partition_coreset(pts, res, params, grid)
        assert report.max_relative_error == 0.0
        assert report.witness is None


def test_verify_matches_naive_recomputation():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((6, 2))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    res = build(pts, params)
    grid = center_grid(pts, per_axis=2)
    report = verify_partition_coreset(pts, res, params, grid)

    reps = res.representatives[res.rep_index]
    worst = 0.0
    for rgs in set_partitions_up_to_k(6, 2):
        parts = sorted(set(rgs))
        for tup in itertools.product(range(len(grid)), repeat=len(parts)):
            orig = core = 0.0
            for part, ci in zip(parts, tup):
                sel = [i for i in range(6) if rgs[i] == part]
                orig += naive_power_cost(pts[sel], [grid[ci]], 2)
                core += naive_extended_cost(
                    reps[sel], res.extensions[sel], [grid[ci]], 2
                )
            if orig == 0:
                continue
            worst = max(worst, abs(core - orig) / orig)
    assert report.max_relative_error == pytest.approx(worst, rel=1e-9, abs=1e-12)


def test_verify_requires_enough_centers():
    pts = np.zeros((4, 2))
    params = ClusteringParams(k=3, z=2, epsilon=0.25)
    res = build(pts, params)
    with pytest.raises(InputError):
        verify_partition_coreset(pts, res, params, np.zeros((2, 2)))


def test_verify_exhaustive_size_guard():
    pts = np.zeros((13, 2))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    res = build(pts, params)
    with pytest.raises(InputError):
        verify_partition_coreset(pts, res, params, np.zeros((3, 2)))


def test_verify_sampled_mode_runs():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((20, 2))
    params = ClusteringParams(k=2, z=1, epsilon=0.25)
    res = build(pts, params)
    grid = center_grid(pts, per_axis=2)
    rep = verify_partition_coreset(
        pts, res, params, grid, all_partitions=False, samples=50, seed=3
    )
    assert rep.checked > 0
    again = verify_partition_coreset(
        pts, res, params, grid, all_partitions=False, samples=50, seed=3
    )
    assert rep.max_relative_error == again.max_relative_error


def test_practical_mode_error_within_eps_when_all_stable():
    # random instances; keep those whose every node stopped stable or leaf
    # (no truncation, no max-depth): the verifier must stay within eps
    rng = np.random.default_rng(77)
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    qualifying = 0
    for trial in range(12):
        pts = rng.standard_normal((8, 2)) * rng.uniform(0.5, 2.0)
        res = build(pts, params)
        if res.truncated:
            continue
        if not all(t.reason in ("stable", "leaf", "split") for t in res.recursion_trace):
            continue
        grid = center_grid(pts, per_axis=3)
        report = verify_partition_coreset(pts, res, params, grid)
        assert report.max_relative_error <= params.epsilon
        qualifying += 1
    assert qualifying >= 3


def test_build_rerun_bit_identical():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((15, 2)) * 3.0
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    a = build(pts, params)
    b = build(pts, params)
    assert np.array_equal(a.representatives, b.representatives)
    assert np.array_equal(a.rep_index, b.rep_index)
    assert np.array_equal(a.extensions, b.extensions)
    assert a.recursion_trace == b.recursion_trace
