import math
from fractions import Fraction

import numpy as np
import pytest

from detclust.bicriteria import candidate_centers, greedy_augment
from detclust.epsapprox import halving_approx, ball_test_family
from detclust.errors import InputError
from detclust.geometry import (
    CenterSet,
    ClusteringParams,
    center_grid,
    power_cost,
    sq_dist_matrix,
)
from detclust.rings import (
    RING_ZERO,
    OffsetCoreset,
    SeedingResult,
    build_instance_IG,
    epsilon_prime,
    euclidean_pipeline,
    greedy_seeding,
    ring_coreset,
    ring_decompose,
    ring_thresholds,
    tiny_huge_masks,
    verify_offset_coreset,
)
from detclust.summation import tree_sum

from oracles import naive_power_cost


def two_blob_instance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 2)) * 0.8
    b = rng.standard_normal((100, 2)) * 0.8 + np.array([6.0, 0.0])
    return np.vstack([a, b]), ClusteringParams(k=2, z=2, epsilon=0.3)


def hand_seeding(centers, cost_G, c_A=2.0, status="locally-stable"):
    C = np.asarray(centers, dtype=np.float64)
    return SeedingResult(
        centers=CenterSet(C),
        status=status,
        c_A=c_A,
        cost_G=cost_G,
        baseline_size=C.shape[0],
    )


def outlier_column_instance():
    # one cluster at 0: five points near, a hundred at distance 1, one far
    # enough out that its ring clears the outer threshold (z/eps)^{2z} = 9
    pts = np.concatenate([np.full(5, 0.02), np.full(100, 1.0), [25.0]])
    pts = pts[:, None]
    params = ClusteringParams(k=1, z=1, epsilon=1.0 / 3.0)
    seeding = hand_seeding([[0.0]], cost_G=float(pts.sum()))
    return pts, params, seeding


def test_epsilon_prime_clamps_at_practical_eps():
    raw = epsilon_prime(1, 0.3, clamp=False)
    assert abs(raw - 20.0 * 8.0 * 0.09 / math.log(4.0 / 0.3)) <= 1e-12
    assert 5.55 < raw < 5.57
    assert epsilon_prime(1, 0.3) == 0.3


def test_epsilon_prime_unclamped_small_eps():
    val = epsilon_prime(1, 0.001)
    assert abs(val - 1.6e-4 / math.log(4000.0)) <= 1e-18
    assert 1.92e-5 < val < 1.94e-5
    assert val == epsilon_prime(1, 0.001, clamp=False)


def test_epsilon_prime_monotone_below_clamp():
    grid = np.linspace(1e-4, 1e-2, 40)
    vals = [epsilon_prime(2, e, clamp=False) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_epsilon_prime_validation():
    with pytest.raises(InputError):
        epsilon_prime(0, 0.1)
    with pytest.raises(InputError):
        epsilon_prime(1, 0.0)
    with pytest.raises(InputError):
        epsilon_prime(1, 0.34)


def test_ring_thresholds_formula():
    t_in, t_out = ring_thresholds(1, 0.5)
    assert t_in == 0.5
    assert t_out == 4.0


def test_bucket_of_five_delta_point():
    # nine unit-distance points and one at 9 give Delta = 1.8, so the far
    # point sits at exactly 5*Delta and must land in ring j=2 (4 <= 5 < 8)
    pts = np.concatenate([np.ones(9), [9.0]])[:, None]
    params = ClusteringParams(k=1, z=1, epsilon=1.0 / 3.0)
    seeding = hand_seeding([[0.0]], cost_G=float(pts.sum()))
    rings = ring_decompose(pts, seeding, params)
    assert abs(rings.deltas[0] - 1.8) <= 1e-15
    assert rings.classes[(0, 2)] == "main"
    assert rings.buckets[(0, 2)].tolist() == [9]
    assert rings.buckets[(0, -1)].tolist() == list(range(9))


def test_bucket_membership_half_open():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params, alpha=2.0)
    assert seeding.status == "locally-stable"
    rings = ring_decompose(pts, seeding, params)
    seen = []
    for (i, j), idx in rings.buckets.items():
        seen.extend(idx.tolist())
        c = rings.costs[idx]
        if j == RING_ZERO:
            assert (c == 0.0).all()
            continue
        lo = 2.0**j * rings.deltas[i]
        hi = 2.0 ** (j + 1) * rings.deltas[i]
        assert (c >= lo).all() and (c < hi).all()
        assert (rings.labels[idx] == i).all()
    assert sorted(seen) == list(range(pts.shape[0]))


def test_inner_outer_point_level_thresholds():
    pts, params, seeding = outlier_column_instance()
    rings = ring_decompose(pts, seeding, params)
    t_in, t_out = ring_thresholds(params.z, params.epsilon)
    inner = rings.indices_of("inner")
    outer = rings.indices_of("outer")
    assert inner.size == 5 and outer.size == 1
    lbl = rings.labels
    assert (rings.costs[inner] <= t_in * rings.deltas[lbl[inner]]).all()
    assert (rings.costs[outer] >= t_out * rings.deltas[lbl[outer]]).all()
    # Markov: outer mass of the cluster is at most (eps/z)^{2z} of it
    assert outer.size <= (1.0 / t_out) * pts.shape[0]


def test_zero_cost_cluster_is_inner():
    pts = np.vstack([np.zeros((5, 2)), np.array([[4.0, 1.0]] * 3)])
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    seeding = hand_seeding([[0.0, 0.0], [4.0, 1.0]], cost_G=0.0)
    rings = ring_decompose(pts, seeding, params)
    assert rings.classes[(0, RING_ZERO)] == "inner"
    assert rings.buckets[(0, RING_ZERO)].tolist() == [0, 1, 2, 3, 4]
    assert rings.classes[(1, RING_ZERO)] == "inner"


def test_ring_decompose_validation():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params, alpha=2.0)
    with pytest.raises(InputError):
        ring_decompose((pts, np.full(pts.shape[0], 2.0)), seeding, params)
    low = hand_seeding([[0.0, 0.0]], cost_G=0.0, status="low-cost")
    with pytest.raises(InputError):
        ring_decompose(pts, low, params)


def test_markov_bound_across_instances():
    rng = np.random.default_rng(77)
    stable = 0
    for trial in range(20):
        k = 2 + trial % 2
        z = 1 + trial % 2
        n = 60 + 10 * (trial % 3)
        centers = rng.uniform(-4, 4, size=(k, 2))
        pts = np.vstack(
            [rng.standard_normal((n // k, 2)) * 0.5 + c for c in centers]
        )
        params = ClusteringParams(k=k, z=z, epsilon=0.3)
        seeding = greedy_seeding(pts, params, alpha=2.0)
        if seeding.status != "locally-stable":
            continue
        stable += 1
        rings = ring_decompose(pts, seeding, params)
        bound = (params.epsilon / z) ** (2 * z)
        for i in range(seeding.centers.centers.shape[0]):
            ci = int((rings.labels == i).sum())
            ro = sum(
                idx.size
                for (ii, j), idx in rings.buckets.items()
                if ii == i and rings.classes[(ii, j)] == "outer"
            )
            assert ro <= bound * ci
    assert stable >= 5


def test_instance_weight_conservation_and_offset():
    pts, params, seeding = outlier_column_instance()
    rings = ring_decompose(pts, seeding, params)
    inst, F = build_instance_IG(pts, rings, seeding)
    assert abs(float(inst.weights.sum()) - pts.shape[0]) == 0.0
    outer = rings.indices_of("outer")
    recount = naive_power_cost(pts[outer], seeding.centers.centers, params.z)
    assert F > 0.0
    assert abs(F - recount) <= 1e-12 * recount
    # removed inner and outer counts land on the cluster center
    assert inst.weights[0] == 6.0
    assert inst.points.shape[0] == 1 + 100


def test_no_outer_points_means_zero_offset():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params, alpha=2.0)
    rings = ring_decompose(pts, seeding, params)
    assert rings.indices_of("outer").size == 0
    _, F = build_instance_IG(pts, rings, seeding)
    assert F == 0.0


def test_identical_blobs_collapse_to_weighted_centers():
    pts = np.vstack([np.tile([1.0, 2.0], (5, 1)), np.tile([8.0, -1.0], (7, 1))])
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    seeding = hand_seeding([[1.0, 2.0], [8.0, -1.0]], cost_G=0.0)
    rings = ring_decompose(pts, seeding, params)
    inst, F = build_instance_IG(pts, rings, seeding)
    assert F == 0.0
    assert inst.points.shape[0] == 2
    assert sorted(inst.weights.tolist()) == [5.0, 7.0]


def test_greedy_seeding_low_cost_on_identical_blobs():
    pts = np.vstack([np.tile([0.0, 0.0], (7, 1)), np.tile([5.0, 5.0], (7, 1))])
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    seeding = greedy_seeding(pts, params)
    assert seeding.status == "low-cost"
    assert seeding.cost_G == 0.0


def test_greedy_center_count_bound():
    # |G| <= |A| + ceil(c_A k ln(1/eps)/eps) on random instances
    rng = np.random.default_rng(123)
    for trial in range(50):
        k = 1 + trial % 3
        z = 1 + trial % 2
        eps = (0.2, 1.0 / 3.0)[trial % 2]
        pts = rng.uniform(-3, 3, size=(40, 2))
        params = ClusteringParams(k=k, z=z, epsilon=eps)
        res = greedy_seeding(pts, params, alpha=(2.0, 4.0)[trial % 2])
        cap = math.ceil(res.c_A * k * math.log(1.0 / eps) / eps)
        size = res.centers.centers.shape[0]
        assert size <= res.baseline_size + cap


def test_greedy_cost_sequence_contracts():
    pts, params = two_blob_instance()
    A = np.array([[0.0, 0.0], [6.0, 0.0]])
    cands = candidate_centers(pts, params, A, alpha=2.0)
    res, history = greedy_augment(pts, A, cands, params, alpha=2.0, full_output=True)
    assert len(history) >= 2
    f = params.epsilon / (res.alpha_used * params.k)
    for prev, cur in zip(history, history[1:]):
        assert cur <= (1.0 - f) * prev * (1.0 + 1e-12)


def test_locally_stable_has_no_improving_candidate():
    # greedy growth from a fixed baseline A over A's candidate family
    pts, params = two_blob_instance()
    A = np.array([[0.0, 0.0], [6.0, 0.0]])
    family = candidate_centers(pts, params, A, alpha=2.0)
    res = greedy_augment(pts, A, family, params, alpha=2.0)
    assert res.stopped_reason == "no-improving-center"
    G = res.centers.centers
    cost_G = power_cost(pts, G, params.z)
    f = params.epsilon / (res.alpha_used * params.k)
    cands = family.points
    base_sq = sq_dist_matrix(pts, G).min(axis=1)
    cand_sq = sq_dist_matrix(pts, cands)
    for t in range(cands.shape[0]):
        merged = np.minimum(base_sq, cand_sq[:, t])
        new_cost = float(tree_sum(merged ** (params.z / 2.0)))
        assert new_cost > (1.0 - f) * cost_G * (1.0 - 1e-12)


def test_ring_coreset_low_cost_branch_exact():
    pts = np.vstack([np.tile([0.0, 0.0], (7, 1)), np.tile([5.0, 5.0], (5, 1))])
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    core = ring_coreset(pts, params)
    assert core.offset == 0.0
    assert core.size == 2
    assert sorted(core.weight_num.tolist()) == [5, 7]
    assert (core.weight_den == 1).all()
    assert all(tag[0] == "center" for tag in core.provenance)
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=3))
    assert rep.max_relative_error == 0.0


def test_ring_coreset_deterministic_meets_eps():
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params, alpha=2.0)
    assert core.size < pts.shape[0]
    assert core.total_weight == Fraction(200)
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=4))
    assert rep.checked == math.comb(16, 2)
    assert rep.max_relative_error <= params.epsilon
    assert rep.witness is None


def test_ring_coreset_low_cost_default_alpha_meets_eps():
    # the default wide alpha cap drives the greedy phase all the way down
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params)
    assert core.offset == 0.0
    assert all(tag[0] == "center" for tag in core.provenance)
    assert core.total_weight == Fraction(200)
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=3))
    assert rep.max_relative_error <= params.epsilon


def test_ring_coreset_deterministic_rerun_identical():
    pts, params = two_blob_instance()
    a = ring_coreset(pts, params, alpha=2.0)
    b = ring_coreset(pts, params, alpha=2.0)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weight_num, b.weight_num)
    assert np.array_equal(a.weight_den, b.weight_den)
    assert a.offset == b.offset
    assert a.provenance == b.provenance


def test_ring_coreset_randomized_seed_replay():
    # at this scale the VC sampling bound can exceed ring sizes, in which
    # case whole rings are kept; the contract is replayability, not churn
    pts, params = two_blob_instance()
    a = ring_coreset(pts, params, mode="randomized", seed=42, alpha=2.0)
    b = ring_coreset(pts, params, mode="randomized", seed=42, alpha=2.0)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weight_num, b.weight_num)
    assert a.total_weight == Fraction(200)
    rep = verify_offset_coreset(pts, a, params, center_grid(pts, per_axis=4))
    assert rep.max_relative_error <= params.epsilon


def test_ring_coreset_validation():
    pts, params = two_blob_instance()
    with pytest.raises(InputError):
        ring_coreset(pts, params, mode="stochastic")
    with pytest.raises(InputError):
        ring_coreset((pts, np.full(pts.shape[0], 3.0)), params)


def test_offset_coreset_type_validation():
    with pytest.raises(InputError):
        OffsetCoreset(
            points=np.zeros((1, 2)),
            weight_num=np.array([1]),
            weight_den=np.array([1]),
            offset=-0.5,
            provenance=(("center", 0),),
        )
    with pytest.raises(InputError):
        OffsetCoreset(
            points=np.zeros((1, 2)),
            weight_num=np.array([0]),
            weight_den=np.array([1]),
            offset=0.0,
            provenance=(("center", 0),),
        )


def test_verifier_on_exact_copy_reports_zero():
    pts, params = two_blob_instance()
    core = OffsetCoreset(
        points=pts.copy(),
        weight_num=np.ones(pts.shape[0], dtype=np.int64),
        weight_den=np.ones(pts.shape[0], dtype=np.int64),
        offset=0.0,
        provenance=tuple(("center", i) for i in range(pts.shape[0])),
    )
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=3))
    assert rep.max_relative_error == 0.0
    assert rep.witness is None


def test_verifier_budgets_and_sampling():
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params, alpha=2.0)
    with pytest.raises(InputError):
        verify_offset_coreset(pts, core, params, pts[:1])
    with pytest.raises(InputError):
        verify_offset_coreset(pts, core, params, pts[:30], max_tuples=100)
    a = verify_offset_coreset(
        pts, core, params, center_grid(pts, per_axis=5),
        exhaustive_tuples=False, samples=40, seed=9,
    )
    b = verify_offset_coreset(
        pts, core, params, center_grid(pts, per_axis=5),
        exhaustive_tuples=False, samples=40, seed=9,
    )
    assert a.max_relative_error == b.max_relative_error
    assert a.checked == b.checked <= 40
    assert a.max_relative_error <= params.epsilon


def main_ring_with_at_least(pts, params, rings, size):
    for (i, j), idx in sorted(rings.buckets.items()):
        if rings.classes[(i, j)] == "main" and idx.size >= size:
            return (i, j), idx
    raise AssertionError("no main ring large enough")


def test_tiny_group_mass_bounded():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params, alpha=2.0)
    rings = ring_decompose(pts, seeding, params)
    (i, j), idx = main_ring_with_at_least(pts, params, rings, 12)
    ring_pts = pts[idx]
    base = 2.0**j * rings.deltas[i]
    ring_cost_G = float(tree_sum(rings.costs[idx]))
    # solution containing a ring point: that point's cost is 0, so the
    # tiny class is nonempty
    S = np.vstack([ring_pts[0], [50.0, 50.0]])
    cost_S = sq_dist_matrix(ring_pts, S).min(axis=1) ** (params.z / 2.0)
    tiny, huge = tiny_huge_masks(cost_S, base, params.z, params.epsilon)
    assert tiny.any()
    assert float(tree_sum(cost_S[tiny])) <= params.epsilon * ring_cost_G
    # weighted variant over the halving subset obeys the same budget
    fam = ball_test_family(ring_pts, params.k)
    eps_p = epsilon_prime(params.z, params.epsilon)
    approx = halving_approx(ring_pts, eps_p, fam)
    scale = idx.size / approx.indices.size
    kept = cost_S[approx.indices]
    kept_tiny = tiny[approx.indices]
    assert float(tree_sum(kept[kept_tiny]) * scale if kept_tiny.any() else 0.0) \
        <= params.epsilon * ring_cost_G


def test_huge_group_estimate_within_3eps():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params, alpha=2.0)
    rings = ring_decompose(pts, seeding, params)
    (i, j), idx = main_ring_with_at_least(pts, params, rings, 12)
    ring_pts = pts[idx]
    base = 2.0**j * rings.deltas[i]
    S = np.array([[100.0, 100.0]])
    cost_S = sq_dist_matrix(ring_pts, S).min(axis=1) ** (params.z / 2.0)
    tiny, huge = tiny_huge_masks(cost_S, base, params.z, params.epsilon)
    assert huge.all()
    fam = ball_test_family(ring_pts, params.k)
    eps_p = epsilon_prime(params.z, params.epsilon)
    approx = halving_approx(ring_pts, eps_p, fam)
    est = float(tree_sum(cost_S[approx.indices])) * idx.size / approx.indices.size
    full = float(tree_sum(cost_S))
    assert abs(est - full) <= 3.0 * params.epsilon * full


def test_tiny_huge_masks_validation():
    with pytest.raises(InputError):
        tiny_huge_masks(np.array([1.0]), 0.0, 1, 0.3)


def test_pipeline_passthrough_low_dim():
    pts, params = two_blob_instance()
    out = euclidean_pipeline(pts, params, alpha=2.0)
    assert out.passthrough and out.sketch is None
    assert out.ambient_dim == 3
    assert (out.coreset.points[:, -1] == 0.0).all()
    assert out.coreset.total_weight == Fraction(200)


def test_pipeline_identical_points_high_dim():
    rng = np.random.default_rng(5)
    pts = np.tile(rng.standard_normal(30), (9, 1))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    out = euclidean_pipeline(pts, params)
    assert not out.passthrough
    assert out.coreset.size == 1
    assert out.coreset.offset == 0.0
    assert out.coreset.weight_num.tolist() == [9]
    assert abs(out.coreset.points[0, -1]) <= 1e-9


def test_pipeline_high_dim_rerun_identical():
    rng = np.random.default_rng(11)
    pts = np.vstack(
        [rng.standard_normal((8, 30)) * 0.3, rng.standard_normal((8, 30)) * 0.3 + 4.0]
    )
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    a = euclidean_pipeline(pts, params, alpha=3.0)
    b = euclidean_pipeline(pts, params, alpha=3.0)
    assert not a.passthrough
    assert a.ambient_dim == a.sketch.map.m + 1
    assert a.coreset.total_weight == Fraction(16)
    assert np.array_equal(a.coreset.points, b.coreset.points)
    assert a.coreset.offset == b.coreset.offset
