import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from detclust import rings as rings_mod
from detclust.bicriteria import _augment, bicriteria, candidate_centers
from detclust.datasets import far_point_instance, gaussian_blobs, ring_mixture
from detclust.epsapprox import (
    DEFAULT_MAX_RANGES,
    ball_test_families,
    halving_approx,
    uniform_sample_approx,
)
from detclust.errors import InputError
from detclust.geometry import (
    CenterSet,
    ClusteringParams,
    ExtendedPointSet,
    WeightedPointSet,
    _seeded_rng,
    center_grid,
    power_cost,
    sq_dist_matrix,
)
from detclust.partition import build, verify_partition_coreset
from detclust.rings import (
    RING_ZERO,
    OffsetCoreset,
    SeedingResult,
    epsilon_prime,
    euclidean_pipeline,
    greedy_seeding,
    ring_coreset,
    ring_decompose,
    ring_thresholds,
    verify_offset_coreset,
)
from detclust.summation import tree_sum

from oracles import (
    dict_collapsed_instance,
    dict_ring_decompose,
    naive_power_cost,
    raw_epsilon_prime,
)


def two_blob_instance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 2)) * 0.8
    b = rng.standard_normal((100, 2)) * 0.8 + np.array([6.0, 0.0])
    return np.vstack([a, b]), ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)


def hand_seeding(centers, status="locally-stable"):
    return SeedingResult(centers=CenterSet(np.asarray(centers, dtype=np.float64)), status=status)


def with_seeding(monkeypatch, seeding):
    """Make ring_coreset grow the given seeding in place of greedy_seeding's."""
    monkeypatch.setattr(rings_mod, "greedy_seeding", lambda P, params: seeding)


def center_rows_only(core, pts, params):
    """Every coreset row is a center of the seeding with den 1."""
    G = greedy_seeding(pts, params).centers.centers
    return bool((sq_dist_matrix(core.points, G).min(axis=1) == 0.0).all()
                and (core.weight_den == 1).all())


def outlier_column_instance():
    # one cluster at 0: five points near, a hundred at distance 1, one far
    # enough out that its ring clears the outer threshold (z/eps)^{2z} = 9
    pts = np.concatenate([np.full(5, 0.02), np.full(100, 1.0), [25.0]])
    pts = pts[:, None]
    params = ClusteringParams(k=1, z=1, epsilon=1.0 / 3.0)
    seeding = hand_seeding([[0.0]])
    return pts, params, seeding


def test_epsilon_prime_clamps_at_practical_eps():
    raw = raw_epsilon_prime(1, 0.3)
    assert abs(raw - 20.0 * 8.0 * 0.09 / math.log(4.0 / 0.3)) <= 1e-12
    assert 5.55 < raw < 5.57
    assert epsilon_prime(1, 0.3) == 0.3


def test_epsilon_prime_unclamped_small_eps():
    val = epsilon_prime(1, 0.001)
    assert abs(val - 1.6e-4 / math.log(4000.0)) <= 1e-18
    assert 1.92e-5 < val < 1.94e-5
    assert val == raw_epsilon_prime(1, 0.001)


def test_epsilon_prime_clamp_thresholds():
    # the docstring's crossings: raw < eps just below, clamped just above
    for z, edge in ((1, 0.0305), (2, 0.00567), (3, 0.000925), (4, 0.000142)):
        below, above = edge * 0.99, edge * 1.01
        assert epsilon_prime(z, below) == raw_epsilon_prime(z, below) < below
        assert epsilon_prime(z, above) == above < raw_epsilon_prime(z, above)


def test_epsilon_prime_monotone_below_clamp():
    # the grid crosses the z = 2 clamp at 0.00567: min(eps, raw) of two
    # increasing functions still increases, and the raw formula does too
    grid = np.linspace(1e-4, 1e-2, 40)
    for f in (epsilon_prime, raw_epsilon_prime):
        vals = [f(2, e) for e in grid]
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
    seeding = hand_seeding([[0.0]])
    rings = ring_decompose(pts, seeding, params)
    assert abs(rings.deltas[0] - 1.8) <= 1e-15
    assert rings.rings.tolist() == [-1] * 9 + [2]
    assert [(key, idx.tolist()) for key, idx in rings.main_rings()] == [
        ((0, -1), list(range(9))),
        ((0, 2), [9]),
    ]


def test_bucket_membership_half_open():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params)
    assert seeding.status == "locally-stable"
    rings = ring_decompose(pts, seeding, params)
    zero = rings.rings == RING_ZERO
    assert (rings.costs[zero] == 0.0).all()
    j = rings.rings[~zero].astype(np.float64)
    delta = rings.deltas[rings.labels[~zero]]
    c = rings.costs[~zero]
    assert (c >= 2.0**j * delta).all() and (c < 2.0 ** (j + 1) * delta).all()
    assert sorted(np.concatenate([idx for _, idx in rings.main_rings()]).tolist()) == (
        rings.indices_of("main").tolist()
    )


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
    seeding = hand_seeding([[0.0, 0.0], [4.0, 1.0]])
    rings = ring_decompose(pts, seeding, params)
    assert rings.labels.tolist() == [0] * 5 + [1] * 3
    assert (rings.rings == RING_ZERO).all()
    assert rings.indices_of("inner").tolist() == list(range(8))
    assert rings.main_rings() == []


def assert_rings_match_the_dict_form(P, seeding, params, monkeypatch):
    """ring_decompose's arrays against oracles.dict_ring_decompose, bit for
    bit, and ring_coreset's collapsed center rows and F against the dict
    form's collapsed instance."""
    got = ring_decompose(P, seeding, params)
    want = dict_ring_decompose(P, seeding, params)
    for name in ("deltas", "labels", "costs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    buckets, classes = {}, {}
    for p, key in enumerate(zip(got.labels.tolist(), got.rings.tolist())):
        buckets.setdefault(key, []).append(p)
        assert classes.setdefault(key, str(got.kinds[p])) == got.kinds[p]
    assert buckets == {key: idx.tolist() for key, idx in want.buckets.items()}
    assert classes == want.classes
    assert [(key, idx.tolist()) for key, idx in got.main_rings()] == [
        (key, idx.tolist()) for key, idx in want.main_rings()
    ]
    for kind in ("inner", "main", "outer"):
        assert got.indices_of(kind).tolist() == want.indices_of(kind).tolist()

    G = seeding.centers.centers
    _, weights, F = dict_collapsed_instance(P, want, seeding)
    centers = np.flatnonzero(weights[: G.shape[0]])
    with monkeypatch.context() as m:
        with_seeding(m, seeding)
        core = ring_coreset(P, params, mode="randomized")
    assert core.points[: centers.size].tobytes() == G[centers].tobytes()
    assert core.weight_num[: centers.size].tolist() == weights[centers].tolist()
    assert (core.weight_den[: centers.size] == 1).all()
    assert core.offset.hex() == F.hex()
    return got


def test_ring_arrays_match_the_dict_form(monkeypatch):
    kinds_seen = set()
    for d in (2, 3, 5, 30):
        n = 60 if d == 30 else 90
        for z in (1, 2, 3):
            params = ClusteringParams(k=2, z=z, epsilon=0.3, alpha=2.0)
            for pts in (
                gaussian_blobs(n, d, blobs=2, seed=d + z, separation=6),
                ring_mixture(n, d, seed=d + z),
                far_point_instance(n, d, seed=d + z, distance=50.0),
            ):
                ext = ExtendedPointSet(pts[:, :-1], np.abs(pts[:, -1]))
                # the hand seeding's centers are data points (zero-cost
                # points inside live clusters) away from the far point
                for P, hand in (
                    (pts, pts[:2]),
                    (ext, np.hstack([ext.points[:2], np.zeros((2, 1))])),
                ):
                    for seeding in (greedy_seeding(P, params), hand_seeding(hand)):
                        if seeding.status == "locally-stable":
                            got = assert_rings_match_the_dict_form(
                                P, seeding, params, monkeypatch
                            )
                            kinds_seen |= set(got.kinds.tolist())
    assert kinds_seen == {"inner", "main", "outer"}
    pts, params, seeding = outlier_column_instance()
    assert_rings_match_the_dict_form(pts, seeding, params, monkeypatch)
    # a zero-cost cluster of duplicates, and a center no point is nearest
    pts = np.vstack([gaussian_blobs(40, 3, blobs=1, seed=2), np.full((4, 3), 30.0)])
    seeding = hand_seeding([pts[0], [30.0] * 3, [1e6] * 3])
    got = assert_rings_match_the_dict_form(
        pts, seeding, ClusteringParams(k=3, z=2, epsilon=0.3), monkeypatch
    )
    assert got.deltas[1:].tolist() == [0.0, 0.0]
    assert (got.rings[40:] == RING_ZERO).all()


def test_ring_decompose_validation():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params)
    with pytest.raises(InputError):
        ring_decompose((pts, np.full(pts.shape[0], 2.0)), seeding, params)
    low = hand_seeding([[0.0, 0.0]], status="low-cost")
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
        params = ClusteringParams(k=k, z=z, epsilon=0.3, alpha=2.0)
        seeding = greedy_seeding(pts, params)
        if seeding.status != "locally-stable":
            continue
        stable += 1
        rings = ring_decompose(pts, seeding, params)
        bound = (params.epsilon / z) ** (2 * z)
        k_G = seeding.centers.k
        ro = np.bincount(rings.labels[rings.indices_of("outer")], minlength=k_G)
        assert (ro <= bound * np.bincount(rings.labels, minlength=k_G)).all()
    assert stable >= 5


def test_instance_weight_conservation_and_offset(monkeypatch):
    pts, params, seeding = outlier_column_instance()
    rings = ring_decompose(pts, seeding, params)
    with_seeding(monkeypatch, seeding)
    core = ring_coreset(pts, params)
    assert core.total_weight == Fraction(pts.shape[0])
    outer = rings.indices_of("outer")
    recount = naive_power_cost(pts[outer], seeding.centers.centers, params.z)
    assert core.offset > 0.0
    assert abs(core.offset - recount) <= 1e-12 * recount
    # removed inner and outer counts land on the cluster center, the first
    # row; the rest come from the one main ring of 100 points
    assert core.points[0].tolist() == [0.0]
    assert (core.weight_num[0], core.weight_den[0]) == (6, 1)
    assert (core.weight_num[1:] == 100).all() and (core.weight_den[1:] == core.size - 1).all()


def test_no_outer_points_means_zero_offset():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params)
    rings = ring_decompose(pts, seeding, params)
    assert rings.indices_of("outer").size == 0
    assert ring_coreset(pts, params).offset == 0.0


def test_identical_blobs_collapse_to_weighted_centers(monkeypatch):
    pts = np.vstack([np.tile([1.0, 2.0], (5, 1)), np.tile([8.0, -1.0], (7, 1))])
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    with_seeding(monkeypatch, hand_seeding([[1.0, 2.0], [8.0, -1.0]]))
    core = ring_coreset(pts, params)
    assert core.offset == 0.0
    assert core.points.tolist() == [[1.0, 2.0], [8.0, -1.0]]
    assert core.weight_num.tolist() == [5, 7] and core.weight_den.tolist() == [1, 1]


def test_greedy_seeding_low_cost_on_identical_blobs():
    pts = np.vstack([np.tile([0.0, 0.0], (7, 1)), np.tile([5.0, 5.0], (7, 1))])
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    seeding = greedy_seeding(pts, params)
    assert seeding.status == "low-cost"
    assert power_cost(pts, seeding.centers, params.z) == 0.0


def test_greedy_center_count_bound():
    # |G| <= |A| + ceil(c_A k ln(1/eps)/eps) on random instances
    rng = np.random.default_rng(123)
    for trial in range(50):
        k = 1 + trial % 3
        z = 1 + trial % 2
        eps = (0.2, 1.0 / 3.0)[trial % 2]
        pts = rng.uniform(-3, 3, size=(40, 2))
        params = ClusteringParams(k=k, z=z, epsilon=eps, alpha=(2.0, 4.0)[trial % 2])
        res = bicriteria(pts, params)  # the result greedy_seeding grows
        assert res.centers.centers.tobytes() == greedy_seeding(pts, params).centers.centers.tobytes()
        cap = math.ceil(params.alpha * k * math.log(1.0 / eps) / eps)
        assert res.centers.k <= res.baseline_size + cap


def test_greedy_cost_sequence_contracts():
    pts, params = two_blob_instance()
    A = np.array([[0.0, 0.0], [6.0, 0.0]])
    cands = candidate_centers(pts, params, A)
    _, _, history = _augment(pts, A, cands, params)
    assert len(history) >= 2
    f = params.epsilon / (params.alpha * params.k)
    for prev, cur in zip(history, history[1:]):
        assert cur <= (1.0 - f) * prev * (1.0 + 1e-12)


def test_locally_stable_has_no_improving_candidate():
    # greedy growth from a fixed baseline A over A's candidate family
    pts, params = two_blob_instance()
    A = np.array([[0.0, 0.0], [6.0, 0.0]])
    family = candidate_centers(pts, params, A)
    G, reason, _ = _augment(pts, A, family, params)
    assert reason == "no-improving-center"
    cost_G = power_cost(pts, G, params.z)
    f = params.epsilon / (params.alpha * params.k)
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
    assert center_rows_only(core, pts, params)
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=3))
    assert rep.max_relative_error == 0.0


def test_ring_coreset_deterministic_meets_eps():
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params)
    assert core.size < pts.shape[0]
    assert core.total_weight == Fraction(200)
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=4))
    assert rep.checked == math.comb(16, 2)
    assert rep.max_relative_error <= params.epsilon
    assert rep.witness is None


def test_ring_coreset_low_cost_default_alpha_meets_eps():
    # the default wide alpha drives the greedy phase all the way down
    pts, _ = two_blob_instance()
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    core = ring_coreset(pts, params)
    assert core.offset == 0.0
    assert center_rows_only(core, pts, params)
    assert core.total_weight == Fraction(200)
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=3))
    assert rep.max_relative_error <= params.epsilon


def test_ring_coreset_deterministic_rerun_identical():
    pts, params = two_blob_instance()
    a = ring_coreset(pts, params)
    b = ring_coreset(pts, params)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weight_num, b.weight_num)
    assert np.array_equal(a.weight_den, b.weight_den)
    assert a.offset == b.offset


def test_ring_coreset_randomized_seed_replay():
    # at this scale the VC sampling bound can exceed ring sizes, in which
    # case whole rings are kept; the contract is replayability, not churn
    pts, params = two_blob_instance()
    a = ring_coreset(pts, params, mode="randomized", seed=42)
    b = ring_coreset(pts, params, mode="randomized", seed=42)
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
        )
    with pytest.raises(InputError):
        OffsetCoreset(
            points=np.zeros((1, 2)),
            weight_num=np.array([0]),
            weight_den=np.array([1]),
            offset=0.0,
        )


def test_total_weight_equals_the_per_row_fraction_sum():
    rng = np.random.default_rng(41)
    for _ in range(50):
        r = int(rng.integers(1, 300))
        nums = rng.integers(1, int(rng.choice([3, 1000, 1 << 40])), size=r)
        dens = rng.integers(1, int(rng.choice([2, 7, 1 << 30])), size=r)
        core = OffsetCoreset(points=np.zeros((r, 2)), weight_num=nums, weight_den=dens,
                             offset=0.0)
        want = sum(Fraction(int(a), int(b)) for a, b in zip(nums, dens))
        assert core.total_weight == want
        assert str(core.total_weight) == str(want)


def test_verifier_on_exact_copy_reports_zero():
    pts, params = two_blob_instance()
    core = OffsetCoreset(
        points=pts.copy(),
        weight_num=np.ones(pts.shape[0], dtype=np.int64),
        weight_den=np.ones(pts.shape[0], dtype=np.int64),
        offset=0.0,
    )
    rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=3))
    assert rep.max_relative_error == 0.0
    assert rep.witness is None


def test_verifier_budgets_and_sampling(monkeypatch):
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params)
    with pytest.raises(InputError):
        verify_offset_coreset(pts, core, params, pts[:1])
    monkeypatch.setattr(rings_mod, "MAX_TUPLES", 100)
    with pytest.raises(InputError, match="exceed the budget 100"):
        verify_offset_coreset(pts, core, params, pts[:30])
    monkeypatch.undo()
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


def test_sampled_verifier_refuses_fewer_than_one_sample():
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params)
    grid = center_grid(pts, per_axis=3)
    for samples in (0, -2):
        with pytest.raises(InputError, match="samples >= 1"):
            verify_offset_coreset(
                pts, core, params, grid, exhaustive_tuples=False, samples=samples
            )
    # exhaustive mode reads no sample count
    assert verify_offset_coreset(pts, core, params, grid, samples=0).checked == 36


def per_tuple_report(P, core, params, grid, tuples):
    """The verifier's report from one pair of power_cost calls per tuple."""
    worst, witness, checked = 0.0, None, 0
    for tup in tuples:
        S = grid[list(tup)]
        orig = power_cost(P, S, params.z)
        if orig == 0.0:
            continue
        approx = power_cost((core.points, core.weights), S, params.z) + core.offset
        rel = abs(approx - orig) / orig
        checked += 1
        if rel > worst:
            worst, witness = rel, (tuple(int(i) for i in tup), rel)
    return worst, checked, witness if worst > params.epsilon else None


def sampled_tuples(grid_size, k, samples, seed):
    """The sampled verifier's tuples: every k-subset once samples reaches
    their number, else the first `samples` distinct draws of the stream."""
    if samples >= math.comb(grid_size, k):
        return [np.array(t) for t in itertools.combinations(range(grid_size), k)]
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < samples:
        t = np.sort(rng.choice(grid_size, size=k, replace=False))
        if tuple(t) not in seen:
            seen.add(tuple(t))
            out.append(t)
    return out


def test_sampled_verifier_checks_distinct_tuples():
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params)
    grid = center_grid(pts, per_axis=4)  # 120 pairs
    full = verify_offset_coreset(pts, core, params, grid)
    assert full.checked == 120  # no pair costs P nothing
    for samples in (120, 500):  # every pair, each once
        rep = verify_offset_coreset(
            pts, core, params, grid, exhaustive_tuples=False, samples=samples, seed=1
        )
        assert rep == full
    # 100 draws of this stream hold repeats; the verifier skips them
    rng = np.random.default_rng(1)
    draws = {tuple(np.sort(rng.choice(16, size=2, replace=False))) for _ in range(100)}
    assert len(draws) < 100
    rep = verify_offset_coreset(
        pts, core, params, grid, exhaustive_tuples=False, samples=100, seed=1
    )
    assert rep.checked == 100


def test_verifier_batched_equals_per_tuple_power_cost():
    witnessed = 0
    for d in (1, 2, 3):
        for z in (1, 2, 3):
            rng = np.random.default_rng(10 * d + z)
            pts = np.vstack([
                rng.standard_normal((30, d)),
                rng.standard_normal((30, d)) + 5.0,
            ])
            params = ClusteringParams(k=2, z=z, epsilon=0.3, alpha=2.0)
            # a tight eps so that the witness is reported and compared too
            tight = ClusteringParams(k=2, z=z, epsilon=1e-9)
            grid = center_grid(pts, per_axis=4 if d < 3 else 3)
            for mode in ("deterministic", "randomized"):
                core = ring_coreset(pts, params, mode=mode, seed=3)
                every = np.array(list(itertools.combinations(range(grid.shape[0]), 2)))
                for X, w in ((pts, np.ones(pts.shape[0])), (core.points, core.weights)):
                    got = rings_mod._tuple_costs(rings_mod._cost_table(X, w, grid), every, z)
                    want = [power_cost((X, w), grid[t], z) for t in every]
                    assert got.tolist() == want
                rep = verify_offset_coreset(pts, core, tight, grid)
                assert (rep.max_relative_error, rep.checked, rep.witness) == (
                    per_tuple_report(pts, core, tight, grid, every)
                )
                rep = verify_offset_coreset(
                    pts, core, tight, grid, exhaustive_tuples=False, samples=50, seed=d
                )
                tuples = sampled_tuples(grid.shape[0], 2, 50, d)
                assert (rep.max_relative_error, rep.checked, rep.witness) == (
                    per_tuple_report(pts, core, tight, grid, tuples)
                )
                witnessed += rep.witness is not None
    assert witnessed >= 9


def test_verifier_small_chunks_match_one_chunk(monkeypatch):
    pts, params = two_blob_instance()
    core = ring_coreset(pts, params)
    tight = ClusteringParams(k=2, z=2, epsilon=1e-9)
    grid = center_grid(pts, per_axis=4)
    whole = verify_offset_coreset(pts, core, tight, grid)
    monkeypatch.setattr(rings_mod, "_CHUNK", 7 * pts.shape[0])  # 7 tuples a chunk
    assert verify_offset_coreset(pts, core, tight, grid) == whole
    assert whole.checked == math.comb(16, 2) and whole.witness is not None


def test_verifier_reads_the_weights_of_P():
    P = WeightedPointSet([[0.0], [1.0], [5.0], [6.0]], [3.0, 1.0, 1.0, 3.0])
    exact = OffsetCoreset(
        points=P.points.copy(),
        weight_num=np.array([3, 1, 1, 3]),
        weight_den=np.ones(4, dtype=np.int64),
        offset=0.0,
    )
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    rep = verify_offset_coreset(P, exact, params, center_grid(P.points, per_axis=5))
    assert rep.max_relative_error == 0.0
    assert rep.checked == math.comb(5, 2)


def test_verifier_scores_an_overflowing_cost_inf():
    # every cost is inf on both sides, and inf - inf is NaN: the first
    # tuple scores inf and is the witness, not a NaN that max() skips.
    # ring_coreset refuses such points, so the coreset is the unscaled
    # points' one, scaled
    pts = gaussian_blobs(200, 2, blobs=2, seed=1, separation=6)
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    scale = 2.0**600
    with pytest.raises(InputError, match="overflow"):
        ring_coreset(pts * scale, params)
    core = ring_coreset(pts, params)
    core = dataclasses.replace(core, points=core.points * scale, offset=core.offset * scale * scale)
    pts = pts * scale
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=4))
        sampled = verify_offset_coreset(
            pts, core, params, center_grid(pts, per_axis=5),
            exhaustive_tuples=False, samples=30, seed=2,
        )
    assert (rep.max_relative_error, rep.checked, rep.witness) == (np.inf, 120, ((0, 1), np.inf))
    assert sampled.max_relative_error == np.inf and sampled.witness is not None


def main_ring_with_at_least(pts, params, rings, size):
    for (i, j), idx in rings.main_rings():
        if idx.size >= size:
            return (i, j), idx
    raise AssertionError("no main ring large enough")


def test_huge_group_estimate_within_3eps():
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params)
    rings = ring_decompose(pts, seeding, params)
    (i, j), idx = main_ring_with_at_least(pts, params, rings, 12)
    ring_pts = pts[idx]
    base = 2.0**j * rings.deltas[i]
    # a center so far that every ring point is in a huge group: at or
    # above 4 (4z/eps)^z times the ring's lower cost edge
    S = np.array([[100.0, 100.0]])
    cost_S = sq_dist_matrix(ring_pts, S).min(axis=1) ** (params.z / 2.0)
    assert (cost_S >= 4.0 * (4.0 * params.z / params.epsilon) ** params.z * base).all()
    fam = ball_test_families(ring_pts, [0], params.k, DEFAULT_MAX_RANGES)[0]
    eps_p = epsilon_prime(params.z, params.epsilon)
    approx = halving_approx(ring_pts, eps_p, fam)
    est = float(tree_sum(cost_S[approx.indices])) * idx.size / approx.indices.size
    full = float(tree_sum(cost_S))
    assert abs(est - full) <= 3.0 * params.epsilon * full


def test_pipeline_passthrough_low_dim():
    pts, params = two_blob_instance()
    out = euclidean_pipeline(pts, params)
    assert out.sketch is None
    assert out.coreset.points.shape[1] == 3
    assert (out.coreset.points[:, -1] == 0.0).all()
    assert out.coreset.total_weight == Fraction(200)


def test_pipeline_identical_points_high_dim():
    rng = np.random.default_rng(5)
    pts = np.tile(rng.standard_normal(30), (9, 1))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    out = euclidean_pipeline(pts, params)
    assert out.sketch is not None
    assert out.coreset.size == 1
    assert out.coreset.offset == 0.0
    assert out.coreset.weight_num.tolist() == [9]
    assert abs(out.coreset.points[0, -1]) <= 1e-9


def test_pipeline_high_dim_rerun_identical():
    rng = np.random.default_rng(11)
    pts = np.vstack(
        [rng.standard_normal((8, 30)) * 0.3, rng.standard_normal((8, 30)) * 0.3 + 4.0]
    )
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=3.0)
    a = euclidean_pipeline(pts, params)
    b = euclidean_pipeline(pts, params)
    assert a.sketch is not None
    assert a.coreset.points.shape[1] == a.sketch.map.m + 1
    assert a.coreset.total_weight == Fraction(16)
    assert np.array_equal(a.coreset.points, b.coreset.points)
    assert a.coreset.offset == b.coreset.offset


def test_det_coreset_builds_every_ring_family_in_one_call(monkeypatch):
    pts, params = two_blob_instance()
    seeding = greedy_seeding(pts, params)
    main = ring_decompose(pts, seeding, params).main_rings()
    assert len(main) > 1
    calls = {"families": 0, "halving": []}

    def families(points, starts, k, max_ranges):
        calls["families"] += 1
        return ball_test_families(points, starts, k, max_ranges)

    def halving(ground, eps_prime, tests):
        calls["halving"].append(ground.shape[0])
        return halving_approx(ground, eps_prime, tests)

    monkeypatch.setattr(rings_mod, "ball_test_families", families)
    monkeypatch.setattr(rings_mod, "halving_approx", halving)
    ring_coreset(pts, params)
    assert calls["families"] == 1
    assert calls["halving"] == [idx.size for _, idx in main]
    ring_coreset(pts, params, mode="randomized")
    assert calls["families"] == 1


def test_every_seeded_stream_refuses_a_bad_seed():
    pts, params = two_blob_instance()
    grid = center_grid(pts, per_axis=3)
    core = ring_coreset(pts, params)
    small = pts[:6]
    refused = [
        lambda s: gaussian_blobs(10, 2, blobs=2, seed=s),
        lambda s: ring_mixture(10, 2, seed=s),
        lambda s: far_point_instance(10, 2, seed=s),
        # 5000 points outgrow the sample, so one is drawn; 3 points do not
        lambda s: uniform_sample_approx(np.zeros((5000, 2)), 0.3, 0.1, 20, s),
        lambda s: uniform_sample_approx(np.zeros((3, 2)), 0.3, 0.1, 20, s),
        lambda s: ring_coreset(pts, params, mode="randomized", seed=s),
        lambda s: verify_offset_coreset(
            pts, core, params, grid, exhaustive_tuples=False, samples=5, seed=s
        ),
        lambda s: verify_partition_coreset(
            small, build(small, params), params, grid, all_partitions=False, samples=5, seed=s
        ),
    ]
    for call in refused:
        for bad in (-1, 1.5, "1"):
            with pytest.raises(InputError, match="seed must be an integer >= 0"):
                call(bad)
        call(0)
    # a valid seed opens numpy's own stream
    for seed in (0, 7, np.int64(2**40)):
        want = np.random.default_rng(seed).integers(0, 1 << 62, 8)
        assert (_seeded_rng(seed).integers(0, 1 << 62, 8) == want).all()
