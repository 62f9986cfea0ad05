import importlib
import itertools
import math

import numpy as np
import pytest

from detclust import InputError
from detclust.geometry import ClusteringParams, power_cost, solve_1center
from detclust.bicriteria import (
    BicriteriaResult,
    CandidateCenters,
    ball_lattice,
    bicriteria,
    candidate_centers,
    constant_factor_approx,
    greedy_augment,
    lift_by_clusters,
    seeded_projection_family,
    _gonzalez_seeds,
)
from detclust.linmap import pair_distortions

from oracles import (
    exact_kz_cost,
    grid_search_1center,
    linear_spacing_scale,
    meshgrid_ball,
    naive_power_cost,
    per_ball_candidates,
)

# the package exports the function bicriteria under the submodule's name
bicriteria_mod = importlib.import_module("detclust.bicriteria")


class P:
    """Bag of clustering parameters; lets tests exercise the lattice
    geometry at settings outside the ClusteringParams validity range."""

    def __init__(self, k, z, epsilon):
        self.k, self.z, self.epsilon = k, z, epsilon


def blobs(rng, centers, per, spread):
    pts = []
    for c in centers:
        pts.append(np.asarray(c) + spread * rng.standard_normal((per, len(c))))
    return np.vstack(pts)


def test_ball_lattice_1d_example():
    rows, owner = ball_lattice([[0.0]], [1.0], 0.5)
    assert rows[:, 0].tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert owner.tolist() == [0] * 5


def test_ball_lattice_rejects_bad_args():
    with pytest.raises(InputError):
        ball_lattice([[0.0]], [-1.0], 0.5)
    with pytest.raises(InputError):
        ball_lattice([[0.0]], [1.0], 0.0)
    with pytest.raises(InputError):
        ball_lattice([[0.0], [1.0]], [1.0], 0.5)  # one radius per ball
    with pytest.raises(InputError):
        ball_lattice([0.0], [1.0], 0.5)  # centers must be (m, d)


def test_ball_lattice_batched_rows_follow_per_ball_meshgrid():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 5):
        centers = rng.standard_normal((9, d)) * 2.0
        radii = rng.uniform(0.0, 1.5, 9)
        radii[2] = 0.0  # a lone cell at most
        radii[5] = 1e-3  # box almost surely empty
        spacing = 0.37
        rows, owner = ball_lattice(centers, radii, spacing)
        assert rows.shape == (owner.size, d)
        assert (np.diff(owner) >= 0).all()
        empty = 0
        for b in range(9):
            cand, empty_box = meshgrid_ball(centers[b], radii[b], spacing)
            empty += empty_box
            assert rows[owner == b].tobytes() == cand.tobytes()
        assert empty >= 1
    rows, owner = ball_lattice(np.empty((0, 2)), np.empty(0), 0.5)
    assert rows.shape == (0, 2) and owner.shape == (0,)


def _slice_and_empty_cases():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3, 5, 20):
        pts = rng.standard_normal((12, d)) * 2.0
        pts[3, -1] = 25.0  # far off the slice: its small balls miss it
        for z in (1, 2, 3):
            for zero_last_coord in (False, True) if d >= 2 else (False,):
                yield pts, z, zero_last_coord, 3000
    pts = rng.standard_normal((10, 2))
    yield pts, 2, False, 40  # a tight budget forces spacing doubling


def test_candidate_centers_match_per_ball_oracle(monkeypatch):
    seen_missed = seen_empty = seen_scaled = 0
    for pts, z, zero_last_coord, budget in _slice_and_empty_cases():
        params = P(k=2, z=z, epsilon=0.3)
        anchor = pts[:2]
        monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", budget)
        cc = candidate_centers(
            pts, params, anchor, alpha=2.0, zero_last_coord=zero_last_coord
        )
        points, prov_point, prov_level, scale, missed, empty = per_ball_candidates(
            pts, power_cost(pts, anchor, z), z, 0.3, 2.0, budget, zero_last_coord
        )
        assert cc.points.tobytes() == points.tobytes()
        assert cc.points.shape == points.shape
        assert np.array_equal(cc.provenance_point, prov_point)
        assert np.array_equal(cc.provenance_level, prov_level)
        assert cc.spacing_scale == scale
        seen_missed += missed > 0
        seen_empty += empty > 0
        seen_scaled += scale > 1
    assert seen_missed and seen_empty and seen_scaled


def test_spacing_scale_search_matches_linear_doubling(monkeypatch):
    # the exponent search must stop where plain doubling stops: at 1 when
    # the first lattice fits, at the 2**40 cap when none does, and at the
    # first fitting power of two in between
    rng = np.random.default_rng(5)
    seen = set()
    for d, z, zero_last_coord in itertools.product((2, 3), (1, 2), (False, True)):
        pts = rng.standard_normal((10, d)) * 3.0
        if zero_last_coord:
            pts[:, -1] = np.abs(pts[:, -1]) * 0.2
        anchor = pts[:2]
        anchor_cost = power_cost(pts, anchor, z)
        for budget in (1, 30, 300, 3000, 10**4):
            monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", budget)
            cc = candidate_centers(
                pts, P(k=2, z=z, epsilon=0.3), anchor, alpha=2.0,
                zero_last_coord=zero_last_coord,
            )
            scale, _, _ = linear_spacing_scale(
                pts, anchor_cost, z, 0.3, 2.0, budget, zero_last_coord
            )
            assert cc.spacing_scale == scale
            seen.add((zero_last_coord, "one" if scale == 1 else
                      "cap" if scale == 1 << 40 else "between"))
    assert seen == {(s, kind) for s in (False, True)
                    for kind in ("one", "cap", "between")}


def test_candidates_include_every_input_point():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((17, 2)) * 3.0
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    anchor = pts[:2]
    cc = candidate_centers(pts, params, anchor)
    cand_rows = {tuple(r) for r in cc.points}
    for p in pts:
        assert tuple(p) in cand_rows
    assert cc.provenance_point.shape == (cc.size,)
    assert cc.provenance_level.shape == (cc.size,)
    assert (cc.provenance_level[:17] == CandidateCenters.LEVEL_INPUT).all()


def test_candidates_delta_zero_inputs_only():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    params = ClusteringParams(k=3, z=2, epsilon=0.2)
    cc = candidate_centers(pts, params, pts)  # anchor fits perfectly
    assert cc.size == 3
    assert np.array_equal(np.sort(cc.points, axis=0), np.sort(pts, axis=0))


def test_candidate_cover_property_sampled(monkeypatch):
    # 100 random targets inside a covered ball are all within (eps/z)*r of
    # some candidate. The bound holds at spacing scale 1 only: at the
    # 4096 budget this instance thins the lattice to scale 2, so the
    # budget is raised until the unthinned lattice fits
    monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", 50_000)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((12, 2))
    params = P(k=2, z=1, epsilon=0.3)
    anchor = pts[:2]
    cc = candidate_centers(pts, params, anchor)
    assert cc.spacing_scale == 1

    delta = naive_power_cost(pts, anchor, 1) / len(pts)
    lattice_levels = cc.provenance_level[cc.provenance_level != CandidateCenters.LEVEL_INPUT]
    level = int(np.max(lattice_levels))
    r = 2.0 ** (level / params.z) * delta ** (1.0 / params.z)
    p0 = pts[0]

    for _ in range(100):
        u = rng.standard_normal(2)
        target = p0 + u / np.linalg.norm(u) * r * np.sqrt(rng.uniform())
        dmin = np.sqrt(((cc.points - target) ** 2).sum(axis=1)).min()
        assert dmin <= (params.epsilon / params.z) * r * (1 + 1e-9)


def test_gonzalez_starts_at_zero_ties_low_index():
    pts = np.array([[0.0], [1.0], [1.0], [0.5]])
    seeds = _gonzalez_seeds(pts, 2)
    assert np.array_equal(seeds, np.array([[0.0], [1.0]]))


def test_constant_factor_three_singletons_cost_zero():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    params = ClusteringParams(k=3, z=2, epsilon=0.2)
    S = constant_factor_approx(pts, params)
    assert power_cost(pts, S, 2) == 0.0


def test_constant_factor_fewer_points_than_k():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    params = ClusteringParams(k=5, z=2, epsilon=0.2)
    S = constant_factor_approx(pts, params)
    assert np.array_equal(S.centers, pts)


def test_constant_factor_k1_beats_grid_oracle():
    # the weighted 1-median here sits on a data point, which is always a
    # candidate, so local search must match the grid optimum
    pts = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [-4.0, 3.0]]
    params = ClusteringParams(k=1, z=1, epsilon=0.25)
    S = constant_factor_approx(np.array(pts), params)
    _, oracle_cost = grid_search_1center(pts, z=1)
    assert power_cost(np.array(pts), S, 1) <= oracle_cost + 1e-4


def test_constant_factor_blobs_within_5x_exact():
    rng = np.random.default_rng(23)
    pts = blobs(rng, [(0, 0), (9, 0), (0, 9)], per=4, spread=0.5)
    params = ClusteringParams(k=3, z=2, epsilon=0.25)
    S = constant_factor_approx(pts, params)
    opt = exact_kz_cost(pts.tolist(), k=3, z=2)
    assert power_cost(pts, S, 2) <= 5.0 * opt


def test_greedy_augment_zero_cost_s0_low_cost():
    pts = np.array([[0.0, 0.0], [5.0, 5.0]])
    params = ClusteringParams(k=2, z=2, epsilon=0.2)
    cc = candidate_centers(pts, params, pts)
    res = greedy_augment(pts, pts, cc, params)
    assert res.stopped_reason == "low-cost"
    assert np.array_equal(res.centers.centers, pts)
    assert res.cost == 0.0


def test_greedy_augment_two_blobs_reaches_near_opt():
    rng = np.random.default_rng(7)
    pts = blobs(rng, [(0, 0), (20, 0)], per=5, spread=0.6)
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    S0 = np.array([[40.0, 40.0]])  # deliberately bad single center

    opt = exact_kz_cost(pts.tolist(), k=2, z=2)
    cost0 = power_cost(pts, S0, 2)
    alpha = min(50.0, max(1.0, cost0 / opt))
    cc = candidate_centers(pts, params, S0, alpha=alpha)
    res, history = greedy_augment(pts, S0, cc, params, alpha=alpha, full_output=True)

    assert res.cost <= (1 + params.epsilon) * opt + 1e-9
    # accepted steps each cut cost by the required factor
    factor = 1.0 - params.epsilon / (alpha * params.k)
    for prev, cur in zip(history, history[1:]):
        assert cur <= factor * prev * (1 + 1e-12)


def test_greedy_count_bound_on_random_instances():
    rng = np.random.default_rng(1234)
    for trial in range(50):
        n = int(rng.integers(8, 26))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        z = int(rng.integers(1, 3))
        eps = float(rng.choice([0.2, 0.3]))
        pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 4.0)
        params = ClusteringParams(k=k, z=z, epsilon=eps)
        res = bicriteria(pts, params)
        bound = k + math.ceil(res.alpha_used * k * math.log(1 / eps) / eps)
        assert res.centers.centers.shape[0] <= bound
        # reported cost matches a recomputation
        again = power_cost(pts, res.centers, z)
        assert again == pytest.approx(res.cost, rel=1e-9, abs=1e-12)
        assert res.stopped_reason in ("no-improving-center", "low-cost")


def test_bicriteria_matches_lowdim_composition():
    rng = np.random.default_rng(3)
    pts = blobs(rng, [(0, 0), (8, 8)], per=6, spread=0.7)
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    S0 = constant_factor_approx(pts, params)
    cc = candidate_centers(pts, params, S0)
    manual = greedy_augment(pts, S0, cc, params)
    res = bicriteria(pts, params)
    assert np.array_equal(res.centers.centers, manual.centers.centers)
    assert res.cost == manual.cost
    assert res.projection_seed is None


def test_bicriteria_near_opt_when_exact_feasible():
    rng = np.random.default_rng(99)
    for trial in range(6):
        n = int(rng.integers(6, 11))
        k = int(rng.integers(1, 4))
        z = int(rng.choice([1, 2]))
        pts = rng.standard_normal((n, 2)) * 2.0
        eps = 0.25
        opt = exact_kz_cost(pts.tolist(), k=k, z=z)
        params = ClusteringParams(k=k, z=z, epsilon=eps)
        res = bicriteria(pts, params, oracle_opt=opt)
        assert res.cost <= (1 + eps) * opt + 1e-9


def test_bicriteria_highdim_lift_near_opt():
    rng = np.random.default_rng(41)
    d = 50
    centers = np.zeros((3, d))
    centers[1, 0] = 30.0
    centers[2, 1] = 30.0
    pts = blobs(rng, centers.tolist(), per=4, spread=0.5)
    params = ClusteringParams(k=3, z=2, epsilon=0.25)
    opt = exact_kz_cost(pts.tolist(), k=3, z=2)
    res = bicriteria(pts, params)
    assert res.projection_seed is not None
    assert res.cost <= (1 + 2 * params.epsilon) * opt

    rerun = bicriteria(pts, params)
    assert np.array_equal(rerun.centers.centers, res.centers.centers)
    assert rerun.cost == res.cost
    assert rerun.projection_seed == res.projection_seed


def test_seeded_projection_deterministic():
    a = seeded_projection_family(30, 12, seed=7)
    b = seeded_projection_family(30, 12, seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    c = seeded_projection_family(30, 12, seed=8)
    assert not np.array_equal(a.matrix, c.matrix)
    # entries are +-1/sqrt(m)
    assert np.allclose(np.abs(a.matrix), 1 / np.sqrt(12))


def test_seeded_projection_e1_image():
    lin = seeded_projection_family(5, 5, seed=3)
    y = lin.apply(np.eye(5)[0])
    assert np.isfinite(y).all()
    assert np.array_equal(y, seeded_projection_family(5, 5, seed=3).apply(np.eye(5)[0]))


def test_seeded_projection_seed_range():
    with pytest.raises(InputError):
        seeded_projection_family(10, 4, seed=1 << 16)
    with pytest.raises(InputError):
        seeded_projection_family(10, 4, seed=-1)


def test_projection_seed_scan_finds_good_map():
    # collinear witness set: every pairwise direction coincides, so one
    # well-behaved seed preserves all 190 distances at once
    rng = np.random.default_rng(17)
    u = rng.standard_normal(30)
    u /= np.linalg.norm(u)
    pts = np.outer(np.linspace(-3.0, 3.0, 20), u)
    best = np.inf
    for seed in range(1 << 10):
        lin = seeded_projection_family(30, 12, seed)
        _, dist = pair_distortions(lin, pts)
        best = min(best, dist - 1.0)
        if best <= 0.4:
            break
    assert best <= 0.4


def test_lift_solves_runs_of_few_points(monkeypatch):
    # 300 points in 250 clusters: each solve call sees a run of whole
    # clusters of at most _LIFT_POINTS points, and each center is that
    # cluster's own 1-center (z = 2 bit for bit at d >= 2)
    import importlib

    bic = importlib.import_module("detclust.bicriteria")
    widths = []
    solver = bic.solve_1centers

    def recorded(base, ext, w, members, z):
        widths.append(members.shape[1])
        return solver(base, ext, w, members, z)

    monkeypatch.setattr(bic, "solve_1centers", recorded)
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((300, 3))
    w = rng.random(300) + 0.5
    labels = rng.integers(0, 250, 300)
    ids = np.unique(labels)
    for z in (1, 2, 3):
        widths.clear()
        got = lift_by_clusters((pts, w), labels, z)
        assert 1 < len(widths) and max(widths) <= bic._LIFT_POINTS
        for c, j in zip(got, ids):
            idx = labels == j
            ref = solve_1center((pts[idx], w[idx]), z)
            if z == 2:
                assert np.array_equal(c, ref)
            else:
                assert np.allclose(c, ref, rtol=1e-9, atol=1e-12)


def test_slice_mode_rejects_negative_last_coord_before_solving(monkeypatch):
    # the last coordinate is partly negative, so it is no valid extension:
    # the error comes before any projected solve
    import importlib

    from detclust.datasets import gaussian_blobs

    bic = importlib.import_module("detclust.bicriteria")
    calls = []
    lowdim = bic._bicriteria_lowdim

    def counted(*args):
        calls.append(1)
        return lowdim(*args)

    monkeypatch.setattr(bic, "_bicriteria_lowdim", counted)
    pts = gaussian_blobs(24, 30, blobs=2, seed=2, separation=6)
    assert (pts[:, -1] < 0).any()
    with pytest.raises(InputError):
        bicriteria(pts, ClusteringParams(k=2, z=2, epsilon=0.3), zero_last_coord=True)
    assert calls == []
