import importlib
import itertools
import math
import warnings

import numpy as np
import pytest

from detclust import InputError, geometry
from detclust.geometry import (
    DEFAULT_ALPHA,
    ClusteringParams,
    ExtendedPointSet,
    power_cost,
    solve_1center,
)
from detclust.bicriteria import (
    BicriteriaResult,
    CandidateCenters,
    ball_lattice,
    bicriteria,
    candidate_centers,
    constant_factor_approx,
    lift_by_clusters,
    seeded_projection_family,
    _augment,
    _gonzalez_seeds,
)
from detclust.linmap import pair_distortions

from oracles import (
    argmin_power_cost,
    exact_kz_cost,
    galloping_spacing_exponents,
    grid_search_1center,
    linear_spacing_scale,
    meshgrid_ball,
    naive_power_cost,
    per_axis_ball_lattice,
    per_ball_candidates,
    sequential_bicriteria,
    sequential_lift,
    sequential_projection_scan,
)

# the package exports the function bicriteria under the submodule's name
bicriteria_mod = importlib.import_module("detclust.bicriteria")


class P:
    """Bag of clustering parameters; lets tests exercise the lattice
    geometry at settings outside the ClusteringParams validity range."""

    def __init__(self, k, z, epsilon, alpha=DEFAULT_ALPHA):
        self.k, self.z, self.epsilon, self.alpha = k, z, epsilon, alpha


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


def test_ball_lattice_per_ball_spacing_equals_scalar_calls():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        centers = rng.standard_normal((7, d)) * 2.0
        radii = rng.uniform(0.0, 1.5, 7)
        spacings = rng.uniform(0.2, 0.9, 7)
        rows, owner = ball_lattice(centers, radii, spacings)
        parts = [ball_lattice(centers[b : b + 1], radii[b : b + 1], spacings[b]) for b in range(7)]
        assert rows.tobytes() == np.vstack([r for r, _ in parts]).tobytes()
        assert owner.tolist() == np.repeat(np.arange(7), [r.shape[0] for r, _ in parts]).tolist()
    with pytest.raises(InputError):
        ball_lattice([[0.0], [1.0]], [1.0, 1.0], [0.5, 0.0])


def test_ball_lattice_decode_matches_the_per_axis_loop():
    rng = np.random.default_rng(19)
    rows_seen = 0
    for d in range(1, 9):
        for trial in range(12):
            m = int(rng.integers(1, 9))
            spacing = float(rng.uniform(0.2, 1.0))
            centers = rng.standard_normal((m, d)) * 2.0
            # at most 3 cells per axis past d = 3, so a box holds <= 3^8 cells
            radii = rng.uniform(0.0, 1.0, m) * spacing * (4.0 if d <= 3 else 1.2)
            radii[0] = 0.0  # one cell at most
            if m > 1:
                centers[1] = np.round(centers[1] / spacing) * spacing  # lattice-aligned
                radii[1] = 0.0 if trial % 2 else spacing
            if m > 2:
                radii[2] = 1e-3  # some axis is almost surely empty
            spacings = spacing if trial % 3 else rng.uniform(0.2, 1.0, m)
            got = ball_lattice(centers, radii, spacings)
            want = per_axis_ball_lattice(centers, radii, spacings)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            rows_seen += got[0].shape[0]
    assert rows_seen > 1000


def test_ball_lattice_one_cell_boxes_match_the_per_axis_loop():
    # radii under half the spacing: every box holds at most one cell per
    # axis, so at most one cell; half the centers sit near a lattice point
    rng = np.random.default_rng(23)
    kept = empty = 0
    for d in (1, 2, 3, 5, 20, 30):
        for trial in range(8):
            m = int(rng.integers(1, 40))
            spacing = rng.uniform(0.2, 1.0, m) if trial % 2 else float(rng.uniform(0.2, 1.0))
            s = np.broadcast_to(spacing, (m,))
            radii = rng.uniform(0.0, 0.5, m) * s
            radii[0] = 0.0
            centers = rng.standard_normal((m, d)) * 4.0
            near = rng.random(m) < 0.5
            jitter = rng.uniform(-1.0, 1.0, (m, d)) * (radii / np.sqrt(d))[:, None]
            centers[near] = (np.round(centers / s[:, None]) * s[:, None] + jitter)[near]
            got = ball_lattice(centers, radii, spacing)
            want = per_axis_ball_lattice(centers, radii, spacing)
            assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
            assert got[1].tobytes() == want[1].tobytes()
            assert np.bincount(got[1], minlength=m).max() <= 1
            kept += got[0].shape[0]
            empty += m - got[0].shape[0]
    assert kept > 50 and empty > 50
    rows, owner = ball_lattice(np.empty((0, 3)), np.empty(0), 1.0)
    assert rows.shape == (0, 3) and rows.dtype == np.float64 and owner.size == 0


def test_candidate_centers_makes_one_lattice_pass(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return ball_lattice(*args)

    monkeypatch.setattr(bicriteria_mod, "ball_lattice", counting)
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.standard_normal((40, 2)), rng.standard_normal((40, 2)) + 6.0])
    cc = candidate_centers(pts, P(2, 2, 0.3, alpha=2.0), pts[:2])
    assert len(calls) == 1
    assert np.unique(cc.provenance_level).size > 2  # inputs plus several levels


def _extended_or_plain(rows, extended):
    """rows as slice-mode input, the last column the extensions, or as is."""
    return ExtendedPointSet(rows[:, :-1], rows[:, -1]) if extended else rows


def _slice_and_empty_cases():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3, 5, 20):
        pts = rng.standard_normal((12, d)) * 2.0
        pts[3, -1] = 25.0  # far off the slice: its small balls miss it
        rows = pts.copy()
        rows[:, -1] = np.abs(rows[:, -1])  # extensions are >= 0
        for z in (1, 2, 3):
            yield pts, z, False, 3000
            if d >= 2:
                yield rows, z, True, 3000
    pts = rng.standard_normal((10, 2))
    yield pts, 2, False, 40  # a tight budget forces spacing doubling


def test_candidate_centers_match_per_ball_oracle(monkeypatch):
    seen_missed = seen_empty = seen_scaled = 0
    for pts, z, extended, budget in _slice_and_empty_cases():
        params = P(k=2, z=z, epsilon=0.3, alpha=2.0)
        anchor = pts[:2]
        monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", budget)
        cc = candidate_centers(_extended_or_plain(pts, extended), params, anchor)
        points, prov_point, prov_level, scale, missed, empty = per_ball_candidates(
            pts, power_cost(pts, anchor, z), z, 0.3, 2.0, budget, extended
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
    for d, z, extended in itertools.product((2, 3), (1, 2), (False, True)):
        pts = rng.standard_normal((10, d)) * 3.0
        if extended:
            pts[:, -1] = np.abs(pts[:, -1]) * 0.2
        anchor = pts[:2]
        anchor_cost = power_cost(pts, anchor, z)
        for budget in (1, 30, 300, 3000, 10**4):
            monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", budget)
            cc = candidate_centers(
                _extended_or_plain(pts, extended),
                P(k=2, z=z, epsilon=0.3, alpha=2.0),
                anchor,
            )
            scale, _, _ = linear_spacing_scale(
                pts, anchor_cost, z, 0.3, 2.0, budget, extended
            )
            assert cc.spacing_scale == scale
            seen.add((extended, "one" if scale == 1 else
                      "cap" if scale == 1 << 40 else "between"))
    assert seen == {(s, kind) for s in (False, True)
                    for kind in ("one", "cap", "between")}


def _spacing_search_cases():
    """(base, unit, eff) of the spacing search, as _candidate_families
    builds them, over sets of 9 points at d = 2 and 20: random points,
    identical points, a tiny Delta, slice mode (some balls, or all, miss
    the slice), and units that put the hint at 0 and at its top, 39."""
    rng = np.random.default_rng(33)
    levels = np.arange(-6, 4)
    for d, z in ((2, 1), (2, 2), (20, 2), (20, 3)):
        for kind in ("plain", "identical", "tiny", "slice", "missed", "coarse", "fine"):
            sets = 1 if kind == "plain" and z == 2 else 4
            base = rng.standard_normal((sets, 9, d)) * 3.0
            if kind == "identical":
                base[:] = base[:, :1]
            delta = rng.uniform(0.1, 10.0, sets) * (1e-290 if kind == "tiny" else 1.0)
            radii = 2.0 ** (levels / z)[None, :] * delta[:, None] ** (1.0 / z)
            unit = (0.3 / z) * radii / np.sqrt(d)
            unit = unit * {"coarse": 1e3, "fine": 1e-13}.get(kind, 1.0)
            ext = np.zeros((sets, 9))
            if kind in ("slice", "missed"):
                reach = radii.max(axis=1)[:, None] * (1.01 if kind == "missed" else 0.5)
                ext = reach * (rng.uniform(0.0, 2.0, (sets, 9)) if kind == "slice" else 1.0)
            eff = np.sqrt(np.maximum(0.0, radii[:, :, None] ** 2 - ext[:, None, :] ** 2))
            yield base, unit, eff


def test_spacing_exponents_match_the_galloping_search(monkeypatch):
    seen, hints = set(), set()
    for budget in (0, 40, 4096):
        monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", budget)
        for base, unit, eff in _spacing_search_cases():
            got = bicriteria_mod._spacing_exponents(base, unit, eff)
            want = galloping_spacing_exponents(base, unit, eff)
            assert got.tolist() == want.tolist()
            seen.update("cap" if e == 40 else "one" if e == 0 else "between" for e in want)
            hints.update(bicriteria_mod._spacing_hints(unit, eff, base.shape[2]).tolist())
    assert seen == {"one", "between", "cap"}
    assert {0, 39} <= hints and len(hints) > 4


def test_spacing_exponents_do_not_depend_on_the_hint(monkeypatch):
    # the estimate is monotone in the scale, so a search started anywhere
    # stops at the same first fit: the hint and its neighbour, then at
    # most 6 bisection rounds over the 40 exponents
    rounds = []
    estimate = bicriteria_mod._estimate_over

    def counting(*args):
        rounds[-1] += 1
        return estimate(*args)

    cases = list(_spacing_search_cases())
    for hint in (0, 1, 5, 20, 38, 39):
        monkeypatch.setattr(
            bicriteria_mod, "_spacing_hints", lambda unit, eff, d: np.full(unit.shape[0], hint)
        )
        for base, unit, eff in cases[hint % 3 :: 3]:
            want = galloping_spacing_exponents(base, unit, eff)
            monkeypatch.setattr(bicriteria_mod, "_estimate_over", counting)
            rounds.append(0)
            got = bicriteria_mod._spacing_exponents(base, unit, eff)
            monkeypatch.setattr(bicriteria_mod, "_estimate_over", estimate)
            assert got.tolist() == want.tolist()
            assert rounds[-1] <= 8
            if (want == hint).all() and hint > 0:
                assert rounds[-1] == 2  # the hint fits, the exponent below it does not
    assert max(rounds) > 2


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
    centers, reason, _ = _augment(pts, pts, cc, params)
    assert reason == "low-cost"
    assert np.array_equal(centers, pts)
    assert power_cost(pts, centers, 2) == 0.0


def test_greedy_augment_two_blobs_reaches_near_opt():
    rng = np.random.default_rng(7)
    pts = blobs(rng, [(0, 0), (20, 0)], per=5, spread=0.6)
    S0 = np.array([[40.0, 40.0]])  # deliberately bad single center

    opt = exact_kz_cost(pts.tolist(), k=2, z=2)
    cost0 = power_cost(pts, S0, 2)
    # S0's own approximation factor, capped at the default
    alpha = min(DEFAULT_ALPHA, max(1.0, cost0 / opt))
    params = ClusteringParams(k=2, z=2, epsilon=0.25, alpha=alpha)
    cc = candidate_centers(pts, params, S0)
    centers, _, history = _augment(pts, S0, cc, params)

    assert power_cost(pts, centers, 2) <= (1 + params.epsilon) * opt + 1e-9
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
        bound = k + math.ceil(params.alpha * k * math.log(1 / eps) / eps)
        assert res.centers.centers.shape[0] <= bound
        # the reported cost is the recomputation, not the tracked one
        assert res.cost == power_cost(pts, res.centers, z)
        assert res.stopped_reason in ("no-improving-center", "low-cost")


def test_bicriteria_matches_lowdim_composition():
    rng = np.random.default_rng(3)
    pts = blobs(rng, [(0, 0), (8, 8)], per=6, spread=0.7)
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    S0 = constant_factor_approx(pts, params)
    cc = candidate_centers(pts, params, S0)
    centers, reason, _ = _augment(pts, S0, cc, params)
    res = bicriteria(pts, params)
    assert np.array_equal(res.centers.centers, centers)
    assert res.cost == power_cost(pts, centers, params.z)
    assert (res.stopped_reason, res.baseline_size) == (reason, S0.k)
    assert res.projection_seed is None


def test_lowdim_bicriteria_matches_sequential_bicriteria():
    from detclust.datasets import gaussian_blobs

    def blobs(n, d, seed):
        return gaussian_blobs(n, d, blobs=2, seed=seed, separation=6)

    sl = blobs(60, 3, 2)
    dup = np.repeat(blobs(2, 2, 5), [7, 5], axis=0)
    cases = [
        # the two golden instances
        (blobs(200, 2, 1), ClusteringParams(k=2, z=2, epsilon=0.3, alpha=50.0)),
        (
            ExtendedPointSet(sl[:, :-1], extensions=np.abs(sl[:, -1])),
            ClusteringParams(k=2, z=1, epsilon=0.3, alpha=2.0),
        ),
        (blobs(40, 1, 3), ClusteringParams(k=3, z=3, epsilon=0.3, alpha=2.0)),
        (
            (blobs(30, 20, 4), np.random.default_rng(4).random(30) + 0.5),
            ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0),
        ),
        # fewer points than k: the seeds are all the points, no swap search
        (blobs(3, 5, 6), ClusteringParams(k=5, z=2, epsilon=0.3)),
        # two locations, k = 2: the baseline costs 0, so no lattice
        (dup, ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)),
    ]
    for P_in, params in cases:
        res = bicriteria(P_in, params)
        want = sequential_bicriteria(P_in, params)
        assert res.centers.centers.tobytes() == want.centers.centers.tobytes()
        assert np.float64(res.cost).tobytes() == np.float64(want.cost).tobytes()
        assert (res.stopped_reason, res.baseline_size) == (want.stopped_reason, want.baseline_size)
        assert res.projection_seed is want.projection_seed is None


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
        res = bicriteria(pts, params)
        assert res.cost <= (1 + eps) * opt + 1e-9
        # the greedy phase's tracked cost drifts by rounding (to -1.2e-15 on
        # the fifth instance); the reported one is recomputed
        assert res.cost >= 0.0
        assert res.cost == power_cost(pts, res.centers, z)


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


def test_scan_projections_are_memoized_read_only():
    a = bicriteria_mod._scan_projection(30, 20, 5)
    assert bicriteria_mod._scan_projection(30, 20, 5) is a
    assert a.matrix.tobytes() == seeded_projection_family(30, 20, 5).matrix.tobytes()
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 0.0


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
    from detclust.datasets import gaussian_blobs

    calls = []
    lockstep = bicriteria_mod._bicriteria_lockstep

    def counted(*args):
        calls.append(1)
        return lockstep(*args)

    monkeypatch.setattr(bicriteria_mod, "_bicriteria_lockstep", counted)
    pts = gaussian_blobs(24, 30, blobs=2, seed=2, separation=6)
    assert (pts[:, -1] < 0).any()
    with pytest.raises(InputError):
        bicriteria(
            ExtendedPointSet(pts[:, :-1], extensions=pts[:, -1]),
            ClusteringParams(k=2, z=2, epsilon=0.3),
        )
    assert calls == []


def _projected_sets(rng, n, d, count, extended):
    """count projections of one random set, as the projection scan makes
    them; extended sets share the original set's extensions."""
    pts = rng.standard_normal((n, 30)) * 2.0
    pts[: n // 2] += 6.0
    ext = np.abs(rng.standard_normal(n)) * 0.5
    out = []
    for seed in range(count):
        proj = seeded_projection_family(30, d, seed).apply(pts)
        out.append(ExtendedPointSet(proj, ext) if extended else proj)
    return out


def test_candidate_families_match_per_set_candidate_centers(monkeypatch):
    rng = np.random.default_rng(27)
    seen_cap = seen_zero = 0
    for extended, budget, group in itertools.product(
        (False, True), (0, 40, 4096), (1, 1 << 18)
    ):
        monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", budget)
        monkeypatch.setattr(bicriteria_mod, "_ESTIMATE_ELEMENTS", group)
        sets = _projected_sets(rng, 10, 3, 5, extended)
        # two locations, each an anchor center: cost 0, so no lattice
        dup = np.repeat((sets[1].points if extended else sets[1])[:2], 5, axis=0)
        sets[1] = ExtendedPointSet(dup, np.zeros(10)) if extended else dup
        anchors = [(S.points if extended else S)[:2] for S in sets]
        if extended:  # centers at extension 0
            anchors = [np.hstack([a, np.zeros((2, 1))]) for a in anchors]
        params = P(k=2, z=int(rng.integers(1, 4)), epsilon=0.3, alpha=2.0)
        got = bicriteria_mod._candidate_families(sets, params, anchors)
        for fam, S, a in zip(got, sets, anchors):
            want = candidate_centers(S, params, a)
            assert fam.points.tobytes() == want.points.tobytes()
            assert np.array_equal(fam.provenance_point, want.provenance_point)
            assert np.array_equal(fam.provenance_level, want.provenance_level)
            assert fam.spacing_scale == want.spacing_scale
            seen_cap += fam.spacing_scale == 1 << 40
        seen_zero += got[1].size == 2
    assert seen_cap and seen_zero


def test_candidate_families_raise_no_warning():
    # identical points at d = 30, anchored on themselves (cost 0, no
    # search) and off them; a slice of zero extensions, and one whose
    # extensions put some balls off the slice
    rng = np.random.default_rng(41)
    params = P(k=2, z=2, epsilon=0.3, alpha=2.0)
    pts = np.tile(rng.standard_normal((1, 30)) * 3.0, (12, 1))
    base = rng.standard_normal((12, 5)) * 3.0
    on_slice = np.hstack([base[:2], np.zeros((2, 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for anchor in (pts[:2], pts[:2] + 1.0):
            bicriteria_mod._candidate_families([pts, pts], params, [anchor, anchor])
        for ext in (np.zeros(12), np.abs(rng.standard_normal(12)) * 20.0):
            E = ExtendedPointSet(base, ext)
            bicriteria_mod._candidate_families([E, E], params, [on_slice, on_slice])


def test_lockstep_lift_and_costs_match_one_labeling_at_a_time(monkeypatch):
    # costs summed in canonical order, not input order: widely spread
    # per-point costs make the order show in the last bits
    rng = np.random.default_rng(35)
    monkeypatch.setattr(bicriteria_mod, "_LIFT_POINTS", 12)
    for trial in range(12):
        n, d, z = 40, int(rng.integers(1, 6)), int(rng.integers(1, 4))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        w = rng.random(n) + 0.5
        P_in = (pts, w) if trial % 2 else ExtendedPointSet(pts, rng.random(n), w)
        labelings = [rng.integers(0, int(rng.integers(1, 9)), n) for _ in range(5)]
        lifted = bicriteria_mod._lift_all(P_in, labelings, z)
        costs = geometry._power_costs(P_in, lifted, z)
        for labels, got, cost in zip(labelings, lifted, costs):
            want = sequential_lift(P_in, labels, z)
            assert got.tobytes() == want.tobytes()
            assert cost.tobytes() == np.float64(argmin_power_cost(P_in, want, z)).tobytes()


def _assert_scan_matches_sequential(P_in, params):
    res = bicriteria(P_in, params)
    centers, cost, reason, seed, baseline = sequential_projection_scan(P_in, params)
    assert res.centers.centers.tobytes() == centers.tobytes()
    assert res.cost == cost and isinstance(res.cost, float)
    assert (res.stopped_reason, res.projection_seed, res.baseline_size) == (reason, seed, baseline)
    return res


def test_projection_scan_matches_the_sequential_scan(monkeypatch):
    from detclust.datasets import gaussian_blobs

    rng = np.random.default_rng(33)
    pts = gaussian_blobs(24, 30, blobs=2, seed=3, separation=6)
    for z, alpha in ((1, 2.0), (2, 2.0), (3, 2.0), (2, DEFAULT_ALPHA)):
        params = ClusteringParams(k=2, z=z, epsilon=0.3, alpha=alpha)
        _assert_scan_matches_sequential(pts, params)
    params = ClusteringParams(k=3, z=2, epsilon=0.3, alpha=2.0)
    # weighted, and slice mode: the extension counts as a dimension
    _assert_scan_matches_sequential((pts, rng.random(24) + 0.5), params)
    ext = np.abs(rng.standard_normal(24))
    _assert_scan_matches_sequential(ExtendedPointSet(pts, ext, rng.random(24) + 0.5), params)
    # fewer points than k: the seeds are all the points, no swap search
    _assert_scan_matches_sequential(pts[:3], ClusteringParams(k=5, z=2, epsilon=0.3))
    # two locations, k = 2: the anchor costs 0, so no lattice is built
    dup = np.repeat(pts[[0, 20]], [7, 5], axis=0)
    res = _assert_scan_matches_sequential(dup, params)
    assert res.stopped_reason == "low-cost" and res.baseline_size == 3
    # lifts split into runs of a few points, one call per run and seed
    monkeypatch.setattr(bicriteria_mod, "_LIFT_POINTS", 5)
    _assert_scan_matches_sequential(pts, ClusteringParams(k=2, z=1, epsilon=0.3))
    # no lattice fits: every spacing search runs to the 2^40 cap
    monkeypatch.setattr(bicriteria_mod, "MAX_CANDIDATES", 0)
    _assert_scan_matches_sequential(pts, params)


def _record_lockstep_sizes(monkeypatch):
    sizes = []
    lockstep = bicriteria_mod._bicriteria_lockstep

    def recorded(sets, params):
        sizes.append(len(sets))
        return lockstep(sets, params)

    monkeypatch.setattr(bicriteria_mod, "_bicriteria_lockstep", recorded)
    return sizes


def test_projection_scan_stops_at_a_zero_cost_seed_0(monkeypatch):
    from detclust.datasets import gaussian_blobs

    sizes = _record_lockstep_sizes(monkeypatch)
    # 8 distinct points at alpha = 50: every point becomes a center, so
    # seed 0's lifted cost is 0 and no other seed is solved
    pts = np.random.default_rng(43).standard_normal((8, 30)) * 2.0
    res = _assert_scan_matches_sequential(pts, ClusteringParams(k=2, z=2, epsilon=0.3))
    assert sizes == [1] and res.cost == 0.0 and res.projection_seed == 0
    sizes.clear()
    pts = gaussian_blobs(24, 30, blobs=2, seed=3, separation=6)
    res = _assert_scan_matches_sequential(pts, ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0))
    assert sizes == [1, 15] and res.cost > 0.0


def test_projection_scan_picks_its_winner_as_the_sequential_scan_on_nan(monkeypatch):
    # a NaN lifted cost never replaces an earlier seed, and at seed 0 no
    # later cost is strictly lower, as in the sequential scan
    import oracles
    from detclust.datasets import gaussian_blobs

    pts = gaussian_blobs(24, 30, blobs=2, seed=3, separation=6)
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    winner = bicriteria(pts, params).projection_seed
    power_costs, one_cost = bicriteria_mod._power_costs, oracles.power_cost
    for nan_seed in sorted({0, winner, 7}):
        seen = []

        def patched(P, center_sets, z):
            costs = power_costs(P, center_sets, z)
            if 0 <= nan_seed - len(seen) < costs.size:
                costs[nan_seed - len(seen)] = np.nan
            seen.extend(costs.tolist())
            return costs

        def patched_one(P, S, z):
            seen.append(None)
            return np.nan if len(seen) - 1 == nan_seed else one_cost(P, S, z)

        monkeypatch.setattr(bicriteria_mod, "_power_costs", patched)
        res = bicriteria(pts, params)
        assert len(seen) == 16 and np.isnan(seen[nan_seed])
        seen.clear()
        monkeypatch.setattr(oracles, "power_cost", patched_one)
        centers, cost, reason, seed, baseline = sequential_projection_scan(pts, params)
        monkeypatch.setattr(oracles, "power_cost", one_cost)
        assert res.centers.centers.tobytes() == centers.tobytes()
        assert np.float64(res.cost).tobytes() == np.float64(cost).tobytes()
        assert (res.stopped_reason, res.projection_seed, res.baseline_size) == (reason, seed, baseline)
        assert (seed == 0) if nan_seed == 0 else (seed != nan_seed)
