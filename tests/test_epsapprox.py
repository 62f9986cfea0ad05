import math

import numpy as np
import pytest

from detclust import InputError, epsapprox, geometry
from detclust.epsapprox import (
    DEFAULT_MAX_RANGES,
    RangeTestFamily,
    SetApproximation,
    _halve,
    _membership_matrix,
    ball_test_families,
    halving_approx,
    uniform_sample_approx,
    vc_dim_hint_euclidean,
    verify_set_approx,
)

from oracles import (
    every_level_halving,
    naive_far_membership,
    per_range_ball_family,
    recount_deviation,
)


def circle(n):
    th = 2 * np.pi * np.arange(n) / n
    return np.c_[np.cos(th), np.sin(th)]


def family_of(pairs):
    """RangeTestFamily from (centers, radius) pairs: centers stacked in
    order, each row padded by repeating its last index."""
    sizes = [len(c) for c, _ in pairs]
    starts = np.cumsum([0] + sizes[:-1])
    s = max(sizes)
    cols = [[lo + min(j, m - 1) for j in range(s)] for lo, m in zip(starts, sizes)]
    return RangeTestFamily(
        centers=np.vstack([c for c, _ in pairs]),
        cols=np.array(cols),
        radii=np.array([r for _, r in pairs]),
    )


def random_pairs(rng, k, n_ranges, d=2, box=1.3, rmax=2.2):
    out = []
    for _ in range(n_ranges):
        m = int(rng.integers(1, k + 1))
        out.append((rng.uniform(-box, box, size=(m, d)), float(rng.uniform(0, rmax))))
    return out


def random_family(rng, k, n_ranges, d=2, box=1.3, rmax=2.2):
    return family_of(random_pairs(rng, k, n_ranges, d, box, rmax))


def range_centers(fam, t):
    """Centers of range t, padding repeats dropped, order kept."""
    return fam.centers[list(dict.fromkeys(fam.cols[t].tolist()))]


def test_membership_radius_zero_always_true():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((100, 2))
    for _ in range(20):
        fam = family_of([(rng.standard_normal((3, 2)), 0.0)])
        # every point is in, the range's own centers too
        assert _membership_matrix(np.vstack([pts, fam.centers]), fam).all()


def test_membership_at_center_false():
    c = np.array([[1.0, 2.0]])
    pts = np.array([[1.0, 2.0], [9.0, 9.0]])
    M = _membership_matrix(pts, family_of([(c, 0.5)]))
    assert M.tolist() == [[False, True]]
    # a range center is never in its own range, whichever range it sits in
    fam = random_family(np.random.default_rng(6), 3, 20)
    M = _membership_matrix(fam.centers, fam)
    for t in range(len(fam)):
        if fam.radii[t] > 0:
            assert not M[t, np.unique(fam.cols[t])].any()


def test_membership_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pairs = random_pairs(rng, 3, int(rng.integers(1, 8)), d=3, box=2.0, rmax=3.0)
        pts = rng.standard_normal((12, 3))
        M = _membership_matrix(pts, family_of(pairs))
        for t, (C, rad) in enumerate(pairs):
            for i, p in enumerate(pts):
                assert M[t, i] == naive_far_membership(p.tolist(), C.tolist(), rad)


def test_membership_validates():
    fam = family_of([(np.zeros((1, 2)), 1.0)])
    with pytest.raises(InputError):
        _membership_matrix(np.zeros((4, 3)), fam)
    with pytest.raises(InputError):
        family_of([(np.zeros((1, 2)), -0.1)])


def test_family_record_validates():
    c = np.zeros((2, 2))
    with pytest.raises(InputError):
        RangeTestFamily(c, np.zeros((0, 1), dtype=np.int64), np.zeros(0))
    with pytest.raises(InputError):
        RangeTestFamily(c, np.array([[0, 2]]), np.array([1.0]))
    with pytest.raises(InputError):
        RangeTestFamily(c, np.array([[0, 1]]), np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        RangeTestFamily(c, np.array([[0, 1]]), np.array([np.nan]))


def test_halving_two_identical_points():
    pts = np.array([[3.0, 4.0], [3.0, 4.0]])
    fam = random_family(np.random.default_rng(1), 2, 5)
    A = halving_approx(pts, 0.5, fam)
    assert A.indices.tolist() == [0]
    assert verify_set_approx(pts, A, fam) == 0.0


def test_halving_eps_one_hits_floor():
    pts = circle(256)
    fam = random_family(np.random.default_rng(2), 3, 50)
    A = halving_approx(pts, 1.0, fam)
    assert A.indices.size == 8
    assert verify_set_approx(pts, A, fam) <= 1.0


def test_halving_circle_instance():
    pts = circle(256)
    fam = random_family(np.random.default_rng(3), 3, 50)
    A = halving_approx(pts, 0.2, fam)
    assert A.indices.size < 256
    assert verify_set_approx(pts, A, fam) <= 0.2


def test_verifier_matches_recount():
    pts = circle(64)
    fam = random_family(np.random.default_rng(4), 2, 20)
    A = halving_approx(pts, 0.3, fam)
    got = verify_set_approx(pts, A, fam)
    pairs = [(range_centers(fam, t).tolist(), r) for t, r in enumerate(fam.radii)]
    want = recount_deviation(pts.tolist(), A.indices.tolist(), pairs)
    assert got == pytest.approx(want, abs=1e-12)


def test_halving_tiny_eps_returns_ground():
    pts = circle(64)
    fam = random_family(np.random.default_rng(5), 2, 20)
    A = halving_approx(pts, 1e-6, fam)
    assert A.indices.size == 64
    assert verify_set_approx(pts, A, fam) == 0.0


def _counting_halve(monkeypatch):
    runs = []

    def counted(*args):
        runs.append(1)
        return _halve(*args)

    monkeypatch.setattr(epsapprox, "_halve", counted)
    return runs


def test_halving_matches_the_every_level_loop(monkeypatch):
    # plain and duplicate-heavy grounds: below the floor a level is tried
    # only when some smaller kept size can reach deviation 0
    rng = np.random.default_rng(61)
    runs = _counting_halve(monkeypatch)
    skipped = floor_accepts = 0
    for trial in range(300):
        n, d = int(rng.integers(2, 41)), int(rng.integers(1, 4))
        if trial % 2:
            spots = rng.standard_normal((int(rng.integers(1, 5)), d))
            pts = spots[rng.integers(0, spots.shape[0], n)]
        else:
            pts = rng.standard_normal((n, d))
        fam = (
            ball_test_families(pts, [0], int(rng.integers(1, 4)), DEFAULT_MAX_RANGES)[0]
            if trial % 3
            else random_family(rng, 2, 10, d=d)
        )
        eps_p = float(rng.uniform(0.05, 1.0))
        want, old_runs = every_level_halving(pts, eps_p, fam)
        runs.clear()
        got = halving_approx(pts, eps_p, fam)
        assert got.indices.tolist() == want.tolist()
        assert len(runs) <= old_runs
        skipped += len(runs) < old_runs
        floor_accepts += want.size < min(n, epsapprox.HALVING_MIN_SIZE)
    assert skipped and floor_accepts


def test_halving_skips_levels_no_kept_size_can_match(monkeypatch):
    # 5 points whose range counts are coprime with 5: no kept size below 5
    # has the ground's shares, so no level is halved
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0], [4.0, 4.0]])
    fam = family_of([(np.array([[0.0, 0.0]]), 1.5), (np.array([[4.0, 4.0]]), 1.0)])
    counts = _membership_matrix(pts, fam).sum(axis=1)
    assert math.gcd(5, *counts.tolist()) == 1
    runs = _counting_halve(monkeypatch)
    A = halving_approx(pts, 1.0, fam)
    assert runs == [] and A.indices.tolist() == list(range(5))
    assert every_level_halving(pts, 1.0, fam)[0].tolist() == list(range(5))


def test_halving_deterministic():
    pts = np.random.default_rng(6).standard_normal((100, 2))
    fam = random_family(np.random.default_rng(7), 3, 30)
    a = halving_approx(pts, 0.25, fam)
    b = halving_approx(pts, 0.25, fam)
    assert np.array_equal(a.indices, b.indices)


def test_halving_validates_args():
    pts = circle(16)
    fam = random_family(np.random.default_rng(8), 2, 4)
    with pytest.raises(InputError):
        halving_approx(pts, 0.0, fam)
    with pytest.raises(InputError):
        halving_approx(pts, 1.5, fam)
    with pytest.raises(InputError):
        halving_approx(pts, 0.5, RangeTestFamily(pts, np.zeros((0, 1), int), np.zeros(0)))


def test_halving_estimator_discrepancy_bound():
    # one coloring pass keeps every range's signed discrepancy within the
    # classical sqrt(2 n ln(2 m)) envelope
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((256, 2))
    fam = random_family(rng, 3, 50)
    M = _membership_matrix(pts, fam)
    M_est = np.vstack([M, np.ones((1, 256), dtype=bool)])
    n, m = 256, M_est.shape[0]
    lam = math.sqrt(2.0 * math.log(2.0 * len(fam)) / n)
    keep = set(_halve(np.arange(n), M_est, lam).tolist())
    signs = np.array([1.0 if i in keep else -1.0 for i in range(n)])
    bound = math.sqrt(2.0 * n * math.log(2.0 * m))
    for row in M_est:
        assert abs(signs[row].sum()) <= bound + 1e-9


def test_verify_ground_is_zero():
    pts = np.random.default_rng(10).standard_normal((40, 3))
    fam = random_family(np.random.default_rng(11), 2, 15, d=3)
    A = SetApproximation(indices=np.arange(40), ground_size=40)
    assert verify_set_approx(pts, A, fam) == 0.0


def test_radius_zero_ranges_full_deviation_zero():
    pts = np.random.default_rng(12).standard_normal((30, 2))
    fam = family_of([(np.zeros((1, 2)), 0.0)] * 5)
    A = SetApproximation(indices=np.array([0, 7, 19]), ground_size=30)
    assert verify_set_approx(pts, A, fam) == 0.0


def test_single_point_approx_extreme_deviation():
    # one range containing exactly the kept point: deviation |1/n - 1|
    pts = np.vstack([[10.0, 0.0], np.zeros((4, 2))])
    fam = family_of([(np.zeros((1, 2)), 5.0)])
    A = SetApproximation(indices=np.array([0]), ground_size=5)
    assert verify_set_approx(pts, A, fam) == pytest.approx(1 - 1 / 5)


def test_one_point_ground_keeps_its_point_after_the_checks():
    fam = random_family(np.random.default_rng(15), 2, 10)
    A = halving_approx(np.array([[0.5, -1.0]]), 0.3, fam)
    assert A.indices.tolist() == [0] and A.ground_size == 1
    with pytest.raises(InputError, match="eps_prime"):
        halving_approx(np.array([[0.5, -1.0]]), 0.0, fam)
    with pytest.raises(InputError, match="dimension"):
        halving_approx(np.array([[0.5, -1.0, 2.0]]), 0.3, fam)


def test_set_approximation_validates():
    with pytest.raises(InputError):
        SetApproximation(indices=np.array([], dtype=np.int64), ground_size=4)
    with pytest.raises(InputError):
        SetApproximation(indices=np.array([0, 0]), ground_size=4)
    with pytest.raises(InputError):
        SetApproximation(indices=np.array([4]), ground_size=4)


def test_sample_full_set_when_bound_large():
    pts = np.random.default_rng(13).standard_normal((10, 2))
    fam = random_family(np.random.default_rng(14), 2, 10)
    A = uniform_sample_approx(pts, 0.3, 0.1, 6, seed=5)
    assert A.indices.tolist() == list(range(10))
    assert verify_set_approx(pts, A, fam) == 0.0


def test_sample_seed_replay():
    pts = np.random.default_rng(15).standard_normal((1000, 2))
    a = uniform_sample_approx(pts, 0.3, 0.1, 6, seed=42)
    b = uniform_sample_approx(pts, 0.3, 0.1, 6, seed=42)
    c = uniform_sample_approx(pts, 0.3, 0.1, 6, seed=43)
    assert np.array_equal(a.indices, b.indices)
    assert a.seed == 42
    assert not np.array_equal(a.indices, c.indices)
    # the documented size formula, below the ground size here
    want = math.ceil(2 / 0.3**2 * (6 * math.log(6 / 0.3) + math.log(10)))
    assert a.indices.size == want == 451


def test_sample_monte_carlo_failure_rate():
    rng = np.random.default_rng(16)
    pts = rng.standard_normal((1000, 2))
    fam = random_family(np.random.default_rng(17), 2, 50, rmax=3.0)
    vc = vc_dim_hint_euclidean(1, 2)
    fails = 0
    for trial in range(100):
        A = uniform_sample_approx(pts, 0.3, 0.1, vc, seed=trial)
        if verify_set_approx(pts, A, fam) > 0.3:
            fails += 1
    assert fails / 100 <= 0.2


def test_sample_validates_args():
    pts = np.zeros((5, 2))
    with pytest.raises(InputError):
        uniform_sample_approx(pts, 0.0, 0.1, 3, seed=0)
    with pytest.raises(InputError):
        uniform_sample_approx(pts, 0.3, 1.0, 3, seed=0)
    with pytest.raises(InputError):
        uniform_sample_approx(pts, 0.3, 0.1, 0, seed=0)


def test_vc_dim_hint_values():
    assert vc_dim_hint_euclidean(1, 2) == 6
    assert vc_dim_hint_euclidean(3, 2) == 36
    assert vc_dim_hint_euclidean(2, 5) == math.ceil(30 * math.log2(3))


def test_family_deterministic_and_shaped():
    pts = np.random.default_rng(18).standard_normal((60, 2))
    f1 = ball_test_families(pts, [0], 3, 40)[0]
    f2 = ball_test_families(pts, [0], 3, 40)[0]
    assert len(f1) == 40
    assert f1.centers.shape == (9, 2) and f1.cols.shape == (40, 3)
    for a, b in ((f1.centers, f2.centers), (f1.cols, f2.cols), (f1.radii, f2.radii)):
        assert np.array_equal(a, b)
    for t in range(40):
        row = f1.cols[t].tolist()
        size = len(set(row))
        assert size == 1 + t % 3
        # distinct indices first, then the last one repeated
        assert row[size:] == [row[size - 1]] * (3 - size)


def _family_grounds():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3, 9):
        yield rng.standard_normal((40, d)) * rng.uniform(0.5, 3.0)
    yield np.repeat(rng.standard_normal((5, 2)), 12, axis=0)  # duplicate-heavy
    yield np.array([[1.5, -2.0]])  # one point
    yield rng.standard_normal((200, 9))  # 64-data-row centers


def test_family_matches_per_range_oracle():
    for pts in _family_grounds():
        for k in (1, 2, 3, 4):
            fam = ball_test_families(pts, [0], k, DEFAULT_MAX_RANGES)[0]
            want = per_range_ball_family(pts, k)
            assert len(fam) == len(want)
            for t, (centers, radius) in enumerate(want):
                assert range_centers(fam, t).tobytes() == centers.tobytes()
                assert fam.radii[t].tobytes() == np.float64(radius).tobytes()


def test_family_validates():
    pts = np.zeros((4, 2))
    with pytest.raises(InputError):
        ball_test_families(pts, [0], 0, DEFAULT_MAX_RANGES)
    with pytest.raises(InputError):
        ball_test_families(pts, [0], 2, 0)


def _stress_grounds(rng, d):
    """Grounds for the batched builder: random at a random scale, a single
    point and one point repeated (one distinct distance in the data-row
    regime), a zero-span axis, two points, a ground past 64 rows and a
    line."""
    yield rng.standard_normal((int(rng.integers(2, 40)), d)) * 10 ** rng.uniform(-4, 4)
    yield rng.standard_normal((1, d))
    yield np.repeat(rng.standard_normal((1, d)), 7, axis=0)
    flat = rng.standard_normal((13, d))
    flat[:, 0] = 2.5
    yield flat
    yield np.vstack([np.zeros(d), np.ones(d)])
    yield rng.integers(-2, 3, size=(130, d)).astype(np.float64)
    # 30 points on a line: as data-row centers, 30 distinct distances, a
    # count whose 15 ranks one all-grounds linspace would round differently
    # beside a ground with one distinct distance
    line = np.zeros((30, d))
    line[:, 0] = np.arange(30)
    yield line


def _assert_same_family(got, want):
    for a, b in ((got.centers, want.centers), (got.cols, want.cols), (got.radii, want.radii)):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", range(1, 10))
def test_batched_families_equal_per_ground_families(d):
    # d <= 7 is the grid regime, d >= 8 the data-row one
    rng = np.random.default_rng(40 + d)
    grounds = list(_stress_grounds(rng, d)) + list(_stress_grounds(rng, d))
    grounds = [grounds[i] for i in rng.permutation(len(grounds))]
    pts = np.vstack(grounds)
    starts = np.cumsum([0] + [g.shape[0] for g in grounds[:-1]])
    for k in (1, 2, 3):
        for max_ranges in (1, 2, 15, 64):
            fams = ball_test_families(pts, starts, k, max_ranges)
            assert len(fams) == len(grounds)
            for ground, fam in zip(grounds, fams):
                _assert_same_family(fam, ball_test_families(ground, [0], k, max_ranges)[0])
    for ground, fam in zip(grounds, ball_test_families(pts, starts, 2, 64)):
        for t, (centers, radius) in enumerate(per_range_ball_family(ground, 2)):
            assert range_centers(fam, t).tobytes() == centers.tobytes()
            assert fam.radii[t].tobytes() == np.float64(radius).tobytes()


@pytest.mark.parametrize("d", (2, 9))
def test_batched_families_keep_their_bits_in_small_groups(d, monkeypatch):
    rng = np.random.default_rng(60 + d)
    grounds = list(_stress_grounds(rng, d))
    pts = np.vstack(grounds)
    starts = np.cumsum([0] + [g.shape[0] for g in grounds[:-1]])
    whole = ball_test_families(pts, starts, 3, 64)
    # a budget of a few rows per group and per distance chunk
    monkeypatch.setattr(epsapprox, "_CHUNK", 5 * d * 9)
    monkeypatch.setattr(geometry, "_CHUNK", 3 * d * 9)
    for a, b in zip(ball_test_families(pts, starts, 3, 64), whole):
        _assert_same_family(a, b)


def test_batched_families_share_cols_and_validate_starts():
    pts = np.random.default_rng(3).standard_normal((12, 2))
    fams = ball_test_families(pts, [0, 5, 6], 2, 16)
    assert fams[0].cols is fams[1].cols is fams[2].cols
    for bad in ([], [1, 5], [0, 5, 5], [0, 12], [[0, 5]]):
        with pytest.raises(InputError):
            ball_test_families(pts, bad, 2, 16)
