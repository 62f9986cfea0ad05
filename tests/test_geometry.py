import numpy as np
import pytest

from detclust import (
    CenterSet,
    ClusteringParams,
    ExtendedPointSet,
    InputError,
    WeightedPointSet,
    power_cost,
    power_triangle_bound,
    solve_1center,
    tree_sum,
)
from detclust import geometry
from detclust.datasets import gaussian_blobs
from detclust.epsapprox import DEFAULT_MAX_RANGES, ball_test_families
from detclust.geometry import center_grid, min_power_dists, solve_1centers
from detclust.rings import ring_coreset
from detclust.solve import exact_solve
from detclust.summation import tree_sum_rows

from oracles import (
    argmin_power_cost,
    carried_tree_sum,
    dict_row_pool,
    grid_search_1center,
    meshgrid_center_grid,
    naive_power_cost,
)


def test_tree_sum_matches_math_fsum():
    import math

    rng = np.random.default_rng(0)
    for n in [1, 2, 3, 7, 64, 1000]:
        a = rng.normal(size=n) * 10.0**rng.integers(-3, 3, size=n)
        assert tree_sum(a) == pytest.approx(math.fsum(a), rel=1e-14)
    assert tree_sum([]) == 0.0


def test_tree_sum_rows_is_tree_sum_of_each_zero_padded_row():
    # trailing zeros leave a tree sum's bits alone, so rows of different
    # lengths, padded on the right, sum together
    rng = np.random.default_rng(1)
    for n in range(0, 40):
        rows = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-8, 8, size=(3, n))
        lengths = rng.integers(0, n + 1, size=3)
        for r, length in enumerate(lengths):
            rows[r, length:] = 0.0
        got = tree_sum_rows(rows)
        for r, length in enumerate(lengths):
            assert got[r].tobytes() == np.float64(tree_sum(rows[r, :length])).tobytes()


def _bits(x):
    return np.float64(x).tobytes()


def test_tree_sum_is_the_carried_tree_bit_for_bit():
    # -0.0 padding: x + -0.0 is x for every x, the signed zeros included,
    # so the one-row tree_sum_rows is the tree that carries an odd element
    rng = np.random.default_rng(2)
    assert _bits(tree_sum([])) == _bits(0.0) == _bits(carried_tree_sum([]))
    for n in range(1, 300):
        a = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        a[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
        cases = [a, -np.abs(a), np.full(n, -0.0), np.where(rng.random(n) < 0.5, 0.0, -0.0)]
        for x in cases:
            assert _bits(tree_sum(x)) == _bits(carried_tree_sum(x)), n
    assert _bits(tree_sum([-0.0] * 3)) == _bits(-0.0)
    assert _bits(tree_sum_rows(np.empty((2, 0)))[1]) == _bits(0.0)


def test_power_cost_is_the_argmin_body_bit_for_bit():
    rng = np.random.default_rng(3)
    for trial in range(300):
        n, d, m = int(rng.integers(1, 40)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
        z = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        pts[rng.random(n) < 0.2] = pts[0]  # repeated rows: canonical order ties
        S = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3)
        if trial % 10 == 0:
            S[0] = pts[0]  # a cost-0 point
        w = rng.random(n) * rng.choice([1.0, 1e6])
        w[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
        P = [pts, (pts, w), ExtendedPointSet(pts, rng.random(n), w)][trial % 3]
        assert _bits(power_cost(P, S, z)) == _bits(argmin_power_cost(P, S, z)), trial
        assert type(power_cost(P, CenterSet(S), z)) is float


def test_own_center_costs_are_power_cost_of_each_set_bit_for_bit():
    rng = np.random.default_rng(29)
    for trial in range(144):
        d, z, kind = (1, 2, 3, 20)[trial % 4], 1 + trial // 4 % 3, trial // 12 % 3
        sets, n, m = int(rng.integers(1, 6)), int(rng.integers(1, 30)), int(rng.integers(1, 5))
        X = rng.standard_normal((sets, n, d)) * 10.0 ** rng.uniform(-3, 3, (sets, n, 1))
        X[:, rng.random(n) < 0.2] = X[:, :1]  # repeated rows: canonical order ties
        w = np.ones((sets, n))
        if kind:  # weighted, some weights 0 or -0
            w = rng.random((sets, n)) * rng.choice([1.0, 1e6])
            w[:, rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
        C = rng.standard_normal((sets, m, d)) * 10.0 ** rng.uniform(-3, 3)
        C[:, 0] = X[:, 0]  # a cost-0 point
        if kind == 2:  # slice sets: the extension as a last coordinate, 0 at the centers
            ext = rng.random((sets, n))
            want = [power_cost(ExtendedPointSet(*a), c, z) for a, c in zip(zip(X, ext, w), C)]
            X = np.concatenate([X, ext[:, :, None]], axis=2)
            C = np.concatenate([C, np.zeros((sets, m, 1))], axis=2)
        else:
            want = [power_cost((x, ws), c, z) for x, ws, c in zip(X, w, C)]
        got = geometry._own_center_costs(X, w, C, z)
        assert [_bits(g) for g in got] == [_bits(v) for v in want], trial


def test_types_validate():
    with pytest.raises(InputError):
        WeightedPointSet(np.empty((0, 2)))
    with pytest.raises(InputError):
        WeightedPointSet([[0.0, np.nan]])
    with pytest.raises(InputError):
        WeightedPointSet([[0.0, 1.0]], weights=[-1.0])
    with pytest.raises(InputError):
        ExtendedPointSet([[0.0]], extensions=[-0.5])
    with pytest.raises(InputError):
        WeightedPointSet(np.empty((3, 0)))
    with pytest.raises(InputError):
        CenterSet([[0.0], [np.inf]])
    with pytest.raises(InputError):
        ClusteringParams(k=1, z=1, epsilon=0.5)
    with pytest.raises(InputError):
        ClusteringParams(k=0, z=1, epsilon=0.1)
    for alpha in (0.0, -1.0, np.nan, np.inf):  # c_A is a finite factor >= 1
        with pytest.raises(InputError):
            ClusteringParams(k=1, z=1, epsilon=0.1, alpha=alpha)


def test_power_cost_grid_example():
    # 10-point uniform grid on [0,1], one center at 0.5, z=2
    pts = np.linspace(0.0, 1.0, 10)[:, None]
    got = power_cost(pts, np.array([[0.5]]), 2)
    want = naive_power_cost(pts, [[0.5]], 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_power_cost_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        z = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d)) * 3
        w = rng.uniform(0.1, 2.0, size=n)
        cts = rng.normal(size=(m, d)) * 3
        got = power_cost(WeightedPointSet(pts, w), cts, z)
        want = naive_power_cost(pts, cts, z, w)
        assert got == pytest.approx(want, rel=1e-11)


def test_power_cost_permutation_invariant_bit_exact():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    w = rng.uniform(0.5, 2.0, size=40)
    cts = rng.normal(size=(3, 3))
    base = power_cost(WeightedPointSet(pts, w), cts, 2)
    for seed in range(5):
        rng_p = np.random.default_rng(seed)
        perm = rng_p.permutation(40)
        cperm = rng_p.permutation(3)
        again = power_cost(WeightedPointSet(pts[perm], w[perm]), cts[cperm], 2)
        assert again == base  # bit-exact


def test_power_cost_zero_weights_and_dim_mismatch():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert power_cost(WeightedPointSet(pts, np.zeros(2)), [[5.0, 5.0]], 2) == 0.0
    with pytest.raises(InputError):
        power_cost(pts, [[1.0]], 2)
    with pytest.raises(InputError):  # extended sets take base-space centers
        power_cost(ExtendedPointSet(pts, extensions=[1.0, 2.0]), [[1.0, 1.0, 0.0]], 2)


def test_min_power_dists_tie_breaks_to_lowest_index():
    pts = np.array([[0.0, 0.0]])
    cts = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant
    _, idx = min_power_dists(pts, cts, 2)
    assert idx[0] == 0


def test_solve_1center_mean_for_z2():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d))
        w = rng.uniform(0.1, 3.0, size=n)
        c = solve_1center(WeightedPointSet(pts, w), 2)
        want = np.average(pts, axis=0, weights=w)
        assert np.allclose(c, want, rtol=0, atol=1e-12 * (1 + np.abs(want).max()))


def certified_center(P, z):
    """solve_1center's center and the certified column of its
    solve_1centers row."""
    base, ext, w = geometry._split_extended(P)
    c, _, ok = solve_1centers(base, ext, w, np.ones((1, base.shape[0]), dtype=bool), z)
    assert c[0].tobytes() == solve_1center(P, z).tobytes()
    return c[0], bool(ok[0])


def test_solve_1center_median_majority_point():
    # Weight-2 point at the origin dominates: the geometric median is there.
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    c, converged = certified_center(pts, 1)
    assert converged
    assert np.allclose(c, [0.0, 0.0], atol=1e-9)


def test_solve_1center_median_vs_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = rng.uniform(-1, 1, size=(6, 2))
        c, converged = certified_center(pts, 1)
        assert converged
        got = naive_power_cost(pts, [c], 1)
        _, ref = grid_search_1center(pts, 1)
        assert got <= ref * (1 + 1e-6)


def test_solve_1center_high_z_descends():
    rng = np.random.default_rng(5)
    for z in (3, 4):
        pts = rng.normal(size=(12, 3))
        c = solve_1center(pts, z)
        obj = naive_power_cost(pts, [c], z)
        # optimum is no worse than the best input point or the mean
        cands = [naive_power_cost(pts, [p], z) for p in pts]
        cands.append(naive_power_cost(pts, [pts.mean(axis=0)], z))
        assert obj <= min(cands) + 1e-9 * min(cands)


def test_solve_1center_high_z_converges_near_optimum():
    # the solver certifies its center, and no grid center costs less
    pts = gaussian_blobs(8, 2, blobs=2, seed=3, separation=6)[[0, 1, 2, 6]]
    c, converged = certified_center(pts, 3)
    assert converged
    _, ref = grid_search_1center(pts, 3)
    assert naive_power_cost(pts, [c], 3) <= ref * (1 + 1e-12)


def test_solve_1center_identical_points():
    pts = np.full((4, 2), 7.25)
    for z in (1, 2, 3):
        c = solve_1center(pts, z)
        assert np.allclose(c, [7.25, 7.25], atol=0)


def test_constrained_center_symmetric_pair():
    # base {-1, +1} with unit extensions, z=1: optimum at 0, cost 2*sqrt(2)
    E = ExtendedPointSet([[-1.0], [1.0]], extensions=[1.0, 1.0])
    c = solve_1center(E, 1)
    assert abs(c[0]) < 1e-8
    cost = sum(np.sqrt((b - c[0]) ** 2 + 1.0) for b in (-1.0, 1.0))
    assert cost == pytest.approx(2 * np.sqrt(2.0), abs=1e-8)


def test_solve_1center_keeps_extended_centers_at_extension_zero():
    # an extended set's center lives in the base space: the extensions add
    # cost but are no coordinate to average (the centroid of the rows with
    # the extension appended is [1.0, 1.1667])
    base, ext = np.array([-1.0, 1.0, 3.0]), np.array([1.0, 2.0, 0.5])
    E = ExtendedPointSet(base[:, None], extensions=ext)
    assert solve_1center(E, 2).tobytes() == np.array([1.0]).tobytes()
    grid = np.linspace(-1.0, 3.0, 4001)
    for z in (1, 3):
        c, converged = certified_center(E, z)

        def cost(x):
            return (((base - x) ** 2 + ext**2) ** (z / 2)).sum()

        assert c.shape == (1,) and converged
        assert cost(c[0]) <= min(cost(x) for x in grid) + 1e-9
        # power_cost reads the same center space, extensions included
        assert power_cost(E, c[None, :], z) == pytest.approx(cost(c[0]), rel=1e-12)


def test_constrained_center_z2_is_base_mean():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(9, 3))
    ext = rng.uniform(0, 2, size=9)
    w = rng.uniform(0.5, 2, size=9)
    E = ExtendedPointSet(base, extensions=ext, weights=w)
    c = solve_1center(E, 2)
    assert np.allclose(c, np.average(base, axis=0, weights=w), atol=1e-12)


def test_constrained_reduces_to_plain_when_ext_zero():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(8, 2))
    E = ExtendedPointSet(base, extensions=np.zeros(8))
    for z in (1, 2, 3):
        c1 = solve_1center(E, z)
        c2 = solve_1center(base, z)
        assert np.allclose(c1, c2, atol=1e-9)


def test_solve_1centers_flags_rows_it_leaves_uncertified(monkeypatch):
    # a solver stopped at the centroid clears the flags, with no raise
    pts = np.random.default_rng(8).normal(size=(6, 2))
    members = np.arange(6)[None, :] // 3 == np.arange(2)[:, None]
    _, costs, ok = solve_1centers(pts, None, np.ones(6), members, 1)
    assert ok.all()
    monkeypatch.setattr(geometry, "_WEISZFELD_ROUNDS", 0)
    monkeypatch.setattr(geometry, "_NEWTON_ROUNDS", 0)
    _, stopped, ok = solve_1centers(pts, None, np.ones(6), members, 1)
    assert not ok.any() and (stopped > costs).all()


def _random_batch(seed, m=40, n=9, d=3):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d)) * 2.0
    ext = np.abs(rng.standard_normal(n))
    w = rng.uniform(0.2, 3.0, n)
    members = rng.random((m, n)) < 0.5
    members[np.arange(m), rng.integers(0, n, m)] = True
    return base, ext, w, members


def test_solve_1centers_rows_do_not_depend_on_their_batch():
    # each row stops on its own certificate, so solving a row inside a
    # batch or alone gives the same bytes
    for z in (1, 2, 3):
        for seed in (1, 2):
            base, ext, w, members = _random_batch(seed)
            for e in (None, ext):
                together = solve_1centers(base, e, w, members, z)
                for r in range(members.shape[0]):
                    alone = solve_1centers(base, e, w, members[r : r + 1], z)
                    for a, b in zip(together, alone):
                        assert a[r].tobytes() == b[0].tobytes(), (z, seed, r)
                assert together[2].all()


def test_solve_1centers_z2_matches_the_scalar_centroid():
    # the centroid divides by the members' tree_sum: the rounding of the
    # one-set solve, so a subset-table row equals its part's own solve
    base, ext, w, members = _random_batch(3, d=2)
    centers, costs, certified = solve_1centers(base, ext, w, members, 2)
    assert certified.all()
    for r, row in enumerate(members):
        E = ExtendedPointSet(base[row], ext[row], weights=w[row])
        assert centers[r].tobytes() == solve_1center(E, 2).tobytes()


def test_z1_point_optimality_passes_with_equality():
    # medians sitting on a data point where the pull of the other members
    # equals the point's weight: |g| = w_at holds only up to rounding
    t = 3.0 * np.sort(np.random.default_rng(1).standard_normal(8))[:4]
    zero = np.zeros(4)
    pts = np.vstack([np.stack([t, zero], axis=1), np.stack([zero, t], axis=1)])
    masks = np.arange(1, 256)
    members = ((masks[:, None] >> np.arange(8)) & 1).astype(bool)
    _, _, certified = solve_1centers(pts, None, np.ones(8), members, 1)
    assert certified.all(), masks[~certified]


def test_power_triangle_bounds_random_triples():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(500, 3, 2))
    d_ab = np.sqrt(((pts[:, 0] - pts[:, 1]) ** 2).sum(axis=1))
    d_ac = np.sqrt(((pts[:, 0] - pts[:, 2]) ** 2).sum(axis=1))
    d_bc = np.sqrt(((pts[:, 1] - pts[:, 2]) ** 2).sum(axis=1))
    for z in (1, 2, 3, 4):
        for eps in (0.05, 0.1, 0.3, 1.0):
            sb, db = power_triangle_bound(d_ab, d_ac, d_bc, z, eps)
            assert (d_ab**z <= sb * (1 + 1e-12) + 1e-12).all()
            assert (np.abs(d_ab**z - d_ac**z) <= db * (1 + 1e-12) + 1e-12).all()


def test_power_triangle_degenerate_triples():
    # b = c: second term vanishes, bounds stay valid
    for z in (1, 2, 4):
        sb, db = power_triangle_bound(3.0, 3.0, 0.0, z, 0.1)
        assert 3.0**z <= sb + 1e-12
        assert db >= 0
    with pytest.raises(InputError):
        power_triangle_bound(1.0, 1.0, 1.0, 1, 0.0)
    with pytest.raises(InputError):
        power_triangle_bound(-1.0, 1.0, 1.0, 1, 0.1)


def test_center_grid_shape_and_determinism():
    pts = np.random.default_rng(10).normal(size=(20, 2))
    g1 = center_grid(pts, per_axis=4)
    g2 = center_grid(pts, per_axis=4)
    assert g1.shape == (16, 2)
    assert (g1 == g2).all()
    assert center_grid(pts, per_axis=1).shape == (1, 2)
    for bad in (0, -1):
        with pytest.raises(InputError, match="per_axis"):
            center_grid(pts, per_axis=bad)


def test_center_grid_matches_the_per_axis_meshgrid():
    # one batched box grid serves center_grid and the far-ball families;
    # it keeps the bits of one np.linspace per axis and np.meshgrid
    rng = np.random.default_rng(12)
    for trial in range(240):
        d = 1 + trial % 4
        pts = rng.standard_normal((int(rng.integers(1, 25)), d)) * 10.0 ** rng.uniform(-8, 8)
        if trial % 3 == 0:  # a zero-span axis
            pts[:, int(rng.integers(0, d))] = rng.standard_normal()
        P = pts
        if trial % 5 == 0:  # the extension is one more axis of the box
            P = ExtendedPointSet(pts, np.abs(rng.standard_normal(pts.shape[0])))
        for per_axis in range(1, 7):
            got, want = center_grid(P, per_axis), meshgrid_center_grid(P, per_axis)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for d in range(1, 8):  # 3**d <= 4096: the families' centers are the grid
        pts = rng.standard_normal((20, d)) * 10.0 ** rng.uniform(-4, 4)
        pts[:, 0] = 1.5
        fam = ball_test_families(pts, [0], 2, DEFAULT_MAX_RANGES)[0]
        assert fam.centers.tobytes() == center_grid(pts, 3).tobytes()


def test_first_seen_rows_matches_dict_pool():
    rng = np.random.default_rng(7)
    for trial in range(500):
        r, d = int(rng.integers(1, 40)), int(rng.integers(1, 31))
        # few distinct lattice values, nudged below and around the quantum
        rows = rng.integers(-2, 3, size=(r, d)) * rng.choice([1.0, 1e-9, 1e6])
        rows = rows + rng.standard_normal((r, d)) * rng.choice([0.0, 1e-13, 1e-10])
        if trial % 5 == 0:  # every row one row
            rows = np.repeat(rows[:1], r, axis=0)
        # -0.0 and 0.0, and values rounding to -0.0, share one key
        rows[rng.random((r, d)) < 0.2] = rng.choice([0.0, -0.0, -1e-15])
        quantum = float(rng.choice([1e-12, 1e-9, 0.5]))
        keep, index = geometry.first_seen_rows(rows, quantum)
        want_keep, want_index = dict_row_pool(rows, quantum)
        assert keep.tolist() == want_keep
        assert index.tolist() == want_index


def _layouts(A):
    """The values of A as C-ordered, Fortran-ordered, transposed-copy and
    strided (every other row of a larger array) arrays."""
    wide = np.zeros((2 * A.shape[0], A.shape[1]))
    wide[::2] = A
    return [np.ascontiguousarray(A), np.asfortranarray(A), np.ascontiguousarray(A.T).T, wide[::2]]


def test_tables_refuse_points_and_centers_of_other_dimension():
    # an (n, 1) X against (m, 2) centers used to read the centers' first column
    X = np.array([[0.0], [1.0], [2.0]])
    for C in (np.array([[0.0, 5.0], [1.0, 5.0]]), np.zeros((2, 3)), np.zeros(2)):
        with pytest.raises(InputError):
            geometry.sq_dist_matrix(X, C)
        with pytest.raises(InputError):
            min_power_dists(X, C, 2)
    with pytest.raises(InputError):
        min_power_dists(np.zeros((4, 3)), np.zeros((1, 2)), 1)
    for P in (X, geometry.ExtendedPointSet(X, np.ones(3))):  # power_cost checks through it
        with pytest.raises(InputError, match="dimension"):
            geometry.power_cost(P, np.zeros((1, 2)), 2)
    assert geometry.sq_dist_matrix(X, [[1.0]]).ravel().tolist() == [1.0, 0.0, 1.0]


def test_low_dim_table_equals_the_einsum_in_every_layout(monkeypatch):
    monkeypatch.setattr(geometry, "_CHUNK", 40)  # row blocks of 40 // (m d) rows
    rng = np.random.default_rng(21)
    sizes = [(1, 1), (1, 60), (60, 1), (60, 60)]
    sizes += [tuple(int(v) for v in rng.integers(1, 61, size=2)) for _ in range(60)]
    for trial, (n, m) in enumerate(sizes):
        d = 1 + trial % 2
        scale = 10.0 ** rng.uniform(-3, 6)
        X = rng.standard_normal((n, d)) * scale
        C = rng.standard_normal((m, d)) * scale
        diff = X[:, None, :] - C[None, :, :]
        want = np.einsum("ijk,ijk->ij", diff, diff, optimize=False).tobytes()
        for Xl, Cl in zip(_layouts(X), _layouts(C)[::-1]):
            assert geometry.sq_dist_matrix(Xl, Cl).tobytes() == want


def test_sq_dist_blocks_equals_the_table_per_block_at_low_dim():
    rng = np.random.default_rng(22)
    for trial in range(40):
        d = 1 + trial % 2
        n, R, m = (int(v) for v in rng.integers(1, 30, size=3))
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 6)
        C = rng.standard_normal((R, m, d)) * 10.0 ** rng.uniform(-3, 6)
        owner = rng.integers(0, R, size=n)
        got = geometry.sq_dist_blocks(X, C, owner)
        for i in range(n):
            assert got[i].tobytes() == geometry.sq_dist_matrix(X[i : i + 1], C[owner[i]]).tobytes()


def test_power_cost_at_d2_does_not_depend_on_the_layout():
    # d = 2..11: at d >= 3 the einsum rounds by its operands' layout, so
    # points and centers are read in C order
    rng = np.random.default_rng(23)
    for trial in range(200):
        d = 2 + trial % 10
        X = rng.standard_normal((50, d)) * 10.0 ** rng.uniform(-3, 6)
        S = rng.standard_normal((3, d))
        for z in (1, 2, 3):
            want = power_cost(X, S, z)
            for Xl, Sl in zip(_layouts(X)[1:], _layouts(S)[:0:-1]):
                assert power_cost(Xl, S, z) == want
                assert power_cost(X, Sl, z) == want


def test_coreset_and_exact_solve_do_not_depend_on_the_layout():
    for d in (3, 4, 7):
        X = gaussian_blobs(60, d, blobs=2, seed=d, separation=6)
        params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
        want = ring_coreset(X, params)
        best = exact_solve(X[::8], params)
        for Xl in _layouts(X)[1:]:
            got = ring_coreset(Xl, params)
            assert got.points.tobytes() == want.points.tobytes()
            assert got.offset == want.offset
            assert got.weight_num.tobytes() == want.weight_num.tobytes()
            assert got.weight_den.tobytes() == want.weight_den.tobytes()
            res = exact_solve(Xl[::8], params)
            assert res.cost == best.cost
            assert res.centers.centers.tobytes() == best.centers.centers.tobytes()
