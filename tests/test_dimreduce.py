import itertools

import numpy as np
import pytest

import detclust.dimreduce as dimreduce
from detclust import BudgetError, InputError
from detclust.geometry import (
    ClusteringParams,
    ExtendedPointSet,
    solve_1center,
    solve_1center_constrained,
    power_cost,
)
from detclust.dimreduce import (
    WitnessNet,
    WitnessParams,
    build_net,
    cost_preserving_sketch,
    derandomized_jl,
    hull_cover,
    _pivoted_orthobasis,
)
from detclust.linmap import pair_distortions

from oracles import recount_witness_net, set_partitions_up_to_k


def test_hull_cover_segment_example():
    got = hull_cover(np.array([[0.0], [1.0]]), 0.25)
    assert sorted(got[:, 0].tolist()) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_hull_cover_degenerate():
    S = np.array([[2.0, 3.0]])
    assert np.array_equal(hull_cover(S, 0.5), S)
    dup = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(hull_cover(dup, 0.5), dup[:1])
    with pytest.raises(InputError):
        hull_cover(np.array([[0.0], [1.0]]), 0.0)


def test_hull_cover_triangle_sampled():
    rng = np.random.default_rng(31)
    S = rng.standard_normal((3, 3)) * 2.0
    diam = max(
        np.linalg.norm(S[a] - S[b]) for a, b in itertools.combinations(range(3), 2)
    )
    spacing = 0.3 * diam
    cover = hull_cover(S, spacing)
    for _ in range(1000):
        lam = rng.dirichlet([1.0, 1.0, 1.0])
        target = lam @ S
        dmin = np.sqrt(((cover - target) ** 2).sum(axis=1)).min()
        assert dmin <= spacing * (1 + 1e-9)


def test_pivoted_orthobasis():
    rng = np.random.default_rng(4)
    V = rng.standard_normal((3, 5))
    Q = _pivoted_orthobasis(V)
    assert Q.shape == (3, 5)
    assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
    # every input row lies in the span
    proj = V @ Q.T @ Q
    assert np.allclose(proj, V, atol=1e-9)
    # rank deficiency collapses the basis
    W = np.vstack([V[0], 2 * V[0], -0.5 * V[0]])
    assert _pivoted_orthobasis(W).shape == (1, 5)
    assert _pivoted_orthobasis(np.zeros((2, 4))).shape == (0, 4)


def test_witness_params_defaults_and_validation():
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    w = WitnessParams.defaults(params)
    assert w.D == 4.0 * 2 / 0.25
    assert w.R == 4
    with pytest.raises(InputError):
        WitnessParams(D=0.0, R=3)
    with pytest.raises(InputError):
        WitnessParams(D=8.0, R=1)


def test_build_net_single_representative():
    w = WitnessParams(D=8.0, R=2)
    net = build_net(np.array([[2.0, 0.0]]), w, eps=0.5, z=1)
    rows = {tuple(r) for r in net.points}
    assert rows == {(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)}
    kinds = {s[1] for s in net.sources}
    assert kinds == {"origin", "cover", "basis"}


def test_build_net_segment_cover_present():
    w = WitnessParams(D=8.0, R=2)
    net = build_net(np.array([[0.0], [4.0]]), w, eps=0.5, z=1)
    rows = {tuple(r) for r in net.points}
    for x in (0.0, 4.0 / 3.0, 8.0 / 3.0, 4.0):
        assert any(abs(r[0] - x) < 1e-12 for r in rows)
    assert (0.0,) in rows  # origin


def test_build_net_contains_origin_and_reps():
    rng = np.random.default_rng(9)
    reps = rng.standard_normal((5, 3))
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    net = build_net(reps, WitnessParams.defaults(params), eps=0.3, z=2)
    rows = net.points
    assert (np.abs(rows).sum(axis=1) == 0.0).any()
    for p in reps:
        assert np.sqrt(((rows - p) ** 2).sum(axis=1)).min() < 1e-12


def test_build_net_rejects_duplicates():
    w = WitnessParams(D=8.0, R=2)
    with pytest.raises(InputError):
        build_net(np.array([[1.0, 0.0], [1.0, 0.0]]), w, eps=0.5, z=1)


def test_build_net_budget_error_fields():
    import math

    rng = np.random.default_rng(2)
    reps = rng.standard_normal((30, 2))
    w = WitnessParams(D=8.0, R=4)
    with pytest.raises(BudgetError) as ei:
        build_net(reps, w, eps=0.25, z=2)
    assert ei.value.required == sum(math.comb(30, j) for j in range(1, 5))  # 31930
    assert ei.value.allowed == 20_000


def test_build_net_size_matches_recount_oracle():
    rng = np.random.default_rng(12)
    reps = rng.standard_normal((4, 2)) * 3.0
    D, R, eps, z = 8.0, 2, 0.5, 1
    net = build_net(reps, WitnessParams(D=D, R=R), eps=eps, z=z)
    assert net.points.shape[0] == recount_witness_net(reps.tolist(), D, R, eps, z)


def test_jl_identity_fallback():
    rng = np.random.default_rng(7)
    V = rng.standard_normal((6, 5))
    lin = derandomized_jl(V, 0.2)  # target m far above d=5
    assert np.array_equal(lin.matrix, np.eye(5))
    assert lin.certificate["max_distortion"] == 1.0
    assert lin.certificate["strategy"] == "identity-fallback"
    assert lin.certified


@pytest.fixture
def jl_c_one(monkeypatch):
    """Start the JL search at ceil(eps^-2 ln #pairs), below these tests' d."""
    monkeypatch.setattr(dimreduce, "JL_C", 1.0)


def test_jl_seed_scan_certifies(jl_c_one):
    rng = np.random.default_rng(15)
    V = rng.standard_normal((20, 40))
    lin = derandomized_jl(V, 0.4)
    assert lin.m < 40
    assert lin.certified
    assert lin.certificate["max_distortion"] <= 1.4
    assert lin.certificate["checked_pairs"] == 190
    # certificate is re-verifiable
    checked, dist = pair_distortions(lin, V)
    assert checked == 190
    assert dist == pytest.approx(lin.certificate["max_distortion"], abs=1e-12)


def test_jl_conditional_certifies(jl_c_one):
    rng = np.random.default_rng(0)
    V = rng.standard_normal((10, 30))
    lin = derandomized_jl(V, 0.4, strategy="conditional")
    assert lin.certificate["strategy"] == "conditional"
    assert lin.m == 24
    assert lin.certified
    assert np.allclose(np.abs(lin.matrix), 1 / np.sqrt(24))


def test_jl_duplicate_vectors_exact(jl_c_one):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(12)
    V = np.vstack([v, v, rng.standard_normal((4, 12))])
    lin = derandomized_jl(V, 0.45)
    ya, yb = lin.apply(V[0]), lin.apply(V[1])
    assert np.array_equal(ya, yb)


def test_jl_linearity(jl_c_one):
    rng = np.random.default_rng(8)
    V = rng.standard_normal((8, 20))
    lin = derandomized_jl(V, 0.45)
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    lhs = lin.apply(2.5 * x - 1.25 * y)
    rhs = 2.5 * lin.apply(x) - 1.25 * lin.apply(y)
    assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


def test_jl_validates_args():
    V = np.zeros((3, 4))
    with pytest.raises(InputError):
        derandomized_jl(V, 0.0)
    with pytest.raises(InputError):
        derandomized_jl(V, 1.0)
    with pytest.raises(InputError):
        derandomized_jl(V, 0.3, strategy="magic")


def test_sketch_identical_points():
    pts = np.tile([[1.0, 2.0, 3.0]], (5, 1))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    sk = cost_preserving_sketch(pts, params)
    assert sk.target_dim == sk.map.m + 1
    imgs = sk.sketched_points().as_rows()
    assert (imgs == imgs[0]).all()
    assert (imgs[:, -1] == 0.0).all()


def test_sketch_input_checks_raise_input_error():
    pts = np.random.default_rng(2).standard_normal((6, 3))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    plain = cost_preserving_sketch(pts, params).sketched_points().as_rows()
    unit = cost_preserving_sketch((pts, np.ones(6)), params).sketched_points()
    assert unit.as_rows().tobytes() == plain.tobytes()
    for bad in ((pts, np.full(6, 2.0)), (pts, np.ones(5)), np.empty((0, 3))):
        with pytest.raises(InputError):
            cost_preserving_sketch(bad, params)


def test_sketch_z2_offset_decomposition():
    # P-cost_0 of the extended sketch equals the flat P-cost of the base
    # rows plus the squared extensions, for every partition
    rng = np.random.default_rng(44)
    pts = np.vstack(
        [rng.standard_normal((4, 2)), rng.standard_normal((4, 2)) + [8, 0]]
    )
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    sk = cost_preserving_sketch(pts, params)
    E = sk.sketched_points()
    base, exts = E.points, E.extensions
    for rgs in set_partitions_up_to_k(8, 2)[:40]:
        labels = np.asarray(rgs)
        lhs = rhs = 0.0
        for v in np.unique(labels):
            sel = labels == v
            part = ExtendedPointSet(base[sel], extensions=exts[sel])
            c = solve_1center_constrained(part, 2)
            rows = np.hstack([base[sel], exts[sel, None]])
            lhs += power_cost(rows, np.append(c, 0.0)[None, :], 2)
            rhs += power_cost(base[sel], c[None, :], 2) + float(
                (exts[sel] ** 2).sum()
            )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_sketch_partition_costs_within_loosened_eps():
    rng = np.random.default_rng(5)
    pts = np.vstack(
        [rng.standard_normal((4, 2)) * 0.5, rng.standard_normal((4, 2)) * 0.5 + [10, 0]]
    )
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    sk = cost_preserving_sketch(pts, params)
    E = sk.sketched_points()
    tol = 3 * params.epsilon
    for rgs in set_partitions_up_to_k(8, 2):
        labels = np.asarray(rgs)
        orig = sketched = 0.0
        for v in np.unique(labels):
            sel = labels == v
            c = solve_1center(pts[sel], 2)
            orig += power_cost(pts[sel], c[None, :], 2)
            part = ExtendedPointSet(E.points[sel], extensions=E.extensions[sel])
            c0 = solve_1center_constrained(part, 2)
            rows = np.hstack([E.points[sel], E.extensions[sel, None]])
            sketched += power_cost(rows, np.append(c0, 0.0)[None, :], 2)
        if orig == 0.0:
            assert sketched == 0.0
            continue
        assert (1 - tol) * orig <= sketched <= (1 + tol) * orig


def test_sketch_operator_norm_on_bases():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((6, 2)) * 2.0
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    sk = cost_preserving_sketch(pts, params)
    net = build_net(
        sk.coreset.representatives,
        WitnessParams.defaults(params),
        params.epsilon,
        params.z,
    )
    bound = params.epsilon / params.z
    for row, (sid, kind) in zip(net.points, net.sources):
        if kind != "basis":
            continue
        img = sk.map.apply(row)
        ratio = np.sqrt((img**2).sum() / (row**2).sum())
        assert 1 - bound <= ratio <= 1 + bound


def test_sketch_rerun_bit_identical():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((7, 2))
    params = ClusteringParams(k=2, z=1, epsilon=0.3)
    a = cost_preserving_sketch(pts, params)
    b = cost_preserving_sketch(pts, params)
    assert np.array_equal(a.map.matrix, b.map.matrix)
    assert np.array_equal(
        a.sketched_points().as_rows(), b.sketched_points().as_rows()
    )
