import itertools
import math
import tracemalloc

import numpy as np
import pytest

import detclust.dimreduce as dimreduce
from detclust import BudgetError, InputError
from detclust.geometry import (
    ClusteringParams,
    ExtendedPointSet,
    solve_1center,
    power_cost,
)
from detclust.dimreduce import (
    WitnessNet,
    build_net,
    cost_preserving_sketch,
    derandomized_jl,
    _covers,
    _pivoted_orthobases,
)
from detclust.linmap import pair_distortions

from oracles import (
    dict_row_pool,
    flush_build_net,
    materialized_conditional_signs,
    measured_pair_distortions,
    pair_directions,
    per_composition_cover,
    recount_witness_net,
    sequential_orthobasis,
    set_partitions_up_to_k,
)


def test_covers_segment_example():
    got = _covers(np.array([[[0.0], [1.0]]]), 4)[0]
    assert sorted(got[:, 0].tolist()) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_covers_degenerate():
    # 0 steps cover a subset of diameter 0 by its first point
    S = np.array([[[2.0, 3.0]], [[1.0, 1.0]]])
    assert np.array_equal(_covers(S, 0), S)
    dup = np.array([[[1.0, 1.0], [1.0, 1.0]]])
    assert np.array_equal(_covers(dup, 0), dup[:, :1])


def test_covers_triangle_sampled():
    # G steps cover conv(S) to within (|S| - 1) diam / G
    rng = np.random.default_rng(31)
    S = rng.standard_normal((3, 3)) * 2.0
    diam = max(
        np.linalg.norm(S[a] - S[b]) for a, b in itertools.combinations(range(3), 2)
    )
    spacing = 0.3 * diam
    cover = _covers(S[None], math.ceil(2 * diam / spacing))[0]
    for _ in range(1000):
        lam = rng.dirichlet([1.0, 1.0, 1.0])
        target = lam @ S
        dmin = np.sqrt(((cover - target) ** 2).sum(axis=1)).min()
        assert dmin <= spacing * (1 + 1e-9)


def _one_basis(V):
    bases, valid = _pivoted_orthobases(np.asarray(V)[None])
    return bases[0][valid[0]]


def test_pivoted_orthobasis():
    rng = np.random.default_rng(4)
    V = rng.standard_normal((3, 5))
    Q = _one_basis(V)
    assert Q.shape == (3, 5)
    assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
    # every input row lies in the span
    proj = V @ Q.T @ Q
    assert np.allclose(proj, V, atol=1e-9)
    # rank deficiency collapses the basis
    W = np.vstack([V[0], 2 * V[0], -0.5 * V[0]])
    assert _one_basis(W).shape == (1, 5)
    assert _one_basis(np.zeros((2, 4))).shape == (0, 4)
    # in lockstep, each slab keeps its own basis
    bases, valid = _pivoted_orthobases(np.stack([V, W, np.zeros((3, 5))]))
    assert valid.sum(axis=1).tolist() == [3, 1, 0]
    assert bases[0].tobytes() == Q.tobytes()


def test_build_net_single_representative():
    net = build_net(np.array([[2.0, 0.0]]))
    rows = {tuple(r) for r in net.points}
    assert rows == {(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)}
    kinds = {s[1] for s in net.sources}
    assert kinds == {"origin", "cover", "basis"}


def test_build_net_segment_cover_present():
    net = build_net(np.array([[0.0], [4.0]]))
    rows = {tuple(r) for r in net.points}
    for x in (0.0, 4.0 / 3.0, 8.0 / 3.0, 4.0):
        assert any(abs(r[0] - x) < 1e-12 for r in rows)
    assert (0.0,) in rows  # origin


def test_build_net_contains_origin_and_reps():
    rng = np.random.default_rng(9)
    reps = rng.standard_normal((5, 3))
    net = build_net(reps)
    rows = net.points
    assert (np.abs(rows).sum(axis=1) == 0.0).any()
    for p in reps:
        assert np.sqrt(((rows - p) ** 2).sum(axis=1)).min() < 1e-12


def test_build_net_covers_a_diameter_0_subset_by_its_first_point():
    # distinct representatives whose differences square to 0 (they differ
    # by under 1e-162), so every subset has diameter 0 and is covered by
    # its first point. Covered at MAX_COVER_STEPS steps instead, the
    # barycentric rows of v and 3v would round to another 1e-12 quantum
    # than the point does and add a fourth row
    v = (307 + 0.5) * 1e-12
    assert v == 3.0749999999999997e-10
    reps = np.array([[v, 3 * v, t * 1e-170] for t in range(4)])
    net = build_net(reps)
    assert net.sources == ((-1, "origin"), (0, "cover"), (0, "basis"))
    assert net.points[1].tobytes() == reps[0].tobytes()


def test_build_net_rejects_duplicates():
    with pytest.raises(InputError):
        build_net(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_build_net_budget_error_fields():
    rng = np.random.default_rng(2)
    reps = rng.standard_normal((30, 2))
    with pytest.raises(BudgetError) as ei:
        build_net(reps)
    assert ei.value.required == sum(math.comb(30, j) for j in range(1, 5))  # 31930
    assert ei.value.allowed == 20_000


def test_build_net_size_matches_recount_oracle(monkeypatch):
    monkeypatch.setattr(dimreduce, "NET_SUBSET_SIZE", 2)
    rng = np.random.default_rng(12)
    reps = rng.standard_normal((4, 2)) * 3.0
    eps, z = 0.3, 1
    net = build_net(reps)
    assert net.points.shape[0] == recount_witness_net(reps.tolist(), 4 * z / eps, 2, eps, z)


def test_jl_identity_fallback(monkeypatch):
    rng = np.random.default_rng(7)
    V = rng.standard_normal((6, 5))
    lin = derandomized_jl(V, 0.2)  # target m far above d=5
    assert np.array_equal(lin.matrix, np.eye(5))
    assert lin.certificate["max_distortion"] == 1.0
    assert lin.certificate["strategy"] == "identity-fallback"
    assert lin.certified
    # a first m equal to d: an m x d map at m = d reduces nothing
    V = rng.standard_normal((10, 20))
    monkeypatch.setattr(dimreduce, "JL_C", 19.5 / (0.4**-2 * math.log(45)))
    assert math.ceil(dimreduce.JL_C * 0.4**-2 * math.log(45)) == 20
    lin = derandomized_jl(V, 0.4)
    assert np.array_equal(lin.matrix, np.eye(20))
    assert lin.certificate["strategy"] == "identity-fallback"
    assert lin.certificate["max_distortion"] == 1.0


@pytest.fixture
def jl_c_one(monkeypatch):
    """Start the JL search at ceil(eps^-2 ln #pairs), below these tests' d."""
    monkeypatch.setattr(dimreduce, "JL_C", 1.0)


def test_jl_seed_scan_certifies(jl_c_one):
    """The (20, 40) net the removed seed scan was checked on certifies on
    the one conditional path, and the certificate carries no seed."""
    rng = np.random.default_rng(15)
    V = rng.standard_normal((20, 40))
    lin = derandomized_jl(V, 0.4)
    assert lin.certificate["strategy"] == "conditional"
    assert "seed" not in lin.certificate
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
    lin = derandomized_jl(V, 0.4)
    assert lin.certificate["strategy"] == "conditional"
    assert lin.m == 24
    assert lin.certified
    assert np.allclose(np.abs(lin.matrix), 1 / np.sqrt(24))


def test_streamed_signs_match_the_materialized_table():
    rng = np.random.default_rng(21)
    V = rng.standard_normal((12, 9)) * 2.0
    V[4], V[7] = V[1], 0.0  # a duplicate row and a zero row
    nets = [V, V[:2], V[[1, 4]], rng.standard_normal((6, 3)) * 1e-3]
    for net in nets:
        for m, eps in ((1, 0.5), (4, 0.15), (7, 0.4), (12, 0.9)):
            got = dimreduce._conditional_sign_matrix(net, m, eps)
            want = materialized_conditional_signs(pair_directions(net), m, eps)
            assert got.tobytes() == want.tobytes()


def test_streamed_signs_hold_no_pair_table():
    V = np.random.default_rng(5).standard_normal((200, 130))
    want = materialized_conditional_signs(pair_directions(V), 4, 0.15)
    table = 200 * 199 // 2 * 130 * 8  # one (pairs, d) float64 table, 20.7 MB
    tracemalloc.start()
    try:
        got = dimreduce._conditional_sign_matrix(V, 4, 0.15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table
    assert got.tobytes() == want.tobytes()


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


def test_pair_distortions_match_the_measuring_loop():
    # maps that move no vector of V (the identity, and a projection that
    # fixes V's subspace) skip the mapped distances; duplicate rows, a
    # zero row and a row whose distances overflow keep their counts
    rng = np.random.default_rng(43)
    V = rng.standard_normal((30, 6)) * 3.0
    V[5], V[7], V[9, 0] = V[2], 0.0, 1e200
    flat = V.copy()
    flat[:, 5] = 0.0
    fix = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    cases = [(np.eye(6), V), (fix, flat), (fix, V), (np.eye(6)[::-1], V),
             (rng.standard_normal((4, 6)) / 2.0, V), (np.eye(6), V[:1]), (np.eye(6), V[:2])]
    with np.errstate(over="ignore", invalid="ignore"):
        for matrix, vectors in cases:
            got = pair_distortions(matrix, vectors)
            assert got == measured_pair_distortions(matrix, vectors)
        assert pair_distortions(np.eye(6), V) == (434, 1.0)


def test_sketch_identical_points():
    pts = np.tile([[1.0, 2.0, 3.0]], (5, 1))
    params = ClusteringParams(k=2, z=2, epsilon=0.25)
    sk = cost_preserving_sketch(pts, params)
    imgs = sk.sketched_points().as_rows()
    assert imgs.shape[1] == sk.map.m + 1
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
            c = solve_1center(part, 2)
            lhs += power_cost(part, c[None, :], 2)
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
            sketched += power_cost(part, solve_1center(part, 2)[None, :], 2)
        if orig == 0.0:
            assert sketched == 0.0
            continue
        assert (1 - tol) * orig <= sketched <= (1 + tol) * orig


def test_sketch_operator_norm_on_bases():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((6, 2)) * 2.0
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    sk = cost_preserving_sketch(pts, params)
    net = build_net(sk.coreset.representatives)
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
    # the sketch keeps the net its map was certified on
    net = build_net(a.coreset.representatives)
    assert (a.net.points.tobytes(), a.net.sources) == (net.points.tobytes(), net.sources)


def test_covers_match_per_composition_einsum():
    # G = 0 covers only subsets of diameter 0, so it is checked on one
    rng = np.random.default_rng(21)
    for trial in range(240):
        G, j, d = trial % 6, int(rng.integers(2, 6)), int(rng.integers(1, 16))
        S = rng.standard_normal((3, j, d)) * 10 ** rng.uniform(-3, 3)
        if G == 0:
            S[:] = S[:, :1]
        got = _covers(S, G)
        for s, cover in zip(S, got):
            diam = max(np.linalg.norm(a - b) for a, b in itertools.combinations(s, 2))
            want = per_composition_cover(s, diam / 1e3, G)  # 1000 (j - 1) steps, capped at G
            assert cover.shape == want.shape and cover.tobytes() == want.tobytes()


def per_subset_net(reps, D, eps, z):
    """build_net one subset at a time: per-composition covers at spacing
    eps' * diam, eps' = eps / (4 D z), and a dict dedup over every row in
    generation order."""
    eps_prime = eps / (4.0 * D * z)
    quantum = 1e-12 * max(1.0, float(np.abs(reps).max()))
    rows, sources = [np.zeros(reps.shape[1])], [(-1, "origin")]
    sid = 0
    for j in range(1, min(4, len(reps)) + 1):
        for combo in itertools.combinations(range(len(reps)), j):
            S = reps[list(combo)]
            pairs = itertools.combinations(S, 2)
            diam = max((np.linalg.norm(a - b) for a, b in pairs), default=0.0)
            cover = S[:1] if diam == 0.0 else per_composition_cover(S, eps_prime * diam, 3)
            for part, kind in ((cover, "cover"), (sequential_orthobasis(S), "basis")):
                rows.extend(part)
                sources.extend([(sid, kind)] * len(part))
            sid += 1
    keep, _ = dict_row_pool(np.array(rows), quantum)
    return np.array(rows)[keep], tuple(sources[i] for i in keep)


def test_build_net_matches_per_subset_net(monkeypatch):
    rng = np.random.default_rng(22)
    monkeypatch.setattr(dimreduce, "_NET_CHUNK", 7)  # many dedup passes
    for T, d in ((1, 3), (4, 2), (7, 5), (9, 30)):
        reps = rng.standard_normal((T, d)) * 10 ** rng.uniform(-2, 2)
        reps[: T // 2, 0] = 0.0
        net = build_net(reps)
        points, sources = per_subset_net(reps, 4 * 2 / 0.3, 0.3, 2)
        assert net.points.tobytes() == points.tobytes()
        assert net.sources == sources


def _random_reps(rng, T, d):
    """T distinct random rows in R^d; some trials make them collinear,
    zero a column, or put two rows at a distance whose square is 0."""
    reps = rng.standard_normal((T, d)) * 10 ** rng.uniform(-2, 2)
    kind = int(rng.integers(0, 4))
    if kind == 1:  # collinear: every basis stops after one row
        reps = np.outer(rng.permutation(np.arange(1, T + 1)), reps[0])
    elif kind == 2 and d > 1:
        reps[:, int(rng.integers(0, d))] = 0.0
    elif kind == 3 and T > 1:  # that pair's cover takes 0 steps
        reps[1], reps[0, 0], reps[1, 0] = reps[0], 0.0, 5e-324
    return reps


def test_build_net_matches_the_flush_based_net(monkeypatch):
    # the net reads only the representatives: the paper's eps' spacing at
    # D = 4 z / eps and R = 4, for every eps <= 1/3 and z, gives its bits
    rng = np.random.default_rng(23)
    cases = list(itertools.product((0.01, 0.1, 0.3, 1 / 3), (1, 2, 3, 4)))
    for trial, (eps, z) in enumerate(cases * 3):
        T, d = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        reps = _random_reps(rng, T, d)
        monkeypatch.setattr(dimreduce, "_NET_CHUNK", (1, 5, 64, 4096)[trial % 4])
        net = build_net(reps)
        points, sources = flush_build_net(reps, 4 * z / eps, 4, eps, z, 512)
        assert net.points.tobytes() == points.tobytes()
        assert net.sources == sources


def test_net_dedup_never_sorts_the_kept_net(monkeypatch):
    # every row is deduplicated once, in a block of at most _NET_CHUNK
    # rows plus one subset's; the kept net outgrows any block
    sizes = []
    dedup = dimreduce.first_seen_rows

    def recorded(rows, quantum):
        sizes.append(rows.shape[0])
        return dedup(rows, quantum)

    monkeypatch.setattr(dimreduce, "first_seen_rows", recorded)
    monkeypatch.setattr(dimreduce, "_NET_CHUNK", 40)
    reps = np.random.default_rng(24).standard_normal((9, 6))
    net = build_net(reps)
    points, _ = flush_build_net(reps, 4 * 2 / 0.3, 4, 0.3, 2, 512)
    assert net.points.tobytes() == points.tobytes()
    covers = {j: dimreduce._barycentric_steps(3, j).shape[0] for j in (2, 3, 4)}
    generated = 9 * 2 + sum(math.comb(9, j) * (covers[j] + j) for j in (2, 3, 4))
    assert sum(sizes) == generated  # the rows of each block, once
    assert max(sizes) <= 40 + covers[4] + 4
    assert net.points.shape[0] > 4 * max(sizes)

