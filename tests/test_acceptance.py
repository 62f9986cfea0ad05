"""End-to-end acceptance gates, one test per criterion.

Every test asserts its quality bound and its wall-clock budget, then
prints one PASS line with the measured numbers (visible under -s or -rA;
the -v test line itself is the per-criterion pass/fail record).

Pinned tolerances: power-triangle inequalities carry a 1e-12 relative
guard for float rounding; the z=2 mean comparison is 1e-12 absolute on
coordinates; sandwich bounds carry the +1e-9 absolute slack written into
the criteria; everything else is asserted exactly.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from detclust.cli import cli_dispatch
from detclust.datasets import far_point_instance, gaussian_blobs
from detclust.dimreduce import build_net, cost_preserving_sketch
from detclust.epsapprox import ball_test_families, halving_approx, verify_set_approx
from detclust.geometry import (
    ClusteringParams,
    ExtendedPointSet,
    center_grid,
    power_cost,
    power_triangle_bound,
    solve_1center,
)
from detclust.linmap import pair_distortions
from detclust.partition import build, verify_partition_coreset
from detclust.rings import (
    greedy_seeding,
    ring_coreset,
    ring_decompose,
    verify_offset_coreset,
)
from detclust.solve import approx_solve, bicriteria_solve, exact_solve

from oracles import grid_search_1center, naive_power_cost, set_partitions_up_to_k


def _report(n, msg):
    print(f"ACCEPTANCE {n}: PASS ({msg})")


def test_criterion_1_power_triangle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10_000, 3, 3)) * 3.0
    d_ab = np.sqrt(((pts[:, 0] - pts[:, 1]) ** 2).sum(axis=1))
    d_ac = np.sqrt(((pts[:, 0] - pts[:, 2]) ** 2).sum(axis=1))
    d_bc = np.sqrt(((pts[:, 1] - pts[:, 2]) ** 2).sum(axis=1))
    for z in (1, 2, 3, 4):
        for eps in (0.05, 0.1, 0.3):
            sb, db = power_triangle_bound(d_ab, d_ac, d_bc, z, eps)
            assert (d_ab**z <= sb * (1 + 1e-12) + 1e-12).all()
            assert (np.abs(d_ab**z - d_ac**z) <= db * (1 + 1e-12) + 1e-12).all()
    took = time.perf_counter() - t0
    assert took < 5.0
    _report(1, f"10000 triples x 4 z x 3 eps in {took:.2f}s")


def test_criterion_2_one_center_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_mean = 0.0
    for i in range(1000):
        n = 3 + i % 10
        d = 1 + i % 4
        pts = rng.standard_normal((n, d)) * 2.0
        w = rng.uniform(0.5, 2.0, n)
        c = solve_1center((pts, w), 2)
        mean = (w[:, None] * pts).sum(axis=0) / w.sum()
        worst_mean = max(worst_mean, float(np.abs(c - mean).max()))
    assert worst_mean <= 1e-12
    worst_ratio = 1.0
    for i in range(100):
        n = 3 + i % 8
        pts = rng.standard_normal((n, 2)) * 2.0
        c = solve_1center(pts, 1)
        ours = naive_power_cost(pts.tolist(), [c.tolist()], 1)
        _, gcost = grid_search_1center(pts.tolist(), 1, resolution=1e-4)
        assert ours <= gcost * (1 + 1e-6) + 1e-12
        if gcost > 0:
            worst_ratio = max(worst_ratio, ours / gcost)
    took = time.perf_counter() - t0
    assert took < 60.0
    _report(
        2,
        f"z=2 mean dev {worst_mean:.2e}, z=1 vs grid ratio {worst_ratio:.9f},"
        f" {took:.1f}s",
    )


def test_criterion_3_partition_coreset_verification():
    t0 = time.perf_counter()
    eligible = 0
    compressed = 0
    worst = 0.0
    for s in range(50):
        rng = np.random.default_rng(200 + s)
        n = 5 + s % 6
        d = 1 + s % 3
        z = 1 + s % 2
        if s % 5 == 4:
            # duplicate-heavy: exact repeats force zero-cost stable stops
            locs = rng.standard_normal((max(2, n // 3), d)) * 2.0
            reps = np.full(locs.shape[0], n // locs.shape[0])
            reps[: n - reps.sum()] += 1
            pts = np.repeat(locs, reps, axis=0)
        else:
            spread = (0.3, 0.8, 1.5)[s % 3]
            half = n // 2
            pts = np.vstack(
                [
                    rng.standard_normal((half, d)) * spread,
                    rng.standard_normal((n - half, d)) * spread + 4.0,
                ]
            )
        params = ClusteringParams(k=2, z=z, epsilon=0.3)
        res = build(pts, params)  # BETA = 0.1, GAMMA = 3
        stops = {t.reason for t in res.recursion_trace if t.reason != "split"}
        if not stops <= {"stable", "leaf"}:
            continue
        eligible += 1
        compressed += res.size < pts.shape[0]
        rep = verify_partition_coreset(
            pts, res, params, center_grid(pts, per_axis=3)
        )
        worst = max(worst, rep.max_relative_error)
        assert rep.max_relative_error <= params.epsilon
    took = time.perf_counter() - t0
    assert eligible >= 40  # the filter must not hollow out the gate
    assert compressed >= 5  # and some instances must actually compress
    assert took < 600.0
    _report(
        3,
        f"{eligible}/50 eligible, {compressed} compressed,"
        f" worst err {worst:.3e} <= 0.3, {took:.1f}s",
    )


def test_criterion_4_cost_preserving_sketch():
    t0 = time.perf_counter()
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    lo_bound, hi_bound = 1 - 3 * params.epsilon, 1 + 3 * params.epsilon
    cert_bound = 1 + params.epsilon / params.z
    worst_lo, worst_hi, worst_cert = 1.0, 1.0, 1.0
    for s in range(30):
        rng = np.random.default_rng(400 + s)
        n = 5 + s % 4
        if s % 2 == 0:
            pts = rng.standard_normal((n, 30)) * 2.0
        else:
            anchors = rng.standard_normal((2, 30)) * 8.0
            lbl = rng.integers(0, 2, n)
            pts = anchors[lbl].copy()  # exact duplicates collapse in the coreset
        sk = cost_preserving_sketch(pts, params)
        net = build_net(sk.coreset.representatives)
        checked, dist = pair_distortions(sk.map, net.points)
        assert dist <= cert_bound  # independent re-verification
        if sk.map.certificate is not None and checked == sk.map.certificate.get(
            "checked_pairs"
        ):
            assert dist == sk.map.certificate["max_distortion"]
        worst_cert = max(worst_cert, dist)
        E = sk.sketched_points()
        for rgs in set_partitions_up_to_k(n, 2):
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
            r = sketched / orig
            worst_lo, worst_hi = min(worst_lo, r), max(worst_hi, r)
            assert lo_bound * orig <= sketched <= hi_bound * orig
    took = time.perf_counter() - t0
    assert took < 600.0
    _report(
        4,
        f"30 instances, cost ratio in [{worst_lo:.4f}, {worst_hi:.4f}],"
        f" cert {worst_cert:.6f} <= {cert_bound}, {took:.1f}s",
    )


def test_criterion_5_offset_coreset_guarantee():
    t0 = time.perf_counter()
    det_worst = 0.0
    rand_failures = 0
    for s in range(30):
        z = 1 + s % 2
        params = ClusteringParams(k=2, z=z, epsilon=0.3, alpha=2.0)
        pts = gaussian_blobs(200, 2, blobs=2, seed=s, separation=6.0)
        grid = center_grid(pts, per_axis=4)
        core = ring_coreset(pts, params)
        rep = verify_offset_coreset(pts, core, params, grid)
        det_worst = max(det_worst, rep.max_relative_error)
        assert rep.max_relative_error <= params.epsilon
        rand = ring_coreset(pts, params, mode="randomized", seed=s)
        rrep = verify_offset_coreset(pts, rand, params, grid)
        rand_failures += rrep.max_relative_error > params.epsilon
    took = time.perf_counter() - t0
    assert rand_failures <= 6  # 20% of 30
    assert took < 900.0
    _report(
        5,
        f"det worst {det_worst:.4f} <= 0.3, randomized failures"
        f" {rand_failures}/30 <= 6, {took:.1f}s",
    )


def test_criterion_6_ring_structure_invariants():
    t0 = time.perf_counter()
    ringed = 0
    for s in range(10):
        z = 1 + s % 2
        params = ClusteringParams(k=2, z=z, epsilon=0.3, alpha=2.0)
        if s % 3 == 2:
            pts = far_point_instance(80, 2, seed=s, distance=50.0)
        else:
            pts = gaussian_blobs(120, 2, blobs=2, seed=s, separation=6.0)
        core = ring_coreset(pts, params)
        assert core.total_weight == Fraction(pts.shape[0])  # exact conservation
        seeding = greedy_seeding(pts, params)
        if seeding.status == "low-cost":
            assert core.offset == 0.0
            continue
        ringed += 1
        rings = ring_decompose(pts, seeding, params)
        t_out = (params.z / params.epsilon) ** (2 * params.z)
        outer = rings.indices_of("outer")
        for i in range(int(rings.labels.max()) + 1):
            ci = int((rings.labels == i).sum())
            oi = int((rings.labels[outer] == i).sum()) if outer.size else 0
            assert oi <= ci / t_out
        # the offset the coreset ships is the outer points' cost
        recount = (
            naive_power_cost(
                pts[outer].tolist(), seeding.centers.centers.tolist(), z
            )
            if outer.size
            else 0.0
        )
        assert abs(core.offset - recount) <= 1e-12 * max(1.0, recount)
    took = time.perf_counter() - t0
    assert ringed >= 7  # most seeded instances must reach the ring stage
    _report(
        6,
        f"10 instances ({ringed} with rings): Markov bound, offset recount,"
        f" exact weight totals, {took:.1f}s",
    )


def test_criterion_7_ptas_sandwich():
    t0 = time.perf_counter()
    eps = 0.3
    worst_ap = worst_bc = 1.0
    for s in range(25):
        rng = np.random.default_rng(800 + s)
        n = 8 + s % 5
        z = 1 + s % 2
        pts = np.vstack(
            [
                rng.standard_normal((n // 2, 2)),
                rng.standard_normal((n - n // 2, 2)) + [5.0, 0.0],
            ]
        )
        p = ClusteringParams(k=2, z=z, epsilon=eps)
        ex = exact_solve(pts, p)
        ap = approx_solve(pts, p)
        bc = bicriteria_solve(pts, p)
        assert ap.method == "ptas" and not ap.downgraded
        assert ex.cost - 1e-9 <= ap.cost <= (1 + eps) / (1 - eps) * ex.cost + 1e-9
        assert ex.cost - 1e-9 <= bc.cost <= (1 + eps) * ex.cost + 1e-9
        if ex.cost > 0:
            worst_ap = max(worst_ap, ap.cost / ex.cost)
            worst_bc = max(worst_bc, bc.cost / ex.cost)
    took = time.perf_counter() - t0
    assert took < 900.0
    _report(
        7,
        f"25 instances, approx/exact <= {worst_ap:.6f},"
        f" bicriteria/exact <= {worst_bc:.6f}, {took:.1f}s",
    )


def test_criterion_8_chain_determinism(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    for inst in range(5):
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("DCLUS_THREADS", threads)
            for rerun in range(2):
                d = tmp_path / f"i{inst}t{threads}r{rerun}"
                d.mkdir()
                pts, core, cent = d / "p.csv", d / "core.csv", d / "cent.csv"
                assert (
                    cli_dispatch(
                        ["gen", "--blobs", "2", "--n", "60", "--d", "2",
                         "--seed", str(inst), "--out", str(pts)]
                    )
                    == 0
                )
                assert (
                    cli_dispatch(
                        ["coreset", "build", "--in", str(pts), "--out", str(core),
                         "--k", "2", "--z", "2", "--eps", "0.3", "--alpha", "2.0"]
                    )
                    == 0
                )
                assert (
                    cli_dispatch(
                        ["solve", "ptas", "--in", str(pts), "--k", "2", "--z", "2",
                         "--eps", "0.3", "--out", str(cent)]
                    )
                    == 0
                )
                assert (
                    cli_dispatch(
                        ["coreset", "verify", "--points", str(pts),
                         "--coreset", str(core)]
                    )
                    == 0
                )
                log = capsys.readouterr().out.replace(str(d), "<dir>")
                outputs.append(
                    (pts.read_bytes(), core.read_bytes(), cent.read_bytes(), log)
                )
        assert all(o == outputs[0] for o in outputs[1:])
    took = time.perf_counter() - t0
    assert took < 300.0
    _report(8, f"5 instances x 2 reruns x threads {{1,4}} byte-identical, {took:.1f}s")


def test_criterion_9_set_approximation_halving():
    t0 = time.perf_counter()
    shrunk = 0
    worst_margin = 0.0
    for s in range(20):
        rng = np.random.default_rng(900 + s)
        if s % 4 == 3:
            locs = rng.standard_normal((64, 2)) * 2.0
            pts = np.repeat(locs, 4, axis=0)
        else:
            pts = rng.standard_normal((256, 2)) * (1.0 + s % 3)
        eps_p = (0.1, 0.2, 0.25, 0.3)[s % 4]
        tests = ball_test_families(pts, [0], 2, 50)[0]
        assert len(tests) == 50
        approx = halving_approx(pts, eps_p, tests)
        dev = verify_set_approx(pts, approx, tests)
        assert dev <= eps_p  # hard postcondition
        worst_margin = max(worst_margin, dev / eps_p)
        if eps_p >= 0.2:
            assert approx.indices.size < pts.shape[0]
            shrunk += 1
    took = time.perf_counter() - t0
    assert shrunk == 15
    assert took < 120.0
    _report(
        9,
        f"20 instances, dev/eps' <= {worst_margin:.3f}, strict shrink on all"
        f" eps' >= 0.2, {took:.1f}s",
    )
