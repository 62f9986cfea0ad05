"""Golden SHA-256 digests of the deterministic pipeline's outputs.

Each case runs one entry point on a small fixed instance and hashes the
bytes of its result: points, exact weight numerators and denominators,
centers, and the offset and cost as ``float.hex``. ``tests/test_golden.py``
recomputes every case and requires the stored digest, so a refactor that
claims to keep outputs can show it bit for bit.

The digests pin float64 results of this numpy build on this CPU class; a
different BLAS, numpy release or instruction set may round differently and
then needs a deliberate regeneration, with the changed cases named in
CHANGES.md. Regenerate every case with

    PYTHONPATH=src python tests/regen_golden.py

or only the named ones, keeping every other stored digest as it is, with

    PYTHONPATH=src python tests/regen_golden.py exact_solve_z3_n8 ...

A re-bless that names its cases cannot silently move another one.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from detclust.bicriteria import bicriteria, candidate_centers
from detclust.datasets import far_point_instance, gaussian_blobs
from detclust.dimreduce import _conditional_sign_matrix, build_net, cost_preserving_sketch
from detclust.geometry import ClusteringParams, ExtendedPointSet, center_grid
from detclust.partition import build
from detclust.rings import (
    greedy_seeding,
    ring_coreset,
    ring_decompose,
    verify_offset_coreset,
)
from detclust.solve import approx_solve, bicriteria_solve, exact_solve

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def digest(*parts):
    """SHA-256 over arrays (shape, little-endian bytes), floats (hex) and
    strings, each part length-delimited by its type tag."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            kind = "<i8" if arr.dtype.kind in "iu" else "<f8"
            h.update(f"array{arr.shape}{kind}".encode())
            h.update(arr.astype(kind).tobytes())
        elif isinstance(part, float):
            h.update(b"float" + part.hex().encode())
        else:
            h.update(b"str" + str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _blobs(n, d, seed):
    return gaussian_blobs(n, d, blobs=2, seed=seed, separation=6)


def _coreset(mode, z=2):
    pts = _blobs(200, 2, 1)
    params = ClusteringParams(k=2, z=z, epsilon=0.3, alpha=2.0)
    core = ring_coreset(pts, params, mode=mode, seed=5)
    return digest(core.points, core.weight_num, core.weight_den, float(core.offset))


def _solve(solver, z=2, k=2, n=8, d=2):
    pts = _blobs(n, d, 3)
    res = solver(pts, ClusteringParams(k=k, z=z, epsilon=0.3))
    return digest(res.method, str(res.downgraded), res.centers.centers, float(res.cost))


def _bicriteria_projection(extended=False):
    pts = _blobs(24, 30, 2)
    if extended:  # slice mode: the last coordinate becomes the extension
        pts = ExtendedPointSet(pts[:, :-1], extensions=np.abs(pts[:, -1]))
    res = bicriteria(pts, ClusteringParams(k=2, z=2, epsilon=0.3))
    return digest(
        res.centers.centers, float(res.cost), str(res.projection_seed), res.stopped_reason
    )


def _partition_build():
    pts = _blobs(8, 30, 4)
    res = build(pts, ClusteringParams(k=2, z=2, epsilon=0.3))
    return digest(res.representatives, res.rep_index, res.extensions)


def _sketch():
    pts = _blobs(8, 30, 4)
    sk = cost_preserving_sketch(pts, ClusteringParams(k=2, z=2, epsilon=0.3))
    return digest(sk.map.matrix, sk.sketched_points().as_rows())


def _sketch_dup():
    # 8 rows drawn from 2 anchors: the duplicate-heavy sketch of
    # acceptance criterion 4, whose partition nodes below the root cost 0
    rng = np.random.default_rng(4)
    anchors = rng.standard_normal((2, 30)) * 8.0
    pts = anchors[rng.integers(0, 2, 8)]
    sk = cost_preserving_sketch(pts, ClusteringParams(k=2, z=2, epsilon=0.3))
    return digest(sk.map.matrix, sk.sketched_points().as_rows())


def _candidates():
    pts = _blobs(200, 2, 1)
    cc = candidate_centers(
        pts,
        ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0),
        pts[:2],
    )
    return digest(cc.points, cc.provenance_point, cc.provenance_level, str(cc.spacing_scale))


def _candidates_slice():
    pts = _blobs(60, 3, 2)
    pts[:, -1] = np.abs(pts[:, -1])  # slice mode: the extensions
    cc = candidate_centers(
        ExtendedPointSet(pts[:, :-1], extensions=pts[:, -1]),
        ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0),
        pts[:2],
    )
    return digest(cc.points, cc.provenance_point, cc.provenance_level, str(cc.spacing_scale))


def _bicriteria_case(pts, z, alpha):
    res = bicriteria(pts, ClusteringParams(k=2, z=z, epsilon=0.3, alpha=alpha))
    return digest(
        res.centers.centers,
        float(res.cost),
        res.stopped_reason,
        str(res.baseline_size),
        str(res.projection_seed),
    )


def _bicriteria_plane():
    return _bicriteria_case(_blobs(200, 2, 1), z=2, alpha=50.0)


def _bicriteria_slice():
    pts = _blobs(60, 3, 2)
    return _bicriteria_case(
        ExtendedPointSet(pts[:, :-1], extensions=np.abs(pts[:, -1])), z=1, alpha=2.0
    )


def _witness_net():
    pts = _blobs(8, 30, 4)
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    reps = build(pts, params).representatives
    net = build_net(reps)
    return digest(net.points, str(net.sources))


def _conditional_signs():
    # the JL loop's sign matrix at an m below d, which no sketch case
    # reaches while its first m exceeds d
    V = np.random.default_rng(0).standard_normal((10, 30))
    return digest(_conditional_sign_matrix(V, 24, 0.4))


def _verify(z=2, sampled=False):
    pts = _blobs(200, 2, 1)
    params = ClusteringParams(k=2, z=z, epsilon=0.3, alpha=2.0)
    core = ring_coreset(pts, params)
    if sampled:  # a tight eps so the report carries its witness tuple
        rep = verify_offset_coreset(
            pts, core, ClusteringParams(k=2, z=z, epsilon=1e-6),
            center_grid(pts, per_axis=6), exhaustive_tuples=False, samples=300, seed=3,
        )
    else:
        rep = verify_offset_coreset(pts, core, params, center_grid(pts, per_axis=4))
    if rep.witness is None:
        witness = ("none",)
    else:
        witness = (np.array(rep.witness[0], dtype=np.int64), float(rep.witness[1]))
    return digest(float(rep.max_relative_error), str(rep.checked), *witness)


def _ring_decompose():
    pts = far_point_instance(150, 4, seed=4, distance=50)
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    seeding = greedy_seeding(pts, params)
    rings = ring_decompose(pts, seeding, params)
    return digest(rings.costs, rings.labels, rings.deltas)


def _ring_kinds():
    pts = far_point_instance(150, 4, seed=4, distance=50)
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    rings = ring_decompose(pts, greedy_seeding(pts, params), params)
    keys = np.array([key for key, _ in rings.main_rings()], dtype=np.int64)
    return digest(rings.rings, "".join(kind[0] for kind in rings.kinds.tolist()), keys)


CASES = {
    "ring_coreset_det_n200_d2": lambda: _coreset("deterministic"),
    "ring_coreset_rand_n200_d2": lambda: _coreset("randomized"),
    "exact_solve_n8": lambda: _solve(exact_solve),
    "approx_solve_n8": lambda: _solve(approx_solve),
    "bicriteria_solve_n8": lambda: _solve(bicriteria_solve),
    "bicriteria_projection_n24_d30": _bicriteria_projection,
    "partition_build_n8_d30": _partition_build,
    "cost_preserving_sketch_n8_d30": _sketch,
    "ring_coreset_det_z1_n200_d2": lambda: _coreset("deterministic", z=1),
    "exact_solve_z1_n8": lambda: _solve(exact_solve, z=1),
    "candidate_centers_n200_d2": _candidates,
    "build_net_n8_d30": _witness_net,
    "ring_decompose_far_n150_d4": _ring_decompose,
    "exact_solve_k3_n8": lambda: _solve(exact_solve, k=3),
    "approx_solve_z1_n8": lambda: _solve(approx_solve, z=1),
    "exact_solve_z3_n8": lambda: _solve(exact_solve, z=3),
    "candidate_centers_slice_n60_d3": _candidates_slice,
    "bicriteria_solve_z1_n8": lambda: _solve(bicriteria_solve, z=1),
    "exact_solve_k4_n9": lambda: _solve(exact_solve, k=4, n=9),
    "bicriteria_projection_slice_n24_d30": lambda: _bicriteria_projection(True),
    "bicriteria_solve_z3_n8": lambda: _solve(bicriteria_solve, z=3),
    "verify_offset_coreset_det_n200_d2": _verify,
    "verify_offset_coreset_det_z1_n200_d2": lambda: _verify(z=1),
    "verify_offset_coreset_sampled_n200_d2": lambda: _verify(sampled=True),
    "bicriteria_solve_z1_n8_d5": lambda: _solve(bicriteria_solve, z=1, d=5),
    "exact_solve_z1_n10_d3": lambda: _solve(exact_solve, z=1, n=10, d=3),
    "cost_preserving_sketch_dup_n8_d30": _sketch_dup,
    "conditional_sign_matrix_n10_d30_m24": _conditional_signs,
    "ring_kinds_far_n150_d4": _ring_kinds,
    "bicriteria_n200_d2": _bicriteria_plane,
    "bicriteria_slice_n60_d3": _bicriteria_slice,
}


def main(names):
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    digests = json.loads(GOLDEN_PATH.read_text()) if names else {}
    for name in names or CASES:
        digests[name] = CASES[name]()
        print(f"{name}: {digests[name]}")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
