"""
Cost-preserving sketch pipeline
===============================

Compress a high-dimensional instance down to a small extended point set
whose clustering costs track the original within (1 +- 3*eps).

The pipeline chains three stages:

 1. a partition coreset picks representatives and per-point extensions,
 2. a derandomized linear map reduces the ambient dimension,
 3. a witness net certifies the map's distortion on the pairs that
    matter for clustering costs.

For low target dimensions the certified map can be the identity; the
certificate then records distortion exactly 1, which is still a valid
(if boring) certificate.
"""

import numpy as np

from detclust import (
    ClusteringParams,
    ExtendedPointSet,
    cost_preserving_sketch,
    power_cost,
    solve_1center,
)

rng = np.random.default_rng(42)
params = ClusteringParams(k=2, z=2, epsilon=0.3)

# Duplicate-heavy instance: 2 anchor locations in R^30, 8 points total.
anchors = rng.standard_normal((2, 30)) * 8.0
pts = anchors[rng.integers(0, 2, 8)].copy()
print(f"input: {pts.shape[0]} points in R^{pts.shape[1]}")

sk = cost_preserving_sketch(pts, params)
print(f"coreset stage: {sk.coreset.representatives.shape[0]} representatives")
print(f"linear map: {sk.map.d} -> {sk.map.m} dims, certified={sk.map.certified}")
cert = sk.map.certificate
print(f"certificate: {cert['checked_pairs']} pairs checked, "
      f"max distortion {cert['max_distortion']:.6f} "
      f"(bound {1 + params.epsilon / params.z})")

E = sk.sketched_points()
print(f"sketch: {E.points.shape[0]} rows, {E.points.shape[1]} coords + extension")

# Compare a clustering cost on both sides. Put the first half in one
# cluster and the rest in the other, solve each side's 1-center
# subproblem, and total the costs.
labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
orig = sketched = 0.0
for v in (0, 1):
    sel = labels == v
    c = solve_1center(pts[sel], params.z)
    orig += power_cost(pts[sel], c[None, :], params.z)
    part = ExtendedPointSet(E.points[sel], extensions=E.extensions[sel])
    sketched += power_cost(part, solve_1center(part, params.z)[None, :], params.z)

lo = (1 - 3 * params.epsilon) * orig
hi = (1 + 3 * params.epsilon) * orig
print(f"original cost  = {orig:.6f}")
print(f"sketched cost  = {sketched:.6f}")
print(f"allowed window = [{lo:.6f}, {hi:.6f}]")
assert lo <= sketched <= hi
