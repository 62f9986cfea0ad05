"""
Offset coreset walkthrough
==========================

Build a deterministic offset coreset for a two-blob instance, look at
what it contains, and verify the cost guarantee against a grid of
candidate center pairs.

The coreset answers weighted clustering queries up to a relative error
of eps after adding back a fixed offset F. Weights are exact integer
ratios, so the total weight matches the input size with no rounding.
"""

import numpy as np

from detclust import (
    ClusteringParams,
    center_grid,
    gaussian_blobs,
    ring_coreset,
    verify_offset_coreset,
)

params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
pts = gaussian_blobs(200, 2, blobs=2, seed=7, separation=6.0)
print(f"input: {pts.shape[0]} points in R^{pts.shape[1]}, k={params.k}, "
      f"z={params.z}, eps={params.epsilon}")

core = ring_coreset(pts, params)
print(f"coreset: {core.size} weighted points, offset F = {core.offset:.6f}")
print(f"total weight = {core.total_weight} (exact fraction, equals |P|)")

w = core.weights
print(f"weight range: [{w.min():.4f}, {w.max():.4f}]")

# Verify: for every candidate center pair on a 4x4 grid, the weighted
# coreset cost plus F must be within eps of the true cost.
grid = center_grid(pts, per_axis=4)
report = verify_offset_coreset(pts, core, params, grid)
print(f"checked {report.checked} center tuples")
print(f"max relative error = {report.max_relative_error:.6f} "
      f"(guarantee: <= {params.epsilon})")
assert report.max_relative_error <= params.epsilon

# The randomized variant trades the worst-case guarantee for speed.
# With a seed it is just as reproducible.
rand = ring_coreset(pts, params, mode="randomized", seed=7)
rrep = verify_offset_coreset(pts, rand, params, grid)
print(f"randomized coreset: {rand.size} points, "
      f"max relative error = {rrep.max_relative_error:.6f}")
