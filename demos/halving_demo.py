"""
Deterministic set approximation by iterated halving
===================================================

An eps'-approximation S of a ground set P preserves the relative mass
of every test range: | |P ∩ T|/|P| - |S ∩ T|/|S| | <= eps'. The halving
construction splits P with a balanced pairing, keeps the half that a
pessimistic estimator favors, and repeats while the union bound allows.

Looser eps' lets more halvings through, so the approximation shrinks as
eps' grows. The verifier replays the definition directly.
"""

import numpy as np

from detclust import (
    ball_test_families,
    gaussian_blobs,
    halving_approx,
    verify_set_approx,
)

pts = gaussian_blobs(512, 2, blobs=3, seed=5, separation=8.0)
tests = ball_test_families(pts, [0], 2, 50)[0]  # 50 ranges over one ground
print(f"ground set: {pts.shape[0]} points, {len(tests)} ball tests")
print()
print("eps'    |S|   max deviation")

for eps_p in (0.05, 0.1, 0.2, 0.3):
    approx = halving_approx(pts, eps_p, tests)
    dev = verify_set_approx(pts, approx, tests)
    assert dev <= eps_p
    print(f"{eps_p:<6} {approx.indices.size:>4}   {dev:.6f}")

print()
print("every deviation is within its eps' budget")
