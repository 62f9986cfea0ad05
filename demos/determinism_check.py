"""Byte-level reproducibility check.

Every deterministic entry point must give bit-identical answers on
reruns, regardless of the DCLUS_THREADS setting (the knob is validated
and reserved; dispatch is single-threaded either way). This script runs
the coreset builder and the solver twice and hashes everything that
comes out.
"""

import hashlib
import os
from dataclasses import replace

import numpy as np

from detclust import (
    ClusteringParams,
    approx_solve,
    gaussian_blobs,
    ring_coreset,
)


def run_once():
    params = ClusteringParams(k=2, z=1, epsilon=0.3)
    pts = gaussian_blobs(150, 3, blobs=3, seed=11, separation=7.0)
    core = ring_coreset(pts, replace(params, alpha=2.0))
    small = pts[:9]
    res = approx_solve(small, params)
    h = hashlib.sha256()
    h.update(core.points.tobytes())
    h.update(str(core.weight_num.tolist()).encode())
    h.update(str(core.weight_den.tolist()).encode())
    h.update(core.offset.hex().encode())
    h.update(res.centers.centers.tobytes())
    h.update(res.cost.hex().encode())
    return h.hexdigest()


digests = []
for threads in ("1", "4"):
    os.environ["DCLUS_THREADS"] = threads
    for rerun in range(2):
        d = run_once()
        digests.append(d)
        print(f"DCLUS_THREADS={threads} run {rerun + 1}: {d[:16]}...")

assert len(set(digests)) == 1
print("all four digests identical")
