"""Synthetic clustering instances: gaussian blobs, ring mixtures, and
far-point outlier sets.

Every generator is a pure function of its arguments; the seed feeds a
PCG64 stream, so a (generator, seed) pair names one exact instance on any
platform.
"""

import numpy as np

from .errors import InputError
from .geometry import _seeded_rng


def gaussian_blobs(n, d, blobs=3, seed=0, spread=1.0, separation=8.0):
    """n points split as evenly as possible across `blobs` gaussian blobs.

    Blob centers are drawn first (scaled by separation), then the per-blob
    noise, all from one stream.
    """
    if n < 1 or d < 1 or blobs < 1:
        raise InputError("n, d, blobs must be positive")
    if n < blobs:
        raise InputError("need at least one point per blob")
    rng = _seeded_rng(seed)
    centers = rng.standard_normal((blobs, d)) * separation
    sizes = np.full(blobs, n // blobs, dtype=int)
    sizes[: n % blobs] += 1
    parts = [
        centers[i] + rng.standard_normal((sizes[i], d)) * spread
        for i in range(blobs)
    ]
    return np.vstack(parts)


def ring_mixture(n, d, rings=2, seed=0, radius=4.0, thickness=0.1):
    """Concentric noisy circles of radii radius*(i+1) in the first two
    coordinates; remaining coordinates get thin gaussian noise."""
    if n < 1 or rings < 1:
        raise InputError("n and rings must be positive")
    if d < 2:
        raise InputError("ring instances need d >= 2")
    if n < rings:
        raise InputError("need at least one point per ring")
    rng = _seeded_rng(seed)
    sizes = np.full(rings, n // rings, dtype=int)
    sizes[: n % rings] += 1
    parts = []
    for i in range(rings):
        m = sizes[i]
        theta = rng.uniform(0.0, 2.0 * np.pi, m)
        r = radius * (i + 1) * (1.0 + thickness * rng.standard_normal(m))
        block = np.zeros((m, d))
        block[:, 0] = r * np.cos(theta)
        block[:, 1] = r * np.sin(theta)
        if d > 2:
            block[:, 2:] = rng.standard_normal((m, d - 2)) * thickness * radius
        parts.append(block)
    return np.vstack(parts)


def far_point_instance(n, d, seed=0, distance=1e6):
    """A unit gaussian cloud of n-1 points plus one point `distance` away
    along the first axis. Stresses offset handling: any solution ignoring
    the outlier pays ~distance^z."""
    if n < 2 or d < 1:
        raise InputError("need n >= 2 and d >= 1")
    if distance <= 0:
        raise InputError("distance must be positive")
    rng = _seeded_rng(seed)
    pts = rng.standard_normal((n - 1, d))
    far = np.zeros((1, d))
    far[0, 0] = distance
    return np.vstack([pts, far])
