"""Linear maps with distortion certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class LinearMap:
    """A linear map R^d -> R^m with an optional pairwise-distortion certificate.

    certificate, when present, is a dict with keys checked_pairs,
    max_distortion (1 + max |ratio - 1| over checked pairs) and
    epsilon_target. A map is certified when max_distortion <= 1 + target.
    """

    matrix: np.ndarray
    eps: float = None
    certificate: dict = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.size == 0:
            raise InputError("matrix must be a nonempty 2-d array")
        if not np.isfinite(m).all():
            raise InputError("matrix contains NaN or Inf")
        object.__setattr__(self, "matrix", m)

    @property
    def m(self):
        return self.matrix.shape[0]

    @property
    def d(self):
        return self.matrix.shape[1]

    @property
    def certified(self):
        cert = self.certificate
        return bool(
            cert is not None
            and cert.get("max_distortion", np.inf) <= 1.0 + cert.get("epsilon_target", -1.0)
        )

    def apply(self, X):
        X = np.asarray(X, dtype=np.float64)
        one = X.ndim == 1
        # ufunc path, not BLAS: reduction order is fixed
        Y = np.einsum("ij,kj->ik", np.atleast_2d(X), self.matrix, optimize=False)
        return Y[0] if one else Y


def pair_distortions(map_or_matrix, vectors):
    """Max |ratio - 1| over all pairs of distinct vectors, ratio being
    mapped distance over original distance (zero distances skipped).

    Returns (n_pairs_checked, max_distortion >= 1.0).
    """
    Pi = map_or_matrix.matrix if isinstance(map_or_matrix, LinearMap) else np.asarray(map_or_matrix)
    V = np.asarray(vectors, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] < 2:
        return 0, 1.0
    Y = np.einsum("ij,kj->ik", V, Pi, optimize=False)
    # a map that moves no vector gives every pair the ratio 1 (or NaN
    # where a distance overflows, which the max below ignores)
    moved = not np.array_equal(Y, V)
    n = V.shape[0]
    worst = 0.0
    checked = 0
    for i in range(n - 1):  # pairs (i, j) with j > i
        dv = V[i + 1 :] - V[i]
        nv2 = (dv**2).sum(axis=1)
        nz = nv2 > 0
        checked += int(nz.sum())
        if moved and nz.any():
            dy = Y[i + 1 :] - Y[i]
            ny2 = (dy**2).sum(axis=1)
            r = np.sqrt(ny2[nz] / nv2[nz])
            worst = max(worst, float(np.abs(r - 1.0).max()))
    return checked, 1.0 + worst
