"""Deterministic cost-preserving sketches.

The pipeline: collapse the input to its partition coreset, enumerate a
witness net over the distinct representatives (hull covers of small
subsets, orthonormal bases of their spans, the origin), derandomize a
linear map that provably preserves all pairwise distances of the net, and
sketch each point as (map(representative), extension).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bicriteria import seeded_projection_family
from .errors import BudgetError, InputError
from .geometry import ClusteringParams, ExtendedPointSet, RowPool, _as_points
from .linmap import LinearMap, identity_map, pair_distortions
from .partition import PartitionCoresetResult, build

DEFAULT_JL_C = 4.0
DEFAULT_MAX_SEEDS = 256
DEFAULT_MAX_SUBSETS = 20_000
DEFAULT_MAX_COVER_STEPS = 3


@dataclass(frozen=True)
class WitnessParams:
    """Net enumeration knobs: subsets of up to R representatives, covers at
    relative spacing derived from base_eps and D."""

    D: float
    R: int
    base_eps: float

    def __post_init__(self):
        if self.R < 2:
            raise InputError("R must be at least 2")
        if self.D <= 0:
            raise InputError("D must be positive")

    @classmethod
    def defaults(cls, params: ClusteringParams):
        return cls(
            D=4.0 * params.z / params.epsilon,
            R=min(math.ceil(4.0 / params.epsilon**2), 4),
            base_eps=params.epsilon,
        )


@dataclass(frozen=True)
class WitnessNet:
    points: np.ndarray
    sources: tuple  # per net point: (subset id, kind in {cover, basis, origin})


def _compositions(total, parts):
    """All nonnegative integer vectors of given length summing to total,
    lexicographic by bar positions (stars and bars)."""
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(slots - prev - 1)
        yield out


def _pairwise_diameter(S):
    """Largest pairwise distance among the rows of S (0.0 for one row)."""
    diam = 0.0
    for a in range(S.shape[0] - 1):
        diam = max(diam, float(np.sqrt(((S[a + 1 :] - S[a]) ** 2).sum(axis=1)).max()))
    return diam


def hull_cover(S, spacing, max_steps=None):
    """Points covering conv(S) to within `spacing`.

    Barycentric grid with step 1/G, G = ceil((|S|-1) * diam(S) / spacing):
    rounding each barycentric weight moves the combination by at most
    (|S|-1) * diam / G. max_steps caps G (coarser than the guarantee; used
    by the net builder to stay enumerable).
    """
    S = _as_points(S, "subset")
    j = S.shape[0]
    if j == 1:
        return S.copy()
    if spacing <= 0:
        raise InputError("spacing must be positive")
    diam = _pairwise_diameter(S)
    if diam == 0.0:
        return S[:1].copy()
    G = max(1, math.ceil((j - 1) * diam / spacing))
    if max_steps is not None:
        G = min(G, int(max_steps))
    out = []
    for comp in _compositions(G, j):
        lam = np.asarray(comp, dtype=np.float64) / G
        out.append(np.einsum("i,ij->j", lam, S))
    return np.array(out)


def _pivoted_orthobasis(V, rel_tol=1e-12):
    """Orthonormal basis of the row span, Gram-Schmidt with pivoting on the
    largest residual norm (ties to the lowest row index)."""
    work = np.array(V, dtype=np.float64)
    scale = float(np.sqrt((work**2).sum(axis=1)).max(initial=0.0))
    basis = []
    for _ in range(min(work.shape)):
        norms = np.sqrt((work**2).sum(axis=1))
        i = int(np.argmax(norms))
        if norms[i] <= rel_tol * scale or norms[i] == 0.0:
            break
        q = work[i] / norms[i]
        basis.append(q)
        work = work - np.outer(np.einsum("ij,j->i", work, q), q)
    return np.array(basis) if basis else np.empty((0, V.shape[1]))


def build_net(
    representatives,
    witness: WitnessParams,
    eps,
    z,
    *,
    max_subsets=DEFAULT_MAX_SUBSETS,
    max_cover_steps=DEFAULT_MAX_COVER_STEPS,
):
    """Witness net over coreset representatives.

    Enumerates every subset of size <= R (lexicographic ids); for each, a
    hull cover at spacing eps' * diam and an orthonormal basis of the span;
    the origin is always included. Points are deduplicated at 1e-12
    relative quantization, first source kept.
    """
    reps = _as_points(representatives, "representatives")
    T = reps.shape[0]
    keys = {tuple(r) for r in reps}
    if len(keys) != T:
        raise InputError("representatives must be distinct")

    n_subsets = sum(math.comb(T, j) for j in range(1, min(witness.R, T) + 1))
    if n_subsets > max_subsets:
        raise BudgetError(
            "witness net subset enumeration", required=n_subsets, allowed=max_subsets
        )

    eps_prime = eps / (4.0 * witness.D * z)
    pool = RowPool(1e-12 * max(1.0, float(np.abs(reps).max(initial=0.0))))
    sources = []

    def push(rows, sid, kind):
        before = len(pool.rows)
        pool.add(rows)
        sources.extend([(sid, kind)] * (len(pool.rows) - before))

    push(np.zeros((1, reps.shape[1])), -1, "origin")
    sid = 0
    for j in range(1, min(witness.R, T) + 1):
        for combo in itertools.combinations(range(T), j):
            S = reps[list(combo)]
            diam = _pairwise_diameter(S)
            cover = (
                S[:1]
                if diam == 0.0
                else hull_cover(S, eps_prime * diam, max_steps=max_cover_steps)
            )
            push(cover, sid, "cover")
            push(_pivoted_orthobasis(S), sid, "basis")
            sid += 1

    return WitnessNet(points=np.array(pool.rows), sources=tuple(sources))


# ---------------- derandomized distance preservation ----------------


def _pair_directions(V):
    """Unit difference vectors for all pairs at nonzero distance."""
    n = V.shape[0]
    rows = []
    for i in range(n - 1):
        dv = V[i + 1 :] - V[i]
        nv = np.sqrt((dv**2).sum(axis=1))
        nz = nv > 0
        if nz.any():
            rows.append(dv[nz] / nv[nz, None])
    if not rows:
        return np.empty((0, V.shape[1]))
    return np.vstack(rows)


def _conditional_sign_matrix(W, m, eps):
    """Sign matrix chosen bit by bit against a pessimistic estimator.

    W holds unit pair directions. While filling row r coordinate by
    coordinate, each candidate sign is scored by
    sum_pairs cosh(lam * (E[|Pi w|^2 | choices so far] - 1)) and the smaller
    score wins (ties keep +1). The conditional expectation over unset signs
    of (row . w)^2 is (partial dot)^2 + remaining squared mass.
    """
    P, d = W.shape
    signs = np.ones((m, d))
    if P == 0:
        return signs
    lam = max(1.0, m * eps / 4.0)
    done = np.zeros(P)  # sum over completed rows of (row . w)^2 / m
    Wsq = W**2
    for r in range(m):
        pd = np.zeros(P)
        rem = np.ones(P)  # rows of W are unit vectors
        tail = (m - r - 1) / m
        for jcol in range(d):
            wj = W[:, jcol]
            rem_next = rem - Wsq[:, jcol]
            base = done + tail - 1.0
            plus = np.cosh(lam * (base + ((pd + wj) ** 2 + rem_next) / m))
            minus = np.cosh(lam * (base + ((pd - wj) ** 2 + rem_next) / m))
            if float(minus.sum()) < float(plus.sum()):
                signs[r, jcol] = -1.0
                pd = pd - wj
            else:
                pd = pd + wj
            rem = rem_next
        done = done + pd**2 / m
    return signs


def derandomized_jl(
    vectors,
    eps,
    strategy="seed-scan",
    *,
    c=DEFAULT_JL_C,
    max_seeds=DEFAULT_MAX_SEEDS,
):
    """A linear map certified to preserve all pairwise distances of
    `vectors` within (1 +- eps).

    Target dimension starts at ceil(c * eps^-2 * ln(#pairs)) and doubles
    until a map passes exhaustive certification; past d the exact identity
    is returned instead. seed-scan tries the seeded sign-matrix family in
    seed order; conditional builds one sign matrix by derandomized bit
    choices. Either way the certificate records what was actually checked.
    """
    V = _as_points(vectors, "vectors")
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    if strategy not in ("seed-scan", "conditional"):
        raise InputError(f"unknown strategy {strategy!r}")
    n, d = V.shape
    n_pairs = n * (n - 1) // 2

    m = max(1, math.ceil(c * eps**-2 * math.log(max(n_pairs, 2))))
    while m <= d:
        if strategy == "seed-scan":
            for seed in range(max_seeds):
                cand = seeded_projection_family(d, m, seed)
                checked, dist = pair_distortions(cand, V)
                if dist <= 1.0 + eps:
                    cert = {
                        "checked_pairs": checked,
                        "max_distortion": dist,
                        "epsilon_target": eps,
                        "strategy": strategy,
                        "seed": seed,
                    }
                    return LinearMap(cand.matrix, eps=eps, certificate=cert)
        else:
            W = _pair_directions(V)
            signs = _conditional_sign_matrix(W, m, eps)
            cand = LinearMap(signs / np.sqrt(m))
            checked, dist = pair_distortions(cand, V)
            if dist <= 1.0 + eps:
                cert = {
                    "checked_pairs": checked,
                    "max_distortion": dist,
                    "epsilon_target": eps,
                    "strategy": strategy,
                }
                return LinearMap(cand.matrix, eps=eps, certificate=cert)
        m *= 2

    out = identity_map(d, eps=eps)
    cert = dict(out.certificate)
    cert["checked_pairs"] = n_pairs
    cert["strategy"] = "identity-fallback"
    return LinearMap(out.matrix, eps=eps, certificate=cert)


# ---------------- sketch assembly ----------------


@dataclass(frozen=True)
class CostPreservingSketch:
    """f(p) = (map(representative of p), extension of p); centers embed at
    extension 0. target_dim counts the extension coordinate."""

    map: LinearMap
    coreset: PartitionCoresetResult
    target_dim: int
    points: np.ndarray  # original input rows, for point lookup

    def evaluate_index(self, i):
        rep = self.coreset.representatives[self.coreset.rep_index[i]]
        return np.append(self.map.apply(rep), self.coreset.extensions[i])

    def evaluate(self, point):
        p = np.asarray(point, dtype=np.float64)
        hits = np.flatnonzero((self.points == p).all(axis=1))
        if hits.size == 0:
            raise InputError("point is not part of the sketched input")
        return self.evaluate_index(int(hits[0]))

    def center_embed(self, center):
        return np.append(self.map.apply(np.asarray(center, dtype=np.float64)), 0.0)

    def sketched_points(self, weights=None):
        mapped = self.map.apply(self.coreset.representatives)
        return ExtendedPointSet(
            mapped[self.coreset.rep_index],
            extensions=self.coreset.extensions,
            weights=weights,
        )


def cost_preserving_sketch(P, params: ClusteringParams, *, strategy="seed-scan"):
    """Full sketch pipeline: the practical partition coreset, a witness
    net over its representatives at WitnessParams.defaults (budgets
    DEFAULT_MAX_SUBSETS and DEFAULT_MAX_COVER_STEPS), a map preserving net
    distances within (1 +- eps/z) (DEFAULT_JL_C, DEFAULT_MAX_SEEDS), and
    the assembled per-point sketch."""
    pts = _as_points(P, "points")
    coreset = build(P, params)
    net = build_net(
        coreset.representatives,
        WitnessParams.defaults(params),
        params.epsilon,
        params.z,
    )
    lin = derandomized_jl(net.points, params.epsilon / params.z, strategy=strategy)
    return CostPreservingSketch(
        map=lin, coreset=coreset, target_dim=lin.m + 1, points=pts
    )
