"""Deterministic cost-preserving sketches.

The pipeline: collapse the input to its partition coreset, enumerate a
witness net over the distinct representatives (hull covers of small
subsets, orthonormal bases of their spans, the origin), derandomize a
linear map that provably preserves all pairwise distances of the net, and
sketch each point as (map(representative), extension). The net depends on
the representatives alone, not on eps or z.

The budgets are module constants: the net takes subsets of up to
NET_SUBSET_SIZE representatives, at most MAX_SUBSETS of them (BudgetError
past it), and covers each at MAX_COVER_STEPS barycentric steps; the map's
target dimension starts at ceil(JL_C * eps^-2 * ln #pairs) and doubles
while it is below the input dimension, each try one sign matrix built by
the method of conditional expectations (Engebretsen, Indyk and O'Donnell,
SODA 2002) and certified on every pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InputError
from .geometry import (
    ClusteringParams,
    ExtendedPointSet,
    _as_points,
    _row_keys,
    first_seen_rows,
    sq_dist_matrix,
)
from .linmap import LinearMap, pair_distortions
from .partition import PartitionCoresetResult, build

JL_C = 4.0
MAX_SUBSETS = 20_000
NET_SUBSET_SIZE = 4
MAX_COVER_STEPS = 3
_BASIS_TOL = 1e-12  # relative residual norm that ends a Gram-Schmidt basis
_NET_CHUNK = 1024  # net rows built and deduplicated per block, which bounds its temporaries


@dataclass(frozen=True)
class WitnessNet:
    points: np.ndarray
    sources: tuple  # per net point: (subset id, kind in {cover, basis, origin})


@functools.lru_cache(maxsize=64)
def _barycentric_steps(G, parts):
    """(C, parts) read-only table of every barycentric weight vector with
    step 1/G: the nonnegative integer vectors summing to G, lexicographic
    by bar positions (stars and bars), divided by G."""
    slots = G + parts - 1
    comps = []
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1, *bars, slots)
        comps.append([hi - lo - 1 for lo, hi in zip(edges, edges[1:])])
    lam = np.array(comps, dtype=np.float64) / G
    lam.flags.writeable = False
    return lam


def _pivoted_orthobases(V):
    """Orthonormal basis of the row span of every (j, d) slab of V,
    Gram-Schmidt with pivoting on the largest residual norm (ties to the
    lowest row index), all slabs in lockstep. A slab stops at its first
    residual of norm 0 or at most _BASIS_TOL times its largest row norm.
    Returns (bases, valid): bases[b, t] is slab b's t-th basis row where
    valid[b, t]; each slab's valid rows come first."""
    work = np.array(V, dtype=np.float64)
    B, j, d = work.shape
    slabs = np.arange(B)
    scale = np.sqrt((work**2).sum(axis=2)).max(axis=1)
    bases = np.zeros((B, min(j, d), d))
    valid = np.zeros((B, min(j, d)), dtype=bool)
    alive = np.ones(B, dtype=bool)
    for t in range(min(j, d)):
        norms = np.sqrt((work**2).sum(axis=2))
        top = norms[slabs, np.argmax(norms, axis=1)]
        alive &= (top > _BASIS_TOL * scale) & (top != 0.0)
        if not alive.any():
            break
        q = work[slabs, np.argmax(norms, axis=1)] / np.where(alive, top, 1.0)[:, None]
        bases[:, t], valid[:, t] = q, alive
        work = work - np.einsum("bij,bj->bi", work, q)[:, :, None] * q[:, None, :]
    return bases, valid


def _covers(S, G):
    """(B, C, d) hull covers of the B subsets S (B, j, d) at G steps: one
    einsum over the cached barycentric table, each row rounded as the
    one-weight-vector einsum "i,ij->j" rounds it; G = 0 gives each
    subset's first point."""
    if G == 0:
        return S[:, :1].copy()
    return np.einsum("ci,bij->bcj", _barycentric_steps(G, S.shape[1]), S, optimize=False)


def build_net(representatives):
    """Witness net over coreset representatives.

    Enumerates every subset of size <= NET_SUBSET_SIZE (lexicographic ids;
    BudgetError past MAX_SUBSETS); for each, a hull cover at
    MAX_COVER_STEPS barycentric steps (a subset of diameter 0 is covered by
    its first point), coarser than the paper's spacing eps^2 / (16 z^2) *
    diam at every eps <= 1/3, and an orthonormal basis of the span; the
    origin is always included. Points are deduplicated at 1e-12 relative
    quantization, first source kept.

    Subsets of one size go in blocks of about _NET_CHUNK rows: one einsum
    builds a block's covers, one lockstep Gram-Schmidt its bases, and
    _NetRows dedups the block against itself and the kept net.
    """
    reps = _as_points(representatives, "representatives")
    T = reps.shape[0]
    keys = {tuple(r) for r in reps}
    if len(keys) != T:
        raise InputError("representatives must be distinct")

    n_subsets = sum(math.comb(T, j) for j in range(1, min(NET_SUBSET_SIZE, T) + 1))
    if n_subsets > MAX_SUBSETS:
        raise BudgetError(
            "witness net subset enumeration", required=n_subsets, allowed=MAX_SUBSETS
        )

    apart = sq_dist_matrix(reps, reps) > 0.0  # a subset's diameter is > 0 iff a pair is apart
    net = _NetRows(1e-12 * max(1.0, float(np.abs(reps).max(initial=0.0))), reps.shape[1])
    sid = 0
    for j in range(1, min(NET_SUBSET_SIZE, T) + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(T), j)),
            dtype=np.int64,
            count=math.comb(T, j) * j,
        ).reshape(-1, j)
        steps = MAX_COVER_STEPS * apart[combos[:, :, None], combos[:, None, :]].any(axis=(1, 2))
        lo = 0
        while lo < combos.shape[0]:  # blocks of subsets with one step count
            G = int(steps[lo])
            per = max(1, _NET_CHUNK // (math.comb(G + j - 1, j - 1) + j))  # rows a subset
            hi = lo + int(np.argmax(np.append(steps[lo : lo + per], -1) != G))
            S = reps[combos[lo:hi]]
            covers = _covers(S, G)
            bases, valid = _pivoted_orthobases(S)
            rows = np.concatenate([covers, bases], axis=1)
            take = np.concatenate([np.ones(covers.shape[:2], dtype=bool), valid], axis=1)
            sids = np.broadcast_to(np.arange(sid + lo, sid + hi)[:, None], take.shape)
            is_basis = np.broadcast_to(np.arange(take.shape[1]) >= covers.shape[1], take.shape)
            net.add(rows[take], sids[take], is_basis[take])
            lo = hi
        sid += combos.shape[0]
    points, sources = net.done()
    return WitnessNet(points=points, sources=sources)


class _NetRows:
    """First-seen dedup of net rows arriving in blocks, starting from the
    origin; two rows are one when they round to the same multiple of
    quantum in every coordinate.

    A block is deduplicated by first_seen_rows on its own rows. Its
    distinct rows are then looked up by binary search among the kept rows'
    _row_keys, kept sorted; the new keys are inserted in order, so the
    kept net is never sorted again.
    """

    def __init__(self, quantum, d):
        self.quantum = quantum
        self.points = [np.zeros((1, d))]  # the origin, then each block's new rows
        self.sources = [(-1, "origin")]
        self.keys = _row_keys(self.points[0], quantum)  # sorted

    def add(self, rows, sids, is_basis):
        first, _ = first_seen_rows(rows, self.quantum)
        keys = _row_keys(rows[first], self.quantum)
        seen = self.keys[np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)] == keys
        new = first[~seen]
        fresh = np.sort(keys[~seen])
        self.keys = np.insert(self.keys, np.searchsorted(self.keys, fresh), fresh)
        self.points.append(rows[new])
        kinds = ("cover", "basis")
        self.sources.extend(
            (sid, kinds[b]) for sid, b in zip(sids[new].tolist(), is_basis[new].tolist())
        )

    def done(self):
        return np.vstack(self.points), tuple(self.sources)


# ---------------- derandomized distance preservation ----------------


def _conditional_sign_matrix(V, m, eps):
    """Sign matrix chosen bit by bit against a pessimistic estimator.

    The estimator runs over the unit directions w of V's pairs (i, j),
    i < j, at nonzero distance. While filling row r coordinate by
    coordinate, each candidate sign is scored by
    sum_pairs cosh(lam * (E[|Pi w|^2 | choices so far] - 1)) and the smaller
    score wins (ties keep +1). The conditional expectation over unset signs
    of (row . w)^2 is (partial dot)^2 + remaining squared mass.

    Coordinate j of every w is recomputed at each choice as
    (V[hi, j] - V[lo, j]) / |V[hi] - V[lo]|, so only a few arrays of one
    entry per pair are held, never a (pairs, d) table. Each score still
    sums over all pairs at once: a chunked sum rounds differently and can
    flip a sign.
    """
    n, d = V.shape
    signs = np.ones((m, d))
    lo, hi = np.triu_indices(n, 1)
    # pair norms row by row, so no temporary exceeds (n, d)
    rows = [np.sqrt(((V[i + 1 :] - V[i]) ** 2).sum(axis=1)) for i in range(n - 1)]
    norm = np.concatenate([np.empty(0), *rows])
    nz = norm > 0
    lo, hi, norm = lo[nz], hi[nz], norm[nz]
    P = norm.size
    if P == 0:
        return signs
    lam = max(1.0, m * eps / 4.0)
    done = np.zeros(P)  # sum over completed rows of (row . w)^2 / m
    for r in range(m):
        pd = np.zeros(P)
        rem = np.ones(P)  # each w is a unit vector
        tail = (m - r - 1) / m
        for jcol in range(d):
            wj = (V[hi, jcol] - V[lo, jcol]) / norm
            rem_next = rem - wj**2
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


def derandomized_jl(vectors, eps):
    """A linear map certified to preserve all pairwise distances of
    `vectors` within (1 +- eps).

    Target dimension starts at ceil(JL_C * eps^-2 * ln(#pairs)) and doubles
    while it is below d. At each m, one sign matrix is built by conditional
    expectations (_conditional_sign_matrix) and certified on every pair by
    pair_distortions; once m reaches d the exact identity is returned
    instead, and no pair is walked. The estimator's lam = max(1, m*eps/4)
    and its cosh sum are not derived in this repository: the exhaustive
    certificate, not the estimator, is what makes a returned map valid.
    The certificate records what was actually checked.
    """
    V = _as_points(vectors, "vectors")
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    n, d = V.shape
    n_pairs = n * (n - 1) // 2

    m = max(1, math.ceil(JL_C * eps**-2 * math.log(max(n_pairs, 2))))
    while m < d:
        matrix = _conditional_sign_matrix(V, m, eps) / np.sqrt(m)
        checked, dist = pair_distortions(matrix, V)
        if dist <= 1.0 + eps:
            strategy = "conditional"
            break
        m *= 2
    else:
        matrix, checked, dist, strategy = np.eye(d), n_pairs, 1.0, "identity-fallback"
    cert = {
        "checked_pairs": checked,
        "max_distortion": dist,
        "epsilon_target": eps,
        "strategy": strategy,
    }
    return LinearMap(matrix, eps=eps, certificate=cert)


# ---------------- sketch assembly ----------------


@dataclass(frozen=True)
class CostPreservingSketch:
    """f(p) = (map(representative of p), extension of p); centers embed at
    extension 0, so a sketched row has map.m + 1 coordinates."""

    map: LinearMap
    coreset: PartitionCoresetResult
    net: WitnessNet  # of the representatives: the map's certificate holds on it

    def sketched_points(self):
        mapped = self.map.apply(self.coreset.representatives)
        return ExtendedPointSet(mapped[self.coreset.rep_index], extensions=self.coreset.extensions)


def cost_preserving_sketch(P, params: ClusteringParams):
    """Full sketch pipeline: the partition coreset of P, the witness net of
    its representatives (build_net: subsets of up to NET_SUBSET_SIZE,
    covers at MAX_COVER_STEPS steps), and a map preserving net distances
    within (1 +- eps/z), built by derandomized_jl by conditional
    expectations (the identity when no m below d certifies). Row i of
    sketched_points() is point i's sketch (map(representative),
    extension), at unit weight; a center embeds as (map(center), 0)."""
    coreset = build(P, params)
    net = build_net(coreset.representatives)
    lin = derandomized_jl(net.points, params.epsilon / params.z)
    return CostPreservingSketch(map=lin, coreset=coreset, net=net)
