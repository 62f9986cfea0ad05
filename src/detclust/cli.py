"""Command-line front end.

Subcommands: gen, coreset build/verify, sketch build/verify,
solve {ptas,bicriteria,exact}, bench compare. Exit codes: 0 success,
2 input error, 3 budget exceeded, 4 verification threshold missed.

Scalars that feed back into computation are printed as hex floats next to
their decimal rendering; output files are bit-reproducible for the same
arguments. DCLUS_THREADS is validated here but deliberately unused: every
computation runs single-dispatch, so the thread cap cannot change any
output byte.
"""

import argparse
import functools
import os
import sys
import time
import numpy as np

from . import io as dio
from .datasets import far_point_instance, gaussian_blobs, ring_mixture
from .dimreduce import cost_preserving_sketch
from .errors import BudgetError, InputError
from .geometry import (
    DEFAULT_ALPHA,
    ClusteringParams,
    ExtendedPointSet,
    WeightedPointSet,
    center_grid,
)
from .linmap import pair_distortions
from .rings import check_tuple_budget, ring_coreset, verify_offset_coreset
from .solve import approx_solve, bicriteria_solve, exact_solve

_MODES = {"det": "deterministic", "rand": "randomized"}


def _parse_thread_cap(raw):
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"DCLUS_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError("DCLUS_THREADS must be >= 1")
    return cap


def _plain_points(ps, what):
    if isinstance(ps, ExtendedPointSet):
        raise InputError(f"{what} expects plain points, not extended rows")
    if isinstance(ps, WeightedPointSet):
        if not (ps.weights == 1.0).all():
            raise InputError(f"{what} expects unweighted points")
        return ps.points
    return np.asarray(ps, dtype=np.float64)


def _cmd_gen(args):
    if args.blobs is not None:
        pts = gaussian_blobs(
            args.n,
            args.d,
            blobs=args.blobs,
            seed=args.seed,
            spread=args.spread,
            separation=args.separation,
        )
        kind = f"{args.blobs} blobs"
    elif args.rings is not None:
        pts = ring_mixture(args.n, args.d, rings=args.rings, seed=args.seed)
        kind = f"{args.rings} rings"
    else:
        pts = far_point_instance(args.n, args.d, seed=args.seed, distance=args.distance)
        kind = "far-point"
    dio.write_points(pts, args.out, binary=args.binary)
    print(f"wrote {pts.shape[0]} points (dim {pts.shape[1]}, {kind}) to {args.out}")
    return 0


def _cmd_coreset_build(args):
    params = ClusteringParams(k=args.k, z=args.z, epsilon=args.eps, alpha=args.alpha)
    mode = _MODES[args.mode]
    if mode == "deterministic" and args.seed is not None:
        raise InputError("--seed applies to randomized mode only")
    pts = _plain_points(dio.read_points(getattr(args, "in")), "coreset build")
    seed = 0 if args.seed is None else args.seed
    core = ring_coreset(pts, params, mode=mode, seed=seed)
    dio.write_coreset(core, params, args.out)
    print(
        f"coreset: {core.size} rows from {pts.shape[0]} points,"
        f" F={core.offset!r} ({float(core.offset).hex()}),"
        f" total_weight={core.total_weight}"
    )
    return 0


def _cmd_coreset_verify(args):
    pts = _plain_points(dio.read_points(args.points), "coreset verify")
    core, params = dio.read_coreset(args.coreset)
    # the grid has per_axis ** d rows; center_grid refuses per_axis < 1
    check_tuple_budget(max(args.per_axis, 0) ** pts.shape[1], params.k)
    grid = center_grid(pts, args.per_axis)
    rep = verify_offset_coreset(pts, core, params, grid)
    err = rep.max_relative_error
    print(
        f"checked {rep.checked} center tuples:"
        f" max_relative_error={err!r} ({float(err).hex()}), eps={params.epsilon!r}"
    )
    if err > params.epsilon:
        print("verification FAILED", file=sys.stderr)
        return 4
    print("verification passed")
    return 0


def _cmd_sketch_build(args):
    params = ClusteringParams(k=args.k, z=args.z, epsilon=args.eps)
    pts = _plain_points(dio.read_points(getattr(args, "in")), "sketch build")
    sk = cost_preserving_sketch(pts, params)
    dio.write_sketch(sk.map, sk.net.points, params, args.out)
    cert = sk.map.certificate or {}
    print(
        f"sketch: {pts.shape[1]} -> {sk.map.m + 1} dims"
        f" (map {sk.map.m}x{sk.map.d}), net size {sk.net.points.shape[0]},"
        f" certified max_distortion={cert.get('max_distortion')!r}"
    )
    return 0


def _cmd_sketch_verify(args):
    lin, net, params = dio.read_sketch(args.sketch)
    checked, dist = pair_distortions(lin, net)
    bound = 1.0 + params.epsilon / params.z
    stored = (lin.certificate or {}).get("max_distortion")
    print(
        f"rechecked {checked} net pairs: max_distortion={dist!r}"
        f" ({float(dist).hex()}), bound={bound!r}"
    )
    if stored is not None and stored != dist:
        print(
            f"stored certificate disagrees: {stored!r} != {dist!r}",
            file=sys.stderr,
        )
        return 4
    # with no net pair to check, only the exact identity map is accepted:
    # it preserves every distance without a certificate
    unchecked = checked == 0 and not np.array_equal(lin.matrix, np.eye(lin.d))
    if unchecked or dist > bound:
        print("verification FAILED", file=sys.stderr)
        return 4
    print("verification passed")
    return 0


def _cmd_solve(args):
    params = ClusteringParams(k=args.k, z=args.z, epsilon=args.eps, alpha=args.alpha)
    ps = dio.read_points(getattr(args, "in"))
    if isinstance(ps, ExtendedPointSet):
        raise InputError("solve expects plain or weighted points")
    if args.method == "exact":
        res = exact_solve(ps, params)
    elif args.method == "bicriteria":
        res = bicriteria_solve(ps, params)
    else:
        pts = _plain_points(ps, "solve ptas")
        res = approx_solve(pts, params)
    print(
        f"method={res.method} downgraded={res.downgraded}"
        f" cost={res.cost!r} ({float(res.cost).hex()})"
        f" centers={res.centers.k}"
    )
    if args.out:
        dio.write_points(res.centers.centers, args.out)
        print(f"wrote centers to {args.out}")
    return 0


def _cmd_bench_compare(args):
    params = ClusteringParams(k=args.k, z=args.z, epsilon=args.eps)
    print("instance\tmode\tsize\tmax_error\tseconds")
    worst = 0.0
    for i in range(args.instances):
        pts = gaussian_blobs(args.n, args.d, blobs=args.k, seed=args.seed + i)
        grid = center_grid(pts, 3)
        exhaustive = grid.shape[0] <= 200
        for mode in ("deterministic", "randomized"):
            t0 = time.perf_counter()
            core = ring_coreset(pts, params, mode=mode, seed=i)
            took = time.perf_counter() - t0
            rep = verify_offset_coreset(
                pts, core, params, grid, exhaustive_tuples=exhaustive
            )
            err = rep.max_relative_error
            worst = max(worst, err)
            print(f"{i}\t{mode}\t{core.size}\t{err:.6g}\t{took:.4f}")
    return 0 if worst <= params.epsilon else 4


def _add_clustering_args(p, *, alpha=False):
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--z", type=int, required=True, help="cost exponent")
    p.add_argument("--eps", type=float, required=True, help="accuracy target")
    if alpha:
        p.add_argument(
            "--alpha",
            type=float,
            default=DEFAULT_ALPHA,
            help="c_A, the seeding's constant factor, >= 1 (default %(default)s)",
        )


@functools.cache
def _build_parser():
    """The dclus argument parser, built on first use and then reused: a
    process that dispatches many commands builds it once, and importing
    the module builds nothing."""
    top = argparse.ArgumentParser(
        prog="dclus",
        description="Deterministic (k, z)-clustering coresets, sketches, and solvers.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance file")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--blobs", type=int, help="gaussian blob count")
    kind.add_argument("--rings", type=int, help="concentric ring count")
    kind.add_argument("--far", action="store_true", help="cloud plus one far outlier")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--spread", type=float, default=1.0)
    gen.add_argument("--separation", type=float, default=8.0)
    gen.add_argument("--distance", type=float, default=1e6)
    gen.add_argument("--binary", action="store_true", help="write the binary format")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    coreset = sub.add_parser("coreset", help="offset-coreset commands")
    csub = coreset.add_subparsers(dest="subcommand", required=True)
    cb = csub.add_parser("build", help="build and serialize an offset coreset")
    cb.add_argument("--in", required=True, help="input point file")
    cb.add_argument("--out", required=True, help="output coreset file")
    _add_clustering_args(cb, alpha=True)
    cb.add_argument("--mode", choices=("det", "rand"), default="det")
    cb.add_argument("--seed", type=int, default=None, help="randomized mode only")
    cb.set_defaults(func=_cmd_coreset_build)
    cv = csub.add_parser("verify", help="replay the coreset guarantee on a grid")
    cv.add_argument("--points", required=True, help="original point file")
    cv.add_argument("--coreset", required=True, help="coreset file to verify")
    cv.add_argument("--per-axis", type=int, default=4, dest="per_axis")
    cv.set_defaults(func=_cmd_coreset_verify)

    sketch = sub.add_parser("sketch", help="cost-preserving sketch commands")
    ssub = sketch.add_subparsers(dest="subcommand", required=True)
    sb = ssub.add_parser("build", help="build a sketch bundle (map + witness net)")
    sb.add_argument("--in", required=True)
    sb.add_argument("--out", required=True)
    _add_clustering_args(sb)
    sb.set_defaults(func=_cmd_sketch_build)
    sv = ssub.add_parser("verify", help="recheck the distortion certificate")
    sv.add_argument("--sketch", required=True, help="sketch bundle file")
    sv.set_defaults(func=_cmd_sketch_verify)

    solve = sub.add_parser("solve", help="cluster a point file")
    solve.add_argument("method", choices=("ptas", "bicriteria", "exact"))
    solve.add_argument("--in", required=True)
    solve.add_argument("--out", default=None, help="optional centers output file")
    _add_clustering_args(solve, alpha=True)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="benchmark tables")
    bsub = bench.add_subparsers(dest="subcommand", required=True)
    bc = bsub.add_parser(
        "compare", help="deterministic vs randomized coreset size/error table"
    )
    _add_clustering_args(bc)
    bc.add_argument("--n", type=int, default=200)
    bc.add_argument("--d", type=int, default=2)
    bc.add_argument("--instances", type=int, default=3)
    bc.add_argument("--seed", type=int, default=0, help="first instance seed")
    bc.set_defaults(func=_cmd_bench_compare)

    return top


def cli_dispatch(argv=None):
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        _parse_thread_cap(os.environ.get("DCLUS_THREADS"))
        return int(args.func(args) or 0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_dispatch())
