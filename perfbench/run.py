#!/usr/bin/env python3
"""detclust benchmark: drive the `dclus` CLI in-process on seeded inputs.

    python3 perfbench/run.py --workload coreset-2d --seed 1 --seconds 38 --trace 0

One process per workload, one operation at a time: a closed loop with a
single caller. Each pass runs the workload's CLI operations in order
through ``detclust.cli.cli_dispatch``; passes repeat until the next one
would overrun ``--seconds`` (at least one pass always runs). Every
operation's output is checked and hashed; a nonzero exit, an exception,
a failed check or a digest that differs from the first pass counts as a
failed operation and makes the exit code 1.

``--trace 0`` reports the end-to-end metrics: medians over passes, with
each pass time scaled by a reference kernel timed just before it (see
``end_to_end``).
``--trace 1`` runs one untraced pass, then traced passes with every public
function of the detclust modules wrapped (see tracer.py), and reports the
per-layer metrics plus the tracing overhead against the untraced pass.

The last stdout line is the JSON result; a readable table of every metric
comes before it, and the full record (per-pass times, digests, all
per-layer stats) is written to perfbench/out/.
"""

import os

# pinned before numpy loads: results must not depend on BLAS threading
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "DCLUS_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
# the reference kernel runs REF_REPEATS times before each pass; pass times
# are reported as if its fastest run there took REF_S seconds
REF_REPEATS = 3
REF_S = 0.01

# (name, unit, better) as listed in BENCHMARK.json; every workload reports
# each of them, so only metrics that apply to all workloads are here
END_TO_END = (
    ("pass_ref_s", "s", "lower"),
    ("points_per_ref_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# reported by --trace 1. Self time is given in seconds for functions that
# every workload calls. A function some workload never reaches would read
# 0.0 s on every run of that workload, so its self time is given instead as
# a share of the traced pass; its calls and counters read 0 there.
PER_LAYER = (
    ("bicriteria.candidate_centers.calls", "count"),
    ("bicriteria.candidate_centers.candidates", "count"),
    ("bicriteria.candidate_centers.self_s", "s"),
    ("bicriteria.ball_lattice.calls", "count"),
    ("bicriteria.constant_factor_approx.self_s", "s"),
    ("bicriteria.greedy_augment.self_s", "s"),
    ("bicriteria.greedy_augment.centers_added", "count"),
    ("bicriteria.bicriteria.calls", "count"),
    ("bicriteria.bicriteria.self_s", "s"),
    ("epsapprox.halving_approx.calls", "count"),
    ("epsapprox.halving_approx.self_pct", "%"),
    ("epsapprox.halving_approx.kept_ratio", "ratio"),
    ("epsapprox.ball_test_family.self_pct", "%"),
    ("epsapprox.uniform_sample_approx.self_pct", "%"),
    ("rings.greedy_seeding.self_s", "s"),
    ("rings.greedy_seeding.centers", "count"),
    ("rings.ring_decompose.self_pct", "%"),
    ("rings.ring_decompose.main_rings", "count"),
    ("rings.ring_coreset.self_s", "s"),
    ("rings.ring_coreset.rows", "count"),
    ("rings.verify_offset_coreset.self_pct", "%"),
    ("rings.verify_offset_coreset.tuples_checked", "count"),
    ("solve.exact_solve.self_pct", "%"),
    ("solve.approx_solve.self_pct", "%"),
    ("solve.bicriteria_solve.self_pct", "%"),
    ("solve.partitions_examined", "count"),
    ("solve.downgrades", "count"),
    ("geometry.solve_1center.calls", "count"),
    ("geometry.solve_1center.self_pct", "%"),
    ("geometry.solve_1center_constrained.calls", "count"),
    ("geometry.solve_1center_constrained.self_pct", "%"),
    ("geometry.power_cost.calls", "count"),
    ("geometry.power_cost.self_s", "s"),
    ("geometry.sq_dist_matrix.calls", "count"),
    ("geometry.sq_dist_matrix.self_s", "s"),
    ("geometry.center_grid.self_pct", "%"),
    ("summation.tree_sum.calls", "count"),
    ("summation.tree_sum.self_s", "s"),
    ("partition.build.self_pct", "%"),
    ("partition.build.representatives", "count"),
    ("dimreduce.build_net.calls", "count"),
    ("dimreduce.build_net.self_pct", "%"),
    ("dimreduce.build_net.net_points", "count"),
    ("dimreduce.derandomized_jl.self_pct", "%"),
    ("dimreduce.derandomized_jl.identity_fallbacks", "count"),
    ("dimreduce.cost_preserving_sketch.self_pct", "%"),
    ("linmap.pair_distortions.calls", "count"),
    ("linmap.pair_distortions.self_pct", "%"),
    ("linmap.pair_distortions.pairs_checked", "count"),
    ("io.read_points.self_s", "s"),
    ("io.write_points.self_pct", "%"),
    ("io.read_coreset.self_pct", "%"),
    ("io.write_coreset.self_pct", "%"),
    ("io.read_sketch.self_pct", "%"),
    ("io.write_sketch.self_pct", "%"),
    ("io.bytes_read", "count"),
    ("io.bytes_written", "count"),
    ("cli.cli_dispatch.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# the per-workload metrics of the readable table: (name, unit, better)
QUALITY = {
    "coreset_rows_per_n": ("ratio", "lower"),
    "coreset_max_rel_error": ("ratio", "lower"),
    "solve_cost_ratio": ("ratio", "lower"),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def time_imports(repeats):
    """Seconds to import detclust.cli in a fresh interpreter, per repeat."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
        " import detclust.cli; print(repr(time.perf_counter() - t))"
    )
    out = []
    for _ in range(repeats):
        res = subprocess.run(
            [sys.executable, "-c", code, SRC], cwd=ROOT, env=os.environ.copy(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_op(op, cli):
    """One timed CLI call; checks and digests happen after the clock stops."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    if op.output is not None and os.path.exists(op.output):
        os.remove(op.output)  # a stale file from an earlier pass must not pass the check
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_dispatch(op.argv)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    if error is None and op.check is not None:
        try:
            op.check(stdout, op.output)
        except (CheckFailed, OSError, ValueError) as exc:
            error = f"check failed: {exc}"
    digest = {"stdout": _sha(stdout.encode())}
    if op.output is not None and os.path.isfile(op.output):
        with open(op.output, "rb") as fh:
            digest["file"] = _sha(fh.read())
    return {"label": op.label, "kind": op.kind, "seconds": seconds,
            "points": op.points, "digest": digest, "error": error}


def run_pass(ops, cli, reference):
    """One pass; an output that differs from the first pass is a failure."""
    recs = [run_op(op, cli) for op in ops]
    for rec in recs:
        ref = reference.setdefault(rec["label"], rec["digest"])
        if rec["error"] is None and rec["digest"] != ref:
            rec["error"] = "output digest differs from the first pass"
    return recs


_REF_POINTS = np.random.default_rng(0).standard_normal((200, 2))


def reference_kernel():
    """Seconds for a fixed mix of small numpy array work and interpreted
    Python, the two kinds of work the CLI operations do. It calls nothing
    in detclust, so a change to the program cannot move it."""
    t0 = time.perf_counter()
    for _ in range(5):
        d = ((_REF_POINTS[:, None, :] - _REF_POINTS[None, :, :]) ** 2).sum(axis=2)
        np.sort(d, axis=1)
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - t0


def measure(ops, cli, seconds, reference, *, tracer=None):
    """Passes until the next one would overrun `seconds` of measuring, each
    after REF_REPEATS runs of the reference kernel."""
    passes = []
    start = time.perf_counter()
    while True:
        ref = [reference_kernel() for _ in range(REF_REPEATS)]
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        recs = run_pass(ops, cli, reference)
        wall = time.perf_counter() - t0
        entry = {"ops": recs, "ref_s": ref}
        if tracer is not None:
            entry["counts"] = tracer.counts()
            entry["times"] = tracer.times()
        passes.append(entry)
        if time.perf_counter() - start + wall > seconds:
            return passes


def pass_seconds(p, kind=None):
    return sum(r["seconds"] for r in p["ops"] if kind is None or r["kind"] == kind)


def end_to_end(passes, kinds):
    """Per-pass samples, unscaled and scaled by the reference kernel.

    Other tenants of the shared host slow all work by up to 1.6x for
    stretches of seconds to minutes, and a run's median pass time moves
    with them. Each pass is therefore also reported as pass time * REF_S /
    the fastest of the kernel runs just before it. Over ten runs per
    workload this cut the spread of the median from 6-26% to 4-10%
    (interquartile range over the median); see README.md, Steadiness.
    """
    per_pass = [pass_seconds(p) for p in passes]
    scale = [REF_S / min(p["ref_s"]) for p in passes]
    pts = [sum(r["points"] for r in p["ops"]) / t for p, t in zip(passes, per_pass)]
    samples = {"pass_s": per_pass, "points_per_s": pts,
               "pass_ref_s": [t * k for t, k in zip(per_pass, scale)],
               "points_per_ref_s": [v / k for v, k in zip(pts, scale)],
               "ref_kernel_s": [t for p in passes for t in p["ref_s"]]}
    for kind in kinds:
        samples[f"{kind}_s"] = [pass_seconds(p, kind) for p in passes]
    return samples


def flat_layers(counts, times, wall):
    """Per-layer values of one traced pass under their metric names."""
    flat = {}
    for key, c in counts.items():
        for stat, v in c.items():
            flat[f"{key}.{stat}"] = v
        flat[f"{key}.self_s"] = times[key]["self_s"]
        flat[f"{key}.self_pct"] = 100.0 * times[key]["self_s"] / wall
    kept = flat.get("epsapprox.halving_approx.kept", 0)
    ground = flat.get("epsapprox.halving_approx.ground", 0)
    flat["epsapprox.halving_approx.kept_ratio"] = kept / ground if ground else 0.0
    for stat in ("partitions_examined", "downgrades"):
        flat[f"solve.{stat}"] = sum(
            v for k, v in flat.items() if k.startswith("solve.") and k.endswith("." + stat)
        )
    for side, prefix in (("read", "io.read_"), ("written", "io.write_")):
        flat[f"io.bytes_{side}"] = sum(
            v for k, v in flat.items() if k.startswith(prefix) and k.endswith(".bytes")
        )
    return flat


def per_layer(traced, untraced_s):
    """Counts of the first traced pass (later passes must repeat them
    exactly) and the median self time over traced passes."""
    flats = [flat_layers(p["counts"], p["times"], pass_seconds(p)) for p in traced]
    out = dict(flats[0])
    for name in out:
        if name.endswith(("_s", "_pct")):
            out[name] = _median([f.get(name, 0.0) for f in flats])
    out["trace.overhead_ratio"] = _median([pass_seconds(p) for p in traced]) / untraced_s
    return out


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def print_table(title, rows):
    print(title)
    print(f"  {'metric':44s} {'unit':6s} {'better':7s} {'median':>12s} {'min':>12s} {'max':>12s} {'n':>3s}")
    for name, unit, better, vals in rows:
        vals = vals if isinstance(vals, list) else [vals]
        print(f"  {name:44s} {unit:6s} {better:7s} {_median(vals):12.6g}"
              f" {min(vals):12.6g} {max(vals):12.6g} {len(vals):3d}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="full record path (default perfbench/out/...)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "detclust", "cli.py")):
        print(f"perfbench: detclust sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(HERE, "work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    cwd = os.getcwd()
    tracer = Tracer() if args.trace else None
    try:
        imports = time_imports(SETUP_REPEATS)
        import detclust.cli as cli  # after the timed fresh imports

        os.chdir(workdir)  # relative paths keep stdout digests checkout-independent
        gens = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            gens.append(time.perf_counter() - t0)
        ops = wl.ops()
        reference = {}
        if tracer is None:
            passes = measure(ops, cli, args.seconds, reference)
            traced = []
        else:
            t0 = time.perf_counter()
            passes = measure(ops, cli, 0.0, reference)  # one untraced pass
            with tracer:
                traced = measure(ops, cli, args.seconds - (time.perf_counter() - t0),
                                 reference, tracer=tracer)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))

    all_ops = [r for p in passes + traced for r in p["ops"]]
    failures = [f"{r['label']}: {r['error']}" for r in all_ops if r["error"]]
    if any(p["counts"] != traced[0]["counts"] for p in traced):
        failures.append("per-layer counts differ between traced passes")
    attempted, failed = len(all_ops), len(failures)

    samples = end_to_end(passes, wl.kinds)
    setup_s = _median(imports) + _median(gens)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = wl.quality_metrics() if not failures else {}
    e2e_values = {"pass_ref_s": _median(samples["pass_ref_s"]),
                  "points_per_ref_s": _median(samples["points_per_ref_s"]),
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 caller,"
          f" {len(passes)} untraced pass(es), {len(traced)} traced")
    rows = [(f"{k}_s", "s", "lower", samples[f"{k}_s"]) for k in wl.kinds]
    rows += [("pass_s", "s", "lower", samples["pass_s"]),
             ("points_per_s", "1/s", "higher", samples["points_per_s"]),
             ("ref_kernel_s", "s", "lower", samples["ref_kernel_s"]),
             ("pass_ref_s", "s", "lower", samples["pass_ref_s"]),
             ("points_per_ref_s", "1/s", "higher", samples["points_per_ref_s"]),
             ("peak_rss_mb", "MB", "lower", peak_rss_mb),
             ("setup_s", "s", "lower", setup_s),
             ("failed_ops_ratio", "ratio", "lower", failed / attempted)]
    rows += [(k, QUALITY[k][0], QUALITY[k][1], v) for k, v in quality.items()]
    print_table("end-to-end (untraced)", rows)
    layers = {}
    if traced:
        layers = per_layer(traced, pass_seconds(passes[0]))
        print_table("per-layer (traced)", [
            (name, unit, "-", layers.get(name, 0)) for name, unit in PER_LAYER])
    for f in failures:
        print(f"FAILED {f}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "attempted": attempted,
        "failed": failed, "failures": failures, "failed_ops_ratio": failed / attempted,
        "setup": {"import_s": imports, "generate_s": gens},
        "samples": samples, "end_to_end": e2e_values, "quality": quality,
        "op_seconds": {r["label"]: [q["seconds"] for p in passes for q in p["ops"]
                                    if q["label"] == r["label"]] for r in passes[0]["ops"]},
        "digests": reference, "per_layer": layers,
        "traced_counts": traced[0]["counts"] if traced else {},
    }
    out_path = args.out or os.path.join(HERE, "out", f"{tag}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if args.trace:
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e_values[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
