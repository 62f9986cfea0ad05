"""CLI dispatch: exit codes, reports, byte-reproducible outputs."""

import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from detclust.cli import _build_parser, _parse_thread_cap, cli_dispatch
from detclust.datasets import gaussian_blobs
from detclust.dimreduce import build_net, derandomized_jl
from detclust.errors import InputError
from detclust.geometry import ClusteringParams
from detclust.io import read_coreset, read_points, write_coreset, write_points, write_sketch
from detclust.linmap import LinearMap
from detclust.rings import ring_coreset
from detclust.solve import exact_solve

COST_RE = re.compile(r"cost=([^ ]+) \(([^)]+)\)")


def test_runconfig_validation(tmp_path, capsys):
    # clustering arguments are rejected with exit 2 before anything is written
    pts, out = tmp_path / "p.csv", tmp_path / "out"
    assert cli_dispatch(["gen", "--blobs", "2", "--n", "20", "--d", "2", "--out", str(pts)]) == 0
    io_args = ["--in", str(pts), "--out", str(out), "--z", "2", "--eps", "0.3"]
    build = ["coreset", "build"] + io_args
    capsys.readouterr()
    assert cli_dispatch(build + ["--k", "2", "--mode", "det", "--seed", "1"]) == 2
    assert "--seed applies to randomized mode only" in capsys.readouterr().err
    assert cli_dispatch(build + ["--k", "2", "--mode", "sometimes"]) == 2
    for cmd in (build, ["sketch", "build"] + io_args, ["solve", "exact"] + io_args):
        assert cli_dispatch(cmd + ["--k", "0"]) == 2
    for alpha in ("0", "-1", "nan", "inf"):
        for cmd in (build, ["solve", "bicriteria"] + io_args):
            assert cli_dispatch(cmd + ["--k", "2", f"--alpha={alpha}"]) == 2
    assert not out.exists()


def test_thread_cap_parsing():
    assert _parse_thread_cap(None) == 1
    assert _parse_thread_cap("4") == 4
    for bad in ("abc", "0", "-2"):
        with pytest.raises(InputError):
            _parse_thread_cap(bad)


def test_gen_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen", "--blobs", "3", "--n", "60", "--d", "2", "--seed", "7"]
    assert cli_dispatch(args + ["--out", str(a)]) == 0
    assert cli_dispatch(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ab, bb = tmp_path / "a.bin", tmp_path / "b.bin"
    assert cli_dispatch(args + ["--binary", "--out", str(ab)]) == 0
    assert cli_dispatch(args + ["--binary", "--out", str(bb)]) == 0
    assert ab.read_bytes() == bb.read_bytes()
    assert read_points(ab).points.tobytes() == read_points(a).points.tobytes()


def test_gen_other_kinds(tmp_path):
    rp = tmp_path / "rings.csv"
    assert cli_dispatch(["gen", "--rings", "2", "--n", "40", "--d", "3", "--out", str(rp)]) == 0
    assert read_points(rp).points.shape == (40, 3)
    fp = tmp_path / "far.csv"
    assert cli_dispatch(["gen", "--far", "--n", "20", "--d", "2", "--out", str(fp)]) == 0
    far = read_points(fp).points
    assert far.shape == (20, 2)
    assert np.abs(far).max() == 1e6


def test_coreset_build_then_verify_passes(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    core = tmp_path / "core.csv"
    assert cli_dispatch(["gen", "--blobs", "2", "--n", "80", "--d", "2", "--out", str(pts)]) == 0
    assert (
        cli_dispatch(
            ["coreset", "build", "--in", str(pts), "--out", str(core),
             "--k", "2", "--z", "2", "--eps", "0.3", "--mode", "det", "--alpha", "2.0"]
        )
        == 0
    )
    code = cli_dispatch(["coreset", "verify", "--points", str(pts), "--coreset", str(core)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification passed" in out
    m = re.search(r"max_relative_error=([0-9.e-]+)", out)
    assert m and float(m.group(1)) <= 0.3


def test_coreset_randomized_needs_no_seed_but_reproduces_with_one(tmp_path):
    pts = tmp_path / "p.csv"
    cli_dispatch(["gen", "--blobs", "2", "--n", "60", "--d", "2", "--out", str(pts)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["coreset", "build", "--in", str(pts), "--k", "2", "--z", "1",
            "--eps", "0.3", "--mode", "rand", "--seed", "5", "--alpha", "2.0"]
    assert cli_dispatch(args + ["--out", str(a)]) == 0
    assert cli_dispatch(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # seed is a randomized-mode knob only
    det = ["coreset", "build", "--in", str(pts), "--out", str(a), "--k", "2",
           "--z", "1", "--eps", "0.3", "--mode", "det", "--seed", "5"]
    assert cli_dispatch(det) == 2


def test_solve_exact_over_budget_exits_3(tmp_path):
    pts = tmp_path / "p.csv"
    cli_dispatch(["gen", "--blobs", "2", "--n", "15", "--d", "2", "--out", str(pts)])
    assert cli_dispatch(["solve", "exact", "--in", str(pts), "--k", "2", "--z", "2", "--eps", "0.3"]) == 3


def test_solve_methods_report_consistent_cost(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    cent = tmp_path / "cent.csv"
    cli_dispatch(["gen", "--blobs", "2", "--n", "12", "--d", "2", "--seed", "5", "--out", str(pts)])
    for method in ("exact", "ptas", "bicriteria"):
        code = cli_dispatch(
            ["solve", method, "--in", str(pts), "--k", "2", "--z", "2",
             "--eps", "0.3", "--out", str(cent)]
        )
        out = capsys.readouterr().out
        assert code == 0
        dec, hx = COST_RE.search(out).groups()
        assert float.fromhex(hx) == float(dec)  # hex and decimal agree bitwise
        assert read_points(cent).points.shape == (2, 2)
        if method != "bicriteria":
            assert f"method={method}" in out or "method=ptas" in out


def test_solve_weighted_file_matches_library_call(tmp_path, capsys):
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((8, 2))
    w = np.array([2.0, 1.0, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0])
    from detclust.io import write_points

    f = tmp_path / "w.csv"
    write_points((pts, w), f)
    code = cli_dispatch(["solve", "exact", "--in", str(f), "--k", "2", "--z", "1", "--eps", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    dec, hx = COST_RE.search(out).groups()
    ref = exact_solve((pts, w), ClusteringParams(k=2, z=1, epsilon=0.3))
    assert float.fromhex(hx) == ref.cost


def test_sketch_build_and_verify(tmp_path, capsys):
    pts = tmp_path / "hd.csv"
    sk = tmp_path / "sk.json"
    cli_dispatch(
        ["gen", "--blobs", "2", "--n", "40", "--d", "30", "--spread", "0.0",
         "--seed", "3", "--out", str(pts)]
    )
    assert cli_dispatch(
        ["sketch", "build", "--in", str(pts), "--out", str(sk),
         "--k", "2", "--z", "2", "--eps", "0.3"]
    ) == 0
    assert cli_dispatch(["sketch", "verify", "--sketch", str(sk)]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    # tampering with the stored certificate must be caught
    doc = sk.read_text().replace(
        float(1.0).hex(), float(1.5).hex(), 1
    )
    sk.write_text(doc)
    assert cli_dispatch(["sketch", "verify", "--sketch", str(sk)]) == 4


def test_sketch_of_points_whose_differences_overflow(tmp_path, capsys):
    # the points' pair distances are inf: sketch build refuses them, but
    # their witness net still builds and its bundle rechecks
    huge = np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]])
    pts, sk = tmp_path / "huge.csv", tmp_path / "sk.json"
    write_points(huge, pts)
    args = ["--in", str(pts), "--out", str(sk), "--k", "2", "--z", "2", "--eps", "0.3"]
    assert cli_dispatch(["sketch", "build"] + args) == 2
    assert "overflow" in capsys.readouterr().err
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    with np.errstate(over="ignore", invalid="ignore"):
        net = build_net(huge)
        write_sketch(derandomized_jl(net.points, 0.15), net.points, params, sk)
        assert cli_dispatch(["sketch", "verify", "--sketch", str(sk)]) == 0
    assert "verification passed" in capsys.readouterr().out


def test_unchecked_sketch_bundle_passes_only_as_identity(tmp_path, capsys):
    # the net of six equal points is one row, so no pair can be rechecked;
    # the built bundle's exact identity map passes without one
    pts, sk = tmp_path / "zeros.csv", tmp_path / "sk.json"
    write_points(np.zeros((6, 30)), pts)
    args = ["--in", str(pts), "--out", str(sk), "--k", "2", "--z", "2", "--eps", "0.3"]
    assert cli_dispatch(["sketch", "build"] + args) == 0
    assert "net size 1," in capsys.readouterr().out
    assert cli_dispatch(["sketch", "verify", "--sketch", str(sk)]) == 0
    out = capsys.readouterr().out
    assert "rechecked 0 net pairs" in out and "verification passed" in out
    # any other map with nothing rechecked fails
    lin = LinearMap(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    write_sketch(lin, np.ones((1, 3)), ClusteringParams(k=2, z=2, epsilon=0.3), sk)
    assert cli_dispatch(["sketch", "verify", "--sketch", str(sk)]) == 4
    assert "FAILED" in capsys.readouterr().err


def test_corrupted_coreset_fails_verification(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    core = tmp_path / "core.csv"
    cli_dispatch(["gen", "--blobs", "2", "--n", "60", "--d", "2", "--out", str(pts)])
    cli_dispatch(
        ["coreset", "build", "--in", str(pts), "--out", str(core),
         "--k", "2", "--z", "2", "--eps", "0.3", "--alpha", "2.0"]
    )
    lines = core.read_text().splitlines()
    head = re.sub(r"F=[^ ]+", f"F={float(1e9).hex()}", lines[0])
    core.write_text("\n".join([head] + lines[1:]) + "\n")
    back, _ = read_coreset(core)
    assert back.offset == 1e9
    code = cli_dispatch(["coreset", "verify", "--points", str(pts), "--coreset", str(core)])
    err = capsys.readouterr().err
    assert code == 4
    assert "FAILED" in err


def _overflowing_points(path, n):
    # coordinates near 2^603: every squared distance, so every cost, is inf
    pts = gaussian_blobs(200, 2, blobs=2, seed=1, separation=6)[:n] * 2.0**600
    write_points(pts, path)


def test_coreset_of_overflowing_costs_fails_verification(tmp_path, capsys):
    # coreset build refuses such points, so the coreset is the unscaled
    # points' one, scaled
    pts, core = tmp_path / "p.csv", tmp_path / "core.csv"
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    built = ring_coreset(gaussian_blobs(200, 2, blobs=2, seed=1, separation=6), params)
    scale = 2.0**600
    built = dataclasses.replace(
        built, points=built.points * scale, offset=built.offset * scale * scale
    )
    write_coreset(built, params, core)
    _overflowing_points(pts, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli_dispatch(["coreset", "verify", "--points", str(pts), "--coreset", str(core)])
    out, err = capsys.readouterr()
    assert code == 4
    assert "checked 120 center tuples: max_relative_error=inf" in out
    assert "FAILED" in err


# sha256 of the files the builders write at 2^300, pinned on this numpy
# build and CPU class like the golden digests
_BUILT_AT_2_300 = {
    "coreset": "72cb791cd34bd0ddcaeb30507eb313dafeb6e4f49f6a62f0622381081adf00d7",
    "sketch": "039fef240084329bda6d470e0ea6fd93a8bb8ebfcdc1a1f2eefe508202db67d4",
}


@pytest.mark.parametrize("what", sorted(_BUILT_AT_2_300))
def test_builders_refuse_overflowing_costs(what, tmp_path, capsys):
    # exit 2 before any arithmetic on the points, so numpy warns of nothing;
    # half the exponent builds as it always did
    if what == "coreset":
        base, extra = gaussian_blobs(200, 2, blobs=2, seed=1, separation=6), ["--alpha", "2.0"]
    else:
        base, extra = gaussian_blobs(8, 30, blobs=2, seed=4, separation=6), []
    pts, out = tmp_path / "p.csv", tmp_path / "out"
    cmd = [what, "build", "--in", str(pts), "--out", str(out), "--k", "2", "--z", "2", "--eps", "0.3"]
    for exponent, code in ((600, 2), (300, 0)):
        write_points(base * 2.0**exponent, pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_dispatch(cmd + extra) == code
    assert "overflow" in capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _BUILT_AT_2_300[what]


def test_solve_exact_of_overflowing_costs_exits_2(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    _overflowing_points(pts, 9)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli_dispatch(["solve", "exact", "--in", str(pts), "--k", "2", "--z", "2", "--eps", "0.3"])
    assert code == 2
    assert "overflow" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert cli_dispatch(["gen", "--bogus"]) == 2
    assert cli_dispatch([]) == 2
    assert cli_dispatch(["--help"]) == 0
    assert cli_dispatch(["solve", "exact", "--in", "/nonexistent/x.csv",
                         "--k", "2", "--z", "2", "--eps", "0.3"]) == 2
    # the sketch map is always the seed scan: there is no --strategy
    assert cli_dispatch(["sketch", "build", "--in", "x.csv", "--out", "x.json", "--k", "2",
                         "--z", "2", "--eps", "0.3", "--strategy", "seed-scan"]) == 2
    assert "unrecognized arguments: --strategy" in capsys.readouterr().err


def test_reused_parser_matches_fresh_parsers(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    good = ["gen", "--blobs", "2", "--n", "12", "--d", "2", "--out", str(pts)]
    bad = ["coreset", "build", "--in", str(pts), "--k", "2"]  # missing --z, --eps
    fresh = {}
    for name, argv in (("good", good), ("bad", bad)):
        _build_parser.cache_clear()
        code = cli_dispatch(argv)
        fresh[name] = (code, capsys.readouterr())
    assert fresh["good"][0] == 0 and fresh["bad"][0] == 2
    _build_parser.cache_clear()
    for order in (("bad", "good"), ("good", "bad"), ("good", "good")):
        for name in order:
            code = cli_dispatch(good if name == "good" else bad)
            assert (code, capsys.readouterr()) == fresh[name]
    assert _build_parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser():
    code = "import detclust.cli as c; print(c._build_parser.cache_info().currsize)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "0"


def test_thread_cap_env_does_not_change_outputs(tmp_path, monkeypatch, capsys):
    reports = []
    blobs = {}
    for cap, sub in (("1", "t1"), ("4", "t4")):
        monkeypatch.setenv("DCLUS_THREADS", cap)
        d = tmp_path / sub
        d.mkdir()
        pts, core, cent = d / "p.csv", d / "core.csv", d / "cent.csv"
        assert cli_dispatch(["gen", "--blobs", "2", "--n", "70", "--d", "2",
                             "--seed", "1", "--out", str(pts)]) == 0
        assert cli_dispatch(["coreset", "build", "--in", str(pts), "--out", str(core),
                             "--k", "2", "--z", "2", "--eps", "0.3", "--alpha", "2.0"]) == 0
        assert cli_dispatch(["solve", "ptas", "--in", str(pts), "--k", "2", "--z", "2",
                             "--eps", "0.3", "--out", str(cent)]) == 0
        reports.append(capsys.readouterr().out.replace(str(d), "<dir>"))
        blobs[sub] = (pts.read_bytes(), core.read_bytes(), cent.read_bytes())
    assert blobs["t1"] == blobs["t4"]
    assert reports[0] == reports[1]


def test_bench_compare_emits_tsv(capsys):
    code = cli_dispatch(["bench", "compare", "--k", "2", "--z", "2", "--eps", "0.3",
                         "--n", "60", "--d", "2", "--instances", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance\tmode\tsize\tmax_error\tseconds"
    assert len(lines) == 3  # det + rand rows
    for row in lines[1:]:
        assert len(row.split("\t")) == 5


def test_binary_input_feeds_coreset_build(tmp_path):
    pts = tmp_path / "p.bin"
    core = tmp_path / "core.csv"
    cli_dispatch(["gen", "--blobs", "2", "--n", "50", "--d", "2", "--binary", "--out", str(pts)])
    assert cli_dispatch(
        ["coreset", "build", "--in", str(pts), "--out", str(core),
         "--k", "2", "--z", "2", "--eps", "0.3", "--alpha", "2.0"]
    ) == 0
    back, params = read_coreset(core)
    assert params.k == 2
    assert back.size >= 2


def _verify_sketch_with_net(tmp_path, edit):
    """sketch verify argv for a 6-point d=5 bundle whose net edit() rewrites."""
    pts, sk = tmp_path / "p.csv", tmp_path / "sk.json"
    write_points(np.random.default_rng(5).standard_normal((6, 5)), pts)
    assert cli_dispatch(["sketch", "build", "--in", str(pts), "--out", str(sk),
                         "--k", "2", "--z", "2", "--eps", "0.3"]) == 0
    doc = json.loads(sk.read_text())
    doc["net"] = edit(doc["net"])
    sk.write_text(json.dumps(doc))
    return ["sketch", "verify", "--sketch", str(sk)]


def _verify_coreset_on_grid(tmp_path, d, per_axis, k=2):
    """coreset verify argv for a det coreset of 24 points in d dims, built
    at k = 2, its header then claiming k."""
    pts, core = tmp_path / "p.csv", tmp_path / "core.csv"
    write_points(gaussian_blobs(24, d, blobs=2, seed=3, separation=6), pts)
    assert cli_dispatch(["coreset", "build", "--in", str(pts), "--out", str(core),
                         "--k", "2", "--z", "2", "--eps", "0.3", "--alpha", "2.0"]) == 0
    core.write_text(core.read_text().replace(" k=2 ", f" k={k} ", 1))
    return ["coreset", "verify", "--points", str(pts), "--coreset", str(core),
            "--per-axis", str(per_axis)]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            lambda t: _verify_sketch_with_net(t, lambda net: [r[:3] for r in net]),
            "malformed sketch bundle", id="narrow-net",
        ),
        pytest.param(
            lambda t: _verify_sketch_with_net(t, lambda net: [["nan"] * 5] + net[1:]),
            "malformed sketch bundle", id="nan-net",
        ),
        pytest.param(lambda t: _verify_coreset_on_grid(t, 2, -1), "per_axis", id="per-axis-negative"),
        pytest.param(lambda t: _verify_coreset_on_grid(t, 2, 0), "per_axis", id="per-axis-zero"),
        # 4^30 grid rows: refused before center_grid would build them
        pytest.param(
            lambda t: _verify_coreset_on_grid(t, 30, 4), "center tuples exceed the budget",
            id="d30-grid",
        ),
        # C(4^30, 50000) has about a million digits: too long to print
        pytest.param(
            lambda t: _verify_coreset_on_grid(t, 30, 4, k=50000), "center tuples exceed the budget",
            id="d30-grid-huge-k",
        ),
    ],
)
def test_verify_refuses_bad_inputs_with_exit_2(argv, message, tmp_path, capsys):
    args = argv(tmp_path)
    capsys.readouterr()
    assert cli_dispatch(args) == 2  # an escaping exception would fail here
    out, err = capsys.readouterr()
    assert message in err and "verification" not in out


def _points_file(path, tail=b""):
    """A 20-point d=2 CSV point file, tail appended to its bytes."""
    write_points(gaussian_blobs(20, 2, blobs=2, seed=4), path)
    path.write_bytes(path.read_bytes() + tail)
    return str(path)


def _coreset_verify_argv(t, points_tail=b"", coreset_tail=b""):
    """coreset verify argv for a det coreset of a _points_file, built
    before points_tail and coreset_tail are appended to the two files."""
    pts, core = t / "p.csv", t / "core.csv"
    _points_file(pts)
    assert cli_dispatch(["coreset", "build", "--in", str(pts), "--out", str(core),
                         "--k", "2", "--z", "2", "--eps", "0.3"]) == 0
    pts.write_bytes(pts.read_bytes() + points_tail)
    core.write_bytes(core.read_bytes() + coreset_tail)
    return ["coreset", "verify", "--points", str(pts), "--coreset", str(core)]


def _sketch_file(path, text):
    path.write_text(text)
    return ["sketch", "verify", "--sketch", str(path)]


def _sketch_with_list_certificate(t):
    _verify_sketch_with_net(t, lambda net: net)
    doc = json.loads((t / "sk.json").read_text())
    return _sketch_file(t / "sk.json", json.dumps({**doc, "certificate": [1]}))


_NON_ASCII = b"0.5,\xc3\xa9\n"
_CLUSTERING = ["--k", "2", "--z", "2", "--eps", "0.3"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            lambda t: ["gen", "--blobs", "2", "--n", "10", "--d", "2", "--seed", "-1",
                       "--out", str(t / "q.csv")],
            id="gen-blobs-negative-seed",
        ),
        pytest.param(
            lambda t: ["gen", "--rings", "2", "--n", "10", "--d", "2", "--seed", "-1",
                       "--out", str(t / "q.csv")],
            id="gen-rings-negative-seed",
        ),
        pytest.param(
            lambda t: ["gen", "--far", "--n", "10", "--d", "2", "--seed", "-1",
                       "--out", str(t / "q.csv")],
            id="gen-far-negative-seed",
        ),
        pytest.param(
            lambda t: ["bench", "compare", *_CLUSTERING, "--n", "50", "--instances", "1",
                       "--seed", "-1"],
            id="bench-compare-negative-seed",
        ),
        # no main ring outgrows its sample here, so no sample is ever drawn
        pytest.param(
            lambda t: ["coreset", "build", "--in", _points_file(t / "p.csv"),
                       "--out", str(t / "c.csv"), *_CLUSTERING, "--mode", "rand", "--seed", "-1"],
            id="coreset-build-rand-negative-seed",
        ),
        pytest.param(
            lambda t: ["coreset", "build", "--in", _points_file(t / "p.csv", _NON_ASCII),
                       "--out", str(t / "c.csv"), *_CLUSTERING],
            id="coreset-build-non-ascii-points",
        ),
        pytest.param(
            lambda t: ["solve", "exact", "--in", _points_file(t / "p.csv", _NON_ASCII),
                       *_CLUSTERING],
            id="solve-exact-non-ascii-points",
        ),
        pytest.param(
            lambda t: _coreset_verify_argv(t, points_tail=_NON_ASCII),
            id="coreset-verify-non-ascii-points",
        ),
        pytest.param(
            lambda t: _coreset_verify_argv(t, coreset_tail=_NON_ASCII),
            id="coreset-verify-non-ascii-coreset",
        ),
        pytest.param(lambda t: _sketch_file(t / "s.json", "not json"), id="sketch-not-json"),
        pytest.param(lambda t: _sketch_file(t / "s.json", "[1, 2]"), id="sketch-json-array"),
        # nested past the interpreter's recursion limit
        pytest.param(lambda t: _sketch_file(t / "s.json", "[" * 200_000), id="sketch-deep-json"),
        pytest.param(_sketch_with_list_certificate, id="sketch-certificate-not-an-object"),
    ],
)
def test_bad_seeds_and_unreadable_files_exit_2(argv, tmp_path, capsys):
    args = argv(tmp_path)
    capsys.readouterr()
    assert cli_dispatch(args) == 2  # an escaping exception would fail here
    assert "input error" in capsys.readouterr().err
