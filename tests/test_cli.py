"""CLI dispatch: exit codes, reports, byte-reproducible outputs."""

import re

import numpy as np
import pytest

from detclust.cli import _parse_thread_cap, cli_dispatch
from detclust.errors import InputError
from detclust.geometry import ClusteringParams
from detclust.io import read_coreset, read_points, write_points, write_sketch
from detclust.linmap import LinearMap
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


def test_usage_errors_exit_2(capsys):
    assert cli_dispatch(["gen", "--bogus"]) == 2
    assert cli_dispatch([]) == 2
    assert cli_dispatch(["--help"]) == 0
    assert cli_dispatch(["solve", "exact", "--in", "/nonexistent/x.csv",
                         "--k", "2", "--z", "2", "--eps", "0.3"]) == 2
    capsys.readouterr()


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
