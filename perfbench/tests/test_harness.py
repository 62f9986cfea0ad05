"""Self-checks of the benchmark harness on small instances.

    python3 -m pytest perfbench/tests -q

They check that the wrappers see calls made inside the package, that
tracing changes no output byte, that per-layer counts repeat exactly, and
that BENCHMARK.json lists what run.py reports.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import detclust.cli as cli  # noqa: E402

SMALL = {
    "coreset-2d": lambda seed: workloads.Coreset2D(seed, big=240, small=120),
    "solve-small": lambda seed: workloads.SolveSmall(seed, n=8),
    "highdim": lambda seed: workloads.HighDim(seed, n=40, sketch_n=6, error_tuples=32),
}


def _passes(name, tmp_path, monkeypatch, *, traced_runs=1, seed=3):
    """One untraced pass, then `traced_runs` traced passes, each under a
    fresh tracer; returns (untraced pass, [traced passes])."""
    monkeypatch.chdir(tmp_path)
    wl = SMALL[name](seed)
    wl.setup()
    ops = wl.ops()
    reference = {}
    (untraced,) = run.measure(ops, cli, 0.0, reference)
    traced = []
    for _ in range(traced_runs):
        with Tracer() as tr:
            (p,) = run.measure(ops, cli, 0.0, reference, tracer=tr)
        traced.append(p)
    return untraced, traced


def _errors(p):
    return [f"{r['label']}: {r['error']}" for r in p["ops"] if r["error"]]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_passes_agree(name, tmp_path, monkeypatch):
    untraced, (traced,) = _passes(name, tmp_path, monkeypatch)
    assert _errors(untraced) == []
    # run_pass marks a digest that differs from the untraced pass as an error
    assert _errors(traced) == []
    assert [r["digest"] for r in traced["ops"]] == [r["digest"] for r in untraced["ops"]]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_per_layer_counts_repeat(name, tmp_path, monkeypatch):
    _, (a, b) = _passes(name, tmp_path, monkeypatch, traced_runs=2)
    assert a["counts"] and a["counts"] == b["counts"]


def test_wrappers_see_internal_calls(tmp_path, monkeypatch):
    (tmp_path / "c").mkdir()
    _, (p,) = _passes("coreset-2d", tmp_path / "c", monkeypatch)
    c = p["counts"]
    # ring_coreset -> greedy_seeding -> bicriteria -> candidate_centers goes
    # through `from .bicriteria import ...`; it builds the family twice today
    assert c["rings.ring_coreset"]["calls"] == 4
    assert c["bicriteria.candidate_centers"]["calls"] == 2 * c["rings.ring_coreset"]["calls"]
    assert c["cli.cli_dispatch"]["calls"] == 7

    (tmp_path / "h").mkdir()
    _, (p,) = _passes("highdim", tmp_path / "h", monkeypatch)
    c = p["counts"]
    sketch_builds = 2
    assert c["dimreduce.cost_preserving_sketch"]["calls"] == sketch_builds
    # once inside cost_preserving_sketch and once more in the CLI command
    assert c["dimreduce.build_net"]["calls"] == 2 * sketch_builds


def test_tracer_restores_every_name():
    import detclust.rings as rings

    before = rings.candidate_centers
    with Tracer():
        assert rings.candidate_centers is not before
        assert rings.candidate_centers.__wrapped__ is before
    assert rings.candidate_centers is before


def test_every_per_layer_name_is_produced(tmp_path, monkeypatch):
    """A misspelt name in PER_LAYER would silently read 0 on every run."""
    produced = set()
    for name in SMALL:
        (tmp_path / name).mkdir()
        _, (p,) = _passes(name, tmp_path / name, monkeypatch)
        layers = run.per_layer([p], run.pass_seconds(p))
        produced |= set(layers)
    assert [n for n, _ in run.PER_LAYER if n not in produced] == []


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
