"""Round-trip tour of the three on-disk formats.

Point files come in a text flavor (CSV with a typed comment header) and
a binary flavor (magic DCLUS1 + little-endian header + float64 rows).
Coreset files pin the offset and weights exactly: the offset is a hex
float and each weight is an integer ratio. Sketch bundles are JSON with
every float hex-encoded, so a reread replays verification bit for bit.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from detclust import (
    ClusteringParams,
    cost_preserving_sketch,
    gaussian_blobs,
    read_coreset,
    read_points,
    read_sketch,
    ring_coreset,
    write_coreset,
    write_points,
    write_sketch,
)
from detclust.dimreduce import build_net

tmp = Path(tempfile.mkdtemp())
pts = gaussian_blobs(24, 2, blobs=2, seed=1, separation=6.0)

# --- point files -----------------------------------------------------
csv_path, bin_path = tmp / "pts.csv", tmp / "pts.bin"
write_points(pts, csv_path)
write_points(pts, bin_path, binary=True)

print("CSV header:", csv_path.read_text().splitlines()[0])
print("binary magic + header:", bin_path.read_bytes()[:20].hex())

again = read_points(csv_path)
assert again.points.tobytes() == pts.tobytes()
assert read_points(bin_path).points.tobytes() == pts.tobytes()
print("both point flavors round-trip bit-exactly")

# --- coreset files ---------------------------------------------------
params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
core = ring_coreset(pts, params)
core_path = tmp / "core.csv"
write_coreset(core, params, core_path)
print("\ncoreset header:", core_path.read_text().splitlines()[0])

core2, params2 = read_coreset(core_path)
# alpha steers the build, not the guarantee, so the file does not keep it
assert (params2.k, params2.z, params2.epsilon) == (params.k, params.z, params.epsilon)
assert core2.offset == core.offset
assert core2.total_weight == core.total_weight
print(f"coreset round-trip: {core2.size} points, offset and weights exact")

# --- sketch bundles --------------------------------------------------
rng = np.random.default_rng(2)
anchors = rng.standard_normal((2, 30)) * 8.0
dup = anchors[rng.integers(0, 2, 8)].copy()
sk = cost_preserving_sketch(dup, params)
net = build_net(sk.coreset.representatives)
sk_path = tmp / "sketch.json"
write_sketch(sk.map, net.points, params, sk_path)

bundle = json.loads(sk_path.read_text())
print(f"\nsketch bundle format={bundle['format']!r}, "
      f"{bundle['rows']}x{bundle['cols']} map, {len(bundle['net'])} net rows")
print("eps stored as:", bundle["eps"])

lin2, net2, params3 = read_sketch(sk_path)
assert lin2.matrix.tobytes() == sk.map.matrix.tobytes()
assert net2.tobytes() == net.points.tobytes()
assert lin2.certificate == sk.map.certificate
print("sketch round-trip: map, net, certificate all bit-exact")
