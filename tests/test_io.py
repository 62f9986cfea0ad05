"""File formats: point CSV/binary, coreset CSV, sketch bundles."""

import json
from fractions import Fraction

import numpy as np
import pytest

from detclust.dimreduce import cost_preserving_sketch
from detclust.errors import InputError
from detclust.geometry import (
    DEFAULT_ALPHA,
    ClusteringParams,
    ExtendedPointSet,
    WeightedPointSet,
    center_grid,
)
from detclust.io import (
    PointFileHeader,
    read_coreset,
    read_points,
    read_sketch,
    write_coreset,
    write_points,
    write_sketch,
)
from detclust.linmap import LinearMap, pair_distortions
from detclust.rings import OffsetCoreset, ring_coreset, verify_offset_coreset

from oracles import json_dump_sketch, json_load_sketch, per_row_coreset_csv, per_row_points_csv


def test_header_line_round_trip():
    h = PointFileHeader(dim=5, count=-1, weighted=True, ext=False)
    assert PointFileHeader.from_line(h.to_line()) == h
    parsed = PointFileHeader.from_line("# dim=2 weighted=0 ext=0")
    assert parsed.dim == 2 and not parsed.weighted and not parsed.ext
    assert parsed.row_width == 2


def test_header_bytes_round_trip():
    h = PointFileHeader(dim=3, count=17, weighted=False, ext=True)
    back, off = PointFileHeader.from_bytes(h.to_bytes())
    assert back == h
    assert off == len(h.to_bytes())
    with pytest.raises(InputError):
        PointFileHeader.from_bytes(b"NOTDCL" + b"\x00" * 14)


def test_header_line_rejects_garbage():
    for bad in (
        "dim=2 weighted=0 ext=0",
        "# dim=2 weighted=0",
        "# dim=2 weighted=0 ext=0 extra=1",
        "# dim=x weighted=0 ext=0",
        "# dim=2 weighted=2 ext=0",
    ):
        with pytest.raises(InputError):
            PointFileHeader.from_line(bad)


def test_minimal_csv_reads_one_unit_point(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("# dim=2 weighted=0 ext=0\n1.0,2.0\n")
    ps = read_points(f)
    assert isinstance(ps, WeightedPointSet)
    assert np.array_equal(ps.points, [[1.0, 2.0]])
    assert np.array_equal(ps.weights, [1.0])


def test_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((25, 3)) * 1e3
    f = tmp_path / "p.csv"
    write_points(pts, f)
    back = read_points(f)
    assert back.points.tobytes() == pts.tobytes()
    assert (back.weights == 1.0).all()


def test_weighted_and_extended_round_trips(tmp_path):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((12, 2))
    w = rng.uniform(0.5, 4.0, 12)
    e = rng.uniform(0.0, 2.0, 12)
    fw = tmp_path / "w.csv"
    write_points(WeightedPointSet(pts, w), fw)
    bw = read_points(fw)
    assert isinstance(bw, WeightedPointSet)
    assert bw.points.tobytes() == pts.tobytes()
    assert bw.weights.tobytes() == w.tobytes()
    fe = tmp_path / "e.csv"
    write_points(ExtendedPointSet(pts, extensions=e, weights=w), fe)
    be = read_points(fe)
    assert isinstance(be, ExtendedPointSet)
    assert be.points.tobytes() == pts.tobytes()
    assert be.extensions.tobytes() == e.tobytes()
    assert be.weights.tobytes() == w.tobytes()


def test_binary_round_trip_and_cross_format(tmp_path):
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((30, 4))
    w = rng.uniform(1.0, 3.0, 30)
    fb = tmp_path / "p.bin"
    fc = tmp_path / "p.csv"
    write_points((pts, w), fb, binary=True)
    write_points((pts, w), fc)
    b = read_points(fb)
    c = read_points(fc)
    assert b.points.tobytes() == c.points.tobytes() == pts.tobytes()
    assert b.weights.tobytes() == c.weights.tobytes() == w.tobytes()


def test_unit_weights_stored_unweighted(tmp_path):
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    f = tmp_path / "u.csv"
    write_points(WeightedPointSet(pts, np.ones(2)), f)
    assert "weighted=0" in f.read_text().splitlines()[0]


def test_csv_errors_name_the_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("# dim=2 weighted=0 ext=0\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(InputError, match="line 3"):
        read_points(f)
    f.write_text("# dim=2 weighted=0 ext=0\n1.0,2.0,9.0\n")
    with pytest.raises(InputError, match="line 2"):
        read_points(f)
    f.write_text("# dim=2 weighted=0 ext=0\n1.0,zork\n")
    with pytest.raises(InputError, match="line 2"):
        read_points(f)
    f.write_text("# dim=2 weighted=0 ext=0\ninf,2.0\n")
    with pytest.raises(InputError, match="line 2"):
        read_points(f)
    f.write_text("")
    with pytest.raises(InputError, match="line 1"):
        read_points(f)
    f.write_text("# dim=2 weighted=0 ext=0\n")
    with pytest.raises(InputError, match="no points"):
        read_points(f)


def test_csv_reports_the_first_of_two_faulty_lines(tmp_path):
    f = tmp_path / "bad.csv"
    head = "# dim=2 weighted=0 ext=0\n"
    cases = [
        ("1.0,2.0\n3.0,nan\n\n4.0\n", "line 3: non-finite"),
        ("1.0,2.0\n3.0,zork\n5.0,inf\n", "line 3: unparseable"),
        ("inf,2.0\n1.0,2.0,3.0\n", "line 2: non-finite"),
        ("1.0\n-inf,2.0\n", "line 2: expected 2"),
        ("1.0,2.0\n3.0,4.0\n5.0,nan\n1.0,2.0\n7.0,x\n", "line 4: non-finite"),
    ]
    for body, msg in cases:
        f.write_text(head + body)
        with pytest.raises(InputError, match=msg):
            read_points(f)
    c = tmp_path / "c.csv"
    head = "# dim=2 F=0x0.0p+0 k=2 z=2 eps=0.3\n"
    cases = [
        ("1.0,2.0,1/1\n1.0,nan,1/1\n1.0,2.0\n", "line 3: non-finite"),
        ("1.0,2.0,1/x\n1.0,nan,1/1\n", "line 2: unparseable"),
        ("1.0,2.0\ninf,2.0,1/1\n", "line 2: expected 3"),
    ]
    for body, msg in cases:
        c.write_text(head + body)
        with pytest.raises(InputError, match=msg):
            read_coreset(c)


def test_written_files_equal_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(31)
    special = [-0.0, 0.0, 1e-300, -1e300, 1e300, 5e-324, 2.2250738585072e-308, 0.1, 1 / 3]
    pts = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-8, 9, size=(40, 1))
    pts.ravel()[: len(special)] = special
    ext = np.abs(rng.standard_normal(40))
    ext[:3] = [0.0, 5e-324, 1e300]
    weights = rng.uniform(0.5, 2.0, 40)
    f = tmp_path / "p.csv"
    for data, cols in [
        (pts, [pts]),
        (WeightedPointSet(pts, weights), [pts, weights[:, None]]),
        (ExtendedPointSet(pts, ext, weights), [pts, ext[:, None], weights[:, None]]),
    ]:
        write_points(data, f)
        text = f.read_text()
        assert text == per_row_points_csv(text.splitlines()[0], np.hstack(cols))
        back = read_points(f)
        assert back.points.tobytes() == pts.tobytes()
    params = ClusteringParams(k=2, z=1, epsilon=0.25)
    nums = rng.integers(1, 1 << 40, size=40)
    dens = rng.integers(1, 1 << 20, size=40)
    core = OffsetCoreset(points=pts, weight_num=nums, weight_den=dens, offset=1e-300)
    write_coreset(core, params, f)
    text = f.read_text()
    assert text == per_row_coreset_csv(text.splitlines()[0], pts, nums, dens)
    back, _ = read_coreset(f)
    assert back.points.tobytes() == pts.tobytes()
    assert back.total_weight == core.total_weight


def test_binary_payload_length_checked(tmp_path):
    f = tmp_path / "t.bin"
    h = PointFileHeader(dim=2, count=3, weighted=False, ext=False)
    f.write_bytes(h.to_bytes() + b"\x00" * 40)  # 3*2*8 = 48 expected
    with pytest.raises(InputError, match="header implies"):
        read_points(f)


def blob_instance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 2)) * 0.8
    b = rng.standard_normal((40, 2)) * 0.8 + [6.0, 0.0]
    return np.vstack([a, b])


def test_coreset_round_trip_preserves_verification(tmp_path):
    pts = blob_instance()
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    core = ring_coreset(pts, params)
    f = tmp_path / "core.csv"
    write_coreset(core, params, f)
    back, bparams = read_coreset(f)
    # the file stores no alpha: it steers the build, not the guarantee
    assert (bparams.k, bparams.z, bparams.epsilon) == (params.k, params.z, params.epsilon)
    assert bparams.alpha == DEFAULT_ALPHA
    assert back.points.tobytes() == core.points.tobytes()
    assert np.array_equal(back.weight_num, core.weight_num)
    assert np.array_equal(back.weight_den, core.weight_den)
    assert back.offset == core.offset
    assert back.total_weight == Fraction(pts.shape[0])
    grid = center_grid(pts, per_axis=3)
    a = verify_offset_coreset(pts, core, params, grid)
    b = verify_offset_coreset(pts, back, params, grid)
    assert a.max_relative_error == b.max_relative_error  # bit-exact replay
    assert a.checked == b.checked


def test_coreset_header_hex_offset(tmp_path):
    pts = blob_instance()
    params = ClusteringParams(k=2, z=2, epsilon=0.3, alpha=2.0)
    core = ring_coreset(pts, params)
    assert core.offset == 0.0
    f = tmp_path / "core.csv"
    write_coreset(core, params, f)
    head = f.read_text().splitlines()[0]
    ftok = [t for t in head.split() if t.startswith("F=")][0]
    assert float.fromhex(ftok[2:]) == 0.0


def test_coreset_file_errors(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("# dim=2 F=0x0.0p+0 k=2 z=2 eps=0.3\n1.0,2.0\n")
    with pytest.raises(InputError, match="line 2"):
        read_coreset(f)  # missing weight column
    f.write_text("# dim=2 k=2 z=2 eps=0.3\n")
    with pytest.raises(InputError, match="header"):
        read_coreset(f)
    f.write_text("# dim=2 F=0x0.0p+0 k=2 z=2 eps=0.3\n")
    with pytest.raises(InputError, match="no rows"):
        read_coreset(f)
    f.write_text("# dim=2 F=0x1p+1024 k=2 z=2 eps=0.3\n1.0,2.0,1\n")  # past float range
    with pytest.raises(InputError, match="malformed coreset header value"):
        read_coreset(f)
    for weight in ("5/", "/5", "/"):  # a/b or a bare a, nothing in between
        f.write_text(f"# dim=2 F=0x0.0p+0 k=2 z=2 eps=0.3\n1.0,2.0,1\n1.0,2.0,{weight}\n")
        with pytest.raises(InputError, match="line 3: unparseable value"):
            read_coreset(f)


def test_sketch_bundle_round_trip(tmp_path):
    # ten distinct locations duplicated in d=30 so the net stays in budget
    rng = np.random.default_rng(13)
    locs = rng.standard_normal((10, 30)) * 3.0
    pts = np.repeat(locs, 3, axis=0)
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    sk = cost_preserving_sketch(pts, params)
    net = sk.coreset.representatives
    f = tmp_path / "sk.json"
    write_sketch(sk.map, net, params, f)
    lin, bnet, bparams = read_sketch(f)
    assert (bparams.k, bparams.z, bparams.epsilon) == (params.k, params.z, params.epsilon)
    assert lin.matrix.tobytes() == sk.map.matrix.tobytes()
    assert bnet.tobytes() == np.asarray(net, dtype=np.float64).tobytes()
    assert lin.certificate == sk.map.certificate
    assert lin.eps == sk.map.eps
    a = pair_distortions(sk.map, net)
    b = pair_distortions(lin, bnet)
    assert a == b
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    with pytest.raises(InputError, match="sketch"):
        read_sketch(bad)


def test_sketch_bundle_bytes_equal_json_dump(tmp_path):
    rng = np.random.default_rng(17)
    special = [-0.0, 0.0, 5e-324, 1e-300, -1e300, 1.0, -2.5]
    params = ClusteringParams(k=3, z=2, epsilon=0.25)
    for trial in range(60):
        m, d = (int(v) for v in rng.integers(1, 6, 2))
        rows = (0, 1, 1, 2, 7)[trial % 5]
        matrix = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-5, 5)
        net = rng.standard_normal((rows, d))
        matrix.ravel()[: len(special)] = special[: matrix.size]
        net.ravel()[: len(special)] = special[: net.size]
        cert = None if trial % 3 == 0 else {
            "checked_pairs": int(rng.integers(0, 10**6)),
            "max_distortion": float(rng.uniform(1.0, 1.2)),
            "epsilon_target": 0.15,
            "strategy": "seed-scan",
            "seed": np.int64(trial),
        }
        lin = LinearMap(matrix, eps=None if trial % 2 else 0.15, certificate=cert)
        write_sketch(lin, net, params, tmp_path / "got.json")
        json_dump_sketch(lin, net, params, tmp_path / "want.json")
        got = (tmp_path / "got.json").read_bytes()
        assert got == (tmp_path / "want.json").read_bytes()
        if rows:
            back, bnet, _ = read_sketch(tmp_path / "got.json")
            assert back.matrix.tobytes() == matrix.tobytes()
            assert bnet.tobytes() == net.tobytes()


def test_read_sketch_matches_json_load(tmp_path):
    rng = np.random.default_rng(29)
    params = ClusteringParams(k=2, z=2, epsilon=0.3)
    f = tmp_path / "sk.json"
    for rows, d in ((0, 3), (1, 1), (2, 5), (7, 30), (300, 30)):
        lin = LinearMap(rng.standard_normal((min(d, 4), d)), eps=0.15)
        net = rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-300, 300, (rows, 1))
        write_sketch(lin, net, params, f)
        back, bnet, _ = read_sketch(f)
        matrix, want = json_load_sketch(f)
        assert back.matrix.tobytes() == matrix.tobytes() and back.matrix.shape == matrix.shape
        assert bnet.dtype == want.dtype == np.float64
        assert bnet.shape == want.shape and bnet.tobytes() == want.tobytes()
    write_sketch(LinearMap(np.eye(2)), np.zeros((0, 2)), params, f)  # cols = 2
    doc = json.loads(f.read_text())
    for net in ([], [["0x1p+0", "-0x0.0p+0"], ["0x1.8p-1074", "0x1p+1"]]):
        doc["net"] = net
        f.write_text(json.dumps(doc))
        want = json_load_sketch(f)[1]
        bnet = read_sketch(f)[1]
        assert bnet.shape == want.shape and bnet.tobytes() == want.tobytes()
    ragged = [["0x1p+0"], ["0x1p+0", "0x1p+0", "0x1p+0"]]  # 4 entries fill 2 rows of 2
    narrow = [["0x1p+0"], ["0x1p+1"]]  # 2 rows of 1, not cols = 2 wide
    nonfinite = [[["0x1p+0", v]] for v in ("nan", "inf", "-inf", "0x1p+1024")]
    for net in (ragged, ragged[::-1], narrow, [[], []], [["0x1p+0", "zz"]], [[1.5]],
                [[["0x1p+0"]]], 7, *nonfinite):
        doc["net"] = net
        f.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="malformed sketch bundle"):
            read_sketch(f)


def test_read_sketch_rejects_sizes_below_one(tmp_path):
    # numpy's reshape would infer a -1 size and read a 3 x 3 map back
    f = tmp_path / "sk.json"
    write_sketch(LinearMap(np.eye(3)), np.zeros((0, 3)), ClusteringParams(k=2, z=2, epsilon=0.3), f)
    doc = json.loads(f.read_text())
    for key, value in (("rows", -1), ("cols", -1), ("rows", 0), ("cols", 0), ("rows", -3)):
        f.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(InputError, match="malformed sketch bundle"):
            read_sketch(f)
