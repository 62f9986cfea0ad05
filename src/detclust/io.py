"""Point, coreset, and sketch file formats.

Two point formats share one header model:

* CSV: a comment header ``# dim=<d> weighted=<0|1> ext=<0|1>`` followed by
  comma-separated rows (base coordinates, then the extension column when
  ext=1, then the weight column when weighted=1). Coordinates are written
  with shortest round-trip decimals, so write -> read is bit-identical.
* binary: magic ``DCLUS1``, little-endian header (dim u32, count u64,
  weighted u8, ext u8), then row-major little-endian float64 payload.

Coreset files are CSV with exact integer-ratio weights and a hex-float
offset scalar, so verification replays bit-exactly. Sketch bundles are
JSON with every float hex-encoded.
"""

import itertools
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import (
    ClusteringParams,
    ExtendedPointSet,
    WeightedPointSet,
    _split_extended,
)
from .linmap import LinearMap
from .rings import OffsetCoreset

MAGIC = b"DCLUS1"
_BIN_HEADER = struct.Struct("<IQBB")


def _header_fields(line, what, keys):
    """The fields of a '# key=value ...' first line that defines each of
    keys once and nothing else; what names the header in messages."""
    parts = line.split()
    if not parts or parts[0] != "#":
        raise InputError(f"line 1: malformed {what}, expected '# {'=... '.join(keys)}=...'")
    fields = {}
    for tok in parts[1:]:
        key, _, val = tok.partition("=")
        if not val or key in fields:
            raise InputError(f"line 1: malformed header field {tok!r}")
        fields[key] = val
    if set(fields) != set(keys):
        raise InputError(f"line 1: {what} must define exactly {', '.join(keys)}")
    return fields


@dataclass(frozen=True)
class PointFileHeader:
    """Shared header for both point formats. count is -1 when the format
    leaves it implicit (CSV infers it from the rows)."""

    dim: int
    count: int
    weighted: bool
    ext: bool

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("header dim must be positive")

    def to_line(self):
        return f"# dim={self.dim} weighted={int(self.weighted)} ext={int(self.ext)}"

    @classmethod
    def from_line(cls, line):
        fields = _header_fields(line, "header", ("dim", "weighted", "ext"))
        try:
            dim, weighted, ext = (int(fields[key]) for key in ("dim", "weighted", "ext"))
        except ValueError:
            raise InputError("line 1: header fields must be integers") from None
        if weighted not in (0, 1) or ext not in (0, 1):
            raise InputError("line 1: weighted and ext flags must be 0 or 1")
        return cls(dim=dim, count=-1, weighted=bool(weighted), ext=bool(ext))

    def to_bytes(self):
        if self.count < 0:
            raise InputError("binary header needs an explicit count")
        return MAGIC + _BIN_HEADER.pack(self.dim, self.count, int(self.weighted), int(self.ext))

    @classmethod
    def from_bytes(cls, buf):
        head = len(MAGIC) + _BIN_HEADER.size
        if len(buf) < head or buf[: len(MAGIC)] != MAGIC:
            raise InputError("malformed binary header (bad magic)")
        dim, count, weighted, ext = _BIN_HEADER.unpack(buf[len(MAGIC) : head])
        if weighted not in (0, 1) or ext not in (0, 1):
            raise InputError("malformed binary header (bad flags)")
        return cls(dim=dim, count=count, weighted=bool(weighted), ext=bool(ext)), head

    @property
    def row_width(self):
        return self.dim + int(self.ext) + int(self.weighted)


def _split_columns(header, rows):
    d = header.dim
    base = rows[:, :d]
    col = d
    extensions = None
    weights = None
    if header.ext:
        extensions = rows[:, col]
        col += 1
    if header.weighted:
        weights = rows[:, col]
    if header.ext:
        return ExtendedPointSet(base, extensions=extensions, weights=weights)
    if header.weighted:
        return WeightedPointSet(base, weights)
    return WeightedPointSet(base)


def _finite_rows(vals, lines, width, fault, what, empty):
    """The parsed rows as one (len(lines), width) float array, raising the
    file's first fault: the first row holding a non-finite value, else
    fault, the message of the line that stopped parsing (None if none did),
    else empty if no row was parsed. vals holds the rows' values flat,
    lines their line numbers; every row comes before the faulty line."""
    if not lines:
        raise InputError(fault or empty)
    rows = np.array(vals, dtype=np.float64).reshape(len(lines), width)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise InputError(f"line {lines[bad[0]]}: non-finite {what}")
    if fault is not None:
        raise InputError(fault)
    return rows


def _read_csv_points(path):
    vals, lines, fault = [], [], None
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        if not first:
            raise InputError("line 1: empty file")
        header = PointFileHeader.from_line(first.strip())
        width = header.row_width
        for ln, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            toks = line.split(",")
            if len(toks) != width:
                fault = f"line {ln}: expected {width} values, got {len(toks)}"
                break
            try:
                vals += [float(t) for t in toks]
            except ValueError:
                fault = f"line {ln}: unparseable number"
                break
            lines.append(ln)
    rows = _finite_rows(vals, lines, width, fault, "value", "file contains no points")
    return _split_columns(header, rows)


def _read_binary_points(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    header, off = PointFileHeader.from_bytes(buf)
    expect = header.count * header.row_width * 8
    if len(buf) - off != expect:
        raise InputError(
            f"binary payload is {len(buf) - off} bytes, header implies {expect}"
        )
    flat = np.frombuffer(buf, dtype="<f8", offset=off).astype(np.float64)
    rows = flat.reshape(header.count, header.row_width)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise InputError(f"row {int(bad[0])}: non-finite value")
    if header.count == 0:
        raise InputError("file contains no points")
    return _split_columns(header, rows)


def read_points(path):
    """Parse a CSV or binary point file into a point set.

    Returns an ExtendedPointSet when the header sets ext=1, otherwise a
    WeightedPointSet (unit weights unless weighted=1).
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        return _read_binary_points(path)
    try:
        return _read_csv_points(path)
    except UnicodeDecodeError:
        raise InputError("point file is neither binary nor ASCII text") from None


def write_points(data, path, *, binary=False):
    """Write a point set (array, (points, weights), WeightedPointSet, or
    ExtendedPointSet). All-unit weights are stored as weighted=0."""
    pts, extensions, weights = _split_extended(data)
    weighted = not (weights == 1.0).all()
    cols = [pts]
    if extensions is not None:
        cols.append(extensions[:, None])
    if weighted:
        cols.append(weights[:, None])
    rows = np.hstack(cols)
    header = PointFileHeader(
        dim=pts.shape[1],
        count=pts.shape[0],
        weighted=bool(weighted),
        ext=extensions is not None,
    )
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.to_bytes())
            fh.write(rows.astype("<f8").tobytes(order="C"))
        return
    _write_lines(path, [header.to_line()] + [",".join(map(repr, r)) for r in rows.tolist()])


def write_coreset(core, params, path):
    """Coreset CSV: hex-float offset in the header, exact a/b weights per
    row, shortest round-trip coordinates."""
    header = (
        f"# dim={core.points.shape[1]} F={float(core.offset).hex()}"
        f" k={params.k} z={params.z} eps={repr(float(params.epsilon))}"
    )
    coords = np.asarray(core.points, dtype=np.float64).tolist()
    nums, dens = core.weight_num.tolist(), core.weight_den.tolist()
    _write_lines(path, [header] + [
        f"{','.join(map(repr, row))},{int(a)}/{int(b)}" for row, a, b in zip(coords, nums, dens)
    ])


def _write_lines(path, lines):
    """One write of the lines, each ended by a newline."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coreset(path):
    """Inverse of write_coreset. Returns (OffsetCoreset, ClusteringParams);
    the file stores no alpha, so the params carry the default. A weight is
    a/b or a bare a, read as a/1."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise InputError("coreset file is not ASCII text") from None
    if not lines:
        raise InputError("line 1: empty file")
    fields = _header_fields(lines[0], "coreset header", ("dim", "F", "k", "z", "eps"))
    try:
        dim = int(fields["dim"])
        offset = float.fromhex(fields["F"])
        params = ClusteringParams(
            k=int(fields["k"]), z=int(fields["z"]), epsilon=float(fields["eps"])
        )
    except (ValueError, OverflowError):  # float.fromhex past the float range
        raise InputError("line 1: malformed coreset header value") from None
    vals, nums, dens, rows, fault = [], [], [], [], None
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        toks = line.split(",")
        if len(toks) != dim + 1:
            fault = f"line {ln}: expected {dim + 1} values, got {len(toks)}"
            break
        try:
            coords = [float(t) for t in toks[:-1]]
            num, slash, den = toks[-1].partition("/")
            w = (int(num), int(den) if slash else 1)
        except ValueError:
            fault = f"line {ln}: unparseable value"
            break
        vals += coords
        nums.append(w[0])
        dens.append(w[1])
        rows.append(ln)
    points = _finite_rows(vals, rows, dim, fault, "coordinate", "coreset file contains no rows")
    core = OffsetCoreset(
        points=points,
        weight_num=np.array(nums, dtype=np.int64),
        weight_den=np.array(dens, dtype=np.int64),
        offset=offset,
    )
    return core, params


def _hex_tree(value):
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    raise InputError(f"cannot serialize certificate value {value!r}")


def _unhex_tree(value):
    if isinstance(value, str) and value.startswith(("0x", "-0x")):
        return float.fromhex(value)
    return value


def write_sketch(lin, net_points, params, path):
    """Sketch bundle JSON: the map matrix, its distortion certificate, and
    the witness-net rows it was certified on, all floats hex-encoded.

    The bytes of json.dump(doc, sort_keys=True, indent=1) plus a newline:
    json.dumps writes the small fields around two placeholders, and the
    matrix and net lists are joined as text in its layout."""
    net = np.asarray(net_points, dtype=np.float64)
    doc = {
        "format": "dclus-sketch-1",
        "k": params.k,
        "z": params.z,
        "eps": float(params.epsilon).hex(),
        "map_eps": None if lin.eps is None else float(lin.eps).hex(),
        "rows": int(lin.m),
        "cols": int(lin.d),
        "matrix": 0,
        "certificate": None
        if lin.certificate is None
        else {k: _hex_tree(v) for k, v in lin.certificate.items()},
        "net": 0,
    }
    # the placeholders are top-level lines, the only ones that open with a
    # newline and one space (strings in JSON hold no raw newline)
    head, tail = json.dumps(doc, sort_keys=True, indent=1).split(
        '\n "matrix": 0,\n "net": 0,\n'
    )
    matrix = _json_hex_list(lin.matrix.ravel(order="C").tolist(), 1)
    rows = [_json_hex_list(row, 2) for row in net.tolist()]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f'{head}\n "matrix": {matrix},\n "net": {_json_list(rows, 1)},\n{tail}\n')


def _json_hex_list(values, depth):
    """json.dumps(indent=1) of the hex strings of values at nesting depth."""
    if not values:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    items = ('",' + pad + '"').join(map(float.hex, values))
    return f'[{pad}"{items}"\n{" " * depth}]'


def _json_list(items, depth):
    """json.dumps(indent=1) layout of a list of encoded items at depth."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * depth}]"


def read_sketch(path):
    """Inverse of write_sketch: (LinearMap, net array, ClusteringParams),
    the params at the default alpha, which the bundle does not store."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError):  # ValueError: JSON and decode errors
        raise InputError("sketch bundle is not ASCII JSON") from None
    if not isinstance(doc, dict) or doc.get("format") != "dclus-sketch-1":
        raise InputError("not a sketch bundle")
    try:
        m, d = int(doc["rows"]), int(doc["cols"])
        if min(m, d) < 1:  # reshape would infer a -1 size
            raise ValueError("rows and cols must be at least 1")
        matrix = np.fromiter(map(float.fromhex, doc["matrix"]), dtype=np.float64).reshape(m, d)
        eps = float.fromhex(doc["eps"])
        params = ClusteringParams(k=int(doc["k"]), z=int(doc["z"]), epsilon=eps)
        map_eps = doc["map_eps"]
        if map_eps is not None:
            map_eps = float.fromhex(map_eps)
        cert = doc["certificate"]
        if isinstance(cert, dict):
            cert = {k: _unhex_tree(v) for k, v in cert.items()}
        elif cert is not None:
            raise ValueError("certificate is not an object")
        rows = doc["net"]
        if set(map(len, rows)) - {d}:
            raise ValueError("net rows are not cols wide")
        net = np.fromiter(map(float.fromhex, itertools.chain.from_iterable(rows)), dtype=np.float64)
        if not np.isfinite(net).all():  # float.fromhex reads "nan" and "inf"
            raise ValueError("net holds NaN or Inf")
        if rows:  # an empty net stays shape (0,)
            net = net.reshape(len(rows), d)
    except (KeyError, ValueError, TypeError, OverflowError):
        raise InputError("malformed sketch bundle") from None
    lin = LinearMap(matrix, eps=map_eps, certificate=cert)
    return lin, net, params
