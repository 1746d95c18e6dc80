"""Matrix exchange files: a small binary dump format plus CSV for dense data.

Binary layout (all integers little-endian):

    magic   4 bytes  b"QMXF"
    version u32      1
    kind    u8       0 = dense binary32 matrix, 1 = quantized matrix
    rows    u32
    cols    u32
    payload          kind 0: rows*cols float32, row-major
                     kind 1: orientation u8, outer granularity u8,
                             element format u8, scale format u8 (always 0,
                             E4M3), group u8 (always 16), then three
                             length-prefixed arrays (u64 count): packed
                             codes (bytes), inner scales (float32), outer
                             scales (float32), and clamp count u64

CSV files hold dense matrices only, one row per line, values formatted with
nine significant digits so binary32 values round-trip exactly.

Malformed files raise :class:`FileFormatError` carrying the byte offset of
the offending field (for truncation, the offset where the file ended). That
covers a quantized payload with a scale format byte (byte 20) other than 0 or
a group byte (byte 21) other than 16, whose array counts do not fit its
layout, whose code bytes overflow a 6-bit element format, whose inner scale
is no positive E4M3 value or whose outer scale is NaN or negative, and a
non-finite dense entry, none of which the quantizer and writers produce.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import blockquant as bq
from . import fpcodec as fc
from .blockquant import Orientation, OuterGranularity, QuantizedMatrix

__all__ = [
    "MAGIC",
    "VERSION",
    "FileFormatError",
    "save_dense",
    "save_csv",
    "save_quantized",
    "load_quantized",
    "load_matrix",
]

MAGIC = b"QMXF"
VERSION = 1

F32 = np.float32
# the smallest magnitude that rounds to infinity in binary32
_F32_OVERFLOW = 2.0**128 - 2.0**103

_ORIENT_CODES = {
    Orientation.ROW_GROUPS_1X16: 0,
    Orientation.COL_GROUPS_16X1: 1,
    Orientation.SQUARE_16X16: 2,
}
_OUTER_CODES = {
    OuterGranularity.BLOCK_1X128: 0,
    OuterGranularity.PER_ROW: 1,
    OuterGranularity.PER_TENSOR: 2,
}
_ELEMENT_CODES = {name: i for i, name in enumerate(bq.ELEMENT_FORMATS)}
_SCALE_BYTE = 0  # E4M3 inner scales
_GROUP_BYTE = 16  # elements per inner block
_ORIENT_NAMES = {v: k for k, v in _ORIENT_CODES.items()}
_OUTER_NAMES = {v: k for k, v in _OUTER_CODES.items()}
_ELEMENT_NAMES = {v: k for k, v in _ELEMENT_CODES.items()}
# a binary32 holding a positive E4M3 value has all but its top 12 bits clear;
# this marks the top 12 bits of each such value
_POSITIVE_E4M3 = np.zeros(1 << 12, dtype=bool)
_POSITIVE_E4M3[fc.FP8_E4M3.mag[1:].astype(F32).view(np.uint32) >> 20] = True


class FileFormatError(ValueError):
    """Malformed matrix file; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _as_dense(m) -> np.ndarray:
    a = np.asarray(m, dtype=F32)
    if a.ndim != 2:
        raise ValueError(f"matrix files hold 2-D data, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(a)


# ── writers ──────────────────────────────────────────────────────────────────


def save_dense(path, m) -> None:
    a = _as_dense(m)
    rows, cols = a.shape
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IBII", VERSION, 0, rows, cols))
        f.write(a.tobytes())


def save_csv(path, m) -> None:
    a = _as_dense(m)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for row in a:
            f.write(",".join(format(float(v), ".9g") for v in row))
            f.write("\n")


def save_quantized(path, q: QuantizedMatrix) -> None:
    codes = np.ascontiguousarray(q.codes, dtype=np.uint8)
    inner = np.ascontiguousarray(q.inner_scales, dtype=F32)
    outer = np.ascontiguousarray(q.outer_scales, dtype=F32)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IBII", VERSION, 1, q.rows, q.cols))
        f.write(
            struct.pack(
                "<BBBBB",
                _ORIENT_CODES[q.orientation],
                _OUTER_CODES[q.outer],
                _ELEMENT_CODES[q.element_fmt],
                _SCALE_BYTE,
                _GROUP_BYTE,
            )
        )
        f.write(struct.pack("<Q", codes.size))
        f.write(codes.tobytes())
        f.write(struct.pack("<Q", inner.size))
        f.write(inner.tobytes())
        f.write(struct.pack("<Q", outer.size))
        f.write(outer.tobytes())
        f.write(struct.pack("<Q", q.clamp_count))


# ── readers ──────────────────────────────────────────────────────────────────


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FileFormatError(
                f"file ends while reading {what}", offset=len(self.data)
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, count: int, dtype, what: str) -> np.ndarray:
        raw = self.take(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(raw, dtype=dtype).copy()

    def coded(self, table: dict, what: str):
        at = self.pos
        (c,) = self.unpack("<B", what)
        if c not in table:
            raise FileFormatError(f"unknown {what} code {c}", offset=at)
        return table[c]


def _read_header(r: _Reader):
    if r.take(4, "magic") != MAGIC:
        raise FileFormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    at = r.pos
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise FileFormatError(f"unsupported version {version}", offset=at)
    at = r.pos
    (kind,) = r.unpack("<B", "kind")
    if kind not in (0, 1):
        raise FileFormatError(f"unknown kind {kind}", offset=at)
    rows, cols = r.unpack("<II", "shape")
    return kind, rows, cols


def _read_quantized(r: _Reader, rows: int, cols: int) -> QuantizedMatrix:
    if not rows * cols:  # no quantizer makes one: an empty matrix has no scale
        raise FileFormatError(f"quantized shape {rows}x{cols} is empty", offset=r.pos - 8)
    orientation = r.coded(_ORIENT_NAMES, "orientation")
    outer_at = r.pos
    outer = r.coded(_OUTER_NAMES, "outer granularity")
    element_fmt = r.coded(_ELEMENT_NAMES, "element format")
    r.coded({_SCALE_BYTE: "e4m3"}, "scale format")
    r.coded({_GROUP_BYTE: _GROUP_BYTE}, "group")
    try:
        n_codes, n_inner, n_outer = bq.layout_sizes(
            rows, cols, orientation, outer, element_fmt)
    except ValueError as exc:
        raise FileFormatError(str(exc), offset=outer_at) from None
    codes_at = r.pos + 8  # past the u64 count
    codes = _counted_array(r, n_codes, np.uint8, "code")
    fmt = fc.get_format(element_fmt)
    at = bq._bad_code_byte(codes, fmt)
    if at is not None:
        raise FileFormatError(
            f"code byte {codes[at]} exceeds {fmt.bits}-bit {element_fmt}",
            offset=codes_at + at,
        )
    inner_at = r.pos + 8
    inner = _counted_array(r, n_inner, F32, "inner-scale")
    bits = inner.view(np.uint32)
    _reject_first(inner, ~_POSITIVE_E4M3[bits >> 20] | ((bits & 0xFFFFF) != 0), inner_at,
                  "inner scale {} is not a positive E4M3 value")
    outer_at = r.pos + 8
    outer_scales = _counted_array(r, n_outer, F32, "outer-scale")
    _reject_first(outer_scales, np.signbit(outer_scales) | np.isnan(outer_scales), outer_at,
                  "outer scale {} is NaN or negative")
    (clamp_count,) = r.unpack("<Q", "clamp count")
    return QuantizedMatrix(
        rows=rows,
        cols=cols,
        orientation=orientation,
        outer=outer,
        element_fmt=element_fmt,
        codes=codes,
        inner_scales=inner,
        outer_scales=outer_scales,
        clamp_count=clamp_count,
    )


def _reject_first(scales: np.ndarray, bad: np.ndarray, offset: int, message: str) -> None:
    """Raise at the first of ``scales`` that ``bad`` marks; the scales start
    at byte ``offset``."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise FileFormatError(message.format(scales[i]), offset=offset + 4 * i)


def _counted_array(r: _Reader, expected: int, dtype, what: str) -> np.ndarray:
    at = r.pos
    (n,) = r.unpack("<Q", f"{what} count")
    if n != expected:
        raise FileFormatError(f"{what} count {n}, the layout holds {expected}", offset=at)
    return r.array(n, dtype, f"{what}s")


def _load_binary(data: bytes):
    r = _Reader(data)
    kind, rows, cols = _read_header(r)
    if kind == 0:
        at = r.pos
        flat = r.array(rows * cols, F32, "dense payload")
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            raise FileFormatError("non-finite matrix entry", offset=at + 4 * int(bad[0]))
        return flat.reshape(rows, cols)
    return _read_quantized(r, rows, cols)


def _load_csv(data: bytes) -> np.ndarray:
    rows = []
    width = None
    offset = 0
    for line in data.split(b"\n"):
        text = line.decode("ascii", errors="replace").strip()
        if text:
            values = []
            col_at = offset
            for tok in line.decode("ascii", errors="replace").split(","):
                try:
                    v = float(tok)
                except ValueError:
                    v = float("nan")
                if not abs(v) < _F32_OVERFLOW:  # also false for NaN
                    raise FileFormatError(
                        f"not a finite binary32 number: {tok.strip()!r}", offset=col_at
                    )
                values.append(v)
                col_at += len(tok.encode("ascii", errors="replace")) + 1
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise FileFormatError(
                    f"row has {len(values)} columns, expected {width}",
                    offset=offset,
                )
            rows.append(values)
        offset += len(line) + 1
    if not rows:
        raise FileFormatError("no data rows", offset=0)
    return np.asarray(rows, dtype=F32)


def load_quantized(path) -> QuantizedMatrix:
    data = Path(path).read_bytes()
    out = _load_binary(data)
    if not isinstance(out, QuantizedMatrix):
        raise FileFormatError("file holds a dense matrix, not a quantized one", offset=8)
    return out


def load_matrix(path) -> np.ndarray:
    """Load a dense matrix from a binary dump or CSV file.

    Binary files are recognized by their magic; anything that looks like text
    is parsed as CSV.  Quantized dumps load as their dequantized matrix,
    the view of its work grid that ``blockquant.dequantize`` returns
    (F-ordered for ``col`` dumps); ``save_dense`` writes it row-major.
    """
    data = Path(path).read_bytes()
    if data[:4] == MAGIC:
        out = _load_binary(data)
        return bq.dequantize(out) if isinstance(out, QuantizedMatrix) else out
    if b"\x00" not in data[:1024] and data:
        return _load_csv(data)
    raise FileFormatError(f"bad magic, expected {MAGIC!r}", offset=0)
