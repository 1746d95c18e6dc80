"""Tests for the binary/CSV matrix exchange format.

Oracles: byte-level layout asserted against a hand-packed reference for a
tiny dense matrix; round-trips must be identity (bitwise for quantized dumps,
via the dataclass equality that covers codes, scales, orientation, outer
granularity, and clamp count); malformed inputs must fail with the byte
offset of the first bad field.
"""

import itertools
import struct

import numpy as np
import pytest

from nvfp4sim import blockquant as bq
from nvfp4sim import fpcodec as fc
from nvfp4sim import matrixio as mio

F32 = np.float32


def test_dense_layout_hand_packed(tmp_path):
    m = np.array([[1.5, -2.0], [0.0, 448.0]], F32)
    p = tmp_path / "m.qmx"
    mio.save_dense(p, m)
    raw = p.read_bytes()
    expect = mio.MAGIC + struct.pack("<IBII", 1, 0, 2, 2) + m.tobytes()
    assert raw == expect


def test_dense_roundtrip(tmp_path):
    rng = fc.stream(3, "mio")
    m = rng.standard_normal((7, 13)).astype(F32)
    p = tmp_path / "m.qmx"
    mio.save_dense(p, m)
    out = mio.load_matrix(p)
    np.testing.assert_array_equal(out, m)
    assert out.dtype == F32


def test_csv_roundtrip(tmp_path):
    m = np.array([[1.25, -3.5, 0.0], [6.0, 2688.0, -0.5]], F32)
    p = tmp_path / "m.csv"
    mio.save_csv(p, m)
    np.testing.assert_array_equal(mio.load_matrix(p), m)


def test_quantized_roundtrip_identity(tmp_path):
    rng = fc.stream(9, "mio-q")
    m = (rng.standard_normal((20, 48)) * 10).astype(F32)
    q = bq.quantize_double_block(m, "row", outer="1x128")
    p = tmp_path / "q.qmx"
    mio.save_quantized(p, q)
    q2 = mio.load_quantized(p)
    assert q2 == q
    np.testing.assert_array_equal(bq.dequantize(q2), bq.dequantize(q))


@pytest.mark.parametrize(
    "orientation,outer",
    [("row", "1x128"), ("col", "per-row"), ("square", "per-tensor")],
)
def test_quantized_roundtrip_all_layouts(tmp_path, orientation, outer):
    rng = fc.stream(11, "mio", orientation, outer)
    m = (rng.standard_normal((32, 32)) * 5).astype(F32)
    q = bq.quantize_double_block(m, orientation, outer=outer)
    p = tmp_path / "q.qmx"
    mio.save_quantized(p, q)
    assert mio.load_quantized(p) == q


@pytest.mark.parametrize("fmt", bq.ELEMENT_FORMATS)
def test_quantized_roundtrip_every_element_format(tmp_path, fmt):
    m = (fc.stream(12, "mio", fmt).standard_normal((16, 32)) * 5).astype(F32)
    q = bq.quantize_double_block(m, "row", element_fmt=fmt)
    p = tmp_path / "q.qmx"
    mio.save_quantized(p, q)
    assert mio.load_quantized(p) == q


def test_deterministic_dump_bytes(tmp_path):
    m = (fc.stream(4, "dup").standard_normal((16, 16)) * 3).astype(F32)
    q = bq.quantize_double_block(m, "row")
    p1, p2 = tmp_path / "a.qmx", tmp_path / "b.qmx"
    mio.save_quantized(p1, q)
    mio.save_quantized(p2, bq.quantize_double_block(m, "row"))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_matrix_dispatches_on_magic(tmp_path):
    m = np.eye(3, dtype=F32)
    q = bq.quantize_double_block(m, "row")
    pd, pq = tmp_path / "d.qmx", tmp_path / "q.qmx"
    mio.save_dense(pd, m)
    mio.save_quantized(pq, q)
    np.testing.assert_array_equal(mio.load_matrix(pd), m)
    # a quantized dump loads as its dequantized matrix through load_matrix
    np.testing.assert_array_equal(mio.load_matrix(pq), bq.dequantize(q))


def test_bad_magic_reports_offset(tmp_path):
    p = tmp_path / "bad.qmx"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(mio.FileFormatError) as ei:
        mio.load_matrix(p)
    assert ei.value.offset == 0
    assert "byte 0" in str(ei.value)


def test_truncated_payload_reports_offset(tmp_path):
    m = np.ones((4, 4), F32)
    p = tmp_path / "t.qmx"
    mio.save_dense(p, m)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(mio.FileFormatError) as ei:
        mio.load_matrix(p)
    assert ei.value.offset == len(raw) - 8


def test_bad_version_reports_offset(tmp_path):
    p = tmp_path / "v.qmx"
    p.write_bytes(mio.MAGIC + struct.pack("<IBII", 99, 0, 1, 1) + b"\x00" * 4)
    with pytest.raises(mio.FileFormatError) as ei:
        mio.load_matrix(p)
    assert ei.value.offset == 4


def test_csv_parse_error_reports_offset(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(mio.FileFormatError) as ei:
        mio.load_matrix(p)
    assert ei.value.offset == len("1.0,2.0\n") + len("3.0,")


def test_csv_ragged_rows_rejected(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(mio.FileFormatError):
        mio.load_matrix(p)


def test_nonfinite_dense_rejected(tmp_path):
    m = np.array([[1.0, np.inf]], F32)
    with pytest.raises(ValueError):
        mio.save_dense(tmp_path / "x.qmx", m)


# ── payloads that disagree with their layout ─────────────────────────────────

# byte offsets in a quantized dump: 17-byte header, then orientation, outer
# granularity, element format, scale format and group, then the code count
_OUTER_AT, _SCALE_AT, _GROUP_AT, _CODE_COUNT_AT = 18, 20, 21, 22


def _quantized_bytes(tmp_path, q):
    p = tmp_path / "q.qmxf"
    mio.save_quantized(p, q)
    return bytearray(p.read_bytes())


def _load_patched(tmp_path, raw):
    p = tmp_path / "patched.qmxf"
    p.write_bytes(bytes(raw))
    with pytest.raises(mio.FileFormatError) as ei:
        mio.load_matrix(p)
    return ei.value.offset


def test_header_shape_disagreeing_with_codes_is_rejected(tmp_path):
    raw = _quantized_bytes(tmp_path, bq.quantize_double_block(np.ones((4, 32), F32), "row"))
    raw[9:13] = struct.pack("<I", 5)  # rows 4 -> 5
    assert _load_patched(tmp_path, raw) == _CODE_COUNT_AT


@pytest.mark.parametrize("group", [0, 32])
def test_group_not_fitting_the_scale_format_is_rejected(tmp_path, group):
    raw = _quantized_bytes(tmp_path, bq.quantize_double_block(np.ones((4, 32), F32), "row"))
    raw[_GROUP_AT] = group
    assert _load_patched(tmp_path, raw) == _GROUP_AT


def test_e8m0_scale_byte_is_rejected(tmp_path):
    raw = _quantized_bytes(tmp_path, bq.quantize_double_block(np.ones((2, 64), F32), "row"))
    assert raw[_SCALE_AT] == 0 and raw[_GROUP_AT] == 16
    raw[_SCALE_AT] = 1  # the E8M0 code of files with power-of-two scales
    assert _load_patched(tmp_path, raw) == _SCALE_AT


@pytest.mark.parametrize("which", ["inner", "outer"])
def test_scale_counts_must_match_the_layout(tmp_path, which):
    q = bq.quantize_double_block(np.ones((4, 32), F32), "row", outer="per-row")
    raw = _quantized_bytes(tmp_path, q)
    inner_at = _CODE_COUNT_AT + 8 + q.codes.size
    at = inner_at if which == "inner" else inner_at + 8 + 4 * q.inner_scales.size
    (n,) = struct.unpack_from("<Q", raw, at)
    struct.pack_into("<Q", raw, at, n - 1)
    assert _load_patched(tmp_path, raw) == at


@pytest.mark.parametrize("fmt", ["e3m2", "e2m3"])
def test_six_bit_code_bytes_must_fit_the_format(tmp_path, fmt):
    m = np.linspace(-1, 1, 4 * 32, dtype=F32).reshape(4, 32)
    q = bq.quantize_double_block(m, "row", element_fmt=fmt)
    raw = _quantized_bytes(tmp_path, q)
    p = tmp_path / "ok.qmxf"
    p.write_bytes(bytes(raw))
    np.testing.assert_array_equal(mio.load_matrix(p), bq.dequantize(q))
    first = _CODE_COUNT_AT + 8
    raw[first + 5] |= 0x40  # code 64 and up has no 6-bit pattern
    raw[first + 9] = 0xFF
    assert _load_patched(tmp_path, raw) == first + 5


def test_an_empty_quantized_shape_is_rejected(tmp_path):
    raw = _quantized_bytes(tmp_path, bq.quantize_double_block(np.ones((4, 32), F32), "row"))
    raw[9:13] = struct.pack("<I", 0)  # rows 4 -> 0: rejected at the shape, not later
    assert _load_patched(tmp_path, raw) == 9


def test_square_tiles_with_a_per_row_outer_level_are_rejected(tmp_path):
    raw = _quantized_bytes(tmp_path, bq.quantize_double_block(np.ones((16, 16), F32), "square"))
    raw[_OUTER_AT] = 1  # per-row
    assert _load_patched(tmp_path, raw) == _OUTER_AT


def _gaussian(shape):
    return fc.stream(13, "mio-scales", *shape).standard_normal(shape).astype(F32)


def _scale_offsets(q):
    """Byte offsets of the first inner and the first outer scale of ``q``'s dump."""
    inner_at = _CODE_COUNT_AT + 8 + q.codes.size + 8
    return inner_at, inner_at + 4 * q.inner_scales.size + 8


@pytest.mark.parametrize("which, value", [
    ("inner", 0.0), ("inner", -0.0), ("inner", -2.0), ("inner", 1000.0), ("inner", 1.1),
    ("inner", 2.0**-10), ("inner", np.inf), ("inner", np.nan),
    ("outer", np.nan), ("outer", -np.nan), ("outer", -1.0), ("outer", -0.0),
    ("outer", -np.inf),
])
def test_a_scale_no_quantizer_writes_is_rejected(tmp_path, which, value):
    q = bq.quantize_double_block(_gaussian((4, 64)), "row", outer="per-row")
    raw = _quantized_bytes(tmp_path, q)
    inner_at, outer_at = _scale_offsets(q)
    at = (inner_at + 4 * 5) if which == "inner" else (outer_at + 4 * 2)
    struct.pack_into("<f", raw, at, value)
    assert _load_patched(tmp_path, raw) == at


def test_every_positive_e4m3_inner_scale_and_a_degenerate_outer_scale_load(tmp_path):
    # the outer scales of 0, +inf and huge values that underflowing and
    # infinite inputs write still load
    positive = fc.FP8_E4M3.mag[1:].astype(F32)
    q = bq.quantize_double_block(_gaussian((positive.size, 16)), "row", outer="per-row")
    raw = _quantized_bytes(tmp_path, q)
    inner_at, outer_at = _scale_offsets(q)
    raw[inner_at:inner_at + 4 * positive.size] = positive.tobytes()
    degenerate = np.array([0.0, np.inf, 3e38], F32)
    raw[outer_at:outer_at + 12] = degenerate.tobytes()
    p = tmp_path / "ok.qmxf"
    p.write_bytes(bytes(raw))
    loaded = mio.load_quantized(p)
    np.testing.assert_array_equal(loaded.inner_scales, positive)
    np.testing.assert_array_equal(loaded.outer_scales[:3], degenerate)


def test_dumps_of_corner_inputs_load(tmp_path):
    layouts = [(o, g) for o in ("row", "col") for g in ("1x128", "per-row", "per-tensor")]
    layouts.append(("square", "per-tensor"))
    p = tmp_path / "c.qmxf"
    with np.errstate(invalid="ignore", over="ignore"):
        for corner in (np.nan, np.inf, -np.inf, 1e-45, 3e38, -3e38):
            m = _gaussian((20, 40))
            m[3, 5] = m[7, ::3] = corner
            for (orientation, outer), fmt in itertools.product(layouts, bq.ELEMENT_FORMATS):
                q = bq.quantize_double_block(m, orientation, outer=outer, element_fmt=fmt)
                mio.save_quantized(p, q)
                assert mio.load_quantized(p) == q


# ── non-finite dense input ───────────────────────────────────────────────────


def test_nonfinite_csv_token_reports_offset(tmp_path):
    p = tmp_path / "nf.csv"
    p.write_text("1,nan\ninf,2\n")
    with pytest.raises(mio.FileFormatError) as ei:
        mio.load_matrix(p)
    assert ei.value.offset == 2
    for bad in ("-inf", "1e39"):  # 1e39 overflows binary32
        p.write_text(f"1,2\n{bad},2\n")
        with pytest.raises(mio.FileFormatError) as ei:
            mio.load_matrix(p)
        assert ei.value.offset == 4
    p.write_text("3.4028235e38,-3.4028235e38\n")  # binary32's largest finite
    assert np.all(np.isfinite(mio.load_matrix(p)))


def test_nonfinite_dense_payload_reports_offset(tmp_path):
    p = tmp_path / "nf.qmx"
    payload = np.array([1.0, 2.0, np.nan, np.inf], F32)
    p.write_bytes(mio.MAGIC + struct.pack("<IBII", 1, 0, 2, 2) + payload.tobytes())
    with pytest.raises(mio.FileFormatError) as ei:
        mio.load_matrix(p)
    assert ei.value.offset == 17 + 2 * 4
