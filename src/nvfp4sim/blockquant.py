"""Double-block matrix quantization on a block view.

Every quantizer here is one scheme: an outer binary32 scale, an E4M3 inner
scale per 16-element block, and element rounding. They differ only in the
block shape.

The work grid is the matrix, or its transpose for COL_GROUPS_16X1 (making
the transpose contract exact by construction). It is zero-padded to whole
blocks and viewed, without a copy, as ``(R, br, C, bc)``:

* ``(1, 16)`` for ROW_GROUPS_1X16 and COL_GROUPS_16X1;
* ``(16, 16)`` tiles for SQUARE_16X16, which takes a per-tensor outer scale.

On that view one pipeline derives the scale chain:

* an outer scale (whole tensor, one per grid row, or one per 128 grid
  columns) S_g = amax / (448 * grid_max), chosen so the rescaled grid fits
  the E4M3 x element-grid product range;
* an inner scale per block, stored as an ``(R, C)`` array in row-major
  order: S_b = round_e4m3(min(amax(X / S_g) / grid_max, 448));
* the ratio X / S_g / S_b, clipped to the grid and rounded in row-major
  grid order, so a stochastic rng is consumed one draw per padded position.

The pipeline works on one grid. The padded copy of the matrix gives up its
sign bits to a mask and is overwritten with ``|W|``. A pairwise block max of
``|W|`` gives the outer scales. The grid is divided in place by S_g; the
block maxima divided by S_g give the inner scales, since a correctly rounded
division by a positive S_g is monotone and so max(x / S_g) = max(x) / S_g
bit for bit (an S_g that underflowed to 0 takes a second block max of the
divided grid instead). The grid is then divided in place by S_b (two
roundings, as the scheme defines them) and clamp-counted. One of fpcodec's
closed-form cores clips and rounds it, leaving the integer step k of each
element in the grid and returning the element spacings. The pipeline ends in
one of two consumers:

* values (``quantize_dequantize``): k times its spacing, with the sign bits
  OR-ed back in, scaled in place to (P * S_b) * S_g. No code array is made
  and no table is read. The result is a view of the grid: cropped, and for
  COL_GROUPS_16X1 the transposed, F-ordered view, so a ``col`` operand whose
  transpose is C-ordered goes in and comes out without a transposing copy.
  The same deterministic pass also feeds the oscillation view: the mask of
  magnitudes on the format's top value (the top code) and the block maxima
  of ``|W|``, broadcast over their blocks. No training route forms codes;
* codes (``quantize_double_block``): k plus its binade's first code, with
  the sign bits OR-ed into the top bit, packed row-major over the padded
  work grid, for the ``quantize`` command and matrix files. ``dequantize``
  decodes two codes per table read (one packed 4-bit byte, or two 6-bit
  code bytes) into a fresh work grid, scales it in place and returns the
  same logical view as ``quantize_dequantize``.

Zero-amax blocks take scale 1. Padded positions hold code 0 and never affect
any amax. Both routes give the same bytes: the reconstruction is the float32
product (P * S_b) * S_g viewed at the logical shape, and adding +0.0
turns the -0 code's -0.0 into +0.0 and leaves every other value's bytes
alone.

Clamp events (elements pushed back inside the grid because the inner scale
rounded down) are counted with a one-ulp tolerance so float32 roundoff at a
block carrier doesn't register; they are the scheme's only bias source and
are exported as a diagnostic.

File serialization for matrices lives in :mod:`nvfp4sim.matrixio`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import fpcodec as fc

__all__ = [
    "Orientation",
    "OuterGranularity",
    "QuantizedMatrix",
    "ELEMENT_FORMATS",
    "element_format",
    "as_matrix",
    "layout_sizes",
    "quantize_double_block",
    "quantize_dequantize",
    "dequantize",
]

F32 = np.float32
_SCALE_TOP = np.float32(448.0)
_CLAMP_TOL = 1 + 1e-6  # one-ulp grace before an overshoot counts as a clamp
_OUTER_SPAN = 128  # grid columns per BLOCK_1X128 outer scale
_GROUP = 16  # elements per inner block
ELEMENT_FORMATS = ("e2m1", "e3m2", "e2m3")  # in the order of their file codes


class Orientation(enum.Enum):
    ROW_GROUPS_1X16 = "row"
    COL_GROUPS_16X1 = "col"
    SQUARE_16X16 = "square"


class OuterGranularity(enum.Enum):
    BLOCK_1X128 = "1x128"
    PER_ROW = "per-row"
    PER_TENSOR = "per-tensor"


def element_format(name) -> fc.FormatSpec:
    """The spec of element format ``name``; ValueError for any other name."""
    if name not in ELEMENT_FORMATS:
        raise ValueError(f"unknown format {name!r}; choose from {ELEMENT_FORMATS}")
    return fc.get_format(name)


def as_matrix(m) -> np.ndarray:
    """``m`` as a 2-D float32 array in its own memory layout, copied only to
    convert its dtype."""
    a = np.asarray(m, dtype=F32)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


@dataclass(eq=False)
class QuantizedMatrix:
    rows: int
    cols: int
    orientation: Orientation
    outer: OuterGranularity
    element_fmt: str  # one of ELEMENT_FORMATS
    codes: np.ndarray  # packed uint8; 4-bit formats hold two codes per byte,
    # low nibble = lower linear index in the work grid
    inner_scales: np.ndarray  # float32, one per inner block, work-grid order
    outer_scales: np.ndarray  # float32, one per outer block
    clamp_count: int

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, QuantizedMatrix):
            return NotImplemented
        return (
            (self.rows, self.cols, self.orientation, self.outer, self.element_fmt,
             self.clamp_count) ==
            (other.rows, other.cols, other.orientation, other.outer, other.element_fmt,
             other.clamp_count)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.inner_scales, other.inner_scales)
            and np.array_equal(self.outer_scales, other.outer_scales)
        )


# ── the block view ───────────────────────────────────────────────────────────


def _ceil_to(n: int, k: int) -> int:
    return -(-n // k) * k


def _block_shape(orientation: Orientation):
    return (_GROUP, _GROUP) if orientation is Orientation.SQUARE_16X16 else (1, _GROUP)


def _grid_shape(rows, cols, orientation):
    """(work rows, work cols) of the zero-padded work grid."""
    if orientation is Orientation.COL_GROUPS_16X1:
        rows, cols = cols, rows
    br, bc = _block_shape(orientation)
    return _ceil_to(rows, br), _ceil_to(cols, bc)


def _outer_grid(outer: OuterGranularity, wr: int, wc: int):
    """Shape of the outer scales laid out over the work grid, row-major."""
    if outer is OuterGranularity.PER_TENSOR:
        return 1, 1
    if outer is OuterGranularity.PER_ROW:
        return wr, 1
    return wr, -(-wc // _OUTER_SPAN)


def _layout_outer(orientation: Orientation, outer) -> OuterGranularity:
    """The outer granularity of a layout; ``None`` picks the default."""
    square = orientation is Orientation.SQUARE_16X16
    if outer is None:
        return OuterGranularity.PER_TENSOR if square else OuterGranularity.BLOCK_1X128
    outer = OuterGranularity(outer)
    if square and outer is not OuterGranularity.PER_TENSOR:
        raise ValueError("square tiles use a per-tensor outer scale")
    return outer


def layout_sizes(rows, cols, orientation, outer, element_fmt):
    """(code bytes, inner scales, outer scales) stored for this layout.

    Raises ValueError for square tiles with an outer level other than
    per-tensor, which no block view can carry.
    """
    outer = _layout_outer(orientation, outer)
    wr, wc = _grid_shape(rows, cols, orientation)
    br, bc = _block_shape(orientation)
    n_codes = wr * wc // (2 if element_format(element_fmt).bits == 4 else 1)
    return n_codes, (wr // br) * (wc // bc), int(np.prod(_outer_grid(outer, wr, wc)))


def _block_view(m: np.ndarray, orientation: Orientation):
    """The zero-padded work grid of ``m`` and its ``(R, br, C, bc)`` view."""
    work = m.T if orientation is Orientation.COL_GROUPS_16X1 else m
    r, c = work.shape
    br, bc = _block_shape(orientation)
    W = np.empty(_grid_shape(*m.shape, orientation), dtype=F32)
    W[r:] = 0.0
    W[:r, c:] = 0.0
    W[:r, :c] = work
    return W, W.reshape(W.shape[0] // br, br, W.shape[1] // bc, bc)


def _block_max(blocks: np.ndarray) -> np.ndarray:
    """The ``(R, C)`` maxima of an ``(R, br, C, bc)`` block view.

    Pairwise halving over even and odd rows, then columns, of every block:
    each step is one long strided ``np.maximum``, where a reduction over the
    short block axes would loop 16 elements at a time. NaN propagates.
    """
    while blocks.shape[1] > 1:
        blocks = np.maximum(blocks[:, 0::2], blocks[:, 1::2])
    while blocks.shape[3] > 1:
        blocks = np.maximum(blocks[..., 0::2], blocks[..., 1::2])
    return blocks[:, 0, :, 0]


def _per_block(a: np.ndarray) -> np.ndarray:
    """Broadcast an ``(R, C)`` per-block array over the ``(R, br, C, bc)`` view."""
    return a[:, None, :, None]


def _inner_apply(ufunc, W: np.ndarray, sb: np.ndarray):
    """Apply ``W = ufunc(W, S_b)`` in place over the work grid, one ``(R, C)``
    inner scale per block.

    16x16 tiles take their scales as one repeated row per tile row, so each
    operation runs along whole grid rows rather than 16 elements at a time.
    """
    R, C = sb.shape
    br, bc = W.shape[0] // R, W.shape[1] // C
    if br == 1:
        blocks = W.reshape(R, C, bc)
        ufunc(blocks, sb[:, :, None], out=blocks)
    else:
        rows = W.reshape(R, br, C * bc)
        ufunc(rows, np.repeat(sb, bc, axis=1)[:, None, :], out=rows)


def _outer_apply(ufunc, W: np.ndarray, sg: np.ndarray):
    """Apply ``W = ufunc(W, S_g)`` in place over the ``(wr, wc)`` work grid.

    ``sg`` is on its work-grid layout (see ``_outer_grid``). A per-tensor or
    per-row scale is one flat or row-wise operation; ``1x128`` scales are
    repeated onto the 16-column blocks they cover.
    """
    if sg.shape[1] == 1:
        ufunc(W, sg, out=W)
    else:
        _inner_apply(ufunc, W, _outer_per_block(sg, W.shape[1] // _GROUP))


def _outer_per_block(sg: np.ndarray, n_cols: int) -> np.ndarray:
    """Outer scales on their work-grid layout, broadcastable over the
    ``(R, n_cols)`` inner blocks."""
    if sg.shape[1] == 1:
        return sg
    return np.repeat(sg, _OUTER_SPAN // _GROUP, axis=1)[:, :n_cols]


def _logical_view(grid: np.ndarray, orientation: Orientation, rows: int, cols: int):
    """The logical ``(rows, cols)`` matrix of a padded work grid, as a view;
    for COL_GROUPS_16X1 it is the transposed, F-ordered view."""
    if orientation is Orientation.COL_GROUPS_16X1:
        return grid[:cols, :rows].T
    return grid[:rows, :cols]


# ── the pipeline ─────────────────────────────────────────────────────────────


def _outer_scales(bmax: np.ndarray, outer: OuterGranularity, bc: int, big: np.float32):
    """Outer scales on their work-grid layout (see ``_outer_grid``), from the
    ``(R, C)`` block maxima of ``|W|``."""
    if outer is OuterGranularity.PER_TENSOR:
        a = np.float32(bmax.max(initial=0.0)).reshape(1, 1)
    elif outer is OuterGranularity.PER_ROW:
        a = bmax.max(axis=1, keepdims=True)
    else:
        span = _OUTER_SPAN // bc
        a = np.maximum.reduceat(bmax, np.arange(0, bmax.shape[1], span), axis=1)
    return np.where(a > 0, a / big, F32(1.0)).astype(F32)


def _inner_scales(a_in: np.ndarray, grid_max: np.float32):
    """E4M3 inner scale per block from the block amax of the outer-scaled grid."""
    t = np.minimum(a_in / grid_max, _SCALE_TOP)
    pos = t > 0
    sb = fc.round_scale_e4m3(np.where(pos, t, F32(1.0)))
    return np.where(pos, sb, F32(1.0)).astype(F32)


def _plan(m, orientation, outer, fmt):
    """Derive the scale chain of ``m`` and its ratio magnitudes on one grid
    (see the module docstring).

    Returns ``(grid, sign, sb, sg, clamps, bmax)``: the padded work grid
    holding ``|W / S_g / S_b|`` (the rounding cores clip it), its sign mask,
    the ``(R, C)`` inner scales, the outer scales on their work-grid layout,
    the clamp count, and the ``(R, C)`` block maxima of ``|W|``. Zero padding
    never raises a block maximum, so ragged trailing blocks are exact.
    Callers with no use for ``bmax`` drop it at once (``[:5]``): held through
    the rounding, it shifts how glibc's malloc reuses freed memory, and the
    peak RSS of a round trip over ~1.5M-element matrices rose by 5.8 MB.
    """
    W, ratio = _block_view(m, orientation)
    sign = np.signbit(W)
    np.abs(W, out=W)  # W and ratio now hold |W|
    grid_max = np.float32(fmt.max)
    bmax = _block_max(ratio)
    sg = _outer_scales(bmax, outer, ratio.shape[3], _SCALE_TOP * grid_max)
    _outer_apply(np.divide, W, sg)
    if sg.all():  # max(x / S_g) = max(x) / S_g (see the module docstring)
        a_in = bmax / _outer_per_block(sg, bmax.shape[1])
    else:  # x / 0 is inf or NaN, which no shortcut reproduces
        a_in = _block_max(ratio)
    sb = _inner_scales(a_in, grid_max)
    _inner_apply(np.divide, W, sb)
    clamps = int(np.count_nonzero(W > grid_max * _CLAMP_TOL))
    return W, sign, sb, sg, clamps, bmax


def _round(grid, fmt: fc.FormatSpec, mode, rng) -> np.ndarray:
    """Clip and round the grid's ratio magnitudes in row-major order, leaving
    the steps k in ``grid``; returns the reciprocal spacings 1/s (see
    fpcodec)."""
    if mode is fc.RoundingMode.DETERMINISTIC:
        return fc._mag_round_det(grid, fmt)
    if rng is None:
        raise ValueError("stochastic quantization needs an rng")
    return fc._mag_round_stoch(grid, fmt, rng)


def _or_signs(vals: np.ndarray, sign: np.ndarray, spent: np.ndarray):
    """OR the sign mask into the sign bits of the float32 grid ``vals``,
    through ``spent``, a float32 buffer of the same size."""
    bits = spent.view(np.uint32).reshape(sign.shape)
    np.left_shift(sign.view(np.uint8), 31, out=bits, dtype=np.uint32)
    np.bitwise_or(vals.view(np.uint32), bits, out=vals.view(np.uint32))


def _scale(grid, sb, sg):
    """(P * S_b) * S_g in place on the work grid, zeros normalized to +0."""
    _inner_apply(np.multiply, grid, sb)
    _outer_apply(np.multiply, grid, sg)
    grid += 0.0  # -0.0 + 0.0 is +0.0; every other value keeps its bytes


def _resolve(m, orientation, outer, mode, element_fmt):
    """The quantizers' arguments, checked; an empty matrix has no scale."""
    m = as_matrix(m)
    if not m.size:
        raise ValueError(f"cannot quantize an empty matrix, got shape {m.shape}")
    orientation = Orientation(orientation)
    outer = _layout_outer(orientation, outer)
    return m, orientation, outer, fc.RoundingMode(mode), element_format(element_fmt)


def quantize_double_block(
    m,
    orientation: Orientation | str,
    outer: OuterGranularity | str | None = None,
    mode: fc.RoundingMode | str = "det",
    rng=None,
    element_fmt: str = "e2m1",
) -> QuantizedMatrix:
    """Quantize a binary32 matrix with the two-level block scheme; codes are
    packed row-major over the work grid."""
    m, orientation, outer, mode, fmt = _resolve(m, orientation, outer, mode, element_fmt)
    grid, sign, sb, sg, clamps = _plan(m, orientation, outer, fmt)[:5]
    codes = fc._codes(grid, _round(grid, fmt, mode, rng), fmt).reshape(-1)
    sign = sign.view(np.uint8).reshape(-1)
    sign *= 1 << (fmt.bits - 1)  # numpy multiplies uint8 far faster than it shifts
    codes |= sign
    if fmt.bits == 4:
        codes = codes[0::2] | (codes[1::2] << 4)
    return QuantizedMatrix(
        rows=m.shape[0],
        cols=m.shape[1],
        orientation=orientation,
        outer=outer,
        element_fmt=fmt.name,
        codes=codes,
        inner_scales=sb.reshape(-1),
        outer_scales=sg.reshape(-1),
        clamp_count=clamps,
    )


def quantize_dequantize(
    m,
    orientation: Orientation | str,
    outer: OuterGranularity | str | None = None,
    mode: fc.RoundingMode | str = "det",
    rng=None,
    element_fmt: str = "e2m1",
) -> tuple[np.ndarray, int]:
    """Quantize and immediately reconstruct, without forming codes.

    Returns ``(values, clamp_count)`` where ``values`` holds the same bytes
    as ``dequantize(quantize_double_block(...))`` with the same arguments —
    the training hot path uses this to skip codes altogether. ``values`` is
    a view of the work grid: F-ordered for COL_GROUPS_16X1, and strided
    where the grid is padded. A stochastic ``rng`` is consumed exactly as
    the two-step route consumes it, so the two routes are interchangeable
    mid-stream.
    """
    m, orientation, outer, mode, fmt = _resolve(m, orientation, outer, mode, element_fmt)
    grid, sign, sb, sg, clamps = _plan(m, orientation, outer, fmt)[:5]
    rs = _round(grid, fmt, mode, rng)
    fc._values(grid, rs)
    _or_signs(grid, sign, rs)
    _scale(grid, sb, sg)
    return _logical_view(grid, orientation, *m.shape), clamps


def _weight_view(m, orientation, outer, element_fmt):
    """The arrays of the oscillation view from one deterministic pass.

    Returns ``(values, at_max, block_amax)``, each a logical view of a work
    grid like ``quantize_dequantize``'s result: the det values it gives, the
    mask of elements whose magnitude rounded to the format's top value (the
    top code), and each element's block max of ``|m|``.
    """
    m, orientation, outer, _, fmt = _resolve(m, orientation, outer, "det", element_fmt)
    grid, sign, sb, sg, _, bmax = _plan(m, orientation, outer, fmt)
    rs = fc._mag_round_det(grid, fmt)
    fc._values(grid, rs)
    at_max = grid == fmt.max
    _or_signs(grid, sign, rs)
    _scale(grid, sb, sg)
    amax = np.empty_like(grid)
    br, bc = _block_shape(orientation)
    amax.reshape(bmax.shape[0], br, bmax.shape[1], bc)[...] = _per_block(bmax)
    return tuple(_logical_view(g, orientation, *m.shape) for g in (grid, at_max, amax))


@functools.cache
def _pair_table(element_fmt: str) -> np.ndarray:
    """The decode table of ``element_fmt``, two codes per entry.

    Entry i is a uint64 holding the two float32 values of the code pair that
    i packs: one code byte, low nibble first, for 4-bit formats, else two
    code bytes read as a native uint16. Bytes past the format's codes
    decode to NaN.
    """
    fmt = element_format(element_fmt)
    half = 1 << (fmt.bits - 1)
    signed = np.full(256, np.nan, dtype=F32)
    signed[: fmt.mag.size] = fmt.mag
    signed[half : half + fmt.mag.size] = -fmt.mag
    if fmt.bits == 4:
        index = np.arange(256, dtype=np.uint8)
        first, second = index & 0x0F, index >> 4
    else:
        index = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
        first, second = index[:, 0], index[:, 1]
    pairs = np.stack([signed[first], signed[second]], axis=1)
    table = pairs.view(np.uint64).reshape(-1)
    table.setflags(write=False)
    return table


def _bad_code_byte(codes: np.ndarray, fmt: fc.FormatSpec) -> int | None:
    """The index of the first byte of ``codes`` that holds no code of
    ``fmt``, or None.  Only 6-bit codes, one per byte, can overflow."""
    if fmt.bits == 4 or not codes.max(initial=0) >> fmt.bits:
        return None
    return int(np.flatnonzero(codes >> fmt.bits)[0])


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Float32 reconstruction (P * S_b) * S_g, zeros normalized to +0.

    Like ``quantize_dequantize``, returns a view of the work grid at the
    logical shape: F-ordered for COL_GROUPS_16X1, and strided where the grid
    is padded. Raises ValueError naming the index of the first code byte
    that holds no code of the format.
    """
    fmt = element_format(q.element_fmt)
    codes = q.codes
    at = _bad_code_byte(codes, fmt)
    if at is not None:
        raise ValueError(
            f"code byte {codes[at]} at index {at} exceeds {fmt.bits}-bit {fmt.name}")
    if fmt.bits != 4:
        codes = codes.view(np.uint16)
    shape = _grid_shape(q.rows, q.cols, q.orientation)
    grid = _pair_table(fmt.name).take(codes).view(F32).reshape(shape)
    br, bc = _block_shape(q.orientation)
    _scale(grid, q.inner_scales.reshape(shape[0] // br, shape[1] // bc),
           q.outer_scales.reshape(_outer_grid(q.outer, *shape)))
    return _logical_view(grid, q.orientation, q.rows, q.cols)
