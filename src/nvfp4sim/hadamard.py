"""Block Hadamard matrices and the Random Hadamard Transform (RHT).

The quantized linear layer rotates both operands of a backward matmul with
the same signed block-Hadamard matrix before quantizing them: ``A -> A S H``
where ``S`` is a random +/-1 diagonal and ``H`` is block-diagonal with d x d
Hadamard blocks.  The rotation is orthogonal, so applying it to both
operands of a product ``A @ B.T`` leaves the product unchanged while
spreading large entries across each block, which conditions the operands
for very low-bit quantization.

Sign vectors are derived from a counter-based generator keyed by
``(seed, layer, step, side)`` so that the two operands of one matmul — and
any replay of it — see identical signs without storing them.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import fpcodec
from .blockquant import as_matrix

__all__ = [
    "DEFAULT_BLOCK",
    "RhtContext",
    "check_block",
    "hadamard_dense",
    "rht_context",
    "rht_apply",
    "rht_pair_identity_check",
]

DEFAULT_BLOCK = 32


def check_block(block, name: str = "Hadamard block") -> int:
    """``block`` if it is an integer power of two >= 2, else a ValueError naming ``name``."""
    if type(block) is not int or block < 2 or block & (block - 1):
        raise ValueError(f"{name} must be an integer power of two >= 2, got {block!r}")
    return block


def _padded_width(dim: int, block: int) -> int:
    """The contraction length ``dim`` (>= 1) rounded up to a multiple of ``block``."""
    if dim < 1:
        raise ValueError(f"contraction length must be >= 1, got {dim}")
    return -(-dim // check_block(block)) * block


@functools.lru_cache(maxsize=None, typed=True)  # so 32.0 is no hit for 32
def hadamard_dense(d: int) -> np.ndarray:
    """Dense orthogonal Hadamard matrix of size d (power of two, >= 2).

    Built by the doubling recursion H_{2m} = (1/sqrt(2)) H_2 (x) H_m, so every
    entry is +/- 1/sqrt(d) and H @ H.T = I.  The returned array is cached and
    read-only.
    """
    check_block(d, "Hadamard size")
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    m = h2
    while m.shape[0] < d:
        m = np.kron(h2, m)
    m.flags.writeable = False
    return m


@dataclasses.dataclass(frozen=True, eq=False)
class RhtContext:
    """Sign flips plus block-Hadamard rotation for one matmul's contraction axis.

    ``signs`` has the padded length (``dim`` rounded up to a multiple of
    ``block``); entries beyond ``dim`` are +1 so zero padding stays zero.
    :func:`rht_context` draws them from the ``(seed, layer, step, side)``
    stream.
    """

    dim: int
    block: int
    signs: np.ndarray

    def __post_init__(self):
        padded = _padded_width(self.dim, self.block)
        if self.signs.shape != (padded,):
            raise ValueError(
                f"signs must have padded length {padded}, got shape {self.signs.shape}"
            )

    @property
    def padded_dim(self) -> int:
        return self.signs.shape[0]


def rht_context(
    dim: int,
    *,
    seed: int,
    layer: str,
    step: int,
    side: str,
    block: int = DEFAULT_BLOCK,
) -> RhtContext:
    """Create a context with signs drawn from the (seed, layer, step, side) stream."""
    padded = _padded_width(dim, block)
    rng = fpcodec.stream(seed, "rht", layer, step, side)
    signs = np.ones(padded, dtype=np.float32)
    signs[:dim] = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    signs.flags.writeable = False
    return RhtContext(dim=dim, block=block, signs=signs)


@functools.lru_cache(maxsize=None)
def _hadamard_pm1(d: int) -> np.ndarray:
    """Unnormalized +/-1 Hadamard matrix of size d, float32, read-only."""
    h = np.ones((1, 1), dtype=np.float32)
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def rht_apply(a, ctx: RhtContext) -> np.ndarray:
    """Return ``A @ diag(signs) @ H`` computed blockwise along the columns.

    The input's column count must equal ``ctx.dim``; it may be in any memory
    layout and is never written. It is signed into a buffer of the padded
    width in its own order, C or F; padding columns exist, and are zeroed,
    only when ``ctx.dim`` is not a multiple of ``ctx.block``. BLAS products
    with the cached +/-1 matrix give a C-ordered result: one product over
    all blocks of a C-ordered buffer, or one per column block of an
    F-ordered one, which BLAS reads transposed instead of a transposing
    copy. That the bytes do not depend on the layout is a property of the
    BLAS, not a guarantee: it needs the same result for transposed and
    non-transposed operands, which the layout tests check on the BLAS they
    run against.

    The output has the full padded width ``ctx.padded_dim``: the rotation
    moves mass into the padding coordinates, so a contraction with another
    operand transformed by the same context is exact only over all of them.
    """
    m = as_matrix(a)
    if m.shape[1] != ctx.dim:
        raise ValueError(
            f"input has {m.shape[1]} columns but context expects {ctx.dim}"
        )
    rows = m.shape[0]
    padded = ctx.padded_dim
    f_order = m.flags.f_contiguous and not m.flags.c_contiguous
    buf = np.empty((rows, padded), dtype=np.float32, order="F" if f_order else "C")
    buf[:, ctx.dim :] = 0.0
    np.multiply(m, ctx.signs[: ctx.dim], out=buf[:, : ctx.dim])
    h = _hadamard_pm1(ctx.block)
    if f_order:  # (blocks, rows, block) views of the column blocks
        out = np.empty((rows, padded), dtype=np.float32)
        blocks = buf.T.reshape(-1, ctx.block, rows).transpose(0, 2, 1)
        np.matmul(blocks, h, out=out.reshape(rows, -1, ctx.block).transpose(1, 0, 2))
    else:
        out = (buf.reshape(-1, ctx.block) @ h).reshape(rows, padded)
    out *= np.float32(1.0 / math.sqrt(ctx.block))
    return out


def rht_pair_identity_check(a, b, ctx: RhtContext) -> float:
    """Max absolute deviation of ``(ASH)(BSH)^T`` from ``A @ B.T``.

    Uses padded-width transforms so the identity holds for any contraction
    length; for unit-scale binary32 inputs the deviation stays below 1e-4.
    """
    ma = as_matrix(a)
    mb = as_matrix(b)
    if ma.shape[1] != ctx.dim or mb.shape[1] != ctx.dim:
        raise ValueError(
            f"operands must both have {ctx.dim} columns, "
            f"got {ma.shape[1]} and {mb.shape[1]}"
        )
    exact = ma.astype(np.float64) @ mb.astype(np.float64).T
    ta = rht_apply(ma, ctx)
    tb = rht_apply(mb, ctx)
    got = (ta @ tb.T).astype(np.float64)
    dev = np.abs(exact - got)
    return float(dev.max()) if dev.size else 0.0
