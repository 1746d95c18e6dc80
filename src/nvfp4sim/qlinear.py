"""Fully-quantized linear layer: forward, input gradient, weight gradient.

The layer computes ``y = x @ w.T`` with up to six independently configurable
quantizers, one per matmul operand:

    forward   y  = Q1(x)      @ Q2(w).T        (round-to-nearest)
    backward  dx = Q3(dy)     @ Q4(w_hat)      (stochastic by default)
              dw = Q5(dy.T)   @ Q6(x_hat)      (stochastic by default)

Every operand is quantized with 1x16 groups along its contraction axis
(weights optionally in 16x16 square tiles).  Site ``s`` is quantized when
``quantize_<s>`` is set, in the element format ``format_<s>``.  Q4 and Q6
consume the cached *dequantized* forward operands so the backward sees
exactly the tensors the forward multiplied; disabling that alignment
(``align_xhat=False``) makes Q6 quantize the raw activation instead.

Backward matmuls can rotate both operands with a shared signed block-Hadamard
transform along the contraction axis before quantization (``rht_dx`` /
``rht_dw``); the rotation is skipped when neither operand of that matmul is
quantized, so disabling every site reproduces the binary32 reference layer
bit-for-bit.  Sign vectors derive from ``(rht_seed, layer_tag, step, side)``
with side tags "dx" and "dw"; the backward takes ``step`` from the forward
cache, so both passes of one training step share it.

Outlier-channel retention splits the forward activation: selected columns
bypass low-bit quantization (kept in ``e4m3`` with a shared current scale,
``float16``, or ``float32``) while the complement is quantized with those
columns zeroed, and the matching weight-gradient columns are computed from
the cached activation in full precision.

``linear_forward(x, w, cfg, step)`` returns ``(y, cache)``; the cache holds
the step and the forward sites' clamp counts.
``linear_backward(dy, cache, cfg, rng)`` returns ``(dx, dw, clamps)``,
where ``clamps`` maps each quantized backward site to its clamp count.  The
stochastic backward consumes its generator in the fixed site order Q3, Q4,
Q5, Q6 (disabled sites draw nothing), which makes runs replayable from the
generator key alone.  ``rng`` is a numpy Generator or any object with its
``random(out=)``, the one call the rounding takes draws through, such as
:func:`~nvfp4sim.fpcodec.draw_ahead`'s.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional, Tuple

import numpy as np

from . import blockquant as bq
from . import fpcodec as fc
from . import hadamard as hd
from .blockquant import Orientation, OuterGranularity, as_matrix

__all__ = [
    "QUANTIZER_SITES",
    "OUTLIER_PRECISIONS",
    "OutlierStyle",
    "PrecisionMode",
    "OutlierConfig",
    "LayerQuantConfig",
    "LinearCache",
    "preset",
    "set_precision_mode",
    "select_outlier_channels",
    "linear_forward",
    "linear_backward",
]

F32 = np.float32

QUANTIZER_SITES = (
    "fwd_x",
    "fwd_w",
    "dy_for_dx",
    "w_for_dx",
    "dy_for_dw",
    "x_for_dw",
)

OUTLIER_PRECISIONS = ("e4m3", "float16", "float32")


class OutlierStyle(enum.Enum):
    LARGEST_NORM = "largest-norm"
    RANDOM = "random"
    NONE = "none"


class PrecisionMode(enum.Enum):
    FP4XFP4 = "fp4xfp4"
    FP6XFP4 = "fp6xfp4"
    FP6XFP6 = "fp6xfp6"


@dataclasses.dataclass(frozen=True)
class OutlierConfig:
    """Static set of activation channels kept out of the low-bit path."""

    channels: Tuple[int, ...]
    precision: str = "e4m3"

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if self.precision not in OUTLIER_PRECISIONS:
            raise ValueError(
                f"outlier precision must be one of {OUTLIER_PRECISIONS}, "
                f"got {self.precision!r}"
            )
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("outlier channels must be unique")


@dataclasses.dataclass(frozen=True)
class LayerQuantConfig:
    """Complete quantization recipe for one linear layer."""

    quantize_fwd_x: bool = True
    quantize_fwd_w: bool = True
    quantize_dy_for_dx: bool = True
    quantize_w_for_dx: bool = True
    quantize_dy_for_dw: bool = True
    quantize_x_for_dw: bool = True
    format_fwd_x: str = "e2m1"
    format_fwd_w: str = "e2m1"
    format_dy_for_dx: str = "e2m1"
    format_w_for_dx: str = "e2m1"
    format_dy_for_dw: str = "e2m1"
    format_x_for_dw: str = "e2m1"
    rht_dx: bool = True
    rht_dw: bool = True
    rht_block: int = hd.DEFAULT_BLOCK
    weight_block: Orientation = Orientation.ROW_GROUPS_1X16
    outer_granularity: OuterGranularity = OuterGranularity.BLOCK_1X128
    align_xhat: bool = True
    stochastic_backward: bool = True
    fp6_variant: str = "e3m2"
    outlier: Optional[OutlierConfig] = None
    layer_tag: str = "linear"
    rht_seed: int = 0

    def __post_init__(self):
        for name in (*(f"quantize_{s}" for s in QUANTIZER_SITES), "rht_dx", "rht_dw",
                     "align_xhat", "stochastic_backward"):
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        object.__setattr__(self, "weight_block", Orientation(self.weight_block))
        object.__setattr__(
            self, "outer_granularity", OuterGranularity(self.outer_granularity)
        )
        if self.weight_block is Orientation.COL_GROUPS_16X1:
            raise ValueError(
                "weight_block must be ROW_GROUPS_1X16 or SQUARE_16X16"
            )
        if (self.weight_block is Orientation.SQUARE_16X16
                and self.outer_granularity is not OuterGranularity.PER_TENSOR):
            raise ValueError("weight_block square takes outer_granularity per-tensor")
        for site in QUANTIZER_SITES:
            try:
                fc.get_format(getattr(self, f"format_{site}"))
            except ValueError as exc:
                raise ValueError(f"format_{site}: {exc}") from None
        if self.fp6_variant not in ("e3m2", "e2m3"):
            raise ValueError(f"fp6_variant must be e3m2 or e2m3, got {self.fp6_variant!r}")
        if self.rht_block < 2 or (self.rht_block & (self.rht_block - 1)) != 0:
            raise ValueError(f"rht_block must be a power of two >= 2, got {self.rht_block}")


_PRESETS = {
    "fp32": LayerQuantConfig(
        **{f"quantize_{s}": False for s in QUANTIZER_SITES},
        rht_dx=False,
        rht_dw=False,
        stochastic_backward=False,
    ),
    "fp4-base": LayerQuantConfig(),
    "fp4-full": LayerQuantConfig(),
    "fp4-rtn": LayerQuantConfig(
        rht_dx=False,
        rht_dw=True,
        weight_block=Orientation.SQUARE_16X16,
        outer_granularity=OuterGranularity.PER_TENSOR,
        align_xhat=False,
        stochastic_backward=False,
    ),
}


def preset(name: str) -> LayerQuantConfig:
    """Named layer recipes.

    * ``fp32``     — every site bypassed: the binary32 reference layer.
    * ``fp4-base`` — all six sites in FP4, rotations on both backward
      matmuls, 1x16 weight groups, 1x128 outer scaling blocks, aligned
      backward inputs, stochastic backward rounding.
    * ``fp4-full`` — same layer recipe as ``fp4-base``; outlier retention and
      oscillation suppression attach at the training-run level.
    * ``fp4-rtn``  — the deterministic vendor-style recipe: round-to-nearest
      everywhere, 16x16 weight tiles with one per-tensor outer scale,
      unaligned weight-gradient input, rotation on the weight-gradient
      matmul only.
    """
    recipe = _PRESETS.get(name) if isinstance(name, str) else None
    if recipe is None:
        raise ValueError(f"unknown preset {name!r}; choose from {tuple(_PRESETS)}")
    return recipe


def set_precision_mode(
    cfg: LayerQuantConfig, mode: PrecisionMode | str
) -> LayerQuantConfig:
    """Assign element formats for a precision mode.

    ``fp6xfp4`` lifts the activation-side operands — the forward activation,
    the output gradient feeding dx, and the activation feeding dw — to FP6
    while the weight-side operands and the output gradient feeding dw stay
    FP4; ``fp6xfp6`` lifts all six sites.
    """
    mode = PrecisionMode(mode)
    fp6 = cfg.fp6_variant
    if mode is PrecisionMode.FP4XFP4:
        fmts = dict.fromkeys(QUANTIZER_SITES, "e2m1")
    elif mode is PrecisionMode.FP6XFP4:
        fmts = dict.fromkeys(QUANTIZER_SITES, "e2m1")
        fmts["fwd_x"] = fp6
        fmts["dy_for_dx"] = fp6
        fmts["x_for_dw"] = fp6
    else:
        fmts = dict.fromkeys(QUANTIZER_SITES, fp6)
    return dataclasses.replace(
        cfg, **{f"format_{site}": fmt for site, fmt in fmts.items()}
    )


@dataclasses.dataclass
class LinearCache:
    """Forward-pass tensors the backward pass must see unchanged.

    ``x_raw`` is the layer input as given; ``step`` keys the backward
    rotation signs; ``clamp_counts`` holds the clamp counts of the quantized
    forward sites.
    """

    x_hat: np.ndarray
    w_hat: np.ndarray
    x_raw: np.ndarray
    step: int
    n: int
    d: int
    c: int
    clamp_counts: Dict[str, int]


# ── outlier helpers ──────────────────────────────────────────────────────────


def _cast_outlier(cols: np.ndarray, precision: str) -> np.ndarray:
    """High-precision passthrough for retained channels.

    ``e4m3`` uses one shared current scale (amax / 448) so values of any
    magnitude survive with FP8-relative error instead of saturating.
    """
    if precision == "float32":
        return cols.astype(F32, copy=True)
    if precision == "float16":
        return cols.astype(np.float16).astype(F32)
    amax = float(np.max(np.abs(cols))) if cols.size else 0.0
    if amax == 0.0:
        return np.zeros_like(cols)
    s = np.float32(amax / 448.0)
    return (fc.round_det(cols / s, fc.FP8_E4M3) * s).astype(F32)


def select_outlier_channels(
    calibration: np.ndarray,
    p: float,
    style: OutlierStyle | str = OutlierStyle.LARGEST_NORM,
    *,
    seed: int = 0,
    precision: str = "e4m3",
) -> OutlierConfig:
    """Pick round(p% of D) channels to retain, frozen for the run.

    D is the column count of the ``calibration`` activation matrix.
    ``largest-norm`` ranks channels by their L2 norm over its rows (ties
    broken by channel index); ``random`` samples uniformly from the seeded
    stream; ``none`` retains nothing.
    """
    style = OutlierStyle(style)
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"outlier ratio must be in [0, 100], got {p}")
    m = as_matrix(calibration)
    d = m.shape[1]
    if style is OutlierStyle.NONE:
        return OutlierConfig(channels=(), precision=precision)
    k = int(round(p / 100.0 * d))
    if k == 0:
        return OutlierConfig(channels=(), precision=precision)
    if style is OutlierStyle.RANDOM:
        rng = fc.stream(seed, "outlier-select")
        chosen = rng.choice(d, size=k, replace=False)
    else:
        sq = np.sum(m.astype(np.float64) ** 2, axis=0)
        chosen = np.argsort(-sq, kind="stable")[:k]
    return OutlierConfig(
        channels=tuple(sorted(int(c) for c in chosen)), precision=precision
    )


# ── quantizer plumbing ───────────────────────────────────────────────────────


def _quantize_site(cfg, site, m, orientation, mode, rng, clamps):
    """``Q_site(m)`` under ``cfg``'s ``quantize_<site>`` / ``format_<site>``.

    A bypassed site returns ``m`` itself; a quantized one records its clamp
    count under ``clamps[site]``.
    """
    if not getattr(cfg, f"quantize_{site}"):
        return m
    m_hat, clamps[site] = bq.quantize_dequantize(
        m,
        orientation,
        outer=cfg.outer_granularity,
        mode=mode,
        rng=rng,
        element_fmt=getattr(cfg, f"format_{site}"),
    )
    return m_hat


# the backward matmuls: side -> the sites of its left and right operands
_BACKWARD_SITES = {"dx": ("dy_for_dx", "w_for_dx"), "dw": ("dy_for_dw", "x_for_dw")}


def _backward_gemm(side, a, b, b_orientation, cfg, step, mode, rng, clamps):
    """``Q(a) @ Q(b)`` for the backward matmul ``side``, which contracts the
    last axis of ``a`` with the first of ``b``.

    When ``rht_<side>`` is set and either site is quantized, both operands
    are first rotated along that axis, keeping the padded width so the
    contraction stays exact.  Then ``a`` is quantized in 1x16 row groups and
    ``b`` in ``b_orientation``, drawing from ``rng`` in that order.
    """
    site_a, site_b = _BACKWARD_SITES[side]
    if getattr(cfg, f"rht_{side}") and (
        getattr(cfg, f"quantize_{site_a}") or getattr(cfg, f"quantize_{site_b}")
    ):
        ctx = hd.rht_context(a.shape[1], seed=cfg.rht_seed, layer=cfg.layer_tag,
                             step=step, side=side, block=cfg.rht_block)
        a, b = hd.rht_apply(a, ctx), hd.rht_apply(b.T, ctx).T
    a = _quantize_site(cfg, site_a, a, Orientation.ROW_GROUPS_1X16, mode, rng, clamps)
    b = _quantize_site(cfg, site_b, b, b_orientation, mode, rng, clamps)
    return a @ b


# ── forward ──────────────────────────────────────────────────────────────────


def linear_forward(
    x,
    w,
    cfg: LayerQuantConfig,
    step: int = 0,
) -> Tuple[np.ndarray, LinearCache]:
    """Quantized forward matmul ``y = x_hat @ w_hat.T`` returning the cache.

    Forward quantization is always round-to-nearest.
    """
    x = as_matrix(x)
    w = as_matrix(w)
    n, d = x.shape
    c, dw_cols = w.shape
    if dw_cols != d:
        raise ValueError(
            f"x has {d} input channels but w has {dw_cols}"
        )
    outlier = cfg.outlier if (cfg.outlier and cfg.outlier.channels) else None
    if outlier is not None:
        a_idx = np.asarray(outlier.channels, dtype=np.intp)
        if a_idx.min() < 0 or a_idx.max() >= d:
            raise ValueError(
                f"outlier channel indices must lie in [0, {d}), got {outlier.channels}"
            )

    clamps: Dict[str, int] = {}
    x_low = x
    if outlier is not None and cfg.quantize_fwd_x:
        x_low = x.copy()
        x_low[:, a_idx] = 0.0
    x_hat = _quantize_site(
        cfg, "fwd_x", x_low, Orientation.ROW_GROUPS_1X16, "det", None, clamps
    )
    if x_low is not x:
        x_hat[:, a_idx] = _cast_outlier(x[:, a_idx], outlier.precision)
    w_hat = _quantize_site(cfg, "fwd_w", w, cfg.weight_block, "det", None, clamps)

    y = x_hat @ w_hat.T
    cache = LinearCache(
        x_hat=x_hat,
        w_hat=w_hat,
        x_raw=x,
        step=step,
        n=n,
        d=d,
        c=c,
        clamp_counts=clamps,
    )
    return y, cache


# ── backward ─────────────────────────────────────────────────────────────────


def linear_backward(
    dy,
    cache: LinearCache,
    cfg: LayerQuantConfig,
    rng=None,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
    """Quantized backward pass returning ``(dx, dw, clamps)``.

    dx and dw are two calls of one rotate, quantize, multiply routine.
    Backward sites round stochastically when ``cfg.stochastic_backward`` is
    set (requires ``rng``, any object with numpy's ``random(out=)``),
    deterministically otherwise.  The generator is consumed in the fixed
    order Q3, Q4 (dx), then Q5, Q6 (dw), and the rotations take their step
    from ``cache.step``.  ``clamps`` maps each quantized backward site to its
    clamp count; ``cache`` is not modified.
    """
    dy = as_matrix(dy)
    if dy.shape != (cache.n, cache.c):
        raise ValueError(
            f"dy must have shape {(cache.n, cache.c)}, got {dy.shape}"
        )
    mode = "stoch" if cfg.stochastic_backward else "det"
    quantized = any(getattr(cfg, f"quantize_{s}") for s in QUANTIZER_SITES[2:])
    if mode == "stoch" and quantized and rng is None:
        raise ValueError("stochastic backward rounding requires an rng")
    clamps: Dict[str, int] = {}
    w_orient = (
        Orientation.SQUARE_16X16
        if cfg.weight_block is Orientation.SQUARE_16X16
        else Orientation.COL_GROUPS_16X1
    )
    # dx = Q3(dy) @ Q4(w_hat), contraction along the output channels
    dx = _backward_gemm("dx", dy, cache.w_hat, w_orient, cfg, cache.step, mode, rng, clamps)
    # dw = Q5(dy.T) @ Q6(x_hat or raw x), contraction along the batch
    x = cache.x_hat if cfg.align_xhat else cache.x_raw
    dw = _backward_gemm(
        "dw", dy.T, x, Orientation.COL_GROUPS_16X1, cfg, cache.step, mode, rng, clamps
    )

    if cfg.outlier and cfg.outlier.channels:
        a_idx = np.asarray(cfg.outlier.channels, dtype=np.intp)
        dw[:, a_idx] = dy.T @ cache.x_hat[:, a_idx]

    return dx, dw, clamps
