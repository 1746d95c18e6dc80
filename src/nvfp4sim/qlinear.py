"""Fully-quantized linear layer: forward, input gradient, weight gradient.

The layer computes ``y = x @ w.T`` with up to six independently configurable
quantizers, one per matmul operand:

    forward   y  = Q1(x)      @ Q2(w).T        (round-to-nearest)
    backward  dx = Q3(dy)     @ Q4(w_hat)      (stochastic by default)
              dw = Q5(dy.T)   @ Q6(x_hat)      (stochastic by default)

Every operand is quantized with 1x16 groups along its contraction axis
(weights optionally in 16x16 square tiles).  Site ``s`` is quantized when the
recipe's ``sites`` name it, in the element format ``site_format(s)`` that the
``precision`` mode ``<activation side>x<weight side>`` gives it.  Q4 and Q6
consume the cached *dequantized* forward operands so the backward sees exactly
the tensors the forward multiplied; disabling that alignment
(``align_xhat=False``) makes Q6 quantize the raw activation instead.

The backward matmuls that ``rht_sides`` names ("dx", "dw") rotate both
operands with a shared signed block-Hadamard transform along the contraction
axis before quantization; the rotation is skipped when neither operand of
that matmul is quantized, so empty ``sites`` reproduce the binary32 reference
layer bit-for-bit.  Sign vectors derive from ``(rht_seed, layer_tag, step,
side)``; the backward takes ``step`` from the forward cache, so both passes
of one training step share it.

Outlier-channel retention splits the forward activation: selected columns
bypass low-bit quantization (kept in ``e4m3`` with a shared current scale,
``float16``, or ``float32``) while the complement is quantized with those
columns zeroed, and the matching weight-gradient columns are computed from
the cached activation in full precision.

``linear_forward(x, w, cfg, step)`` returns ``(y, cache)``; the cache holds
the step and the forward sites' clamp counts, and the raw layer input
``x_raw`` only when ``align_xhat`` is off (``None`` otherwise); a backward
under the unaligned recipe rejects a cache made without it.
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
    "name_set",
    "preset",
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

# the backward matmuls: side -> the sites of its left and right operands
_BACKWARD_SITES = {"dx": ("dy_for_dx", "w_for_dx"), "dw": ("dy_for_dw", "x_for_dw")}

OUTLIER_PRECISIONS = ("e4m3", "float16", "float32")


class OutlierStyle(enum.Enum):
    LARGEST_NORM = "largest-norm"
    RANDOM = "random"


class PrecisionMode(enum.Enum):
    """A layer's six site formats as ``<activation side>x<weight side>`` in
    :data:`~nvfp4sim.blockquant.ELEMENT_FORMATS` names.  The activation side
    is Q1, Q3 and Q6 (``fwd_x``, ``dy_for_dx``, ``x_for_dw``: the activation
    and the output gradient feeding dx); the weight side is the other three."""

    E2M1XE2M1 = "e2m1xe2m1"
    E3M2XE2M1 = "e3m2xe2m1"
    E2M3XE2M1 = "e2m3xe2m1"
    E3M2XE3M2 = "e3m2xe3m2"
    E2M3XE2M3 = "e2m3xe2m3"


# mode -> site -> element format, read once per quantizer call
_SITE_FORMATS = {
    mode: {s: mode.value.split("x")[s not in ("fwd_x", "dy_for_dx", "x_for_dw")]
           for s in QUANTIZER_SITES}
    for mode in PrecisionMode
}


@dataclasses.dataclass(frozen=True)
class OutlierConfig:
    """Static set of activation channels kept out of the low-bit path."""

    channels: Tuple[int, ...]
    precision: str = "e4m3"

    def __post_init__(self):
        if not isinstance(self.channels, (list, tuple)):
            raise ValueError(f"outlier channels must be a list of integers, got {self.channels!r}")
        bad = [c for c in self.channels if not isinstance(c, (int, np.integer))
               or isinstance(c, bool)]
        if bad:
            raise ValueError(f"outlier channels must be integers, got {bad[0]!r}")
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if min(self.channels, default=0) < 0 or len(set(self.channels)) != len(self.channels):
            raise ValueError(f"outlier channels must be distinct and >= 0, got {self.channels}")
        if self.precision not in OUTLIER_PRECISIONS:
            raise ValueError(
                f"outlier precision must be one of {OUTLIER_PRECISIONS}, "
                f"got {self.precision!r}"
            )


def name_set(field: str, value, valid: Tuple[str, ...]) -> Tuple[str, ...]:
    """``value``, a list or tuple of distinct names from ``valid``, as a tuple
    in the order of ``valid``; anything else is a ValueError naming ``field``."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{field} must be a list of strings from {list(valid)}, got {value!r}")
    unknown = [v for v in value if v not in valid]
    if unknown:
        raise ValueError(f"{field} names unknown {unknown}; valid names are {list(valid)}")
    if len(set(value)) != len(value):
        raise ValueError(f"{field} names a value twice: {list(value)}")
    return tuple(v for v in valid if v in value)


@dataclasses.dataclass(frozen=True)
class LayerQuantConfig:
    """Complete quantization recipe for one linear layer.  ``sites`` names
    the quantized sites, from :data:`QUANTIZER_SITES`, and ``rht_sides`` the
    rotated backward matmuls, from ("dx", "dw"): each a list or tuple of
    distinct names, stored in that order."""

    sites: Tuple[str, ...] = QUANTIZER_SITES
    precision: PrecisionMode = PrecisionMode.E2M1XE2M1
    rht_sides: Tuple[str, ...] = tuple(_BACKWARD_SITES)
    rht_block: int = hd.DEFAULT_BLOCK
    weight_block: Orientation = Orientation.ROW_GROUPS_1X16
    outer_granularity: OuterGranularity = OuterGranularity.BLOCK_1X128
    align_xhat: bool = True
    stochastic_backward: bool = True
    outlier: Optional[OutlierConfig] = None
    layer_tag: str = "linear"
    rht_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sites", name_set("sites", self.sites, QUANTIZER_SITES))
        object.__setattr__(self, "rht_sides",
                           name_set("rht_sides", self.rht_sides, tuple(_BACKWARD_SITES)))
        for name in ("align_xhat", "stochastic_backward"):
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name, kind in (("weight_block", Orientation),
                           ("outer_granularity", OuterGranularity),
                           ("precision", PrecisionMode)):
            try:
                object.__setattr__(self, name, kind(getattr(self, name)))
            except ValueError:
                raise ValueError(f"{name} must be one of {[m.value for m in kind]}, "
                                 f"got {getattr(self, name)!r}") from None
        if self.weight_block is Orientation.COL_GROUPS_16X1:
            raise ValueError(f"weight_block must be 'row' or 'square', "
                             f"got {self.weight_block.value!r}")
        if (self.weight_block is Orientation.SQUARE_16X16
                and self.outer_granularity is not OuterGranularity.PER_TENSOR):
            raise ValueError("weight_block square takes outer_granularity per-tensor")
        hd.check_block(self.rht_block, "rht_block")

    def site_format(self, site: str) -> str:
        """The element format ``precision`` gives ``site``."""
        return _SITE_FORMATS[self.precision][site]

    @property
    def format_fwd_w(self) -> str:  # the format the weight's oscillation view reads
        return self.site_format("fwd_w")

    @property
    def quantize_fwd_w(self) -> bool:  # whether the weight has an oscillation view
        return "fwd_w" in self.sites


_PRESETS = {
    "fp32": LayerQuantConfig(sites=(), rht_sides=(), stochastic_backward=False),
    "fp4-base": LayerQuantConfig(),
    "fp4-full": LayerQuantConfig(),
    "fp4-rtn": LayerQuantConfig(
        rht_sides=("dw",),
        weight_block=Orientation.SQUARE_16X16,
        outer_granularity=OuterGranularity.PER_TENSOR,
        align_xhat=False,
        stochastic_backward=False,
    ),
}


def preset(name: str) -> LayerQuantConfig:
    """Named layer recipes, each in ``precision`` e2m1xe2m1 until a run's
    ``cfg_overrides`` or mid-run switch sets another mode.

    * ``fp32``     — no site quantized and no matmul rotated: the binary32
      reference layer.
    * ``fp4-base`` — all six sites in FP4, rotations on both backward
      matmuls, 1x16 weight groups, 1x128 outer scaling blocks, aligned
      backward inputs, stochastic backward rounding.
    * ``fp4-full`` — same layer recipe as ``fp4-base``; outlier retention and
      oscillation suppression attach at the training-run level.  The name
      stays only because the benchmark's workloads name it: deleting it
      takes a benchmark-only change first.
    * ``fp4-rtn``  — the deterministic vendor-style recipe: round-to-nearest
      everywhere, 16x16 weight tiles with one per-tensor outer scale,
      unaligned weight-gradient input, rotation on the weight-gradient
      matmul only.
    """
    recipe = _PRESETS.get(name) if isinstance(name, str) else None
    if recipe is None:
        raise ValueError(f"unknown preset {name!r}; choose from {tuple(_PRESETS)}")
    return recipe


@dataclasses.dataclass
class LinearCache:
    """Forward-pass tensors the backward pass must see unchanged.

    ``x_raw`` is the layer input as given, held only when the forward ran
    with ``align_xhat`` off (the one recipe whose Q6 reads it) and ``None``
    otherwise; ``step`` keys the backward rotation signs; ``clamp_counts``
    holds the clamp counts of the quantized forward sites.
    """

    x_hat: np.ndarray
    w_hat: np.ndarray
    x_raw: Optional[np.ndarray]
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
    stream.  A ratio of 0 retains nothing.
    """
    style = OutlierStyle(style)
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"outlier ratio must be in [0, 100], got {p}")
    m = as_matrix(calibration)
    d = m.shape[1]
    k = int(round(p / 100.0 * d))
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
    """``Q_site(m)`` when ``site`` is one of ``cfg.sites``, in its format.

    A bypassed site returns ``m`` itself; a quantized one records its clamp
    count under ``clamps[site]``.
    """
    if site not in cfg.sites:
        return m
    m_hat, clamps[site] = bq.quantize_dequantize(
        m,
        orientation,
        outer=cfg.outer_granularity,
        mode=mode,
        rng=rng,
        element_fmt=cfg.site_format(site),
    )
    return m_hat


def _backward_gemm(side, a, b, b_orientation, cfg, step, mode, rng, clamps):
    """``Q(a) @ Q(b)`` for the backward matmul ``side``, which contracts the
    last axis of ``a`` with the first of ``b``.

    When ``cfg.rht_sides`` names ``side`` and either site is quantized, both
    operands are first rotated along that axis, keeping the padded width so
    the contraction stays exact.  Then ``a`` is quantized in 1x16 row groups and
    ``b`` in ``b_orientation``, drawing from ``rng`` in that order.
    """
    site_a, site_b = _BACKWARD_SITES[side]
    if side in cfg.rht_sides and (site_a in cfg.sites or site_b in cfg.sites):
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
        if a_idx.max() >= d:
            raise ValueError(
                f"outlier channel indices must lie in [0, {d}), got {outlier.channels}"
            )

    clamps: Dict[str, int] = {}
    x_low = x
    if outlier is not None and "fwd_x" in cfg.sites:
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
        x_raw=None if cfg.align_xhat else x,
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
    clamp count; ``cache`` is not modified.  With ``cfg.align_xhat`` off the
    cache must come from a forward under that recipe, which holds ``x_raw``.
    """
    dy = as_matrix(dy)
    if dy.shape != (cache.n, cache.c):
        raise ValueError(
            f"dy must have shape {(cache.n, cache.c)}, got {dy.shape}"
        )
    if not cfg.align_xhat and cache.x_raw is None:
        raise ValueError(
            "align_xhat is off but the cache was made with it on, so it holds "
            "no raw layer input"
        )
    mode = "stoch" if cfg.stochastic_backward else "det"
    quantized = any(s in cfg.sites for s in QUANTIZER_SITES[2:])
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
