"""Error statistics and the Monte-Carlo gradient-bias bench.

Two jobs:

* ``error_stats`` summarizes how far an approximation sits from a reference
  tensor (MSE, worst absolute error, signal-to-quantization-noise ratio,
  relative Frobenius error).

* ``mc_backward_bias`` estimates the bias of the quantized backward pass by
  averaging many stochastic-rounding draws of ``(dx, dw)`` against the exact
  float64 gradients of the *dequantized* forward operands.  A configuration
  passes when every gradient element's deviation is within ``nsigma``
  standard errors plus a small float32 slack; ``boundary_matrix`` crafts
  inputs that sit just above quantization decision boundaries so that any
  systematic rounding preference (deterministic nearest rounding, unaligned
  weight-gradient activations) shows up as a bias far outside that band.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from . import fpcodec as fc
from . import qlinear as ql

__all__ = [
    "error_stats",
    "boundary_matrix",
    "BiasReport",
    "mc_backward_bias",
    "INPUT_CRAFTS",
]

F32 = np.float32

INPUT_CRAFTS = ("gaussian", "boundary", "signs")


# ── error statistics ─────────────────────────────────────────────────────────


def error_stats(reference, approx) -> Dict[str, float]:
    """Elementwise error summary of ``approx`` against ``reference``.

    Returns ``mse``, ``max_abs_err``, ``sqnr_db`` (ratio of signal power to
    error power in decibels, ``inf`` for an exact match) and ``rel_err_fro``
    (Frobenius norm of the error over that of the reference).

    The error, then its square, then the reference's square fill one float64
    array laid out like ``reference``, so each sum runs in the reference's
    memory order whatever the layout of ``approx``.
    """
    ref = np.asarray(reference)
    approx = np.asarray(approx)
    if ref.shape != approx.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {approx.shape}")
    if ref.size == 0:
        raise ValueError("error_stats needs at least one element")
    # a casting copy, then float64 ops in place: the values of ufuncs that
    # cast their float32 operands, without their buffered casts
    buf = np.empty_like(ref, dtype=np.float64)
    np.copyto(buf, approx)
    buf -= ref  # the error
    # max |err| with no |err| array; abs() turns a -0.0 maximum into +0.0
    max_abs = abs(float(np.maximum(buf.max(), -buf.min())))
    buf *= buf
    noise = float(np.sum(buf))
    np.copyto(buf, ref)
    buf *= buf
    signal = float(np.sum(buf))
    if noise == 0.0:
        sqnr = math.inf
        rel = 0.0
    elif signal == 0.0:
        sqnr = -math.inf
        rel = math.inf
    else:
        sqnr = 10.0 * math.log10(signal / noise)
        rel = math.sqrt(noise / signal)
    return {
        "mse": noise / ref.size,
        "max_abs_err": max_abs,
        "sqnr_db": sqnr,
        "rel_err_fro": rel,
    }


# ── crafted inputs ───────────────────────────────────────────────────────────

# FP4 magnitude grid points usable as "round down" anchors (6 is reserved for
# the block carrier) paired with the gap to the next representable magnitude.
_ANCHORS = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0], dtype=np.float64)
_GAPS = np.array([0.5, 0.5, 0.5, 1.0, 1.0, 2.0], dtype=np.float64)


def _boundary_from_rng(shape, rng, offset: float) -> np.ndarray:
    rows, cols = shape
    if cols % 16 != 0:
        raise ValueError(f"boundary matrix needs a column count divisible by 16, got {cols}")
    if not 0.0 <= offset < 0.5:
        raise ValueError("offset must be in [0, 0.5) so nearest rounding lands on the anchor")
    pick = rng.integers(0, len(_ANCHORS), size=shape)
    latent = _ANCHORS[pick] + offset * _GAPS[pick]
    m = latent * 448.0
    # a full-magnitude carrier at the head of every 1x16 block pins the block
    # scale to exactly 448 (global scale 1), so every other element's latent
    # sits exactly where it was crafted
    m[:, ::16] = 2688.0
    signs = np.where(rng.random(size=shape) < 0.5, -1.0, 1.0)
    return (m * signs).astype(F32)


def boundary_matrix(shape: Tuple[int, int], seed: int, offset: float = 0.3) -> np.ndarray:
    """Matrix whose non-carrier elements sit ``offset`` of a gap above an FP4
    grid point when quantized along rows, so nearest rounding always rounds
    them toward zero while stochastic rounding stays unbiased."""
    return _boundary_from_rng(shape, fc.stream(seed, "boundary-matrix"), offset)


def _craft(kind: str, shape: Tuple[int, int], seed: int, tag: str) -> np.ndarray:
    if kind == "gaussian":
        return fc.stream(seed, "bench", tag).standard_normal(shape).astype(F32)
    if kind == "boundary":
        return _boundary_from_rng(shape, fc.stream(seed, "bench", tag, "boundary"), 0.3)
    if kind == "signs":
        rng = fc.stream(seed, "bench", tag, "signs")
        return np.where(rng.random(size=shape) < 0.5, F32(-1.0), F32(1.0))
    raise ValueError(f"unknown input craft {kind!r}; choose from {INPUT_CRAFTS}")


# ── Monte-Carlo bias bench ───────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class BiasReport:
    """Outcome of one ``mc_backward_bias`` run."""

    passed: bool
    draws: int
    nsigma: float
    shape: Tuple[int, int, int]
    seed: int
    max_z: float
    max_z_dx: float
    max_z_dw: float
    worst: Dict[str, object]
    backward_clamps: int
    outlier_channels: Tuple[int, ...]


def _z_scores(s1, s2, target, draws: int, nsigma: float):
    """Standardized deviation of each MC mean from its float64 target.

    ``z <= nsigma`` is equivalent to
    ``|mean - target| <= nsigma * sd/sqrt(draws) + (1e-5 + 4e-6*|target|)``;
    the additive slack absorbs float32 accumulation round-off so an exact
    (zero-variance) estimator cannot fail on dust.
    """
    mean = s1 / draws
    var = np.maximum(s2 - draws * mean * mean, 0.0) / (draws - 1)
    sem = np.sqrt(var) / math.sqrt(draws)
    slack = 1e-5 + 4e-6 * np.abs(target)
    return np.abs(mean - target) / (sem + slack / nsigma), mean, sem


def mc_backward_bias(
    cfg: ql.LayerQuantConfig,
    *,
    shape: Tuple[int, int, int] = (8, 32, 16),
    draws: int = 1000,
    seed: int = 0,
    nsigma: float = 5.0,
    dy_craft: str = "gaussian",
    x_craft: str = "gaussian",
    w_craft: str = "gaussian",
    outlier_percent: Optional[float] = None,
    outlier_style: str = "largest-norm",
) -> BiasReport:
    """Estimate the backward-pass bias of ``cfg`` by Monte Carlo.

    ``shape`` is ``(n, d, c)``: activations ``x`` are ``(n, d)``, weights
    ``w`` are ``(c, d)``, and the output gradient is ``(n, c)``.  The fixed
    operands are drawn once per craft; the forward pass (deterministic) runs
    once, and ``draws`` independent backward passes are averaged against the
    exact float64 gradients ``dy @ w_hat`` and ``dy.T @ x_hat`` of the cached
    dequantized operands.  Each gradient element must land within ``nsigma``
    standard errors (plus float32 slack); the report records the worst
    standardized deviation per gradient and overall.

    When ``outlier_percent`` is given, outlier channels are selected from the
    bench's own activation matrix and retained at the configured precision.
    """
    n, d, c = shape
    if draws < 2:
        raise ValueError(f"draws must be >= 2 to estimate a standard error, got {draws}")
    if not (math.isfinite(nsigma) and nsigma > 0):
        raise ValueError(f"nsigma must be a positive finite number, got {nsigma}")
    x = _craft(x_craft, (n, d), seed, "x")
    w = _craft(w_craft, (c, d), seed, "w")
    dy = _craft(dy_craft, (n, c), seed, "dy")

    if outlier_percent is not None:
        out_cfg = ql.select_outlier_channels(
            x, outlier_percent, outlier_style, seed=seed
        )
        cfg = dataclasses.replace(cfg, outlier=out_cfg)
    channels = cfg.outlier.channels if cfg.outlier else ()

    _, cache = ql.linear_forward(x, w, cfg, step=0)
    targets = {
        "dx": dy.astype(np.float64) @ cache.w_hat.astype(np.float64),
        "dw": dy.T.astype(np.float64) @ cache.x_hat.astype(np.float64),
    }
    sums = {g: (np.zeros_like(t), np.zeros_like(t)) for g, t in targets.items()}
    backward_clamps = 0
    for i in range(draws):
        *grads, clamps = ql.linear_backward(dy, cache, cfg, rng=fc.stream(seed, "mc", i))
        for (s1, s2), g in zip(sums.values(), grads):
            g64 = g.astype(np.float64)
            s1 += g64
            s2 += g64 * g64
        backward_clamps += sum(clamps.values())

    stats = {g: _z_scores(*sums[g], t, draws, nsigma) for g, t in targets.items()}
    max_z = {g: float(np.max(z)) for g, (z, _, _) in stats.items()}
    grad = max(max_z, key=max_z.get)  # the first name wins a tie
    z, mean, sem = stats[grad]
    idx = np.unravel_index(int(np.argmax(z)), z.shape)
    worst = {
        "grad": grad,
        "index": [int(i) for i in idx],
        "mean": float(mean[idx]),
        "target": float(targets[grad][idx]),
        "sem": float(sem[idx]),
        "z": float(z[idx]),
    }
    return BiasReport(
        passed=bool(max_z[grad] <= nsigma),
        draws=draws,
        nsigma=nsigma,
        shape=(n, d, c),
        seed=seed,
        max_z=max_z[grad],
        max_z_dx=max_z["dx"],
        max_z_dw=max_z["dw"],
        worst=worst,
        backward_clamps=backward_clamps,
        outlier_channels=channels,
    )
