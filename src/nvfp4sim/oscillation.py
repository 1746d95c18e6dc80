"""Weight-oscillation tracking and periodic reset suppression.

Near the end of low-precision training a master weight can sit so close to a
quantization-bin boundary that tiny optimizer steps flip its quantized value
back and forth between two adjacent codes.  The machinery here identifies
such elements and stabilizes them:

  * a per-element tracker accumulates, over a detection window, the distance
    traveled by the master weights (``dist_m``) and by their quantized images
    (``dist_q``);
  * the oscillation risk is the ratio ``dist_q / dist_m`` — large when the
    quantized value keeps jumping although the master weight barely moves;
  * suppression resets every high-risk element to the center of its current
    bin, i.e. to its own dequantized value, which leaves the very next
    quantized forward pass bit-identical while giving the optimizer a fresh
    trajectory away from the boundary.

A reset is only loss-neutral while the scale chain survives it, so any
element whose rewrite could move a block amax is left alone: elements on the
grid's maximum-magnitude code (clamped ones included), the block's true amax
carrier by master magnitude — which can sit on a low code when an extreme
inner/outer dynamic range drives the block scale into the subnormal range of
its storage format — and elements whose reset target would exceed the block
amax and take the carrier role over.  Rewriting any of these would re-derive
the scale chain and silently shift every other element in the block.

``SuppressionSchedule.phase`` gives each step's place in the schedule: once
suppression starts, statistics accumulate over the first ``t_accu + 1`` steps
of every period and one suppression fires immediately after the window closes.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from . import blockquant as bq

F32 = np.float32

__all__ = [
    "OscillationTracker",
    "QuantizedWeightView",
    "SuppressionSchedule",
    "double_block_weight_view",
    "osci_risk",
    "oscillation_suppress",
    "update_oscillation_stats",
]


# ── quantizer views ──────────────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True, eq=False)
class QuantizedWeightView:
    """A weight tensor as the quantizer currently sees it.

    ``values`` is the dequantized image Q(w) under live scales (recomputed
    from the weights themselves, exactly as a forward pass would).
    ``at_max_code`` flags elements whose magnitude landed on the grid's top
    code, and ``block_amax`` (when the view is block-scaled) carries each
    element's inner-block amax of the master weights; both feed the
    scale-preservation exclusions in :func:`oscillation_suppress`. The
    arrays may be views of a padded work grid: F-ordered for column groups,
    and strided where the grid is padded.
    """

    values: np.ndarray
    at_max_code: np.ndarray
    block_amax: np.ndarray | None = None


def double_block_weight_view(orientation, outer=None, element_fmt: str = "e2m1"):
    """A quantizer view backed by the double-block weight quantizer.

    Returns a callable ``view(w) -> QuantizedWeightView`` that quantizes
    deterministically with scales derived from ``w`` itself — the same
    product the layer's forward pass consumes at that step. One pass of the
    value pipeline gives all three arrays, as logical views of its work
    grids rather than C-ordered copies; no codes are formed.
    """
    orientation = bq.Orientation(orientation)
    bq.element_format(element_fmt)  # a bad name fails here, not at the first view

    def view(w) -> QuantizedWeightView:
        return QuantizedWeightView(*bq._weight_view(w, orientation, outer, element_fmt))

    return view


# ── tracker ──────────────────────────────────────────────────────────────────


@dataclasses.dataclass(eq=False)
class OscillationTracker:
    """Per-element trajectory statistics for one weight tensor.

    ``dist_m``/``dist_q`` accumulate master / quantized travel distances over
    the current detection window; ``w_prev``/``q_prev`` snapshot the weights
    and their quantized image at the previous tracked step, so each step's
    quantized value is evaluated once, under that step's own scales.
    """

    dist_m: np.ndarray
    dist_q: np.ndarray
    w_prev: np.ndarray | None = None
    q_prev: np.ndarray | None = None

    @classmethod
    def zeros(cls, shape) -> "OscillationTracker":
        return cls(
            dist_m=np.zeros(shape, F32),
            dist_q=np.zeros(shape, F32),
        )

    @property
    def shape(self):
        return self.dist_m.shape


def update_oscillation_stats(weights, quantizer_view, tracker: OscillationTracker, t0: int):
    """Advance the tracker by one step of the detection window.

    ``t0 = 0`` opens a fresh window: accumulators are zeroed and the current
    weights (and their quantized image) become the snapshot.  ``t0 > 0`` adds
    ``|w - w'|`` to ``dist_m`` and ``|Q(w) - Q(w')|`` to ``dist_q``, then
    moves the snapshot forward.  A fresh tracker fed a mid-window step only
    snapshots, so detection may start at any phase without garbage distances.
    """
    w = np.ascontiguousarray(weights, dtype=F32)
    if w.shape != tracker.shape:
        raise ValueError(f"weights shape {w.shape} does not match tracker {tracker.shape}")
    q = quantizer_view(w).values
    if t0 == 0 or tracker.w_prev is None:
        tracker.dist_m.fill(0.0)
        tracker.dist_q.fill(0.0)
    else:
        tracker.dist_m += np.abs(w - tracker.w_prev)
        tracker.dist_q += np.abs(q - tracker.q_prev)
    tracker.w_prev = w.copy()
    tracker.q_prev = q
    return tracker


def osci_risk(tracker: OscillationTracker) -> np.ndarray:
    """Per-element oscillation risk ``dist_q / dist_m`` (0 where ``dist_m`` is 0).

    The degenerate case is real: a frozen master weight's quantized value can
    still move when another element drags the block scale — that is scale
    drift, not oscillation, so it scores 0.
    """
    risk = np.zeros(tracker.shape, F32)
    np.divide(tracker.dist_q, tracker.dist_m, out=risk, where=tracker.dist_m > 0)
    return risk


def oscillation_suppress(weights, quantizer_view, tracker: OscillationTracker, tau_osci):
    """Reset every element with risk >= ``tau_osci`` to its current bin center.

    The bin center is the element's live dequantized value, so immediately
    after the reset the quantized tensor — codes and both scale levels — is
    bit-identical to the one before it.  Elements whose rewrite could move a
    block amax are never reset (see the module docstring).  Returns the
    rewritten copy of ``weights`` and the number of elements reset.

    Dequantization normalizes zeros to +0.0, but a negative master weight in
    the zero bin carries a signed zero code; copying the master's sign onto
    the reset value (a no-op for nonzero bins) keeps even those codes stable.
    """
    w = np.ascontiguousarray(weights, dtype=F32)
    if w.shape != tracker.shape:
        raise ValueError(f"weights shape {w.shape} does not match tracker {tracker.shape}")
    view = quantizer_view(w)
    excluded = view.at_max_code
    if view.block_amax is not None:
        excluded = (
            excluded
            | (np.abs(w) == view.block_amax)
            | (np.abs(view.values) > view.block_amax)
        )
    mask = (osci_risk(tracker) >= F32(tau_osci)) & ~excluded
    out = w.copy()
    out[mask] = np.copysign(view.values[mask], w[mask])
    return out, int(np.count_nonzero(mask))


# ── scheduling ───────────────────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class SuppressionSchedule:
    """When to track and when to fire suppression during a training run."""

    t_max: int
    t_start: int
    t_period: int = 200
    t_accu: int = 50
    tau_osci: float = 8.0

    def __post_init__(self):
        for name in ("t_max", "t_start", "t_period", "t_accu"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.tau_osci, numbers.Real) or isinstance(self.tau_osci, bool):
            raise ValueError(f"tau_osci must be a number, got {self.tau_osci!r}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not 0 <= self.t_start <= self.t_max:
            raise ValueError("t_start must lie in [0, t_max]")
        if not 0 <= self.t_accu < self.t_period - 1:  # else no window closes
            raise ValueError(f"t_accu must lie in [0, t_period - 1), got t_accu "
                             f"{self.t_accu} with t_period {self.t_period}")
        if not (math.isfinite(self.tau_osci) and self.tau_osci > 0):
            raise ValueError("tau_osci must be a positive finite number")

    def phase(self, step: int) -> int | None:
        """Training step ``step``'s (1-based) place in its period, or None.

        From ``t_start`` on, the first ``t_accu + 1`` steps of each period give
        their window position 0..t_accu, the ``t0`` of
        :func:`update_oscillation_stats`; the next step gives ``t_accu + 1``
        and fires suppression; the rest of the period, and every step before
        ``t_start``, give None.
        """
        if step < 1:
            raise ValueError("step must be >= 1")
        t0 = step % self.t_period
        if step < self.t_start or t0 > self.t_accu + 1:
            return None
        return t0
