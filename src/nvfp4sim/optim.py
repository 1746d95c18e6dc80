"""AdamW with decoupled weight decay and a warmup-then-cosine LR schedule.

Master weights stay binary32 throughout; the optimizer touches only them and
its own moment buffers, never the quantized views.  Decay applies to matrix
parameters only (``ndim >= 2``) — bias vectors, norm gains, and other 1-D
parameters are exempt, following the usual transformer training convention.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

F32 = np.float32

__all__ = ["AdamW", "CosineSchedule"]


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class CosineSchedule:
    """Linear warmup from 0 to ``peak_lr``, then cosine decay to ``floor_lr``.

    ``lr_at(0)`` is 0 when there is a warmup phase, the peak is reached
    exactly at ``warmup_steps``, and the floor exactly at ``total_steps``;
    later steps stay at the floor.
    """

    peak_lr: float
    total_steps: int
    warmup_steps: int = 0
    floor_lr: float = 0.0

    def __post_init__(self):
        for name in ("total_steps", "warmup_steps"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("peak_lr", "floor_lr"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("warmup_steps must lie in [0, total_steps]")
        if not 0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be a positive finite number, got {self.peak_lr!r}")
        if not 0 <= self.floor_lr <= self.peak_lr:
            raise ValueError("floor_lr must lie in [0, peak_lr]")

    def lr_at(self, step: int) -> float:
        step = min(max(step, 0), self.total_steps)
        if step < self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        span = self.total_steps - self.warmup_steps
        if span == 0:
            return self.floor_lr
        frac = (step - self.warmup_steps) / span
        return self.floor_lr + (self.peak_lr - self.floor_lr) * 0.5 * (
            1.0 + math.cos(math.pi * frac)
        )


class AdamW:
    """Decoupled-decay Adam over a named parameter dict, updated in place.

    ``params`` maps names to float32 arrays that the optimizer will mutate;
    decay is skipped for parameters with fewer than two dimensions.
    """

    def __init__(self, params, betas=(0.9, 0.95), eps=1e-8, weight_decay=0.0):
        if not (isinstance(betas, (list, tuple)) and len(betas) == 2
                and all(_is_number(b) and 0 <= b < 1 for b in betas)):
            raise ValueError(f"betas must be two numbers in [0, 1), got {betas!r}")
        if not (_is_number(eps) and 0 < eps < math.inf):
            raise ValueError(f"eps must be a positive finite number, got {eps!r}")
        if not (_is_number(weight_decay) and 0 <= weight_decay < math.inf):
            raise ValueError(
                f"weight_decay must be a nonnegative finite number, got {weight_decay!r}")
        self.params = params
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads, lr: float) -> None:
        if set(grads) != set(self.params):
            raise KeyError(
                f"gradient keys {sorted(grads)} do not match parameters "
                f"{sorted(self.params)}"
            )
        self.t += 1
        b1, b2 = self.betas
        c1 = F32(1.0 - b1**self.t)
        c2 = F32(1.0 - b2**self.t)
        lr32 = F32(lr)
        eps = F32(self.eps)
        # Each update runs in place through two scratch buffers, op for op:
        #   m += (1 - b1) * (g - m);  v += (1 - b2) * (g * g - v)
        #   w -= lr * ((m / c1) / (sqrt(v / c2) + eps) [+ wd * w])
        for k, w in self.params.items():
            g = np.asarray(grads[k], dtype=F32)
            m, v = self.m[k], self.v[k]
            tmp1 = np.subtract(g, m)
            m += np.multiply(F32(1.0 - b1), tmp1, out=tmp1)
            tmp2 = np.multiply(g, g)
            tmp2 -= v
            v += np.multiply(F32(1.0 - b2), tmp2, out=tmp2)
            update = np.divide(m, c1, out=tmp1)
            denom = np.divide(v, c2, out=tmp2)
            np.sqrt(denom, out=denom)
            denom += eps
            update /= denom
            if w.ndim >= 2 and self.weight_decay:
                update += np.multiply(F32(self.weight_decay), w, out=tmp2)
            w -= np.multiply(lr32, update, out=update)
