"""Outside-in op clock and span tracer.

The benchmark changes no program code. Instead it replaces attributes of the
program's modules and classes with wrappers, and puts the originals back
when done:

* the *op marker* wraps the tasks' ``batch`` method. A training step starts
  when the trainer asks for the train batch of a step ``>= 1`` (step 0 is
  the outlier-calibration batch). The runner ends the last step when
  ``train()`` returns. Codec ops are opened and closed by the runner.
* the *span tracer* (traced runs only) wraps one public function or method
  per layer boundary. Spans nest on a stack; a span's self time is its
  duration minus the durations of its direct child spans, so the self times
  of one op sum to the op's root span. Counts are taken at the same
  boundaries, from the arguments and results of the wrapped calls.

Only work inside an open op is recorded; calls outside any op (calibration,
output checks) pass straight through. Ops opened as untimed (warm-up) are
recorded and then discarded.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

PACKAGE = "nvfp4sim"

# the stated tolerance of the self-time check: per op, the self times of all
# spans, root included, must sum to the root's duration within this share
SELF_SUM_TOL = 1e-3


def _elems(key):
    def count(counts, args, out):
        counts[key] += int(np.size(args[0]))
    return count


def _qdq_counts(counts, args, out):
    counts["blockquant.quantize_dequantize.elems"] += int(np.size(args[0]))
    counts["blockquant.clamp_events"] += int(out[1])


def _qdb_counts(counts, args, out):
    counts["blockquant.clamp_events"] += int(out.clamp_count)


def _fwd_flops(counts, args, out):
    n, d = np.shape(args[0])
    c = np.shape(args[1])[0]
    counts["qlinear.gemm_flops"] += 2 * n * d * c


def _bwd_flops(counts, args, out):
    cache, cfg = args[1], args[2]
    # dx and dw GEMMs, plus the full-precision outlier-column fix-up
    flops = 4 * cache.n * cache.c * cache.d
    if cfg.outlier is not None:
        flops += 2 * cache.c * cache.n * len(cfg.outlier.channels)
    counts["qlinear.gemm_flops"] += flops


def _resets(counts, args, out):
    counts["oscillation.resets"] += int(out[1])


def _file_bytes(counts, args, out):
    counts["matrixio.bytes"] += os.path.getsize(args[0])


# (span name, module, attribute, counter). An attribute "Cls.meth"
# is a method of one class, "*.meth" the method of every class of the
# module that defines it. Missing attributes are skipped and reported.
SPANS = (
    ("fpcodec.round_det", "fpcodec", "_mag_round_det",
     _elems("fpcodec.round_det.elems")),
    ("fpcodec.round_stoch", "fpcodec", "_mag_round_stoch",
     _elems("fpcodec.round_stoch.elems")),
    ("fpcodec.round_scale_e4m3", "fpcodec", "round_scale_e4m3", None),
    ("fpcodec.stream", "fpcodec", "stream", None),
    ("blockquant.quantize_dequantize", "blockquant", "quantize_dequantize", _qdq_counts),
    ("blockquant.quantize_double_block", "blockquant", "quantize_double_block", _qdb_counts),
    ("blockquant.quantize_with_scales", "blockquant", "quantize_with_scales", None),
    ("blockquant.dequantize", "blockquant", "dequantize", None),
    ("blockquant.element_block_amax", "blockquant", "element_block_amax", None),
    ("hadamard.rht_apply", "hadamard", "rht_apply",
     _elems("hadamard.rht_apply.elems")),
    ("hadamard.rht_context", "hadamard", "rht_context", None),
    ("qlinear.linear_forward", "qlinear", "linear_forward", _fwd_flops),
    ("qlinear.linear_backward", "qlinear", "linear_backward", _bwd_flops),
    ("oscillation.update_oscillation_stats", "oscillation", "update_oscillation_stats", None),
    ("oscillation.oscillation_suppress", "oscillation", "oscillation_suppress", _resets),
    ("optim.AdamW.step", "optim", "AdamW.step", None),
    ("models.loss_and_grads", "models", "*.loss_and_grads", None),
    ("models.forward_loss", "models", "*.forward_loss", None),
    ("tasks.batch", "tasks", "*.batch", None),
    ("matrixio.save_quantized", "matrixio", "save_quantized", _file_bytes),
    ("matrixio.load_quantized", "matrixio", "load_quantized", _file_bytes),
    ("metrics.error_stats", "metrics", "error_stats", None),
)
ROOTS = ("trainer.step", "codec.op")
SPAN_NAMES = tuple(s[0] for s in SPANS) + ROOTS
COUNT_NAMES = (
    "fpcodec.round_det.elems",
    "fpcodec.round_stoch.elems",
    "blockquant.quantize_dequantize.elems",
    "blockquant.clamp_events",
    "hadamard.rht_apply.elems",
    "qlinear.gemm_flops",
    "oscillation.resets",
    "matrixio.bytes",
)


def _owners(module, attr):
    """(owner, name) pairs an attribute spec resolves to."""
    if "." not in attr:
        return [(module, attr)] if attr in vars(module) else []
    cls_name, meth = attr.split(".", 1)
    if cls_name != "*":
        cls = vars(module).get(cls_name)
        return [(cls, meth)] if cls is not None and meth in vars(cls) else []
    return [
        (obj, meth)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and meth in vars(obj)
    ]


class Recorder:
    """Op boundaries, per-op durations and, when traced, span self times."""

    def __init__(self, root: str):
        if root not in ROOTS:
            raise ValueError(f"root must be one of {ROOTS}")
        self.root = root
        self.clock = time.perf_counter_ns
        self._stack = []  # open frames, each [ns covered by direct children]
        self._op_start = None
        self._op_timed = False
        self._op = None
        self._undo = []
        self.missing = []
        self.on_boundary = None  # called with the step at each step boundary
        self.op_ns = []
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.worst_sum_gap = 0.0

    # ── ops ──────────────────────────────────────────────────────────────

    def begin_op(self, timed: bool = True) -> None:
        self.end_op()
        self._op = (Counter(), Counter(), Counter())
        self._op_timed = timed
        self._stack.append([0])
        self._op_start = self.clock()

    def end_op(self, failed: bool = False) -> None:
        """Close the open op, if any; a failed op is discarded."""
        if self._op_start is None:
            return
        dur = self.clock() - self._op_start
        if len(self._stack) != 1:
            raise RuntimeError(f"op closed with {len(self._stack) - 1} spans open")
        (child_ns,) = self._stack.pop()
        self_ns, calls, counts = self._op
        self_ns[self.root] += dur - child_ns
        calls[self.root] += 1
        self._op_start = self._op = None
        if failed or not self._op_timed:
            return
        gap = abs(sum(self_ns.values()) - dur) / max(dur, 1)
        self.worst_sum_gap = max(self.worst_sum_gap, gap)
        self.op_ns.append(dur)
        self.self_ns.update(self_ns)
        self.calls.update(calls)
        self.counts.update(counts)

    def abandon_op(self) -> None:
        """Drop the open op after an exception unwound its spans."""
        del self._stack[1:]
        self.end_op(failed=True)

    # ── patching ─────────────────────────────────────────────────────────

    def _patch(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def mark_steps(self) -> None:
        """Install the op marker on every task class's ``batch``."""
        tasks = importlib.import_module(f"{PACKAGE}.tasks")
        for owner, name in _owners(tasks, "*.batch"):
            self._patch(owner, name, self._marker(vars(owner)[name]))

    def keep_results(self, module: str, attr: str, sink: list) -> None:
        """Append ``(args, result)`` of every call of ``attr`` to ``sink``."""
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        for owner, name in _owners(mod, attr):
            fn = vars(owner)[name]

            @functools.wraps(fn)
            def keep(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                sink.append((args, out))
                return out

            self._patch(owner, name, keep)

    def _marker(self, fn):
        rec = self

        @functools.wraps(fn)
        def batch(task, split, step, *args, **kwargs):
            if split == "train" and step >= 1:
                if rec.on_boundary is not None:
                    rec.on_boundary(step)
                rec.begin_op(timed=step >= 2)
            return fn(task, split, step, *args, **kwargs)

        return batch

    def trace(self) -> None:
        """Wrap every layer boundary in ``SPANS`` with a span."""
        self.missing = []
        for span, mod_name, attr, counter in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owners = _owners(module, attr)
            if not owners:
                self.missing.append(span)
            for owner, name in owners:
                self._patch(owner, name, self._span(span, vars(owner)[name], counter))

    def _span(self, name, fn, counter):
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = rec._stack
            if not stack:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            t0 = rec.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = rec.clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                    self_ns, calls, _ = rec._op
                    self_ns[name] += dur - frame[0]
                    calls[name] += 1
            if counter is not None and stack:
                counter(rec._op[2], args, out)
            return out

        return span

    # ── results ──────────────────────────────────────────────────────────

    def per_op(self) -> dict:
        """Per-layer figures averaged over the recorded timed ops."""
        n = len(self.op_ns)
        if n == 0:
            return {}
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.self_s"] = self.self_ns[span] / n / 1e9
            out[f"{span}.calls"] = self.calls[span] / n
        for key in COUNT_NAMES:
            out[key] = self.counts[key] / n
        return out
