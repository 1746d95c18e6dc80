"""Toy models built on the quantized linear layer, with manual backprop.

Two architectures cover the training experiments:

* :class:`MLP` — bias-free ReLU network for synthetic regression; every
  hidden linear is quantized, the output head stays binary32.
* :class:`TinyTransformer` — pre-norm causal transformer for character-level
  language modeling: learned token + position embeddings, RMSNorm, fused-QKV
  multi-head attention, SwiGLU feed-forward.  The four linears per block
  (``qkv``, ``att_out``, ``ffn1``, ``ffn2``) are quantized; embeddings,
  norms, attention score matmuls, and the output head stay binary32.

Both expose the same protocol: ``init_params(seed)``, ``quant_tags()``,
``weight_param(tag)``, ``forward_loss``, ``loss_and_grads``, ``input_acts``,
driven by a mapping ``tag -> LayerQuantConfig`` (see :func:`uniform_cfgs`).
``forward_loss`` returns the loss alone; ``loss_and_grads`` returns
``(loss, grads, aux)``.  Every quantized layer runs through ``_linear``,
which files its ``LinearCache`` under its tag, and ``_linear_backward``,
which pops it and stores the cache's forward plus the backward's clamp
counts in ``aux["clamp_by_layer"][tag]``, whose total is ``clamp_events``.
``input_acts(params, batch, step)`` runs the all-bypass (``fp32``) recipe
itself and returns each cache's ``x_hat``, which under that recipe is the
layer input itself.  The backward pass visits quantized layers in exactly
the reverse of forward order, so a run is replayable from the generator key
alone.

Gradients follow the straight-through convention of the quantized layer:
no gradient flows into quantization scales.

Bit contract of the binary32 glue: the elementwise ops run in place on
temporaries the step owns, but each one keeps the operands, operand order
and evaluation order of the plain expression it stands for, so a step's
bytes do not depend on where its results are stored (``np.exp`` and
``np.log`` still run on contiguous operands: their vector and scalar loops
may round differently).  Every matmul keeps
its operands, shapes and output layout (a fresh C-ordered product, never
``out=`` into a strided view), as the bytes of a BLAS product may depend on
them.  Arrays a step reads but does not own (``params``, the batch, the
layer caches) are never written; :func:`_softmax_causal` overwrites the
scores it is given, and :func:`_rmsnorm_bwd` the gradient it is given.

Lifetime rule: ``loss_and_grads`` consumes the forward context it made.  It
pops each block, each array and each layer's cache off the context as the
backward reads it (a cache just before its ``linear_backward``), and rebinds
one running gradient name, so a forward array or cache lives only until its
last backward use and a step peaks with only the blocks still ahead of the
backward alive.  This changes lifetimes only: no op, operand or evaluation
order, hence no byte.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, Mapping, Tuple

import numpy as np

from . import fpcodec as fc
from . import qlinear as ql

__all__ = ["MLP", "TinyTransformer", "uniform_cfgs"]

F32 = np.float32

_NORM_EPS = 1e-6


def uniform_cfgs(model, base_cfg: ql.LayerQuantConfig) -> Dict[str, ql.LayerQuantConfig]:
    """One config per quantized layer, differing only in ``layer_tag`` (which
    seeds that layer's rotation signs)."""
    return {
        tag: dataclasses.replace(base_cfg, layer_tag=tag) for tag in model.quant_tags()
    }


class _QuantizedModel:
    """The protocol both models share.

    A subclass sets ``_tags`` and implements ``_forward(params, batch, cfgs,
    step) -> (loss, ctx)``, where ``ctx["caches"]`` is the dict its
    :meth:`_linear` calls filed, and ``loss_and_grads``, which runs each layer
    back through :meth:`_linear_backward`.
    """

    def quant_tags(self) -> Tuple[str, ...]:
        return self._tags

    def weight_param(self, tag: str) -> str:
        return f"{tag}.w"

    def _linear(self, tag, x, params, cfgs, step, caches):
        """Layer ``tag``'s forward of ``x``, its cache filed in ``caches``."""
        y, caches[tag] = ql.linear_forward(x, params[self.weight_param(tag)], cfgs[tag], step=step)
        return y

    def _linear_backward(self, tag, dy, caches, cfgs, rng, grads, clamps):
        """Layer ``tag``'s backward of ``dy`` from the cache it pops; ``dx``,
        with ``dw`` and the layer's clamp count stored under its tag."""
        cache = caches.pop(tag)
        dx, grads[self.weight_param(tag)], counts = ql.linear_backward(
            dy, cache, cfgs[tag], rng=rng
        )
        clamps[tag] = sum(cache.clamp_counts.values()) + sum(counts.values())
        return dx

    def _run(self, params, batch, cfgs: Mapping[str, ql.LayerQuantConfig], step):
        missing = [t for t in self._tags if t not in cfgs]
        if missing:
            raise ValueError(f"missing layer configs for {missing}")
        return self._forward(params, batch, cfgs, step)

    def forward_loss(self, params, batch, cfgs, step):
        """The loss of one forward pass."""
        return self._run(params, batch, cfgs, step)[0]

    def input_acts(self, params, batch, step):
        """The input of every quantized layer under the all-bypass recipe,
        keyed by tag: each cache's ``x_hat``, which that recipe leaves as the
        layer input itself."""
        cfgs = uniform_cfgs(self, ql.preset("fp32"))
        _, ctx = self._run(params, batch, cfgs, step)
        return {tag: cache.x_hat for tag, cache in ctx["caches"].items()}


# ── MLP ──────────────────────────────────────────────────────────────────────


class MLP(_QuantizedModel):
    """Bias-free ReLU MLP; hidden linears quantized, head binary32."""

    def __init__(self, widths: Tuple[int, ...] = (784, 256, 256, 10)):
        widths = tuple(widths) if isinstance(widths, (list, tuple)) else widths
        if not (isinstance(widths, tuple) and all(type(w) is int for w in widths)):
            raise ValueError(f"widths must be whole numbers, got {widths!r}")
        if len(widths) < 3:
            raise ValueError("MLP needs at least (input, hidden, output) widths")
        if any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")
        self.widths = widths
        self._tags = tuple(f"fc{i}" for i in range(len(widths) - 2))

    def init_params(self, seed: int) -> Dict[str, np.ndarray]:
        params = {}
        dims = self.widths
        for i, tag in enumerate(self._tags):
            rng = fc.stream(seed, "init", tag)
            params[f"{tag}.w"] = (
                rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(dims[i])
            ).astype(F32)
        rng = fc.stream(seed, "init", "head")
        params["head.w"] = (
            rng.standard_normal((dims[-1], dims[-2])) / math.sqrt(dims[-2])
        ).astype(F32)
        return params

    def _forward(self, params, batch, cfgs, step):
        x, y = batch
        h = np.asarray(x, dtype=F32)
        caches, pre = {}, []
        for tag in self._tags:
            a = self._linear(tag, h, params, cfgs, step, caches)
            pre.append(a)
            h = np.maximum(a, F32(0.0))
        err = h @ params["head.w"].T
        np.subtract(err, np.asarray(y, dtype=F32), out=err)
        loss = float(np.mean(err.astype(np.float64) ** 2))
        return loss, {"caches": caches, "pre": pre, "h": h, "err": err}

    def loss_and_grads(self, params, batch, cfgs, step, rng):
        loss, ctx = self._run(params, batch, cfgs, step)
        caches, pre = ctx["caches"], ctx["pre"]
        g = ctx.pop("err")
        g = np.multiply(2.0 / g.size, g, out=g)
        grads = {"head.w": g.T @ ctx.pop("h")}
        g = g @ params["head.w"]
        clamps = {}
        for tag in reversed(self._tags):
            g = np.multiply(g, pre.pop() > 0, out=g)
            g = self._linear_backward(tag, g, caches, cfgs, rng, grads, clamps)
        return loss, grads, {"clamp_events": sum(clamps.values()), "clamp_by_layer": clamps}


# ── transformer building blocks ──────────────────────────────────────────────


def _rmsnorm_fwd(x, g):
    """``(x / r) * g`` with ``r = sqrt(mean(x * x) + eps)``; returns ``(y, r)``."""
    y = np.multiply(x, x)
    r = np.mean(y, axis=-1, keepdims=True)
    r += F32(_NORM_EPS)
    np.sqrt(r, out=r)
    np.divide(x, r, out=y)
    y *= g
    return y, r


def _rmsnorm_bwd(dy, x, g, r):
    """``(dx, dg)`` of :func:`_rmsnorm_fwd`; ``dx`` is written over ``dy``."""
    tmp = np.divide(x, r)
    dg = np.sum(np.multiply(dy, tmp, out=tmp), axis=tuple(range(x.ndim - 1)))
    t = np.multiply(dy, g, out=dy)
    dot = np.sum(np.multiply(t, x, out=tmp), axis=-1, keepdims=True)
    dx = np.divide(t, r, out=t)
    dx -= np.multiply(x, dot / (x.shape[-1] * r**3), out=tmp)
    return dx, dg


def _swiglu_bwd(g, u, w_half, sig):
    """``(du | dw_half)`` of ``s = silu(u) * w_half`` from ``g = ds``, as one
    ``(n, 2 * f)`` array; ``sig`` is ``sigmoid(u)``."""
    fdim = u.shape[1]
    duv = np.empty((u.shape[0], 2 * fdim), dtype=F32)
    du, dw_half = duv[:, :fdim], duv[:, fdim:]
    # dw_half holds silu'(u) until du is done, then silu(u) = u * sig
    dsilu = np.subtract(1.0, sig, out=dw_half)
    np.multiply(u, dsilu, out=dsilu)
    np.add(1.0, dsilu, out=dsilu)
    np.multiply(sig, dsilu, out=dsilu)
    np.multiply(g, w_half, out=du)
    du *= dsilu
    su = np.multiply(u, sig, out=dw_half)
    np.multiply(g, su, out=dw_half)
    return duv


def _attention_bwd(g, q, k, v, p, scale):
    """Gradient of the fused ``qkv`` output of ``p @ v``, where ``p`` is the
    causal softmax of ``q @ k^T * scale``, from ``g = d(p @ v)`` (all
    ``(b, h, L, hd)`` but ``p``): a ``(b * L, 3 * h * hd)`` array with dq, dk
    and dv in their ``(b, L, 3, h, hd)`` slots."""
    b, h, length, hd = q.shape
    g, dv = g @ v.transpose(0, 1, 3, 2), p.transpose(0, 1, 3, 2) @ g
    g -= np.sum(g * p, axis=-1, keepdims=True)
    np.multiply(p, g, out=g)  # d(scores)
    del p  # the softmax dies here, before the dq and dk products
    dqkv = np.empty((b * length, 3 * h * hd), dtype=F32)
    dtrip = dqkv.reshape(b, length, 3, h, hd).transpose(2, 0, 3, 1, 4)
    np.multiply(g @ k, scale, out=dtrip[0])
    np.multiply(g.transpose(0, 1, 3, 2) @ q, scale, out=dtrip[1])
    dtrip[2] = dv
    return dqkv


def _sigmoid(u):
    """``1 / (1 + exp(-u))``."""
    sig = np.negative(u)
    np.exp(sig, out=sig)
    np.add(1.0, sig, out=sig)
    return np.divide(1.0, sig, out=sig)


@functools.lru_cache(maxsize=8)
def _future_mask(n):
    """Read-only ``(n, n)`` mask of the strictly upper triangle."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _softmax_causal(scores):
    """Softmax over the last axis with strictly-upper-triangle masking,
    computed in place: ``scores`` is overwritten and returned."""
    np.copyto(scores, -np.inf, where=_future_mask(scores.shape[-1]))
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.sum(scores, axis=-1, keepdims=True)
    return scores


class TinyTransformer(_QuantizedModel):
    """Pre-norm causal transformer with quantized block linears."""

    def __init__(
        self,
        layers: int = 2,
        d_model: int = 64,
        heads: int = 4,
        seq_len: int = 128,
        vocab: int = 32,
        ffn_hidden: int = 0,
    ):
        dims = {"layers": layers, "d_model": d_model, "heads": heads, "seq_len": seq_len,
                "vocab": vocab, "ffn_hidden": ffn_hidden}
        for field, value in dims.items():
            if type(value) is not int:
                raise ValueError(f"{field} must be an integer, got {value!r}")
        for field, value in (("layers", layers), ("d_model", d_model), ("heads", heads)):
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if ffn_hidden < 0:
            raise ValueError(
                f"ffn_hidden must be >= 0 (0 means 2 * d_model), got {ffn_hidden}"
            )
        if d_model % heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
        if vocab < 2:
            raise ValueError(f"vocab must be >= 2, got {vocab}")
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        self.layers = layers
        self.d_model = d_model
        self.heads = heads
        self.seq_len = seq_len
        self.vocab = vocab
        self.ffn_hidden = ffn_hidden or 2 * d_model
        self._tags = tuple(
            f"l{i}.{part}"
            for i in range(layers)
            for part in ("qkv", "att_out", "ffn1", "ffn2")
        )

    def init_params(self, seed: int) -> Dict[str, np.ndarray]:
        d, f, v = self.d_model, self.ffn_hidden, self.vocab

        def normal(name, shape, std):
            rng = fc.stream(seed, "init", name)
            return (rng.standard_normal(shape) * std).astype(F32)

        params = {
            "tok_emb": normal("tok_emb", (v, d), 0.02),
            "pos_emb": normal("pos_emb", (self.seq_len, d), 0.02),
            "out_norm": np.ones(d, dtype=F32),
            "head.w": normal("head", (v, d), 1.0 / math.sqrt(d)),
        }
        for i in range(self.layers):
            params[f"l{i}.att_norm"] = np.ones(d, dtype=F32)
            params[f"l{i}.ffn_norm"] = np.ones(d, dtype=F32)
            params[f"l{i}.qkv.w"] = normal(f"l{i}.qkv", (3 * d, d), 1.0 / math.sqrt(d))
            params[f"l{i}.att_out.w"] = normal(
                f"l{i}.att_out", (d, d), 1.0 / math.sqrt(d)
            )
            params[f"l{i}.ffn1.w"] = normal(f"l{i}.ffn1", (2 * f, d), 1.0 / math.sqrt(d))
            params[f"l{i}.ffn2.w"] = normal(f"l{i}.ffn2", (d, f), 1.0 / math.sqrt(f))
        return params

    # ── forward ──────────────────────────────────────────────────────────

    def _check_ids(self, ids):
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] > self.seq_len:
            raise ValueError(
                f"token ids must be (batch, length<= {self.seq_len}), got {ids.shape}"
            )
        if ids.min() < 0 or ids.max() >= self.vocab:
            raise ValueError(f"token ids out of range [0, {self.vocab})")
        return ids

    def _forward(self, params, batch, cfgs, step):
        ids, targets = batch
        ids = self._check_ids(ids)
        targets = self._check_ids(targets)
        b, length = ids.shape
        d, h = self.d_model, self.heads
        hd = d // h
        scale = F32(1.0 / math.sqrt(hd))

        x = params["tok_emb"][ids]
        x += params["pos_emb"][None, :length]
        blocks, caches = [], {}
        for i in range(self.layers):
            blk = {"x0": x}
            g_a = params[f"l{i}.att_norm"]
            n1, r1 = _rmsnorm_fwd(x, g_a)
            blk["r1"] = r1
            n1_2 = n1.reshape(b * length, d)
            qkv = self._linear(f"l{i}.qkv", n1_2, params, cfgs, step, caches)
            trip = qkv.reshape(b, length, 3, h, hd).transpose(2, 0, 3, 1, 4)
            q, k, v = trip[0], trip[1], trip[2]
            scores = q @ k.transpose(0, 1, 3, 2)
            scores *= scale
            p = _softmax_causal(scores)
            ctx = p @ v
            blk.update(q=q, k=k, v=v, p=p)
            ctx2 = ctx.transpose(0, 2, 1, 3).reshape(b * length, d)
            att = self._linear(f"l{i}.att_out", ctx2, params, cfgs, step, caches)
            att = att.reshape(b, length, d)
            x = np.add(x, att, out=att)

            blk["x1"] = x
            g_f = params[f"l{i}.ffn_norm"]
            n2, r2 = _rmsnorm_fwd(x, g_f)
            blk["r2"] = r2
            n2_2 = n2.reshape(b * length, d)
            uv = self._linear(f"l{i}.ffn1", n2_2, params, cfgs, step, caches)
            fdim = self.ffn_hidden
            u, w_half = uv[:, :fdim], uv[:, fdim:]
            sig = _sigmoid(u)
            s = np.multiply(u, sig)  # silu(u), then the gate in place
            s *= w_half
            blk.update(u=u, w_half=w_half, sig=sig)
            ffn = self._linear(f"l{i}.ffn2", s, params, cfgs, step, caches)
            ffn = ffn.reshape(b, length, d)
            x = np.add(x, ffn, out=ffn)
            blocks.append(blk)

        n3, r3 = _rmsnorm_fwd(x, params["out_norm"])
        n3_2 = n3.reshape(b * length, d)
        logits = n3_2 @ params["head.w"].T

        z = logits
        z -= np.max(z, axis=-1, keepdims=True)
        flat_t = targets.reshape(-1)
        z_t = z[np.arange(z.shape[0]), flat_t]
        ez = np.exp(z, out=z)
        sez = np.sum(ez, axis=-1, keepdims=True)
        logp = z_t - np.log(sez[:, 0])
        token_losses = (-logp).reshape(b, length)
        loss = float(np.mean(token_losses.astype(np.float64)))
        return loss, {
            "b": b,
            "length": length,
            "x_final": x,
            "r3": r3,
            "n3_2": n3_2,
            "softmax": np.divide(ez, sez, out=ez),
            "targets": flat_t,
            "token_losses": token_losses,
            "blocks": blocks,
            "caches": caches,
        }

    def token_losses(self, params, batch, cfgs, step):
        _, ctx = self._run(params, batch, cfgs, step)
        return ctx["token_losses"]

    # ── backward ─────────────────────────────────────────────────────────

    def loss_and_grads(self, params, batch, cfgs, step, rng):
        loss, ctx = self._run(params, batch, cfgs, step)
        b, length = ctx["b"], ctx["length"]
        d, h = self.d_model, self.heads
        hd = d // h
        scale = F32(1.0 / math.sqrt(hd))
        n_tok = b * length
        grads, clamps = {}, {}
        linear_backward = functools.partial(self._linear_backward, caches=ctx["caches"],
                                            cfgs=cfgs, rng=rng, grads=grads, clamps=clamps)

        g = ctx.pop("softmax")  # d(logits)
        g[np.arange(n_tok), ctx.pop("targets")] -= F32(1.0)
        g /= F32(n_tok)
        grads["head.w"] = g.T @ ctx.pop("n3_2")
        g = (g @ params["head.w"]).reshape(b, length, d)
        dx, grads["out_norm"] = _rmsnorm_bwd(
            g, ctx.pop("x_final"), params["out_norm"], ctx.pop("r3")
        )

        for i in range(self.layers - 1, -1, -1):
            blk = ctx["blocks"].pop()

            # ffn sublayer: x2 = x1 + ffn2(swiglu(ffn1(norm(x1))))
            g = linear_backward(f"l{i}.ffn2", dx.reshape(n_tok, d))
            g = _swiglu_bwd(g, blk.pop("u"), blk.pop("w_half"), blk.pop("sig"))
            g = linear_backward(f"l{i}.ffn1", g).reshape(b, length, d)
            g, grads[f"l{i}.ffn_norm"] = _rmsnorm_bwd(
                g, blk.pop("x1"), params[f"l{i}.ffn_norm"], blk.pop("r2")
            )
            dx += g

            # attention sublayer: x1 = x0 + att_out(attend(qkv(norm(x0))))
            g = linear_backward(f"l{i}.att_out", dx.reshape(n_tok, d))
            g = _attention_bwd(
                g.reshape(b, length, h, hd).transpose(0, 2, 1, 3),
                blk.pop("q"), blk.pop("k"), blk.pop("v"), blk.pop("p"), scale,
            )
            g = linear_backward(f"l{i}.qkv", g).reshape(b, length, d)
            g, grads[f"l{i}.att_norm"] = _rmsnorm_bwd(
                g, blk.pop("x0"), params[f"l{i}.att_norm"], blk.pop("r1")
            )
            dx += g

        ids = np.asarray(batch[0])
        dx2 = dx.reshape(n_tok, d)
        dtok = np.zeros_like(params["tok_emb"])
        np.add.at(dtok, ids.reshape(-1), dx2)
        grads["tok_emb"] = dtok
        dpos = np.zeros_like(params["pos_emb"])
        dpos[:length] = dx.sum(axis=0)
        grads["pos_emb"] = dpos

        return loss, grads, {"clamp_events": sum(clamps.values()), "clamp_by_layer": clamps}
