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
``(loss, grads, aux)``.  Each forward keeps its layers' ``(tag,
LinearCache)`` pairs in forward order: ``input_acts`` returns each cache's
raw layer input, and the clamp telemetry in ``aux`` (``clamp_events``,
``clamp_by_layer``) sums each cache's forward clamp counts with the
backward counts ``linear_backward`` returns.  The backward pass visits
quantized layers in exactly the reverse of forward order, so a run is
replayable from the generator key alone.

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


def _clamp_aux(caches, backward) -> dict:
    """Clamp telemetry of one step: per layer, the forward counts held in
    its cache plus the backward counts in ``backward[tag]``."""
    by_layer = {
        tag: sum(cache.clamp_counts.values()) + sum(backward[tag].values())
        for tag, cache in caches.items()
    }
    return {"clamp_events": sum(by_layer.values()), "clamp_by_layer": by_layer}


class _QuantizedModel:
    """The protocol both models share.

    A subclass sets ``_tags`` and implements ``_forward(params, batch, cfgs,
    step) -> (loss, ctx)``, where ``ctx["caches"]`` maps each quantized
    layer's tag to its :class:`~nvfp4sim.qlinear.LinearCache`, in forward
    order.
    """

    def quant_tags(self) -> Tuple[str, ...]:
        return self._tags

    def weight_param(self, tag: str) -> str:
        return f"{tag}.w"

    def _run(self, params, batch, cfgs: Mapping[str, ql.LayerQuantConfig], step):
        missing = [t for t in self._tags if t not in cfgs]
        if missing:
            raise ValueError(f"missing layer configs for {missing}")
        return self._forward(params, batch, cfgs, step)

    def forward_loss(self, params, batch, cfgs, step):
        """The loss of one forward pass."""
        return self._run(params, batch, cfgs, step)[0]

    def input_acts(self, params, batch, cfgs, step):
        """The raw input of every quantized layer, keyed by tag."""
        _, ctx = self._run(params, batch, cfgs, step)
        return {tag: cache.x_raw for tag, cache in ctx["caches"].items()}


# ── MLP ──────────────────────────────────────────────────────────────────────


class MLP(_QuantizedModel):
    """Bias-free ReLU MLP; hidden linears quantized, head binary32."""

    def __init__(self, widths: Tuple[int, ...] = (784, 256, 256, 10)):
        widths = tuple(widths)
        if not all(type(w) is int for w in widths):
            raise ValueError(f"widths must be whole numbers, got {widths}")
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
            a, caches[tag] = ql.linear_forward(
                h, params[f"{tag}.w"], cfgs[tag], step=step
            )
            pre.append(a)
            h = np.maximum(a, F32(0.0))
        err = h @ params["head.w"].T
        np.subtract(err, np.asarray(y, dtype=F32), out=err)
        loss = float(np.mean(err.astype(np.float64) ** 2))
        return loss, {"caches": caches, "pre": pre, "h": h, "err": err}

    def loss_and_grads(self, params, batch, cfgs, step, rng):
        loss, ctx = self._run(params, batch, cfgs, step)
        err, h = ctx["err"], ctx["h"]
        dyhat = np.multiply(2.0 / err.size, err, out=err)
        grads = {"head.w": dyhat.T @ h}
        dh = dyhat @ params["head.w"]
        backward = {}
        for i in range(len(self._tags) - 1, -1, -1):
            tag = self._tags[i]
            da = np.multiply(dh, ctx["pre"][i] > 0, out=dh)
            dh, grads[f"{tag}.w"], backward[tag] = ql.linear_backward(
                da, ctx["caches"][tag], cfgs[tag], rng=rng
            )
        return loss, grads, _clamp_aux(ctx["caches"], backward)


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
            qkv, caches[f"l{i}.qkv"] = ql.linear_forward(
                n1_2, params[f"l{i}.qkv.w"], cfgs[f"l{i}.qkv"], step=step
            )
            trip = qkv.reshape(b, length, 3, h, hd).transpose(2, 0, 3, 1, 4)
            q, k, v = trip[0], trip[1], trip[2]
            scores = q @ k.transpose(0, 1, 3, 2)
            scores *= scale
            p = _softmax_causal(scores)
            ctx = p @ v
            blk.update(q=q, k=k, v=v, p=p)
            ctx2 = ctx.transpose(0, 2, 1, 3).reshape(b * length, d)
            att, caches[f"l{i}.att_out"] = ql.linear_forward(
                ctx2, params[f"l{i}.att_out.w"], cfgs[f"l{i}.att_out"], step=step
            )
            att = att.reshape(b, length, d)
            x = np.add(x, att, out=att)

            blk["x1"] = x
            g_f = params[f"l{i}.ffn_norm"]
            n2, r2 = _rmsnorm_fwd(x, g_f)
            blk["r2"] = r2
            n2_2 = n2.reshape(b * length, d)
            uv, caches[f"l{i}.ffn1"] = ql.linear_forward(
                n2_2, params[f"l{i}.ffn1.w"], cfgs[f"l{i}.ffn1"], step=step
            )
            fdim = self.ffn_hidden
            u, w_half = uv[:, :fdim], uv[:, fdim:]
            sig = _sigmoid(u)
            s = np.multiply(u, sig)  # silu(u), then the gate in place
            s *= w_half
            blk.update(u=u, w_half=w_half, sig=sig)
            ffn, caches[f"l{i}.ffn2"] = ql.linear_forward(
                s, params[f"l{i}.ffn2.w"], cfgs[f"l{i}.ffn2"], step=step
            )
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
        grads, backward = {}, {}

        def linear_backward(tag, dy):
            dx, grads[f"{tag}.w"], backward[tag] = ql.linear_backward(
                dy, ctx["caches"][tag], cfgs[tag], rng=rng
            )
            return dx

        dlogits = ctx["softmax"]
        dlogits[np.arange(n_tok), ctx["targets"]] -= F32(1.0)
        dlogits /= F32(n_tok)
        grads["head.w"] = dlogits.T @ ctx["n3_2"]
        dn3 = (dlogits @ params["head.w"]).reshape(b, length, d)
        dx, grads["out_norm"] = _rmsnorm_bwd(
            dn3, ctx["x_final"], params["out_norm"], ctx["r3"]
        )

        for i in range(self.layers - 1, -1, -1):
            blk = ctx["blocks"][i]

            # ffn sublayer: x2 = x1 + ffn2(swiglu(ffn1(norm(x1))))
            ds = linear_backward(f"l{i}.ffn2", dx.reshape(n_tok, d))
            sig, u, w_half = blk["sig"], blk["u"], blk["w_half"]
            fdim = self.ffn_hidden
            duv = np.empty((n_tok, 2 * fdim), dtype=F32)
            du, dw_half = duv[:, :fdim], duv[:, fdim:]
            # dw_half holds silu'(u) until du is done, then silu(u) = u * sig
            dsilu = np.subtract(1.0, sig, out=dw_half)
            np.multiply(u, dsilu, out=dsilu)
            np.add(1.0, dsilu, out=dsilu)
            np.multiply(sig, dsilu, out=dsilu)
            np.multiply(ds, w_half, out=du)
            du *= dsilu
            su = np.multiply(u, sig, out=dw_half)
            np.multiply(ds, su, out=dw_half)
            dn2 = linear_backward(f"l{i}.ffn1", duv).reshape(b, length, d)
            dx1, grads[f"l{i}.ffn_norm"] = _rmsnorm_bwd(
                dn2, blk["x1"], params[f"l{i}.ffn_norm"], blk["r2"]
            )
            dx += dx1

            # attention sublayer: x1 = x0 + att_out(attend(qkv(norm(x0))))
            dctx2 = linear_backward(f"l{i}.att_out", dx.reshape(n_tok, d))
            dctx = dctx2.reshape(b, length, h, hd).transpose(0, 2, 1, 3)
            p, q, k, v = blk["p"], blk["q"], blk["k"], blk["v"]
            dp = dctx @ v.transpose(0, 1, 3, 2)
            dv = p.transpose(0, 1, 3, 2) @ dctx
            dp -= np.sum(dp * p, axis=-1, keepdims=True)
            dscores = np.multiply(p, dp, out=dp)
            # dq, dk and dv land in their (b, length, 3, h, hd) slots of dqkv
            dqkv = np.empty((n_tok, 3 * d), dtype=F32)
            dtrip = dqkv.reshape(b, length, 3, h, hd).transpose(2, 0, 3, 1, 4)
            np.multiply(dscores @ k, scale, out=dtrip[0])
            np.multiply(dscores.transpose(0, 1, 3, 2) @ q, scale, out=dtrip[1])
            dtrip[2] = dv
            dn1 = linear_backward(f"l{i}.qkv", dqkv).reshape(b, length, d)
            dx0, grads[f"l{i}.att_norm"] = _rmsnorm_bwd(
                dn1, blk["x0"], params[f"l{i}.att_norm"], blk["r1"]
            )
            dx += dx0

        ids = np.asarray(batch[0])
        dx2 = dx.reshape(n_tok, d)
        dtok = np.zeros_like(params["tok_emb"])
        np.add.at(dtok, ids.reshape(-1), dx2)
        grads["tok_emb"] = dtok
        dpos = np.zeros_like(params["pos_emb"])
        dpos[:length] = dx.sum(axis=0)
        grads["pos_emb"] = dpos

        return loss, grads, _clamp_aux(ctx["caches"], backward)
