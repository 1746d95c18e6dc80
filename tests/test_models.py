"""Tests for the toy models (quantized-linear MLP and tiny transformer).

Oracles:
  * central finite differences along random parameter directions in bypass
    mode (the binary32 reference path) pin every analytic gradient;
  * an independently written dense MLP in this file must agree with the
    model's bypass path to float32 round-off;
  * causality: a future-token edit must leave earlier per-token losses
    bit-identical;
  * the quantized path must be deterministic given the generator key.
"""

import dataclasses
import hashlib
import weakref

import numpy as np
import pytest

from nvfp4sim import fpcodec as fc
from nvfp4sim import models as md
from nvfp4sim import qlinear as ql

F32 = np.float32


def bypass_cfgs(model):
    return md.uniform_cfgs(model, ql.preset("fp32"))


def quant_cfgs(model):
    return md.uniform_cfgs(model, ql.preset("fp4-base"))


def mlp_batch(model, seed=0, n=6):
    rng = fc.stream(seed, "mlp-batch")
    x = rng.standard_normal((n, model.widths[0])).astype(F32)
    y = rng.standard_normal((n, model.widths[-1])).astype(F32)
    return x, y


def lm_batch(model, seed=0, n=2):
    rng = fc.stream(seed, "lm-batch")
    ids = rng.integers(0, model.vocab, size=(n, model.seq_len + 1))
    return ids[:, :-1].astype(np.int64), ids[:, 1:].astype(np.int64)


def directional_fd_check(model, batch, seed, n_dirs=3, h=1e-2):
    """Central finite difference of the loss along random directions of each
    parameter tensor vs the analytic gradient's projection."""
    params = model.init_params(seed)
    cfgs = bypass_cfgs(model)
    loss, grads, _ = model.loss_and_grads(params, batch, cfgs, step=1, rng=None)
    assert np.isfinite(loss)
    assert set(grads) == set(params)
    dir_rng = fc.stream(seed, "fd-dirs")
    for name, p in params.items():
        for _ in range(n_dirs):
            u = dir_rng.standard_normal(p.shape).astype(F32)
            u /= np.float32(np.sqrt(np.sum(u.astype(np.float64) ** 2)))
            # step relative to the tensor's own scale: large enough to beat
            # float32 loss noise, small enough to keep truncation quadratic
            rms = float(np.sqrt(np.mean(p.astype(np.float64) ** 2)))
            step_h = F32(h * (rms + 1e-3))
            plus = {k: v.copy() for k, v in params.items()}
            minus = {k: v.copy() for k, v in params.items()}
            plus[name] = (p + step_h * u).astype(F32)
            minus[name] = (p - step_h * u).astype(F32)
            lp = model.forward_loss(plus, batch, cfgs, step=1)
            lm = model.forward_loss(minus, batch, cfgs, step=1)
            fd = (lp - lm) / (2.0 * float(step_h))
            an = float(np.sum(grads[name].astype(np.float64) * u.astype(np.float64)))
            tol = 2e-2 * (abs(fd) + abs(an)) / 2 + 3e-5
            assert abs(fd - an) <= tol, (name, fd, an)


# ── MLP ──────────────────────────────────────────────────────────────────────


def test_mlp_param_shapes_and_tags():
    m = md.MLP(widths=(24, 16, 16, 8))
    p = m.init_params(0)
    assert set(p) == {"fc0.w", "fc1.w", "head.w"}
    assert p["fc0.w"].shape == (16, 24)
    assert p["fc1.w"].shape == (16, 16)
    assert p["head.w"].shape == (8, 16)
    assert m.quant_tags() == ("fc0", "fc1")
    assert m.weight_param("fc0") == "fc0.w"


def test_mlp_init_deterministic():
    m = md.MLP(widths=(24, 16, 16, 8))
    a, b = m.init_params(7), m.init_params(7)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    c = m.init_params(8)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_mlp_gradcheck_bypass():
    m = md.MLP(widths=(24, 16, 16, 8))
    directional_fd_check(m, mlp_batch(m, seed=1), seed=11)


def np_reference_mlp(params, x, y):
    """Independent dense implementation of the same architecture."""
    a0 = x @ params["fc0.w"].T
    h0 = np.maximum(a0, 0.0)
    a1 = h0 @ params["fc1.w"].T
    h1 = np.maximum(a1, 0.0)
    yhat = h1 @ params["head.w"].T
    err = yhat - y
    loss = float(np.mean(err.astype(np.float64) ** 2))
    dyhat = (2.0 / err.size) * err
    grads = {"head.w": dyhat.T @ h1}
    dh1 = dyhat @ params["head.w"]
    da1 = dh1 * (a1 > 0)
    grads["fc1.w"] = da1.T @ h0
    dh0 = da1 @ params["fc1.w"]
    da0 = dh0 * (a0 > 0)
    grads["fc0.w"] = da0.T @ x
    return loss, grads


def test_mlp_bypass_matches_independent_reference():
    m = md.MLP(widths=(24, 16, 16, 8))
    params = m.init_params(3)
    x, y = mlp_batch(m, seed=4)
    loss, grads, _ = m.loss_and_grads(params, (x, y), bypass_cfgs(m), step=1, rng=None)
    ref_loss, ref_grads = np_reference_mlp(params, x, y)
    assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-7)
    for k in ref_grads:
        np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-5, atol=1e-7)


def test_mlp_input_acts():
    m = md.MLP(widths=(24, 16, 16, 8))
    params = m.init_params(3)
    x, y = mlp_batch(m, seed=4, n=5)
    acts = m.input_acts(params, (x, y), step=1)
    assert set(acts) == {"fc0", "fc1"}
    assert acts["fc0"].shape == (5, 24)
    assert acts["fc1"].shape == (5, 16)
    np.testing.assert_array_equal(acts["fc0"], x)


def test_mlp_quantized_path_deterministic():
    m = md.MLP(widths=(32, 16, 8))
    params = m.init_params(5)
    batch = mlp_batch(m, seed=6, n=8)
    cfgs = quant_cfgs(m)
    out1 = m.loss_and_grads(params, batch, cfgs, step=2, rng=fc.stream(9, "g"))
    out2 = m.loss_and_grads(params, batch, cfgs, step=2, rng=fc.stream(9, "g"))
    assert out1[0] == out2[0]
    for k in out1[1]:
        np.testing.assert_array_equal(out1[1][k], out2[1][k])
    # forward loss inside loss_and_grads equals the eval forward (det rounding)
    eval_loss = m.forward_loss(params, batch, cfgs, step=2)
    assert eval_loss == out1[0]
    assert out1[2]["clamp_events"] >= 0


# ── tiny transformer ─────────────────────────────────────────────────────────


def tiny_lm():
    return md.TinyTransformer(layers=2, d_model=8, heads=2, seq_len=6, vocab=13)


def test_transformer_param_shapes_and_tags():
    m = tiny_lm()
    p = m.init_params(0)
    assert p["tok_emb"].shape == (13, 8)
    assert p["pos_emb"].shape == (6, 8)
    assert p["l0.qkv.w"].shape == (24, 8)
    assert p["l0.att_out.w"].shape == (8, 8)
    assert p["l0.ffn1.w"].shape == (32, 8)
    assert p["l0.ffn2.w"].shape == (8, 16)
    assert p["out_norm"].shape == (8,)
    assert p["head.w"].shape == (13, 8)
    assert m.quant_tags() == (
        "l0.qkv", "l0.att_out", "l0.ffn1", "l0.ffn2",
        "l1.qkv", "l1.att_out", "l1.ffn1", "l1.ffn2",
    )


def test_transformer_gradcheck_bypass():
    m = tiny_lm()
    directional_fd_check(m, lm_batch(m, seed=2), seed=21)


def test_transformer_causal_masking():
    m = tiny_lm()
    params = m.init_params(1)
    cfgs = bypass_cfgs(m)
    x, y = lm_batch(m, seed=3)
    x2 = x.copy()
    x2[:, 3] = (x2[:, 3] + 1) % m.vocab
    tl1 = m.token_losses(params, (x, y), cfgs, step=1)
    tl2 = m.token_losses(params, (x2, y), cfgs, step=1)
    np.testing.assert_array_equal(tl1[:, :3], tl2[:, :3])
    assert np.any(tl1[:, 3:] != tl2[:, 3:])


def test_transformer_token_losses_mean_is_loss():
    m = tiny_lm()
    params = m.init_params(1)
    cfgs = bypass_cfgs(m)
    batch = lm_batch(m, seed=3)
    tl = m.token_losses(params, batch, cfgs, step=1)
    loss = m.forward_loss(params, batch, cfgs, step=1)
    assert loss == pytest.approx(float(np.mean(tl)), rel=1e-6)


def test_transformer_quantized_path_runs_and_is_deterministic():
    m = md.TinyTransformer(layers=1, d_model=16, heads=2, seq_len=16, vocab=32)
    params = m.init_params(4)
    batch = lm_batch(m, seed=5, n=2)
    cfgs = quant_cfgs(m)
    out1 = m.loss_and_grads(params, batch, cfgs, step=3, rng=fc.stream(10, "g"))
    out2 = m.loss_and_grads(params, batch, cfgs, step=3, rng=fc.stream(10, "g"))
    assert np.isfinite(out1[0]) and out1[0] == out2[0]
    for k in out1[1]:
        np.testing.assert_array_equal(out1[1][k], out2[1][k])
    assert set(out1[1]) == set(params)


def test_transformer_input_acts_shapes():
    m = tiny_lm()
    params = m.init_params(1)
    batch = lm_batch(m, seed=3, n=2)
    acts = m.input_acts(params, batch, step=1)
    assert set(acts) == set(m.quant_tags())
    bl = 2 * m.seq_len
    assert acts["l0.qkv"].shape == (bl, 8)
    assert acts["l0.att_out"].shape == (bl, 8)
    assert acts["l0.ffn1"].shape == (bl, 8)
    assert acts["l0.ffn2"].shape == (bl, 16)


def test_transformer_rejects_bad_dims():
    with pytest.raises(ValueError):
        md.TinyTransformer(layers=1, d_model=9, heads=2, seq_len=8, vocab=16)
    with pytest.raises(ValueError):
        md.TinyTransformer(layers=0, d_model=8, heads=2, seq_len=8, vocab=16)


@pytest.mark.parametrize("field, value", [
    ("heads", 0), ("heads", -2), ("d_model", 0), ("d_model", -8), ("ffn_hidden", -4),
])
def test_transformer_rejects_nonpositive_dims_naming_the_field(field, value):
    dims = dict(layers=1, d_model=8, heads=2, seq_len=8, vocab=16)
    dims[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        md.TinyTransformer(**dims)


def _snapshot(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("preset", ["fp32", "fp4-base"])
@pytest.mark.parametrize("kind", ["mlp", "lm"])
def test_steps_leave_params_and_batch_untouched(kind, preset):
    # the glue writes its temporaries in place; none of those writes may
    # reach an array the caller owns
    if kind == "mlp":
        m = md.MLP(widths=(32, 24, 24, 5))
        batch = mlp_batch(m, seed=7, n=8)
    else:
        m = md.TinyTransformer(layers=2, d_model=16, heads=2, seq_len=12, vocab=19)
        batch = lm_batch(m, seed=7, n=2)
    params = m.init_params(8)
    cfgs = md.uniform_cfgs(m, ql.preset(preset))
    before = _snapshot(list(params.values()) + list(batch))
    m.forward_loss(params, batch, cfgs, step=1)
    assert _snapshot(list(params.values()) + list(batch)) == before
    m.loss_and_grads(params, batch, cfgs, step=1, rng=fc.stream(9, "g"))
    assert _snapshot(list(params.values()) + list(batch)) == before


def test_causal_mask_is_cached_and_read_only():
    mask = md._future_mask(5)
    assert md._future_mask(5) is mask
    assert not mask.flags.writeable
    np.testing.assert_array_equal(mask, ~np.tril(np.ones((5, 5), dtype=bool)))
    with pytest.raises(ValueError):
        mask[0, 1] = False


def test_softmax_causal_overwrites_its_scores():
    scores = fc.stream(3, "scores").standard_normal((2, 3, 4, 4)).astype(F32)
    p = md._softmax_causal(scores)
    assert p is scores
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)
    assert np.all(p[:, :, md._future_mask(4)] == 0)


def test_uniform_cfgs_sets_layer_tags():
    m = tiny_lm()
    cfgs = md.uniform_cfgs(m, ql.preset("fp4-base"))
    assert set(cfgs) == set(m.quant_tags())
    for tag, cfg in cfgs.items():
        assert cfg.layer_tag == tag


def test_vocab_bound_checked():
    m = tiny_lm()
    params = m.init_params(0)
    x, y = lm_batch(m, seed=1)
    x[0, 0] = m.vocab  # out of range
    with pytest.raises(ValueError):
        m.forward_loss(params, (x, y), bypass_cfgs(m), step=1)


@pytest.mark.parametrize("case", ["lm-fp4-full", "lm-fp32", "mlp-fp4-rtn"])
def test_backward_releases_its_forward_context(monkeypatch, case):
    # a step keeps a forward array or layer cache only until the backward is
    # past it: block L's are dead when block L-1's first linear_backward
    # starts, and each cache is dead once its own backward has returned
    if case == "mlp-fp4-rtn":
        m = md.MLP(widths=(32, 32, 32, 32, 8))
        batch, preset = mlp_batch(m, seed=7, n=16), "fp4-rtn"
        block_of = {tag: i for i, tag in enumerate(m.quant_tags())}
    else:
        m = md.TinyTransformer(layers=3, d_model=16, heads=2, seq_len=8, vocab=13)
        batch, preset = lm_batch(m, seed=7), case[len("lm-"):]
        block_of = {tag: i // 4 for i, tag in enumerate(m.quant_tags())}
    refs, cache_refs, done = {}, {}, []
    forward, backward = m._forward, ql.linear_backward

    def watched_forward(*args):
        loss, ctx = forward(*args)
        blocks = ctx.get("blocks") or [{"pre": a} for a in ctx["pre"]]
        for i, blk in enumerate(blocks):
            refs[i] = [(name, weakref.ref(a)) for name, a in blk.items()]
        for tag, cache in ctx["caches"].items():
            cache_refs[tag] = weakref.ref(cache)
            refs[block_of[tag]].append((tag, cache_refs[tag]))
        return loss, ctx

    def watched_backward(dy, cache, cfg, rng=None):
        j = block_of[cfg.layer_tag]
        alive = [(i, name) for i, held in refs.items() if i > j
                 for name, ref in held if ref() is not None]
        assert not alive, f"{cfg.layer_tag} backward starts with {alive} alive"
        assert [t for t in done if cache_refs[t]() is not None] == []
        done.append(cfg.layer_tag)
        return backward(dy, cache, cfg, rng=rng)

    monkeypatch.setattr(m, "_forward", watched_forward)
    monkeypatch.setattr(ql, "linear_backward", watched_backward)
    cfgs = md.uniform_cfgs(m, ql.preset(preset))
    m.loss_and_grads(m.init_params(8), batch, cfgs, step=1, rng=fc.stream(9, "g"))
    assert done == list(reversed(m.quant_tags()))
    assert len(refs) == max(block_of.values()) + 1


# ── golden digests ───────────────────────────────────────────────────────────
#
# The model glue runs its elementwise ops in place, in the same order and on
# the same operands as the plain expressions it replaced, so not one output
# bit may move. These digests pin the bytes of the loss, every gradient and
# the clamp telemetry; they were recorded from the implementation that still
# allocated a fresh array per op.

TRANSFORMER_FP32_SHA256 = "d25d80b0512e1bd9a3ce5ca63b68081f9edc61611800cc1d3e5b5fdb960aae4a"
TRANSFORMER_FP4_OUTLIER_SHA256 = "347c4df3894a0db617c5557acf880e785209998246b433f4a629903fd3193dcc"
MLP_FP4_RTN_SHA256 = "67e1dbc3f7ea405efc630899b2fb87b5014b5ff9063a00dcdd78b941f2ab2652"


def _step_digest(loss, grads, aux):
    h = hashlib.sha256()
    h.update(repr(loss).encode())
    for name in sorted(grads):
        g = grads[name]
        h.update(f"{name}|{g.dtype}|{g.shape}".encode())
        h.update(np.ascontiguousarray(g).tobytes())
    h.update(repr(aux["clamp_events"]).encode())
    h.update(repr(sorted(aux["clamp_by_layer"].items())).encode())
    return h.hexdigest()


def golden_lm():
    return md.TinyTransformer(layers=2, d_model=32, heads=4, seq_len=24, vocab=29)


def outlier_cfgs(model):
    out = ql.OutlierConfig(channels=(2, 17), precision="e4m3")
    return md.uniform_cfgs(model, dataclasses.replace(ql.preset("fp4-base"), outlier=out))


def test_transformer_fp32_golden_digest():
    m = golden_lm()
    params = m.init_params(31)
    out = m.loss_and_grads(params, lm_batch(m, seed=32, n=3), bypass_cfgs(m),
                           step=1, rng=None)
    assert _step_digest(*out) == TRANSFORMER_FP32_SHA256


def test_transformer_fp4_outlier_golden_digest():
    m = golden_lm()
    params = m.init_params(33)
    out = m.loss_and_grads(params, lm_batch(m, seed=34, n=3), outlier_cfgs(m),
                           step=5, rng=fc.stream(35, "golden-lm"))
    assert out[2]["clamp_events"] > 0
    assert _step_digest(*out) == TRANSFORMER_FP4_OUTLIER_SHA256


def test_mlp_fp4_rtn_golden_digest():
    m = md.MLP(widths=(48, 40, 40, 6))
    params = m.init_params(36)
    cfgs = md.uniform_cfgs(m, ql.preset("fp4-rtn"))
    out = m.loss_and_grads(params, mlp_batch(m, seed=37, n=20), cfgs,
                           step=2, rng=fc.stream(38, "golden-mlp"))
    assert _step_digest(*out) == MLP_FP4_RTN_SHA256


# recorded before the per-layer bookkeeping moved into _QuantizedModel; the
# transformer's clamp telemetry is pinned inside its golden digests above
MLP_CLAMP_AUX = {
    "fp4-base": (854, [("fc0", 327), ("fc1", 271), ("fc2", 256)]),
    "fp4-rtn": (588, [("fc0", 172), ("fc1", 193), ("fc2", 223)]),
}


@pytest.mark.parametrize("preset", sorted(MLP_CLAMP_AUX))
def test_mlp_clamp_telemetry_keeps_its_counts(preset):
    m = md.MLP(widths=(48, 40, 40, 40, 6))
    cfgs = md.uniform_cfgs(m, ql.preset(preset))
    _, _, aux = m.loss_and_grads(m.init_params(36), mlp_batch(m, seed=37, n=20), cfgs,
                                 step=2, rng=fc.stream(38, "golden-mlp"))
    assert sorted(aux) == ["clamp_by_layer", "clamp_events"]
    assert (aux["clamp_events"], sorted(aux["clamp_by_layer"].items())) == MLP_CLAMP_AUX[preset]


@pytest.mark.parametrize("kind", ["mlp", "lm"])
def test_each_layer_runs_one_forward_then_one_backward(monkeypatch, kind):
    # the models reach the layer through the qlinear module attributes, which
    # is where perfbench's tracer wraps its linear_forward and linear_backward
    # spans
    if kind == "mlp":
        m = md.MLP(widths=(32, 32, 32, 32, 8))
        batch = mlp_batch(m, seed=7, n=16)
    else:
        m = md.TinyTransformer(layers=2, d_model=16, heads=2, seq_len=8, vocab=13)
        batch = lm_batch(m, seed=7)
    calls, forward, backward = [], ql.linear_forward, ql.linear_backward

    def traced_forward(x, w, cfg, step=0):
        calls.append(("forward", cfg.layer_tag))
        return forward(x, w, cfg, step=step)

    def traced_backward(dy, cache, cfg, rng=None):
        calls.append(("backward", cfg.layer_tag))
        return backward(dy, cache, cfg, rng=rng)

    monkeypatch.setattr(ql, "linear_forward", traced_forward)
    monkeypatch.setattr(ql, "linear_backward", traced_backward)
    cfgs = quant_cfgs(m)
    m.loss_and_grads(m.init_params(8), batch, cfgs, step=1, rng=fc.stream(9, "g"))
    tags = m.quant_tags()
    assert calls == ([("forward", t) for t in tags]
                     + [("backward", t) for t in reversed(tags)])
