"""Tests for the six-quantizer linear layer.

Oracles:
  * bypass paths are compared bit-for-bit against plain float32 matmuls;
  * quantized paths are reconstructed manually from the independently tested
    blockquant + hadamard primitives (same streams, same call order) and
    compared bitwise;
  * gradient unbiasedness is checked by Monte-Carlo against the cached
    dequantized operands, on shapes whose contractions are single-block so
    no clamp events can bias the estimate.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvfp4sim import blockquant as bq
from nvfp4sim import fpcodec as fc
from nvfp4sim import hadamard as hd
from nvfp4sim import qlinear as ql

F32 = np.float32


def rnd(shape, seed, scale=1.0):
    g = np.random.Generator(np.random.Philox(seed))
    return (g.normal(size=shape) * scale).astype(F32)


def fp4_grid_matrix(shape, seed, unit=448.0):
    """Matrix of FP4 grid points scaled by `unit`, with a +/-6*unit carrier in
    every 16-wide block so that all scales come out exactly 448 * (amax/2688)
    and dequantization reproduces the input bit-for-bit when unit = 448."""
    g = np.random.Generator(np.random.Philox(seed))
    grid = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0], F32)
    vals = g.choice(grid, size=shape) * np.where(g.random(shape) < 0.5, -1, 1)
    m = (vals * unit).astype(F32)
    for j in range(0, shape[1], 16):
        m[:, j] = np.where(g.random(shape[0]) < 0.5, -6.0, 6.0) * unit
    return m


def base_cfg(**kw):
    return dataclasses.replace(ql.preset("fp4-base"), **kw)


# ── bypass purity ─────────────────────────────────────────────────────────────


def test_forward_bypass_bit_exact():
    x, w = rnd((9, 40), 1), rnd((7, 40), 2)
    y, cache = ql.linear_forward(x, w, ql.preset("fp32"), step=0)
    np.testing.assert_array_equal(y, x @ w.T)
    np.testing.assert_array_equal(cache.x_hat, x)
    np.testing.assert_array_equal(cache.w_hat, w)


def test_backward_bypass_bit_exact():
    x, w, dy = rnd((9, 40), 3), rnd((7, 40), 4), rnd((9, 7), 5)
    _, cache = ql.linear_forward(x, w, ql.preset("fp32"), step=0)
    dx, dw, _ = ql.linear_backward(dy, cache, ql.preset("fp32"))
    np.testing.assert_array_equal(dx, dy @ w)
    np.testing.assert_array_equal(dw, dy.T @ x)


@pytest.mark.parametrize("flag", ["align_xhat", "stochastic_backward"])
def test_flag_fields_reject_a_non_bool(flag):
    for value in ("false", 0, 1, None):
        with pytest.raises(ValueError, match=f"{flag} must be true or false"):
            ql.LayerQuantConfig(**{flag: value})


@pytest.mark.parametrize("field, valid", [
    ("sites", ql.QUANTIZER_SITES), ("rht_sides", ("dx", "dw")),
])
def test_name_sets_take_only_distinct_known_names(field, valid):
    for value, error in (
        (["fwd_q"], r"names unknown \['fwd_q'\]"),
        ([valid[-1], valid[-1]], "names a value twice"),
        (valid[0], "must be a list of strings"),  # a bare string is no list
        ({valid[0]}, "must be a list of strings"),
        (5, "must be a list of strings"),
        (None, "must be a list of strings"),
        ([1], "must be a list of strings"),
    ):
        with pytest.raises(ValueError, match=f"{field} {error}"):
            ql.LayerQuantConfig(**{field: value})


def test_name_sets_are_stored_in_canonical_order():
    cfg = ql.LayerQuantConfig(sites=["x_for_dw", "fwd_x"], rht_sides=["dw", "dx"])
    assert cfg.sites == ("fwd_x", "x_for_dw") and cfg.rht_sides == ("dx", "dw")
    assert cfg == ql.LayerQuantConfig(sites=("fwd_x", "x_for_dw"))
    assert cfg.quantize_fwd_w is False and base_cfg().quantize_fwd_w is True


def test_all_sites_disabled_keeps_rht_flags_inert():
    # disabling every quantizer must reproduce the reference layer bit-for-bit
    # even when both matmuls are rotated: the rotation is skipped when no
    # operand of that matmul is quantized, so the fp32 baseline and the
    # loss-decomposition sweep share one code path
    cfg = base_cfg(sites=())
    assert cfg.rht_sides == ("dx", "dw")
    x, w, dy = rnd((8, 32), 6), rnd((16, 32), 7), rnd((8, 16), 8)
    y, cache = ql.linear_forward(x, w, cfg, step=3)
    dx, dw, _ = ql.linear_backward(dy, cache, cfg, rng=fc.stream(0))
    np.testing.assert_array_equal(y, x @ w.T)
    np.testing.assert_array_equal(dx, dy @ w)
    np.testing.assert_array_equal(dw, dy.T @ x)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(1, 24),
    d=st.integers(1, 40),
    c=st.integers(1, 24),
)
def test_prop_bypass_purity_any_shape(seed, n, d, c):
    g = np.random.Generator(np.random.Philox(seed))
    x = g.normal(size=(n, d)).astype(F32)
    w = g.normal(size=(c, d)).astype(F32)
    dy = g.normal(size=(n, c)).astype(F32)
    cfg = ql.preset("fp32")
    y, cache = ql.linear_forward(x, w, cfg, step=0)
    dx, dw, _ = ql.linear_backward(dy, cache, cfg)
    np.testing.assert_array_equal(y, x @ w.T)
    np.testing.assert_array_equal(dx, dy @ w)
    np.testing.assert_array_equal(dw, dy.T @ x)


# ── representable fixed points ────────────────────────────────────────────────


def test_forward_grid_inputs_exact():
    # grid values x 448 make the combined scale exactly 1 per block, so the
    # quantized forward reproduces the reference matmul bit-for-bit
    x = fp4_grid_matrix((8, 32), seed=11)
    w = fp4_grid_matrix((16, 32), seed=12)
    cfg = base_cfg(rht_sides=())
    y, cache = ql.linear_forward(x, w, cfg, step=0)
    np.testing.assert_array_equal(cache.x_hat, x)
    np.testing.assert_array_equal(cache.w_hat, w)
    np.testing.assert_array_equal(y, x @ w.T)


def test_forward_grid_inputs_unit_scale_close():
    # with unit=1 the scale product is 448 * fl(6/2688), one float32 rounding
    # away from 1, so values agree to a relative ulp rather than bitwise
    x = fp4_grid_matrix((8, 32), seed=13, unit=1.0)
    w = fp4_grid_matrix((16, 32), seed=14, unit=1.0)
    y, _ = ql.linear_forward(x, w, base_cfg(), step=0)
    # sign cancellation can make |y| small, so bound the error against the
    # absolute-product mass instead of a relative tolerance on y
    slack = 2e-6 * (np.abs(x) @ np.abs(w).T) + np.float32(1e-6)
    assert np.all(np.abs(y - x @ w.T) <= slack)


def test_backward_zero_dy_gives_zero_grads():
    x, w = rnd((8, 32), 15), rnd((16, 32), 16)
    cfg = base_cfg()
    _, cache = ql.linear_forward(x, w, cfg, step=0)
    dx, dw, _ = ql.linear_backward(
        np.zeros((8, 16), F32), cache, cfg, rng=fc.stream(1)
    )
    np.testing.assert_array_equal(dx, np.zeros_like(dx))
    np.testing.assert_array_equal(dw, np.zeros_like(dw))


# ── manual pipeline reconstruction (bitwise) ─────────────────────────────────


def test_backward_matches_manual_reconstruction_with_rht():
    # pins operand orientations, RHT sign provenance (seed/layer/step/side)
    # and the site order Q3 -> Q4 -> Q5 -> Q6 drawing from one stream
    cfg = base_cfg(layer_tag="blk.fc", rht_seed=77, rht_block=16)
    x, w = rnd((8, 32), 17), rnd((16, 32), 18)
    dy = rnd((8, 16), 19)
    _, cache = ql.linear_forward(x, w, cfg, step=5)
    dx, dw, _ = ql.linear_backward(dy, cache, cfg, rng=fc.stream(42))

    rng = fc.stream(42)
    outer = cfg.outer_granularity
    ctx_c = hd.rht_context(16, seed=77, layer="blk.fc", step=5, side="dx", block=16)
    a3 = hd.rht_apply(dy, ctx_c)
    b4 = hd.rht_apply(np.ascontiguousarray(cache.w_hat.T), ctx_c).T
    q3 = bq.quantize_double_block(
        a3, bq.Orientation.ROW_GROUPS_1X16, outer=outer, mode="stoch", rng=rng
    )
    q4 = bq.quantize_double_block(
        b4, bq.Orientation.COL_GROUPS_16X1, outer=outer, mode="stoch", rng=rng
    )
    want_dx = bq.dequantize(q3) @ bq.dequantize(q4)

    ctx_n = hd.rht_context(8, seed=77, layer="blk.fc", step=5, side="dw", block=16)
    a5 = hd.rht_apply(np.ascontiguousarray(dy.T), ctx_n)
    b6 = hd.rht_apply(np.ascontiguousarray(cache.x_hat.T), ctx_n).T
    q5 = bq.quantize_double_block(
        a5, bq.Orientation.ROW_GROUPS_1X16, outer=outer, mode="stoch", rng=rng
    )
    q6 = bq.quantize_double_block(
        b6, bq.Orientation.COL_GROUPS_16X1, outer=outer, mode="stoch", rng=rng
    )
    want_dw = bq.dequantize(q5) @ bq.dequantize(q6)

    np.testing.assert_array_equal(dx, want_dx)
    np.testing.assert_array_equal(dw, want_dw)


def test_backward_matches_manual_reconstruction_no_rht_det():
    cfg = base_cfg(rht_sides=(), stochastic_backward=False)
    x, w = rnd((8, 32), 20), rnd((16, 32), 21)
    dy = rnd((8, 16), 22)
    _, cache = ql.linear_forward(x, w, cfg, step=0)
    dx, dw, _ = ql.linear_backward(dy, cache, cfg)

    outer = cfg.outer_granularity
    q3 = bq.quantize_double_block(dy, bq.Orientation.ROW_GROUPS_1X16, outer=outer)
    q4 = bq.quantize_double_block(
        cache.w_hat, bq.Orientation.COL_GROUPS_16X1, outer=outer
    )
    q5 = bq.quantize_double_block(
        np.ascontiguousarray(dy.T), bq.Orientation.ROW_GROUPS_1X16, outer=outer
    )
    q6 = bq.quantize_double_block(
        cache.x_hat, bq.Orientation.COL_GROUPS_16X1, outer=outer
    )
    np.testing.assert_array_equal(dx, bq.dequantize(q3) @ bq.dequantize(q4))
    np.testing.assert_array_equal(dw, bq.dequantize(q5) @ bq.dequantize(q6))


def _manual_backward(dy, cache, cfg, rng, step):
    """dx and dw through C-ordered ``dequantize(quantize_double_block(...))``
    operands, in the layer's site order."""
    mode = "stoch" if cfg.stochastic_backward else "det"
    outer = cfg.outer_granularity

    def q(m, orientation):
        m = np.ascontiguousarray(m)
        # dequantize returns the work grid's view (F-ordered for col); the
        # reference multiplies C-ordered copies
        return np.ascontiguousarray(bq.dequantize(
            bq.quantize_double_block(m, orientation, outer=outer, mode=mode, rng=rng)
        ))

    def rotate(first, second_rows, side):
        ctx = hd.rht_context(first.shape[1], seed=cfg.rht_seed, layer=cfg.layer_tag,
                             step=step, side=side, block=cfg.rht_block)
        a = hd.rht_apply(np.ascontiguousarray(first), ctx)
        b = hd.rht_apply(np.ascontiguousarray(second_rows.T), ctx)
        return a, np.ascontiguousarray(b.T)

    a, b = dy, cache.w_hat
    if "dx" in cfg.rht_sides:
        a, b = rotate(a, b, "dx")
    square = cfg.weight_block is bq.Orientation.SQUARE_16X16
    w_orient = bq.Orientation.SQUARE_16X16 if square else bq.Orientation.COL_GROUPS_16X1
    dx = q(a, bq.Orientation.ROW_GROUPS_1X16) @ q(b, w_orient)
    at, bt = dy.T, (cache.x_hat if cfg.align_xhat else cache.x_raw)
    if "dw" in cfg.rht_sides:
        at, bt = rotate(at, bt, "dw")
    dw = q(at, bq.Orientation.ROW_GROUPS_1X16) @ q(bt, bq.Orientation.COL_GROUPS_16X1)
    return dx, dw


@pytest.mark.parametrize(
    "preset,n,d,c",
    [
        ("fp4-full", 1024, 128, 512),  # the tiny transformer's first MLP layer
        ("fp4-rtn", 256, 1024, 1024),  # the MLP benchmark's hidden layer
    ],
)
def test_backward_gemms_match_c_ordered_operands_at_workload_shapes(preset, n, d, c):
    # the layer rotates F-ordered operands through transposed BLAS reads and
    # multiplies F-ordered views of its quantized col operands; both must give
    # the same bits as the route through C-ordered copies
    cfg = dataclasses.replace(ql.preset(preset), layer_tag="ffn.fc1", rht_seed=9)
    x, w = rnd((n, d), 31, scale=2.0), rnd((c, d), 32, scale=0.05)
    dy = rnd((n, c), 33, scale=1e-3)
    _, cache = ql.linear_forward(x, w, cfg, step=3)
    dx, dw, _ = ql.linear_backward(dy, cache, cfg, rng=fc.stream(8, "wl"))
    want_dx, want_dw = _manual_backward(dy, cache, cfg, fc.stream(8, "wl"), 3)
    np.testing.assert_array_equal(dx, want_dx)
    np.testing.assert_array_equal(dw, want_dw)


def test_forward_matches_manual_reconstruction():
    cfg = base_cfg()
    x, w = rnd((8, 32), 23), rnd((16, 32), 24)
    y, cache = ql.linear_forward(x, w, cfg, step=0)
    qx = bq.quantize_double_block(
        x, bq.Orientation.ROW_GROUPS_1X16, outer=cfg.outer_granularity
    )
    qw = bq.quantize_double_block(
        w, bq.Orientation.ROW_GROUPS_1X16, outer=cfg.outer_granularity
    )
    np.testing.assert_array_equal(cache.x_hat, bq.dequantize(qx))
    np.testing.assert_array_equal(cache.w_hat, bq.dequantize(qw))
    np.testing.assert_array_equal(y, bq.dequantize(qx) @ bq.dequantize(qw).T)
    assert cache.clamp_counts["fwd_x"] == qx.clamp_count
    assert cache.clamp_counts["fwd_w"] == qw.clamp_count


def test_alignment_forward_consumed_equals_cache():
    cfg = base_cfg()
    x, w = rnd((12, 48), 25), rnd((10, 48), 26)
    y, cache = ql.linear_forward(x, w, cfg, step=0)
    np.testing.assert_array_equal(y, cache.x_hat @ cache.w_hat.T)


def test_align_xhat_ablation_switches_q6_input():
    cfg = base_cfg(rht_sides=(), stochastic_backward=False)
    cfg_raw = dataclasses.replace(cfg, align_xhat=False)
    x, w = rnd((8, 32), 27), rnd((16, 32), 28)
    dy = rnd((8, 16), 29)
    # the forward ignores align_xhat; only the unaligned cache keeps x_raw
    _, cache = ql.linear_forward(x, w, cfg, step=0)
    _, cache_raw = ql.linear_forward(x, w, cfg_raw, step=0)
    assert cache.x_raw is None
    np.testing.assert_array_equal(cache_raw.x_hat, cache.x_hat)
    np.testing.assert_array_equal(cache_raw.x_raw, x)
    _, dw_aligned, _ = ql.linear_backward(dy, cache, cfg)
    _, dw_raw, _ = ql.linear_backward(dy, cache_raw, cfg_raw)
    assert not np.array_equal(dw_aligned, dw_raw)
    with pytest.raises(ValueError, match="align_xhat"):
        ql.linear_backward(dy, cache, cfg_raw)

    outer = cfg.outer_granularity
    q5 = bq.quantize_double_block(
        np.ascontiguousarray(dy.T), bq.Orientation.ROW_GROUPS_1X16, outer=outer
    )
    q6_raw = bq.quantize_double_block(x, bq.Orientation.COL_GROUPS_16X1, outer=outer)
    np.testing.assert_array_equal(dw_raw, bq.dequantize(q5) @ bq.dequantize(q6_raw))


# ── gradient unbiasedness (Monte-Carlo) ──────────────────────────────────────


def _mc_backward(cfg, n_draws, seed, with_outlier=False):
    n, c, d = 8, 16, 32
    x, w = rnd((n, d), seed), rnd((c, d), seed + 1)
    dy = rnd((n, c), seed + 2)
    if with_outlier:
        x[:, 3] *= 50.0
        out = ql.select_outlier_channels(x, p=100.0 / d, style="largest-norm")
        cfg = dataclasses.replace(cfg, outlier=out)
    _, cache = ql.linear_forward(x, w, cfg, step=0)
    tx = dy.astype(np.float64) @ cache.w_hat.astype(np.float64)
    tw = dy.astype(np.float64).T @ cache.x_hat.astype(np.float64)
    s1x = np.zeros_like(tx)
    s2x = np.zeros_like(tx)
    s1w = np.zeros_like(tw)
    s2w = np.zeros_like(tw)
    for i in range(n_draws):
        dx, dw, clamps = ql.linear_backward(dy, cache, cfg, rng=fc.stream(seed, "mc", i))
        assert sum(clamps.values()) == 0
        dx64, dw64 = dx.astype(np.float64), dw.astype(np.float64)
        s1x += dx64
        s2x += dx64**2
        s1w += dw64
        s2w += dw64**2
    return (s1x, s2x, tx), (s1w, s2w, tw), n_draws


def _assert_mc_mean(stats, n, nsigma=4.0):
    s1, s2, target = stats
    mean = s1 / n
    sd = np.sqrt(np.maximum(s2 - n * mean**2, 0.0) / (n - 1))
    diff = np.abs(mean - target)
    # additive slack covers float32 evaluation noise of the estimator against
    # the float64 target (matters only where the draws are noise-free)
    tol = nsigma * sd / math.sqrt(n) + 1e-5 + 4e-6 * np.abs(target)
    assert np.all(diff <= tol), float(np.max(diff - tol))


@pytest.mark.parametrize(
    "label,kw,with_outlier",
    [
        ("rht", dict(rht_block=16), False),
        ("no-rht", dict(rht_sides=()), False),
        ("rht-outlier", dict(rht_block=16), True),
    ],
)
def test_gradient_unbiasedness_mc(label, kw, with_outlier):
    cfg = base_cfg(**kw)
    stats_x, stats_w, n = _mc_backward(cfg, n_draws=4000, seed=31, with_outlier=with_outlier)
    _assert_mc_mean(stats_x, n)
    _assert_mc_mean(stats_w, n)


# ── OutControl ────────────────────────────────────────────────────────────────


def test_outlier_forward_error_smaller_than_without():
    # A lone huge channel is its own block's scale carrier in FP4 and is
    # therefore represented almost exactly; the damage it causes is to the
    # fifteen neighbors sharing its scale.  binary16 retention removes that
    # collateral while keeping the outlier essentially exact, so the
    # comparison is decisive.
    g = np.random.Generator(np.random.Philox(33))
    x = g.normal(size=(32, 64)).astype(F32)
    x[:, 5] = g.uniform(900.0, 1100.0, size=32).astype(F32) * np.where(
        g.random(32) < 0.5, -1, 1
    )
    # grid-point weights quantize (almost) exactly, so the comparison sees the
    # activation path instead of the outlier-times-weight-noise term x*dW,
    # which OutControl leaves fully quantized by design and which would
    # otherwise dominate both configurations equally
    w = fp4_grid_matrix((16, 64), seed=34, unit=1.0)
    exact = x.astype(np.float64) @ w.astype(np.float64).T
    out = ql.select_outlier_channels(
        x, p=100.0 / 64, style="largest-norm", precision="float16"
    )
    assert out.channels == (5,)
    cfg_plain = base_cfg()
    cfg_out = base_cfg(outlier=out)
    y_plain, _ = ql.linear_forward(x, w, cfg_plain, step=0)
    y_out, _ = ql.linear_forward(x, w, cfg_out, step=0)
    err_plain = np.max(np.abs(y_plain - exact))
    err_out = np.max(np.abs(y_out - exact))
    assert err_out < err_plain


def test_outlier_e4m3_wins_on_clustered_outliers():
    # when two outlier channels of different magnitude share one 16-block,
    # the smaller one loses the carrier privilege and FP4 quantizes it on a
    # grid of ~1/12 of the carrier, i.e. tens of absolute error; the FP8-style
    # passthrough keeps both at ~2^-4 relative error.  The second outlier must
    # sit well above ~1/10 of the carrier for that trade to be decisive.
    g = np.random.Generator(np.random.Philox(35))
    x = g.normal(size=(32, 64)).astype(F32)
    x[:, 5] = g.uniform(900.0, 1100.0, size=32).astype(F32)
    x[:, 6] = g.uniform(250.0, 350.0, size=32).astype(F32)
    w = fp4_grid_matrix((16, 64), seed=36, unit=1.0)
    exact = x.astype(np.float64) @ w.astype(np.float64).T
    out = ql.select_outlier_channels(x, p=100.0 * 2 / 64, style="largest-norm")
    assert out.channels == (5, 6)
    assert out.precision == "e4m3"
    y_plain, _ = ql.linear_forward(x, w, base_cfg(), step=0)
    y_out, _ = ql.linear_forward(x, w, base_cfg(outlier=out), step=0)
    assert float(np.mean((y_out - exact) ** 2)) < float(np.mean((y_plain - exact) ** 2))


def test_outlier_dw_columns_noise_free():
    x, w = rnd((16, 32), 35), rnd((8, 32), 36)
    x[:, 7] *= 30.0
    out = ql.select_outlier_channels(x, p=100.0 / 32, style="largest-norm")
    assert out.channels == (7,)
    cfg = base_cfg(outlier=out, rht_block=16)
    dy = rnd((16, 8), 37)
    _, cache = ql.linear_forward(x, w, cfg, step=0)
    a = np.asarray(out.channels)
    dx1, dw1, _ = ql.linear_backward(dy, cache, cfg, rng=fc.stream(38))
    dx2, dw2, _ = ql.linear_backward(dy, cache, cfg, rng=fc.stream(39))
    # outlier columns carry no quantization noise: identical across rngs and
    # exactly the high-precision product; other columns differ between draws
    np.testing.assert_array_equal(dw1[:, a], dw2[:, a])
    np.testing.assert_array_equal(dw1[:, a], dy.T @ cache.x_hat[:, a])
    assert not np.array_equal(dw1, dw2)


def test_outlier_forward_cache_holds_passthrough():
    x, w = rnd((8, 32), 40), rnd((4, 32), 41)
    x[:, 11] = 600.0
    out = ql.select_outlier_channels(x, p=100.0 / 32, style="largest-norm", precision="float32")
    cfg = base_cfg(outlier=out)
    y, cache = ql.linear_forward(x, w, cfg, step=0)
    np.testing.assert_array_equal(cache.x_hat[:, 11], x[:, 11])
    # complement columns are quantized with the outlier zeroed
    xz = x.copy()
    xz[:, 11] = 0.0
    qz = bq.quantize_double_block(
        xz, bq.Orientation.ROW_GROUPS_1X16, outer=cfg.outer_granularity
    )
    keep = [j for j in range(32) if j != 11]
    np.testing.assert_array_equal(cache.x_hat[:, keep], bq.dequantize(qz)[:, keep])
    np.testing.assert_array_equal(y, cache.x_hat @ cache.w_hat.T)


def test_outlier_e4m3_passthrough_uses_tensor_scale():
    # values above 448 must survive the FP8-style passthrough via its scale
    x = np.zeros((4, 32), F32)
    x[:, 3] = np.array([1000.0, -500.0, 2.0, 0.0], F32)
    w = rnd((4, 32), 43)
    out = ql.OutlierConfig(channels=(3,), precision="e4m3")
    y, cache = ql.linear_forward(x, w, base_cfg(outlier=out), step=0)
    col = cache.x_hat[:, 3]
    assert abs(col[0] - 1000.0) <= 1000.0 / 16
    assert abs(col[1] + 500.0) <= 500.0 / 16
    assert col[3] == 0.0


def test_select_outlier_channels_styles_and_errors():
    g = np.random.Generator(np.random.Philox(44))
    acts = g.normal(size=(48, 64)).astype(F32)
    acts[:, [4, 17, 40]] *= 100.0
    sel = ql.select_outlier_channels(acts, p=100.0 * 3 / 64, style="largest-norm")
    assert sel.channels == (4, 17, 40)
    assert ql.select_outlier_channels(acts, p=0.0, style="largest-norm").channels == ()
    assert ql.select_outlier_channels(acts, p=0.0, style="random").channels == ()
    assert (
        ql.select_outlier_channels(acts, p=100.0, style="largest-norm").channels
        == tuple(range(64))
    )
    r1 = ql.select_outlier_channels(acts, p=25.0, style="random", seed=5)
    r2 = ql.select_outlier_channels(acts, p=25.0, style="random", seed=5)
    assert r1.channels == r2.channels
    assert len(r1.channels) == round(0.25 * 64)
    # a ratio of 0 retains nothing, so no style says it again
    with pytest.raises(ValueError, match="'none' is not a valid OutlierStyle"):
        ql.select_outlier_channels(acts, p=50.0, style="none")
    with pytest.raises(ValueError):
        ql.select_outlier_channels(acts[0], p=10.0, style="largest-norm")  # 1-D
    with pytest.raises(ValueError):
        ql.select_outlier_channels(acts, p=-1.0, style="largest-norm")
    with pytest.raises(ValueError):
        ql.select_outlier_channels(acts, p=101.0, style="largest-norm")


def test_outlier_index_out_of_range_rejected():
    x, w = rnd((4, 32), 45), rnd((4, 32), 46)
    bad = ql.OutlierConfig(channels=(32,), precision="e4m3")
    with pytest.raises(ValueError):
        ql.linear_forward(x, w, base_cfg(outlier=bad), step=0)


@pytest.mark.parametrize("channel", [1.7, 1.0, True, "3", None])
def test_outlier_channels_take_only_integers(channel):
    # a float or bool channel is rejected, not truncated to another channel
    with pytest.raises(ValueError, match=f"outlier channels must be integers, got {channel!r}"):
        ql.OutlierConfig(channels=(0, channel))
    assert ql.OutlierConfig(channels=(np.int64(4), 2)).channels == (4, 2)


@pytest.mark.parametrize("channels, message", [
    (5, "outlier channels must be a list of integers, got 5"),
    ("12", "outlier channels must be a list of integers, got '12'"),
    ((-1,), r"outlier channels must be distinct and >= 0, got \(-1,\)"),
    ((3, np.int64(-2)), r"outlier channels must be distinct and >= 0, got \(3, -2\)"),
    ((4, 2, 4), r"outlier channels must be distinct and >= 0, got \(4, 2, 4\)"),
])
def test_outlier_channels_are_checked_at_construction(channels, message):
    # a non-list was a bare TypeError and a negative channel failed only later
    with pytest.raises(ValueError, match=message):
        ql.OutlierConfig(channels=channels)


@pytest.mark.parametrize("name", ["e4m3", "E2M1"])
def test_config_takes_only_the_element_formats(name):
    # a format reaches the config only through precision
    with pytest.raises(ValueError, match=f"precision must be one of .*, got '{name}'"):
        ql.LayerQuantConfig(precision=name)
    with pytest.raises(TypeError):
        ql.LayerQuantConfig(format_w_for_dx="e2m1")  # no site has a format field
    with pytest.raises(TypeError):
        ql.LayerQuantConfig(fp6_variant="e2m3")  # nor the FP6 variant apart from the mode


_MODES = "['e2m1xe2m1', 'e3m2xe2m1', 'e2m3xe2m1', 'e3m2xe3m2', 'e2m3xe2m3']"


@pytest.mark.parametrize("value", ["FP4XFP4", "fp6xfp4", "E2M1XE2M1", 5, None])
def test_precision_takes_only_the_mode_names(value):
    with pytest.raises(ValueError) as exc:
        ql.LayerQuantConfig(precision=value)
    assert str(exc.value) == f"precision must be one of {_MODES}, got {value!r}"
    assert ql.LayerQuantConfig(precision="e3m2xe2m1").precision is ql.PrecisionMode.E3M2XE2M1


@pytest.mark.parametrize("name", ["fp8", 5, None, ["fp32"]])
def test_preset_rejects_an_unknown_name_naming_it(name):
    with pytest.raises(ValueError) as exc:
        ql.preset(name)
    assert str(exc.value).startswith(f"unknown preset {name!r}; choose from ('fp32', ")


# ── precision modes ───────────────────────────────────────────────────────────


def test_set_precision_mode_fp4_is_identity():
    cfg = ql.preset("fp4-base")
    assert cfg.precision is ql.PrecisionMode.E2M1XE2M1
    assert dataclasses.replace(cfg, precision="e2m1xe2m1") == cfg
    assert {cfg.site_format(s) for s in ql.QUANTIZER_SITES} == {"e2m1"}


def test_set_precision_mode_fp6xfp4_placement():
    cfg = base_cfg(precision="e3m2xe2m1")
    assert cfg.site_format("fwd_x") == "e3m2"
    assert cfg.site_format("dy_for_dx") == "e3m2"
    assert cfg.site_format("x_for_dw") == "e3m2"
    assert cfg.site_format("fwd_w") == cfg.format_fwd_w == "e2m1"
    assert cfg.site_format("w_for_dx") == "e2m1"
    assert cfg.site_format("dy_for_dw") == "e2m1"


def test_set_precision_mode_fp6xfp6_lifts_all_sites():
    cfg = base_cfg(precision="e2m3xe2m3")
    assert {cfg.site_format(s) for s in ql.QUANTIZER_SITES} == {"e2m3"}
    assert cfg.format_fwd_w == "e2m3"


def test_fp6_forward_mse_not_worse_than_fp4():
    x, w = rnd((16, 64), 47), rnd((16, 64), 48)
    exact = x.astype(np.float64) @ w.astype(np.float64).T
    errs = {}
    for mode in ("e2m1xe2m1", "e3m2xe3m2"):
        cfg = base_cfg(precision=mode)
        y, _ = ql.linear_forward(x, w, cfg, step=0)
        errs[mode] = float(np.mean((y - exact) ** 2))
    assert errs["e3m2xe3m2"] <= errs["e2m1xe2m1"]


# ── weight block shapes / presets ────────────────────────────────────────────


def test_square_weight_block_reuses_forward_weight():
    cfg = ql.preset("fp4-rtn")
    assert cfg.weight_block is bq.Orientation.SQUARE_16X16
    assert not cfg.stochastic_backward
    assert not cfg.align_xhat
    assert cfg.rht_sides == ("dw",)
    assert cfg.outer_granularity is bq.OuterGranularity.PER_TENSOR
    x, w = rnd((16, 32), 49), rnd((16, 32), 50)
    dy = rnd((16, 16), 51)
    _, cache = ql.linear_forward(x, w, cfg, step=0)
    dx, _, _ = ql.linear_backward(dy, cache, cfg, rng=fc.stream(52))
    # the dX weight operand is a square-tile requantization of the cached
    # square-tile weight: codes are a fixed point there, so values re-derive
    # to the same grid up to one scale ulp
    q4 = bq.quantize_double_block(cache.w_hat, bq.Orientation.SQUARE_16X16)
    np.testing.assert_allclose(bq.dequantize(q4), cache.w_hat, rtol=1e-6, atol=0)


def test_presets_match_documented_recipes():
    b = ql.preset("fp4-base")
    assert b.sites == ql.QUANTIZER_SITES
    assert b.rht_sides == ("dx", "dw")
    assert b.weight_block is bq.Orientation.ROW_GROUPS_1X16
    assert b.outer_granularity is bq.OuterGranularity.BLOCK_1X128
    assert b.align_xhat and b.stochastic_backward and b.outlier is None
    full = ql.preset("fp4-full")
    assert full == b
    z = ql.preset("fp32")
    assert z.sites == () and z.rht_sides == ()
    with pytest.raises(ValueError):
        ql.preset("fp8-magic")


@pytest.mark.parametrize("outer", ["1x128", "per-row"])
def test_square_weight_tiles_need_a_per_tensor_outer_scale(outer):
    with pytest.raises(ValueError, match="per-tensor"):
        ql.LayerQuantConfig(weight_block="square", outer_granularity=outer)
    rtn = ql.preset("fp4-rtn")
    with pytest.raises(ValueError, match="per-tensor"):
        dataclasses.replace(rtn, outer_granularity=outer)


# ── errors, diagnostics ──────────────────────────────────────────────────────


def test_shape_mismatch_rejected():
    x, w = rnd((4, 32), 62), rnd((4, 31), 63)
    with pytest.raises(ValueError):
        ql.linear_forward(x, w, base_cfg(), step=0)
    x, w = rnd((4, 32), 64), rnd((4, 32), 65)
    _, cache = ql.linear_forward(x, w, base_cfg(), step=3)
    with pytest.raises(ValueError, match="dy must have shape"):
        ql.linear_backward(rnd((4, 5), 66), cache, base_cfg(), rng=fc.stream(0))


def test_stochastic_backward_requires_rng():
    x, w = rnd((4, 32), 67), rnd((4, 32), 68)
    _, cache = ql.linear_forward(x, w, base_cfg(), step=0)
    with pytest.raises(ValueError):
        ql.linear_backward(rnd((4, 4), 69), cache, base_cfg())


def test_clamp_counters_recorded():
    # a 448-carrier next to a 6.1 element forces the inner scale of the second
    # block to round down, producing a counted clamp in the forward activation
    x = np.zeros((1, 32), F32)
    x[0, 0] = 448.0
    x[0, 16] = 6.1
    w = fp4_grid_matrix((4, 32), seed=70)
    _, cache = ql.linear_forward(x, w, base_cfg(), step=0)
    assert cache.clamp_counts["fwd_x"] >= 1
    assert cache.clamp_counts["fwd_w"] == 0


def test_backward_returns_its_clamp_counts_and_leaves_the_cache():
    # the 448-carrier / 6.1 pair of test_clamp_counters_recorded, placed in
    # one row of dy, clamps Q3; the counts come back, the cache keeps Q1/Q2's
    cfg = base_cfg(rht_sides=(), stochastic_backward=False)
    x, w = rnd((32, 32), 71), rnd((32, 32), 72)
    _, cache = ql.linear_forward(x, w, cfg, step=0)
    fwd_counts = dict(cache.clamp_counts)
    dy = np.zeros((32, 32), F32)
    dy[0, 0] = 448.0
    dy[0, 16] = 6.1
    _, _, clamps = ql.linear_backward(dy, cache, cfg)
    assert set(clamps) == {"dy_for_dx", "w_for_dx", "dy_for_dw", "x_for_dw"}
    q3 = bq.quantize_double_block(dy, bq.Orientation.ROW_GROUPS_1X16,
                                  outer=cfg.outer_granularity)
    assert clamps["dy_for_dx"] == q3.clamp_count >= 1
    assert cache.clamp_counts == fwd_counts
    _, _, none = ql.linear_backward(dy, cache, ql.preset("fp32"))
    assert none == {}


# ── byte pin of the site and rotation choices ────────────────────────────────
# Recorded while each site and each rotated matmul had a boolean field of its
# own: naming them as two sets must give every choice below the same bytes.

_PIN_SITE_SETS = (
    (),
    *((s,) for s in ql.QUANTIZER_SITES),
    ql.QUANTIZER_SITES[:2],
    ql.QUANTIZER_SITES[2:],
    ql.QUANTIZER_SITES,
)
_PIN_RHT_SIDES = ((), ("dx",), ("dw",), ("dx", "dw"))

SITES_SHA256 = {
    "fp4-base": "9c2dda9ed14dd6eb084eb946a8811065a84d0c2f1b55ba0986d4afa38ae81273",
    "fp4-rtn": "a82d10319421bf0c6ed70525b5c01d401832feb69b2e04c9562349f9d22ebe58",
}


@pytest.mark.parametrize("name", sorted(SITES_SHA256))
def test_site_and_rotation_choices_keep_their_bytes(name):
    # a ragged layer (no dimension a multiple of 16) with two outlier channels
    x, w, dy = rnd((24, 80), 81), rnd((40, 80), 82), rnd((24, 40), 83)
    x[:, [5, 61]] *= 40.0
    outlier = ql.OutlierConfig(channels=(5, 61))
    h = hashlib.sha256()
    for sites in _PIN_SITE_SETS:
        for sides in _PIN_RHT_SIDES:
            cfg = dataclasses.replace(ql.preset(name), sites=sites, rht_sides=sides,
                                      outlier=outlier, layer_tag="pin", rht_seed=7)
            y, cache = ql.linear_forward(x, w, cfg, step=3)
            dx, dw, clamps = ql.linear_backward(dy, cache, cfg, rng=fc.stream(9, "pin"))
            for a in (y, dx, dw):
                h.update(a.tobytes())
            for counts in (cache.clamp_counts, clamps):
                h.update(repr(sorted((k, int(v)) for k, v in counts.items())).encode())
    assert h.hexdigest() == SITES_SHA256[name]
