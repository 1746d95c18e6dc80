"""Tests for weight-oscillation tracking and suppression.

Oracles:
  * a hand-scripted trajectory with a unit-scale quantizer view gives exact
    (dyadic) accumulator values, checked with strict equality;
  * the alternating-boundary trajectory has a closed form: a latent weight
    hopping q_mid +/- eps each step travels 2*eps*s of master distance and
    0.5*s of quantized distance per step, so risk = 0.25/eps independent of
    the scale, the step count, and the phase;
  * suppression neutrality is checked bitwise: the full quantization product
    (codes, both scale levels, clamp count) and a layer forward pass must be
    identical immediately before and after a reset.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nvfp4sim import blockquant as bq
from nvfp4sim import fpcodec as fc
from nvfp4sim import oscillation as osc
from nvfp4sim import qlinear as ql
from test_blockquant import _brute_block_amax

F32 = np.float32


def unit_scale_view(w):
    """Fake quantizer view: round straight to the FP4 value grid (scale 1)."""
    vals = fc.round_det(np.asarray(w, F32), fc.FP4_E2M1).astype(F32)
    return osc.QuantizedWeightView(values=vals, at_max_code=np.abs(vals) == 6.0)


def row_view():
    return osc.double_block_weight_view(
        bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128
    )


def carrier_row(osc_value, carrier=2688.0, width=16):
    """One 16-wide row whose scale chain is pinned by a 2688 carrier:
    S_g = 1.0 and S_b = 448 exactly, so the latent weight is w / 448."""
    w = np.zeros((1, width), F32)
    w[0, 0] = carrier
    w[0, 1] = osc_value
    return w


# ── schedule and phase ───────────────────────────────────────────────────────


def test_schedule_defaults():
    s = osc.SuppressionSchedule(t_max=1000, t_start=400)
    assert (s.t_period, s.t_accu, s.tau_osci) == (200, 50, 8.0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(t_max=1000, t_start=400, t_accu=200, t_period=200),
        dict(t_max=1000, t_start=400, t_accu=300, t_period=200),
        dict(t_max=1000, t_start=1200),
        dict(t_max=0, t_start=0),
        dict(t_max=1000, t_start=400, t_period=0, t_accu=0),
        dict(t_max=1000, t_start=-1),
        dict(t_max=1000, t_start=400, tau_osci=0.0),
        dict(t_max=1000, t_start=400, tau_osci=float("nan")),
        dict(t_max=1000, t_start=400, t_period=2.5, t_accu=1),
        dict(t_max=1000.0, t_start=400),
        dict(t_max=1000, t_start=400, t_accu=True),
        dict(t_max=1000, t_start=400, tau_osci="8"),
        dict(t_max=1000, t_start=400, tau_osci=True),
        dict(t_max=40, t_start=1, t_period=8, t_accu=7),  # the window never closes
        dict(t_max=40, t_start=1, t_period=1, t_accu=0),
    ],
)
def test_schedule_validation(kw):
    with pytest.raises(ValueError):
        osc.SuppressionSchedule(**kw)


def test_hook_before_start_is_none():
    s = osc.SuppressionSchedule(t_max=1000, t_start=400)
    for step in (1, 399):
        assert s.phase(step) is None


def test_hook_accumulate_window():
    s = osc.SuppressionSchedule(t_max=1000, t_start=400)
    assert [s.phase(step) for step in (400, 437, 450, 600)] == [0, 37, 50, 0]


def test_hook_suppress_right_after_window():
    s = osc.SuppressionSchedule(t_max=1000, t_start=400)
    assert s.phase(451) == s.phase(651) == s.t_accu + 1


def test_hook_idle_tail_of_period():
    s = osc.SuppressionSchedule(t_max=1000, t_start=400)
    for step in (452, 599, 999):
        assert s.phase(step) is None


def test_hook_rejects_nonpositive_step():
    s = osc.SuppressionSchedule(t_max=1000, t_start=400)
    with pytest.raises(ValueError):
        s.phase(0)


@st.composite
def schedules(draw):
    t_period = draw(st.integers(2, 64))
    return osc.SuppressionSchedule(
        t_max=4 * t_period, t_start=draw(st.integers(0, 4 * t_period)),
        t_period=t_period, t_accu=draw(st.integers(0, t_period - 2)))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_phase_walks_each_full_period_once(s):
    # steps 1..4P hold three full periods, the ones opening at P, 2P and 3P
    phases = {step: s.phase(step) for step in range(1, s.t_max + 1)}
    assert all(phases[step] is None for step in range(1, s.t_start))
    window = list(range(s.t_accu + 2))  # accumulate 0..t_accu, then suppress once
    for first in range(s.t_period, s.t_max, s.t_period):
        if first >= s.t_start:
            period = [phases[step] for step in range(first, first + s.t_period)]
            assert period == window + [None] * (s.t_period - len(window))


# ── double-block quantizer view ──────────────────────────────────────────────

VIEW_LAYOUTS = [
    (bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128, (5, 150)),
    (bq.Orientation.COL_GROUPS_16X1, bq.OuterGranularity.PER_ROW, (37, 9)),
    (bq.Orientation.SQUARE_16X16, None, (20, 35)),
]


@pytest.mark.parametrize("orientation,outer,shape", VIEW_LAYOUTS, ids=["row", "col", "square"])
def test_weight_view_values_match_dequantize(orientation, outer, shape):
    w = (np.random.Generator(np.random.Philox(43)).standard_normal(shape) * 3).astype(F32)
    view = osc.double_block_weight_view(orientation, outer)(w)
    q = bq.quantize_double_block(w, orientation, outer=outer)
    np.testing.assert_array_equal(view.values, bq.dequantize(q))
    np.testing.assert_array_equal(view.block_amax, _brute_block_amax(w, orientation))


@pytest.mark.parametrize("orientation,outer,shape", VIEW_LAYOUTS, ids=["row", "col", "square"])
def test_weight_view_flags_block_carriers_at_max_code(orientation, outer, shape):
    # every block's amax carrier lands on the top code (the E4M3 scale is at
    # most 1/16 off, so its ratio stays above 5 and rounds to 6); the flags
    # come back in the logical layout, ragged edges and transposes included
    w = (np.random.Generator(np.random.Philox(53)).standard_normal(shape) * 3).astype(F32)
    view = osc.double_block_weight_view(orientation, outer)(w)
    assert view.at_max_code.shape == w.shape and view.at_max_code.dtype == bool
    assert np.all(view.at_max_code[np.abs(w) == view.block_amax])
    # top-code values are the largest in their block, and only they reach it
    top = np.abs(view.values) == _brute_block_amax(view.values, orientation)
    np.testing.assert_array_equal(view.at_max_code, top)


# ── accumulator mechanics ────────────────────────────────────────────────────


def test_update_constant_weights_is_zero():
    w = carrier_row(112.0)
    tr = osc.OscillationTracker.zeros(w.shape)
    for t0 in range(5):
        osc.update_oscillation_stats(w, row_view(), tr, t0)
    assert not tr.dist_m.any() and not tr.dist_q.any()
    assert np.array_equal(tr.w_prev, w)


def test_update_monotone_drift_inside_bin():
    # Latent weight walks 0.26 -> 0.30 inside the (0.25, 0.75) bin of 0.5:
    # the quantized value never moves, the master distance is the total drift.
    view = row_view()
    tr = osc.OscillationTracker.zeros((1, 16))
    latents = [0.26, 0.27, 0.28, 0.29, 0.30]
    for t0, lat in enumerate(latents):
        osc.update_oscillation_stats(carrier_row(448.0 * lat), view, tr, t0)
    assert tr.dist_q[0, 1] == 0.0
    total = sum(
        abs(F32(448.0 * b) - F32(448.0 * a)) for a, b in zip(latents, latents[1:])
    )
    assert np.isclose(tr.dist_m[0, 1], total, rtol=1e-6)
    assert tr.dist_m[0, 0] == 0.0  # the carrier never moved


def test_update_hand_trajectory_exact():
    # Dyadic trajectory, unit-scale view: every increment is exact in float32.
    traj = [0.375, 0.1875, 0.375, 0.625]  # Q: 0.5, 0.0, 0.5, 0.5
    w = lambda v: np.array([[v]], F32)
    tr = osc.OscillationTracker.zeros((1, 1))
    expect_m, expect_q = [0.0, 0.1875, 0.375, 0.625], [0.0, 0.5, 1.0, 1.0]
    prev_m = prev_q = -1.0
    for t0, v in enumerate(traj):
        osc.update_oscillation_stats(w(v), unit_scale_view, tr, t0)
        assert tr.dist_m[0, 0] == F32(expect_m[t0])
        assert tr.dist_q[0, 0] == F32(expect_q[t0])
        assert tr.dist_m[0, 0] >= prev_m and tr.dist_q[0, 0] >= prev_q
        prev_m, prev_q = tr.dist_m[0, 0], tr.dist_q[0, 0]
    assert osc.osci_risk(tr)[0, 0] == F32(1.0) / F32(0.625)


def test_update_t0_zero_restarts_window():
    tr = osc.OscillationTracker.zeros((1, 1))
    osc.update_oscillation_stats(np.array([[0.375]], F32), unit_scale_view, tr, 0)
    osc.update_oscillation_stats(np.array([[0.1875]], F32), unit_scale_view, tr, 1)
    assert tr.dist_m[0, 0] > 0
    osc.update_oscillation_stats(np.array([[2.0]], F32), unit_scale_view, tr, 0)
    assert tr.dist_m[0, 0] == 0.0 and tr.dist_q[0, 0] == 0.0
    assert tr.w_prev[0, 0] == F32(2.0) and tr.q_prev[0, 0] == F32(2.0)


def test_update_unaligned_start_initializes_lazily():
    # First call of a fresh tracker mid-window must snapshot, not accumulate.
    tr = osc.OscillationTracker.zeros((1, 1))
    osc.update_oscillation_stats(np.array([[0.375]], F32), unit_scale_view, tr, 7)
    assert tr.dist_m[0, 0] == 0.0 and tr.dist_q[0, 0] == 0.0
    osc.update_oscillation_stats(np.array([[0.1875]], F32), unit_scale_view, tr, 8)
    assert tr.dist_m[0, 0] == F32(0.1875) and tr.dist_q[0, 0] == F32(0.5)


def test_update_shape_mismatch_raises():
    tr = osc.OscillationTracker.zeros((2, 16))
    with pytest.raises(ValueError):
        osc.update_oscillation_stats(np.zeros((1, 16), F32), unit_scale_view, tr, 0)


# ── the closed-form alternating oracle ───────────────────────────────────────


def alternating_risk(eps, steps=24):
    """Drive the real double-block view with a latent weight hopping
    0.25 +/- eps around the 0<->0.5 boundary; return the tracker."""
    view = row_view()
    tr = osc.OscillationTracker.zeros((1, 16))
    for t0 in range(steps + 1):
        lat = 0.25 + eps if t0 % 2 == 0 else 0.25 - eps
        osc.update_oscillation_stats(carrier_row(F32(448.0 * lat)), view, tr, t0)
    return tr


def test_alternating_closed_form_eps_001():
    tr = alternating_risk(0.01)
    risk = osc.osci_risk(tr)
    assert abs(risk[0, 1] - 25.0) < 1e-3
    # dist_Q = 0.5 * s per step, s = 448, 24 steps
    assert tr.dist_q[0, 1] == F32(224.0 * 24)
    assert np.isclose(tr.dist_m[0, 1], 2 * 0.01 * 448.0 * 24, rtol=1e-5)


@pytest.mark.parametrize("eps", [1.0 / 64, 0.02, 0.04])
def test_alternating_closed_form_sweep(eps):
    risk = osc.osci_risk(alternating_risk(eps))
    assert np.isclose(risk[0, 1], 0.25 / eps, rtol=1e-4)
    assert risk[0, 0] == 0.0  # pinned carrier never moves


def test_alternating_exact_dyadic_eps():
    # eps = 1/64 makes every quantity exact: w = 112 +/- 7, |dw| = 14,
    # |dQ| = 224, risk = 224/14 = 16.
    tr = alternating_risk(1.0 / 64, steps=10)
    assert tr.dist_m[0, 1] == F32(140.0)
    assert tr.dist_q[0, 1] == F32(2240.0)
    assert osc.osci_risk(tr)[0, 1] == F32(16.0)


# ── risk ─────────────────────────────────────────────────────────────────────


def test_risk_is_elementwise_ratio():
    tr = osc.OscillationTracker.zeros((2, 2))
    tr.dist_m[:] = [[1.0, 4.0], [0.5, 8.0]]
    tr.dist_q[:] = [[2.0, 1.0], [4.0, 0.0]]
    assert np.array_equal(osc.osci_risk(tr), np.array([[2.0, 0.25], [8.0, 0.0]], F32))


def test_risk_zero_on_degenerate_denominator():
    tr = osc.OscillationTracker.zeros((1, 3))
    tr.dist_q[0, 1] = 5.0  # moved quantized, frozen master
    risk = osc.osci_risk(tr)
    assert np.array_equal(risk, np.zeros((1, 3), F32))


def test_risk_zero_when_only_scale_drifts():
    # The master weight w[0,1] never moves, but the block carrier shrinks,
    # dragging the scale chain with it; Q(w[0,1]) jumps 0 -> 112 while
    # dist_M stays 0.  The degenerate-denominator convention must kick in.
    view = row_view()
    tr = osc.OscillationTracker.zeros((1, 16))
    for t0, carrier in enumerate([2688.0, 1344.0]):
        w = carrier_row(112.0, carrier=carrier)
        osc.update_oscillation_stats(w, view, tr, t0)
    assert tr.dist_m[0, 1] == 0.0 and tr.dist_q[0, 1] > 0.0
    assert osc.osci_risk(tr)[0, 1] == 0.0
    # the carrier itself moved 1344 with Q tracking it exactly: risk = 1
    assert osc.osci_risk(tr)[0, 0] == F32(1.0)


# ── suppression ──────────────────────────────────────────────────────────────


def poke(tr, mask, risk=100.0):
    """Force OsciRisk = `risk` on `mask`, 0 elsewhere."""
    tr.dist_m[:] = 1.0
    tr.dist_q[:] = 0.0
    tr.dist_q[mask] = risk
    return tr


def test_suppress_below_threshold_is_identity():
    w = carrier_row(116.0)
    tr = osc.OscillationTracker.zeros(w.shape)
    out, n = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    assert n == 0 and np.array_equal(out, w)
    assert out is not w  # functional: the input array is never mutated


def test_suppress_resets_to_live_dequantized_value():
    w = carrier_row(116.0)  # latent 0.259 -> code 0.5 -> dequant 224
    tr = osc.OscillationTracker.zeros(w.shape)
    mask = np.zeros(w.shape, bool)
    mask[0, 1] = True
    poke(tr, mask)
    out, n = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    assert n == 1
    assert out[0, 1] == F32(224.0)
    untouched = np.ones(w.shape, bool)
    untouched[0, 1] = False
    assert np.array_equal(out[untouched], w[untouched])


def test_suppress_threshold_is_inclusive():
    w = carrier_row(116.0)
    tr = osc.OscillationTracker.zeros(w.shape)
    mask = np.zeros(w.shape, bool)
    mask[0, 1] = True
    poke(tr, mask, risk=8.0)
    _, n = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    assert n == 1
    _, n = osc.oscillation_suppress(w, row_view(), tr, 8.0001)
    assert n == 0


def test_suppress_skips_max_code_elements():
    # w[0,0] is the scale carrier (code 6) and w[0,2] also lands on code 6
    # without being the carrier; resetting either would move the block amax and
    # re-derive the scales, so both are excluded no matter how high the risk.
    w = carrier_row(116.0)
    w[0, 2] = 2500.0  # latent 5.58 -> code 6
    tr = osc.OscillationTracker.zeros(w.shape)
    poke(tr, np.ones(w.shape, bool))
    out, n = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    assert out[0, 0] == F32(2688.0) and out[0, 2] == F32(2500.0)
    # everything else in the row is eligible (14 elements)
    assert n == 14
    assert out[0, 1] == F32(224.0)


def test_suppress_reset_points_are_requantize_fixed_points():
    w = carrier_row(116.0)
    tr = osc.OscillationTracker.zeros(w.shape)
    poke(tr, np.ones(w.shape, bool))
    out, _ = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    again, n = osc.oscillation_suppress(out, row_view(), tr, 8.0)
    # resetting twice is idempotent: already-centered weights do not move
    # (15 eligible: everything in the 16-row except the carrier)
    assert np.array_equal(again, out) and n == 15


def _assert_quantization_identical(wa, wb, orientation, outer):
    qa = bq.quantize_double_block(wa, orientation, outer=outer)
    qb = bq.quantize_double_block(wb, orientation, outer=outer)
    assert qa == qb  # codes, both scale levels, clamp count


def test_suppress_neutrality_bitwise_quantization():
    g = np.random.Generator(np.random.Philox(911))
    w = (g.normal(size=(4, 64)) * g.choice([0.01, 1.0, 30.0], size=(4, 64))).astype(F32)
    tr = osc.OscillationTracker.zeros(w.shape)
    poke(tr, g.random((4, 64)) < 0.7)
    out, n = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    assert n > 0
    _assert_quantization_identical(
        w, out, bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128
    )


def test_suppress_neutrality_forward_and_backward_bitwise():
    # Criterion: a forward pass immediately after suppression is bit-identical
    # to the one immediately before, and so is a seeded backward pass.
    g = np.random.Generator(np.random.Philox(912))
    x = g.normal(size=(8, 64)).astype(F32)
    w = (g.normal(size=(32, 64)) * g.choice([0.05, 1.0, 20.0], size=(32, 64))).astype(F32)
    dy = g.normal(size=(8, 32)).astype(F32)
    cfg = ql.preset("fp4-base")
    view = osc.double_block_weight_view(
        cfg.weight_block, cfg.outer_granularity, cfg.format_fwd_w
    )
    tr = osc.OscillationTracker.zeros(w.shape)
    poke(tr, g.random(w.shape) < 0.5)
    w2, n = osc.oscillation_suppress(w, view, tr, 8.0)
    assert n > 0

    y1, cache1 = ql.linear_forward(x, w, cfg)
    y2, cache2 = ql.linear_forward(x, w2, cfg)
    assert np.array_equal(y1, y2)
    assert np.array_equal(cache1.w_hat, cache2.w_hat)

    dx1, dw1, _ = ql.linear_backward(dy, cache1, cfg, rng=fc.stream(77))
    dx2, dw2, _ = ql.linear_backward(dy, cache2, cfg, rng=fc.stream(77))
    assert np.array_equal(dx1, dx2) and np.array_equal(dw1, dw2)


def test_suppress_neutrality_underflow_block():
    # A block whose amax sits ~5e6 below the outer amax drives the block
    # scale to zero: every element quantizes to code 0, including the amax
    # carrier, so the top-code exclusion alone would reset the carrier and
    # re-derive the scales.  The carrier-by-magnitude exclusion must hold.
    w = np.full((1, 32), 0.125, F32)
    w[0, 0] = 688128.0
    tr = osc.OscillationTracker.zeros(w.shape)
    poke(tr, np.ones(w.shape, bool))
    out, _ = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    _assert_quantization_identical(
        w, out, bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128
    )


def test_suppress_neutrality_subnormal_scale_band():
    # With the block scale in e4m3's subnormal range its relative rounding
    # error is huge, so the amax carrier can land on a low code (here 4, not
    # 6) and its naive reset would shrink the block amax.
    w = np.zeros((1, 32), F32)
    w[0, 0] = 2688.0  # pins the outer scale to 1.0
    w[0, 16] = 8.4e-3  # second block's carrier, scale ~2e-3 (subnormal)
    w[0, 17] = 5.0e-3
    view = row_view()
    assert not view(w).at_max_code[0, 16]  # the corner is real: low code
    tr = osc.OscillationTracker.zeros(w.shape)
    poke(tr, np.ones(w.shape, bool))
    out, _ = osc.oscillation_suppress(w, view, tr, 8.0)
    assert out[0, 16] == F32(8.4e-3)  # carrier untouched
    _assert_quantization_identical(
        w, out, bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128
    )


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(
        np.float32,
        (3, 32),
        elements=st.floats(-1e6, 1e6, width=32, allow_nan=False),
    )
)
def test_prop_suppress_neutrality_any_weights(w):
    # risk = 1 everywhere resets every eligible element -- maximal stress.
    tr = osc.OscillationTracker.zeros(w.shape)
    tr.dist_m[:] = 1.0
    tr.dist_q[:] = 1.0
    out, _ = osc.oscillation_suppress(w, row_view(), tr, 0.5)
    _assert_quantization_identical(
        w, out, bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128
    )


def test_post_reset_escape_needs_half_bin():
    # After a reset to 224 (latent 0.5, s = 448), the code cannot change until
    # the master weight moves at least half the latent bin width (0.25 * 448).
    w = carrier_row(116.0)
    tr = osc.OscillationTracker.zeros(w.shape)
    mask = np.zeros(w.shape, bool)
    mask[0, 1] = True
    poke(tr, mask)
    out, _ = osc.oscillation_suppress(w, row_view(), tr, 8.0)
    view = row_view()
    q0 = view(out).values[0, 1]
    for delta in (111.0, -111.0):  # |delta| < 112 = 0.25 * 448
        w3 = out.copy()
        w3[0, 1] += F32(delta)
        assert view(w3).values[0, 1] == q0
    w3 = out.copy()
    w3[0, 1] += F32(113.0)
    assert view(w3).values[0, 1] != q0
