"""Tests for error statistics and the Monte-Carlo gradient-bias bench.

Oracles:
  * error statistics are asserted against hand-computed values;
  * the boundary-straddling generator is verified structurally (deterministic
    rounding moves every non-carrier element down by the crafted offset,
    stochastic rounding recovers the input in expectation);
  * the bias bench must pass on unbiased configurations and fail on the two
    known-biased ablations (deterministic backward rounding, unaligned
    weight-gradient activations) when fed boundary-straddling inputs.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from nvfp4sim import blockquant as bq
from nvfp4sim import fpcodec as fc
from nvfp4sim import metrics as mx
from nvfp4sim import qlinear as ql

F32 = np.float32


# ── error statistics ─────────────────────────────────────────────────────────


def test_error_stats_identity():
    m = np.array([[1.0, -2.0], [0.5, 4.0]], F32)
    s = mx.error_stats(m, m)
    assert s["mse"] == 0.0 and s["max_abs_err"] == 0.0
    assert s["sqnr_db"] == math.inf and s["rel_err_fro"] == 0.0


def test_error_stats_known_values():
    ref = np.array([1.0, 0.0], F32)
    approx = np.array([0.0, 0.0], F32)
    s = mx.error_stats(ref, approx)
    assert s["mse"] == pytest.approx(0.5)
    assert s["max_abs_err"] == 1.0
    assert s["sqnr_db"] == pytest.approx(0.0)  # signal power == noise power
    assert s["rel_err_fro"] == pytest.approx(1.0)


def test_error_stats_zero_signal():
    s = mx.error_stats(np.zeros(3, F32), np.ones(3, F32))
    assert s["sqnr_db"] == -math.inf and s["rel_err_fro"] == math.inf


# ── boundary-straddling generator ────────────────────────────────────────────


def test_boundary_matrix_structure():
    m = mx.boundary_matrix((4, 32), seed=7)
    assert m.shape == (4, 32) and m.dtype == F32
    # block carriers at the start of every 16-block pin the scales
    assert np.all(np.abs(m[:, 0]) == F32(2688.0))
    assert np.all(np.abs(m[:, 16]) == F32(2688.0))


def test_boundary_matrix_det_rounds_down():
    m = mx.boundary_matrix((4, 32), seed=7, offset=0.3)
    q = bq.quantize_double_block(m, "row", outer="1x128")
    assert q.clamp_count == 0
    dq = bq.dequantize(q)
    carriers = np.zeros((4, 32), bool)
    carriers[:, [0, 16]] = True
    assert np.all(np.abs(dq[~carriers]) < np.abs(m[~carriers]))
    np.testing.assert_array_equal(dq[carriers], m[carriers])


def test_boundary_matrix_stochastic_mean_recovers_input():
    m = mx.boundary_matrix((2, 16), seed=11)
    n = 4000
    s1 = np.zeros(m.shape, np.float64)
    s2 = np.zeros(m.shape, np.float64)
    for i in range(n):
        d = bq.dequantize(
            bq.quantize_double_block(m, "row", mode="stoch", rng=fc.stream(11, "bm", i))
        ).astype(np.float64)
        s1 += d
        s2 += d * d
    mean = s1 / n
    sd = np.sqrt(np.maximum(s2 - n * mean**2, 0.0) / (n - 1))
    tol = 4.0 * sd / math.sqrt(n) + 1e-5 + 4e-6 * np.abs(m)
    assert np.all(np.abs(mean - m) <= tol)


# ── bias bench ───────────────────────────────────────────────────────────────


def test_bias_bench_bypass_is_round_off_only():
    # the float32 matmul vs the float64 target leaves only accumulation
    # round-off, which the additive slack must absorb with a wide margin
    rep = mx.mc_backward_bias(ql.preset("fp32"), draws=8, seed=3)
    assert rep.passed and rep.max_z < 1.0 and rep.backward_clamps == 0


def test_bias_bench_stochastic_passes():
    cfg = dataclasses.replace(ql.preset("fp4-base"), rht_block=16)
    rep = mx.mc_backward_bias(cfg, draws=1500, seed=5)
    assert rep.passed, rep
    assert rep.backward_clamps == 0
    assert rep.draws == 1500


def test_bias_bench_stochastic_passes_on_boundary_inputs():
    cfg = dataclasses.replace(ql.preset("fp4-base"), rht_sides=())
    rep = mx.mc_backward_bias(cfg, draws=2500, seed=6, dy_craft="boundary", x_craft="boundary")
    assert rep.passed, rep


def test_bias_bench_det_backward_fails_on_boundary():
    cfg = dataclasses.replace(
        ql.preset("fp4-base"), stochastic_backward=False, rht_sides=()
    )
    rep = mx.mc_backward_bias(cfg, draws=3, seed=6, dy_craft="boundary")
    assert not rep.passed
    assert rep.max_z > rep.nsigma


def test_bias_bench_det_backward_passes_on_representable_inputs():
    # determinism alone is not what the bench flags: on exactly representable
    # inputs the deterministic path has (near-)zero error under every block
    # orientation, so the bench stays green
    cfg = dataclasses.replace(
        ql.preset("fp4-base"), stochastic_backward=False, rht_sides=()
    )
    rep = mx.mc_backward_bias(
        cfg, draws=3, seed=6, dy_craft="signs", x_craft="signs", w_craft="signs"
    )
    assert rep.passed, rep


def test_bias_bench_unaligned_x_fails_on_boundary():
    cfg = dataclasses.replace(
        ql.preset("fp4-base"), align_xhat=False, rht_sides=()
    )
    rep = mx.mc_backward_bias(cfg, draws=2000, seed=8, x_craft="boundary")
    assert not rep.passed
    # the bias lives in dw (the gradient that consumes the activations)
    assert rep.max_z_dw > rep.nsigma


def test_bias_bench_with_outlier_retention_passes():
    cfg = dataclasses.replace(ql.preset("fp4-base"), rht_sides=())
    rep = mx.mc_backward_bias(cfg, draws=400, seed=9, outlier_percent=12.5)
    assert rep.passed, rep
    assert rep.outlier_channels  # selection actually happened


@pytest.mark.parametrize("nsigma", [0.0, -1.0, math.nan, math.inf])
def test_bias_bench_rejects_bad_nsigma(nsigma):
    with pytest.raises(ValueError, match="nsigma"):
        mx.mc_backward_bias(ql.preset("fp32"), draws=4, seed=1, nsigma=nsigma)


_DET = dict(stochastic_backward=False, rht_sides=())


@pytest.mark.parametrize("changes, kw, digest", [
    ({}, dict(shape=(8, 32, 16), draws=40, seed=5),
     "c830bd78d126a920c1e88964c00a40dde9522f0f4d9e54b790d12fe22e615410"),
    (_DET, dict(draws=3, seed=6, dy_craft="boundary"),  # dw is the worst
     "2cfd0851e195d6de421ebc3433cbdae506899e87780f57bc40070dee6639636f"),
    (_DET, dict(draws=3, seed=6, dy_craft="signs", x_craft="signs", w_craft="signs"),
     "1a15cbe2a0e48537a912f429dc685dc03e16fe246fb8ebe387587c070c638746"),  # a 0 = 0 tie
], ids=["fp4-base", "det-boundary", "det-tie"])
def test_bias_report_keeps_its_bytes(changes, kw, digest):
    rep = mx.mc_backward_bias(dataclasses.replace(ql.preset("fp4-base"), **changes), **kw)
    blob = json.dumps(dataclasses.asdict(rep), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_bias_report_dict():
    rep = mx.mc_backward_bias(ql.preset("fp32"), draws=4, seed=1)
    d = dataclasses.asdict(rep)
    for key in ("passed", "max_z", "max_z_dx", "max_z_dw", "draws", "nsigma", "shape"):
        assert key in d
