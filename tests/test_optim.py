"""Tests for the optimizer and learning-rate schedule.

Oracles:
  * schedule values are asserted pointwise from the closed form (linear ramp,
    cosine half-way point, endpoints);
  * the optimizer is checked against an independent scalar float64 reference
    implementation, plus closed-form special cases: zero gradients reduce to
    pure decoupled decay, and a constant gradient yields a constant
    bias-corrected step.
"""

import hashlib

import numpy as np
import pytest

from nvfp4sim import optim as op

F32 = np.float32


# ── cosine schedule ──────────────────────────────────────────────────────────


def sched(peak=4e-4, warmup=100, total=1000, floor=0.0):
    return op.CosineSchedule(
        peak_lr=peak, warmup_steps=warmup, total_steps=total, floor_lr=floor
    )


def test_schedule_endpoints():
    s = sched(floor=4e-5)
    assert s.lr_at(0) == 0.0
    assert s.lr_at(100) == pytest.approx(4e-4)
    assert s.lr_at(1000) == pytest.approx(4e-5)


def test_schedule_linear_warmup():
    s = sched()
    assert s.lr_at(50) == pytest.approx(2e-4)
    assert s.lr_at(25) == pytest.approx(1e-4)


def test_schedule_cosine_midpoint():
    s = sched(floor=1e-4)
    mid = 100 + (1000 - 100) // 2
    assert s.lr_at(mid) == pytest.approx(1e-4 + (4e-4 - 1e-4) / 2)


def test_schedule_monotone_after_warmup():
    s = sched()
    lrs = [s.lr_at(t) for t in range(100, 1001)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_schedule_clamps_beyond_total():
    s = sched(floor=1e-5)
    assert s.lr_at(1001) == s.lr_at(1000) == pytest.approx(1e-5)


def test_schedule_no_warmup_starts_at_peak():
    s = sched(warmup=0)
    assert s.lr_at(0) == pytest.approx(4e-4)


@pytest.mark.parametrize(
    "kw",
    [
        dict(warmup=1001),
        dict(total=0),
        dict(floor=5e-4),
        dict(floor=-1e-6),
        dict(peak=0.0),
        dict(peak=float("inf")),
        dict(peak=float("nan")),
    ],
)
def test_schedule_validation(kw):
    with pytest.raises(ValueError):
        sched(**kw)


# ── AdamW ────────────────────────────────────────────────────────────────────


def params_2d(v=1.0):
    return {"w": np.full((2, 3), v, F32)}


def test_zero_gradient_is_pure_decoupled_decay():
    p = params_2d(2.0)
    opt = op.AdamW(p, weight_decay=0.1)
    g = {"w": np.zeros((2, 3), F32)}
    expected = np.full((2, 3), 2.0, F32)
    for _ in range(5):
        opt.step(g, lr=0.5)
        expected = expected - F32(0.5) * F32(0.1) * expected
    assert np.array_equal(p["w"], expected)


def test_one_dim_params_never_decay():
    p = {"gain": np.ones(8, F32)}
    opt = op.AdamW(p, weight_decay=0.1)
    opt.step({"gain": np.zeros(8, F32)}, lr=0.5)
    assert np.array_equal(p["gain"], np.ones(8, F32))


def test_constant_gradient_constant_step():
    # Bias correction makes m-hat = g and v-hat = g*g exactly for a constant
    # gradient, so every step moves by lr * g/(|g| + eps).
    p = {"w": np.zeros((1, 1), F32)}
    opt = op.AdamW(p, betas=(0.9, 0.95), eps=1e-8, weight_decay=0.0)
    g = {"w": np.full((1, 1), 2.0, F32)}
    per_step = 0.01 * 2.0 / (2.0 + 1e-8)
    for k in range(1, 6):
        opt.step(g, lr=0.01)
        assert np.isclose(p["w"][0, 0], -k * per_step, rtol=1e-5)


def scalar_adamw_reference(w0, grads, lr, b1, b2, eps, wd):
    """Independent float64 scalar reference."""
    w, m, v = float(w0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        w = w - lr * (mh / (np.sqrt(vh) + eps) + wd * w)
    return w


def test_matches_scalar_reference_trajectory():
    rng = np.random.Generator(np.random.Philox(3))
    grads = rng.normal(size=7).astype(F32)
    p = {"w": np.full((1, 1), 0.7, F32)}
    opt = op.AdamW(p, betas=(0.9, 0.95), eps=1e-8, weight_decay=0.1)
    for g in grads:
        opt.step({"w": np.array([[g]], F32)}, lr=3e-3)
    ref = scalar_adamw_reference(0.7, [float(g) for g in grads], 3e-3, 0.9, 0.95, 1e-8, 0.1)
    assert np.isclose(p["w"][0, 0], ref, rtol=1e-5)


def test_updates_are_in_place_and_elementwise():
    p = {"w": np.array([[1.0, -1.0], [0.0, 2.0]], F32)}
    handle = p["w"]
    opt = op.AdamW(p, weight_decay=0.0)
    g = {"w": np.array([[1.0, -1.0], [0.0, 0.0]], F32)}
    opt.step(g, lr=0.1)
    assert p["w"] is handle
    assert p["w"][0, 0] < 1.0 and p["w"][0, 1] > -1.0
    assert p["w"][1, 0] == 0.0 and p["w"][1, 1] == 2.0


def test_rejects_mismatched_grad_keys():
    opt = op.AdamW(params_2d(), weight_decay=0.0)
    with pytest.raises(KeyError):
        opt.step({"nope": np.zeros((2, 3), F32)}, lr=0.1)


@pytest.mark.parametrize("betas", [(1.0, 0.95), (0.9, 1.0), (-0.1, 0.95)])
def test_rejects_bad_betas(betas):
    with pytest.raises(ValueError):
        op.AdamW(params_2d(), betas=betas)


@pytest.mark.parametrize("kw", [
    dict(eps=0.0), dict(eps=float("inf")), dict(eps=float("nan")),
    dict(weight_decay=-0.1), dict(weight_decay=float("inf")),
    dict(weight_decay=float("nan")),
])
def test_rejects_a_bad_eps_or_weight_decay_naming_it(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        op.AdamW(params_2d(), **kw)


# The optimizer updates through scratch buffers in place, in the same order
# and on the same operands as the plain expressions it replaced; this digest
# pins the bytes of params, m and v after five steps and was recorded from
# the implementation that still allocated a fresh array per op.

ADAMW_SHA256 = "1a338fc6728ab6730924731bb2c9a0cf9c02785d8fc39211bb30560354306001"


def test_adamw_golden_digest():
    rng = np.random.Generator(np.random.Philox(41))
    p = {"w": rng.standard_normal((13, 7)).astype(F32),
         "gain": (1.0 + 0.1 * rng.standard_normal(11)).astype(F32)}
    opt = op.AdamW(p, betas=(0.9, 0.95), eps=1e-8, weight_decay=0.1)
    for t in range(5):
        grads = {k: (rng.standard_normal(v.shape) * 10.0 ** (t - 2)).astype(F32)
                 for k, v in p.items()}
        opt.step(grads, lr=3e-3 * (t + 1))
    h = hashlib.sha256()
    for k in sorted(p):
        for arr in (p[k], opt.m[k], opt.v[k]):
            h.update(arr.tobytes())
    assert h.hexdigest() == ADAMW_SHA256
