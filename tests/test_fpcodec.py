"""Codec-level tests: format tables, rounding rules, scale rounding, RNG streams.

The format tables are rebuilt here from the raw (sign, exponent, mantissa)
formulas so the module's tables are checked against an independent
construction, not against themselves.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvfp4sim import fpcodec as fc

# ── independent table constructions ──────────────────────────────────────────


def e2m1_magnitudes():
    # 2 exponent bits (bias 1), 1 mantissa bit, no inf/nan.
    out = []
    for e in range(4):
        for m in range(2):
            if e == 0:
                out.append((m / 2) * 2.0**0)
            else:
                out.append((1 + m / 2) * 2.0 ** (e - 1))
    return out


def e4m3_magnitudes():
    # 4 exponent bits (bias 7), 3 mantissa bits; top code (e=15, m=7) is NaN.
    out = []
    for e in range(16):
        for m in range(8):
            if e == 15 and m == 7:
                continue
            if e == 0:
                out.append((m / 8) * 2.0**-6)
            else:
                out.append((1 + m / 8) * 2.0 ** (e - 7))
    return out


def e3m2_magnitudes():
    out = []
    for e in range(8):
        for m in range(4):
            if e == 0:
                out.append((m / 4) * 2.0**-2)
            else:
                out.append((1 + m / 4) * 2.0 ** (e - 3))
    return out


def e2m3_magnitudes():
    out = []
    for e in range(4):
        for m in range(8):
            if e == 0:
                out.append((m / 8) * 2.0**0)
            else:
                out.append((1 + m / 8) * 2.0 ** (e - 1))
    return out


# ── value sets ───────────────────────────────────────────────────────────────


def test_e2m1_value_set_exact():
    want = {0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0}
    want |= {-v for v in want}
    assert set(fc.FP4_E2M1.grid.tolist()) == want
    assert fc.FP4_E2M1.mag.tolist() == e2m1_magnitudes()
    assert fc.FP4_E2M1.num_codes == 16


def test_e4m3_table_matches_formula():
    mags = e4m3_magnitudes()
    assert fc.FP8_E4M3.mag.tolist() == mags
    assert fc.FP8_E4M3.max == 448.0
    assert mags[1] == 2.0**-9  # smallest positive subnormal
    assert len(mags) == 127  # finite magnitudes; code 127 is NaN
    assert np.all(np.diff(fc.FP8_E4M3.mag) > 0)


def test_fp6_tables_match_formula():
    assert fc.FP6_E3M2.mag.tolist() == e3m2_magnitudes()
    assert fc.FP6_E3M2.max == 28.0
    assert fc.FP6_E2M3.mag.tolist() == e2m3_magnitudes()
    assert fc.FP6_E2M3.max == 7.5
    assert fc.FP6_E3M2.num_codes == fc.FP6_E2M3.num_codes == 64


def test_fp4_grid_is_subset_of_e3m2_grid():
    # every FP4 point is representable in FP6-E3M2, so FP6 error <= FP4 error
    fp4 = set(fc.FP4_E2M1.grid.tolist())
    fp6 = set(fc.FP6_E3M2.grid.tolist())
    assert fp4 <= fp6


# ── code round-trips ─────────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "fmt,ncodes",
    [(fc.FP4_E2M1, 16), (fc.FP6_E3M2, 64), (fc.FP6_E2M3, 64)],
    ids=["e2m1", "e3m2", "e2m3"],
)
def test_code_roundtrip_all_codes(fmt, ncodes):
    for code in range(ncodes):
        v = fc.decode(code, fmt)
        assert fc.encode(v, fmt) == code


def test_e4m3_code_roundtrip():
    nan_codes = {127, 255}
    for code in range(256):
        v = fc.decode(code, fc.FP8_E4M3)
        if code in nan_codes:
            assert math.isnan(v)
        else:
            assert fc.encode(v, fc.FP8_E4M3) == code


def test_value_roundtrip_preserves_zero_sign():
    for fmt in (fc.FP4_E2M1, fc.FP6_E3M2, fc.FP6_E2M3, fc.FP8_E4M3):
        neg_zero_code = 1 << (fmt.bits - 1)
        v = fc.decode(neg_zero_code, fmt)
        assert v == 0.0 and math.copysign(1.0, v) == -1.0
        assert fc.encode(v, fmt) == neg_zero_code
        assert fc.encode(0.0, fmt) == 0


def test_encode_rejects_unrepresentable():
    with pytest.raises(ValueError):
        fc.encode(2.4, fc.FP4_E2M1)


# ── deterministic rounding ───────────────────────────────────────────────────


def test_round_fp4_det_worked_examples():
    assert fc.round_det(2.4, fc.FP4_E2M1) == 2.0
    assert fc.round_det(2.5, fc.FP4_E2M1) == 2.0  # tie: codes 4 (2.0) vs 5 (3.0) -> even
    assert fc.round_det(6.0, fc.FP4_E2M1) == 6.0
    r = fc.round_det(-0.2, fc.FP4_E2M1)
    assert r == 0.0 and math.copysign(1.0, r) == -1.0  # sign kept in the code
    assert fc.encode(r, fc.FP4_E2M1) == 8


@pytest.mark.parametrize(
    "x,want",
    [
        (0.25, 0.0),  # codes 0 vs 1 -> 0
        (0.75, 1.0),  # codes 1 vs 2 -> 2
        (1.25, 1.0),  # codes 2 vs 3 -> 2
        (1.75, 2.0),  # codes 3 vs 4 -> 4
        (3.5, 4.0),  # codes 5 vs 6 -> 6
        (5.0, 4.0),  # codes 6 vs 7 -> 6
    ],
)
def test_round_fp4_det_all_ties_to_even_code(x, want):
    assert fc.round_det(x, fc.FP4_E2M1) == want
    assert fc.round_det(-x, fc.FP4_E2M1) == -want


def test_round_det_error_bound_uniform():
    rng = np.random.Generator(np.random.Philox(7))
    x = rng.uniform(-6.0, 6.0, size=200_000)
    q = fc.round_det(x, fc.FP4_E2M1)
    grid = fc.FP4_E2M1.grid
    gaps = np.diff(grid)
    lo = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    half_local = gaps[lo] / 2
    assert np.all(np.abs(q - x) <= half_local + 1e-12)


# ── stochastic rounding ──────────────────────────────────────────────────────


def test_round_fp4_stoch_probabilities():
    n = 1_000_000
    rng = fc.stream(123, "stoch-prob")
    draws = fc.round_stoch(np.full(n, 2.75), fc.FP4_E2M1, rng)
    p_up = np.mean(draws == 3.0)
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(p_up - 0.75) < 4 * sigma
    assert set(np.unique(draws)) == {2.0, 3.0}


def test_round_fp4_stoch_midpoint_is_fair():
    n = 1_000_000
    rng = fc.stream(5, "stoch-mid")
    draws = fc.round_stoch(np.full(n, 0.25), fc.FP4_E2M1, rng)
    p_up = np.mean(draws == 0.5)
    sigma = math.sqrt(0.25 / n)
    assert abs(p_up - 0.5) < 4 * sigma


def test_round_fp4_stoch_representable_is_exact():
    rng = fc.stream(9, "stoch-exact")
    for v in [-6.0, -1.5, 0.0, 0.5, 3.0, 6.0]:
        draws = fc.round_stoch(np.full(1000, v), fc.FP4_E2M1, rng)
        assert np.all(draws == v)


def test_round_stoch_unbiased_sample_points():
    n = 200_000
    for i, x in enumerate([-5.3, -2.2, -0.7, 0.1, 1.9, 4.4]):
        rng = fc.stream(40 + i, "unbias")
        draws = fc.round_stoch(np.full(n, x), fc.FP4_E2M1, rng)
        grid = fc.FP4_E2M1.grid
        lo = np.searchsorted(grid, x, side="right") - 1
        q1, q2 = grid[lo], grid[lo + 1]
        sigma = math.sqrt((x - q1) * (q2 - x))
        assert abs(draws.mean() - x) < 4 * sigma / math.sqrt(n)


def test_round_fp4_stoch_scalar_api():
    rng = fc.stream(11, "scalar")
    vals = {fc.round_stoch(2.75, fc.FP4_E2M1, rng) for _ in range(64)}
    assert vals <= {2.0, 3.0} and len(vals) == 2


# ── fp6 rounding ─────────────────────────────────────────────────────────────


def test_round_fp6_det_nearest_by_table():
    grid = np.array(sorted({s * v for v in e3m2_magnitudes() for s in (1, -1)}))
    rng = np.random.Generator(np.random.Philox(21))
    xs = rng.uniform(-28, 28, size=4096)
    got = fc.round_det(xs, fc.FP6_E3M2)
    dist = np.abs(xs[:, None] - grid[None, :])
    best = dist.min(axis=1)
    assert np.all(np.abs(got - xs) <= best + 1e-12)


def test_round_fp6_stoch_unbiased():
    n = 500_000
    x = 0.3  # between 0.28125... no: between 0.25 and 0.3125
    rng = fc.stream(31, "fp6")
    draws = fc.round_stoch(np.full(n, x), fc.FP6_E3M2, rng)
    q1, q2 = 0.25, 0.3125
    assert set(np.unique(draws)) == {q1, q2}
    sigma = math.sqrt((x - q1) * (q2 - x))
    assert abs(draws.mean() - x) < 4 * sigma / math.sqrt(n)


def test_round_fp6_e2m3_variant():
    assert fc.round_det(7.4, fc.FP6_E2M3) == 7.5
    assert fc.round_det(7.4, fc.FP6_E3M2) == 7.0


# ── scale rounding (E4M3) ────────────────────────────────────────────────────


def test_round_scale_e4m3_exact_values():
    assert fc.round_scale_e4m3(448.0) == 448.0
    assert fc.round_scale_e4m3(1.0) == 1.0
    assert fc.round_scale_e4m3(2.0**-9) == 2.0**-9


def test_round_scale_e4m3_all_adjacent_midpoints_tie_to_even():
    mags = e4m3_magnitudes()
    for code in range(1, 126):  # positive adjacent pairs (v1 at `code`)
        v1, v2 = mags[code], mags[code + 1]
        mid = (v1 + v2) / 2
        want = v1 if code % 2 == 0 else v2
        assert fc.round_scale_e4m3(mid) == want, (code, v1, v2)


def test_round_scale_e4m3_nearest_generic():
    rng = np.random.Generator(np.random.Philox(3))
    mags = np.array(e4m3_magnitudes())
    for s in rng.uniform(2.0**-9, 448.0, size=2000):
        got = fc.round_scale_e4m3(float(s))
        best = np.min(np.abs(mags - s))
        assert abs(got - s) <= best + 1e-15


def test_round_scale_e4m3_result_positive():
    assert fc.round_scale_e4m3(1e-12) == 2.0**-9
    assert fc.round_scale_e4m3(2.0**-11) == 2.0**-9


def test_round_scale_e4m3_errors():
    with pytest.raises(OverflowError):
        fc.round_scale_e4m3(448.0001)
    with pytest.raises(ValueError):
        fc.round_scale_e4m3(0.0)
    with pytest.raises(ValueError):
        fc.round_scale_e4m3(-1.0)


# ── RNG streams ──────────────────────────────────────────────────────────────


def test_stream_determinism_and_separation():
    a = fc.stream(7, "layer0", 3, "dx").random(8)
    b = fc.stream(7, "layer0", 3, "dx").random(8)
    c = fc.stream(7, "layer0", 4, "dx").random(8)
    d = fc.stream(8, "layer0", 3, "dx").random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ── properties ───────────────────────────────────────────────────────────────


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
def test_prop_det_round_in_grid_and_close(x):
    q = fc.round_det(x, fc.FP4_E2M1)
    grid = fc.FP4_E2M1.grid
    assert q in grid
    assert abs(q - x) <= np.min(np.abs(grid - x)) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
def test_prop_det_round_is_odd_function(x):
    a = fc.round_det(x, fc.FP4_E2M1)
    b = fc.round_det(-x, fc.FP4_E2M1)
    assert a == -b
    assert math.copysign(1.0, a) == -math.copysign(1.0, b) or a != 0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
def test_prop_stoch_result_is_a_neighbor(x, seed):
    rng = fc.stream(seed, "prop")
    q = fc.round_stoch(x, fc.FP4_E2M1, rng)
    grid = fc.FP4_E2M1.grid
    lo = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    assert q in (grid[lo], grid[lo + 1])
