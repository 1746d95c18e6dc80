"""Double-block quantizer tests.

The oracle here is `ref_quantize`: a deliberately plain, slice-at-a-time
re-implementation of the double-block scheme (outer scale -> E4M3 inner scale
-> element rounding) that shares only the already-verified rounding cores with
the production path. The vectorized implementation must match it bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvfp4sim import fpcodec as fc
from nvfp4sim import blockquant as bq

F32 = np.float32


# ── reference implementation (the oracle) ────────────────────────────────────


def ref_quantize(m, orientation, outer, element_fmt="e2m1"):
    """Returns (dequantized matrix, clamp_count, inner_scales, outer_scales)."""
    fmt = fc.get_format(element_fmt)
    G = np.float32(fmt.max)
    big = np.float32(448.0) * G

    if orientation == bq.Orientation.SQUARE_16X16:
        return _ref_quantize_square(m, fmt, G, big)

    work = m if orientation == bq.Orientation.ROW_GROUPS_1X16 else m.T
    wr, wc_real = work.shape
    wc = -(-wc_real // 16) * 16
    W = np.zeros((wr, wc), dtype=F32)
    W[:, :wc_real] = work

    # outer scale per element
    sg_elem = np.ones((wr, wc), dtype=F32)
    outer_scales = []
    if outer == bq.OuterGranularity.PER_TENSOR:
        A = np.float32(np.max(np.abs(W)))
        sg = A / big if A > 0 else np.float32(1.0)
        sg_elem[:] = sg
        outer_scales = [sg]
    elif outer == bq.OuterGranularity.PER_ROW:
        for r in range(wr):
            A = np.float32(np.max(np.abs(W[r])))
            sg = A / big if A > 0 else np.float32(1.0)
            sg_elem[r, :] = sg
            outer_scales.append(sg)
    else:
        for r in range(wr):
            for c0 in range(0, wc, 128):
                A = np.float32(np.max(np.abs(W[r, c0 : c0 + 128])))
                sg = A / big if A > 0 else np.float32(1.0)
                sg_elem[r, c0 : c0 + 128] = sg
                outer_scales.append(sg)

    out = np.zeros_like(W)
    inner_scales = []
    clamps = 0
    for r in range(wr):
        for c0 in range(0, wc, 16):
            blk = W[r, c0 : c0 + 16]
            sg = sg_elem[r, c0]
            xp = blk / sg
            a = np.float32(np.max(np.abs(xp)))
            if a > 0:
                sb = np.float32(fc.round_scale_e4m3(min(a / G, np.float32(448.0))))
            else:
                sb = np.float32(1.0)
            ratio = xp / sb
            clamps += int(np.sum(np.abs(ratio) > G * (1 + 1e-6)))
            p = fc.round_det(np.clip(ratio, -G, G), fmt)
            out[r, c0 : c0 + 16] = (p * sb) * sg
            inner_scales.append(sb)

    out = out[:, :wc_real]
    if orientation == bq.Orientation.COL_GROUPS_16X1:
        out = out.T
    out = out.copy()
    out[out == 0] = 0.0
    return out, clamps, np.array(inner_scales, F32), np.array(outer_scales, F32)


def _ref_quantize_square(m, fmt, G, big):
    r_real, c_real = m.shape
    wr = -(-r_real // 16) * 16
    wc = -(-c_real // 16) * 16
    W = np.zeros((wr, wc), dtype=F32)
    W[:r_real, :c_real] = m
    A = np.float32(np.max(np.abs(W)))
    sg = A / big if A > 0 else np.float32(1.0)
    out = np.zeros_like(W)
    inner_scales = []
    clamps = 0
    for r0 in range(0, wr, 16):
        for c0 in range(0, wc, 16):
            tile = W[r0 : r0 + 16, c0 : c0 + 16]
            xp = tile / sg
            a = np.float32(np.max(np.abs(xp)))
            if a > 0:
                sb = np.float32(fc.round_scale_e4m3(min(a / G, np.float32(448.0))))
            else:
                sb = np.float32(1.0)
            ratio = xp / sb
            clamps += int(np.sum(np.abs(ratio) > G * (1 + 1e-6)))
            p = fc.round_det(np.clip(ratio, -G, G), fmt)
            out[r0 : r0 + 16, c0 : c0 + 16] = (p * sb) * sg
            inner_scales.append(sb)
    out = out[:r_real, :c_real].copy()
    out[out == 0] = 0.0
    return out, clamps, np.array(inner_scales, F32), np.array([sg], F32)


def rnd(shape, seed, scale=1.0):
    rng = np.random.Generator(np.random.Philox(seed))
    return (rng.standard_normal(shape) * scale).astype(F32)


def unpacked_codes(q):
    """The element codes of ``q`` on its padded work grid, row-major."""
    codes = q.codes
    if fc.get_format(q.element_fmt).bits == 4:  # low nibble first
        codes = np.stack([codes & 0x0F, codes >> 4], axis=-1)
    work_cols = q.rows if q.orientation is bq.Orientation.COL_GROUPS_16X1 else q.cols
    return codes.reshape(-1, -(-work_cols // 16) * 16)


# ── fixed-value cases ────────────────────────────────────────────────────────


def test_zero_matrix_all_scales_one_codes_zero():
    q = bq.quantize_double_block(np.zeros((4, 32), F32), bq.Orientation.ROW_GROUPS_1X16)
    assert np.all(q.inner_scales == 1.0)
    assert np.all(q.outer_scales == 1.0)
    assert np.all(q.codes == 0)
    dq = bq.dequantize(q)
    assert dq.shape == (4, 32) and dq.dtype == F32
    assert np.all(dq == 0.0) and not np.any(np.signbit(dq))


def test_amax_2688_gives_unit_outer_scale():
    m = np.zeros((1, 128), F32)
    m[0, 0] = 2688.0
    m[0, 1:] = 1.0
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    assert q.outer_scales.tolist() == [1.0]
    assert q.inner_scales[0] == 448.0  # block carrying the outer max


def test_single_group_six_three():
    m = np.zeros((1, 16), F32)
    m[0, 0], m[0, 1] = 6.0, 3.0
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    assert q.inner_scales[0] == 448.0
    assert np.isclose(q.outer_scales[0], 6.0 / 2688.0)
    codes = unpacked_codes(q)
    assert codes[0, 0] == 7 and codes[0, 1] == 5  # E2M1 codes of 6.0 and 3.0
    dq = bq.dequantize(q)
    assert np.allclose(dq[0, :2], [6.0, 3.0], rtol=1e-6)
    assert np.all(dq[0, 2:] == 0.0)


def test_negative_zero_dequantizes_to_plus_zero():
    m = np.array([[-0.1, 4.0] + [0.0] * 14], F32)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    dq = bq.dequantize(q)
    assert dq[0, 0] == 0.0 and not np.signbit(dq[0, 0])
    # but the code keeps the sign
    assert unpacked_codes(q)[0, 0] == 8


def test_packed_nibble_order():
    m = np.array([[0.5, -0.5] + [0.0] * 14], F32)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    # 0.5 and -0.5 tie for block amax, so both land on the top magnitude
    # (+6.0 -> code 7, -6.0 -> code 15); low nibble holds the lower index
    assert q.codes[0] == (7 | (15 << 4))


def test_padding_codes_are_zero_and_shape_restored():
    m = rnd((5, 23), seed=1)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    grid = unpacked_codes(q)
    assert grid.shape == (5, 32)
    assert np.all(grid[:, 23:] == 0)
    assert bq.dequantize(q).shape == (5, 23)


@pytest.mark.parametrize("name", ["e4m3", "E2M1"])
def test_only_the_element_formats_quantize(name):
    # e4m3 is the scale format, which a matrix file cannot store as elements
    for route in (bq.quantize_double_block, bq.quantize_dequantize):
        with pytest.raises(ValueError, match=f"unknown format '{name}'"):
            route(rnd((3, 40), seed=4), "row", element_fmt=name)


_LAYOUTS = [(o, outer) for o in ("row", "col") for outer in ("1x128", "per-row", "per-tensor")]
_LAYOUTS.append(("square", "per-tensor"))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("orientation, outer", _LAYOUTS)
def test_an_empty_matrix_is_rejected_naming_its_shape(orientation, outer, shape):
    # no block of an empty matrix has an amax to scale by
    for route in (bq.quantize_double_block, bq.quantize_dequantize):
        for mode in ("det", "stoch"):
            with pytest.raises(ValueError) as exc:
                route(np.zeros(shape, F32), orientation, outer=outer, mode=mode,
                      rng=fc.stream(1))
            assert str(exc.value) == f"cannot quantize an empty matrix, got shape {shape}"


@pytest.mark.parametrize("fmt", ["e3m2", "e2m3"])
def test_dequantize_rejects_a_code_past_the_format(fmt):
    q = bq.quantize_double_block(rnd((3, 40), seed=4), "row", element_fmt=fmt)
    q.codes[50] = 64
    q.codes[37] = 70
    with pytest.raises(ValueError, match=r"code byte 70 at index 37 exceeds 6-bit"):
        bq.dequantize(q)


def test_dequantize_shares_the_view_contract_of_quantize_dequantize():
    m = rnd((37, 21), seed=5)
    for orientation in bq.Orientation:
        got = bq.dequantize(bq.quantize_double_block(m, orientation))
        want, _ = bq.quantize_dequantize(m, orientation)
        assert got.strides == want.strides
        np.testing.assert_array_equal(_bits(got), _bits(want))


# ── vectorized path == reference oracle ──────────────────────────────────────


CASES = [
    ((45, 70), bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128, 101),
    ((45, 70), bq.Orientation.COL_GROUPS_16X1, bq.OuterGranularity.BLOCK_1X128, 102),
    ((64, 256), bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128, 103),
    ((64, 64), bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.PER_ROW, 104),
    ((64, 64), bq.Orientation.COL_GROUPS_16X1, bq.OuterGranularity.PER_TENSOR, 105),
    ((17, 18), bq.Orientation.SQUARE_16X16, bq.OuterGranularity.PER_TENSOR, 106),
    ((48, 48), bq.Orientation.SQUARE_16X16, bq.OuterGranularity.PER_TENSOR, 107),
]


@pytest.mark.parametrize("shape,orientation,outer,seed", CASES)
def test_matches_scalar_reference_bitwise(shape, orientation, outer, seed):
    m = rnd(shape, seed=seed)
    m[0, 0] = 77.0  # some dynamic range
    q = bq.quantize_double_block(m, orientation, outer=outer)
    got = bq.dequantize(q)
    want, clamps, inner, outer_s = ref_quantize(m, orientation, outer)
    np.testing.assert_array_equal(got, want)
    assert q.clamp_count == clamps
    np.testing.assert_array_equal(q.inner_scales, inner)
    np.testing.assert_array_equal(q.outer_scales, outer_s)


@pytest.mark.parametrize("element_fmt", ["e3m2", "e2m3"])
def test_fp6_elements_match_reference(element_fmt):
    m = rnd((32, 48), seed=7)
    q = bq.quantize_double_block(
        m, bq.Orientation.ROW_GROUPS_1X16, element_fmt=element_fmt
    )
    got = bq.dequantize(q)
    want, clamps, _, _ = ref_quantize(
        m, bq.Orientation.ROW_GROUPS_1X16, bq.OuterGranularity.BLOCK_1X128, element_fmt
    )
    np.testing.assert_array_equal(got, want)
    assert q.clamp_count == clamps


def test_fp6_mse_not_worse_than_fp4():
    m = rnd((64, 128), seed=11)
    d4 = bq.dequantize(bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16))
    d6 = bq.dequantize(
        bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16, element_fmt="e3m2")
    )
    assert np.mean((d6 - m) ** 2) < np.mean((d4 - m) ** 2)


# ── orientation contract ─────────────────────────────────────────────────────


def test_transpose_orientation_contract():
    m = rnd((40, 56), seed=3)
    qa = bq.quantize_double_block(m.T.copy(), bq.Orientation.ROW_GROUPS_1X16)
    qb = bq.quantize_double_block(m, bq.Orientation.COL_GROUPS_16X1)
    np.testing.assert_array_equal(qa.codes, qb.codes)
    np.testing.assert_array_equal(qa.inner_scales, qb.inner_scales)
    np.testing.assert_array_equal(qa.outer_scales, qb.outer_scales)
    np.testing.assert_array_equal(bq.dequantize(qa), bq.dequantize(qb).T)


# ── error bound ──────────────────────────────────────────────────────────────


def test_elementwise_error_bound():
    m = rnd((64, 64), seed=13, scale=3.0)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    dq = bq.dequantize(q)
    # reconstruct the per-element scale chain
    sb = np.repeat(q.inner_scales.reshape(64, 4), 16, axis=1)
    sg = np.repeat(q.outer_scales.reshape(64, 1), 64, axis=1)
    # widest E2M1 bin is 2.0 (4 -> 6); no element may be off by more than
    # half the widest bin times its scale chain, plus clamp slack
    bound = 0.5 * 2.0 * sb * sg * (1 + 2e-6)
    assert np.all(np.abs(dq - m) <= bound)


# ── MSE granularity ordering on an outlier-bearing tensor ────────────────────


def test_outer_granularity_mse_ordering():
    # Exact-grid base (+/-1 everywhere) makes every non-degraded block
    # quantize with ~zero error, so the ordering is decided purely by how
    # far the outlier's huge scale leaks: one 128-chunk for BLOCK_1X128,
    # the whole row for PER_ROW, the whole tensor for PER_TENSOR.
    g17 = np.random.Generator(np.random.Philox(17))
    m = np.where(g17.random((128, 256)) < 0.5, -1.0, 1.0).astype(F32)
    m[3, 200] = 1.0e6
    mses = {}
    for g in bq.OuterGranularity:
        q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16, outer=g)
        mses[g] = float(np.mean((bq.dequantize(q) - m) ** 2))
    assert (
        mses[bq.OuterGranularity.BLOCK_1X128]
        < mses[bq.OuterGranularity.PER_ROW]
        < mses[bq.OuterGranularity.PER_TENSOR]
    )


# ── stochastic mode ──────────────────────────────────────────────────────────


def test_stochastic_quantize_unbiased():
    # one 16-wide group per outer block pins the inner scale to exactly 448,
    # so no clamp events occur and the unbiasedness contract applies exactly
    m = rnd((8, 16), seed=23)
    n = 20_000
    draws = np.empty((n,) + m.shape, dtype=F32)
    for i in range(n):
        rng = fc.stream(1000, "sq", i)
        q = bq.quantize_double_block(
            m, bq.Orientation.ROW_GROUPS_1X16, mode="stoch", rng=rng
        )
        assert q.clamp_count == 0
        draws[i] = bq.dequantize(q)
    assert_mc_mean_close(draws, m, nsigma=5.0)


def test_clamp_event_bias_is_real_and_counted():
    # second block's max lands where the E4M3 scale rounds down (6.1 -> 6.0),
    # so its carrier clamps at the top code and dequantizes low: the one
    # documented bias source of the scheme
    m = np.zeros((1, 32), F32)
    m[0, 0] = 448.0
    m[0, 16] = 6.1
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    assert q.clamp_count >= 1
    dq = bq.dequantize(q)
    assert dq[0, 16] < 6.1
    assert np.isclose(dq[0, 16], 6.0, rtol=1e-5)


def assert_mc_mean_close(draws, target, nsigma):
    n = draws.shape[0]
    # float64 statistics: float32 accumulation over many draws invents
    # spurious deviations on constant (exactly representable) elements
    mean = draws.mean(axis=0, dtype=np.float64)
    sd = draws.astype(np.float64).std(axis=0, ddof=1)
    diff = np.abs(mean - target)
    tol = nsigma * sd / math.sqrt(n)
    exact = sd < 1e-12
    assert np.all(diff[exact] < 1e-6)
    assert np.all(diff[~exact] <= tol[~exact])


def test_stochastic_requires_rng():
    with pytest.raises(ValueError):
        bq.quantize_double_block(
            rnd((4, 16), 1), bq.Orientation.ROW_GROUPS_1X16, mode="stoch"
        )


# ── requantization: quantize a dequantized matrix again ──────────────────────


def test_requantize_same_orientation_det_is_stable():
    # Dequantize normalizes -0.0 to +0.0, so codes that were negative zero
    # on the first pass come back as +0; magnitudes and all nonzero codes
    # survive, and from the second application onward codes are an exact
    # fixed point.
    m = rnd((32, 64), seed=29)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    q2 = bq.quantize_double_block(bq.dequantize(q), bq.Orientation.ROW_GROUPS_1X16)
    c1 = unpacked_codes(q)
    c2 = unpacked_codes(q2)
    np.testing.assert_array_equal(c1 & 0x7, c2 & 0x7)
    nonzero = (c1 & 0x7) != 0
    np.testing.assert_array_equal(c1[nonzero], c2[nonzero])
    np.testing.assert_allclose(
        bq.dequantize(q2), bq.dequantize(q), rtol=1e-6, atol=0.0
    )
    q3 = bq.quantize_double_block(bq.dequantize(q2), bq.Orientation.ROW_GROUPS_1X16)
    np.testing.assert_array_equal(q2.codes, q3.codes)


def test_requantize_cross_orientation_stoch_unbiased():
    # 16x16 keeps one group per outer block in both orientations: no clamps
    m = rnd((16, 16), seed=31)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    src = bq.dequantize(q)
    n = 20_000
    draws = np.empty((n,) + m.shape, dtype=F32)
    for i in range(n):
        rng = fc.stream(2000, "rq", i)
        q2 = bq.quantize_double_block(
            src, bq.Orientation.COL_GROUPS_16X1, mode="stoch", rng=rng
        )
        draws[i] = bq.dequantize(q2)
    assert_mc_mean_close(draws, src, nsigma=5.0)


# ── fused quantize→reconstruct route ─────────────────────────────────────────
#
# The oracle for `quantize_dequantize` is the two-step route itself: same
# arguments, same rng stream, bit-identical values, equal clamp counts, and
# identical stream positions afterwards.

_FUSED_CASES = [
    (bq.Orientation.ROW_GROUPS_1X16, "1x128", "e2m1", (48, 200)),
    (bq.Orientation.ROW_GROUPS_1X16, "per-row", "e3m2", (33, 130)),
    (bq.Orientation.ROW_GROUPS_1X16, "per-tensor", "e2m3", (5, 7)),
    (bq.Orientation.COL_GROUPS_16X1, "1x128", "e2m1", (130, 33)),
    (bq.Orientation.COL_GROUPS_16X1, "per-tensor", "e3m2", (21, 17)),
    (bq.Orientation.SQUARE_16X16, None, "e2m1", (40, 56)),
    (bq.Orientation.SQUARE_16X16, None, "e2m3", (16, 16)),
]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


@pytest.mark.parametrize("orientation,outer,fmt,shape", _FUSED_CASES)
def test_fused_matches_two_step_route_det(orientation, outer, fmt, shape):
    m = rnd(shape, seed=83) * F32(300.0)
    m[0, 0] = 0.0
    q = bq.quantize_double_block(m, orientation, outer=outer, element_fmt=fmt)
    want = bq.dequantize(q)
    got, clamps = bq.quantize_dequantize(m, orientation, outer=outer, element_fmt=fmt)
    assert got.dtype == np.float32 and got.shape == m.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert clamps == q.clamp_count


@pytest.mark.parametrize("orientation,outer,fmt,shape", _FUSED_CASES)
def test_fused_matches_two_step_route_stoch(orientation, outer, fmt, shape):
    m = rnd(shape, seed=89) * F32(50.0)
    tag = f"{orientation.value}-{outer}-{fmt}"
    r1 = fc.stream(11, "fused", tag)
    r2 = fc.stream(11, "fused", tag)
    q = bq.quantize_double_block(
        m, orientation, outer=outer, mode="stoch", rng=r1, element_fmt=fmt
    )
    want = bq.dequantize(q)
    got, clamps = bq.quantize_dequantize(
        m, orientation, outer=outer, mode="stoch", rng=r2, element_fmt=fmt
    )
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert clamps == q.clamp_count
    # both routes must leave the stream at the same position
    np.testing.assert_array_equal(r1.random(4), r2.random(4))


def test_fused_counts_clamps_on_saturating_input():
    # Gaussian data spanning many inner blocks: roughly half the block scales
    # round down in E4M3, so saturation clamps are plentiful — the count must
    # match the two-step route exactly, not just on clamp-free inputs.
    m = rnd((48, 200), seed=97) * F32(300.0)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16, outer="1x128")
    got, clamps = bq.quantize_dequantize(m, bq.Orientation.ROW_GROUPS_1X16, outer="1x128")
    assert clamps == q.clamp_count > 0
    np.testing.assert_array_equal(_bits(got), _bits(bq.dequantize(q)))


def test_fused_zero_and_negative_zero():
    m = np.zeros((3, 20), dtype=F32)
    m[1, 2] = F32(-0.0)
    for orientation in bq.Orientation:
        q = bq.quantize_double_block(m, orientation)
        got, clamps = bq.quantize_dequantize(m, orientation)
        np.testing.assert_array_equal(_bits(got), _bits(bq.dequantize(q)))
        assert clamps == 0
        assert not np.signbit(got).any()


def test_fused_rejects_bad_arguments():
    m = rnd((4, 16), seed=101)
    with pytest.raises(ValueError):
        bq.quantize_dequantize(m, bq.Orientation.SQUARE_16X16, outer="per-row")
    with pytest.raises(ValueError):
        bq.quantize_dequantize(m, bq.Orientation.ROW_GROUPS_1X16, mode="stoch")


@pytest.mark.parametrize("orientation", list(bq.Orientation))
def test_underflowed_outer_scale_matches_reference(orientation):
    # every |entry| is below 2688 * 2**-149, so S_g underflows to 0 and
    # X / S_g is inf, or NaN at the zeros: blocks holding a zero take inner
    # scale 1, the others 448, exactly as the plain definition gives
    m = np.full((20, 40), F32(1e-45))
    m[0, 5] = 0.0
    m[17, 30] = F32(-0.0)
    m[9, 20:] = F32(-3e-45)
    with np.errstate(divide="ignore", invalid="ignore"):
        want, want_clamps, want_sb, want_sg = ref_quantize(m, orientation, bq.OuterGranularity.PER_TENSOR)
        q = bq.quantize_double_block(m, orientation, outer="per-tensor")
        got, clamps = bq.quantize_dequantize(m, orientation, outer="per-tensor")
    assert q.outer_scales.tolist() == want_sg.tolist() == [0.0]
    np.testing.assert_array_equal(q.inner_scales, want_sb)
    assert set(want_sb.tolist()) == {1.0, 448.0}
    assert q.clamp_count == clamps == want_clamps
    np.testing.assert_array_equal(_bits(got), _bits(want))
    np.testing.assert_array_equal(_bits(bq.dequantize(q)), _bits(want))


def _padded_work_grid(m, orientation, shape):
    work = m.T if orientation is bq.Orientation.COL_GROUPS_16X1 else m
    W = np.zeros(shape, F32)
    W[: work.shape[0], : work.shape[1]] = work
    return W


# Non-finite ratios are pinned as they are until non-finite input gets a
# defined result of its own. A NaN ratio takes the top code (det) or the one
# below it (stoch), as in fpcodec, and every code takes the sign of its input
# element, never that of the NaN the division made.


@pytest.mark.parametrize("mode", ["det", "stoch"])
@pytest.mark.parametrize("orientation", list(bq.Orientation))
def test_underflowed_outer_scale_codes_take_the_input_sign(orientation, mode):
    # S_g underflows to 0: X / S_g is inf where the input is nonzero and NaN
    # where it is +-0, padding included
    m = np.full((20, 40), F32(1e-45))
    m[0, 5] = 0.0
    m[17, 30] = F32(-0.0)
    m[9, 20:] = F32(-3e-45)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = bq.quantize_double_block(
            m, orientation, outer="per-tensor", mode=mode, rng=fc.stream(5, "underflow")
        )
    codes = unpacked_codes(q)
    W = _padded_work_grid(m, orientation, codes.shape)
    nan_code = 7 if mode == "det" else 6
    want = np.where(W != 0, 7, nan_code) | (np.signbit(W).astype(np.uint8) << 3)
    np.testing.assert_array_equal(codes, want)


@pytest.mark.parametrize("mode", ["det", "stoch"])
@pytest.mark.parametrize("orientation", list(bq.Orientation))
def test_infinite_element_keeps_its_sign(orientation, mode):
    # S_g is inf, so each +-inf element's ratio is inf / inf = NaN and its
    # block's inner scale is 1: the code is the NaN code with the input's
    # sign and decodes to +-inf; every finite element gives 0 * inf = NaN
    m = np.ones((2, 20), F32)
    m[0, 3], m[1, 5] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        q = bq.quantize_double_block(
            m, orientation, outer="per-tensor", mode=mode, rng=fc.stream(5, "inf")
        )
        got, clamps = bq.quantize_dequantize(
            m, orientation, outer="per-tensor", mode=mode, rng=fc.stream(5, "inf")
        )
        again = bq.dequantize(q)
    nan_code = 7 if mode == "det" else 6
    codes = unpacked_codes(q)
    if orientation is bq.Orientation.COL_GROUPS_16X1:
        codes = codes[: m.shape[1], : m.shape[0]].T
    assert (codes[0, 3], codes[1, 5]) == (nan_code, 0b1000 | nan_code)
    assert (got[0, 3], got[1, 5]) == (np.inf, -np.inf)
    assert np.isnan(np.delete(got.reshape(-1), [3, 25])).all()
    assert clamps == q.clamp_count == 0
    np.testing.assert_array_equal(_bits(again), _bits(got))


@pytest.mark.parametrize("orientation", list(bq.Orientation))
def test_stochastic_routes_draw_once_per_padded_element(orientation):
    # 37 x 21 pads to 37 x 32 row groups, 21 x 48 column groups (the work
    # grid is the transpose) and 48 x 32 square tiles
    padded = {"row": 37 * 32, "col": 21 * 48, "square": 48 * 32}[orientation.value]
    m = rnd((37, 21), seed=131, scale=4.0)
    for route in (bq.quantize_dequantize, bq.quantize_double_block):
        rng, ref = fc.stream(17, "draws"), fc.stream(17, "draws")
        route(m, orientation, mode="stoch", rng=rng)
        ref.random(padded)
        np.testing.assert_array_equal(rng.random(4), ref.random(4))


# ── golden output ────────────────────────────────────────────────────────────
#
# The fused-vs-two-step tests compare two consumers of one pipeline, so they
# cannot see a change that alters both (a reordered stochastic draw, say).
# This digest pins the absolute output: codes, scales, clamp counts, values
# and the next draws of every rng stream, over ragged matrices in every
# orientation x outer granularity x element format x rounding mode, plus
# the oscillation weight view. The constant was recorded by running this body
# against the implementation that still carried the MXFP4 route, so it pins
# every layout that route's removal kept.

GOLDEN_SHA256 = "b927045cb95c9ead29708273c8376250759f3670ea4f7f495cbbd5be980eb894"


def _golden_matrix(shape, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    m = (rng.standard_normal(shape) * 40.0).astype(F32)
    m[rng.random(shape) < 0.08] = 0.0
    m[rng.random(shape) < 0.02] = F32(-0.0)
    m[rng.integers(shape[0])] *= F32(300.0)  # outlier row drives clamps
    m[:, rng.integers(shape[1])] = 0.0  # an all-zero column
    return m


def _golden_digest():
    from nvfp4sim import oscillation as osc

    h = hashlib.sha256()

    def put(*items):
        for x in items:
            h.update(np.ascontiguousarray(x).tobytes() if isinstance(x, np.ndarray)
                     else repr(x).encode())

    def rng_for(tag, mode):
        return fc.stream(2718, "golden", tag) if mode == "stoch" else None

    shapes = [(37, 150), (5, 7), (130, 33)]
    for si, shape in enumerate(shapes):
        m = _golden_matrix(shape, 900 + si)
        for orientation in bq.Orientation:
            outers = ([None] if orientation is bq.Orientation.SQUARE_16X16
                      else list(bq.OuterGranularity))
            for outer in outers:
                for fmt in ("e2m1", "e3m2", "e2m3"):
                    for mode in ("det", "stoch"):
                        tag = f"{si}-{orientation.value}-{outer}-{fmt}"
                        r = rng_for(tag + "-q", mode)
                        q = bq.quantize_double_block(
                            m, orientation, outer=outer, mode=mode, rng=r,
                            element_fmt=fmt)
                        put(tag, mode, q.codes, q.inner_scales, q.outer_scales,
                            q.clamp_count, bq.dequantize(q))
                        r2 = rng_for(tag + "-qdq", mode)
                        vals, clamps = bq.quantize_dequantize(
                            m, orientation, outer=outer, mode=mode, rng=r2,
                            element_fmt=fmt)
                        put(vals, clamps)
                        if mode == "stoch":
                            put(r.random(3), r2.random(3))
                    view = osc.double_block_weight_view(orientation, outer, fmt)(m)
                    put(view.values, view.at_max_code, view.block_amax)
    return h.hexdigest()


def test_golden_output_digest():
    assert _golden_digest() == GOLDEN_SHA256


# ── properties ───────────────────────────────────────────────────────────────


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    orientation=st.sampled_from(list(bq.Orientation)),
    seed=st.integers(0, 2**20),
)
def test_prop_quantize_shape_and_finiteness(rows, cols, orientation, seed):
    m = rnd((rows, cols), seed=seed, scale=5.0)
    q = bq.quantize_double_block(m, orientation)
    dq = bq.dequantize(q)
    assert dq.shape == m.shape and dq.dtype == F32
    assert np.all(np.isfinite(dq))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_prop_det_requantize_reaches_code_fixed_point(seed):
    # magnitudes are stable immediately; full codes (sign of zero included)
    # are an exact fixed point from the second application onward
    m = rnd((8, 32), seed=seed)
    q = bq.quantize_double_block(m, bq.Orientation.ROW_GROUPS_1X16)
    q2 = bq.quantize_double_block(bq.dequantize(q), bq.Orientation.ROW_GROUPS_1X16)
    np.testing.assert_array_equal(
        unpacked_codes(q) & 0x7, unpacked_codes(q2) & 0x7
    )
    q3 = bq.quantize_double_block(bq.dequantize(q2), bq.Orientation.ROW_GROUPS_1X16)
    np.testing.assert_array_equal(q2.codes, q3.codes)


def _layouts(m):
    """``m`` C-ordered, F-ordered and as a strided slice of a NaN-filled array."""
    rows, cols = m.shape
    base = np.full((2 * rows + 1, 2 * cols + 3), np.nan, F32)
    sliced = base[1::2, 3::2]
    sliced[...] = m
    return {"C": np.ascontiguousarray(m), "F": np.asfortranarray(m), "slice": sliced}


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 150),
    cols=st.integers(1, 150),
    orientation=st.sampled_from(list(bq.Orientation)),
    outer=st.sampled_from([None, "1x128", "per-row", "per-tensor"]),
    mode=st.sampled_from(["det", "stoch"]),
    seed=st.integers(0, 2**16),
)
def test_prop_quantize_is_layout_invariant(rows, cols, orientation, outer, mode, seed):
    # the memory layout of the input never shows: same bytes, clamps, codes
    # and stream position from C-ordered, F-ordered and strided-slice input
    if orientation is bq.Orientation.SQUARE_16X16:
        outer = None
    rng = np.random.Generator(np.random.Philox(seed + 11))
    m = (rng.standard_normal((rows, cols)) * 8.0).astype(F32)
    m[rng.random(m.shape) < 0.1] = F32(-0.0)
    m[rng.integers(rows)] *= F32(500.0)
    results = {}
    for layout, a in _layouts(m).items():
        r1 = fc.stream(seed, "layout") if mode == "stoch" else None
        r2 = fc.stream(seed, "layout") if mode == "stoch" else None
        vals, clamps = bq.quantize_dequantize(
            a, orientation, outer=outer, mode=mode, rng=r1
        )
        q = bq.quantize_double_block(a, orientation, outer=outer, mode=mode, rng=r2)
        assert vals.shape == m.shape and vals.dtype == F32
        draws = () if r1 is None else (r1.random(2).tobytes(), r2.random(2).tobytes())
        results[layout] = (_bits(vals).tobytes(), clamps, q.codes.tobytes(),
                           q.clamp_count, draws)
    assert results["F"] == results["C"]
    assert results["slice"] == results["C"]


@pytest.mark.parametrize("shape", [(32, 64), (37, 21)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_quantizers_leave_their_input_unchanged(shape, order):
    # (32, 64) C-ordered float32 needs no padding and no conversion, so the
    # quantizers see the caller's own array, not a copy
    m = rnd(shape, seed=2024, scale=30.0)
    m[0, :3] = F32(-0.0)
    m = np.asarray(m, order=order)
    before = m.tobytes(order="A")
    if order == "C":
        assert bq.as_matrix(m) is m
    for orientation in bq.Orientation:
        for mode in ("det", "stoch"):
            rng = fc.stream(5, "readonly") if mode == "stoch" else None
            bq.quantize_dequantize(m, orientation, mode=mode, rng=rng)
            assert m.tobytes(order="A") == before
            bq.quantize_double_block(m, orientation, mode=mode, rng=rng)
            assert m.tobytes(order="A") == before


# ── per-element block amax ───────────────────────────────────────────────────


def _brute_block_amax(m, orientation):
    m = np.asarray(m, F32)
    out = np.zeros_like(m)
    r, c = m.shape
    if orientation is bq.Orientation.SQUARE_16X16:
        for i in range(r):
            for j in range(c):
                ti, tj = (i // 16) * 16, (j // 16) * 16
                out[i, j] = np.abs(m[ti : ti + 16, tj : tj + 16]).max()
        return out
    if orientation is bq.Orientation.ROW_GROUPS_1X16:
        for i in range(r):
            for j in range(c):
                b = (j // 16) * 16
                out[i, j] = np.abs(m[i, b : b + 16]).max()
        return out
    for i in range(r):
        for j in range(c):
            b = (i // 16) * 16
            out[i, j] = np.abs(m[b : b + 16, j]).max()
    return out


@pytest.mark.parametrize(
    "shape,orientation",
    [
        ((3, 40), bq.Orientation.ROW_GROUPS_1X16),
        ((40, 3), bq.Orientation.COL_GROUPS_16X1),
        ((20, 35), bq.Orientation.SQUARE_16X16),
        ((16, 16), bq.Orientation.SQUARE_16X16),
        ((1, 16), bq.Orientation.ROW_GROUPS_1X16),
    ],
)
def test_element_block_amax_matches_brute_force(shape, orientation):
    from nvfp4sim import oscillation as osc

    m = rnd(shape, seed=5150, scale=3.0)
    got = osc.double_block_weight_view(orientation)(m).block_amax
    np.testing.assert_array_equal(got, _brute_block_amax(m, orientation))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    orientation=st.sampled_from(list(bq.Orientation)),
    outer=st.sampled_from([None, "1x128", "per-row", "per-tensor"]),
    mode=st.sampled_from(["det", "stoch"]),
    seed=st.integers(0, 2**16),
)
def test_prop_fused_equals_two_step(rows, cols, orientation, outer, mode, seed):
    if orientation is bq.Orientation.SQUARE_16X16 and outer not in (None, "per-tensor"):
        outer = None
    rng = np.random.Generator(np.random.Philox(seed + 7))
    m = (rng.standard_normal((rows, cols)) * 8.0).astype(F32)
    m[rng.random(m.shape) < 0.1] = 0.0
    m[rng.integers(rows)] *= F32(500.0)  # outlier row stresses the outer scale
    q = bq.quantize_double_block(
        m, orientation, outer=outer, mode=mode, rng=fc.stream(seed, "prop-fused")
    )
    got, clamps = bq.quantize_dequantize(
        m, orientation, outer=outer, mode=mode, rng=fc.stream(seed, "prop-fused")
    )
    assert clamps == q.clamp_count
    np.testing.assert_array_equal(_bits(got), _bits(bq.dequantize(q)))
