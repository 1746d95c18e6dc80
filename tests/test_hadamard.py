"""Tests for the block Hadamard / Random Hadamard Transform module.

Oracles used here are independent of the implementation:
  * dense Hadamard matrices are checked against the closed form
    H[i, j] = (-1)**popcount(i & j) / sqrt(d) for the Sylvester construction;
  * rht_apply is checked against a dense matmul with an oracle-built
    block-diagonal matrix;
  * the product-preservation identity is checked against float64 matmuls.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvfp4sim import blockquant as bq
from nvfp4sim import hadamard as hd
from nvfp4sim import qlinear as ql

F32 = np.float32


def ref_hadamard(d: int) -> np.ndarray:
    """Closed-form Sylvester-Hadamard matrix, float64."""
    idx = np.arange(d)
    pc = np.zeros((d, d), dtype=np.int64)
    both = idx[:, None] & idx[None, :]
    for bit in range(max(1, d.bit_length())):
        pc += (both >> bit) & 1
    return np.where(pc % 2 == 0, 1.0, -1.0) / math.sqrt(d)


def ref_block_hadamard(n: int, d: int) -> np.ndarray:
    assert n % d == 0
    return np.kron(np.eye(n // d), ref_hadamard(d))


def ones_ctx(dim: int, block: int) -> hd.RhtContext:
    """Context with all-plus-one signs (padding included)."""
    padded = -(-dim // block) * block
    return hd.RhtContext(
        dim=dim,
        block=block,
        signs=np.ones(padded, dtype=F32),
    )


def rnd(shape, seed):
    return np.random.Generator(np.random.Philox(seed)).normal(size=shape).astype(F32)


# ── dense Hadamard matrices ──────────────────────────────────────────────────


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
def test_dense_matches_popcount_closed_form(d):
    np.testing.assert_allclose(hd.hadamard_dense(d), ref_hadamard(d), atol=1e-12)


def test_dense_h2_exact():
    want = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    np.testing.assert_allclose(hd.hadamard_dense(2), want, atol=0)


@pytest.mark.parametrize("d", [16, 32, 64])
def test_dense_orthogonality(d):
    h = hd.hadamard_dense(d)
    err = np.max(np.abs(h @ h.T - np.eye(d)))
    assert err <= 1e-6


def test_dense_entry_magnitudes():
    h = hd.hadamard_dense(32)
    np.testing.assert_allclose(np.abs(h), 1.0 / math.sqrt(32.0), atol=1e-12)


@pytest.mark.parametrize("d", [-4, 0, 1, 3, 12, 48])
def test_dense_invalid_size(d):
    with pytest.raises(ValueError):
        hd.hadamard_dense(d)


def test_dense_cached_and_readonly():
    a = hd.hadamard_dense(16)
    assert hd.hadamard_dense(16) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 5.0


# ── contexts: sign generation, determinism, padding ──────────────────────────


def test_ctx_signs_deterministic_across_calls():
    a = hd.rht_context(32, seed=7, layer="blk0.fc1", step=12, side="dx")
    b = hd.rht_context(32, seed=7, layer="blk0.fc1", step=12, side="dx")
    np.testing.assert_array_equal(a.signs, b.signs)
    assert set(np.unique(a.signs)) <= {-1.0, 1.0}


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=8, layer="blk0.fc1", step=12, side="dx"),
        dict(seed=7, layer="blk0.fc2", step=12, side="dx"),
        dict(seed=7, layer="blk0.fc1", step=13, side="dx"),
        dict(seed=7, layer="blk0.fc1", step=12, side="dw"),
    ],
)
def test_ctx_signs_vary_with_provenance(kwargs):
    base = hd.rht_context(64, seed=7, layer="blk0.fc1", step=12, side="dx")
    other = hd.rht_context(64, **kwargs)
    assert not np.array_equal(base.signs, other.signs)


def test_ctx_padding_signs_are_plus_one():
    ctx = hd.rht_context(20, seed=3, layer="l", step=0, side="dx", block=16)
    assert ctx.padded_dim == 32
    assert ctx.signs.shape == (32,)
    np.testing.assert_array_equal(ctx.signs[20:], 1.0)


@pytest.mark.parametrize("block", [0, 1, 3, 12, -16])
def test_ctx_invalid_block(block):
    with pytest.raises(ValueError):
        hd.rht_context(32, seed=1, layer="l", step=0, side="dx", block=block)


@pytest.mark.parametrize("block", [0, 1, 3, 12, -16, 32.0, "32", True, np.int64(32)])
def test_every_entry_states_the_block_rule_once(block):
    # a Hadamard size, a context's block and a recipe's rht_block are one rule
    rule = f"must be an integer power of two >= 2, got {block!r}"
    with pytest.raises(ValueError, match=re.escape(f"Hadamard size {rule}")):
        hd.hadamard_dense(block)
    with pytest.raises(ValueError, match=re.escape(f"Hadamard block {rule}")):
        hd.rht_context(32, seed=1, layer="l", step=0, side="dx", block=block)
    with pytest.raises(ValueError, match=re.escape(f"Hadamard block {rule}")):
        hd.RhtContext(dim=32, block=block, signs=np.ones(32, dtype=F32))
    with pytest.raises(ValueError, match=re.escape(f"rht_block {rule}")):
        ql.LayerQuantConfig(rht_block=block)


def test_ctx_invalid_dim():
    with pytest.raises(ValueError):
        hd.rht_context(0, seed=1, layer="l", step=0, side="dx")


# ── rht_apply ─────────────────────────────────────────────────────────────────


def test_apply_zero_matrix():
    ctx = hd.rht_context(32, seed=5, layer="l", step=1, side="dx")
    out = hd.rht_apply(np.zeros((4, 32), F32), ctx)
    np.testing.assert_array_equal(out, np.zeros((4, 32), F32))


def test_apply_hadamard_transpose_gives_identity():
    # with all-plus signs and a single block, (H_d)ᵀ · H_d = I
    ctx = ones_ctx(16, 16)
    a = ref_hadamard(16).T.astype(F32)
    out = hd.rht_apply(a, ctx)
    np.testing.assert_allclose(out, np.eye(16, dtype=F32), atol=1e-6)


def test_apply_matches_dense_oracle():
    ctx = hd.rht_context(32, seed=11, layer="l", step=4, side="dx", block=16)
    a = rnd((8, 32), seed=41)
    dense = (
        a.astype(np.float64)
        @ np.diag(ctx.signs.astype(np.float64))
        @ ref_block_hadamard(32, 16)
    )
    out = hd.rht_apply(a, ctx)
    assert out.shape == (8, 32)
    np.testing.assert_allclose(out, dense, atol=1e-5)


def test_apply_dimension_mismatch():
    ctx = hd.rht_context(32, seed=1, layer="l", step=0, side="dx")
    with pytest.raises(ValueError):
        hd.rht_apply(np.zeros((4, 31), F32), ctx)


def test_apply_ragged_dim_keeps_the_padded_width():
    ctx = hd.rht_context(24, seed=9, layer="l", step=2, side="dx", block=16)
    a = rnd((3, 24), seed=43)
    assert hd.rht_apply(a, ctx).shape == (3, 32)
    # padded-width products still contract exactly: orthogonality survives padding
    dev = hd.rht_pair_identity_check(a, a, ctx)
    assert dev <= 1e-4


def test_apply_matches_dense_oracle_ragged():
    ctx = hd.rht_context(24, seed=13, layer="l", step=3, side="dw", block=16)
    a = rnd((5, 24), seed=47)
    apad = np.zeros((5, 32))
    apad[:, :24] = a.astype(np.float64)
    dense = apad @ np.diag(ctx.signs.astype(np.float64)) @ ref_block_hadamard(32, 16)
    out = hd.rht_apply(a, ctx)
    np.testing.assert_allclose(out, dense, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 40),
    blocks=st.integers(1, 4),
    ragged=st.integers(0, 31),
    block=st.sampled_from([2, 16, 32]),
    seed=st.integers(0, 2**16),
)
def test_prop_apply_is_layout_invariant(rows, blocks, ragged, block, seed):
    # C- and F-ordered input give the same bytes, padded dims and unpadded
    dim = blocks * block - ragged % block
    ctx = hd.rht_context(dim, seed=seed, layer="l", step=1, side="dw", block=block)
    a = rnd((rows, dim), seed=seed)
    c = hd.rht_apply(np.ascontiguousarray(a), ctx)
    f = hd.rht_apply(np.asfortranarray(a), ctx)
    assert c.shape == f.shape == (rows, ctx.padded_dim)
    assert c.tobytes() == f.tobytes()


@pytest.mark.parametrize("dim", [64, 40])
@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_leaves_its_input_unchanged(dim, order):
    # dim 64 is a whole number of blocks and C-ordered float32 needs no
    # conversion, so rht_apply sees the caller's own array
    a = np.asarray(rnd((24, dim), seed=dim), order=order)
    before = a.tobytes(order="A")
    if order == "C":
        assert bq.as_matrix(a) is a
    ctx = hd.rht_context(dim, seed=3, layer="l", step=0, side="dx", block=16)
    hd.rht_apply(a, ctx)
    assert a.tobytes(order="A") == before


def test_transform_rows_orthonormal():
    for n, d, seed in [(16, 16, 1), (32, 32, 2), (64, 32, 3), (24, 16, 4)]:
        ctx = hd.rht_context(n, seed=seed, layer="l", step=0, side="dx", block=d)
        t = hd.rht_apply(np.eye(n, dtype=F32), ctx)
        err = np.max(np.abs(t @ t.T - np.eye(n, dtype=F32)))
        assert err <= 1e-6, (n, d, err)


# ── pair identity ─────────────────────────────────────────────────────────────


def test_pair_identity_on_identity_inputs():
    ctx = hd.rht_context(16, seed=21, layer="l", step=7, side="dx", block=16)
    eye = np.eye(16, dtype=F32)
    assert hd.rht_pair_identity_check(eye, eye, ctx) <= 1e-6


def test_pair_identity_random_pair():
    ctx = hd.rht_context(32, seed=23, layer="l", step=9, side="dx")
    a = rnd((4, 32), seed=53)
    b = rnd((4, 32), seed=59)
    assert hd.rht_pair_identity_check(a, b, ctx) <= 1e-4


def test_pair_identity_global_sign_flip_is_invariant():
    ctx = hd.rht_context(32, seed=25, layer="l", step=11, side="dx")
    neg = dataclasses.replace(ctx, signs=-ctx.signs)
    a = rnd((4, 32), seed=61)
    b = rnd((6, 32), seed=67)
    # negation is exact in binary32, so the two transformed products agree bitwise
    pa = hd.rht_apply(a, ctx) @ hd.rht_apply(b, ctx).T
    pn = hd.rht_apply(a, neg) @ hd.rht_apply(b, neg).T
    np.testing.assert_array_equal(pa, pn)
    assert hd.rht_pair_identity_check(a, b, ctx) == hd.rht_pair_identity_check(a, b, neg)


def test_pair_identity_dimension_mismatch():
    ctx = hd.rht_context(32, seed=1, layer="l", step=0, side="dx")
    with pytest.raises(ValueError):
        hd.rht_pair_identity_check(np.zeros((2, 32), F32), np.zeros((2, 16), F32), ctx)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    rows_a=st.integers(1, 6),
    rows_b=st.integers(1, 6),
    dim=st.sampled_from([8, 16, 24, 32, 48, 64]),
    block=st.sampled_from([16, 32]),
)
def test_prop_pair_identity_holds_for_any_dims(seed, rows_a, rows_b, dim, block):
    ctx = hd.rht_context(dim, seed=seed, layer="p", step=0, side="dx", block=block)
    g = np.random.Generator(np.random.Philox(seed + 1))
    a = g.normal(size=(rows_a, dim)).astype(F32)
    b = g.normal(size=(rows_b, dim)).astype(F32)
    assert hd.rht_pair_identity_check(a, b, ctx) <= 1e-4


# ── unbiasedness composition: stochastic quantization after RHT ──────────────


def _equal_block_amax_operand(rows, cols, carrier, seed):
    """Rows whose 16-wide blocks share an exact amax, so inner scales are exact
    and no clamp events can occur after quantization."""
    g = np.random.Generator(np.random.Philox(seed))
    m = g.uniform(-0.9 * carrier, 0.9 * carrier, size=(rows, cols)).astype(F32)
    sgn = np.where(g.random(size=(rows, cols // 16)) < 0.5, -1.0, 1.0).astype(F32)
    for blk in range(cols // 16):
        m[:, blk * 16] = sgn[:, blk] * carrier
    return m


def test_composition_stochastic_quantization_after_rht_is_unbiased():
    # Operands are crafted IN the rotated domain with equal per-block amax
    # (exact inner scales, zero clamps), then pulled back through the inverse
    # rotation so that rht_apply reproduces them up to float32 roundoff.
    d = 32
    ctx = hd.rht_context(d, seed=31, layer="mc", step=0, side="dx", block=d)
    h = ref_block_hadamard(d, d)
    s = ctx.signs.astype(np.float64)
    a_rot = _equal_block_amax_operand(16, d, carrier=3.0, seed=71)
    b_rot = _equal_block_amax_operand(16, d, carrier=2.0, seed=73)
    a = ((a_rot.astype(np.float64) @ h) * s).astype(F32)
    b = ((b_rot.astype(np.float64) @ h) * s).astype(F32)

    at = hd.rht_apply(a, ctx)
    bt = hd.rht_apply(b, ctx)
    target = at.astype(np.float64) @ bt.astype(np.float64).T

    qa0 = bq.quantize_double_block(at, bq.Orientation.ROW_GROUPS_1X16)
    qb0 = bq.quantize_double_block(bt, bq.Orientation.ROW_GROUPS_1X16)
    assert qa0.clamp_count == 0 and qb0.clamp_count == 0

    n_draws, per_batch = 100_000, 250
    s1 = np.zeros((16, 16), dtype=np.float64)
    s2 = np.zeros((16, 16), dtype=np.float64)
    a_stack = np.tile(at, (per_batch, 1))
    b_stack = np.tile(bt, (per_batch, 1))
    rng = np.random.Generator(np.random.Philox(79))
    for _ in range(n_draws // per_batch):
        da = bq.dequantize(
            bq.quantize_double_block(
                a_stack, bq.Orientation.ROW_GROUPS_1X16, mode="stoch", rng=rng
            )
        ).reshape(per_batch, 16, d)
        db = bq.dequantize(
            bq.quantize_double_block(
                b_stack, bq.Orientation.ROW_GROUPS_1X16, mode="stoch", rng=rng
            )
        ).reshape(per_batch, 16, d)
        prods = np.einsum("bik,bjk->bij", da, db, dtype=np.float64)
        s1 += prods.sum(axis=0)
        s2 += (prods**2).sum(axis=0)

    mean = s1 / n_draws
    var = np.maximum(s2 - n_draws * mean**2, 0.0) / (n_draws - 1)
    sd = np.sqrt(var)
    diff = np.abs(mean - target)
    tol = 4.0 * sd / math.sqrt(n_draws)
    exact = sd < 1e-9
    assert np.all(diff[exact] < 1e-6)
    assert np.all(diff[~exact] <= tol[~exact])
