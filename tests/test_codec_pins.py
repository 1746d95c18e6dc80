"""Byte pins of the code route: ``dequantize``, ``metrics.error_stats``, the
non-finite and underflow corners of both quantizer routes, and the files the
``quantize`` command and ``load_matrix`` write.

Every constant here was recorded from the implementation that decoded codes
one table entry at a time into a C-ordered matrix, summed errors over float64
copies of both inputs, and took a second block max for the inner scales. The
pins hold any rewrite of those steps to the same bytes.
"""

import hashlib

import numpy as np
import pytest

from nvfp4sim import blockquant as bq
from nvfp4sim import cli
from nvfp4sim import fpcodec as fc
from nvfp4sim import matrixio as mio
from nvfp4sim import metrics as mx

F32 = np.float32
STAT_KEYS = ("mse", "max_abs_err", "sqnr_db", "rel_err_fro")


def heavy_tailed(shape, seed):
    """Rows scaled over several decades, as in the codec benchmark."""
    rng = np.random.default_rng([seed, 0xC0DEC])
    r, c = shape
    row_scale = np.exp(1.5 * rng.standard_normal(r))
    return (rng.standard_normal((r, c)) * row_scale[:, None]).astype(F32)


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else str(p).encode())
    return h.hexdigest()[:32]


def hex_stats(stats) -> tuple:
    return tuple(float(stats[k]).hex() for k in STAT_KEYS)


# ── dequantize bytes and error stats over every layout ───────────────────────

LAYOUTS = [
    (o, outer, fmt)
    for o in ("row", "col", "square")
    for outer in (("per-tensor",) if o == "square" else ("1x128", "per-row", "per-tensor"))
    for fmt in ("e2m1", "e3m2", "e2m3")
]
SHAPES = [(75, 203), (133, 61), (29, 290)]


def _layout_case(i):
    orientation, outer, fmt = LAYOUTS[i]
    m = heavy_tailed(SHAPES[i % len(SHAPES)], 100 + i)
    q = bq.quantize_double_block(m, orientation, outer=outer, element_fmt=fmt)
    return m, q


DEQUANT_PINS = {
    ('row', '1x128', 'e2m1'): 'f40cbc9cc2dc7a0f19c38edc20b86c67',
    ('row', '1x128', 'e3m2'): '91012569b5968b36509bd98355bce74a',
    ('row', '1x128', 'e2m3'): 'ad60b3c21ed0ab73c3d0ad1ee26266f9',
    ('row', 'per-row', 'e2m1'): '19820c1388739611e956210a0562c92a',
    ('row', 'per-row', 'e3m2'): '9ff0fa0631f1b30fa6a01a7d5e5eb8a9',
    ('row', 'per-row', 'e2m3'): '35423a3d3b1f80264e2347bd2f903c1d',
    ('row', 'per-tensor', 'e2m1'): '2705b19af6ee309f7bfcf468ea09f62d',
    ('row', 'per-tensor', 'e3m2'): '6d42bd2206131c35250ff87fbfad45c0',
    ('row', 'per-tensor', 'e2m3'): 'e9e931fd5d8aa2ad886a28e8f89eff45',
    ('col', '1x128', 'e2m1'): 'a819b70876ae0b2c54ad689922d45d22',
    ('col', '1x128', 'e3m2'): '0f2531bc2376d05d67704acbf1aa8b0d',
    ('col', '1x128', 'e2m3'): '5149aff934353fbc1d956c7aee5c93a5',
    ('col', 'per-row', 'e2m1'): 'c3cfd24a3d0287e59ac4b3651fcdd13a',
    ('col', 'per-row', 'e3m2'): '4ae2161634935e89c72463863410aca4',
    ('col', 'per-row', 'e2m3'): 'ffc4bb8723bbd2afedc4b7ee2f8c6545',
    ('col', 'per-tensor', 'e2m1'): 'ccd5f818a3d9d210aec19538f9fec560',
    ('col', 'per-tensor', 'e3m2'): 'c401b50ca94dff5dab8ad8551b53e7f3',
    ('col', 'per-tensor', 'e2m3'): '63d84d2022991f5447c802175ffac0fc',
    ('square', 'per-tensor', 'e2m1'): '1fe0c075948b4fdd0d7b8b938cd67bb8',
    ('square', 'per-tensor', 'e3m2'): '5e272fe55f41dff0f418150c27dc49a6',
    ('square', 'per-tensor', 'e2m3'): '9d0b6af48f35bef362c32f6cb7e38ef4',
}
STATS_PINS = {
    ('row', '1x128', 'e2m1'): (
        '0x1.f76ff212e2896p-4',
        '0x1.9386180000000p+2',
        '0x1.4ad61464138acp+4',
        '0x1.7ae029416a993p-4',
    ),
    ('row', '1x128', 'e3m2'): (
        '0x1.d2c4454603bc7p-3',
        '0x1.92af800000000p+3',
        '0x1.ad5511b4e9f1cp+4',
        '0x1.7503e2983012cp-5',
    ),
    ('row', '1x128', 'e2m3'): (
        '0x1.9ee2a1f0ff9b3p-6',
        '0x1.8ebdc00000000p+1',
        '0x1.01f3789e12ff3p+5',
        '0x1.90271b6ca17b4p-6',
    ),
    ('row', 'per-row', 'e2m1'): (
        '0x1.d065b3e483a74p-3',
        '0x1.46aca00000000p+3',
        '0x1.48d72c1fa3942p+4',
        '0x1.805b0f842ea74p-4',
    ),
    ('row', 'per-row', 'e3m2'): (
        '0x1.1494cd77593d5p-4',
        '0x1.187f300000000p+2',
        '0x1.ac6f0d6ff62a4p+4',
        '0x1.776f4384dcbf0p-5',
    ),
    ('row', 'per-row', 'e2m3'): (
        '0x1.36cf73e655a8ap+0',
        '0x1.8024800000000p+4',
        '0x1.f8cd45e0a0d90p+4',
        '0x1.b16cda67b8ccfp-6',
    ),
    ('row', 'per-tensor', 'e2m1'): (
        '0x1.67d87f81be11ap-1',
        '0x1.3c6ed80000000p+4',
        '0x1.402fb64a6b85ep+4',
        '0x1.990d1270b1998p-4',
    ),
    ('row', 'per-tensor', 'e3m2'): (
        '0x1.e241740e388bbp-4',
        '0x1.dfd7e00000000p+2',
        '0x1.a8e2b6f58c331p+4',
        '0x1.8124b4248abedp-5',
    ),
    ('row', 'per-tensor', 'e2m3'): (
        '0x1.78d4618317bf7p-7',
        '0x1.2a34c00000000p+0',
        '0x1.fae9adea9f9b2p+4',
        '0x1.aae432efe621bp-6',
    ),
    ('col', '1x128', 'e2m1'): (
        '0x1.be3db86adb08fp-3',
        '0x1.37b4700000000p+2',
        '0x1.5f80c262eb604p+4',
        '0x1.4685c5cec3ba5p-4',
    ),
    ('col', '1x128', 'e3m2'): (
        '0x1.3911614078028p-6',
        '0x1.654bb00000000p+1',
        '0x1.0ae403b7d2727p+5',
        '0x1.5fd8b135bfd40p-6',
    ),
    ('col', '1x128', 'e2m3'): (
        '0x1.3ee42449734f7p-8',
        '0x1.627f200000000p-1',
        '0x1.0d9d874b283b7p+5',
        '0x1.525131854d26fp-6',
    ),
    ('col', 'per-row', 'e2m1'): (
        '0x1.af00ca788bf53p-3',
        '0x1.e01a200000000p+1',
        '0x1.74df9a90164b8p+4',
        '0x1.17fb70f51c232p-4',
    ),
    ('col', 'per-row', 'e3m2'): (
        '0x1.4bccd7d59278cp-6',
        '0x1.f690c00000000p+0',
        '0x1.f44814a9f66d9p+4',
        '0x1.bfc12ce355321p-6',
    ),
    ('col', 'per-row', 'e2m3'): (
        '0x1.d5e5d78b82466p-7',
        '0x1.2beb000000000p+0',
        '0x1.1ab396d46bbffp+5',
        '0x1.183e51586333fp-6',
    ),
    ('col', 'per-tensor', 'e2m1'): (
        '0x1.10aaeda89ce37p-2',
        '0x1.5091000000000p+2',
        '0x1.5da2b557f7929p+4',
        '0x1.4af08ad496e2ap-4',
    ),
    ('col', 'per-tensor', 'e3m2'): (
        '0x1.19895cd0d697cp-5',
        '0x1.c613400000000p+1',
        '0x1.de38f6d8be8b4p+4',
        '0x1.06636c1fea49dp-5',
    ),
    ('col', 'per-tensor', 'e2m3'): (
        '0x1.72f2751f5302bp-8',
        '0x1.ec51800000000p-1',
        '0x1.f46ca67616285p+4',
        '0x1.bf4b6a0c06fa2p-6',
    ),
    ('square', 'per-tensor', 'e2m1'): (
        '0x1.ccd61398fd374p+0',
        '0x1.d939c00000000p+4',
        '0x1.17efdd61bd4d1p+4',
        '0x1.113aa4cf9b234p-3',
    ),
    ('square', 'per-tensor', 'e3m2'): (
        '0x1.66ca4a8e6c2a8p-3',
        '0x1.f14da00000000p+2',
        '0x1.b01a3afdc8abep+4',
        '0x1.6da74c7f873d6p-5',
    ),
    ('square', 'per-tensor', 'e2m3'): (
        '0x1.1fbaf0de2c3f0p-3',
        '0x1.d563000000000p+1',
        '0x1.b83dfafac6ffap+4',
        '0x1.58da3bcae39b9p-5',
    ),
}


@pytest.mark.parametrize("i", range(len(LAYOUTS)), ids=["-".join(c) for c in LAYOUTS])
def test_dequantize_bytes_are_pinned(i):
    m, q = _layout_case(i)
    deq = bq.dequantize(q)
    assert deq.shape == m.shape and deq.dtype == F32
    assert sha(deq.view(np.uint32)) == DEQUANT_PINS[LAYOUTS[i]]


@pytest.mark.parametrize("i", range(len(LAYOUTS)), ids=["-".join(c) for c in LAYOUTS])
def test_error_stats_are_pinned(i):
    m, q = _layout_case(i)
    assert hex_stats(mx.error_stats(m, bq.dequantize(q))) == STATS_PINS[LAYOUTS[i]]


COL_VIEW_STATS_PIN = (
    '0x1.ca95ea627af9cp-6',
    '0x1.94a7200000000p+1',
    '0x1.f929ad92688fep+4',
    '0x1.b04d0a0d0f547p-6',
)


def test_error_stats_of_the_f_ordered_col_view_are_pinned():
    m = heavy_tailed((75, 203), 7)
    approx, _ = bq.quantize_dequantize(m, "col", outer="1x128", element_fmt="e3m2")
    assert approx.flags.f_contiguous or not approx.flags.c_contiguous
    assert hex_stats(mx.error_stats(m, approx)) == COL_VIEW_STATS_PIN


# ── non-finite and underflowed input, both routes ────────────────────────────

ROUTE_LAYOUTS = [
    ("row", "1x128"), ("row", "per-row"), ("row", "per-tensor"),
    ("col", "1x128"), ("col", "per-row"), ("col", "per-tensor"),
    ("square", "per-tensor"),
]
INPUTS = ("+inf", "-inf", "nan", "tiny", "tiny-edge")


def corner_input(kind):
    m = heavy_tailed((20, 40), 3)
    if kind == "+inf":
        m[3, 7] = np.inf
    elif kind == "-inf":
        m[11, 22] = -np.inf
    elif kind == "nan":
        m[5, 9] = np.nan
    elif kind == "tiny":
        # every outer amax underflows S_g to 0
        m[:] = F32(1e-45)
        m[0, 5] = 0.0
        m[17, 30] = F32(-0.0)
        m[9, 20:] = F32(-3e-45)
    else:
        # only the outer groups of row 0 or column 0 underflow S_g to 0
        m[0, :] = F32(1e-45)
        m[:, 0] = F32(-1e-45)
        m[0, 3] = 0.0
    return m


def _routes(kind, orientation, outer, mode):
    m = corner_input(kind)
    rng = (lambda: fc.stream(9, "pin", kind, orientation, outer)) if mode == "stoch" else (
        lambda: None)
    with np.errstate(all="ignore"):
        vals, clamps = bq.quantize_dequantize(m, orientation, outer=outer, mode=mode, rng=rng())
        q = bq.quantize_double_block(m, orientation, outer=outer, mode=mode, rng=rng())
        deq = bq.dequantize(q)
    return (
        sha(vals.view(np.uint32), clamps),
        sha(q.codes, q.inner_scales.view(np.uint32), q.outer_scales.view(np.uint32),
            q.clamp_count, deq.view(np.uint32)),
    )


CORNER_PINS = {
    ('+inf', 'row', '1x128', 'det'): (
        '52e2ec8ec09cda974e9104d576b78d99',
        'ea110d5fa3178cafa0350d7d24f75c84',
    ),
    ('+inf', 'row', '1x128', 'stoch'): (
        'db05dafe3e67e1cef51fd0856cb25f2e',
        '1e9543b7040ea5ee3f5cca3f84d0e899',
    ),
    ('+inf', 'row', 'per-row', 'det'): (
        '52e2ec8ec09cda974e9104d576b78d99',
        'ea110d5fa3178cafa0350d7d24f75c84',
    ),
    ('+inf', 'row', 'per-row', 'stoch'): (
        '45c0d7b7f1d0ab5a0050b25b47a50c86',
        '66e0a1293151c2392b9a437666499cff',
    ),
    ('+inf', 'row', 'per-tensor', 'det'): (
        '7b226ab3926307f4a14a2174b26285aa',
        '86b369332c9a822e907311ec8adb3823',
    ),
    ('+inf', 'row', 'per-tensor', 'stoch'): (
        '7b226ab3926307f4a14a2174b26285aa',
        '0d84e7bc2231f191ed8071ede5f4b6c9',
    ),
    ('+inf', 'col', '1x128', 'det'): (
        '867329f285f0fa0d537fc5f1bbb5a4d1',
        'db06f36717c34541b5b957b82b0e27b8',
    ),
    ('+inf', 'col', '1x128', 'stoch'): (
        'c3174b9421084199a3880e9b3a1fb98e',
        '86484885dddfd2e89e5aa2af317a0945',
    ),
    ('+inf', 'col', 'per-row', 'det'): (
        '867329f285f0fa0d537fc5f1bbb5a4d1',
        'db06f36717c34541b5b957b82b0e27b8',
    ),
    ('+inf', 'col', 'per-row', 'stoch'): (
        'c4d2725256b9e6b5db08dfaea63665b9',
        'c0e54c8d7ca8dcd6f012ccccb44b001b',
    ),
    ('+inf', 'col', 'per-tensor', 'det'): (
        '7b226ab3926307f4a14a2174b26285aa',
        '4f078e0e8098555306046341e3eebef7',
    ),
    ('+inf', 'col', 'per-tensor', 'stoch'): (
        '7b226ab3926307f4a14a2174b26285aa',
        'b9f7618792377af69cd4bd152810fbaa',
    ),
    ('+inf', 'square', 'per-tensor', 'det'): (
        '7b226ab3926307f4a14a2174b26285aa',
        'a91f219d8ddbbc040683a3b5ca4dec38',
    ),
    ('+inf', 'square', 'per-tensor', 'stoch'): (
        '7b226ab3926307f4a14a2174b26285aa',
        'c65eede2751a00d8e281c36badeae79b',
    ),
    ('-inf', 'row', '1x128', 'det'): (
        '06c0c05b014931047bf182f4248b6d5a',
        '32c611ac017a279aa36653ea28246d9e',
    ),
    ('-inf', 'row', '1x128', 'stoch'): (
        'd1d905c74e59b0cf3877fdbd5efa7590',
        'be8fae683340c15db92dc58f915a8b45',
    ),
    ('-inf', 'row', 'per-row', 'det'): (
        '06c0c05b014931047bf182f4248b6d5a',
        '32c611ac017a279aa36653ea28246d9e',
    ),
    ('-inf', 'row', 'per-row', 'stoch'): (
        'd2241253129521f338d7825b893bbc1c',
        'e29672818505614fa89f4373d2092a95',
    ),
    ('-inf', 'row', 'per-tensor', 'det'): (
        'b2b6bda6985e9e97f7c81c79da30bbad',
        '53313bfaf59588c0d58c0a5ba4a9122c',
    ),
    ('-inf', 'row', 'per-tensor', 'stoch'): (
        'b2b6bda6985e9e97f7c81c79da30bbad',
        'a74ca729f855ff122a1e9cba356989d7',
    ),
    ('-inf', 'col', '1x128', 'det'): (
        '2e607294c9153860d73b6188c4c60d5f',
        '445d2e9c3e02fb730e14fe7d712da5fd',
    ),
    ('-inf', 'col', '1x128', 'stoch'): (
        'aba9b971cb9218348fcd1877559e3013',
        '080e2a4654b98312f64ee5c981302bdd',
    ),
    ('-inf', 'col', 'per-row', 'det'): (
        '2e607294c9153860d73b6188c4c60d5f',
        '445d2e9c3e02fb730e14fe7d712da5fd',
    ),
    ('-inf', 'col', 'per-row', 'stoch'): (
        'c1be8fbe1d720d9d22e6db4eb507db45',
        '86a085d1d3e53fc8e476958bbef6d468',
    ),
    ('-inf', 'col', 'per-tensor', 'det'): (
        'b2b6bda6985e9e97f7c81c79da30bbad',
        'b4a88c8c508527f9f0c557b76878c5c8',
    ),
    ('-inf', 'col', 'per-tensor', 'stoch'): (
        'b2b6bda6985e9e97f7c81c79da30bbad',
        '2e9d2b039b2189d4969936a17dd67db7',
    ),
    ('-inf', 'square', 'per-tensor', 'det'): (
        'b2b6bda6985e9e97f7c81c79da30bbad',
        'a8d8da647609b7c764af5cf806756962',
    ),
    ('-inf', 'square', 'per-tensor', 'stoch'): (
        'b2b6bda6985e9e97f7c81c79da30bbad',
        '08a4d866a805896058195defe180ecb7',
    ),
    ('nan', 'row', '1x128', 'det'): (
        '7db2ea95e3656adf820166a5ba868d7a',
        'fea3f9c369749872ab6ef7e4e00250ea',
    ),
    ('nan', 'row', '1x128', 'stoch'): (
        '9933cf79a7a7e9cfdc9aa2b5242609bb',
        'fb270ee76dbb15c9477d2c4e468c424d',
    ),
    ('nan', 'row', 'per-row', 'det'): (
        '7db2ea95e3656adf820166a5ba868d7a',
        'fea3f9c369749872ab6ef7e4e00250ea',
    ),
    ('nan', 'row', 'per-row', 'stoch'): (
        'ac5ede15f264a51b8cb00b73a9c3b4d0',
        '9fa82995b227e51436bd72d51ea16048',
    ),
    ('nan', 'row', 'per-tensor', 'det'): (
        '2896665a43bd688f569e93328deb34f9',
        '2eac7afeb38c63d493b26bb6630594e3',
    ),
    ('nan', 'row', 'per-tensor', 'stoch'): (
        'd99d03fec8062f4e2fb1dc1e2a9a817b',
        '97cb59ffec221e1c7b6b9bd334dfeae5',
    ),
    ('nan', 'col', '1x128', 'det'): (
        'b1e5074d70def4f3e65bfc2c243fc83a',
        '8f34a2ab793d429d98f89994bec03199',
    ),
    ('nan', 'col', '1x128', 'stoch'): (
        '64ca7ea8c33e99429e8a47534b04812c',
        'ff79bf33e51e2960248a688d07039aab',
    ),
    ('nan', 'col', 'per-row', 'det'): (
        'b1e5074d70def4f3e65bfc2c243fc83a',
        '8f34a2ab793d429d98f89994bec03199',
    ),
    ('nan', 'col', 'per-row', 'stoch'): (
        'fd013e73e54a6a30ce692e85bbf5da62',
        'ccd154632a42f39c9058ed0e91de031b',
    ),
    ('nan', 'col', 'per-tensor', 'det'): (
        '72d60b526f0ac03e85254136cea94a5a',
        'f21bf1ad82576dee98a6c224270770d3',
    ),
    ('nan', 'col', 'per-tensor', 'stoch'): (
        'e8e61675ba7cb6a40b95420909872869',
        'dec109d83e11052f518530f6b7d011db',
    ),
    ('nan', 'square', 'per-tensor', 'det'): (
        '6a74c034414aa4afecd8679b5ae2e7b9',
        'b34b0cf96652993334d92f811bdd167d',
    ),
    ('nan', 'square', 'per-tensor', 'stoch'): (
        'eac710b3faa15770c883b2960445476e',
        'd11f727c16b3970149a511176769766a',
    ),
    ('tiny', 'row', '1x128', 'det'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        '8a132db95c27ae2e51c91b18610c72cb',
    ),
    ('tiny', 'row', '1x128', 'stoch'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        '8451e4fde74b70d302e0afcdfdaf3836',
    ),
    ('tiny', 'row', 'per-row', 'det'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        '8a132db95c27ae2e51c91b18610c72cb',
    ),
    ('tiny', 'row', 'per-row', 'stoch'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        '8451e4fde74b70d302e0afcdfdaf3836',
    ),
    ('tiny', 'row', 'per-tensor', 'det'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'a36e9d4f3fb2966a669cb2ed14c3b4cc',
    ),
    ('tiny', 'row', 'per-tensor', 'stoch'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'cdb4101f9654a4c7fe294be4eae47055',
    ),
    ('tiny', 'col', '1x128', 'det'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'dcb4f264f80934104d38f5e469f48dbb',
    ),
    ('tiny', 'col', '1x128', 'stoch'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        '69f1f47eaa5f68773642b7dd0658ddd5',
    ),
    ('tiny', 'col', 'per-row', 'det'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'dcb4f264f80934104d38f5e469f48dbb',
    ),
    ('tiny', 'col', 'per-row', 'stoch'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        '69f1f47eaa5f68773642b7dd0658ddd5',
    ),
    ('tiny', 'col', 'per-tensor', 'det'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'b793f61c2a431d8ffc76961ff88608a0',
    ),
    ('tiny', 'col', 'per-tensor', 'stoch'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'a3a28122ef05af278d690994a9fafb52',
    ),
    ('tiny', 'square', 'per-tensor', 'det'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'd114169cdbe69c1abe06bc8b2bd8e15d',
    ),
    ('tiny', 'square', 'per-tensor', 'stoch'): (
        '2d9e751bdaeec6612ee8da4b6fc81884',
        'b12e1cea5b409ed217435cfe07240f3d',
    ),
    ('tiny-edge', 'row', '1x128', 'det'): (
        '5fa5539db909891741923b8417d116f5',
        'f79d06e06ef2505fb76e0be5c4178c6a',
    ),
    ('tiny-edge', 'row', '1x128', 'stoch'): (
        'f259f18f9391cbf3ff913cfdfc01a027',
        'eb7591eff4555126c678cbfcf608b993',
    ),
    ('tiny-edge', 'row', 'per-row', 'det'): (
        '5fa5539db909891741923b8417d116f5',
        'f79d06e06ef2505fb76e0be5c4178c6a',
    ),
    ('tiny-edge', 'row', 'per-row', 'stoch'): (
        '8e345d26c81a6c4654ed80a2e6277a33',
        '50715fd17f693b75508ac0b391b08c46',
    ),
    ('tiny-edge', 'row', 'per-tensor', 'det'): (
        '6b0920d5c791f146d6b3b9e4853b2505',
        'fa6b849ce5f14edb8fc4ad402dd15e94',
    ),
    ('tiny-edge', 'row', 'per-tensor', 'stoch'): (
        'c45fb78169f4da2d1c9ea960f89f1cf8',
        '48792fced13657d5b3cce7f310331db2',
    ),
    ('tiny-edge', 'col', '1x128', 'det'): (
        'f3bd0e6afc4254af15908841e003ce8a',
        '089cbadf98cb88237a5bc846dc0085b8',
    ),
    ('tiny-edge', 'col', '1x128', 'stoch'): (
        '6145c8563f8c1fc528ee61c02cb28ede',
        '682182d1acb0fe4f596f587d46e89625',
    ),
    ('tiny-edge', 'col', 'per-row', 'det'): (
        'f3bd0e6afc4254af15908841e003ce8a',
        '089cbadf98cb88237a5bc846dc0085b8',
    ),
    ('tiny-edge', 'col', 'per-row', 'stoch'): (
        'f2e1bbfa13824da99b5eee76f00a2688',
        '2bdc2ca4c6810793cbed1a36a40d0db3',
    ),
    ('tiny-edge', 'col', 'per-tensor', 'det'): (
        '6340e9c7db4a2bb4e6cb5ffa14e01e90',
        'bf71499458741fc6a3df4ab6ca4373ab',
    ),
    ('tiny-edge', 'col', 'per-tensor', 'stoch'): (
        '915583533b539427f6f0b5f72c498ed7',
        '7eea8ba087501d89196131d726a11e92',
    ),
    ('tiny-edge', 'square', 'per-tensor', 'det'): (
        'f6a4d077b375a9fddc2f4221d974db35',
        '41c1c8783f9234de28b4515f1a183730',
    ),
    ('tiny-edge', 'square', 'per-tensor', 'stoch'): (
        'f11e023ef8070b2e20c919bac1e59564',
        '2b4e570c7972354de5a1c7156e8ad462',
    ),
}


@pytest.mark.parametrize("mode", ["det", "stoch"])
@pytest.mark.parametrize("layout", ROUTE_LAYOUTS, ids=["-".join(c) for c in ROUTE_LAYOUTS])
@pytest.mark.parametrize("kind", INPUTS)
def test_corner_input_bit_patterns_are_pinned(kind, layout, mode):
    assert _routes(kind, *layout, mode) == CORNER_PINS[(kind, *layout, mode)]


# ── files: stats.json of the quantize command, load_matrix of a dump ─────────

CLI_STATS_PINS = {
    ('col', 'e3m2', 'dense'): (
        '{\n'
        '  "clamp_count": 438,\n'
        '  "max_abs_err": 1.2973461151123047,\n'
        '  "mse": 0.016675546393182403,\n'
        '  "rel_err_fro": 0.029821516358214603,\n'
        '  "sqnr_db": 30.509405548135263\n'
        '}\n'
    ),
    ('row', 'e2m1', 'dense'): (
        '{\n'
        '  "clamp_count": 459,\n'
        '  "max_abs_err": 6.804405212402344,\n'
        '  "mse": 0.17030360843776848,\n'
        '  "rel_err_fro": 0.09530191141333862,\n'
        '  "sqnr_db": 20.417967777801998\n'
        '}\n'
    ),
    ('row', 'e2m1', 'col-dump'): (
        '{\n'
        '  "clamp_count": 414,\n'
        '  "max_abs_err": 6.804409027099609,\n'
        '  "mse": 0.1689847097797421,\n'
        '  "rel_err_fro": 0.09511237856682742,\n'
        '  "sqnr_db": 20.435259147388194\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("orientation,fmt,source", [
    ("col", "e3m2", "dense"), ("row", "e2m1", "dense"), ("row", "e2m1", "col-dump"),
])
def test_quantize_command_stats_json_is_pinned(tmp_path, orientation, fmt, source):
    m = heavy_tailed((75, 203), 11)
    src = tmp_path / "m.bin"
    if source == "dense":
        mio.save_dense(src, m)
    else:  # a quantized dump loads as its reconstruction
        mio.save_quantized(src, bq.quantize_double_block(m, "col", element_fmt="e2m3"))
    out = tmp_path / "out"
    assert cli.main(["quantize", str(src), "--out", str(out), "--orientation", orientation,
                     "--format", fmt]) == 0
    assert (out / "stats.json").read_text(encoding="ascii") == \
        CLI_STATS_PINS[(orientation, fmt, source)]


LOADED_DUMP_PIN = '602b3464e3fac6ed59c75c8f299f6a80'


def test_load_matrix_of_a_col_dump_saves_dense_bytes_as_pinned(tmp_path):
    m = heavy_tailed((75, 203), 12)
    dump, dense = tmp_path / "q.qmxf", tmp_path / "d.bin"
    mio.save_quantized(dump, bq.quantize_double_block(m, "col", element_fmt="e3m2"))
    mio.save_dense(dense, mio.load_matrix(dump))
    assert sha(np.frombuffer(dense.read_bytes(), np.uint8)) == LOADED_DUMP_PIN
