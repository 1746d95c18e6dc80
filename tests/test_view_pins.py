"""Byte pins of the oscillation view: ``values``, ``at_max_code`` and
``block_amax`` of ``double_block_weight_view`` over every tracked layout and
element format, on finite, non-finite and underflowed weights.

Every constant here was recorded from the view that packed codes, unpacked
them to find the top code, decoded them, and took a second block view of
``|w|`` for the block amax. The pins hold any rewrite of that view to the
same bytes.
"""

import hashlib

import numpy as np
import pytest

from nvfp4sim import oscillation as osc

F32 = np.float32

LAYOUTS = [
    ("row", "1x128"), ("row", "per-row"), ("row", "per-tensor"),
    ("col", "1x128"), ("col", "per-row"), ("col", "per-tensor"),
    ("square", "per-tensor"),
]
FORMATS = ("e2m1", "e3m2", "e2m3")
INPUTS = ("finite", "+inf", "-inf", "nan", "tiny", "tiny-edge")
CASES = [(kind, o, outer, fmt) for kind in INPUTS for o, outer in LAYOUTS for fmt in FORMATS]


def weights(kind):
    """A ragged heavy-tailed matrix, with one corner written over it."""
    rng = np.random.default_rng([7, 0x05C1])
    m = (rng.standard_normal((37, 150)) * np.exp(1.5 * rng.standard_normal(37))[:, None])
    m = m.astype(F32)
    if kind == "+inf":
        m[3, 7] = np.inf
    elif kind == "-inf":
        m[11, 130] = -np.inf
    elif kind == "nan":
        m[20, 9] = np.nan
    elif kind == "tiny":
        # every outer amax underflows S_g to 0
        m[:] = F32(1e-45)
    elif kind == "tiny-edge":
        # only the outer groups of row 0 or column 0 underflow S_g to 0
        m[0, :] = F32(1e-45)
        m[:, 0] = F32(1e-45)
    return m


def digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.shape}{a.dtype}".encode())
    h.update(a.tobytes())  # logical C order, whatever the memory layout
    return h.hexdigest()[:32]


def view_digests(kind, orientation, outer, fmt):
    with np.errstate(all="ignore"):
        v = osc.double_block_weight_view(orientation, outer, fmt)(weights(kind))
    return digest(v.values.view(np.uint32)), digest(v.at_max_code), digest(
        v.block_amax.view(np.uint32))


VIEW_PINS = {
    ('finite', 'row', '1x128', 'e2m1'): (
        'c2cb4ccb3589d36509e7ce375237a626',
        'd20bec55874b8974ccf8d6c49ffb3150',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', '1x128', 'e3m2'): (
        '9f69aba91dc26cc4a190072474cf410a',
        '5d55506d2d67265ab9e1a276d7bb303f',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', '1x128', 'e2m3'): (
        'e02a46adeda6634e0922f2a303deaa48',
        '7f11d423483d9a563180a41e41725ae7',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', 'per-row', 'e2m1'): (
        '8a358427e746ec635b482f5bf175a847',
        '1c4b9b0ecf97ca71953d49f8092e3f98',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', 'per-row', 'e3m2'): (
        '5dd0a579c6cdd96bde5fcc7200bab271',
        '6d3a82d059a91123d56022c09777786f',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', 'per-row', 'e2m3'): (
        'c33f2636b73a81a354e87f540107b0b6',
        'f77075daf85eb58aa1383fd6c9118416',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', 'per-tensor', 'e2m1'): (
        'd1fe088fec457fbe86df2e8293a35b66',
        'bdbd730aa9477ba96049d7138db5df4b',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', 'per-tensor', 'e3m2'): (
        'f1c7d4bd230fc1745177b0d483df94a4',
        'bc93543bfd88cd10f193251cb149e7d5',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'row', 'per-tensor', 'e2m3'): (
        'dcf450281bcba3320e1915a6e6979197',
        '62e3f69e5e1c309b2456efad64b40549',
        '2c8e62ec7d3208af0929993b2d797048',
    ),
    ('finite', 'col', '1x128', 'e2m1'): (
        '0a9e5beac0719c119e98197a6cec8900',
        '61c4c143e27401e926706ecaffad1925',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', '1x128', 'e3m2'): (
        '96863db680ed15255e4b5c3ae35d2810',
        'eb5d67aee432ca29c2efe59f857e75d2',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', '1x128', 'e2m3'): (
        'f9eafe2965359fb2ad68f85344be138f',
        'aea7b633c404ddd4e92a3216a4b712aa',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', 'per-row', 'e2m1'): (
        '0a9e5beac0719c119e98197a6cec8900',
        '61c4c143e27401e926706ecaffad1925',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', 'per-row', 'e3m2'): (
        '96863db680ed15255e4b5c3ae35d2810',
        'eb5d67aee432ca29c2efe59f857e75d2',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', 'per-row', 'e2m3'): (
        'f9eafe2965359fb2ad68f85344be138f',
        'aea7b633c404ddd4e92a3216a4b712aa',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', 'per-tensor', 'e2m1'): (
        '635a4dee5bb445874e418d2b11035fe0',
        'd489667bcbf5a8e4c237dc5105690cdb',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', 'per-tensor', 'e3m2'): (
        '297bf579e00ad0bae1498891fcbb51ab',
        '09034d35da4ab30a3bbd6639a2a4a272',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'col', 'per-tensor', 'e2m3'): (
        '2a8be701b939df6973655711ec415417',
        '4ea0f72d659ceafc1acc7c90d4adb562',
        '11b5978a30a1e75dc3db41d13f1242e5',
    ),
    ('finite', 'square', 'per-tensor', 'e2m1'): (
        'a235d6cbb67a56aaf5611be9764df04c',
        '823be0f9fcc38e78ee7a08058bdacbb9',
        '56b331df9ba761bee7fc26be2012e675',
    ),
    ('finite', 'square', 'per-tensor', 'e3m2'): (
        'a5a4ce06b465c6e9b30e474220ff2115',
        'b3ae887594e4c804e2c86ff2d4825902',
        '56b331df9ba761bee7fc26be2012e675',
    ),
    ('finite', 'square', 'per-tensor', 'e2m3'): (
        '8d479384512ec95e8a0b8ed536a1b042',
        '86cb9e2ea9e73a7dab71d31e71f2d7fa',
        '56b331df9ba761bee7fc26be2012e675',
    ),
    ('+inf', 'row', '1x128', 'e2m1'): (
        '8c6df8c81787523450afea51fc078b14',
        '20c4b937beffe4fc97a82014f54bba8f',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', '1x128', 'e3m2'): (
        '2eff185126c6b513046ad98dc4a4a7e6',
        'e86560f3077c47aeca53a12711c820e1',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', '1x128', 'e2m3'): (
        '048f0e5c10c619b6e7a3581045275a21',
        '1a39dba849d3f63fd0fe2973086510d5',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', 'per-row', 'e2m1'): (
        '51541f51be762acb2f23dc29aed49742',
        '9d161f4ce6696875bc9cbdd06729c882',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', 'per-row', 'e3m2'): (
        '2de68fab961155b869aff85aec8d27b9',
        '61103c2a6465170b3d8924c128d22f2e',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', 'per-row', 'e2m3'): (
        'e4bf78103461dff2ad8c0049f115ffbb',
        'bf54bbeea9c277ddc59cacbc026416f9',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', 'per-tensor', 'e2m1'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', 'per-tensor', 'e3m2'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'row', 'per-tensor', 'e2m3'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        '343bc8454511df291d2af0ae0d3f023c',
    ),
    ('+inf', 'col', '1x128', 'e2m1'): (
        '2477cc3980836d48551ef845843f6b96',
        '8f574c35ae4d19d8d4f67beb0d3401af',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', '1x128', 'e3m2'): (
        '53389b6491ecbbf628a5cb8236a6c82b',
        '3106ccd9339cbb561b7332f69577318e',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', '1x128', 'e2m3'): (
        'f14c4767f7bdfe3fa6f8fa4732ce7afb',
        'f25d17e1f7e0d7c1243a532cf8f073f3',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', 'per-row', 'e2m1'): (
        '2477cc3980836d48551ef845843f6b96',
        '8f574c35ae4d19d8d4f67beb0d3401af',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', 'per-row', 'e3m2'): (
        '53389b6491ecbbf628a5cb8236a6c82b',
        '3106ccd9339cbb561b7332f69577318e',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', 'per-row', 'e2m3'): (
        'f14c4767f7bdfe3fa6f8fa4732ce7afb',
        'f25d17e1f7e0d7c1243a532cf8f073f3',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', 'per-tensor', 'e2m1'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', 'per-tensor', 'e3m2'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'col', 'per-tensor', 'e2m3'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        '6a92a1eb73702200b09ae2cb6faf16c5',
    ),
    ('+inf', 'square', 'per-tensor', 'e2m1'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        'f9d581454a8b20d6eb1f7b6bba50a364',
    ),
    ('+inf', 'square', 'per-tensor', 'e3m2'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        'f9d581454a8b20d6eb1f7b6bba50a364',
    ),
    ('+inf', 'square', 'per-tensor', 'e2m3'): (
        'c64cf07066a2f5f3980fa6864dc4c28c',
        '67bc6e9cda0d684dd2d99f76d66b8eca',
        'f9d581454a8b20d6eb1f7b6bba50a364',
    ),
    ('-inf', 'row', '1x128', 'e2m1'): (
        '2280943d22e9810264a3f88db2f4a7c8',
        '57c1a189320f469135a9b1be48140248',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', '1x128', 'e3m2'): (
        'd4e7661091a09a98f2e9ab5e641f08b3',
        '1d8ac7c4af21d9e15d592653b046d3d2',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', '1x128', 'e2m3'): (
        '06604933042c82e3697fbf1470d9d80a',
        '73351c14f4a7ce47b04083d7a0029038',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', 'per-row', 'e2m1'): (
        '04f8d4a550c535c416d1a979dc428a46',
        '7bda543751bc1d9cc817cde0ade446b4',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', 'per-row', 'e3m2'): (
        '0406e3a2ef4c03c30ee1a385a3574161',
        '50747cc29e55f0ba938243f5c4f20fb7',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', 'per-row', 'e2m3'): (
        'a06cd89dd465833f3681c64d0ebbcdd8',
        'b0540cfa611806d76db018d2aa80df53',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', 'per-tensor', 'e2m1'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', 'per-tensor', 'e3m2'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'row', 'per-tensor', 'e2m3'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        'b0c3b276207dfc5aa1a4b2527cda9471',
    ),
    ('-inf', 'col', '1x128', 'e2m1'): (
        'e0dcf71b9cf74ed674d552748bdca58d',
        '8cd7eef257676fb08e9772f1b2cdfac7',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', '1x128', 'e3m2'): (
        'c019df695d33675573935cd81ddd065b',
        '9a9302cf0de49fca544f43a85c3c8230',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', '1x128', 'e2m3'): (
        '2f3e635a9cd8cb735a601fac3e8b2e3b',
        '8ab85bf60f789c04b76a6e236421c56d',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', 'per-row', 'e2m1'): (
        'e0dcf71b9cf74ed674d552748bdca58d',
        '8cd7eef257676fb08e9772f1b2cdfac7',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', 'per-row', 'e3m2'): (
        'c019df695d33675573935cd81ddd065b',
        '9a9302cf0de49fca544f43a85c3c8230',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', 'per-row', 'e2m3'): (
        '2f3e635a9cd8cb735a601fac3e8b2e3b',
        '8ab85bf60f789c04b76a6e236421c56d',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', 'per-tensor', 'e2m1'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', 'per-tensor', 'e3m2'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'col', 'per-tensor', 'e2m3'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        'f480a5efdecc34d821176a6dcea0e14f',
    ),
    ('-inf', 'square', 'per-tensor', 'e2m1'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        '50dff9a87d4664376dc829d04a172f13',
    ),
    ('-inf', 'square', 'per-tensor', 'e3m2'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        '50dff9a87d4664376dc829d04a172f13',
    ),
    ('-inf', 'square', 'per-tensor', 'e2m3'): (
        '0a1b479dd7d067adadfe1ff0d2baf358',
        'f6dcdd2a5afc27ec08d48ae77fcd2624',
        '50dff9a87d4664376dc829d04a172f13',
    ),
    ('nan', 'row', '1x128', 'e2m1'): (
        'b1bd7f187caba9754bf22e37dc7615fc',
        '4daf73f160aa349b6021c7758edf18c6',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', '1x128', 'e3m2'): (
        'f425a0f793972f4bada9695463e5d537',
        '76023a73c651b125b2b497a57912d3b1',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', '1x128', 'e2m3'): (
        '76827ed08387616c2637aa238e62dc63',
        'ab76ea0273520e7347986107d7f438d4',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', 'per-row', 'e2m1'): (
        '6884d207a6672e56c13c03606312b77e',
        'ac9be227173155388dbc37b4d959c0af',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', 'per-row', 'e3m2'): (
        'f7902fa2fdf17d2353b4a81ee08e3902',
        '784c4bb651763aca38687c9950eb8b64',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', 'per-row', 'e2m3'): (
        '701d92422e4375ba056898f787c46f34',
        '35ba46c988270bce29a015b791dd621c',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', 'per-tensor', 'e2m1'): (
        '4248eb7f569141fd3f98176c47ca6652',
        'a4230e8033e706d3bef6a454bd2efef0',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', 'per-tensor', 'e3m2'): (
        '501408d7238bf938e91f2ed0eaf7d525',
        'bf69331afa1d5c85946730bf1adc777a',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'row', 'per-tensor', 'e2m3'): (
        '96a2c37f35c9711f176d7a77ca39ab24',
        '79d65a88ed437c6e3588b2d61aa1359f',
        '98c42772cd3af763e8e0652dbfb8869f',
    ),
    ('nan', 'col', '1x128', 'e2m1'): (
        'e0bbee8de507dae7e0304c5cd9a4fa8b',
        'd0526e9ab3651dba71f36e3f0ab9f892',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', '1x128', 'e3m2'): (
        'de0444b2340ce905494d97e82b0298f8',
        '4e8d287797ec37e3e218d300f74e5548',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', '1x128', 'e2m3'): (
        'f6d7af927c24cc08ee0ddb268c9a9be4',
        'ab05ce4cdcf0db1fe7e18ad5f57bd54e',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', 'per-row', 'e2m1'): (
        'e0bbee8de507dae7e0304c5cd9a4fa8b',
        'd0526e9ab3651dba71f36e3f0ab9f892',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', 'per-row', 'e3m2'): (
        'de0444b2340ce905494d97e82b0298f8',
        '4e8d287797ec37e3e218d300f74e5548',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', 'per-row', 'e2m3'): (
        'f6d7af927c24cc08ee0ddb268c9a9be4',
        'ab05ce4cdcf0db1fe7e18ad5f57bd54e',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', 'per-tensor', 'e2m1'): (
        'c332a64c1237e7a6235b61a5964155d9',
        'cf1dfc258646b94c425a4ceaca45740a',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', 'per-tensor', 'e3m2'): (
        '2dc1aac5daa6f401ccf28c7a373dbcf8',
        '0bbe386becb8a3a7c2a7ced128be7c6e',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'col', 'per-tensor', 'e2m3'): (
        'aa95eda23f8b4d9e769ebf5d08b84c4d',
        '9b7ff083f362eb0434ca7837c7720600',
        '4711b68b81205e7f19a275f1eaf642c1',
    ),
    ('nan', 'square', 'per-tensor', 'e2m1'): (
        'b1f71cdbaef4e3ea65fcd06ea12753bf',
        '89f41e107eb7a5648545fe5e77742798',
        'a8b358a7e7d978805f46e5372567394e',
    ),
    ('nan', 'square', 'per-tensor', 'e3m2'): (
        '73922fc3edc2a424c589aee5645eaecf',
        '7da920b49983b7424ce42a8fa4a6cd02',
        'a8b358a7e7d978805f46e5372567394e',
    ),
    ('nan', 'square', 'per-tensor', 'e2m3'): (
        'a916cfa9fa561d0bb289ea5e768b3c2d',
        '34d5e3ae151f14578260302a72827b1e',
        'a8b358a7e7d978805f46e5372567394e',
    ),
    ('tiny', 'row', '1x128', 'e2m1'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', '1x128', 'e3m2'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', '1x128', 'e2m3'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', 'per-row', 'e2m1'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', 'per-row', 'e3m2'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', 'per-row', 'e2m3'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', 'per-tensor', 'e2m1'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', 'per-tensor', 'e3m2'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'row', 'per-tensor', 'e2m3'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', '1x128', 'e2m1'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', '1x128', 'e3m2'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', '1x128', 'e2m3'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', 'per-row', 'e2m1'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', 'per-row', 'e3m2'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', 'per-row', 'e2m3'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', 'per-tensor', 'e2m1'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', 'per-tensor', 'e3m2'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'col', 'per-tensor', 'e2m3'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'square', 'per-tensor', 'e2m1'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'square', 'per-tensor', 'e3m2'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny', 'square', 'per-tensor', 'e2m3'): (
        '3e12f86ed5d59e1ac049f14672cc3048',
        '4cbcba7ff1fd9002e1f0765bcaeeed33',
        '289cab1049ab3370d672c6d51cf0aa74',
    ),
    ('tiny-edge', 'row', '1x128', 'e2m1'): (
        'ae543e1a8f12558e6ff3554c6642460d',
        '9fe0294f0b417c9b02c77e4a8577f664',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', '1x128', 'e3m2'): (
        '274f707205033dfe8e4b708f0e06b475',
        'b9540f1ee5ac02ab26385336eebb2d40',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', '1x128', 'e2m3'): (
        '48a3d515c782fe8decfac330aee3ec4b',
        '8ca95179508604b32c60180eb103d51e',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', 'per-row', 'e2m1'): (
        '3115c834476192da73a4a244085129c5',
        'f9552b729ab4eb9e2515041c4c9fe190',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', 'per-row', 'e3m2'): (
        '91ff130c1c9cb2b39207a1e2533088e0',
        '306083ec0c51e6c6846c524f0d4e054b',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', 'per-row', 'e2m3'): (
        '4d2bd53eb17d10ac39e3f88e4eaff1a7',
        '6cabb565e7e1ebd9fdba013b5dcf2f02',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', 'per-tensor', 'e2m1'): (
        'e53504311cefaaaa6d066300d203a8a2',
        'cf95b81ce6f641312aea26d4b73e23af',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', 'per-tensor', 'e3m2'): (
        'bcaf3f4efb63aac9f6a80ef9b57cbc70',
        'b1f1ed146d3141d9bbcb3bfbf1fddd39',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'row', 'per-tensor', 'e2m3'): (
        '7d258248c0d5469e3877c480d2ab8091',
        '036169bd8575d7424f6fc91a767e9ed1',
        'd57b46f98df2ad6eb4ac4ec818d10016',
    ),
    ('tiny-edge', 'col', '1x128', 'e2m1'): (
        '308ba118dc026761a40791a62520b37d',
        '59b0d758d0c89830b54df326dce44cab',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', '1x128', 'e3m2'): (
        'ef52587f3bb4a4c2a9c29597a5fd6ab4',
        '7f956586e0aebd7db929dff14a74d5df',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', '1x128', 'e2m3'): (
        'c18116ff4813dc17dd57bae61ac63413',
        '1730c75ceff85e0b8bf7ce802c8b6855',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', 'per-row', 'e2m1'): (
        '308ba118dc026761a40791a62520b37d',
        '59b0d758d0c89830b54df326dce44cab',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', 'per-row', 'e3m2'): (
        'ef52587f3bb4a4c2a9c29597a5fd6ab4',
        '7f956586e0aebd7db929dff14a74d5df',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', 'per-row', 'e2m3'): (
        'c18116ff4813dc17dd57bae61ac63413',
        '1730c75ceff85e0b8bf7ce802c8b6855',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', 'per-tensor', 'e2m1'): (
        'd42c8e4e254f4c038d61390199a29c43',
        '987c53a0504f00e1c9219d680db43cfc',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', 'per-tensor', 'e3m2'): (
        'ec9b728a8fbf0fe954f6a214f7570fae',
        '2bf8bb1b701d67e57c76b58b2a322f30',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'col', 'per-tensor', 'e2m3'): (
        '5f701ebfd2db2e49e3a4696834c618cf',
        'de3fcd4068c4e2265c67a350debddb87',
        'e8a1fbe17eb1aea2960339d812190ed9',
    ),
    ('tiny-edge', 'square', 'per-tensor', 'e2m1'): (
        'b731f7e242a227aa63804b3602132dd8',
        '823be0f9fcc38e78ee7a08058bdacbb9',
        '56b331df9ba761bee7fc26be2012e675',
    ),
    ('tiny-edge', 'square', 'per-tensor', 'e3m2'): (
        '22c95d2366880ab88d1e8325c1fa1791',
        'b3ae887594e4c804e2c86ff2d4825902',
        '56b331df9ba761bee7fc26be2012e675',
    ),
    ('tiny-edge', 'square', 'per-tensor', 'e2m3'): (
        '875df7ea62889ddaf90709a6d41e5e6e',
        '86cb9e2ea9e73a7dab71d31e71f2d7fa',
        '56b331df9ba761bee7fc26be2012e675',
    ),
}


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_view_bytes_are_pinned(case):
    assert view_digests(*case) == VIEW_PINS[case]
