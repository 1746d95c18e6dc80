"""Low-precision float codecs and rounding primitives.

Everything downstream (block quantizers, quantized linear layers, the trainer)
reduces to the operations in this file: sign-magnitude code tables for the
4/6/8-bit microscaling element formats, deterministic round-to-nearest with
ties broken toward the even code, unbiased stochastic rounding, E4M3 scale
rounding, and counter-based RNG streams.

Code layout is sign-magnitude: the top bit is the sign, the low bits index an
ascending magnitude table, so code order equals magnitude order within each
half. E4M3 reserves its top magnitude code (exp=15, mant=7) for NaN; inputs
are finite by contract, so that code never comes out of a rounding call.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FormatSpec",
    "RoundingMode",
    "FP4_E2M1",
    "FP8_E4M3",
    "FP6_E3M2",
    "FP6_E2M3",
    "get_format",
    "encode",
    "decode",
    "round_det",
    "round_stoch",
    "values_from_codes",
    "round_scale_e4m3",
    "stream",
]


class RoundingMode(enum.Enum):
    DETERMINISTIC = "det"
    STOCHASTIC = "stoch"

    @classmethod
    def coerce(cls, v: "RoundingMode | str") -> "RoundingMode":
        return v if isinstance(v, cls) else cls(v)


@dataclass(frozen=True)
class FormatSpec:
    """A sign-magnitude minifloat format.

    ``exp_bits`` exponent bits with ``bias``, ``man_bits`` mantissa bits and
    subnormals below exponent ``1 - bias``. mag[i] is the magnitude encoded by
    unsigned code i (ascending, finite values only); codes >= 2**(bits-1) are
    the negative half. num_codes counts all bit patterns, including reserved
    NaN codes if any.
    """

    name: str
    exp_bits: int
    man_bits: int
    bias: int
    mag: np.ndarray  # float64, ascending, index == magnitude code
    grid: np.ndarray = field(repr=False)  # all distinct finite values, ascending

    @property
    def bits(self) -> int:
        return 1 + self.exp_bits + self.man_bits

    @property
    def max(self) -> float:
        return float(self.mag[-1])

    @property
    def num_codes(self) -> int:
        return 1 << self.bits

    @property
    def top_mag_code(self) -> int:
        return self.mag.size - 1


def _minifloat_magnitudes(exp_bits: int, man_bits: int, bias: int, reserve_top: bool):
    out = []
    for e in range(1 << exp_bits):
        for m in range(1 << man_bits):
            if reserve_top and e == (1 << exp_bits) - 1 and m == (1 << man_bits) - 1:
                continue  # NaN pattern
            frac = m / (1 << man_bits)
            if e == 0:
                out.append(frac * 2.0 ** (1 - bias))
            else:
                out.append((1 + frac) * 2.0 ** (e - bias))
    return out


def _make_format(name, exp_bits, man_bits, bias, reserve_top=False) -> FormatSpec:
    mag = np.array(
        _minifloat_magnitudes(exp_bits, man_bits, bias, reserve_top), dtype=np.float64
    )
    grid = np.unique(np.concatenate([-mag, mag]))
    for a in (mag, grid):
        a.setflags(write=False)
    return FormatSpec(name, exp_bits, man_bits, bias, mag, grid)


FP4_E2M1 = _make_format("e2m1", 2, 1, bias=1)
FP8_E4M3 = _make_format("e4m3", 4, 3, bias=7, reserve_top=True)
FP6_E3M2 = _make_format("e3m2", 3, 2, bias=3)
FP6_E2M3 = _make_format("e2m3", 2, 3, bias=1)

_FORMATS = {
    "e2m1": FP4_E2M1,
    "e4m3": FP8_E4M3,
    "e3m2": FP6_E3M2,
    "e2m3": FP6_E2M3,
    "fp4": FP4_E2M1,
    "fp8": FP8_E4M3,
}


def get_format(name: str) -> FormatSpec:
    try:
        return _FORMATS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown format {name!r}") from None


# ── rounding cores (magnitude space) ─────────────────────────────────────────
# Rounding |x| on the magnitude table and re-applying the sign is equivalent to
# rounding on the signed grid (the grid is symmetric and tie parity mirrors),
# and it keeps the sign of zero, so -0.2 rounds to the -0 code.
#
# Both cores are closed forms on the IEEE exponent e of |x|. In the binade
# [2**e, 2**(e+1)) the format's values are the multiples of the spacing
# s = 2**(max(e, 1 - bias) - man_bits); the subnormal range shares the spacing
# of the lowest normal binade. As s is a power of two, t = |x| * (1/s) is
# exact, and the value k * s has the magnitude code k + base with
# base = (max(e, 1 - bias) + bias - 1) * 2**man_bits. A carry out of the
# binade (k = 2**(man_bits + 1)) is the next binade's first code.
#
# Deterministic: k = rint(t). base is a multiple of 2**man_bits, so k and its
# code have the same parity, and rint's ties-to-even on k is ties to the even
# code. Stochastic: the bracket is floor(t) and floor(t) + 1, and the exact
# p = t - floor(t) equals (|x| - q1) / (q2 - q1); it is compared with one
# float64 draw per element in row-major order.
#
# Magnitudes above the format's max take the top code, and so does +inf.
# NaN takes the top code in det mode and the code below it in stoch mode
# (its draw is consumed and never rounds up).


def _binade(x: np.ndarray, fmt: FormatSpec):
    """Overwrite magnitudes ``0 <= x <= fmt.max`` (1-D) with ``t = x / s``.

    Returns ``base`` (uint8), with ``k + base`` the magnitude code of
    ``k * s``, and the integer scratch array it was computed in.
    """
    fi = np.finfo(x.dtype)
    ieee_bias = fi.maxexp - 1
    lowest = ieee_bias + 1 - fmt.bias  # biased IEEE exponent of 2**(1 - bias)
    inv = 2 * ieee_bias + fmt.man_bits  # biased exponent of 1/s is inv - e
    e = x.view(f"u{x.itemsize}") >> fi.nmant
    np.maximum(e, lowest, out=e)
    np.subtract(inv, e, out=e)
    e <<= fi.nmant
    x *= e.view(x.dtype)
    e >>= fi.nmant
    np.subtract(inv - lowest, e, out=e)
    e <<= fmt.man_bits
    return e.astype(np.uint8), e


# Stochastic draws run this many elements at a time through one reused
# buffer. A float64 draw array the size of the whole input costs more in page
# faults than the work.
_CHUNK = 1 << 14


def _mag_round_det(ax: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Magnitude codes (uint8) of ``ax >= 0``; ``ax`` is used as scratch."""
    x = np.asarray(ax).reshape(-1)
    np.fmin(x, fmt.max, out=x)  # NaN and +inf go to the max
    code, _ = _binade(x, fmt)
    np.add(code, np.rint(x, out=x), out=code, casting="unsafe")
    return code.reshape(np.shape(ax))


def _mag_round_stoch(ax: np.ndarray, fmt: FormatSpec, rng) -> np.ndarray:
    """Magnitude codes (uint8) of ``ax >= 0``; ``ax`` is used as scratch."""
    x = np.asarray(ax).reshape(-1)
    np.minimum(x, fmt.max, out=x)
    if np.isnan(np.max(x, initial=0.0)):  # NaN stays below the top code
        np.copyto(x, fmt.mag[-2], where=np.isnan(x))
    code, scratch = _binade(x, fmt)
    lo = np.floor(x, out=scratch.view(x.dtype))
    np.add(code, lo, out=code, casting="unsafe")
    p = np.subtract(x, lo, out=x)
    u = np.empty(min(p.size, _CHUNK))
    for i in range(0, p.size, _CHUNK):
        pi = p[i : i + _CHUNK]
        code[i : i + _CHUNK] += rng.random(out=u[: pi.size]) < pi
    return code.reshape(np.shape(ax))


def _as_float_array(x):
    a = np.asarray(x)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    return a


def round_det(x, fmt: FormatSpec):
    """Round to the nearest representable value, ties to the even code."""
    a = _as_float_array(x)
    out = fmt.mag[_mag_round_det(np.abs(a), fmt)].astype(a.dtype, copy=False)
    return np.copysign(out, a)


def round_stoch(x, fmt: FormatSpec, rng):
    """Unbiased stochastic rounding: up with probability (x-q1)/(q2-q1)."""
    a = _as_float_array(x)
    out = fmt.mag[_mag_round_stoch(np.abs(a), fmt, rng)].astype(a.dtype, copy=False)
    return np.copysign(out, a)


def values_from_codes(codes: np.ndarray, fmt: FormatSpec, dtype=np.float32):
    """Decode code arrays through one signed table; reserved codes give NaN."""
    half = 1 << (fmt.bits - 1)
    table = np.full(2 * half, np.nan, dtype=dtype)
    table[: fmt.mag.size] = fmt.mag
    table[half : half + fmt.mag.size] = -fmt.mag
    return table[codes]


# ── scalar codec surface ─────────────────────────────────────────────────────


def encode(value: float, fmt: FormatSpec) -> int:
    """Value -> code; rejects values not exactly on the format's grid."""
    v = float(value)
    if math.isnan(v):
        raise ValueError("cannot encode NaN")
    av = abs(v)
    idx = int(np.searchsorted(fmt.mag, av))
    if idx >= fmt.mag.size or fmt.mag[idx] != av:
        raise ValueError(f"{value!r} is not representable in {fmt.name}")
    sign = math.copysign(1.0, v) < 0
    return (int(sign) << (fmt.bits - 1)) | idx


def decode(code: int, fmt: FormatSpec) -> float:
    """Code -> value. Reserved codes (E4M3 NaN patterns) decode to NaN."""
    if not 0 <= code < fmt.num_codes:
        raise ValueError(f"code {code} out of range for {fmt.name}")
    half = fmt.num_codes >> 1
    mag_code = code & (half - 1)
    if mag_code >= fmt.mag.size:
        return math.nan
    v = float(fmt.mag[mag_code])
    return -v if code >= half else v


def round_scale_e4m3(s):
    """Round a positive scale to E4M3, ties to even code, result > 0.

    Raises OverflowError above 448 and ValueError at or below zero. Inputs
    small enough to round to zero clamp to the smallest subnormal 2**-9.
    """
    a = _as_float_array(s)
    if np.any(a <= 0):
        raise ValueError("scale must be positive")
    if np.any(a > FP8_E4M3.max):
        raise OverflowError(f"scale exceeds E4M3 max {FP8_E4M3.max}")
    mi = np.maximum(_mag_round_det(a.copy(), FP8_E4M3), 1)
    out = FP8_E4M3.mag[mi].astype(a.dtype, copy=False)
    return float(out) if np.ndim(s) == 0 else out


# ── seeded, counter-based RNG streams ────────────────────────────────────────

_MASK64 = (1 << 64) - 1


def stream(seed: int, *tags) -> np.random.Generator:
    """A Philox generator keyed by (seed, *tags).

    Tags may be ints (step counters) or strings (layer names, matmul side).
    Identical arguments give identical streams on every platform; any change
    to any tag decorrelates the stream.
    """
    words = [int(seed) & _MASK64]
    for t in tags:
        if isinstance(t, (int, np.integer)):
            words.append(int(t) & _MASK64)
        else:
            digest = hashlib.blake2b(str(t).encode(), digest_size=8).digest()
            words.append(int.from_bytes(digest, "little"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))
