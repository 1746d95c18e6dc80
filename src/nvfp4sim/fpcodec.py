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

Stochastic rounding takes its draws through one call, ``rng.random(out=u)``,
so ``rng`` may be a numpy Generator or any object with that method.
:func:`draw_ahead` gives one that makes a generator's draws ahead on a second
thread, into a ring of 8 slots of 65,536 float64 draws (4 MiB), and hands
them on in order. A speed-up may not change how much of a stream a quantizer
consumes, and this one does not: every site takes exactly the draws it would
take from the bare generator, so no rounded value changes. The generator
itself runs up to one ring past the last draw taken, which suits only a
generator that nothing reads afterwards, like the trainer's per-step
``stream(seed, "sr", step)``, dropped after its step. The thread runs only
``Generator.random(out=)`` and queue hand-offs. No function the benchmark's
tracer times may run there: the tracer keeps one span stack and does not
track threads, so a span on a second thread breaks its check that the self
times of a step sum to the step.
"""

from __future__ import annotations

import enum
import hashlib
import math
import queue
import threading
from contextlib import contextmanager
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
    "round_scale_e4m3",
    "stream",
    "draw_ahead",
]


class RoundingMode(enum.Enum):
    DETERMINISTIC = "det"
    STOCHASTIC = "stoch"


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
}


def get_format(name: str) -> FormatSpec:
    fmt = _FORMATS.get(name.lower()) if isinstance(name, str) else None
    if fmt is None:
        raise ValueError(f"unknown format {name!r}; choose from {tuple(_FORMATS)}")
    return fmt


# ── rounding cores (magnitude space) ─────────────────────────────────────────
# Rounding |x| on the magnitude table and re-applying the sign is equivalent to
# rounding on the signed grid (the grid is symmetric and tie parity mirrors),
# and it keeps the sign of zero, so -0.2 rounds to -0.
#
# Both cores are closed forms on the IEEE exponent e of |x|. In the binade
# [2**e, 2**(e+1)) the format's values are the multiples of the spacing
# s = 2**(max(e, 1 - bias) - man_bits); the subnormal range shares the spacing
# of the lowest normal binade. As s is a power of two, t = |x| * (1/s) is
# exact. Each core overwrites its input with the integer step k (a float) of
# the rounded value k * s and returns 1/s per element, a power of two whose
# exponent bits carry the spacing exponent. A carry out of the binade
# (k = 2**(man_bits + 1)) is the next binade's first value.
#
# Deterministic: k = rint(t). Stochastic: the bracket is floor(t) and
# floor(t) + 1, and the exact p = t - floor(t) equals (|x| - q1) / (q2 - q1);
# it is compared with one float64 draw per element in row-major order.
#
# Two consumers sit on top. ``_values`` divides k by 1/s, which is exact and
# gives the magnitude k * s. ``_codes`` adds base = (max(e, 1 - bias) + bias
# - 1) * 2**man_bits, read back from the exponent bits of 1/s, giving the
# magnitude code k + base. As base is a multiple of 2**man_bits, k and its
# code have the same parity, so rint's ties-to-even on k is ties to the even
# code.
#
# Magnitudes above the format's max round to the max, and so does +inf.
# NaN rounds to the max in det mode and to the value below it in stoch mode
# (its draw is consumed and never rounds up).


def _spacing(x: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Overwrite magnitudes ``0 <= x <= fmt.max`` (1-D) with ``t = x / s``
    and return ``1/s`` per element."""
    fi = np.finfo(x.dtype)
    # the exponent bits of max(x, 2**(1 - bias)), turned into those of 1/s
    rs = np.maximum(x, 2.0 ** (1 - fmt.bias))
    bits = rs.view(f"u{x.itemsize}")
    bits &= ((1 << fi.nexp) - 1) << fi.nmant
    np.subtract((2 * (fi.maxexp - 1) + fmt.man_bits) << fi.nmant, bits, out=bits)
    x *= rs
    return rs


# Stochastic draws run this many elements at a time through reused buffers.
# A float64 draw array the size of the whole input costs more in page faults
# than the work.
_CHUNK = 1 << 14


def _flat(a: np.ndarray) -> np.ndarray:
    """The 1-D view of a C-contiguous array; ValueError where only a copy
    would do, as writes into a copy would never reach ``a``."""
    return a.reshape(-1, copy=False)


def _mag_round_det(ax: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Overwrite ``ax >= 0`` (C-contiguous) with its steps k; return 1/s."""
    x = _flat(ax)
    np.fmin(x, fmt.max, out=x)  # NaN and +inf go to the max
    rs = _spacing(x, fmt)
    np.rint(x, out=x)
    return rs


def _mag_round_stoch(ax: np.ndarray, fmt: FormatSpec, rng) -> np.ndarray:
    """Overwrite ``ax >= 0`` (C-contiguous) with its steps k; return 1/s."""
    x = _flat(ax)
    np.minimum(x, fmt.max, out=x)
    if np.isnan(np.max(x, initial=0.0)):  # NaN stays below the top value
        np.copyto(x, fmt.mag[-2], where=np.isnan(x))
    rs = _spacing(x, fmt)
    n = min(x.size, _CHUNK)
    u, lo, up = np.empty(n), np.empty(n, x.dtype), np.empty(n, bool)
    for i in range(0, x.size, _CHUNK):
        t = x[i : i + _CHUNK]
        n = t.size
        np.floor(t, out=lo[:n])
        t -= lo[:n]  # p
        np.less(rng.random(out=u[:n]), t, out=up[:n])
        np.add(lo[:n], up[:n], out=t)
    return rs


def _values(k: np.ndarray, rs: np.ndarray):
    """Overwrite a core's steps ``k`` with the magnitudes k * s (exact)."""
    x = _flat(k)
    np.divide(x, rs, out=x)


def _codes(k: np.ndarray, rs: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """The magnitude codes k + base (uint8) of a core's steps ``k``; ``rs``
    is used up."""
    fi = np.finfo(rs.dtype)
    e = rs.view(f"u{rs.itemsize}")
    # 1/s has the biased exponent ieee_bias + man_bits - max(e, 1 - bias)
    e >>= fi.nmant
    np.subtract(fi.maxexp - 2 + fmt.man_bits + fmt.bias, e, out=e)
    e <<= fmt.man_bits
    code = e.astype(np.uint8)
    code += k.reshape(-1).astype(np.uint8)  # k is a small whole number
    return code.reshape(k.shape)


def _as_float_array(x):
    a = np.asarray(x)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    return a


def _round_values(a: np.ndarray, fmt: FormatSpec, core, *args) -> np.ndarray:
    """Round ``a`` through ``core`` to values, keeping its shape and signs."""
    x = np.abs(a, out=np.empty(a.shape, a.dtype))
    _values(x, core(x, fmt, *args))
    return np.copysign(x, a, out=x)


def round_det(x, fmt: FormatSpec):
    """Round to the nearest representable value, ties to the even code."""
    return _round_values(_as_float_array(x), fmt, _mag_round_det)[()]


def round_stoch(x, fmt: FormatSpec, rng):
    """Unbiased stochastic rounding: up with probability (x-q1)/(q2-q1)."""
    return _round_values(_as_float_array(x), fmt, _mag_round_stoch, rng)[()]


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
    out = np.array(a, order="C")
    _values(out, _mag_round_det(out, FP8_E4M3))
    np.maximum(out, 2.0**-9, out=out)  # never the zero code
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


# ── draws made ahead on a second thread ──────────────────────────────────────

_RING_SLOTS = 8
_SLOT = 1 << 16  # draws per slot: four rounding chunks


class _DrawAhead:
    """``gen``'s float64 draws, in order, through ``random(out=)``; a thread
    started by the first call fills a ring of slots ahead of the caller."""

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._ring = None  # (slots, draws) float64, made by the first call
        self._thread = None
        self._stop = False
        self._free = queue.SimpleQueue()  # slot indices to fill; None stops
        self._full = queue.SimpleQueue()  # filled slot indices, or the error
        self._slot = None  # the slot being read and the next draw in it
        self._pos = 0

    def _produce(self):
        try:
            while (i := self._free.get()) is not None and not self._stop:
                self._gen.random(out=self._ring[i])
                self._full.put(i)
        except BaseException as exc:  # any: the reader raises it, never waits on
            self._full.put(exc)  # a dead thread

    def random(self, *, out: np.ndarray) -> np.ndarray:
        """Fill float64 ``out`` with the generator's next draws."""
        if self._thread is None:
            self._ring = np.empty((_RING_SLOTS, _SLOT))
            for i in range(_RING_SLOTS):
                self._free.put(i)
            self._thread = threading.Thread(target=self._produce, name="draw-ahead",
                                            daemon=True)
            self._thread.start()
        dst = _flat(out)
        done = 0
        while done < dst.size:
            if self._slot is None:
                item = self._full.get()
                if isinstance(item, BaseException):
                    self._full.put(item)  # every later call raises it too
                    raise item
                self._slot, self._pos = item, 0
            take = min(dst.size - done, _SLOT - self._pos)
            dst[done : done + take] = self._ring[self._slot, self._pos : self._pos + take]
            done += take
            self._pos += take
            if self._pos == _SLOT:
                self._free.put(self._slot)
                self._slot = None
        return out

    def close(self) -> None:
        """Stop and join the thread, if one started."""
        if self._thread is not None:
            self._stop = True
            self._free.put(None)
            self._thread.join()


@contextmanager
def draw_ahead(gen: np.random.Generator):
    """A stand-in for ``gen`` in the rounding cores whose draws are made
    ahead on a second thread (see the module docstring); the thread, started
    by the first draw, is joined when the block exits."""
    ahead = _DrawAhead(gen)
    try:
        yield ahead
    finally:
        ahead.close()
