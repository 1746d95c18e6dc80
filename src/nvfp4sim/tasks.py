"""Training tasks: synthetic regression with planted outlier channels and a
character-level language-modeling task over a synthesized corpus.

Every batch is a pure function of ``(seed, split, step)`` so training runs
are replayable and different method variants see identical data when run
with the same seed.
"""

from __future__ import annotations

import math
import numbers
from pathlib import Path
from typing import Tuple

import numpy as np

from . import fpcodec as fc

__all__ = ["SyntheticRegression", "CharLM", "synthesize_corpus"]

F32 = np.float32


# ── synthetic regression ─────────────────────────────────────────────────────


class SyntheticRegression:
    """Regression against a fixed nonlinear teacher with outlier channels.

    A seeded subset of input channels is scaled by ``outlier_gain``, so those
    channels dominate both the activation range and the target signal — the
    regime where retaining the largest-norm channels in higher precision
    should beat random or no retention.
    """

    def __init__(
        self,
        in_dim: int = 256,
        out_dim: int = 16,
        outlier_count: int = 16,
        outlier_gain: float = 50.0,
    ):
        for name, value in (("in_dim", in_dim), ("out_dim", out_dim),
                            ("outlier_count", outlier_count)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if (not isinstance(outlier_gain, numbers.Real) or isinstance(outlier_gain, bool)
                or not math.isfinite(outlier_gain)):
            raise ValueError(f"outlier_gain must be a finite number, got {outlier_gain!r}")
        if not 0 <= outlier_count <= in_dim:
            raise ValueError(
                f"outlier_count must be in [0, {in_dim}], got {outlier_count}"
            )
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.outlier_count = outlier_count
        self.outlier_gain = float(outlier_gain)

    @property
    def kind(self) -> str:
        return "synthetic-regression"

    def outlier_columns(self, seed: int) -> Tuple[int, ...]:
        rng = fc.stream(seed, "task", "outlier-cols")
        cols = rng.choice(self.in_dim, size=self.outlier_count, replace=False)
        return tuple(sorted(int(c) for c in cols))

    def _teacher(self, seed: int):
        rng = fc.stream(seed, "task", "teacher")
        a = (rng.standard_normal((self.in_dim, self.out_dim)) / np.sqrt(self.in_dim)).astype(F32)
        b = (rng.standard_normal((self.in_dim, self.out_dim)) / np.sqrt(self.in_dim)).astype(F32)
        return a, b

    def targets(self, x: np.ndarray, seed: int) -> np.ndarray:
        """Teacher outputs: a linear map plus a mild tanh component."""
        a, b = self._teacher(seed)
        x = np.asarray(x, dtype=F32)
        return (x @ a + np.tanh(x * F32(0.05)) @ b).astype(F32)

    def batch(self, split: str, step: int, batch_size: int, seed: int):
        if split not in ("train", "val"):
            raise ValueError(f"split must be 'train' or 'val', got {split!r}")
        rng = fc.stream(seed, "data", split, step)
        x = rng.standard_normal((batch_size, self.in_dim)).astype(F32)
        cols = self.outlier_columns(seed)
        if cols:
            x[:, list(cols)] *= F32(self.outlier_gain)
        return x, self.targets(x, seed)


# ── corpus synthesis ─────────────────────────────────────────────────────────

_LEXICON = (
    "tam rilo veda posk nur limba soren kifa drell moat "
    "pinu vask orel tindra mek salo brug yemi konda rhee "
    "alba fenn gorim sutla prew ektor nilsa vond marek teyo "
    "quib losan herba dwim felto carn ospek runda bilva strey "
    "umbra noke plins gerat voss ilme chark tova"
).split()


def synthesize_corpus(n_chars: int, seed: int) -> str:
    """Deterministic word-salad corpus with strong bigram structure.

    Each lexicon word gets a sparse successor distribution, so character
    statistics are learnable well below the unigram entropy.  Sentences are
    4–9 words ending in a period; every ~6th sentence ends a line.  Alphabet:
    lowercase letters, space, period, newline.
    """
    rng = fc.stream(seed, "corpus")
    n_words = len(_LEXICON)
    succ = np.empty((n_words, 4), dtype=np.int64)
    succ_w = np.empty((n_words, 4), dtype=np.float64)
    for i in range(n_words):
        succ[i] = rng.choice(n_words, size=4, replace=False)
        w = rng.random(4) + 0.15
        succ_w[i] = w / w.sum()

    parts = []
    total = 0
    word = int(rng.integers(n_words))
    sent = 0
    while total < n_chars:
        length = int(rng.integers(4, 10))
        chunk = []
        for _ in range(length):
            chunk.append(_LEXICON[word])
            word = int(rng.choice(succ[word], p=succ_w[word]))
        sent += 1
        text = " ".join(chunk) + ("." + ("\n" if sent % 6 == 0 else " "))
        parts.append(text)
        total += len(text)
    return "".join(parts)


# ── character LM ─────────────────────────────────────────────────────────────


class CharLM:
    """Next-character prediction over a text file.

    The first 90% of characters form the training region, the final 10% the
    validation region; batches are random ``seq_len + 1`` windows from the
    split's region, drawn from the ``(seed, split, step)`` stream.
    """

    def __init__(self, corpus_path, seq_len: int = 128):
        if type(seq_len) is not int:
            raise ValueError(f"seq_len must be an integer, got {seq_len!r}")
        text = Path(corpus_path).read_text(encoding="ascii")
        self.seq_len = seq_len
        self.alphabet = "".join(sorted(set(text)))
        if len(self.alphabet) > 64:
            raise ValueError(
                f"corpus has {len(self.alphabet)} distinct characters; limit is 64"
            )
        if len(self.alphabet) < 2:
            raise ValueError("corpus needs at least two distinct characters")
        lut = {ch: i for i, ch in enumerate(self.alphabet)}
        self.encoded = np.fromiter(
            (lut[ch] for ch in text), dtype=np.int64, count=len(text)
        )
        self.val_start = int(len(self.encoded) * 0.9)
        if self.val_start < self.seq_len + 1 or len(self.encoded) - self.val_start < self.seq_len + 1:
            raise ValueError(
                f"corpus too short ({len(self.encoded)} chars) for seq_len {self.seq_len}"
            )

    @property
    def kind(self) -> str:
        return "char-lm"

    @property
    def vocab(self) -> int:
        return len(self.alphabet)

    def decode(self, ids) -> str:
        return "".join(self.alphabet[int(i)] for i in np.asarray(ids).reshape(-1))

    def batch(self, split: str, step: int, batch_size: int, seed: int):
        if split == "train":
            lo, hi = 0, self.val_start - self.seq_len - 1
        elif split == "val":
            lo, hi = self.val_start, len(self.encoded) - self.seq_len - 1
        else:
            raise ValueError(f"split must be 'train' or 'val', got {split!r}")
        rng = fc.stream(seed, "data", split, step)
        starts = rng.integers(lo, hi + 1, size=batch_size)
        idx = starts[:, None] + np.arange(self.seq_len + 1)[None, :]
        windows = self.encoded[idx]
        return windows[:, :-1], windows[:, 1:]
