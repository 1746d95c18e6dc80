"""Tests for the training tasks: synthetic regression and character LM."""

import numpy as np
import pytest

from nvfp4sim import tasks as tk

F32 = np.float32


# ── synthetic regression ─────────────────────────────────────────────────────


def test_regression_batch_shapes_and_determinism():
    t = tk.SyntheticRegression(in_dim=64, out_dim=8, outlier_count=4)
    x1, y1 = t.batch("train", step=3, batch_size=16, seed=5)
    x2, y2 = t.batch("train", step=3, batch_size=16, seed=5)
    assert x1.shape == (16, 64) and y1.shape == (16, 8)
    assert x1.dtype == F32 and y1.dtype == F32
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    x3, _ = t.batch("train", step=4, batch_size=16, seed=5)
    assert not np.array_equal(x1, x3)
    x4, _ = t.batch("val", step=3, batch_size=16, seed=5)
    assert not np.array_equal(x1, x4)


def test_regression_outlier_columns_planted():
    t = tk.SyntheticRegression(in_dim=64, out_dim=8, outlier_count=4, outlier_gain=50.0)
    cols = t.outlier_columns(seed=9)
    assert len(cols) == 4 and len(set(cols)) == 4
    x, _ = t.batch("train", step=0, batch_size=256, seed=9)
    hot = np.std(x[:, list(cols)])
    rest = np.std(np.delete(x, list(cols), axis=1))
    assert hot > 25.0 and rest < 2.0
    # columns are a function of the seed only
    assert t.outlier_columns(seed=9) == cols


def test_regression_targets_depend_on_outlier_columns():
    t = tk.SyntheticRegression(in_dim=64, out_dim=8, outlier_count=4)
    x, y = t.batch("train", step=1, batch_size=8, seed=2)
    x0 = x.copy()
    x0[:, list(t.outlier_columns(seed=2))] = 0.0
    y0 = t.targets(x0, seed=2)
    assert not np.allclose(y, y0)
    # targets are a pure function of inputs
    np.testing.assert_array_equal(t.targets(x, seed=2), y)


def test_regression_validation_is_fixed_set():
    t = tk.SyntheticRegression(in_dim=32, out_dim=4)
    a = t.batch("val", step=0, batch_size=8, seed=1)
    b = t.batch("val", step=0, batch_size=8, seed=1)
    np.testing.assert_array_equal(a[0], b[0])


# ── corpus synthesis ─────────────────────────────────────────────────────────


def test_corpus_deterministic_and_clean():
    c1 = tk.synthesize_corpus(20_000, seed=0)
    c2 = tk.synthesize_corpus(20_000, seed=0)
    assert c1 == c2
    assert len(c1) >= 20_000
    allowed = set("abcdefghijklmnopqrstuvwxyz .\n")
    assert set(c1) <= allowed
    assert len(set(c1)) <= 30
    c3 = tk.synthesize_corpus(20_000, seed=1)
    assert c3 != c1


def test_corpus_has_learnable_bigram_structure():
    c = tk.synthesize_corpus(50_000, seed=0)
    words = c.replace("\n", " ").replace(".", "").split()
    assert len(set(words)) >= 20
    # successor entropy far below unigram entropy: each word prefers few successors
    import collections, math
    pairs = collections.Counter(zip(words, words[1:]))
    uni = collections.Counter(words)
    top_follow = {}
    for (a, b), n in pairs.items():
        top_follow.setdefault(a, []).append(n)
    top_ratio = np.mean([max(v) / sum(v) for v in top_follow.values() if sum(v) > 20])
    assert top_ratio > 0.25  # uniform over 20+ words would be ~0.05


# ── character LM task ────────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    p.write_text(tk.synthesize_corpus(30_000, seed=0), encoding="ascii")
    return p


def test_charlm_vocab_and_batches(corpus_file):
    t = tk.CharLM(corpus_file, seq_len=32)
    assert 2 <= t.vocab <= 64
    x, y = t.batch("train", step=0, batch_size=4, seed=3)
    assert x.shape == (4, 32) and y.shape == (4, 32)
    assert x.dtype == np.int64
    assert x.max() < t.vocab and x.min() >= 0
    # next-char alignment inside each window
    np.testing.assert_array_equal(x[:, 1:], y[:, :-1])


def test_charlm_determinism_and_split(corpus_file):
    t = tk.CharLM(corpus_file, seq_len=16)
    a = t.batch("train", step=7, batch_size=8, seed=1)
    b = t.batch("train", step=7, batch_size=8, seed=1)
    np.testing.assert_array_equal(a[0], b[0])
    c = t.batch("train", step=8, batch_size=8, seed=1)
    assert not np.array_equal(a[0], c[0])
    # validation windows come from the held-out tail
    ids = t.encoded
    assert t.val_start == int(len(ids) * 0.9)
    assert len(ids) - t.val_start >= t.seq_len + 1


def test_charlm_rejects_fat_vocab(tmp_path):
    p = tmp_path / "fat.txt"
    p.write_text("".join(chr(33 + i) for i in range(80)), encoding="ascii")
    with pytest.raises(ValueError):
        tk.CharLM(p, seq_len=8)


def test_charlm_rejects_short_corpus(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("abc", encoding="ascii")
    with pytest.raises(ValueError):
        tk.CharLM(p, seq_len=32)
