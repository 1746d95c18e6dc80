"""Command-line surface tests: argument handling, file outputs, exit codes,
and byte-exact reruns."""

import argparse
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from nvfp4sim import blockquant as bq
from nvfp4sim import cli
from nvfp4sim import matrixio as mio
from nvfp4sim import tasks
from nvfp4sim import trainer as tr

F32 = np.float32


def rnd(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 4).astype(F32)


def representable(shape, seed):
    """A matrix the double-block quantizer reproduces exactly."""
    m = rnd(shape, seed)
    q = bq.quantize_double_block(m, "row", outer="1x128")
    return bq.dequantize(q)


def write_mlp_config(path, total_steps=20, **extra):
    cfg = {
        "model": {"kind": "mlp", "widths": [64, 32, 32, 8]},
        "task": {"kind": "synthetic-regression", "in_dim": 64, "out_dim": 8,
                 "outlier_count": 4, "outlier_gain": 50.0},
        "optimizer": {"lr": 5e-3, "betas": [0.9, 0.95], "weight_decay": 0.01},
        "schedule": {"warmup_steps": 5, "total_steps": total_steps, "floor_lr": 0.0},
        "batch_size": 8,
        "seed": 11,
        "preset": "fp4-base",
    }
    cfg.update(extra)
    Path(path).write_text(json.dumps(cfg), encoding="ascii")
    return cfg


# ── quantize ─────────────────────────────────────────────────────────────────


def test_quantize_exact_matrix_reports_zero_mse(tmp_path, capsys):
    m = representable((32, 128), seed=1)
    src = tmp_path / "m.csv"
    mio.save_csv(src, m)
    out = tmp_path / "q1"
    rc = cli.main(["quantize", str(src), "--out", str(out),
                   "--orientation", "row", "--outer", "1x128"])
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["mse"] == 0.0
    assert stats["max_abs_err"] == 0.0
    assert stats["sqnr_db"] is None  # exact match has no error power
    assert stats["clamp_count"] == 0
    q = mio.load_quantized(out / "quantized.qmxf")
    np.testing.assert_array_equal(bq.dequantize(q), m)
    snap = json.loads((out / "config.json").read_text())
    assert snap["orientation"] == "row"
    assert snap["outer"] == "1x128"


def test_quantize_rerun_is_byte_identical(tmp_path):
    m = rnd((48, 64), seed=2)
    src = tmp_path / "m.csv"
    mio.save_csv(src, m)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["quantize", str(src), "--out", str(out)]) == 0
        outs.append((out / "quantized.qmxf").read_bytes())
    assert outs[0] == outs[1]


def test_quantize_outer_flag_mse_ordering(tmp_path):
    m = rnd((64, 128), seed=3)
    m[:, 7] *= F32(80.0)  # planted outlier column
    src = tmp_path / "m.csv"
    mio.save_csv(src, m)
    mses = {}
    for outer in ("1x128", "per-row", "per-tensor"):
        out = tmp_path / outer
        assert cli.main(["quantize", str(src), "--out", str(out),
                         "--outer", outer]) == 0
        mses[outer] = json.loads((out / "stats.json").read_text())["mse"]
    assert mses["1x128"] <= mses["per-row"] <= mses["per-tensor"]


def test_quantize_malformed_input_reports_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.qmxf"
    bad.write_bytes(b"QMXF\x01\x00\x00\x00\x07")  # truncated after version
    rc = cli.main(["quantize", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "byte" in err
    assert any(ch.isdigit() for ch in err)


def test_quantize_payload_shape_mismatch_exits_two(tmp_path, capsys):
    src = tmp_path / "q.qmxf"
    mio.save_quantized(src, bq.quantize_double_block(np.ones((4, 32), np.float32), "row"))
    raw = bytearray(src.read_bytes())
    raw[9:13] = (5).to_bytes(4, "little")  # header rows 4 -> 5
    src.write_bytes(bytes(raw))
    rc = cli.main(["quantize", str(src), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "byte 22" in capsys.readouterr().err


def test_quantize_nonfinite_csv_exits_two(tmp_path, capsys):
    src = tmp_path / "nf.csv"
    src.write_text("1,nan\ninf,2\n")
    rc = cli.main(["quantize", str(src), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "byte 2" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["missing", "directory"])
def test_quantize_unreadable_input_exits_two_naming_it(tmp_path, capsys, what):
    src = tmp_path / "missing.csv" if what == "missing" else tmp_path / "d"
    src.parent.mkdir(exist_ok=True)
    if what == "directory":
        src.mkdir()
    rc = cli.main(["quantize", str(src), "--out", str(tmp_path / "o")])
    assert rc == 2
    reason = "No such file or directory" if what == "missing" else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot read {src}: {reason}\n"
    assert not (tmp_path / "o" / "config.json").exists()


def test_quantize_empty_matrix_exits_two(tmp_path, capsys):
    src = tmp_path / "empty.qmxf"
    mio.save_dense(src, np.zeros((0, 4), F32))
    rc = cli.main(["quantize", str(src), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: cannot quantize an empty matrix, got shape (0, 4)\n")
    assert not (tmp_path / "o" / "config.json").exists()


def test_quantize_stochastic_mode_uses_seed(tmp_path):
    m = rnd((16, 64), seed=4)
    src = tmp_path / "m.csv"
    mio.save_csv(src, m)
    outs = {}
    for seed in ("1", "1", "2"):
        out = tmp_path / f"s{seed}-{len(outs)}"
        assert cli.main(["quantize", str(src), "--out", str(out),
                         "--mode", "stoch", "--seed", seed]) == 0
        outs[out] = (out / "quantized.qmxf").read_bytes()
    blobs = list(outs.values())
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]


# ── bench-bias ───────────────────────────────────────────────────────────────


def test_bench_bias_unbiased_recipe_exits_zero(tmp_path):
    out = tmp_path / "bias"
    rc = cli.main(["bench-bias", "--out", str(out), "--preset", "fp4-base",
                   "--shape", "8,32,16", "--draws", "10000", "--seed", "1"])
    assert rc == 0
    report = json.loads((out / "bias_report.json").read_text())
    assert report["passed"] is True
    assert report["draws"] == 10000
    assert report["max_z"] <= 5.0


def test_bench_bias_detects_deterministic_rounding_bias(tmp_path):
    out = tmp_path / "bias-rtn"
    rc = cli.main(["bench-bias", "--out", str(out), "--preset", "fp4-rtn",
                   "--shape", "8,32,16", "--draws", "10000", "--seed", "1",
                   "--dy-craft", "boundary", "--x-craft", "signs",
                   "--w-craft", "signs"])
    assert rc == 4
    report = json.loads((out / "bias_report.json").read_text())
    assert report["passed"] is False
    assert report["max_z"] > 5.0


def test_bench_bias_enforces_minimum_draws(tmp_path, capsys):
    rc = cli.main(["bench-bias", "--out", str(tmp_path / "x"),
                   "--draws", "500"])
    assert rc == 2
    assert "10000" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--outlier-percent", "150", "outlier ratio"),
    ("--outlier-percent", "-1", "outlier ratio"),
    ("--nsigma", "0", "nsigma"),
    ("--nsigma", "-2", "nsigma"),
    ("--nsigma", "nan", "nsigma"),
    ("--nsigma", "inf", "nsigma"),
])
def test_bench_bias_rejects_bad_argument_with_exit_two(tmp_path, capsys, flag, value, named):
    out = tmp_path / "bias"
    rc = cli.main(["bench-bias", "--out", str(out), "--shape", "4,16,8",
                   flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (out / "bias_report.json").exists()


def test_bench_bias_sites_disabled_is_exact(tmp_path):
    out = tmp_path / "bias-off"
    rc = cli.main(["bench-bias", "--out", str(out), "--preset", "fp32",
                   "--shape", "4,16,8", "--draws", "10000", "--seed", "2"])
    assert rc == 0
    report = json.loads((out / "bias_report.json").read_text())
    assert report["passed"] is True


# ── train ────────────────────────────────────────────────────────────────────


def test_train_command_writes_run_and_is_rerunnable(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out1),
                     "--seed", "7"]) == 0
    stdout = capsys.readouterr().out
    assert "final train loss" in stdout
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out2),
                     "--seed", "7"]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    snap = json.loads((out1 / "config.json").read_text())
    assert snap["seed"] == 7  # flag overrides the file


def test_train_command_divergence_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path, optimizer={"lr": 1e8, "betas": [0.9, 0.95],
                                          "weight_decay": 0.0})
    out = tmp_path / "boom"
    with np.errstate(all="ignore"):
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 3
    assert (out / "diverged.json").exists()


_SUPPRESSION = {"t_max": 20, "t_start": 1, "t_period": 4, "t_accu": 1}


@pytest.mark.parametrize("extra, named", [
    ({"cfg_overrides": {"no_such_field": 1}}, "no_such_field"),
    ({"cfg_overrides": {"rht_fwd": True}}, "rht_fwd"),
    ({"cfg_overrides": {"rht_block": 3}}, "rht_block"),
    ({"model": {"kind": "mlp-xl", "widths": [64, 32, 32, 8]}}, "mlp-xl"),
    ({"task": {"kind": "no-such-task"}}, "no-such-task"),
    ({"model": {"kind": "mlp", "widths": [64, 32, 32, 8], "depth": 3}}, "depth"),
    ({"task": {"kind": "char-lm", "corpus_path": "no-such-dir/corpus.txt",
               "seq_len": 32}}, "no-such-dir/corpus.txt"),
    ({"cfg_overrides": {"weight_block": "square"}}, "outer_granularity"),
    ({"outlier_precision": "bogus"}, "outlier_precision"),
    ({"outlier_style": "bogus"}, "outlier_style"),
    ({"optimizer": {"lr": 5e-3, "weight_decy": 0.01}},
     "optimizer (AdamW): unknown keys ['weight_decy']"),
    ({"schedule": {"warmup_step": 5, "total_steps": 20}},
     "schedule (CosineSchedule): unknown keys ['warmup_step']"),
    ({"optimizer": {"betas": [0.9, 0.95]}}, "optimizer: missing key 'lr'"),
    ({"schedule": {"total_steps": 20, "peak_lr": 5e-3}},
     "schedule (CosineSchedule): unknown keys ['peak_lr']"),
    ({"cfg_overrides": {"layer_tag": "fc1"}}, "cfg_overrides sets ['layer_tag']"),
    ({"cfg_overrides": {"rht_seed": 3}}, "cfg_overrides sets ['rht_seed']"),
    ({"cfg_overrides": {"outlier": None}}, "cfg_overrides sets ['outlier']"),
    ({"cfg_overrides": {"align_xhat": "false"}}, "align_xhat must be true or false"),
    ({"apply_resets": "false"}, "apply_resets must be true or false"),
    ({"schedule": {"total_steps": 3.7}}, "total_steps must be an integer"),
    ({"schedule": {"total_steps": "3"}}, "total_steps must be an integer"),
    ({"batch_size": 4.5}, "batch_size must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"suppression": 5}, "suppression must be an object, got 5"),
    ({"suppression": {**_SUPPRESSION, "t_period": 2.5}}, "t_period must be an integer"),
    ({"suppression": {**_SUPPRESSION, "t_start": 1.0}}, "t_start must be an integer"),
    ({"suppression": {**_SUPPRESSION, "t_accu": True}}, "t_accu must be an integer"),
    ({"suppression": {**_SUPPRESSION, "tau_osci": "8"}}, "tau_osci must be a number"),
    ({"suppression": {**_SUPPRESSION, "tau_osci": False}}, "tau_osci must be a number"),
    ({"outlier_ratio": "5"}, "outlier_ratio is a percentage in [0, 100], got '5'"),
    ({"outlier_ratio": True}, "outlier_ratio is a percentage in [0, 100], got True"),
    ({"optimizer": {"lr": math.inf}}, "peak_lr must be a positive finite number"),
    ({"optimizer": {"lr": 5e-3, "eps": math.inf}}, "eps must be a positive finite number"),
    ({"optimizer": {"lr": 5e-3, "weight_decay": math.nan}},
     "weight_decay must be a nonnegative finite number"),
    ({"task": {"kind": "synthetic-regression", "in_dim": 64, "out_dim": 8,
               "outlier_count": 4.5}}, "outlier_count must be an integer, got 4.5"),
    ({"task": {"kind": "synthetic-regression", "in_dim": "64", "out_dim": 8}},
     "in_dim must be an integer, got '64'"),
    ({"cfg_overrides": {"format_fwd_x": 5}}, "cfg_overrides sets ['format_fwd_x']; it takes"),
    ({"cfg_overrides": {"precision": 5}},
     "precision must be one of ['e2m1xe2m1', 'e3m2xe2m1', 'e2m3xe2m1', 'e3m2xe3m2', "
     "'e2m3xe2m3'], got 5"),
    ({"cfg_overrides": {"precision": "FP4XFP4"}}, "precision must be one of"),
    ({"cfg_overrides": {"rht_block": "32"}},
     "rht_block must be an integer power of two >= 2, got '32'"),
    ({"cfg_overrides": {"rht_block": 32.0}},
     "rht_block must be an integer power of two >= 2, got 32.0"),
    ({"cfg_overrides": {"weight_block": "diag"}},
     "weight_block must be one of ['row', 'col', 'square'], got 'diag'"),
    ({"cfg_overrides": {"outer_granularity": "2x64"}},
     "outer_granularity must be one of ['1x128', 'per-row', 'per-tensor'], got '2x64'"),
    ({"switch_step": 3, "switch_mode": "FP6XFP4"},
     "switch_mode must be one of ['e2m1xe2m1', 'e3m2xe2m1', 'e2m3xe2m1', 'e3m2xe3m2', "
     "'e2m3xe2m3'], got 'FP6XFP4'"),
    ({"task": {"kind": "synthetic-regression", "in_dim": 64, "out_dim": 8,
               "outlier_gain": math.inf}}, "outlier_gain must be a finite number, got inf"),
    ({"model": {"kind": "mlp", "widths": [64, 32.5, 32, 8]}},
     "widths must be whole numbers, got (64, 32.5, 32, 8)"),
    ({"model": {"kind": "mlp", "widths": [64, True, 32, 8]}},
     "widths must be whole numbers, got (64, True, 32, 8)"),
    ({"cfg_overrides": {"quantize_fwd_x": False}},
     "cfg_overrides sets ['quantize_fwd_x']; it takes"),
    ({"cfg_overrides": {"sites": ["fwd_x"]}}, "cfg_overrides sets ['sites']; it takes"),
    ({"cfg_overrides": {"rht_sides": "dx"}}, "rht_sides must be a list of strings"),
    ({"site_subset": ["fwd_x", "fwd_x"]}, "site_subset names a value twice"),
    ({"cfg_overrides": {"fp6_variant": "e2m3"}}, "cfg_overrides sets ['fp6_variant']; it takes"),
    ({"switch_step": 3, "switch_mode": "fp6xfp4"}, "switch_mode must be one of"),
    ({"outlier_style": "none", "outlier_ratio": 5.0},
     "outlier_style must be one of ('largest-norm', 'random'), got 'none'"),
], ids=["unknown-field", "removed-field", "bad-value", "model-kind", "task-kind",
        "model-key", "corpus-path", "square-outer", "outlier-precision",
        "outlier-style", "optimizer-key", "schedule-key", "missing-lr",
        "schedule-peak-lr", "override-layer-tag", "override-rht-seed",
        "override-outlier", "string-flag", "string-resets", "fractional-steps",
        "string-steps", "fractional-batch", "fractional-seed", "int-suppression",
        "fractional-period", "float-start", "bool-accu", "string-tau", "bool-tau",
        "string-outlier-ratio", "bool-outlier-ratio", "infinite-lr", "infinite-eps",
        "nan-weight-decay", "fractional-outlier-count", "string-in-dim",
        "int-format", "int-precision", "upper-precision", "string-rht-block",
        "float-rht-block", "diag-weight-block", "bad-outer",
        "upper-switch-mode", "infinite-outlier-gain", "fractional-width", "bool-width",
        "removed-site-flag", "override-sites", "string-rht-sides", "duplicate-site",
        "removed-fp6-variant", "old-switch-mode", "outlier-style-none"])
def test_train_command_rejects_bad_config_with_exit_two(tmp_path, capsys, extra, named):
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path, **extra)
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ")
    assert named in err
    assert not (tmp_path / "r" / "config.json").exists()


@pytest.mark.parametrize("field, value", [
    ("heads", 0), ("heads", -2), ("d_model", 0), ("ffn_hidden", -4),
])
def test_train_command_rejects_bad_transformer_dims_with_exit_two(
        tmp_path, capsys, field, value):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(tasks.synthesize_corpus(4_000, seed=3), encoding="ascii")
    model = {"kind": "tiny-transformer", "layers": 1, "d_model": 16, "heads": 2,
             "seq_len": 16, field: value}
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path, model=model, task={
        "kind": "char-lm", "corpus_path": str(corpus), "seq_len": 16})
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ")
    assert f"{field} must be >= " in err and str(value) in err
    assert not (tmp_path / "r" / "config.json").exists()


@pytest.mark.parametrize("section, field, value", [
    ("model", "layers", 1.5), ("model", "d_model", 16.0), ("task", "seq_len", 16.5),
])
def test_train_command_rejects_fractional_transformer_sizes_with_exit_two(
        tmp_path, capsys, section, field, value):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(tasks.synthesize_corpus(4_000, seed=3), encoding="ascii")
    cfg = {"model": {"kind": "tiny-transformer", "layers": 1, "d_model": 16, "heads": 2,
                     "seq_len": 16},
           "task": {"kind": "char-lm", "corpus_path": str(corpus), "seq_len": 16}}
    cfg[section][field] = value
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path, **cfg)
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert f"{field} must be an integer, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "r" / "config.json").exists()


def test_train_command_refuses_a_model_vocab_with_exit_two(tmp_path, capsys):
    # the corpus decides the vocabulary; the model section cannot repeat it
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(tasks.synthesize_corpus(4_000, seed=3), encoding="ascii")
    model = {"kind": "tiny-transformer", "layers": 1, "d_model": 16, "heads": 2,
             "seq_len": 16, "vocab": tasks.CharLM(str(corpus), seq_len=16).vocab}
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path, model=model, task={
        "kind": "char-lm", "corpus_path": str(corpus), "seq_len": 16})
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "model (TinyTransformer): unknown keys ['vocab']" in capsys.readouterr().err
    assert not (tmp_path / "r" / "config.json").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--config", "{missing}"],
    ["sweep", "--config", "{missing}", "--subsets", "{subsets}"],
    ["sweep", "--config", "{cfg}", "--subsets", "{missing}"],
], ids=["train", "sweep", "sweep-subsets"])
def test_missing_input_file_exits_two(tmp_path, capsys, argv):
    paths = {"cfg": tmp_path / "cfg.json", "subsets": tmp_path / "subsets.json",
             "missing": tmp_path / "missing.json"}
    write_mlp_config(paths["cfg"])
    paths["subsets"].write_text("[]", encoding="ascii")
    argv = [a.format(**paths) for a in argv]
    rc = cli.main(argv + ["--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ")
    assert "missing.json" in err


def test_train_command_switch_at_total_steps_matches_plain_train(tmp_path):
    cfg_path, switch_path = tmp_path / "cfg.json", tmp_path / "switch.json"
    write_mlp_config(cfg_path)
    write_mlp_config(switch_path, switch_step=20, switch_mode="e3m2xe2m1")
    plain, switched = tmp_path / "plain", tmp_path / "switched"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(plain)]) == 0
    assert cli.main(["train", "--config", str(switch_path), "--out", str(switched)]) == 0
    # switching exactly at the end changes nothing but the config snapshot
    assert (plain / "metrics.csv").read_bytes() == (switched / "metrics.csv").read_bytes()
    snap = json.loads((switched / "config.json").read_text())
    assert snap["switch_step"] == 20
    assert snap["switch_mode"] == "e3m2xe2m1"


# ── sweep ────────────────────────────────────────────────────────────────────


def test_sweep_command_table(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path)
    subsets_path = tmp_path / "subsets.json"
    subsets_path.write_text(json.dumps([
        {"id": "bypass", "site_subset": []},
        {"id": "fwd", "site_subset": ["fwd_x", "fwd_w"]},
    ]), encoding="ascii")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg_path), "--subsets",
                     str(subsets_path), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("#schema=")
    assert lines[1] == "subset,final_train_loss,final_val_loss,delta_vs_bypass"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["bypass", "fwd"]
    assert float(rows[0][3]) == 0.0
    assert (out / "config.json").exists()


@pytest.mark.parametrize("subsets", [
    [1], [{"id": "a", "site_subset": 5}], [{"id": "a", "exclude_tags": 7}],
], ids=["int", "sites-int", "exclude-int"])
def test_sweep_command_rejects_malformed_subsets_with_exit_two(tmp_path, capsys, subsets):
    cfg_path, subsets_path = tmp_path / "cfg.json", tmp_path / "subsets.json"
    write_mlp_config(cfg_path)
    subsets_path.write_text(json.dumps(subsets), encoding="ascii")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--subsets",
                   str(subsets_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: subset 0")
    assert not (out / "sweep.csv").exists()


# ── osci-analyze ─────────────────────────────────────────────────────────────


OSCI_HEADER = ("step,layer,n_elements,n_risk_ge_tau,n_reset,max_risk,mean_risk,"
               "n_gt_2,n_gt_4,n_gt_8,n_gt_16,n_gt_32")


def osci_file(path, rows):
    lines = [f"#schema={tr.OSCILLATION_SCHEMA}", OSCI_HEADER]
    lines += rows
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def test_osci_analyze_zero_risk_gives_zero_fractions(tmp_path):
    src = osci_file(tmp_path / "o.csv", [
        "51,fc0,100,0,0,0,0,0,0,0,0,0",
        "51,fc1,60,0,0,0,0,0,0,0,0,0",
        "102,fc0,100,0,0,0,0,0,0,0,0,0",
    ])
    out = tmp_path / "an"
    assert cli.main(["osci-analyze", str(src), "--out", str(out),
                     "--thresholds", "2,8,16,32"]) == 0
    lines = (out / "osci_summary.csv").read_text().splitlines()
    assert lines[0].startswith("#schema=")
    header = lines[1].split(",")
    assert header == ["step", "n_elements", "frac_gt_2", "frac_gt_8",
                      "frac_gt_16", "frac_gt_32", "n_reset"]
    for ln in lines[2:]:
        cells = ln.split(",")
        assert all(float(c) == 0.0 for c in cells[2:6])


def test_osci_analyze_half_at_risk_32(tmp_path):
    src = osci_file(tmp_path / "o.csv", [
        "51,fc0,100,50,0,32,16,50,50,50,50,0",
    ])
    out = tmp_path / "an"
    assert cli.main(["osci-analyze", str(src), "--out", str(out),
                     "--thresholds", "16"]) == 0
    lines = (out / "osci_summary.csv").read_text().splitlines()
    step, n, frac, n_reset = lines[2].split(",")
    assert float(frac) == 0.5


def test_osci_analyze_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("#schema=not-oscillation\n" + OSCI_HEADER + "\n",
                   encoding="ascii")
    rc = cli.main(["osci-analyze", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def test_osci_analyze_short_row_names_file_and_line(tmp_path, capsys):
    src = osci_file(tmp_path / "o.csv", ["51,fc0,10,0,0,0,0,0,0,0,0,0",
                                         "5,fc0,10"])
    rc = cli.main(["osci-analyze", str(src), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "o.csv" in err and "line 4" in err


def test_osci_analyze_non_integer_cell_names_file_and_line(tmp_path, capsys):
    src = osci_file(tmp_path / "o.csv", ["51,fc0,10,0,0,0,0,0,0,0,0,0",
                                         "x,fc0,1,0,0,0,0,0,0,0,0,0"])
    rc = cli.main(["osci-analyze", str(src), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "o.csv" in err and "line 4" in err


def test_osci_analyze_unknown_threshold(tmp_path, capsys):
    src = osci_file(tmp_path / "o.csv", ["51,fc0,10,0,0,0,0,0,0,0,0,0"])
    rc = cli.main(["osci-analyze", str(src), "--out", str(tmp_path / "o2"),
                   "--thresholds", "7"])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err


def test_osci_analyze_paired_delta_series(tmp_path):
    a = osci_file(tmp_path / "a.csv", [
        "51,fc0,100,10,5,20,2,40,30,10,10,0",
        "102,fc0,100,20,5,20,2,40,30,20,20,0",
    ])
    b = osci_file(tmp_path / "b.csv", [
        "51,fc0,100,30,0,20,2,40,30,30,30,0",
        "102,fc0,100,40,0,20,2,40,30,40,40,0",
    ])
    out = tmp_path / "pair"
    assert cli.main(["osci-analyze", str(a), "--paired", str(b),
                     "--out", str(out), "--thresholds", "16"]) == 0
    lines = (out / "osci_delta.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["step", "frac_gt_16_a", "frac_gt_16_b", "delta_gt_16"]
    row1 = [float(c) for c in lines[2].split(",")]
    assert row1 == [51.0, 0.1, 0.3, -0.2]
    row2 = [float(c) for c in lines[3].split(",")]
    assert row2 == [102.0, 0.2, 0.4, -0.2]


# ── output directory ─────────────────────────────────────────────────────────


@pytest.mark.parametrize("argv", [
    ["quantize", "{matrix}"],
    ["bench-bias", "--shape", "4,16,8"],
    ["train", "--config", "{cfg}"],
    ["sweep", "--config", "{cfg}", "--subsets", "{subsets}"],
    ["osci-analyze", "{osci}"],
], ids=["quantize", "bench-bias", "train", "sweep", "osci-analyze"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_on_a_file_exits_two_before_any_work(tmp_path, capsys, argv, below):
    paths = {"cfg": tmp_path / "cfg.json", "subsets": tmp_path / "subsets.json",
             "matrix": tmp_path / "m.csv", "osci": tmp_path / "o.csv"}
    write_mlp_config(paths["cfg"])
    paths["subsets"].write_text("[]", encoding="ascii")
    mio.save_csv(paths["matrix"], rnd((4, 16), seed=5))
    osci_file(paths["osci"], ["51,fc0,10,0,0,0,0,0,0,0,0,0"])
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="ascii")
    out = blocker / "x" if below else blocker
    rc = cli.main([a.format(**paths) for a in argv] + ["--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot create output directory {out}: ")
    assert captured.out == ""
    assert blocker.read_text(encoding="ascii") == "not a directory"


# ── config records and strict JSON ───────────────────────────────────────────


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(path):
    """Parse ``path`` refusing NaN and Infinity, which strict JSON lacks."""
    return json.loads(Path(path).read_text(encoding="ascii"), parse_constant=_no_constant)


_OSCI_THRESHOLDS = '  "thresholds": [\n    8.0,\n    16.0\n  ]\n}\n'
_BIAS_TAIL = ('  "preset": "fp32",\n  "seed": {seed},\n  "shape": [\n    4,\n    16,\n'
              '    8\n  ],\n  "w_craft": "gaussian",\n  "x_craft": "gaussian"\n}}\n')


# recorded from the hand-built records these replaced
@pytest.mark.parametrize("argv, expected", [
    (["quantize", "m.csv"],
     '{\n  "command": "quantize",\n  "format": "e2m1",\n  "input": "m.csv",\n'
     '  "mode": "det",\n  "orientation": "row",\n  "outer": "1x128",\n  "seed": 0\n}\n'),
    (["quantize", "m.csv", "--mode", "stoch", "--seed", "7", "--format", "e3m2",
      "--outer", "per-row"],
     '{\n  "command": "quantize",\n  "format": "e3m2",\n  "input": "m.csv",\n'
     '  "mode": "stoch",\n  "orientation": "row",\n  "outer": "per-row",\n  "seed": 7\n}\n'),
    (["quantize", "m.csv", "--orientation", "square"],
     '{\n  "command": "quantize",\n  "format": "e2m1",\n  "input": "m.csv",\n'
     '  "mode": "det",\n  "orientation": "square",\n  "outer": "per-tensor",\n'
     '  "seed": 0\n}\n'),
    (["bench-bias", "--preset", "fp32", "--shape", "4,16,8"],
     '{\n  "command": "bench-bias",\n  "draws": 10000,\n  "dy_craft": "gaussian",\n'
     '  "nsigma": 5.0,\n  "outlier_percent": null,\n  "outlier_style": "largest-norm",\n'
     + _BIAS_TAIL.format(seed=0)),
    (["bench-bias", "--preset", "fp32", "--shape", "4,16,8", "--seed", "2",
      "--outlier-percent", "12.5", "--outlier-style", "random", "--dy-craft", "signs"],
     '{\n  "command": "bench-bias",\n  "draws": 10000,\n  "dy_craft": "signs",\n'
     '  "nsigma": 5.0,\n  "outlier_percent": 12.5,\n  "outlier_style": "random",\n'
     + _BIAS_TAIL.format(seed=2)),
    (["osci-analyze", "a.csv"],
     '{\n  "command": "osci-analyze",\n  "file": "a.csv",\n  "paired": null,\n'
     + _OSCI_THRESHOLDS),
    (["osci-analyze", "a.csv", "--paired", "b.csv"],
     '{\n  "command": "osci-analyze",\n  "file": "a.csv",\n  "paired": "b.csv",\n'
     + _OSCI_THRESHOLDS),
    (["osci-analyze", "a.csv", "--paired", ""],
     '{\n  "command": "osci-analyze",\n  "file": "a.csv",\n  "paired": null,\n'
     + _OSCI_THRESHOLDS),
], ids=["quantize", "quantize-stoch", "quantize-square", "bench-bias",
        "bench-bias-flags", "osci", "osci-paired", "osci-paired-empty"])
def test_config_record_bytes(tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    mio.save_csv("m.csv", rnd((16, 48), seed=5))
    osci_file("a.csv", ["51,fc0,100,10,5,20,2,40,30,10,10,0"])
    osci_file("b.csv", ["51,fc0,100,30,0,20,2,40,30,30,30,0"])
    assert cli.main(argv + ["--out", "out"]) == 0
    assert (tmp_path / "out" / "config.json").read_text(encoding="ascii") == expected


def test_written_json_is_strict(tmp_path):
    # an exact match writes sqnr_db inf as null
    src = tmp_path / "m.csv"
    mio.save_csv(src, representable((16, 32), seed=1))
    assert cli.main(["quantize", str(src), "--out", str(tmp_path / "q")]) == 0
    assert strict_json(tmp_path / "q" / "stats.json")["sqnr_db"] is None
    assert cli.main(["bench-bias", "--out", str(tmp_path / "b"), "--preset", "fp32",
                     "--shape", "4,16,8"]) == 0
    assert strict_json(tmp_path / "b" / "bias_report.json")["passed"] is True
    cfg_path = tmp_path / "cfg.json"
    write_mlp_config(cfg_path, optimizer={"lr": 1e8, "betas": [0.9, 0.95],
                                          "weight_decay": 0.0})
    with np.errstate(all="ignore"):
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
    assert rc == 3
    assert strict_json(tmp_path / "d" / "diverged.json")["max_abs_grad"] is None


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "x.json"
    tr.write_json(path, {"a": [1.5, math.inf, (-math.inf, math.nan)], "b": {"c": 2}})
    assert strict_json(path) == {"a": [1.5, None, [None, None]], "b": {"c": 2}}


# ── surface ──────────────────────────────────────────────────────────────────


@pytest.mark.parametrize("sub", ["quantize", "bench-bias", "train", "sweep",
                                 "osci-analyze"])
def test_help_shows_an_example_invocation(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "example:" in out


def test_every_help_example_parses():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        example = sub.epilog.split("example:", 1)[1]
        argv = shlex.split(example)
        assert argv[:2] == ["nvfp4sim", name]
        args = parser.parse_args(argv[1:])
        assert args.command == name
        assert not any(str(v).count("--") for v in vars(args).values()), args


def test_quantize_offers_the_library_element_formats():
    parser = cli.build_parser()
    for fmt in bq.ELEMENT_FORMATS:
        assert parser.parse_args(["quantize", "m.csv", "--out", "q", "--format", fmt]).format == fmt
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["quantize", "m.csv", "--out", "q", "--format", "e4m3"])
    assert exc.value.code == 2


def test_bench_bias_offers_the_library_outlier_styles(capsys):
    parser = cli.build_parser()
    for style in ("largest-norm", "random"):
        args = parser.parse_args(["bench-bias", "--out", "b", "--outlier-style", style])
        assert args.outlier_style == style
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["bench-bias", "--out", "b", "--outlier-style", "none"])
    assert exc.value.code == 2
    assert "argument --outlier-style: invalid choice: 'none'" in capsys.readouterr().err


def test_unknown_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
