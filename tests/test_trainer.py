"""Training-harness tests: loop correctness, determinism, suppression wiring,
precision switching, metrics files, and failure diagnostics."""

import dataclasses
import hashlib
import json
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from nvfp4sim import blockquant as bq
from nvfp4sim import fpcodec as fc
from nvfp4sim import models, optim, oscillation as osc, qlinear as ql, tasks
from nvfp4sim import trainer as tr

F32 = np.float32


def mlp_cfg(**kw):
    base = dict(
        model={"kind": "mlp", "widths": (64, 32, 32, 8)},
        task={"kind": "synthetic-regression", "in_dim": 64, "out_dim": 8,
              "outlier_count": 4, "outlier_gain": 50.0},
        optimizer={"lr": 5e-3, "betas": (0.9, 0.95), "weight_decay": 0.01},
        schedule={"warmup_steps": 5, "total_steps": 40, "floor_lr": 0.0},
        batch_size=8,
        seed=11,
        preset="fp4-full",
    )
    base.update(kw)
    return tr.TrainRunConfig(**base)


def corpus_file(tmp_path, n=20_000, seed=5):
    p = tmp_path / "corpus.txt"
    p.write_text(tasks.synthesize_corpus(n, seed=seed), encoding="ascii")
    return p


def transformer_cfg(tmp_path, **kw):
    base = dict(
        model={"kind": "tiny-transformer", "layers": 1, "d_model": 32,
               "heads": 2, "seq_len": 32},
        task={"kind": "char-lm", "corpus_path": str(corpus_file(tmp_path)),
              "seq_len": 32},
        optimizer={"lr": 3e-3, "betas": (0.9, 0.95), "weight_decay": 0.01},
        schedule={"warmup_steps": 2, "total_steps": 12, "floor_lr": 0.0},
        batch_size=2,
        seed=3,
        preset="fp4-base",
    )
    base.update(kw)
    return tr.TrainRunConfig(**base)


# ── config validation and round-trip ─────────────────────────────────────────


def test_config_roundtrips_through_json():
    cfg = mlp_cfg(
        suppression=osc.SuppressionSchedule(t_max=40, t_start=10, t_period=8, t_accu=3),
        site_subset=("fwd_x", "fwd_w"),
        cfg_overrides={"align_xhat": False},
        outlier_ratio=6.25,
    )
    blob = json.dumps(cfg.to_dict(), sort_keys=True)
    again = tr.TrainRunConfig.from_dict(json.loads(blob))
    assert again == cfg


def test_config_rejects_unknown_model_and_task():
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(model={"kind": "cnn"}))
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(task={"kind": "imagenet"}))


def test_config_rejects_schedule_suppression_mismatch():
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(
            suppression=osc.SuppressionSchedule(t_max=99, t_start=10),
        ))


def test_config_rejects_dimension_mismatches(tmp_path):
    # MLP width endpoints must match the regression task's dims
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(model={"kind": "mlp", "widths": (63, 32, 8)}))
    # transformer sequence length must match the corpus task's
    with pytest.raises(ValueError):
        tr.train(transformer_cfg(tmp_path, model={
            "kind": "tiny-transformer", "layers": 1, "d_model": 32,
            "heads": 2, "seq_len": 64}))


def test_config_rejects_bad_switch_and_overrides():
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(switch_step=41, switch_mode="e3m2xe2m1"))
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(switch_step=10))  # mode missing
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(cfg_overrides={"not_a_field": 1}))


@pytest.mark.parametrize("key", [
    "sites", *(f"quantize_{s}" for s in ql.QUANTIZER_SITES), "rht_dx", "rht_dw",
])
def test_cfg_overrides_reject_the_site_keys_by_name(key):
    # site_subset is the one run-level path to a recipe's sites
    with pytest.raises(ValueError, match=rf"cfg_overrides sets \['{key}'\]; it takes"):
        mlp_cfg(cfg_overrides={key: []})


def test_optimizer_eps_reaches_adamw():
    sched = {"warmup_steps": 2, "total_steps": 8, "floor_lr": 0.0}
    plain = tr.train(mlp_cfg(schedule=sched))
    optimizer = {**mlp_cfg().optimizer, "eps": 1e-2}
    wide = tr.train(mlp_cfg(schedule=sched, optimizer=optimizer))
    assert wide.losses[0] == plain.losses[0]  # the first update is yet to come
    assert wide.losses[1:] != plain.losses[1:]


# ── reference agreement and determinism ──────────────────────────────────────


def test_bypass_run_matches_reference_loop():
    """All quantizer sites disabled == a hand-rolled binary32 training loop."""
    cfg = mlp_cfg(site_subset=())
    report = tr.train(cfg)

    task = tasks.SyntheticRegression(in_dim=64, out_dim=8, outlier_count=4,
                                     outlier_gain=50.0)
    model = models.MLP(widths=(64, 32, 32, 8))
    params = model.init_params(seed=cfg.seed)
    cfgs = models.uniform_cfgs(model, ql.preset("fp32"))
    opt = optim.AdamW(params, betas=(0.9, 0.95), weight_decay=0.01)
    sched = optim.CosineSchedule(peak_lr=5e-3, warmup_steps=5, total_steps=40)
    ref_losses = []
    for step in range(1, 41):
        batch = task.batch("train", step, 8, seed=cfg.seed)
        rng = fc.stream(cfg.seed, "sr", step)
        loss, grads, _ = model.loss_and_grads(params, batch, cfgs, step=step, rng=rng)
        ref_losses.append(float(loss))
        opt.step(grads, sched.lr_at(step))

    assert len(report.rows) == 40
    assert abs(report.final_train_loss - ref_losses[-1]) <= 1e-5
    np.testing.assert_allclose(report.losses, ref_losses, atol=1e-5)


def test_identical_seeds_give_bit_identical_trajectories():
    cfg = mlp_cfg()  # quantized path, stochastic backward
    a = tr.train(cfg)
    b = tr.train(cfg)
    assert a.losses == b.losses  # exact float equality, not allclose
    assert a.final_val_loss == b.final_val_loss


def test_different_seeds_differ():
    a = tr.train(mlp_cfg(seed=1))
    b = tr.train(mlp_cfg(seed=2))
    assert a.losses != b.losses


def test_rerun_writes_byte_identical_metric_files(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg1 = mlp_cfg(out_dir=str(out1),
                   suppression=osc.SuppressionSchedule(t_max=40, t_start=10,
                                                       t_period=8, t_accu=3,
                                                       tau_osci=0.5))
    cfg2 = dataclasses.replace(cfg1, out_dir=str(out2))
    tr.train(cfg1)
    tr.train(cfg2)
    for name in ("metrics.csv", "oscillation.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name


# ── suppression wiring ───────────────────────────────────────────────────────


def suppressed_cfg(**kw):
    base = dict(
        suppression=osc.SuppressionSchedule(t_max=40, t_start=10, t_period=8,
                                            t_accu=3, tau_osci=0.5),
        apply_resets=True,
    )
    base.update(kw)
    return mlp_cfg(**base)


def test_resets_fire_only_at_scheduled_steps():
    report = tr.train(suppressed_cfg())
    reset_steps = [r.step for r in report.rows if r.resets]
    assert reset_steps, "tau 0.5 over a chunky FP4 grid should trigger resets"
    for s in reset_steps:
        assert s >= 10
        assert s % 8 == 4  # t_accu + 1
    # window summaries are exported for every suppress-phase step
    summary_steps = sorted({row["step"] for row in report.osci_rows})
    assert summary_steps == [s for s in range(10, 41) if s % 8 == 4]


def test_osci_rows_carry_counts_and_layer_tags():
    report = tr.train(suppressed_cfg())
    tags = {row["layer"] for row in report.osci_rows}
    assert tags == {"fc0", "fc1"}
    for row in report.osci_rows:
        assert row["n_elements"] > 0
        assert 0 <= row["n_reset"] <= row["n_risk_ge_tau"] <= row["n_elements"]
        assert row["max_risk"] >= 0.0
        # export thresholds are monotone: counts cannot grow as t rises
        counts = [row[f"n_gt_{t:g}"] for t in tr.EXPORT_THRESHOLDS]
        assert counts == sorted(counts, reverse=True)


def test_window_row_counts_risk_exactly_at_tau():
    # risk 8/1 is exactly tau: oscillation_suppress resets such elements, so
    # the exported tau column must count them too
    tau = 8.0
    tracker = osc.OscillationTracker.zeros((2, 16))
    tracker.dist_m[...] = 1.0
    tracker.dist_q[0] = tau
    w = fc.stream(0, "window-row").standard_normal((2, 16)).astype(F32)
    view = osc.double_block_weight_view("row")
    _, n_reset = osc.oscillation_suppress(w, view, tracker, tau)
    row = tr._window_row(9, "fc0", tracker, tau, n_reset)
    assert row["n_risk_ge_tau"] == 16
    assert row["n_gt_8"] == 0
    assert 0 < row["n_reset"] <= row["n_risk_ge_tau"]


def test_reset_is_bitwise_neutral_through_next_step():
    """Pairing runs with resets on/off: identical losses through the first
    reset step + 1 (quantized image unchanged at the reset instant), then
    the master-weight rewrite is allowed to change the trajectory."""
    on = tr.train(suppressed_cfg(apply_resets=True))
    off = tr.train(suppressed_cfg(apply_resets=False))
    reset_steps = [r.step for r in on.rows if r.resets]
    assert reset_steps
    first = reset_steps[0]
    # steps are 1-based; losses[i] is the loss at step i+1
    assert on.losses[: first + 1] == off.losses[: first + 1]


def test_no_resets_without_schedule():
    report = tr.train(mlp_cfg())
    assert report.total_resets == 0
    assert report.osci_rows == ()


def test_tracking_without_resets_still_exports_windows():
    report = tr.train(suppressed_cfg(apply_resets=False))
    assert report.total_resets == 0
    assert report.osci_rows
    assert all(row["n_reset"] == 0 for row in report.osci_rows)


# ── validation cadence ───────────────────────────────────────────────────────


def test_validation_aligns_with_suppression_windows():
    report = tr.train(suppressed_cfg())
    val_steps = [r.step for r in report.rows if r.val_loss is not None]
    assert val_steps == [s for s in range(1, 41) if s % 8 == 4] + [40]


def test_validation_cadence_without_schedule():
    report = tr.train(mlp_cfg(val_every=15))
    vals = [r for r in report.rows if r.val_loss is not None]
    assert [r.step for r in vals] == [15, 30, 40]
    assert report.final_val_loss == vals[-1].val_loss


# ── precision switching ──────────────────────────────────────────────────────


def test_switch_at_total_steps_is_identity():
    plain = tr.train(mlp_cfg(preset="fp4-base"))
    switched = tr.train(mlp_cfg(preset="fp4-base", switch_step=40, switch_mode="e3m2xe2m1"))
    assert plain.losses == switched.losses
    assert plain.final_val_loss == switched.final_val_loss


def test_switch_changes_trajectory_after_switch_step():
    plain = tr.train(mlp_cfg(preset="fp4-base"))
    switched = tr.train(mlp_cfg(preset="fp4-base", switch_step=20, switch_mode="e3m2xe3m2"))
    assert plain.losses[:20] == switched.losses[:20]
    assert plain.losses[20:] != switched.losses[20:]


def _spied_switch_run(monkeypatch, mode):
    """Train through a precision switch inside an oscillation window; return,
    per tracked step, the ``(tracker, dist_q after the update)`` of each
    tracked layer in the trainer's order."""
    calls, at = {}, {}
    phase, update = osc.SuppressionSchedule.phase, osc.update_oscillation_stats

    def spy_phase(schedule, step):
        at["step"] = step
        return phase(schedule, step)

    def spy_update(w, view, tracker, t0):
        out = update(w, view, tracker, t0)
        calls.setdefault(at["step"], []).append((tracker, tracker.dist_q.copy()))
        return out

    monkeypatch.setattr(osc.SuppressionSchedule, "phase", spy_phase)
    monkeypatch.setattr(osc, "update_oscillation_stats", spy_update)
    tr.train(mlp_cfg(
        preset="fp4-base", switch_step=17, switch_mode=mode,
        suppression=osc.SuppressionSchedule(t_max=40, t_start=1, t_period=8, t_accu=5),
    ))
    return calls


def test_switch_mid_window_does_not_count_the_format_change(monkeypatch):
    # the window opens at step 16 and the switch takes effect at step 18
    calls = _spied_switch_run(monkeypatch, "e3m2xe3m2")
    assert len(calls[18]) == len(calls[17]) > 0
    for (tracker, dist_q), (before, _) in zip(calls[18], calls[17]):
        assert tracker is not before
        assert not dist_q.any()  # a fresh tracker only snapshots
    assert all(dist_q.any() for _, dist_q in calls[19])


def test_switch_keeps_trackers_whose_weight_format_stays(monkeypatch):
    # e3m2xe2m1 leaves the forward weight in FP4, so its view does not change
    calls = _spied_switch_run(monkeypatch, "e3m2xe2m1")
    assert len(calls[18]) == len(calls[17]) > 0
    for (tracker, _), (before, _) in zip(calls[18], calls[17]):
        assert tracker is before


def test_a_format_has_one_spelling():
    # the precision switch compares the weight's format before and after: a
    # second spelling of a mode would drop the oscillation trackers it keeps
    run = dict(preset="fp4-base", switch_step=3, switch_mode="e2m1xe2m1",
               suppression=osc.SuppressionSchedule(t_max=40, t_start=1, t_period=8, t_accu=5))
    with pytest.raises(ValueError, match="precision must be one of .*, got 'FP4XFP4'"):
        tr.train(mlp_cfg(cfg_overrides={"precision": "FP4XFP4"}, **run))
    # a config from before the precision field fails loudly, not differently
    with pytest.raises(ValueError, match=r"cfg_overrides sets \['format_fwd_w'\]; it takes"):
        tr.train(mlp_cfg(cfg_overrides={"format_fwd_w": "e2m1"}, **run))
    spelled = tr.train(mlp_cfg(cfg_overrides={"precision": "e2m1xe2m1"}, **run))
    plain = tr.train(mlp_cfg(**run))
    assert (spelled.rows, spelled.osci_rows) == (plain.rows, plain.osci_rows)


# each (mode, fp6_variant) pair of a recipe that named its FP6 variant apart
# from its mode: the one mode that now names both formats, and the six site
# formats, in QUANTIZER_SITES order, that the pair gave
_PAIRS = {
    ("fp4xfp4", "e3m2"): ("e2m1xe2m1", ("e2m1",) * 6),
    ("fp4xfp4", "e2m3"): ("e2m1xe2m1", ("e2m1",) * 6),
    ("fp6xfp4", "e3m2"): ("e3m2xe2m1", ("e3m2", "e2m1", "e3m2", "e2m1", "e2m1", "e3m2")),
    ("fp6xfp4", "e2m3"): ("e2m3xe2m1", ("e2m3", "e2m1", "e2m3", "e2m1", "e2m1", "e2m3")),
    ("fp6xfp6", "e3m2"): ("e3m2xe3m2", ("e3m2",) * 6),
    ("fp6xfp6", "e2m3"): ("e2m3xe2m3", ("e2m3",) * 6),
}


@pytest.mark.parametrize("pair", sorted(_PAIRS), ids="-".join)
def test_a_precision_mode_sets_each_site_format(monkeypatch, pair):
    mode, pinned = _PAIRS[pair]
    site = dict(zip(ql.QUANTIZER_SITES, pinned))
    recipe = ql.LayerQuantConfig(precision=mode)
    assert {s: recipe.site_format(s) for s in ql.QUANTIZER_SITES} == site
    formats = []
    quantize = bq.quantize_dequantize

    def spy(*args, element_fmt="e2m1", **kwargs):
        formats.append(element_fmt)
        return quantize(*args, element_fmt=element_fmt, **kwargs)

    monkeypatch.setattr(bq, "quantize_dequantize", spy)
    tr.train(mlp_cfg(preset="fp4-base", val_batches=1, switch_step=0, switch_mode=mode,
                     schedule={"warmup_steps": 0, "total_steps": 1, "floor_lr": 0.0}))
    forward = [site["fwd_x"], site["fwd_w"]] * 2  # the quantized fc0 and fc1
    backward = [site[s] for s in ql.QUANTIZER_SITES[2:]] * 2
    assert formats == forward + backward + forward  # the step, then its validation


def test_switch_records_config(tmp_path):
    out = tmp_path / "sw"
    tr.train(mlp_cfg(preset="fp4-base", out_dir=str(out), switch_step=20,
                     switch_mode="e3m2xe2m1"))
    snap = json.loads((out / "config.json").read_text())
    assert snap["switch_step"] == 20
    assert snap["switch_mode"] == "e3m2xe2m1"


@pytest.mark.parametrize("run, message", [
    (dict(cfg_overrides={"fp6_variant": "e2m3"}),
     r"cfg_overrides sets \['fp6_variant'\]; it takes \['precision', "),
    (dict(cfg_overrides={"precision": "fp6xfp4"}),
     r"precision must be one of \['e2m1xe2m1', .*\], got 'fp6xfp4'"),
    (dict(switch_step=3, switch_mode="fp6xfp6"),
     r"switch_mode must be one of \['e2m1xe2m1', .*\], got 'fp6xfp6'"),
], ids=["fp6-variant", "precision", "switch-mode"])
def test_an_old_precision_spelling_fails_naming_its_key(run, message):
    with pytest.raises(ValueError, match=message):
        mlp_cfg(**run)


# ── outlier channel wiring ───────────────────────────────────────────────────


def test_outlier_selection_recovers_planted_columns():
    cfg = mlp_cfg(outlier_ratio=6.25, outlier_style="largest-norm")
    report = tr.train(cfg)
    task = tasks.SyntheticRegression(in_dim=64, out_dim=8, outlier_count=4,
                                     outlier_gain=50.0)
    planted = set(task.outlier_columns(cfg.seed))
    chosen = set(report.outlier_channels["fc0"])
    assert planted <= chosen  # 6.25% of 64 = 4 channels; gain 50 dominates
    assert len(chosen) == 4


def test_outlier_style_none_is_rejected():
    # a ratio of 0 retains nothing; style none beside a ratio above 0 only
    # ran a calibration forward pass for nothing
    with pytest.raises(ValueError) as exc:
        mlp_cfg(outlier_ratio=6.25, outlier_style="none")
    assert str(exc.value) == (
        "outlier_style must be one of ('largest-norm', 'random'), got 'none'")
    report = tr.train(mlp_cfg(outlier_ratio=0.0, outlier_style="random"))
    assert report.outlier_channels == {}


def test_bypass_keeps_no_outliers():
    report = tr.train(mlp_cfg(preset="fp32", outlier_ratio=6.25))
    assert report.outlier_channels == {}


# ── failure diagnostics ──────────────────────────────────────────────────────


def test_nan_loss_aborts_with_diagnostics(tmp_path):
    out = tmp_path / "boom"
    cfg = mlp_cfg(optimizer={"lr": 1e8, "betas": (0.9, 0.95), "weight_decay": 0.0},
                  out_dir=str(out))
    with pytest.raises(tr.TrainDivergedError) as exc, np.errstate(all="ignore"):
        tr.train(cfg)
    diag = exc.value.diagnostics
    assert diag["step"] >= 1
    assert diag["lr"] > 0
    assert "max_abs_grad" in diag and "clamp_events" in diag
    dumped = json.loads((out / "diverged.json").read_text())
    assert dumped == diag


# ── metrics files ────────────────────────────────────────────────────────────


def test_metrics_files_schema_and_content(tmp_path):
    out = tmp_path / "run"
    cfg = suppressed_cfg(out_dir=str(out))
    report = tr.train(cfg)

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("#schema=")
    header = lines[1].split(",")
    assert header == ["step", "train_loss", "val_loss", "lr", "resets",
                      "clamp_events"]
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 40
    assert [int(r[0]) for r in rows] == list(range(1, 41))
    # losses in the file match the report to printed precision
    assert float(rows[-1][1]) == pytest.approx(report.final_train_loss, rel=1e-8)
    # val_loss cells are empty off-cadence, filled on-cadence
    val_steps = {r.step for r in report.rows if r.val_loss is not None}
    for r in rows:
        assert (r[2] != "") == (int(r[0]) in val_steps)
    # the report's totals are the columns' sums, and the resets column agrees
    # with the per-layer window export
    assert report.clamp_total == sum(int(r[5]) for r in rows)
    assert report.total_resets == sum(int(r[4]) for r in rows)
    assert report.total_resets == sum(o["n_reset"] for o in report.osci_rows)
    assert report.total_resets > 0

    osci = (out / "oscillation.csv").read_text().splitlines()
    assert osci[0].startswith("#schema=")
    oheader = osci[1].split(",")
    assert oheader[:7] == ["step", "layer", "n_elements", "n_risk_ge_tau",
                           "n_reset", "max_risk", "mean_risk"]
    for t in tr.EXPORT_THRESHOLDS:
        assert f"n_gt_{t:g}" in oheader
    assert len(osci) - 2 == len(report.osci_rows)

    snap = json.loads((out / "config.json").read_text())
    assert tr.TrainRunConfig.from_dict(snap) == cfg


# ── loss decomposition sweep ─────────────────────────────────────────────────


def test_loss_decomposition_sweep_table():
    cfg = mlp_cfg()
    subsets = [
        {"id": "bypass", "site_subset": []},
        {"id": "fwd-only", "site_subset": ["fwd_x", "fwd_w"]},
        {"id": "all", "site_subset": list(ql.QUANTIZER_SITES)},
        {"id": "no-fc1", "exclude_tags": ["fc1"]},
    ]
    rows = tr.loss_decomposition_sweep(cfg, subsets)
    assert [r["subset"] for r in rows] == ["bypass", "fwd-only", "all", "no-fc1"]
    for r in rows:
        assert set(r) == {"subset", "final_train_loss", "final_val_loss",
                          "delta_vs_bypass"}
    assert rows[0]["delta_vs_bypass"] == 0.0  # bypass row is the reference
    # the all-sites subset is the plain training run
    assert rows[2]["final_train_loss"] == tr.train(cfg).final_train_loss


def test_sweep_site_subset_variant_is_the_replaced_config(tmp_path):
    cfg = mlp_cfg(out_dir=str(tmp_path / "sweep"))
    rows = tr.loss_decomposition_sweep(cfg, [{"id": "fwd", "site_subset": ["fwd_x", "fwd_w"]}])
    direct = tr.train(dataclasses.replace(
        cfg, site_subset=("fwd_x", "fwd_w"), out_dir=str(tmp_path / "direct")))
    assert rows[0]["final_val_loss"] == direct.final_val_loss
    for name in ("metrics.csv", "oscillation.csv"):
        assert ((tmp_path / "sweep" / "fwd" / name).read_bytes()
                == (tmp_path / "direct" / name).read_bytes())


def test_sweep_checks_every_variant_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(tr, "train", lambda cfg: calls.append(cfg))
    bad = {"id": "b", "optimizer": {"lr": 5e-3, "bogus": 1}}
    with pytest.raises(ValueError, match=r"subset 1: optimizer \(AdamW\): unknown keys \['bogus'\]"):
        tr.loss_decomposition_sweep(mlp_cfg(), [{"id": "a"}, bad])
    assert calls == []


def test_sweep_rejects_unknown_sites_and_tags():
    with pytest.raises(ValueError):
        tr.loss_decomposition_sweep(mlp_cfg(), [{"id": "x", "site_subset": ["fwd_q"]}])
    with pytest.raises(ValueError):
        tr.loss_decomposition_sweep(mlp_cfg(), [{"id": "x", "exclude_tags": ["fc9"]}])


@pytest.mark.parametrize("subsets, named", [
    ([1], "subset 0 must be an object"),
    ([{"id": "a", "site_subset": []}, "b"], "subset 1 must be an object"),
    ([{"id": "a", "site_subset": 5}], "subset 0: site_subset must be a list of strings"),
    ([{"id": "a", "site_subset": "fwd_x"}], "subset 0: site_subset must be a list of strings"),
    ([{"id": "a", "site_subset": [1]}], "subset 0: site_subset must be a list of strings"),
    ([{"id": "a", "site_subset": ["fwd_x", "fwd_x"]}], "subset 0: site_subset names a value twice"),
    ([{"id": "a", "site_subset": ["fwd_q"]}], r"subset 0: site_subset names unknown \['fwd_q'\]"),
    ([{"id": "a", "exclude_tags": 7}], "subset 0: exclude_tags must be a list of strings"),
    ([{"id": "a"}, {"id": "b", "exclude_tags": [None]}],
     "subset 1: exclude_tags must be a list of strings"),
    ([{"id": "a"}, {"id": "b", "sites": []}], r"subset 1: .*unknown keys \['sites'\]"),
    ([{"id": "a", "out_dir": "elsewhere"}], "subset 0: out_dir is set by the sweep"),
    ([{"id": "a"}, {"id": "a"}], "subset 1: duplicate id 'a'"),
    ([{"id": "a"}, {"id": "b", "exclude_tags": ["fc9"]}],
     r"subset 1: exclude_tags \['fc9'\] are not layers of this model"),
    ([{"id": "a"}, {"id": "b", "model": {"kind": "mlp", "widths": [16, 32, 7]}}],
     "subset 1: MLP widths .* do not match the task's 64 -> 8"),
    ([{"id": "a", "model": None}], "subset 0: model must be an object, got None"),
], ids=["int", "str-second", "sites-int", "sites-str", "sites-int-item", "sites-duplicate",
        "sites-unknown", "exclude-int",
        "exclude-null-item", "unknown-key", "out-dir", "duplicate-id", "exclude-unknown-tag",
        "model-task-mismatch", "null-model"])
def test_sweep_rejects_malformed_entries_by_index(monkeypatch, subsets, named):
    calls = []
    monkeypatch.setattr(tr, "train", lambda cfg: calls.append(cfg))
    with pytest.raises(ValueError, match=named):
        tr.loss_decomposition_sweep(mlp_cfg(), subsets)
    assert calls == []


# ── transformer smoke ────────────────────────────────────────────────────────


def test_transformer_run_smoke(tmp_path):
    report = tr.train(transformer_cfg(tmp_path))
    assert len(report.rows) == 12
    assert np.isfinite(report.final_train_loss)
    assert np.isfinite(report.final_val_loss)
    assert report.clamp_total >= 0


@pytest.mark.parametrize("preset, started", [("fp4-rtn", 0), ("fp4-base", 6)])
def test_train_starts_draw_threads_only_for_stochastic_steps(monkeypatch, preset, started):
    threads, starts = threading.active_count(), []
    thread_start = threading.Thread.start

    def start(self):
        starts.append(self.name)
        thread_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    tr.train(mlp_cfg(preset=preset,
                     schedule={"warmup_steps": 2, "total_steps": 6, "floor_lr": 0.0}))
    assert starts == ["draw-ahead_0"] * started  # one worker per step
    assert threading.active_count() == threads


def test_only_the_draw_fill_runs_off_the_calling_thread():
    """perfbench's tracer keeps one span stack for every thread, so no
    function of this package may run on another one."""
    caller, elsewhere = threading.get_ident(), set()

    def profile(frame, event, arg):
        if threading.get_ident() != caller:
            elsewhere.add((frame.f_globals.get("__name__", ""), frame.f_code.co_name))

    threading.setprofile(profile)
    try:
        tr.train(mlp_cfg(preset="fp4-base",
                         schedule={"warmup_steps": 2, "total_steps": 3, "floor_lr": 0.0}))
    finally:
        threading.setprofile(None)
    assert elsewhere  # the profile saw the worker
    assert [f for f in elsewhere if f[0].startswith("nvfp4sim")] == []


# ── the step contract ────────────────────────────────────────────────────────


def test_each_step_asks_for_its_train_batch_first_and_updates_params_in_place(monkeypatch):
    """perfbench opens a step when ``task.batch("train", step, ...)`` is called
    and digests the dict ``init_params`` returned, so both must hold."""
    events, kept, last_val = [], [], {}
    batch, backward = tasks.SyntheticRegression.batch, models.MLP.loss_and_grads
    forward, init = models.MLP.forward_loss, models.MLP.init_params

    def spy_batch(self, split, step, *args, **kwargs):
        if split == "train":
            events.append(("batch", step))
        return batch(self, split, step, *args, **kwargs)

    def spy_backward(self, *args, step, **kwargs):
        events.append(("backward", step))
        return backward(self, *args, step=step, **kwargs)

    def spy_forward(self, params, val_batch, cfgs, step):
        last_val.update(cfgs=cfgs, step=step)
        return forward(self, params, val_batch, cfgs, step)

    def spy_init(self, seed):
        kept.append(init(self, seed))
        return kept[-1]

    monkeypatch.setattr(tasks.SyntheticRegression, "batch", spy_batch)
    monkeypatch.setattr(models.MLP, "loss_and_grads", spy_backward)
    monkeypatch.setattr(models.MLP, "forward_loss", spy_forward)
    monkeypatch.setattr(models.MLP, "init_params", spy_init)
    cfg = suppressed_cfg(outlier_ratio=12.5)
    report = tr.train(cfg)

    # step 0 is the outlier calibration batch, which opens no step
    steps = range(1, cfg.total_steps + 1)
    assert events == [("batch", 0)] + [e for s in steps for e in (("batch", s), ("backward", s))]
    # the dict init_params returned holds the weights the final validation saw
    (params,) = kept
    assert last_val["step"] == cfg.total_steps
    task = tasks.SyntheticRegression(**{k: v for k, v in cfg.task.items() if k != "kind"})
    model = models.MLP(widths=cfg.model["widths"])
    vals = [float(forward(model, params, batch(task, "val", v, cfg.batch_size, cfg.seed),
                          last_val["cfgs"], cfg.total_steps))
            for v in range(cfg.val_batches)]
    assert float(np.mean(vals)) == report.final_val_loss
    assert report.total_resets > 0  # the resets wrote into the same dict


@pytest.mark.parametrize("kind", ["mlp-fp4-full", "transformer-fp32"])
def test_step_gradients_live_until_the_next_backward_returns(tmp_path, monkeypatch, kind):
    # Dropped at the step's end instead, the next backward faults their pages
    # in again: keep them until it has made its own.
    prev, alive_in_backward, dead_at_update = [], [], []
    backwards = {cls: cls.loss_and_grads for cls in (models.MLP, models.TinyTransformer)}
    adamw_step = optim.AdamW.step

    def spy_backward(self, *args, **kwargs):
        out = backwards[type(self)](self, *args, **kwargs)
        alive_in_backward.append(all(r() is not None for r in prev))
        return out

    def spy_update(self, grads, lr):
        dead_at_update.append(all(r() is None for r in prev))
        prev[:] = [weakref.ref(g) for g in grads.values()]
        return adamw_step(self, grads, lr)

    for cls in backwards:
        monkeypatch.setattr(cls, "loss_and_grads", spy_backward)
    monkeypatch.setattr(optim.AdamW, "step", spy_update)
    sched = {"warmup_steps": 2, "total_steps": 6, "floor_lr": 0.0}
    if kind == "mlp-fp4-full":
        cfg = mlp_cfg(schedule=sched)
    else:
        cfg = transformer_cfg(tmp_path, preset="fp32", schedule=sched)
    tr.train(cfg)
    assert prev and alive_in_backward == [True] * 6 and dead_at_update == [True] * 6
    assert all(r() is None for r in prev)  # the run's record is gone


# ── byte pins of whole stochastic runs ───────────────────────────────────────
# Recorded before the stochastic-rounding draws moved to a second thread: a
# step's draws must reach each rounding site in the order one generator makes
# them, so both runs below must keep these bytes whatever produces the draws.

TRAIN_SHA256 = {
    "transformer-fp4-full": {
        "metrics.csv": "eec6696eb30878967e5021621182a0b1c0945baadebf353b166b9b75af34c060",
        "oscillation.csv": "f8f8b99220acb771957af65fd56a6c5f9b335d887bdcf7e365ccf677c036d2ff",
        "params": "df28298344692fea9edc70c7770cf426a7d694ba5d33d33b31b2abb4dcb74b3b",
    },
    "mlp-fp4-base": {
        "metrics.csv": "2f657f1a1017e08ab2b5ba1e658002753a5dc9f2568289eef19645b06c2bb1f3",
        "oscillation.csv": "91267dd3efa3c402d9288107fa9db0d6bc0b939bb884cc161c5761244ec9583d",
        "params": "d4fa30f43786fd5ce7602fb0e2005fb7fc49c94160207ee83c1339338df21ab8",
    },
    # recorded while each site's element format was a field of its own: one
    # precision mode per layer recipe must give these runs the same bytes
    "mlp-switch-fp6xfp4-e2m3": {
        "metrics.csv": "06260c8b5f414daf4d4b42d680fe642797f1d2e0d06e21430b56dcd2a6c5fc42",
        "oscillation.csv": "2c2c964f6881d1a2b3e20c8eb0e421f837de17bf4018281bf75b8ff397b6b875",
        "params": "ca9e5b69d99723bf8089d8294bbcc8d3e81c0276f25f6f97c87beb7e7e1c3350",
    },
    "mlp-switch-fp6xfp6": {
        "metrics.csv": "5ab9e4cd32d8a4a67f32f7814d141ed5a0d51bb8af6a2f31c74084f80bd7b87c",
        "oscillation.csv": "16c5aeb89940a51d3b3b8c08868a1289c4a464d1b09102138819ffeee1bb189a",
        "params": "9f7ffd01e193145ae8aa4ed45582cc434d848b2900fefb0bce97c301c15587a2",
    },
    # recorded while each site had a boolean field of its own: naming the
    # quantized sites as one set must give this run the same bytes
    "mlp-site-subset": {
        "metrics.csv": "30067be486cedc491e64e5cb88c90d80cab6a036dd67679df63c959e024e0c55",
        "oscillation.csv": "91267dd3efa3c402d9288107fa9db0d6bc0b939bb884cc161c5761244ec9583d",
        "params": "2af152a4726f8e9f51bcb6b591c7dad9adf2b60861d94f9af23e9e4d6f8a1e6d",
    },
}


def _pinned_run_cfg(name, tmp_path):
    out_dir = str(tmp_path / name)
    if name == "transformer-fp4-full":
        return transformer_cfg(
            tmp_path, preset="fp4-full", out_dir=out_dir, outlier_ratio=6.25,
            suppression=osc.SuppressionSchedule(t_max=12, t_start=2, t_period=4,
                                                t_accu=1, tau_osci=0.5),
        )
    run = dict(preset="fp4-base", out_dir=out_dir,
               schedule={"warmup_steps": 5, "total_steps": 20, "floor_lr": 0.0})
    if name == "mlp-fp4-base":
        return mlp_cfg(**run)
    if name == "mlp-site-subset":
        return mlp_cfg(**run, site_subset=("fwd_x", "w_for_dx"), exclude_tags=("fc1",))
    # a switch at step 10, inside the window that opens at step 8 and resets
    # at step 14: e2m3xe2m1 keeps the weight's trackers, e3m2xe3m2 drops them
    mode = {"mlp-switch-fp6xfp4-e2m3": "e2m3xe2m1", "mlp-switch-fp6xfp6": "e3m2xe3m2"}[name]
    return mlp_cfg(**run, switch_step=9, switch_mode=mode,
                   suppression=osc.SuppressionSchedule(t_max=20, t_start=1, t_period=8,
                                                       t_accu=5, tau_osci=0.5))


@pytest.mark.parametrize("name", sorted(TRAIN_SHA256))
def test_stochastic_train_keeps_its_bytes(tmp_path, monkeypatch, name):
    kept = []
    for cls in (models.MLP, models.TinyTransformer):
        def init_params(self, seed, _init=cls.init_params):
            kept.append(_init(self, seed))  # the optimizer updates it in place
            return kept[-1]
        monkeypatch.setattr(cls, "init_params", init_params)
    cfg = _pinned_run_cfg(name, tmp_path)
    tr.train(cfg)
    (params,) = kept
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(params[key].tobytes())
    got = {f: hashlib.sha256((Path(cfg.out_dir) / f).read_bytes()).hexdigest()
           for f in ("metrics.csv", "oscillation.csv")}
    got["params"] = h.hexdigest()
    assert got == TRAIN_SHA256[name]
