"""Training-harness tests: loop correctness, determinism, suppression wiring,
precision switching, metrics files, and failure diagnostics."""

import dataclasses
import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

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
        tr.train(mlp_cfg(switch_step=41, switch_mode="fp6xfp4"))
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(switch_step=10))  # mode missing
    with pytest.raises(ValueError):
        tr.train(mlp_cfg(cfg_overrides={"not_a_field": 1}))


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
    val_steps = [s for s, _ in report.val_records]
    assert val_steps == [s for s in range(1, 41) if s % 8 == 4] + [40]


def test_validation_cadence_without_schedule():
    report = tr.train(mlp_cfg(val_every=15))
    val_steps = [s for s, _ in report.val_records]
    assert val_steps == [15, 30, 40]
    assert report.final_val_loss == report.val_records[-1][1]


# ── precision switching ──────────────────────────────────────────────────────


def test_switch_at_total_steps_is_identity():
    plain = tr.train(mlp_cfg(preset="fp4-base"))
    switched = tr.train(mlp_cfg(preset="fp4-base", switch_step=40, switch_mode="fp6xfp4"))
    assert plain.losses == switched.losses
    assert plain.final_val_loss == switched.final_val_loss


def test_switch_changes_trajectory_after_switch_step():
    plain = tr.train(mlp_cfg(preset="fp4-base"))
    switched = tr.train(mlp_cfg(preset="fp4-base", switch_step=20, switch_mode="fp6xfp6"))
    assert plain.losses[:20] == switched.losses[:20]
    assert plain.losses[20:] != switched.losses[20:]


def _spied_switch_run(monkeypatch, mode):
    """Train through a precision switch inside an oscillation window; return,
    per tracked step, the ``(tracker, dist_q after the update)`` of each
    tracked layer in the trainer's order."""
    calls, at = {}, {}
    hook, update = osc.suppression_hook, osc.update_oscillation_stats

    def spy_hook(step, schedule):
        at["step"] = step
        return hook(step, schedule)

    def spy_update(w, view, tracker, t0):
        out = update(w, view, tracker, t0)
        calls.setdefault(at["step"], []).append((tracker, tracker.dist_q.copy()))
        return out

    monkeypatch.setattr(osc, "suppression_hook", spy_hook)
    monkeypatch.setattr(osc, "update_oscillation_stats", spy_update)
    tr.train(mlp_cfg(
        preset="fp4-base", switch_step=17, switch_mode=mode,
        suppression=osc.SuppressionSchedule(t_max=40, t_start=1, t_period=8, t_accu=5),
    ))
    return calls


def test_switch_mid_window_does_not_count_the_format_change(monkeypatch):
    # the window opens at step 16 and the switch takes effect at step 18
    calls = _spied_switch_run(monkeypatch, "fp6xfp6")
    assert len(calls[18]) == len(calls[17]) > 0
    for (tracker, dist_q), (before, _) in zip(calls[18], calls[17]):
        assert tracker is not before
        assert not dist_q.any()  # a fresh tracker only snapshots
    assert all(dist_q.any() for _, dist_q in calls[19])


def test_switch_keeps_trackers_whose_weight_format_stays(monkeypatch):
    # fp6xfp4 leaves the forward weight in FP4, so its view does not change
    calls = _spied_switch_run(monkeypatch, "fp6xfp4")
    assert len(calls[18]) == len(calls[17]) > 0
    for (tracker, _), (before, _) in zip(calls[18], calls[17]):
        assert tracker is before


def test_switch_records_config(tmp_path):
    out = tmp_path / "sw"
    tr.train(mlp_cfg(preset="fp4-base", out_dir=str(out), switch_step=20,
                     switch_mode="fp6xfp4"))
    snap = json.loads((out / "config.json").read_text())
    assert snap["switch_step"] == 20
    assert snap["switch_mode"] == "fp6xfp4"


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


def test_outlier_style_none_retains_nothing():
    report = tr.train(mlp_cfg(outlier_ratio=6.25, outlier_style="none"))
    assert all(len(ch) == 0 for ch in report.outlier_channels.values())


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
    val_steps = {s for s, _ in report.val_records}
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
    ([{"id": "a", "exclude_tags": 7}], "subset 0: exclude_tags must be a list of strings"),
    ([{"id": "a"}, {"id": "b", "exclude_tags": [None]}],
     "subset 1: exclude_tags must be a list of strings"),
    ([{"id": "a"}, {"id": "b", "sites": []}], r"subset 1: .*unknown keys \['sites'\]"),
    ([{"id": "a", "out_dir": "elsewhere"}], "subset 0: out_dir is set by the sweep"),
    ([{"id": "a"}, {"id": "a"}], "subset 1: duplicate id 'a'"),
], ids=["int", "str-second", "sites-int", "sites-str", "sites-int-item", "exclude-int",
        "exclude-null-item", "unknown-key", "out-dir", "duplicate-id"])
def test_sweep_rejects_malformed_entries_by_index(subsets, named):
    with pytest.raises(ValueError, match=named):
        tr.loss_decomposition_sweep(mlp_cfg(), subsets)


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
    assert starts == ["draw-ahead"] * started  # one per step
    assert threading.active_count() == threads


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
}


def _pinned_run_cfg(name, tmp_path):
    out_dir = str(tmp_path / name)
    if name == "transformer-fp4-full":
        return transformer_cfg(
            tmp_path, preset="fp4-full", out_dir=out_dir, outlier_ratio=6.25,
            suppression=osc.SuppressionSchedule(t_max=12, t_start=2, t_period=4,
                                                t_accu=1, tau_osci=0.5),
        )
    return mlp_cfg(preset="fp4-base", out_dir=out_dir,
                   schedule={"warmup_steps": 5, "total_steps": 20, "floor_lr": 0.0})


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
