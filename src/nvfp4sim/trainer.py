"""Desk-scale training harness for the quantized linear stack.

One :class:`TrainRunConfig` describes a full run: model, task, AdamW with a
warmup-then-cosine schedule, the per-layer quantization recipe (preset plus
overrides), optional outlier-channel retention, optional oscillation
suppression, and an optional mid-run precision switch.  ``train`` executes it
step by step — batch, quantized forward/backward, optimizer update on the
binary32 master weights, suppression hook — and returns a :class:`RunReport`;
with ``out_dir`` set it also writes ``config.json``, ``metrics.csv`` and
``oscillation.csv``.  Every random draw derives from ``cfg.seed`` through
named counter streams, so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import fpcodec as fc
from . import models, optim
from . import oscillation as osc
from . import qlinear as ql
from . import tasks

__all__ = [
    "EXPORT_THRESHOLDS",
    "METRICS_SCHEMA",
    "OSCILLATION_SCHEMA",
    "TrainDivergedError",
    "TrainRunConfig",
    "MasterState",
    "RunReport",
    "train",
    "precision_switch_run",
    "loss_decomposition_sweep",
    "save_state",
    "load_state",
]

# risk thresholds exported per window; 16 is the measurement threshold used
# by the oscillating-fraction analyses, separate from the action threshold
# tau_osci in the suppression schedule
EXPORT_THRESHOLDS = (2.0, 4.0, 8.0, 16.0, 32.0)

METRICS_SCHEMA = "train-metrics-v1"
OSCILLATION_SCHEMA = "oscillation-v2"

_MODEL_KINDS = ("mlp", "tiny-transformer")
_TASK_KINDS = ("synthetic-regression", "char-lm")


class TrainDivergedError(RuntimeError):
    """Loss became non-finite; ``diagnostics`` holds the dump that was written."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def _freeze(value):
    """Recursively turn lists into tuples so configs compare and hash stably."""
    if isinstance(value, Mapping):
        return {k: _freeze(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` for JSON emission (tuples back to lists)."""
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclasses.dataclass(frozen=True)
class TrainRunConfig:
    """Everything needed to reproduce one training run from a seed."""

    model: Mapping
    task: Mapping
    optimizer: Mapping
    schedule: Mapping
    batch_size: int
    seed: int
    preset: str = "fp4-full"
    suppression: Optional[osc.SuppressionSchedule] = None
    out_dir: Optional[str] = None
    apply_resets: bool = True
    val_every: int = 200
    val_batches: int = 4
    outlier_ratio: float = 0.0
    outlier_style: str = "largest-norm"
    outlier_precision: str = "e4m3"
    cfg_overrides: Mapping = dataclasses.field(default_factory=dict)
    site_subset: Optional[Tuple[str, ...]] = None
    exclude_tags: Tuple[str, ...] = ()
    switch_step: Optional[int] = None
    switch_mode: Optional[str] = None

    def __post_init__(self):
        for name in ("model", "task", "optimizer", "schedule", "cfg_overrides"):
            object.__setattr__(self, name, _freeze(dict(getattr(self, name))))
        if self.site_subset is not None:
            object.__setattr__(self, "site_subset", tuple(self.site_subset))
        object.__setattr__(self, "exclude_tags", tuple(self.exclude_tags))
        if isinstance(self.suppression, Mapping):
            object.__setattr__(
                self, "suppression", osc.SuppressionSchedule.from_dict(dict(self.suppression))
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.val_every < 1:
            raise ValueError("val_every must be >= 1")
        if self.val_batches < 1:
            raise ValueError("val_batches must be >= 1")
        if not 0.0 <= self.outlier_ratio <= 100.0:
            raise ValueError("outlier_ratio is a percentage in [0, 100]")
        total = int(self.schedule.get("total_steps", 0))
        if total < 1:
            raise ValueError("schedule.total_steps must be >= 1")
        if self.suppression is not None and self.suppression.t_max != total:
            raise ValueError(
                f"suppression.t_max ({self.suppression.t_max}) must equal "
                f"schedule.total_steps ({total})"
            )
        if (self.switch_step is None) != (self.switch_mode is None):
            raise ValueError("switch_step and switch_mode must be set together")
        if self.switch_step is not None:
            if not 0 <= self.switch_step <= total:
                raise ValueError(
                    f"switch_step must lie in [0, total_steps={total}], "
                    f"got {self.switch_step}"
                )
            ql.PrecisionMode(self.switch_mode)  # raises ValueError on bad mode

    @property
    def total_steps(self) -> int:
        return int(self.schedule["total_steps"])

    def to_dict(self) -> dict:
        return _thaw(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrainRunConfig":
        return cls(**d)


@dataclasses.dataclass
class MasterState:
    """The full-precision side of a run: what the optimizer owns.

    Quantized weights are never stored — they are recomputed from ``params``
    and live scales wherever needed.  ``trackers`` are in-memory handles and
    are not serialized.
    """

    params: Dict[str, np.ndarray]
    opt: optim.AdamW
    step: int
    trackers: Dict[str, osc.OscillationTracker]


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Outcome of one training run; files are written only with ``out_dir``."""

    config: TrainRunConfig
    steps_run: int
    losses: Tuple[float, ...]
    val_records: Tuple[Tuple[int, float], ...]
    reset_records: Tuple[Tuple[int, int], ...]
    osci_rows: Tuple[dict, ...]
    outlier_channels: Dict[str, Tuple[int, ...]]
    total_resets: int
    clamp_total: int
    out_dir: Optional[str]

    @property
    def final_train_loss(self) -> float:
        return self.losses[-1]

    @property
    def final_val_loss(self) -> float:
        return self.val_records[-1][1]


# ── construction from config ─────────────────────────────────────────────────


def _build_task(cfg: TrainRunConfig):
    spec = dict(cfg.task)
    kind = spec.pop("kind", None)
    if kind == "synthetic-regression":
        return tasks.SyntheticRegression(**spec)
    if kind == "char-lm":
        spec["corpus_path"] = spec.pop("corpus_path")
        return tasks.CharLM(**spec)
    raise ValueError(f"unknown task kind {kind!r}; choose from {_TASK_KINDS}")


def _build_model(cfg: TrainRunConfig, task):
    spec = dict(cfg.model)
    kind = spec.pop("kind", None)
    if kind == "mlp":
        if task.kind != "synthetic-regression":
            raise ValueError("the MLP trains on the synthetic-regression task")
        model = models.MLP(**spec)
        if model.widths[0] != task.in_dim or model.widths[-1] != task.out_dim:
            raise ValueError(
                f"MLP widths {model.widths} do not match the task's "
                f"{task.in_dim} -> {task.out_dim}"
            )
        return model
    if kind == "tiny-transformer":
        if task.kind != "char-lm":
            raise ValueError("the transformer trains on the char-lm task")
        declared = spec.pop("vocab", None)
        if declared is not None and int(declared) != task.vocab:
            raise ValueError(
                f"model declares vocab {declared} but the corpus has {task.vocab}"
            )
        model = models.TinyTransformer(vocab=task.vocab, **spec)
        if model.seq_len != task.seq_len:
            raise ValueError(
                f"model seq_len {model.seq_len} does not match task "
                f"seq_len {task.seq_len}"
            )
        return model
    raise ValueError(f"unknown model kind {kind!r}; choose from {_MODEL_KINDS}")


def _site_flags(enabled_sites) -> dict:
    return {f"quantize_{s}": (s in enabled_sites) for s in ql.QUANTIZER_SITES}


def _validate_sites(sites) -> Tuple[str, ...]:
    sites = tuple(sites)
    unknown = [s for s in sites if s not in ql.QUANTIZER_SITES]
    if unknown:
        raise ValueError(
            f"unknown quantizer sites {unknown}; valid sites are "
            f"{list(ql.QUANTIZER_SITES)}"
        )
    return sites


def _build_layer_cfgs(model, task, params, cfg: TrainRunConfig):
    """Per-tag layer recipes plus the selected outlier channels per tag."""
    base = ql.preset(cfg.preset)
    valid_fields = {f.name for f in dataclasses.fields(ql.LayerQuantConfig)}
    unknown = set(cfg.cfg_overrides) - valid_fields
    if unknown:
        raise ValueError(
            f"cfg_overrides has unknown LayerQuantConfig fields {sorted(unknown)}"
        )
    if cfg.site_subset is not None:
        _validate_sites(cfg.site_subset)
    bad_tags = [t for t in cfg.exclude_tags if t not in model.quant_tags()]
    if bad_tags:
        raise ValueError(
            f"exclude_tags {bad_tags} are not layers of this model; "
            f"tags are {list(model.quant_tags())}"
        )

    cfgs = {}
    for tag in model.quant_tags():
        c = dataclasses.replace(
            base, layer_tag=tag, rht_seed=cfg.seed, **dict(cfg.cfg_overrides)
        )
        if cfg.site_subset is not None:
            c = dataclasses.replace(c, **_site_flags(cfg.site_subset))
        if tag in cfg.exclude_tags:
            c = dataclasses.replace(c, **_site_flags(()))
        cfgs[tag] = c

    outlier_channels: Dict[str, Tuple[int, ...]] = {}
    wants_outliers = cfg.outlier_ratio > 0.0
    if wants_outliers:
        eligible = [
            tag
            for tag, c in cfgs.items()
            if any(getattr(c, f"quantize_{s}") for s in ql.QUANTIZER_SITES)
        ]
        if eligible:
            calib = task.batch("train", 0, cfg.batch_size, cfg.seed)
            bypass = {
                t: dataclasses.replace(ql.preset("fp32"), layer_tag=t)
                for t in model.quant_tags()
            }
            acts = model.input_acts(params, calib, bypass, step=0)
            for tag in eligible:
                oc = ql.select_outlier_channels(
                    [acts[tag]],
                    cfg.outlier_ratio,
                    cfg.outlier_style,
                    seed=cfg.seed,
                    precision=cfg.outlier_precision,
                )
                outlier_channels[tag] = oc.channels
                if oc.channels:
                    cfgs[tag] = dataclasses.replace(cfgs[tag], outlier=oc)
    return cfgs, outlier_channels


def _tracked_views(model, cfgs):
    """Weight-quantizer views per tag, matching each layer's forward recipe."""
    views = {}
    for tag, c in cfgs.items():
        if c.quantize_fwd_w:
            views[tag] = osc.double_block_weight_view(
                c.weight_block,
                outer=c.outer_granularity,
                element_fmt=c.format_fwd_w,
            )
    return views


# ── metric formatting ────────────────────────────────────────────────────────


def _fmt(x: float) -> str:
    return "%.9g" % float(x)


def _write_metrics(out: Path, rows) -> None:
    lines = [f"#schema={METRICS_SCHEMA}"]
    lines.append("step,train_loss,val_loss,lr,resets,clamp_events")
    for step, loss, val, lr, resets, clamps in rows:
        val_cell = _fmt(val) if val is not None else ""
        lines.append(
            f"{step},{_fmt(loss)},{val_cell},{_fmt(lr)},{resets},{clamps}"
        )
    out.write_text("\n".join(lines) + "\n", encoding="ascii")


_OSCI_COLUMNS = (
    ["step", "layer", "n_elements", "n_risk_ge_tau", "n_reset", "max_risk",
     "mean_risk"]
    + [f"n_gt_{t:g}" for t in EXPORT_THRESHOLDS]
)


def _write_oscillation(out: Path, rows) -> None:
    lines = [f"#schema={OSCILLATION_SCHEMA}", ",".join(_OSCI_COLUMNS)]
    for row in rows:
        cells = []
        for col in _OSCI_COLUMNS:
            v = row[col]
            cells.append(_fmt(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    out.write_text("\n".join(lines) + "\n", encoding="ascii")


def _window_row(step: int, tag: str, tracker, tau: float, n_reset: int) -> dict:
    risks = osc.osci_risk(tracker)
    row = {
        "step": step,
        "layer": tag,
        "n_elements": int(risks.size),
        # oscillation_suppress resets by the same >= test: n_reset <= this
        "n_risk_ge_tau": int(np.count_nonzero(risks >= np.float32(tau))),
        "n_reset": n_reset,
        "max_risk": float(risks.max()) if risks.size else 0.0,
        "mean_risk": float(risks.mean()) if risks.size else 0.0,
    }
    for t in EXPORT_THRESHOLDS:
        row[f"n_gt_{t:g}"] = int(np.count_nonzero(risks > np.float32(t)))
    return row


# ── the training loop ────────────────────────────────────────────────────────


def _val_steps(cfg: TrainRunConfig) -> set:
    total = cfg.total_steps
    if cfg.suppression is not None:
        phase = cfg.suppression.t_accu + 1
        steps = {s for s in range(1, total + 1) if s % cfg.suppression.t_period == phase}
    else:
        steps = {s for s in range(1, total + 1) if s % cfg.val_every == 0}
    steps.add(total)
    return steps


def _validation_loss(model, task, params, cfgs, cfg, step) -> float:
    vals = []
    for v in range(cfg.val_batches):
        batch = task.batch("val", v, cfg.batch_size, cfg.seed)
        loss, _ = model.forward_loss(params, batch, cfgs, step=step)
        vals.append(float(loss))
    return float(np.mean(vals))


def _max_abs_grad(grads) -> float:
    worst = 0.0
    for g in grads.values():
        m = float(np.max(np.abs(g))) if g.size else 0.0
        if not math.isfinite(m):
            return float("inf")
        worst = max(worst, m)
    return worst


def train(cfg: TrainRunConfig) -> RunReport:
    """Run the configured training end to end; see the module docstring."""
    task = _build_task(cfg)
    model = _build_model(cfg, task)
    out_path = None
    if cfg.out_dir is not None:
        out_path = Path(cfg.out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "config.json").write_text(
            json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )

    sched = optim.CosineSchedule(
        peak_lr=float(cfg.optimizer["lr"]),
        warmup_steps=int(cfg.schedule.get("warmup_steps", 0)),
        total_steps=cfg.total_steps,
        floor_lr=float(cfg.schedule.get("floor_lr", 0.0)),
    )
    params = model.init_params(cfg.seed)
    opt = optim.AdamW(
        params,
        betas=tuple(cfg.optimizer.get("betas", (0.9, 0.95))),
        weight_decay=float(cfg.optimizer.get("weight_decay", 0.0)),
    )
    base_cfgs, outlier_channels = _build_layer_cfgs(model, task, params, cfg)
    switched_cfgs = None
    if cfg.switch_mode is not None:
        switched_cfgs = {
            t: ql.set_precision_mode(c, cfg.switch_mode)
            for t, c in base_cfgs.items()
        }

    track = cfg.suppression is not None
    base_views = _tracked_views(model, base_cfgs) if track else {}
    switched_views = (
        _tracked_views(model, switched_cfgs) if track and switched_cfgs else {}
    )
    state = MasterState(params=params, opt=opt, step=0, trackers={})

    val_steps = _val_steps(cfg)
    losses = []
    val_records = []
    reset_records = []
    osci_rows = []
    metric_rows = []
    clamp_total = 0
    total_resets = 0

    for step in range(1, cfg.total_steps + 1):
        in_switched = cfg.switch_step is not None and step > cfg.switch_step
        cfgs = switched_cfgs if in_switched else base_cfgs
        views = switched_views if in_switched else base_views

        batch = task.batch("train", step, cfg.batch_size, cfg.seed)
        lr = sched.lr_at(step)
        rng = fc.stream(cfg.seed, "sr", step)
        loss, grads, aux = model.loss_and_grads(params, batch, cfgs, step=step, rng=rng)
        loss_f = float(loss)
        if not math.isfinite(loss_f):
            diagnostics = {
                "step": step,
                "lr": lr,
                "max_abs_grad": _max_abs_grad(grads),
                "clamp_events": {
                    "total": int(aux["clamp_events"]),
                    "by_layer": {k: int(v) for k, v in aux["clamp_by_layer"].items()},
                },
            }
            if out_path is not None:
                (out_path / "diverged.json").write_text(
                    json.dumps(diagnostics, indent=2, sort_keys=True) + "\n",
                    encoding="ascii",
                )
            raise TrainDivergedError(
                f"loss became non-finite at step {step}", diagnostics
            )
        losses.append(loss_f)
        clamp_total += int(aux["clamp_events"])
        opt.step(grads, lr)
        state.step = step

        resets_this = 0
        if track:
            decision = osc.suppression_hook(step, cfg.suppression)
            if decision.action is osc.HookAction.ACCUMULATE:
                for tag, view in views.items():
                    w = params[model.weight_param(tag)]
                    tracker = state.trackers.get(tag)
                    if tracker is None:
                        tracker = osc.OscillationTracker.zeros(w.shape)
                        state.trackers[tag] = tracker
                    osc.update_oscillation_stats(w, view, tracker, decision.t0)
            elif decision.action is osc.HookAction.SUPPRESS:
                for tag, view in views.items():
                    tracker = state.trackers.get(tag)
                    if tracker is None:
                        continue
                    n_reset = 0
                    if cfg.apply_resets:
                        name = model.weight_param(tag)
                        new_w, n_reset = osc.oscillation_suppress(
                            params[name], view, tracker, cfg.suppression.tau_osci
                        )
                        params[name][...] = new_w
                    osci_rows.append(
                        _window_row(step, tag, tracker, cfg.suppression.tau_osci, n_reset)
                    )
                    resets_this += n_reset
                if resets_this or cfg.apply_resets:
                    reset_records.append((step, resets_this))
                total_resets += resets_this

        val_loss = None
        if step in val_steps:
            val_loss = _validation_loss(model, task, params, cfgs, cfg, step)
            val_records.append((step, val_loss))
        metric_rows.append(
            (step, loss_f, val_loss, lr, resets_this, int(aux["clamp_events"]))
        )

    if out_path is not None:
        _write_metrics(out_path / "metrics.csv", metric_rows)
        _write_oscillation(out_path / "oscillation.csv", osci_rows)

    return RunReport(
        config=cfg,
        steps_run=cfg.total_steps,
        losses=tuple(losses),
        val_records=tuple(val_records),
        reset_records=tuple(reset_records),
        osci_rows=tuple(osci_rows),
        outlier_channels=outlier_channels,
        total_resets=total_resets,
        clamp_total=clamp_total,
        out_dir=cfg.out_dir,
    )


def precision_switch_run(
    cfg: TrainRunConfig, switch_step: int, mode: str
) -> RunReport:
    """Train in the base recipe until ``switch_step``, then in ``mode``.

    ``switch_step == total_steps`` degenerates to the plain run (the switch
    never takes effect), which makes unswitched/switched comparisons share
    one code path.
    """
    return train(
        dataclasses.replace(cfg, switch_step=int(switch_step), switch_mode=str(mode))
    )


def loss_decomposition_sweep(
    cfg: TrainRunConfig, subsets: Sequence[Mapping]
) -> list:
    """One run per quantizer-site subset (or module exclusion), same seed.

    Each subset is a mapping with an ``id`` and either ``sites`` (the enabled
    quantizer sites) or ``exclude`` (layer tags forced to the bypass path).
    Returns one row per subset with final losses and the delta against the
    all-bypass reference run.
    """
    seen = set()
    prepared = []
    for spec in subsets:
        sid = str(spec.get("id", "")).strip()
        if not sid or "/" in sid or "\\" in sid:
            raise ValueError(f"subset id {sid!r} must be a non-empty path-safe name")
        if sid in seen:
            raise ValueError(f"duplicate subset id {sid!r}")
        seen.add(sid)
        sites = spec.get("sites")
        exclude = tuple(spec.get("exclude", ()))
        if sites is not None:
            sites = _validate_sites(sites)
        run_cfg = dataclasses.replace(
            cfg,
            site_subset=sites if sites is not None else cfg.site_subset,
            exclude_tags=exclude if exclude else cfg.exclude_tags,
            out_dir=(
                str(Path(cfg.out_dir) / sid) if cfg.out_dir is not None else None
            ),
        )
        prepared.append((sid, run_cfg))

    reference = train(dataclasses.replace(cfg, site_subset=(), out_dir=None))
    rows = []
    for sid, run_cfg in prepared:
        report = train(run_cfg)
        rows.append(
            {
                "subset": sid,
                "final_train_loss": report.final_train_loss,
                "final_val_loss": report.final_val_loss,
                "delta_vs_bypass": report.final_val_loss - reference.final_val_loss,
            }
        )
    return rows


# ── master-state serialization ───────────────────────────────────────────────


def save_state(state: MasterState, path) -> None:
    """Serialize (master weights, AdamW moments, step) to an ``.npz`` file.

    Trackers are transient window accumulators and are not saved; optimizer
    hyperparameters live in the run config, not the state.
    """
    opt = state.opt.state_dict()
    arrays = {"step": np.int64(state.step), "t": np.int64(opt["t"])}
    for prefix, tensors in (("p", state.params), ("m", opt["m"]), ("v", opt["v"])):
        arrays.update({f"{prefix}:{k}": v for k, v in tensors.items()})
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_state(path) -> MasterState:
    """Inverse of :func:`save_state`; the optimizer gets default hyperparameters."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}

    def group(prefix):
        return {k[2:]: v for k, v in arrays.items() if k.startswith(prefix + ":")}

    params = group("p")
    opt = optim.AdamW(params)
    opt.load_state_dict({"t": arrays["t"], "m": group("m"), "v": group("v")})
    return MasterState(params=params, opt=opt, step=int(arrays["step"]), trackers={})
