"""Desk-scale training harness for the quantized linear stack.

One :class:`TrainRunConfig` describes a full run: model, task, AdamW with a
warmup-then-cosine schedule, the per-layer quantization recipe, optional
outlier-channel retention, optional oscillation suppression, and an optional
mid-run precision switch (``switch_step`` and ``switch_mode``: every layer
recipe changes mode once, after ``switch_step``).  The recipe is the preset
with ``cfg_overrides``, which sets any field of it but four; ``site_subset``
sets its ``sites``, and ``exclude_tags`` names the layers that quantize no
site; the trainer sets ``layer_tag``, ``rht_seed`` and ``outlier`` per layer.
Each section takes the keywords of the constructor that consumes it, which is
its one check (``model`` and ``task`` add a ``kind``, and ``model`` takes no
``vocab``, which the corpus decides; ``optimizer`` is AdamW's plus ``lr``, the
peak of the ``schedule``, which is CosineSchedule's).
``train`` builds the run, calls ``_train_step`` once per step and writes the
files.  The run is one record: task, model, the dict ``init_params`` returned,
AdamW, schedule, current layer recipes, oscillation trackers and validation
steps: each ``val_every``-th and the last, but with ``suppression`` set, where
``val_every`` has no effect, each ``t_accu + 1`` past a multiple of ``t_period``
and the last.  A step asks for its train batch first.  Its optimizer update and
resets write the binary32 master weights into that dict in place, and its
tracking and resets build each weight view from the current recipe.  Its
gradients stay in the record until the next backward returns: freed sooner,
their pages fault in again there (6,240 minor faults per ``lm-fp32`` step
against 2,744) to save 2.3 MB of peak RSS.  The returned :class:`RunReport`
derives every total from the steps' :class:`StepRow` rows.  With ``out_dir``
set, ``train`` writes ``config.json``, ``metrics.csv`` (the rows) and
``oscillation.csv``, or ``diverged.json`` at a non-finite loss.  Every random
draw derives from ``cfg.seed`` through named counter streams, so reruns are
byte-identical.  A step's stochastic-rounding draws are made ahead on a second
thread (:func:`~nvfp4sim.fpcodec.draw_ahead`), which is joined before the
step's optimizer update.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import numbers
from pathlib import Path
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    "StepRow",
    "RunReport",
    "train",
    "loss_decomposition_sweep",
    "fmt_num",
    "write_table",
    "write_json",
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
    """Recursively turn lists into tuples: a config equals its JSON round trip."""
    if isinstance(value, Mapping):
        return {k: _freeze(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclasses.dataclass(frozen=True)
class TrainRunConfig:
    """Everything needed to reproduce one training run from a seed; building
    it checks every setting but the model, task and ``exclude_tags``.
    ``outlier_style`` and ``outlier_precision`` act only when
    ``outlier_ratio`` is above 0."""

    model: Mapping
    task: Mapping
    optimizer: Mapping
    schedule: Mapping
    batch_size: int
    seed: int
    preset: str = "fp4-base"
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
            if not isinstance(getattr(self, name), Mapping):
                raise ValueError(f"{name} must be an object, got {getattr(self, name)!r}")
            object.__setattr__(self, name, _freeze(dict(getattr(self, name))))
        if self.site_subset is not None:  # kept in the order given, as config.json shows it
            ql.name_set("site_subset", self.site_subset, ql.QUANTIZER_SITES)
            object.__setattr__(self, "site_subset", tuple(self.site_subset))
        tags = self.exclude_tags
        if not (isinstance(tags, (list, tuple)) and all(isinstance(t, str) for t in tags)):
            raise ValueError(f"exclude_tags must be a list of strings, got {tags!r}")
        object.__setattr__(self, "exclude_tags", tuple(tags))
        if isinstance(self.suppression, Mapping):
            object.__setattr__(self, "suppression", _construct(
                osc.SuppressionSchedule, dict(self.suppression), "suppression"))
        elif not isinstance(self.suppression, (osc.SuppressionSchedule, type(None))):
            raise ValueError(f"suppression must be an object, got {self.suppression!r}")
        for name in ("batch_size", "seed", "val_every", "val_batches", "switch_step"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "switch_step" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if type(self.apply_resets) is not bool:
            raise ValueError(f"apply_resets must be true or false, got {self.apply_resets!r}")
        for name in ("batch_size", "val_every", "val_batches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        ratio = self.outlier_ratio
        if (not isinstance(ratio, numbers.Real) or isinstance(ratio, bool)
                or not 0.0 <= ratio <= 100.0):
            raise ValueError(f"outlier_ratio is a percentage in [0, 100], got {ratio!r}")
        styles = tuple(s.value for s in ql.OutlierStyle)
        for name, valid in (("outlier_precision", ql.OUTLIER_PRECISIONS),
                            ("outlier_style", styles)):
            if getattr(self, name) not in valid:
                raise ValueError(
                    f"{name} must be one of {valid}, got {getattr(self, name)!r}"
                )
        # the trainer sets layer_tag, rht_seed and outlier per layer, and sites
        # from site_subset and exclude_tags
        settable = [f.name for f in dataclasses.fields(ql.LayerQuantConfig)
                    if f.name not in ("layer_tag", "rht_seed", "outlier", "sites")]
        bad = sorted(set(self.cfg_overrides) - set(settable))
        if bad:
            raise ValueError(f"cfg_overrides sets {bad}; it takes {settable}")
        _layer_recipe(self)  # checks the preset and the override values
        total = _build_optim(self, {})[1].total_steps
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
            modes = [m.value for m in ql.PrecisionMode]
            if self.switch_mode not in modes:
                raise ValueError(f"switch_mode must be one of {modes}, got {self.switch_mode!r}")

    @property
    def total_steps(self) -> int:
        return self.schedule["total_steps"]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrainRunConfig":
        return _construct(cls, dict(d), "config")


class StepRow(NamedTuple):
    """One training step; the fields are the columns of ``metrics.csv``."""

    step: int
    train_loss: float
    val_loss: Optional[float]  # None off the validation cadence
    lr: float
    resets: int
    clamp_events: int


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Outcome of one training run: one row per step plus the window exports."""

    config: TrainRunConfig
    rows: Tuple[StepRow, ...]
    osci_rows: Tuple[dict, ...]
    outlier_channels: Dict[str, Tuple[int, ...]]

    @property
    def losses(self) -> Tuple[float, ...]:
        return tuple(r.train_loss for r in self.rows)

    @property
    def clamp_total(self) -> int:
        return sum(r.clamp_events for r in self.rows)

    @property
    def total_resets(self) -> int:
        return sum(r.resets for r in self.rows)

    @property
    def final_train_loss(self) -> float:
        return self.rows[-1].train_loss

    @property
    def final_val_loss(self) -> float:
        return self.rows[-1].val_loss  # the last step always validates


# ── construction from config ─────────────────────────────────────────────────


def _construct(ctor, spec: dict, section: str, **given):
    """``ctor(**spec, **given)``, with a key of ``spec`` that ``ctor`` does not
    take or that ``given`` sets, or a required one missing, rejected as
    ValueError naming the config ``section``."""
    params = inspect.signature(ctor).parameters
    takes = sorted(set(params) - set(given))
    unknown = sorted(set(spec) - set(takes))
    missing = [n for n in takes if params[n].default is params[n].empty and n not in spec]
    if unknown or missing:
        raise ValueError(
            f"{section} ({ctor.__name__}): unknown keys {unknown}, missing keys "
            f"{missing}; it takes {takes}"
        )
    return ctor(**spec, **given)


def _build_optim(cfg: TrainRunConfig, params):
    """AdamW over ``params`` from the ``optimizer`` section, whose ``lr`` is
    the peak of the ``schedule`` section's cosine schedule."""
    spec = dict(cfg.optimizer)
    if "lr" not in spec:
        raise ValueError("optimizer: missing key 'lr', the schedule's peak rate")
    sched = _construct(optim.CosineSchedule, dict(cfg.schedule), "schedule",
                       peak_lr=spec.pop("lr"))
    return _construct(optim.AdamW, spec, "optimizer", params=params), sched


def _build_task(cfg: TrainRunConfig):
    spec = dict(cfg.task)
    kind = spec.pop("kind", None)
    if kind == "synthetic-regression":
        return _construct(tasks.SyntheticRegression, spec, "task")
    if kind == "char-lm":
        path = spec.get("corpus_path")
        if "corpus_path" in spec and not isinstance(path, str):
            raise ValueError(f"task corpus_path must be a string, got {path!r}")
        try:
            return _construct(tasks.CharLM, spec, "task")
        except OSError as exc:
            raise ValueError(f"task corpus_path {path!r}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"task corpus_path {path!r} is not ASCII: {exc}") from None
    raise ValueError(f"unknown task kind {kind!r}; choose from {_TASK_KINDS}")


def _build_model(cfg: TrainRunConfig, task):
    """The configured model, checked against the task and ``exclude_tags``."""
    spec = dict(cfg.model)
    kind = spec.pop("kind", None)
    if kind == "mlp":
        if task.kind != "synthetic-regression":
            raise ValueError("the MLP trains on the synthetic-regression task")
        model = _construct(models.MLP, spec, "model")
        if model.widths[0] != task.in_dim or model.widths[-1] != task.out_dim:
            raise ValueError(
                f"MLP widths {model.widths} do not match the task's "
                f"{task.in_dim} -> {task.out_dim}"
            )
    elif kind == "tiny-transformer":
        if task.kind != "char-lm":
            raise ValueError("the transformer trains on the char-lm task")
        model = _construct(models.TinyTransformer, spec, "model", vocab=task.vocab)
        if model.seq_len != task.seq_len:
            raise ValueError(
                f"model seq_len {model.seq_len} does not match task "
                f"seq_len {task.seq_len}"
            )
    else:
        raise ValueError(f"unknown model kind {kind!r}; choose from {_MODEL_KINDS}")
    bad_tags = [t for t in cfg.exclude_tags if t not in model.quant_tags()]
    if bad_tags:
        raise ValueError(
            f"exclude_tags {bad_tags} are not layers of this model; "
            f"tags are {list(model.quant_tags())}"
        )
    return model


def _layer_recipe(cfg: TrainRunConfig) -> ql.LayerQuantConfig:
    """The preset with ``cfg_overrides`` and then ``site_subset`` applied."""
    recipe = dataclasses.replace(ql.preset(cfg.preset), **cfg.cfg_overrides)
    if cfg.site_subset is not None:
        recipe = dataclasses.replace(recipe, sites=cfg.site_subset)
    return recipe


def _build_layer_cfgs(model, task, params, cfg: TrainRunConfig):
    """Per-tag layer recipes; with ``outlier_ratio`` above 0 each layer that
    quantizes a site retains the channels selected from its input."""
    cfgs = models.uniform_cfgs(model, dataclasses.replace(_layer_recipe(cfg), rht_seed=cfg.seed))
    for tag in cfg.exclude_tags:
        cfgs[tag] = dataclasses.replace(cfgs[tag], sites=())
    eligible = [tag for tag, c in cfgs.items() if c.sites]
    if cfg.outlier_ratio > 0.0 and eligible:
        calib = task.batch("train", 0, cfg.batch_size, cfg.seed)
        acts = model.input_acts(params, calib, step=0)
        for tag in eligible:
            oc = ql.select_outlier_channels(
                acts[tag],
                cfg.outlier_ratio,
                cfg.outlier_style,
                seed=cfg.seed,
                precision=cfg.outlier_precision,
            )
            if oc.channels:
                cfgs[tag] = dataclasses.replace(cfgs[tag], outlier=oc)
    return cfgs


# ── output files ─────────────────────────────────────────────────────────────


def fmt_num(x) -> str:
    """A table cell: floats as ``%.9g``, None as empty, anything else ``str``."""
    if isinstance(x, (float, np.floating)):
        return "%.9g" % x
    return "" if x is None else str(x)


def write_table(path, schema: str, columns: Sequence[str], rows) -> None:
    """Write a ``#schema=`` line, the column names, then one line per row."""
    lines = [f"#schema={schema}", ",".join(columns)]
    lines.extend(",".join(fmt_num(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _finite_or_none(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def write_json(path, obj) -> None:
    """Write ``obj`` as indented, key-sorted ASCII JSON, strict: a non-finite
    float, which JSON cannot carry, is written as ``null``."""
    text = json.dumps(_finite_or_none(obj), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii")


_OSCI_COLUMNS = (
    ["step", "layer", "n_elements", "n_risk_ge_tau", "n_reset", "max_risk",
     "mean_risk"]
    + [f"n_gt_{t:g}" for t in EXPORT_THRESHOLDS]
)


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


def _max_abs_grad(grads) -> Optional[float]:
    """The largest gradient magnitude, or None, as JSON writes it, when one is
    not finite."""
    worst = 0.0
    for g in grads.values():
        m = float(np.max(np.abs(g))) if g.size else 0.0
        if not math.isfinite(m):
            return None
        worst = max(worst, m)
    return worst


@dataclasses.dataclass(eq=False)
class _Run:
    """What a run carries from one step to the next."""

    cfg: TrainRunConfig
    task: object
    model: object
    params: dict  # the dict init_params returned; every update writes into it
    opt: optim.AdamW
    sched: optim.CosineSchedule
    cfgs: dict  # the current recipe per tag
    trackers: Dict[str, osc.OscillationTracker]
    val_steps: set
    grads: Optional[dict] = None  # the last step's, until the next backward returns


def _train_step(run: _Run, step: int) -> Tuple[StepRow, list]:
    """Run step ``step`` of ``run`` in place; its row and the window rows it closed."""
    cfg, model, params = run.cfg, run.model, run.params
    batch = run.task.batch("train", step, cfg.batch_size, cfg.seed)
    if cfg.switch_step is not None and step == cfg.switch_step + 1:
        switched = {t: dataclasses.replace(c, precision=cfg.switch_mode) for t, c in run.cfgs.items()}
        for tag, c in switched.items():
            if c.format_fwd_w != run.cfgs[tag].format_fwd_w:
                # Q(w) changes format: a distance across it is no oscillation
                run.trackers.pop(tag, None)
        run.cfgs = switched
    lr = run.sched.lr_at(step)
    with fc.draw_ahead(fc.stream(cfg.seed, "sr", step)) as rng:
        loss, run.grads, aux = model.loss_and_grads(params, batch, run.cfgs, step=step, rng=rng)
    loss_f = float(loss)
    if not math.isfinite(loss_f):
        diagnostics = {
            "step": step,
            "lr": lr,
            "max_abs_grad": _max_abs_grad(run.grads),
            "clamp_events": {
                "total": int(aux["clamp_events"]),
                "by_layer": {k: int(v) for k, v in aux["clamp_by_layer"].items()},
            },
        }
        if cfg.out_dir is not None:
            write_json(Path(cfg.out_dir) / "diverged.json", diagnostics)
        raise TrainDivergedError(f"loss became non-finite at step {step}", diagnostics)
    run.opt.step(run.grads, lr)

    resets, windows = 0, []
    t0 = None if cfg.suppression is None else cfg.suppression.phase(step)
    for tag, c in run.cfgs.items():
        if t0 is None or not c.quantize_fwd_w:
            continue
        w = params[model.weight_param(tag)]
        view = osc.double_block_weight_view(
            c.weight_block, outer=c.outer_granularity, element_fmt=c.format_fwd_w)
        if t0 <= cfg.suppression.t_accu:
            if tag not in run.trackers:
                run.trackers[tag] = osc.OscillationTracker.zeros(w.shape)
            osc.update_oscillation_stats(w, view, run.trackers[tag], t0)
        elif tag in run.trackers:
            tau, n_reset = cfg.suppression.tau_osci, 0
            if cfg.apply_resets:
                new_w, n_reset = osc.oscillation_suppress(w, view, run.trackers[tag], tau)
                w[...] = new_w
            windows.append(_window_row(step, tag, run.trackers[tag], tau, n_reset))
            resets += n_reset

    val_loss = None
    if step in run.val_steps:
        vals = []
        for v in range(cfg.val_batches):
            val_batch = run.task.batch("val", v, cfg.batch_size, cfg.seed)
            vals.append(float(model.forward_loss(params, val_batch, run.cfgs, step=step)))
        val_loss = float(np.mean(vals))
    return StepRow(step, loss_f, val_loss, lr, resets, int(aux["clamp_events"])), windows


def train(cfg: TrainRunConfig) -> RunReport:
    """Run the configured training end to end; see the module docstring."""
    task = _build_task(cfg)
    model = _build_model(cfg, task)
    params = model.init_params(cfg.seed)
    opt, sched = _build_optim(cfg, params)
    cfgs = _build_layer_cfgs(model, task, params, cfg)
    run = _Run(cfg, task, model, params, opt, sched, cfgs, {}, _val_steps(cfg))
    out_path = None
    if cfg.out_dir is not None:
        out_path = Path(cfg.out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        write_json(out_path / "config.json", cfg.to_dict())
    rows, osci_rows = [], []
    for step in range(1, cfg.total_steps + 1):
        row, windows = _train_step(run, step)
        rows.append(row)
        osci_rows.extend(windows)

    if out_path is not None:
        write_table(out_path / "metrics.csv", METRICS_SCHEMA, StepRow._fields, rows)
        write_table(
            out_path / "oscillation.csv",
            OSCILLATION_SCHEMA,
            _OSCI_COLUMNS,
            ([r[c] for c in _OSCI_COLUMNS] for r in osci_rows),
        )
    return RunReport(
        config=cfg,
        rows=tuple(rows),
        osci_rows=tuple(osci_rows),
        outlier_channels={  # per layer that selected channels, what its recipe retains
            tag: c.outlier.channels if c.outlier else ()
            for tag, c in cfgs.items() if cfg.outlier_ratio > 0.0 and c.sites
        },
    )


def loss_decomposition_sweep(
    cfg: TrainRunConfig, variants: Sequence[Mapping]
) -> list:
    """One run per variant of ``cfg``, and one all-bypass reference run.

    A variant is ``{"id": ..., <TrainRunConfig fields>}`` merged shallowly
    over ``cfg`` (say ``site_subset`` or ``exclude_tags``); its ``out_dir`` is
    ``cfg.out_dir/<id>``.  Every variant is built, so checked, before the first
    run, and an error names its index.  Returns one row per variant with final
    losses and the delta against the reference.
    """
    base = cfg.to_dict()
    prepared = {}
    for i, spec in enumerate(variants):
        if not isinstance(spec, Mapping):
            raise ValueError(f"subset {i} must be an object, got {spec!r}")
        fields = dict(spec)
        sid = str(fields.pop("id", "")).strip()
        if not sid or "/" in sid or "\\" in sid:
            raise ValueError(f"subset {i}: id {sid!r} must be a non-empty path-safe name")
        if sid in prepared:
            raise ValueError(f"subset {i}: duplicate id {sid!r}")
        if "out_dir" in fields:
            raise ValueError(f"subset {i}: out_dir is set by the sweep, one per id")
        out_dir = str(Path(cfg.out_dir) / sid) if cfg.out_dir is not None else None
        try:
            prepared[sid] = TrainRunConfig.from_dict({**base, **fields, "out_dir": out_dir})
            _build_model(prepared[sid], _build_task(prepared[sid]))
        except ValueError as exc:
            raise ValueError(f"subset {i}: {exc}") from None

    reference = train(dataclasses.replace(cfg, site_subset=(), out_dir=None))
    rows = []
    for sid, run_cfg in prepared.items():
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
