"""The benchmark's four workloads: their inputs, configs and op sizes.

Inputs are made from the workload seed by the parent process (``run.py``)
and written to a work directory; the measuring process only reads them.
Every shape and step count is fixed per workload, so the work per op, and
with it every count metric, is the same on every run and every seed.
``tiny=True`` shrinks every shape for the smoke tests.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

TRAINING = ("lm-fp4-full", "mlp-fp4-rtn", "lm-fp32")
CODEC = "codec-roundtrip"
NAMES = TRAINING + (CODEC,)

CORPUS_CHARS = 200_000

# codec rotation: orientation, outer granularity and element format cycle as
# a Latin square over one round, so every round holds the same mix
ORIENTATIONS = ("row", "col", "square")
OUTERS = ("1x128", "per-row", "per-tensor")
FORMATS = ("e2m1", "e3m2", "e2m3")

# ragged on purpose: no dimension is a multiple of 16 (hence none of 128)
CODEC_SHAPES = (
    (1001, 1499), (1531, 779), (613, 2043),
    (1289, 1009), (877, 1723), (1213, 1117),
    (1459, 947), (743, 1831), (1103, 1301),
)
TINY_CODEC_SHAPES = ((37, 53), (45, 29), (19, 61), (33, 35), (51, 23),
                     (27, 43), (41, 31), (23, 57), (39, 47))


@dataclasses.dataclass(frozen=True)
class CodecCase:
    path: str
    orientation: str
    outer: str
    fmt: str


def codec_rotation(i: int):
    """(orientation, outer, format) of the i-th matrix of a round."""
    orientation = ORIENTATIONS[i % 3]
    fmt = FORMATS[(i + i // 3) % 3]
    outer = "per-tensor" if orientation == "square" else OUTERS[(i // 3) % 3]
    return orientation, outer, fmt


def make_inputs(name: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    """Write the workload's inputs under ``workdir``; return what the
    measuring process needs to find them."""
    from nvfp4sim import tasks

    workdir.mkdir(parents=True, exist_ok=True)
    if name in TRAINING:
        if name == "mlp-fp4-rtn":
            return {}
        corpus = workdir / "corpus.txt"
        chars = 4_000 if tiny else CORPUS_CHARS
        corpus.write_text(tasks.synthesize_corpus(chars, seed), encoding="ascii")
        return {"corpus": str(corpus)}
    if name != CODEC:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = np.random.default_rng([seed, 0xC0DEC])
    cases = []
    for i, (r, c) in enumerate(TINY_CODEC_SHAPES if tiny else CODEC_SHAPES):
        # heavy-tailed row scales spanning several decades
        row_scale = np.exp(1.5 * rng.standard_normal(r))
        m = (rng.standard_normal((r, c)) * row_scale[:, None]).astype(np.float32)
        path = workdir / f"m{i}.npy"
        np.save(path, m)
        cases.append(dataclasses.asdict(CodecCase(str(path), *codec_rotation(i))))
    return {"cases": cases}


def train_config(name: str, seed: int, inputs: dict, tiny: bool = False):
    """The ``TrainRunConfig`` of a training workload."""
    from nvfp4sim import oscillation as osc
    from nvfp4sim import trainer as tr

    optimizer = {"lr": 3e-3, "betas": (0.9, 0.95), "weight_decay": 0.01}
    if name == "mlp-fp4-rtn":
        widths = (32, 64, 64, 8) if tiny else (256, 1024, 1024, 16)
        # long enough that the final loss settles: its spread across seeds
        # stays a few percent
        steps = 6 if tiny else 40
        return tr.TrainRunConfig(
            model={"kind": "mlp", "widths": widths},
            task={"kind": "synthetic-regression", "in_dim": widths[0],
                  "out_dim": widths[-1], "outlier_count": 4 if tiny else 16,
                  "outlier_gain": 50.0},
            optimizer={**optimizer, "lr": 1e-3},
            schedule={"warmup_steps": 2, "total_steps": steps, "floor_lr": 0.0},
            batch_size=32 if tiny else 256,
            seed=seed,
            preset="fp4-rtn",
            val_batches=1,
        )
    if name not in ("lm-fp4-full", "lm-fp32"):
        raise ValueError(f"{name!r} is not a training workload")
    seq = 32 if tiny else 128
    full = name == "lm-fp4-full"
    steps = (12 if tiny else 32) if full else (6 if tiny else 16)
    return tr.TrainRunConfig(
        model={"kind": "tiny-transformer", "layers": 2,
               "d_model": 32 if tiny else 128, "heads": 4, "seq_len": seq},
        task={"kind": "char-lm", "corpus_path": inputs["corpus"], "seq_len": seq},
        optimizer=optimizer,
        schedule={"warmup_steps": 2, "total_steps": steps, "floor_lr": 0.0},
        batch_size=2 if tiny else 8,
        seed=seed,
        preset="fp4-full" if full else "fp32",
        # the paper's t_accu 50 / t_period 200, scaled down so one training
        # run holds several accumulate windows and their suppressions
        suppression=(
            osc.SuppressionSchedule(t_max=steps, t_start=1, t_period=8,
                                    t_accu=1, tau_osci=8.0)
            if full else None
        ),
        val_batches=1,
        outlier_ratio=5.0 if full else 0.0,
        outlier_style="largest-norm",
        outlier_precision="e4m3",
    )


def items_per_op(name: str, cfg) -> int:
    """Tokens (lm) or samples (mlp) in one training step."""
    if name == "mlp-fp4-rtn":
        return cfg.batch_size
    return cfg.batch_size * int(cfg.task["seq_len"])
