"""Command-line front end.

Subcommands cover the main workflows: ``quantize`` a matrix file through the
double-block codec, ``bench-bias`` the quantized backward pass, ``train`` a
model from a JSON config (a mid-run precision switch is the config's
``switch_step`` and ``switch_mode``, an ``<activation>x<weight>`` format pair
such as ``e3m2xe2m1``), ``sweep`` variants of that config
(each a set of config fields, such as ``site_subset`` or ``exclude_tags``,
merged over it) against an all-bypass reference, and ``osci-analyze``
exported oscillation tables.  Every subcommand creates its ``--out``
directory before any work and writes a resolved ``config.json`` next to its
outputs so a result directory is self-describing: ``train`` and ``sweep``
record the run config, the others their parsed arguments but ``--out``, with
what the command resolved itself (say the outer granularity) in place.  Every
JSON file is strict, a non-finite number reading ``null``, and none of the
outputs embed timestamps: rerunning a command with the same inputs
reproduces the same bytes.

Exit codes: 0 success, 2 usage, unreadable or malformed input or
output-directory error, 3 training diverged, 4 bias detected by ``bench-bias``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import blockquant as bq
from . import fpcodec as fc
from . import matrixio as mio
from . import metrics as mx
from . import qlinear as ql
from . import trainer as tr

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_BIASED = 4

SUMMARY_SCHEMA = "osci-summary-v1"
DELTA_SCHEMA = "osci-delta-v1"
SWEEP_SCHEMA = "sweep-v1"


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _write_config(args, **resolved) -> None:
    """``config.json`` in ``--out``: the parsed arguments but ``out``, with
    ``resolved`` values in place of what the command decided itself."""
    record = {k: v for k, v in vars(args).items() if k not in ("out", "func")}
    tr.write_json(Path(args.out) / "config.json", {**record, **resolved})


def _load_run_config(args) -> tr.TrainRunConfig:
    """The ``--config`` file with ``--out`` and ``--seed`` applied."""
    d = dict(json.loads(Path(args.config).read_text(encoding="ascii")))
    d["out_dir"] = str(args.out)
    if args.seed is not None:
        d["seed"] = args.seed
    return tr.TrainRunConfig.from_dict(d)


# ── quantize ─────────────────────────────────────────────────────────────────


def _cmd_quantize(args) -> int:
    try:
        # a quantized dump loads as a view; its error sums run row-major, as
        # they do for a dense input
        m = np.ascontiguousarray(mio.load_matrix(args.input))
    except mio.FileFormatError as exc:
        return _fail(f"malformed matrix file at byte offset {exc.offset}: {exc}")
    except OSError as exc:
        return _fail(f"cannot read {args.input}: {exc.strerror}")
    rng = fc.stream(args.seed, "cli", "quantize") if args.mode == "stoch" else None
    try:
        q = bq.quantize_double_block(
            m, args.orientation, outer=args.outer, mode=args.mode, rng=rng,
            element_fmt=args.format,
        )
    except ValueError as exc:
        return _fail(str(exc))
    out = Path(args.out)
    mio.save_quantized(out / "quantized.qmxf", q)
    stats = dict(mx.error_stats(m, bq.dequantize(q)))
    stats["clamp_count"] = int(q.clamp_count)
    tr.write_json(out / "stats.json", stats)
    _write_config(args, outer=q.outer.value)
    print(f"quantized {q.rows}x{q.cols} ({args.format}, outer {q.outer.value}): "
          f"mse {tr.fmt_num(stats['mse'])}, clamps {stats['clamp_count']}")
    return EXIT_OK


# ── bench-bias ───────────────────────────────────────────────────────────────


def _cmd_bench_bias(args) -> int:
    if args.draws < 10000:
        return _fail("--draws must be at least 10000 for a meaningful z-test")
    if args.outlier_percent is None and args.outlier_style is not None:
        return _fail("--outlier-style needs --outlier-percent: it picks the channels "
                     "that percent retains")
    style = args.outlier_style or ql.OutlierStyle.LARGEST_NORM.value
    try:
        cfg = ql.preset(args.preset)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        report = mx.mc_backward_bias(
            cfg,
            shape=args.shape,
            draws=args.draws,
            seed=args.seed,
            nsigma=args.nsigma,
            dy_craft=args.dy_craft,
            x_craft=args.x_craft,
            w_craft=args.w_craft,
            outlier_percent=args.outlier_percent,
            outlier_style=style,
        )
    except ValueError as exc:
        return _fail(str(exc))
    tr.write_json(Path(args.out) / "bias_report.json", dataclasses.asdict(report))
    _write_config(args, outlier_style=None if args.outlier_percent is None else style)
    verdict = "passed" if report.passed else "FAILED"
    print(f"bias check {verdict}: max |z| {tr.fmt_num(float(report.max_z))} "
          f"over {args.draws} draws (limit {tr.fmt_num(args.nsigma)})")
    return EXIT_OK if report.passed else EXIT_BIASED


# ── train ────────────────────────────────────────────────────────────────────


def _cmd_train(args) -> int:
    """Load the run config, train it and report; a config that loading or
    ``train`` rejects exits 2."""
    try:
        cfg = _load_run_config(args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"bad config: {exc}")
    try:
        report = tr.train(cfg)
    except ValueError as exc:
        return _fail(f"bad config: {exc}")
    except tr.TrainDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"ran {len(report.rows)} steps: "
          f"final train loss {tr.fmt_num(report.final_train_loss)}, "
          f"final val loss {tr.fmt_num(report.final_val_loss)}, "
          f"resets {report.total_resets}, clamp events {report.clamp_total}")
    return EXIT_OK


# ── sweep ────────────────────────────────────────────────────────────────────


def _cmd_sweep(args) -> int:
    try:
        cfg = _load_run_config(args)
        subsets = json.loads(Path(args.subsets).read_text(encoding="ascii"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"bad config: {exc}")
    if not isinstance(subsets, list):
        return _fail("subsets file must hold a JSON list")
    try:
        rows = tr.loss_decomposition_sweep(cfg, subsets)
    except ValueError as exc:
        return _fail(str(exc))
    except tr.TrainDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    out = Path(args.out)
    columns = ("subset", "final_train_loss", "final_val_loss", "delta_vs_bypass")
    tr.write_table(
        out / "sweep.csv", SWEEP_SCHEMA, columns, ([r[c] for c in columns] for r in rows)
    )
    tr.write_json(out / "config.json", {
        "command": "sweep",
        "config": cfg.to_dict(),
        "subsets": subsets,
    })
    for r in rows:
        print(f"{r['subset']}: val loss {tr.fmt_num(r['final_val_loss'])} "
              f"(delta vs bypass {tr.fmt_num(r['delta_vs_bypass'])})")
    return EXIT_OK


# ── osci-analyze ─────────────────────────────────────────────────────────────


def _read_osci_table(path, thresholds):
    """Aggregate an oscillation export per step, summing across layers.

    Returns an ordered ``{step: (n_elements, {threshold: count}, n_reset)}``.
    """
    lines = Path(path).read_text(encoding="ascii").splitlines()
    expected = f"#schema={tr.OSCILLATION_SCHEMA}"
    if not lines or lines[0] != expected:
        raise ValueError(
            f"{path}: schema mismatch (expected {expected!r}, "
            f"got {lines[0] if lines else '<empty file>'!r})"
        )
    if len(lines) < 2:
        raise ValueError(f"{path}: missing header row")
    header = lines[1].split(",")
    col = {name: i for i, name in enumerate(header)}
    for name in ("step", "n_elements", "n_reset"):
        if name not in col:
            raise ValueError(f"{path}: missing column {name!r}")
    count_cols = {}
    for t in thresholds:
        name = f"n_gt_{t:g}"
        if name not in col:
            raise ValueError(f"{path}: no column for threshold {t:g} ({name!r})")
        count_cols[t] = col[name]
    table: dict = {}
    for n, ln in enumerate(lines[2:], start=3):
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}: line {n} has {len(cells)} cells, the header {len(header)}"
            )
        try:
            step, n_el, n_reset = (
                int(cells[col[k]]) for k in ("step", "n_elements", "n_reset"))
            counts = {t: int(cells[i]) for t, i in count_cols.items()}
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        entry = table.setdefault(step, [0, {t: 0 for t in thresholds}, 0])
        entry[0] += n_el
        for t, c in counts.items():
            entry[1][t] += c
        entry[2] += n_reset
    return table


def _fractions(entry, thresholds):
    n_el = entry[0]
    return [entry[1][t] / n_el if n_el else 0.0 for t in thresholds]


def _cmd_osci_analyze(args) -> int:
    thresholds = args.thresholds
    try:
        table = _read_osci_table(args.file, thresholds)
        paired = _read_osci_table(args.paired, thresholds) if args.paired else None
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    out = Path(args.out)
    if paired is None:
        columns = ["step", "n_elements", *(f"frac_gt_{t:g}" for t in thresholds), "n_reset"]
        rows = (
            [step, table[step][0], *_fractions(table[step], thresholds), table[step][2]]
            for step in sorted(table)
        )
        written, schema = "osci_summary.csv", SUMMARY_SCHEMA
    else:
        columns = ["step"]
        for t in thresholds:
            columns += [f"frac_gt_{t:g}_a", f"frac_gt_{t:g}_b", f"delta_gt_{t:g}"]
        rows = []
        for step in sorted(set(table) & set(paired)):
            row = [step]
            for a, b in zip(_fractions(table[step], thresholds),
                            _fractions(paired[step], thresholds)):
                row += [a, b, a - b]
            rows.append(row)
        written, schema = "osci_delta.csv", DELTA_SCHEMA
    tr.write_table(out / written, schema, columns, rows)
    _write_config(args, paired=args.paired or None)
    print(f"analyzed {len(table)} steps -> {out / written}")
    return EXIT_OK


# ── argument parsing ─────────────────────────────────────────────────────────


def _shape_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("shape must be N,C,D (three integers)")
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if any(v < 1 for v in shape):
        raise argparse.ArgumentTypeError("shape entries must be positive")
    return shape


def _thresholds_arg(text: str):
    try:
        values = tuple(float(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("at least one threshold is required")
    return values


def _values(enum_cls):
    return [member.value for member in enum_cls]


def _sub(subparsers, name: str, help_text: str, example: str):
    return subparsers.add_parser(
        name,
        help=help_text,
        description=help_text,
        epilog=f"example:\n  {example}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvfp4sim",
        description="Bit-exact simulator for double-block FP4/FP6 training.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = _sub(subparsers, "quantize",
             "Quantize a matrix file (binary or CSV) through the double-block "
             "codec and report reconstruction stats.",
             "nvfp4sim quantize weights.csv --out qdir --orientation row "
             "--outer 1x128 --format e2m1 --mode stoch --seed 7")
    p.add_argument("input", help="matrix file (binary dump or CSV)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--orientation", choices=_values(bq.Orientation),
                   default="row", help="block grouping (default: row)")
    p.add_argument("--outer", choices=_values(bq.OuterGranularity), default=None,
                   help="outer-scale granularity (default: 1x128; square "
                        "tiles always use per-tensor)")
    p.add_argument("--format", choices=bq.ELEMENT_FORMATS,
                   default="e2m1", help="element format (default: e2m1)")
    p.add_argument("--mode", choices=_values(fc.RoundingMode), default="det",
                   help="rounding mode (default: det)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for stochastic rounding (default: 0)")
    p.set_defaults(func=_cmd_quantize)

    p = _sub(subparsers, "bench-bias",
             "Monte-Carlo z-test of backward-pass gradient bias for a "
             "quantization preset.",
             "nvfp4sim bench-bias --out biasdir --preset fp4-base "
             "--shape 8,32,16 --draws 100000 --seed 1")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", default="fp4-base",
                   help="quantization preset (default: fp4-base)")
    p.add_argument("--shape", type=_shape_arg, default=(8, 32, 16),
                   help="batch,in,out dimensions as N,C,D (default: 8,32,16)")
    p.add_argument("--draws", type=int, default=10000,
                   help="Monte-Carlo sample count, minimum 10000 "
                        "(default: 10000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--nsigma", type=float, default=5.0,
                   help="z-score pass limit (default: 5.0)")
    for operand, what in (("dy", "output-gradient"), ("x", "activation"), ("w", "weight")):
        p.add_argument(f"--{operand}-craft", choices=mx.INPUT_CRAFTS,
                       default="gaussian", help=f"{what} construction")
    p.add_argument("--outlier-percent", type=float, default=None,
                   help="retain this percent of channels at high precision")
    p.add_argument("--outlier-style", choices=_values(ql.OutlierStyle),
                   help="outlier channel selection, with --outlier-percent "
                        "(default: largest-norm)")
    p.set_defaults(func=_cmd_bench_bias)

    p = _sub(subparsers, "train",
             "Train a model from a JSON run config and export metrics.",
             "nvfp4sim train --config run.json --out rundir --seed 3")
    p.add_argument("--config", required=True, help="run config JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(func=_cmd_train)

    p = _sub(subparsers, "sweep",
             "Run one training job per variant of the run config and "
             "tabulate final losses against an all-bypass reference.",
             "nvfp4sim sweep --config run.json --subsets subsets.json "
             "--out sweepdir")
    p.add_argument("--config", required=True, help="run config JSON file")
    p.add_argument("--subsets", required=True,
                   help="JSON list of variants: {id, <run config fields>}, "
                        "merged over --config; out_dir is set per id")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(func=_cmd_sweep)

    p = _sub(subparsers, "osci-analyze",
             "Aggregate an oscillation export per step; with --paired, emit "
             "the per-threshold fraction deltas between two runs.",
             "nvfp4sim osci-analyze run/oscillation.csv --out oscdir "
             "--thresholds 8,16")
    p.add_argument("file", help="oscillation.csv from a training run")
    p.add_argument("--paired", default=None,
                   help="second oscillation.csv to difference against")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--thresholds", type=_thresholds_arg, default=(8.0, 16.0),
                   help="comma-separated risk thresholds (default: 8,16)")
    p.set_defaults(func=_cmd_osci_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create output directory {args.out}: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
