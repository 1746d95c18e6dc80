"""One measuring process of the benchmark; ``run.py`` starts it.

Modes:

* ``setup``   — set up and run the warm-up op, then exit. Reports only
  ``setup_s``.
* ``measure`` — set up, then run whole training runs (or codec rounds) until
  ``--seconds`` is used up, with only the op marker installed.
* ``trace``   — like ``measure``, but in rounds of one untraced and one
  traced run, so that the traced figures and the trace overhead come from
  the same process and the same stretch of time.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as W  # noqa: E402
from tracer import Recorder  # noqa: E402


class SetupDone(Exception):
    """Raised at the end of the warm-up op in ``setup`` mode."""


# ── output digests ───────────────────────────────────────────────────────────


def training_digest(report, params) -> str:
    """Digest of the loss sequence, final master params, clamps and resets."""
    import numpy as np

    h = hashlib.sha256()
    h.update(np.asarray(report.losses, dtype=np.float64).tobytes())
    for name in sorted(params):
        p = np.ascontiguousarray(params[name])
        h.update(f"{name}{p.shape}{p.dtype}".encode())
        h.update(p.tobytes())
    h.update(f"clamps={report.clamp_total};resets={report.total_resets}".encode())
    return h.hexdigest()[:24]


def codec_digest(q, deq) -> str:
    h = hashlib.sha256()
    for a in (q.codes, q.inner_scales, q.outer_scales, deq):
        h.update(a.tobytes())
    h.update(f"{q.shape};clamps={q.clamp_count}".encode())
    return h.hexdigest()[:24]


# ── training workloads ───────────────────────────────────────────────────────


def weight_sqnr_db(cfg, model, params) -> float:
    """Median SQNR of the final master weights under the run's forward-weight
    quantizer (NVFP4's default recipe where the run quantizes no weight)."""
    from nvfp4sim import blockquant as bq
    from nvfp4sim import metrics as mx
    from nvfp4sim import qlinear as ql

    recipe = ql.preset(cfg.preset)
    if not recipe.quantize_fwd_w:
        recipe = ql.preset("fp4-full")
    sqnrs = []
    for tag in model.quant_tags():
        w = params[model.weight_param(tag)]
        wq, _ = bq.quantize_dequantize(
            w, recipe.weight_block, outer=recipe.outer_granularity,
            mode="det", element_fmt=recipe.format_fwd_w,
        )
        sqnrs.append(mx.error_stats(w, wq)["sqnr_db"])
    return float(statistics.median(sqnrs))


def _training_run(cfg, rec, kept) -> dict:
    from nvfp4sim import trainer as tr

    kept.clear()
    n_before = len(rec.op_ns)
    out = {"attempted": cfg.total_steps - 1, "error": None}
    try:
        report = tr.train(cfg)
        rec.end_op()
    except SetupDone:
        raise
    except Exception as exc:  # a failed op: recorded, the run goes on
        rec.abandon_op()
        out["error"] = f"{type(exc).__name__}: {exc}"
    ops = rec.op_ns[n_before:]
    out["op_s"] = [ns / 1e9 for ns in ops]
    out["failed"] = out["attempted"] - len(ops) if out["error"] else 0
    if out["error"] is None:
        (model, _seed), params = kept[-1]
        tail = max(1, math.ceil(len(report.losses) / 10))
        out["digest"] = training_digest(report, params)
        out["loss_final"] = float(sum(report.losses[-tail:]) / tail)
        out["sqnr_db"] = weight_sqnr_db(cfg, model, params)
    return out


def run_training(name, seed, inputs, mode, seconds, tiny, t0_ns) -> dict:
    cfg = W.train_config(name, seed, inputs, tiny)
    recs = _recorders("trainer.step", mode)
    result = {"items_per_op": W.items_per_op(name, cfg)}

    def boundary(step):
        if step == 2 and "setup_s" not in result:
            result["setup_s"] = (time.monotonic_ns() - t0_ns) / 1e9
            if mode == "setup":
                raise SetupDone

    kept = []

    def run_once(phase):
        rec = recs[phase]
        rec.on_boundary = boundary
        if phase == "traced":
            rec.trace()
        rec.mark_steps()
        rec.keep_results("models", "*.init_params", kept)
        try:
            return _training_run(cfg, rec, kept)
        finally:
            rec.restore()

    try:
        _alternate(run_once, recs, seconds, result)
    except SetupDone:
        pass
    return result


# ── codec workload ───────────────────────────────────────────────────────────


def run_codec(seed, inputs, mode, seconds, workdir, t0_ns) -> dict:
    import numpy as np
    from nvfp4sim import blockquant as bq
    from nvfp4sim import matrixio as mio
    from nvfp4sim import metrics as mx

    cases = [W.CodecCase(**c) for c in inputs["cases"]]
    mats = [np.load(c.path) for c in cases]
    qpath = str(workdir / f"op-{os.getpid()}.qmxf")
    recs = _recorders("codec.op", mode)
    first = {}  # op index -> digest of its first successful run

    def op(i):
        c = cases[i]
        q = bq.quantize_double_block(
            mats[i], c.orientation, outer=c.outer, mode="det", element_fmt=c.fmt
        )
        mio.save_quantized(qpath, q)
        loaded = mio.load_quantized(qpath)
        deq = bq.dequantize(loaded)
        return q, loaded, deq, mx.error_stats(mats[i], deq)

    def round_trip_ok(i, q, loaded, deq) -> bool:
        """The file round trip and the fused value route agree bit for bit."""
        c = cases[i]
        ref, clamps = bq.quantize_dequantize(
            mats[i], c.orientation, outer=c.outer, mode="det", element_fmt=c.fmt
        )
        return (loaded == q and clamps == q.clamp_count
                and deq.shape == ref.shape and deq.tobytes() == ref.tobytes())

    def one(rec, i, timed, stats):
        rec.begin_op(timed=timed)
        try:
            q, loaded, deq, err = op(i)
            rec.end_op()
            stats["end_ns"] = time.monotonic_ns()
        except Exception as exc:  # a failed op: recorded, the round goes on
            rec.abandon_op()
            stats["errors"].append(f"op {i}: {type(exc).__name__}: {exc}")
            return False
        digest = codec_digest(q, deq)
        ok = digest == first[i] if i in first else round_trip_ok(i, q, loaded, deq)
        if ok:
            first.setdefault(i, digest)
        stats["digests"].append(digest)
        stats["sqnr"].append(err["sqnr_db"])
        stats["rel"].append(err["rel_err_fro"])
        if not ok:
            stats["errors"].append(f"op {i}: output check failed")
        return ok

    def one_round(phase):
        rec = recs[phase]
        if phase == "traced":
            rec.trace()
        stats = {"errors": [], "digests": [], "sqnr": [], "rel": []}
        n_before = len(rec.op_ns)
        try:
            failed = sum(not one(rec, i, True, stats) for i in range(len(cases)))
        finally:
            rec.restore()
        out = {"attempted": len(cases), "failed": failed,
               "op_s": [ns / 1e9 for ns in rec.op_ns[n_before:]],
               "error": "; ".join(stats["errors"]) or None}
        if not failed:
            out["digest"] = hashlib.sha256(
                "".join(stats["digests"]).encode()).hexdigest()[:24]
        if stats["sqnr"]:
            out["sqnr_db"] = float(statistics.median(stats["sqnr"]))
            out["loss_final"] = float(statistics.median(stats["rel"]))
        return out

    result = {"items_per_op": sum(m.size for m in mats) / len(mats)}
    warm = {"errors": [], "digests": [], "sqnr": [], "rel": []}
    # the warm-up op is never timed, so its recorder only holds the op open
    if not one(Recorder("codec.op"), 0, False, warm):
        result["warmup_error"] = "; ".join(warm["errors"])
    if "end_ns" in warm:
        result["setup_s"] = (warm["end_ns"] - t0_ns) / 1e9
    if mode == "setup":
        return result
    try:
        _alternate(one_round, recs, seconds, result)
    finally:
        if os.path.exists(qpath):
            os.remove(qpath)
    return result


# ── shared ───────────────────────────────────────────────────────────────────


def _recorders(root: str, mode: str) -> dict:
    """One recorder per phase; the traced one gets the spans when it runs."""
    phases = ("untraced", "traced") if mode == "trace" else ("untraced",)
    return {phase: Recorder(root) for phase in phases}


def _alternate(run_once, recs: dict, budget: float, result: dict) -> None:
    """Rounds of one whole run per phase, phases alternating so that drift
    in machine speed hits both alike, until the next round would overrun
    ``budget``; at least one round. Fills ``result[phase]`` with the runs,
    and ``result["trace"]`` from the traced recorder."""
    for phase in recs:
        result[phase] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for phase in recs:
            result[phase].append(run_once(phase))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > budget:
            break
    if "traced" in recs:
        result["trace"] = _trace_result(recs["traced"])


def _trace_result(rec) -> dict:
    return {"per_op": rec.per_op(), "ops": len(rec.op_ns),
            "worst_sum_gap": rec.worst_sum_gap, "missing": rec.missing}


def _blas_threads():
    """OpenBLAS's own thread count, read back through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    try:  # the optional compiled route; "absent" once the module is gone
        from nvfp4sim import fastpath
        fast = bool(fastpath.AVAILABLE)
    except ImportError:
        fast = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "fastpath_available": fast,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True, help="JSON file from run.py")
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0-ns", type=int, required=True,
                   help="CLOCK_MONOTONIC at process launch, in ns")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    inputs_path = Path(args.inputs)
    inputs = json.loads(inputs_path.read_text(encoding="ascii"))
    if args.workload == W.CODEC:
        result = run_codec(args.seed, inputs, args.mode, args.seconds,
                           inputs_path.parent, args.t0_ns)
    else:
        result = run_training(args.workload, args.seed, inputs, args.mode,
                              args.seconds, args.tiny, args.t0_ns)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
