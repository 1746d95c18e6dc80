"""Benchmark of the nvfp4sim simulator: one workload, one seed, one result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lm-fp4-full --seed 1 --seconds 15 --trace 0

The script makes the workload's inputs from ``--seed`` in a scratch
directory of the checkout, then starts fresh measuring processes
(``worker.py``) with BLAS threads set explicitly. With ``--trace 0`` it
starts five: four that only set up (imports, inputs, model, calibration,
warm-up op) and one that sets up and then measures for ``--seconds``; it
prints every end-to-end metric. With ``--trace 1`` it starts one process
that alternates untraced and traced runs, and prints every per-layer metric.
Output checks decide ``correct`` and the failed-op count. The last line of
standard output is the JSON result; the lines before it are the readable
summary and the environment record. See README.md for the metric table.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as W  # noqa: E402
from tracer import COUNT_NAMES, SELF_SUM_TOL, SPAN_NAMES  # noqa: E402

BLAS_THREADS = 1  # at most nproc; one thread keeps a shared machine steady
SETUP_ONLY_PROCS = 4
CHILD_TIMEOUT_S = 170
REFERENCE = BENCH_DIR / "reference_digests.json"

# name -> unit, for the end-to-end metrics of --trace 0
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "loss_final": "loss",
    "sqnr_db": "dB",
}


def per_layer_units() -> dict:
    """name -> unit, for the per-layer metrics of --trace 1."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    for key in COUNT_NAMES:
        units[key] = "flop" if key.endswith("flops") else (
            "byte" if key.endswith("bytes") else "count")
    units["trace.overhead"] = "ratio"
    return units


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples
    beyond it; the maximum when there are fewer than 11 samples."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def spawn(root, args, mode, inputs_path, seconds, deadline) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--inputs", str(inputs_path), "--mode", mode, "--seconds", str(seconds)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process ({mode}) exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_digest(workload: str, seed: int, tiny: bool):
    if tiny or not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text(encoding="ascii"))
    return table.get(workload, {}).get(str(seed))


def check_runs(runs, expected, problems) -> int:
    """Failed ops after the output checks; appends what went wrong."""
    failed = 0
    for i, r in enumerate(runs):
        failed += r["failed"]
        if r["error"]:
            problems.append(f"run {i}: {r['error']}")
        if "digest" in r and r["digest"] != expected:
            failed += r["attempted"] - r["failed"]
            problems.append(f"run {i}: digest {r['digest']} != expected {expected}")
    return failed


def end_to_end(main, setups) -> dict:
    runs = main["untraced"]
    op_s = [t for r in runs for t in r["op_s"]]
    good = next(r for r in runs if "loss_final" in r)
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail(op_s)[0],
        "items_per_s": main["items_per_op"] * len(op_s) / sum(op_s),
        "peak_rss_mb": main["peak_rss_mb"],
        "loss_final": good["loss_final"],
        "sqnr_db": good["sqnr_db"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny shapes, for the smoke tests")
    args = p.parse_args(argv)

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    root = Path.cwd()
    src = root / "src" / "nvfp4sim"
    if not (src / "__init__.py").is_file():
        print(f"error: no nvfp4sim sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # the build step: byte-compile once so no measuring process pays for it
    compileall.compile_dir(str(src), quiet=1)

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = W.make_inputs(args.workload, args.seed, work, args.tiny)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="ascii")
        if args.trace:
            procs = [spawn(root, args, "trace", inputs_path, args.seconds, deadline)]
        else:
            procs = [spawn(root, args, "setup", inputs_path, 0, deadline)
                     for _ in range(SETUP_ONLY_PROCS)]
            procs.append(spawn(root, args, "measure", inputs_path, args.seconds,
                               deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    main_proc = procs[-1]
    problems = []
    runs = main_proc["untraced"] + main_proc.get("traced", [])
    reference = reference_digest(args.workload, args.seed, args.tiny)
    expected = reference or next((r["digest"] for r in runs if "digest" in r), None)
    failed = check_runs(runs, expected, problems)
    attempted = sum(r["attempted"] for r in runs)
    if "warmup_error" in main_proc:
        problems.append(f"warm-up: {main_proc['warmup_error']}")
    setups = [pr["setup_s"] for pr in procs if "setup_s" in pr]
    measured = [main_proc[phase] for phase in ("untraced", "traced") if phase in main_proc]
    if not setups or not all(any("loss_final" in r for r in ph) for ph in measured):
        print("error: no successful run to measure:\n" + "\n".join(problems),
              file=sys.stderr)
        return 1
    e2e = end_to_end(main_proc, setups)

    env = dict(main_proc["env"], blas_threads_set=BLAS_THREADS,
               git_commit=git_commit(root), workload=args.workload, seed=args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    op_s = [t for r in main_proc["untraced"] for t in r["op_s"]]
    _, pct = tail(op_s)
    for key, value in e2e.items():
        note = f"  (p{pct:.1f} of {len(op_s)} ops)" if key == "op_s_tail" else ""
        print(f"{key:<12} {value:.6g} {END_TO_END[key]}{note}")
    print(f"fail_frac    {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    print(f"digest       {expected}  ({'recorded reference' if reference else 'runs agree'}"
          f", {len(runs)} runs)")

    if args.trace:
        tr = main_proc["trace"]
        layer = dict(tr["per_op"])
        traced_op_s = [t for r in main_proc["traced"] for t in r["op_s"]]
        layer["trace.overhead"] = (statistics.median(traced_op_s)
                                   / e2e["op_s_p50"] - 1.0)
        if tr["worst_sum_gap"] > SELF_SUM_TOL:
            problems.append(f"self times miss the root span by "
                            f"{tr['worst_sum_gap']:.2e} > {SELF_SUM_TOL}")
        if tr["missing"]:
            print("spans not found (reported as 0): " + ", ".join(tr["missing"]))
        units = per_layer_units()
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        for k in units:
            print(f"{k:<44} {layer[k]:.6g} {units[k]}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    problems += [f"metric {k} is not finite" for k in bad]
    for k in bad:
        metrics[k]["value"] = 0.0
    for line in problems:
        print(f"check failed: {line}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
