"""Record the reference output digests that ``run.py`` checks against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_digests.py --seeds 0-12 [--workload lm-fp32 ...]

For each workload and seed it runs one training run (or one codec round) in
a fresh measuring process and stores the output digest in
``reference_digests.json``, merging with what is there. It refuses to
overwrite a recorded digest with a different one unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as W  # noqa: E402


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-12")
    p.add_argument("--workload", action="append", choices=W.NAMES)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    table = {}
    if run.REFERENCE.is_file():
        table = json.loads(run.REFERENCE.read_text(encoding="ascii"))
    status = 0
    for name in args.workload or W.NAMES:
        for seed in args.seeds:
            work = root / ".perfbench_work" / f"record-{name}-{seed}-{os.getpid()}"
            try:
                inputs = W.make_inputs(name, seed, work)
                inputs_path = work / "inputs.json"
                inputs_path.write_text(json.dumps(inputs), encoding="ascii")
                spec = SimpleNamespace(workload=name, seed=seed, tiny=False)
                res = run.spawn(root, spec, "measure", inputs_path, 0,
                                time.monotonic() + run.CHILD_TIMEOUT_S)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            r = res["untraced"][0]
            if "digest" not in r:
                print(f"{name} seed {seed}: failed: {r['error']}", file=sys.stderr)
                status = 1
                continue
            old = table.setdefault(name, {}).get(str(seed))
            if old not in (None, r["digest"]) and not args.force:
                print(f"{name} seed {seed}: digest {r['digest']} differs from the "
                      f"recorded {old}; not overwritten", file=sys.stderr)
                status = 1
                continue
            table[name][str(seed)] = r["digest"]
            print(f"{name} seed {seed}: {r['digest']}  loss_final "
                  f"{r['loss_final']:.6g}  sqnr_db {r['sqnr_db']:.6g}", flush=True)
            run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True)
                                     + "\n", encoding="ascii")
    workdir = root / ".perfbench_work"
    if workdir.is_dir() and not any(workdir.iterdir()):
        workdir.rmdir()
    return status


if __name__ == "__main__":
    sys.exit(main())
