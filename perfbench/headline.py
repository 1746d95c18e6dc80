"""The ROADMAP headline: fp4 step time over fp32 step time, no gate.

Run from the root of a checkout:

    python3 perfbench/headline.py --seed 1 --seconds 15

Runs ``run.py`` on ``lm-fp4-full`` and on ``lm-fp32`` with the same seed and
prints ``op_s_p50[lm-fp4-full] / op_s_p50[lm-fp32]`` with both bases.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def op_s_p50(workload: str, seed: int, seconds: float) -> float:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload}: output checks failed\n{proc.stdout}")
    return res["metrics"]["op_s_p50"]["value"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    args = p.parse_args(argv)
    fp4 = op_s_p50("lm-fp4-full", args.seed, args.seconds)
    fp32 = op_s_p50("lm-fp32", args.seed, args.seconds)
    print(f"headline op_s_p50[lm-fp4-full] / op_s_p50[lm-fp32] = {fp4 / fp32:.2f}x "
          f"({fp4:.4g} s / {fp32:.4g} s per step)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
