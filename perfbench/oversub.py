"""Ungated report: sim-ls rounds per second over round workers x BLAS threads.

    python3 perfbench/oversub.py --seed 1 --seconds 20 [--out perfbench/results/oversub.json]

Runs ``run.py --workload sim-ls`` once per cell of the grid {1, 2} round
workers x {1, 2} BLAS threads, each in its own process, and prints one row
per cell.  The round-level thread pool runs on top of multithreaded OpenBLAS,
so cells where workers x BLAS threads exceeds the core count show the cost of
oversubscription.  These numbers are not part of BENCHMARK.json's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cell(seed: int, seconds: float, workers: int, blas: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", "sim-ls",
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--workers", str(workers), "--blas-threads", str(blas),
    ]  # fmt: skip
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=seconds + 170)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed for workers={workers} blas={blas}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return {
        "workers": workers,
        "blas_threads": blas,
        "blas_threads_runtime": report["environment"]["blas_threads"],
        "rounds_per_s": result["metrics"]["ops_per_s"]["value"],
        "round_s_p50": report["op_s_p50"],
        "rounds": result["attempted"] // 3,
        "environment": report["environment"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", help="also write the rows as JSON to this file")
    args = parser.parse_args(argv)

    rows = [cell(args.seed, args.seconds, w, b) for w in (1, 2) for b in (1, 2)]
    print("workers  blas  rounds/s  round_s_p50  rounds")
    for row in rows:
        print(
            f"{row['workers']:7d}  {row['blas_threads']:4d}  {row['rounds_per_s']:8.3f}"
            f"  {row['round_s_p50']:11.4f}  {row['rounds']:6d}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "rows": rows}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
