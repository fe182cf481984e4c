"""Steadiness check: run each workload once per seed 1-10 and report,
per end-to-end metric, the median, the quartiles and their spread —
the distance between the quartiles as a share of the median — next to
the bound ``BENCHMARK.json`` gives it.

    python3 widthbench/steady.py

A metric is steady when its spread stays below a third of its bound
(``setup_s`` is exempt: its bound covers the shift of its median).  The
raw results go to ``widthbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    wall = time.monotonic() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    workloads = [w["name"] for w in declared["workloads"]]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    steady = True
    for workload in workloads:
        results, walls = [], []
        for seed in SEEDS:
            result, wall = run_once(workload, seed, declared["run_seconds"])
            results.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s", flush=True)
        with open(os.path.join(HERE, "out", f"steady-{workload}.json"), "w") as handle:
            json.dump({"results": results, "walls": walls}, handle, indent=1)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in results)}, "
              f"longest run {max(walls):.1f}s")
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok and all(r["correct"] for r in results) and len(shares) == 1
            print(f"  {metric['name']:>14} median {q2:10.4f} {metric['unit']:<4} "
                  f"quartiles [{q1:.4f}, {q3:.4f}] spread {spread:6.1%} "
                  f"bound {metric['bound']:.0%} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
