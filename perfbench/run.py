"""fedmask benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload secagg-keys --seed 1 --seconds 20 --trace 0

Each workload runs in a process of its own (`perfbench/worker.py`) as a
closed loop: one thread, each operation starting when the previous one has
been checked.  With `--trace 0` this prints the end-to-end metrics of
BENCHMARK.json; set-up time is the median over several fresh processes.
With `--trace 1` the worker wraps fedmask's functions and this prints the
per-layer metrics, as medians over operations.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 7  # fresh processes whose set-up time is measured, the timed one included
DEADLINE_S = 170.0
# single-threaded numerics: the loop is closed and runs on one core
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def start_worker(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker; returns its set-up time and its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - started), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError("worker printed no result") from exc
    return result["ready"] - started, result


def median_over_ops(rows: list[dict], name: str) -> float:
    try:
        return statistics.median(row[name] for row in rows)
    except KeyError as exc:
        raise BenchError(f"no per-layer metric {name}") from exc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join("src", "fedmask", "__init__.py")):
            raise BenchError("no fedmask sources under src/; run from the repository root")

        setup_s = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_s.append(start_worker(args, deadline, setup_only=True)[0])
        ready_s, result = start_worker(args, deadline, setup_only=False)
        setup_s.append(ready_s)

        op_s = result["op_s"]
        timing = {"ops_per_s": len(op_s) / sum(op_s), "op_s_p50": statistics.median(op_s)}
        if args.trace:
            traced = {f"trace.{name}": value for name, value in timing.items()}
            metrics = {
                m["name"]: (traced[m["name"]] if m["name"] in traced else median_over_ops(result["layers"], m["name"]), m["unit"])
                for m in spec["per_layer"]
            }
        else:
            values = {**timing, "setup_s": statistics.median(setup_s), "peak_rss_mb": result["peak_rss_mb"]}
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = result["ok"].count(False)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(op_s)} operations, {failed} failed")
    print(f"failed_frac = {failed / len(op_s)}")
    print(f"op_count = {len(op_s)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({"environment": result["env"], "operation_seeds": result["seeds"], "op_s": op_s, "setup_s": setup_s}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(op_s),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
