"""One workload process: set up, run the closed timed loop, check outputs.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Run from the repository root; `perfbench/run.py` starts it.  Operations run
one after another in this single thread until their summed wall time reaches
SECONDS.  Prints one JSON line: the monotonic time at which set-up ended,
each operation's seed, time and check result, peak RSS, the environment, and
with TRACE=1 the per-layer metrics of every operation.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback

SRC = os.path.join(os.getcwd(), "src")
TRACE_DIR = ".perfbench-out"


def op_seed(workload: str, seed: int, label: str, index: int) -> int:
    """A 63-bit seed per operation, distinct across labels and indices."""
    digest = hashlib.blake2b(f"{workload}|{seed}|{label}|{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def git_revision() -> str | None:
    """HEAD of the repository in the working directory, read from .git."""
    git = os.path.join(os.getcwd(), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    from fedmask import crypto

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "modexp_backend": "pow" if crypto._powmod is pow else "gmpy2.powmod",
    }


def layer_rows(workload_name: str, workload, tracer, extras: list[dict]) -> tuple[list[dict], list[tuple]]:
    """Per-operation layer metrics from the spans, and the (operation,
    reason) pairs that fail the cost check.  Writes the spans out."""
    import numpy as np

    from tracing import NAMES, op_metrics

    spans = tracer.arrays()
    os.makedirs(TRACE_DIR, exist_ok=True)
    np.savez(os.path.join(TRACE_DIR, f"{workload_name}-spans.npz"), names=np.array(NAMES), **spans)
    rows = op_metrics(spans, len(extras))
    errors = []
    for i, (row, extra) in enumerate(zip(rows, extras)):
        row["crypto.prg_expand.words"] = row["crypto.prg_expand.size"]
        row["crypto.stream_xor.bytes"] = row["crypto.stream_xor.size"]
        verifies = row["crypto.verify.calls"]
        row["crypto.verify.miss_ratio"] = row["crypto.verify.misses"] / verifies if verifies else 0.0
        row["secagg.messages"] = extra.get("secagg.messages", 0)
        row["secagg.transcript_bytes"] = extra.get("secagg.transcript_bytes", 0)
        row["attacks.dlg_attack.iterations"] = extra.get("attacks.dlg_attack.iterations", 0)
        # objective evaluations outside the finite-difference probes, less
        # the one at the start point, are the line search's
        line_search = row["attacks.gradient_difference.calls"] - 1 - extra.get("fd_probes", 0)
        row["attacks.dlg_attack.step_accept_ratio"] = (
            extra["accepted_steps"] / line_search if "accepted_steps" in extra and line_search > 0 else 0.0
        )
    if hasattr(workload, "cost_mismatches"):
        # fresh keys per operation make every operation miss the signature
        # cache in the same proportion
        for i, row in enumerate(rows):
            errors += [(i, e) for e in workload.cost_mismatches(row)]
            if row["crypto.verify.miss_ratio"] != rows[0]["crypto.verify.miss_ratio"]:
                errors.append((i, "crypto.verify.miss_ratio differs from operation 0"))
    return rows, errors


def main() -> int:
    workload_name, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    setup_only = "--setup-only" in sys.argv[5:]
    sys.path.insert(0, SRC)
    import fedmask

    if os.path.dirname(os.path.abspath(fedmask.__file__)) != os.path.join(SRC, "fedmask"):
        print(f"fedmask imported from {fedmask.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[workload_name]()
    workload.warm_up(op_seed(workload_name, seed, "warm-up", 0))
    seeds = [op_seed(workload_name, seed, "op", 0)]
    op = workload.make(seeds[0], 0)
    ready = time.monotonic()
    if setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    op_s, ok, extras = [], [], []
    while sum(op_s) < seconds:
        i = len(op_s)
        if i:
            seeds.append(op_seed(workload_name, seed, "op", i))
            op = workload.make(seeds[i], i)
        out = None
        gc.collect()  # every operation starts from the same heap, not the last one's garbage
        if tracer:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
        op_s.append(time.perf_counter() - start)
        if tracer:
            tracer.end_op()
        good, extra = workload.check(op, out, detail=trace) if out is not None else (False, {})
        ok.append(bool(good))
        extras.append(extra)
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("operation seeds repeat")

    result = {
        "ready": ready,
        "seeds": seeds,
        "op_s": op_s,
        "ok": ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        rows, errors = layer_rows(workload_name, workload, tracer, extras)
        for i, reason in errors:
            print(f"cost check, operation {i}: {reason}", file=sys.stderr)
            ok[i] = False
        result["layers"] = rows
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
