"""Span tracing of fedmask from outside the package.

`Tracer.install()` replaces every binding of each function in `WRAPPED`
across the loaded `fedmask` modules with a wrapper that records one span per
call: function, start, end, parent span and operation id.  Rebinding every
module attribute (not just the defining one) matters because `secagg` and
`attacks` import functions by name, while calls inside a module, such as
`crypto.verify` reaching `crypto.modexp`, go through that module's globals.

Spans are recorded only while an operation is open (`begin_op`/`end_op`),
kept in flat arrays in memory, and reduced to per-operation metrics by
`op_metrics` once the timed loop is over.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute path, size of one call taken from its result or None).
# Sizes give `crypto.prg_expand.words` and `crypto.stream_xor.bytes`.
WRAPPED = (
    ("numeric", "Rng.child", None),
    ("numeric", "encode_fixed", None),
    ("numeric", "decode_fixed", None),
    ("numeric", "field_add", None),
    ("numeric", "field_sub", None),
    ("numeric", "uniform_mask", None),
    ("crypto", "modexp", None),
    ("crypto", "dh_shared_secret", None),
    ("crypto", "sign", None),
    ("crypto", "verify", None),
    ("crypto", "prg_expand", lambda out: out.dim),
    ("crypto", "stream_xor", len),
    ("crypto", "shamir_split", None),
    ("crypto", "shamir_reconstruct", None),
    ("secagg", "run_protocol", None),
    ("secagg", "client_step", None),
    ("secagg", "server_step", None),
    ("secagg", "serialize_message", None),
    ("models", "forward_batch", None),
    ("models", "backward", None),
    ("models", "input_gradient", None),
    ("models", "flatten", None),
    ("models", "unflatten", None),
    ("attacks", "dlg_attack", None),
    ("attacks", "gan_attack", None),
    ("attacks", "gradient_difference", None),
)

NAMES = tuple(f"{mod}.{path}" for mod, path, _ in WRAPPED)


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._op_id = -1

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    def end_op(self) -> None:
        self._op_id = -1

    def _wrap(self, idx: int, fn, size_of):
        name, parent, op, start, end, size, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.size, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            i = len(start)
            name.append(idx)
            parent.append(stack[-1])
            op.append(self._op_id)
            size.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if size_of is not None:
                size[i] = size_of(out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every binding of every WRAPPED function in fedmask."""
        modules = [m for key, m in sys.modules.items() if key == "fedmask" or key.startswith("fedmask.")]
        for idx, (mod, path, size_of) in enumerate(WRAPPED):
            owner = sys.modules[f"fedmask.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original, size_of)
            setattr(owner, attr, wrapper)
            if outer:
                continue  # a method: every caller reaches it through the class
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }


def op_metrics(spans: dict, n_ops: int) -> list[dict]:
    """Per operation and wrapped function: calls, inclusive time `s`, self
    time `self_s`, summed call size, and for `crypto.verify` the calls that
    reached a modexp (cache misses).

    Inclusive time counts only outermost spans of a name, so a function that
    re-enters itself through another wrapped function is not counted twice.
    """
    name, parent, op = spans["name"], spans["parent"], spans["op"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time

    nested = np.zeros(len(dur), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        valid = anc >= 0
        idx = np.where(valid, anc, 0)
        nested |= valid & (name[idx] == name)
        anc = np.where(valid, parent[idx], -1)

    modexp, verify = NAMES.index("crypto.modexp"), NAMES.index("crypto.verify")
    from_modexp = parent[(name == modexp) & has_parent]
    verify_miss = np.zeros(len(dur), dtype=bool)
    verify_miss[from_modexp[name[from_modexp] == verify]] = True

    k = len(NAMES)
    key = op.astype(np.int64) * k + name

    def per_op(weights=None):
        return np.bincount(key, weights=weights, minlength=n_ops * k).reshape(n_ops, k)

    calls = per_op()
    incl = per_op(np.where(nested, 0.0, dur))
    self_s = per_op(self_time)
    size = per_op(spans["size"].astype(np.float64))
    misses = per_op(verify_miss.astype(np.float64))
    out = []
    for i in range(n_ops):
        row = {}
        for j, fn in enumerate(NAMES):
            row[f"{fn}.calls"] = int(calls[i, j])
            row[f"{fn}.s"] = float(incl[i, j])
            row[f"{fn}.self_s"] = float(self_s[i, j])
            row[f"{fn}.size"] = int(size[i, j])
        row["crypto.verify.misses"] = int(misses[i, verify])
        out.append(row)
    return out
