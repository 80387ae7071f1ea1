"""The four closed-loop workloads: inputs from a seed, the timed call, and
the check of its output.

Each workload builds fresh inputs for every operation from that operation's
own seed, so no two operations in a run share protocol keys, signatures or
models (`crypto._verify_cached` is keyed by value and would otherwise time
warm signature checks).
"""

from __future__ import annotations

import math

import numpy as np

from fedmask import attacks, crypto, data, models, numeric, secagg
from fedmask.numeric import Rng

DROPOUT_AFTER = {0: 1, 1: 1}  # clients 0 and 1 drop after key sharing


class SecAgg:
    """One `secagg.run_protocol` round with two clients dropped after round 1."""

    def __init__(self, params, n: int, k: int, dim: int):
        self.params, self.n, self.k, self.dim = params, n, k, dim

    def make(self, seed: int, index: int):
        root = Rng(seed).child("inputs")
        return seed, [root.child(i).uniform(-1.0, 1.0, self.dim) for i in range(self.n)]

    def run(self, op):
        seed, inputs = op
        return secagg.run_protocol(inputs, self.k, seed=seed, dropout_after=DROPOUT_AFTER, params=self.params)

    def warm_up(self, seed: int) -> None:
        small = SecAgg(self.params, n=5, k=3, dim=8)
        small.run(small.make(seed, 0))

    def check(self, op, out, detail: bool):
        """No abort, every client but 0 and 1 included, and the aggregate
        equal, residue for residue, to the field sum of the included inputs
        computed here with integer arithmetic."""
        _, inputs = op
        t = out.transcript
        included = tuple(range(len(DROPOUT_AFTER), len(inputs)))
        ok = not t.aborted and tuple(t.included) == included and t.aggregate_field is not None
        if ok:
            scale = float(1 << numeric.DEFAULT_FRAC_BITS)
            total = np.zeros(len(inputs[0]), dtype=np.int64)
            for i in included:
                total += np.rint(np.clip(inputs[i], -numeric.ENCODE_CLIP, numeric.ENCODE_CLIP) * scale).astype(np.int64)
            expected = np.mod(total, np.int64(numeric.MERSENNE61)).astype(np.uint64)
            field = t.aggregate_field
            ok = field.modulus == numeric.MERSENNE61 and np.array_equal(field.residues, expected)
        extras = {}
        if detail:
            extras = {"secagg.messages": len(t.messages), "secagg.transcript_bytes": len(t.to_jsonl())}
        return ok, extras

    def cost_mismatches(self, row: dict) -> list[str]:
        """Per-round call counts that differ from the protocol's cost formulas
        (Bonawitz et al., CCS 2017, section 7) with d clients dropped after
        round 1."""
        n, d = self.n, len(DROPOUT_AFTER)
        expected = {
            "crypto.modexp": 5 * n + 2 * n * (n - 1) + 3 * (n - d) + (n - d) * d,
            "crypto.prg_expand": (n - d) * (n + 1 + d),
            "crypto.stream_xor": (2 * n - d) * (n - 1),
            "crypto.shamir_split": 2 * n,
            "crypto.shamir_reconstruct": n,
        }
        return [
            f"{fn}.calls = {row[f'{fn}.calls']}, formula gives {want}"
            for fn, want in expected.items()
            if row[f"{fn}.calls"] != want
        ]


class Dlg:
    """One `attacks.dlg_attack` on criterion 06's setup: a 64-8-4 tanh model,
    one glyph, mse loss.  Even operations attack the true model, odd ones a
    copy masked at `attacks.DLG_FAILURE_ALPHA`."""

    iterations = 200

    def make(self, seed: int, index: int):
        model = models.init_model((64, 8, 4), "tanh", Rng(seed).child("model"))
        glyphs, _ = data.make_glyphs(1, Rng(seed).child("data"))
        x = glyphs[0]
        y = Rng(seed).child("y").uniform(-1.0, 1.0, 4)
        truth = models.Batch(inputs=x[None, :], labels=y[None, :])
        _, grad = models.backward(model, truth, "mse")
        attacked = model
        if index % 2:
            w = models.flatten(model)
            mask = numeric.uniform_mask(w.shape[0], attacks.DLG_FAILURE_ALPHA, Rng(seed).child("mask"))
            attacked = models.unflatten(model, w + mask)
        return attacked, grad, truth, attacks.DlgConfig(seed=seed, iterations=self.iterations)

    def run(self, op):
        return attacks.dlg_attack(*op)

    def warm_up(self, seed: int) -> None:
        attacked, grad, truth, _ = self.make(seed, 0)
        attacks.dlg_attack(attacked, grad, truth, attacks.DlgConfig(seed=seed, iterations=2))

    def check(self, op, out, detail: bool):
        """No abort; the objective trace is finite, non-increasing, and ends
        no higher than the objective at the documented dummy start point."""
        model, grad, _, cfg = op
        din = model.input_dim
        v0 = Rng(cfg.seed).child("dlg-init").normal(0.0, cfg.init_scale, din + model.output_dim)
        initial = attacks.gradient_difference(model, grad, v0[:din], v0[din:])
        trace = [initial] + list(out.trace)
        ok = (
            out.aborted is None
            and len(out.trace) >= 1
            and all(math.isfinite(t) for t in trace)
            and all(b <= a for a, b in zip(trace, trace[1:]))
        )
        # a step is taken only on a strict decrease; a failed line search
        # appends the unchanged objective and ends the attack
        accepted = sum(b < a for a, b in zip(trace, trace[1:]))
        return ok, {
            "attacks.dlg_attack.iterations": len(out.trace),
            "accepted_steps": accepted,
            "fd_probes": 2 * (din + model.output_dim) * len(out.trace),
        }


class Gan:
    """One `attacks.gan_attack` in masked mode with the default schedule."""

    schedule = attacks.GanSchedule()

    def make(self, seed: int, index: int):
        real, _ = data.make_gaussian_mixture(512, Rng(seed).child("real"))
        return attacks.default_gan_pair(seed), real, self.schedule, seed

    def run(self, op):
        pair, real, schedule, seed = op
        return attacks.gan_attack(pair, real, schedule, mode="masked", seed=seed)

    def warm_up(self, seed: int) -> None:
        pair, real, _, _ = self.make(seed, 0)
        self.run((pair, real, attacks.GanSchedule(epochs=11, steps_per_epoch=1), seed))

    def check(self, op, out, detail: bool):
        """Not diverged, one finite loss per epoch, finite samples."""
        schedule = op[2]
        ok = (
            not out.diverged
            and len(out.loss_trace) == schedule.epochs
            and all(math.isfinite(v) for v in out.loss_trace)
            and bool(np.all(np.isfinite(out.samples)))
        )
        return ok, {}


WORKLOADS = {
    "secagg-keys": lambda: SecAgg(crypto.RFC3526_2048, n=32, k=21, dim=64),
    "secagg-masks": lambda: SecAgg(crypto.TOY_GROUP, n=16, k=11, dim=8192),
    "dlg": Dlg,
    "gan": Gan,
}
