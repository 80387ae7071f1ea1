"""Tiny manually-differentiated neural models and loss machinery.

Models are immutable values: training steps return new models, and each
model's one flat parameter vector is flagged read-only to enforce it.
Everything is deliberately small (<= 10^4 parameters) so attacks that need
gradients of gradient differences remain tractable with plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numeric import ParameterError, Rng, as_vector, check_alpha

ACTIVATIONS = ("sigmoid", "relu", "tanh", "identity")

# Activations and their derivatives, written into ``out`` (allocated when
# None) and returned.  Under identity theta(z) is z itself, and theta' = 1,
# whose product is skipped.


def _sigmoid(z, out):
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


_ACT = {
    "sigmoid": _sigmoid,
    "relu": lambda z, out: np.maximum(z, 0.0, out=out),
    "tanh": np.tanh,
    "identity": lambda z, out: z,
}

# derivatives expressed in terms of the activation output a = theta(z)
_ACT_DERIV = {
    "sigmoid": lambda a, z, out: np.multiply(a, np.subtract(1.0, a, out=out), out=out),
    "relu": lambda a, z, out: np.greater(z, 0.0, out=out),
    "tanh": lambda a, z, out: np.subtract(1.0, np.multiply(a, a, out=out), out=out),
    "identity": None,
}


def count_params(sizes) -> int:
    """Weights and biases of a dense network with these layer sizes."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


def _layers(sizes, flat: np.ndarray):
    """Per-layer ``(w, b)`` views of flat parameters: each layer's
    (fan_in, fan_out) weights row-major, then its biases.  Leading axes are
    kept, so a (B, params) matrix splits into (B, fan_in, fan_out) and
    (B, fan_out) views."""
    lead = flat.shape[:-1]
    views, pos = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        end = pos + fan_in * fan_out
        views.append((flat[..., pos:end].reshape(lead + (fan_in, fan_out)), flat[..., end : end + fan_out]))
        pos = end + fan_out
    return views


@dataclass(frozen=True, eq=False)
class TinyModel:
    """Fully-connected network; the activation applies to every layer.
    ``params`` is the flat vector ``_layers`` splits, stored as a read-only copy."""

    sizes: tuple[int, ...]
    params: np.ndarray
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
        params = np.array(as_vector(self.params))
        if params.shape[0] != count_params(self.sizes):
            raise ParameterError(f"expected {count_params(self.sizes)} parameters, got {params.shape[0]}")
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TinyModel)
            and (self.sizes, self.activation) == (other.sizes, other.activation)
            and np.array_equal(self.params, other.params)
        )

    @cached_property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Read-only (weights (fan_in, fan_out), biases (fan_out,)) views."""
        return _layers(self.sizes, self.params)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def output_dim(self) -> int:
        return self.sizes[-1]

    @property
    def param_count(self) -> int:
        return self.params.shape[0]


def init_model(sizes, activation: str, rng: Rng) -> TinyModel:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)], seed-pinned."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ParameterError("need at least input and output sizes, all positive")
    parts = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, fan_in * fan_out))
        parts.append(rng.uniform(-bound, bound, fan_out))
    return TinyModel(sizes=sizes, params=np.concatenate(parts), activation=activation)


def flatten(model: TinyModel) -> np.ndarray:
    """The model's read-only parameter vector (no copy)."""
    return model.params


def unflatten(model: TinyModel, flat: np.ndarray) -> TinyModel:
    """A model shaped like ``model`` holding a copy of ``flat``."""
    return TinyModel(sizes=model.sizes, params=flat, activation=model.activation)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (B, din)
    labels: np.ndarray  # (B,) class indices or (B, dout) target vectors

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ParameterError("inputs must be a nonempty (B, din) array")
        y = np.asarray(self.labels)
        if y.shape[:1] != x.shape[:1]:
            raise ParameterError("label count must match input count")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def forward_batch(model: TinyModel, X: np.ndarray) -> np.ndarray:
    return forward_trace(model, X)[1][-1]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


# The three kernels below are the only layer recursions.  Each writes into
# the arrays it is given, and allocates (through the ufunc) any given as
# None: the allocating functions after them (forward_trace, trace_gradient,
# input_gradient, per_example_backward) validate and pass None, and the GAN
# attack passes buffers it allocates once per attack.


def _trace_buffers(sizes, activation: str, x: np.ndarray, out: np.ndarray | None = None):
    """Unfilled ``(pre, acts)`` for a forward pass over the rows ``x``:
    ``acts[0]`` is ``x``; under identity each activation is its layer's
    pre-activation array.  ``out``, if given, becomes the output ``acts[-1]``."""
    pre, acts = [], [x]
    for fan_out in sizes[1:]:
        pre.append(np.empty((x.shape[0], fan_out)))
        acts.append(pre[-1] if activation == "identity" else np.empty_like(pre[-1]))
    if out is not None:
        acts[-1] = out
        if activation == "identity":
            pre[-1] = out
    return pre, acts


def _forward(layers, activation: str, pre, acts) -> None:
    """Fill ``pre`` and ``acts[1:]`` layer by layer from the inputs ``acts[0]``."""
    act = _ACT[activation]
    for i, (w, b) in enumerate(layers):
        z = pre[i] = np.matmul(acts[i], w, out=pre[i])
        np.add(z, b, out=z)
        acts[i + 1] = act(z, acts[i + 1])


def _backprop(layers, activation: str, pre, acts, deltas, scratch) -> None:
    """Turn the output deltas held in ``deltas[-1]`` into each layer's delta
    dL/dz, first layer first; ``scratch`` takes each activation derivative."""
    deriv = _ACT_DERIV[activation]
    for i in range(len(layers) - 1, -1, -1):
        if i < len(layers) - 1:
            deltas[i] = np.matmul(deltas[i + 1], layers[i + 1][0].T, out=deltas[i])
        if deriv is not None:
            scratch[i] = deriv(acts[i + 1], pre[i], scratch[i])
            np.multiply(deltas[i], scratch[i], out=deltas[i])


def _param_gradient(acts, deltas, grad_layers) -> None:
    """Write the parameter gradient of the loss whose deltas are ``deltas``
    into the per-layer ``(w, b)`` views ``grad_layers``."""
    for a, delta, (grad_w, grad_b) in zip(acts, deltas, grad_layers):
        np.matmul(a.T, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)


def forward_trace(model: TinyModel, X: np.ndarray):
    """Pre-activations and activations (inputs first) of every layer: the
    ``(pre, acts)`` pair that ``trace_gradient`` differentiates, and whose
    ``acts[-1]`` is the model's output."""
    a = np.asarray(X, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != model.input_dim:
        raise ParameterError("inputs must be (B, din) matching the model")
    n = len(model.sizes) - 1
    pre, acts = [None] * n, [a] + [None] * n
    _forward(model.layers, model.activation, pre, acts)
    return pre, acts


def _output_delta(out: np.ndarray, labels, loss: str) -> np.ndarray:
    """Each example's own output delta dL_i/d out_i (unscaled: the mse
    residual, or softmax minus one-hot), after checking the labels."""
    if loss == "mse":
        targets = np.asarray(labels, dtype=np.float64)
        if targets.shape != out.shape:
            raise ParameterError("mse targets must match output shape")
        return out - targets
    if loss == "cross_entropy":
        labels = np.asarray(labels)
        if labels.shape != out.shape[:1]:
            raise ParameterError("cross_entropy labels must be one class index per output row")
        if not np.all((labels >= 0) & (labels < out.shape[1]) & (np.floor(labels) == labels)):
            raise ParameterError(f"cross_entropy labels must be integers in [0, {out.shape[1]})")
        probs = softmax(out)
        probs[np.arange(out.shape[0]), labels.astype(np.int64)] -= 1.0
        return probs
    raise ParameterError(f"unknown loss {loss!r}")


def _loss_sum(out: np.ndarray, labels, loss: str) -> float:
    """Summed loss over the batch, for labels ``_output_delta`` accepted."""
    if loss == "mse":
        resid = out - np.asarray(labels, dtype=np.float64)
        return 0.5 * float(np.add.reduce(resid * resid, axis=None))
    picked = softmax(out)[np.arange(out.shape[0]), np.asarray(labels, dtype=np.int64)]
    return -float(np.sum(np.log(np.maximum(picked, 1e-300))))


def _deltas(model: TinyModel, pre, acts, dout: np.ndarray) -> list[np.ndarray]:
    """Each layer's delta dL/dz, first layer first, backpropagated from the
    output deltas ``dout``, which becomes the last of them."""
    n = len(pre)
    deltas = [None] * (n - 1) + [dout]
    _backprop(model.layers, model.activation, pre, acts, deltas, [None] * n)
    return deltas


def _averaged_deltas(model: TinyModel, trace, labels, loss: str) -> list[np.ndarray]:
    """Each layer's delta of the batch-averaged loss, from a trace."""
    pre, acts = trace
    return _deltas(model, pre, acts, _output_delta(acts[-1], labels, loss) / acts[0].shape[0])


def trace_gradient(model: TinyModel, trace, labels, loss: str) -> np.ndarray:
    """Gradient of the batch-averaged loss over the flattened parameters,
    from a ``forward_trace`` of the batch inputs; the loss is not formed."""
    deltas = _averaged_deltas(model, trace, labels, loss)
    grad = np.empty(model.param_count)
    _param_gradient(trace[1], deltas, _layers(model.sizes, grad))
    return grad


def per_example_backward(model: TinyModel, X: np.ndarray, Y, loss: str) -> np.ndarray:
    """(B, param_count) matrix whose row i is the flat gradient of example
    i's own loss, from one forward trace.

    Goodfellow's per-example trick ("Efficient Per-Example Gradient
    Computations", arXiv:1510.01799): a layer's weight gradient for one
    example is the outer product of its input activation and its delta, so
    the (B, ...) deltas are backpropagated once and one einsum, faster than a
    broadcast multiply's fan_out-long inner loops, writes each example's outer
    products into its row; a -0.0 product reads +0.0.  For B = 1 the row
    equals ``backward`` (np.array_equal); for larger B the batched matmuls
    may round the backpropagated deltas differently in the last bits.
    """
    pre, acts = forward_trace(model, X)
    dout = _output_delta(acts[-1], Y, loss)
    grads = np.empty((acts[0].shape[0], model.param_count))
    for a, delta, (grad_w, grad_b) in zip(acts, _deltas(model, pre, acts, dout), _layers(model.sizes, grads)):
        np.einsum("bi,bj->bij", a, delta, out=grad_w)
        grad_b[...] = delta
    return grads


def backward(model: TinyModel, batch: Batch, loss: str = "mse"):
    """Batch-averaged loss and its gradient over the flattened parameters."""
    trace = forward_trace(model, batch.inputs)
    grad = trace_gradient(model, trace, batch.labels, loss)
    return _loss_sum(trace[1][-1], batch.labels, loss) / batch.size, grad


def input_gradient(model: TinyModel, trace, labels, loss: str) -> np.ndarray:
    """Gradient of the batch-averaged loss over the inputs, from a
    ``forward_trace`` of the batch (for inversion attacks); neither the loss
    nor a parameter gradient is formed."""
    return _averaged_deltas(model, trace, labels, loss)[0] @ model.layers[0][0].T


def sgd_step(model: TinyModel, batch: Batch, eta: float, loss: str = "mse") -> TinyModel:
    if eta < 0:
        raise ParameterError("eta must be >= 0")
    grad = trace_gradient(model, forward_trace(model, batch.inputs), batch.labels, loss)
    return unflatten(model, flatten(model) - eta * grad)


def accuracy(model: TinyModel, inputs: np.ndarray, labels: np.ndarray) -> float:
    out = forward_batch(model, inputs)
    pred = np.argmax(out, axis=1)
    return float(np.mean(pred == np.asarray(labels)))


# ---------------------------------------------------------------------------
# Bigram language model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BigramLM:
    """Desk-scale language model: a V x V table of transition logits."""

    vocab_size: int
    logits: np.ndarray  # (V, V): logits[prev, next]

    def __post_init__(self):
        table = np.asarray(self.logits, dtype=np.float64)
        if table.shape != (self.vocab_size, self.vocab_size):
            raise ParameterError("logit table must be (V, V)")
        object.__setattr__(self, "logits", table)

    @property
    def probs(self) -> np.ndarray:
        return softmax(self.logits)


def train_bigram(corpus, vocab_size: int, smoothing: float = 0.1) -> BigramLM:
    """Maximum-likelihood bigram with additive smoothing, as logit table."""
    counts = np.full((vocab_size, vocab_size), smoothing, dtype=np.float64)
    for seq in corpus:
        for a, b in zip(seq[:-1], seq[1:]):
            counts[a, b] += 1.0
    return BigramLM(vocab_size=vocab_size, logits=np.log(counts))


def mask_bigram_probs(lm: BigramLM, alpha: float, rng: Rng) -> np.ndarray:
    """Masked transition table: probabilities perturbed by U[-alpha, alpha].

    Perturbed entries are clipped at zero and rows renormalized, so large
    alpha drives some transition probabilities to exactly zero (the source of
    the +inf log-perplexity saturation at high alpha).  Returns a (V, V) row
    table; rows that collapse entirely stay all-zero.
    """
    check_alpha(alpha)
    V = lm.vocab_size
    noise = rng.uniform(-alpha, alpha, V * V).reshape(V, V) if alpha > 0 else 0.0
    masked = np.maximum(lm.probs + noise, 0.0)
    sums = masked.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normed = np.where(sums > 0, masked / np.where(sums > 0, sums, 1.0), 0.0)
    return normed


def lm_log_perplexity(table: np.ndarray, tokens) -> float:
    """Sum of -log2 transition probabilities, in bits.

    ``table`` is a (V, V) row-stochastic transition table, such as a
    BigramLM's ``probs`` or a masked table.  The first token is scored
    against a uniform prior over the vocabulary.  A zero-probability
    transition yields +inf.
    """
    table = np.asarray(table, dtype=np.float64)
    V = table.shape[0]
    tokens = list(tokens)
    if not tokens:
        raise ParameterError("token sequence must be nonempty")
    if any(not (0 <= t < V) for t in tokens):
        raise ParameterError("token id out of vocabulary")
    total = float(np.log2(V))  # uniform prior for the first token
    for prev, nxt in zip(tokens[:-1], tokens[1:]):
        p = table[prev, nxt]
        if p <= 0.0:
            return float("inf")
        total += -np.log2(p)
    return float(total)
