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

from .numeric import ParameterError, Rng, as_vector

ACTIVATIONS = ("sigmoid", "relu", "tanh", "identity")

_ACT = {
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
    "identity": lambda z: z,
}

_ACT_DERIV = {
    # derivatives expressed in terms of the activation output a = theta(z)
    "sigmoid": lambda a, z: a * (1.0 - a),
    "relu": lambda a, z: (z > 0.0).astype(np.float64),
    "tanh": lambda a, z: 1.0 - a * a,
    "identity": lambda a, z: np.ones_like(z),
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


@dataclass(frozen=True)
class TinyModel:
    """Fully-connected network; the activation applies to every layer.
    ``params`` is the flat vector ``_layers`` splits, stored as a read-only copy."""

    sizes: tuple[int, ...]
    params: np.ndarray
    activation: str = "sigmoid"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
        params = np.array(as_vector(self.params))
        if params.shape[0] != count_params(self.sizes):
            raise ParameterError(f"expected {count_params(self.sizes)} parameters, got {params.shape[0]}")
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

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


def init_model(sizes, activation: str = "sigmoid", rng: Rng | None = None) -> TinyModel:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)], seed-pinned."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ParameterError("need at least input and output sizes, all positive")
    rng = rng if rng is not None else Rng(0)
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
        if y.shape[0] != x.shape[0]:
            raise ParameterError("label count must match input count")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def forward(model: TinyModel, x: np.ndarray) -> np.ndarray:
    """Final-layer activations for a single input vector."""
    return forward_batch(model, as_vector(x)[None, :])[0]


def forward_batch(model: TinyModel, X: np.ndarray) -> np.ndarray:
    return _forward_trace(model, X)[1][-1]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward_trace(model: TinyModel, X: np.ndarray):
    """Pre-activations and activations (inputs first) of every layer."""
    a = np.asarray(X, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != model.input_dim:
        raise ParameterError("inputs must be (B, din) matching the model")
    act = _ACT[model.activation]
    pre, activations = [], [a]
    for w, b in model.layers:
        pre.append(a @ w + b)
        a = act(pre[-1])
        activations.append(a)
    return pre, activations


def _loss_head(out: np.ndarray, labels, loss: str):
    """Summed loss over the batch and each example's own output delta
    dL_i/d out_i (unscaled: the mse residual, or softmax minus one-hot)."""
    if loss == "mse":
        targets = np.asarray(labels, dtype=np.float64)
        if targets.shape != out.shape:
            raise ParameterError("mse targets must match output shape")
        resid = out - targets
        return 0.5 * float(np.sum(resid * resid)), resid
    if loss == "cross_entropy":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ParameterError("cross_entropy labels must be class indices")
        probs = softmax(out)
        rows = np.arange(out.shape[0])
        picked = probs[rows, labels]
        probs[rows, labels] -= 1.0
        return -float(np.sum(np.log(np.maximum(picked, 1e-300)))), probs
    raise ParameterError(f"unknown loss {loss!r}")


def _deltas(model: TinyModel, pre, acts, dout: np.ndarray) -> list[np.ndarray]:
    """Each layer's delta dL/dz, first layer first, backpropagated from the
    output deltas ``dout``."""
    deriv, layers = _ACT_DERIV[model.activation], model.layers
    deltas = [dout * deriv(acts[-1], pre[-1])]
    for layer in range(len(layers) - 1, 0, -1):
        deltas.append((deltas[-1] @ layers[layer][0].T) * deriv(acts[layer], pre[layer - 1]))
    return deltas[::-1]


def _backward_full(model: TinyModel, batch: Batch, loss: str):
    """Loss, flat parameter gradient, and input gradient for a batch."""
    pre, acts = _forward_trace(model, batch.inputs)
    loss_sum, dout = _loss_head(acts[-1], batch.labels, loss)
    deltas = _deltas(model, pre, acts, dout / batch.size)
    grad = np.empty(model.param_count)
    for a, delta, (grad_w, grad_b) in zip(acts, deltas, _layers(model.sizes, grad)):
        np.matmul(a.T, delta, out=grad_w)
        np.sum(delta, axis=0, out=grad_b)
    return loss_sum / batch.size, grad, deltas[0] @ model.layers[0][0].T


def per_example_backward(model: TinyModel, X: np.ndarray, Y, loss: str) -> np.ndarray:
    """(B, param_count) matrix whose row i is the flat gradient of example
    i's own loss, from one forward trace.

    Goodfellow's per-example trick ("Efficient Per-Example Gradient
    Computations", arXiv:1510.01799): a layer's weight gradient for one
    example is the outer product of its input activation and its delta, so
    the (B, ...) deltas are backpropagated once and each example's outer
    products are written straight into its row.  For B = 1 the row equals
    ``backward`` bit for bit; for larger B the batched matmuls may round the
    backpropagated deltas differently in the last bits.
    """
    pre, acts = _forward_trace(model, X)
    _, dout = _loss_head(acts[-1], Y, loss)
    grads = np.empty((acts[0].shape[0], model.param_count))
    for a, delta, (grad_w, grad_b) in zip(acts, _deltas(model, pre, acts, dout), _layers(model.sizes, grads)):
        np.multiply(a[:, :, None], delta[:, None, :], out=grad_w)
        grad_b[...] = delta
    return grads


def backward(model: TinyModel, batch: Batch, loss: str = "mse"):
    """Batch-averaged loss and its gradient over the flattened parameters."""
    loss_value, grad, _ = _backward_full(model, batch, loss)
    return loss_value, grad


def input_gradient(model: TinyModel, batch: Batch, loss: str = "mse"):
    """Loss gradient with respect to the inputs (used by inversion attacks)."""
    loss_value, _, grad_x = _backward_full(model, batch, loss)
    return loss_value, grad_x


def sgd_step(model: TinyModel, batch: Batch, eta: float, loss: str = "mse") -> TinyModel:
    if eta < 0:
        raise ParameterError("eta must be >= 0")
    _, grad = backward(model, batch, loss)
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
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError("alpha must lie in [0, 1]")
    V = lm.vocab_size
    noise = rng.uniform(-alpha, alpha, V * V).reshape(V, V) if alpha > 0 else 0.0
    masked = np.maximum(lm.probs + noise, 0.0)
    sums = masked.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normed = np.where(sums > 0, masked / np.where(sums > 0, sums, 1.0), 0.0)
    return normed


def lm_log_perplexity(lm, tokens, context: int | None = None) -> float:
    """Sum of -log2 transition probabilities, in bits.

    The first token is scored against a uniform prior over the vocabulary,
    or against the row of ``context`` when a boundary context is given.
    Accepts a BigramLM or a raw (V, V) row-stochastic table (e.g. a masked
    table).  A zero-probability transition yields +inf.
    """
    if isinstance(lm, BigramLM):
        table = lm.probs
    else:
        table = np.asarray(lm, dtype=np.float64)
    V = table.shape[0]
    tokens = list(tokens)
    if not tokens:
        raise ParameterError("token sequence must be nonempty")
    if any(not (0 <= t < V) for t in tokens):
        raise ParameterError("token id out of vocabulary")
    if context is None:
        total = float(np.log2(V))  # uniform prior for the first token
        chain = tokens
    else:
        total = 0.0
        chain = [context] + tokens
    for prev, nxt in zip(chain[:-1], chain[1:]):
        p = table[prev, nxt]
        if p <= 0.0:
            return float("inf")
        total += -np.log2(p)
    return float(total)
