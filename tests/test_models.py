"""Tiny models: forward/backward correctness, SGD, checkpoints, and the
bigram language model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmask.models import (
    ACTIVATIONS,
    _averaged_deltas,
    _backprop,
    _forward,
    _layers,
    _matching_backprop,
    _output_delta,
    _param_gradient,
    _trace_buffers,
    Batch,
    BigramLM,
    TinyModel,
    accuracy,
    backward,
    flatten,
    forward_batch,
    init_model,
    input_gradient,
    lm_log_perplexity,
    mask_bigram_probs,
    forward_trace,
    per_example_backward,
    sgd_step,
    softmax,
    trace_gradient,
    train_bigram,
    unflatten,
)
from fedmask.numeric import ParameterError, Rng
from oracles import loop_fd_gradient, xor_batch

# Layer configurations exercised by the gradient-correctness matrix.
LAYER_MATRIX = [
    ((2, 3), "identity"),
    ((2, 3), "sigmoid"),
    ((3, 5, 2), "tanh"),
    ((3, 5, 2), "relu"),
    ((4, 6, 6, 3), "sigmoid"),
    ((4, 6, 6, 3), "tanh"),
    ((5, 4, 3, 2), "relu"),
    ((5, 4, 3, 2), "identity"),
]


def fd_param_gradient(model, batch, loss, h=1e-5):
    """Central finite differences of the batch loss over flat parameters."""
    w0 = flatten(model)
    g = np.empty_like(w0)
    for i in range(w0.shape[0]):
        wp = w0.copy()
        wp[i] += h
        wm = w0.copy()
        wm[i] -= h
        lp, _ = backward(unflatten(model, wp), batch, loss)
        # use the loss only; backward returns (loss, grad)
        lm, _ = backward(unflatten(model, wm), batch, loss)
        g[i] = (lp - lm) / (2 * h)
    return g


def random_batch(model, loss, rng):
    B = 3
    x = rng.uniform(-1, 1, B * model.input_dim).reshape(B, model.input_dim)
    if loss == "mse":
        y = rng.uniform(-1, 1, B * model.output_dim).reshape(B, model.output_dim)
    else:
        y = np.asarray(rng.integers(0, model.output_dim, size=B))
    return Batch(inputs=x, labels=y)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


# Independent copies of the activations and of their derivatives, in terms
# of the output a and the pre-activation z, for the reference passes below.
ORACLE_ACT = {
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
    "identity": lambda z: z,
}
ORACLE_DERIV = {
    "sigmoid": lambda a, z: a * (1.0 - a),
    "relu": lambda a, z: (z > 0.0).astype(np.float64),
    "tanh": lambda a, z: 1.0 - a * a,
    "identity": lambda a, z: np.ones_like(z),
}


def straight_line_forward(model, x):
    """Independent reimplementation of the forward pass."""
    a = np.asarray(x, dtype=float)
    for w, b in model.layers:
        a = ORACLE_ACT[model.activation](a @ w + b)
    return a


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_matches_straight_line_oracle(activation):
    model = init_model((4, 6, 3), activation, Rng(1).child(activation))
    x = Rng(2).child(activation).uniform(-2, 2, 4)
    assert np.allclose(forward_batch(model, x[None, :])[0], straight_line_forward(model, x), atol=1e-12)


def test_forward_batch_shape_and_consistency():
    model = init_model((3, 4, 2), "tanh", Rng(3))
    X = Rng(4).uniform(-1, 1, 15).reshape(5, 3)
    out = forward_batch(model, X)
    assert out.shape == (5, 2)
    for i in range(5):
        assert np.allclose(out[i], forward_batch(model, X[i][None, :])[0])


def test_forward_dim_validation():
    model = init_model((3, 2), "identity", Rng(0))
    with pytest.raises(ParameterError):
        forward_batch(model, np.zeros(4)[None, :])
    with pytest.raises(ParameterError):
        forward_batch(model, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Flatten / unflatten
# ---------------------------------------------------------------------------


def test_flatten_unflatten_bijection():
    model = init_model((5, 7, 4, 2), "relu", Rng(5))
    again = unflatten(model, flatten(model))
    for (w1, b1), (w2, b2) in zip(model.layers, again.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert model.param_count == flatten(model).shape[0]
    assert model.param_count == sum(
        model.sizes[i] * model.sizes[i + 1] + model.sizes[i + 1] for i in range(len(model.sizes) - 1)
    )


def test_unflatten_wrong_length():
    model = init_model((2, 2), "tanh", Rng(0))
    for bad in (np.zeros(model.param_count + 1), np.full(model.param_count, np.nan)):
        with pytest.raises(ParameterError):
            unflatten(model, bad)
        with pytest.raises(ParameterError):
            TinyModel(sizes=model.sizes, params=bad, activation=model.activation)


def test_params_read_only_and_copied_from_caller():
    model = init_model((3, 2), "tanh", Rng(0))
    with pytest.raises(ValueError):
        model.params[0] = 1.0
    for w, b in model.layers:
        assert not w.flags.writeable and not b.flags.writeable
    source = np.arange(model.param_count, dtype=np.float64)
    copy = unflatten(model, source)
    source[:] = -1.0
    assert np.array_equal(flatten(copy), np.arange(model.param_count, dtype=np.float64))


def test_models_compare_as_values():
    model = init_model((2, 2), "tanh", Rng(0))
    assert model == init_model((2, 2), "tanh", Rng(0))
    assert unflatten(model, flatten(model)) == model
    changed = flatten(model).copy()
    changed[3] += 1.0
    assert unflatten(model, changed) != model
    assert model != flatten(model) and model != "model"


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_property_unflatten_flatten_round_trip(seed):
    model = init_model((3, 4, 2), "sigmoid", Rng(seed))
    v = Rng(seed).child("v").uniform(-2, 2, model.param_count)
    assert np.array_equal(flatten(unflatten(model, v)), v)


# ---------------------------------------------------------------------------
# Softmax
# ---------------------------------------------------------------------------


def test_softmax_simplex():
    z = Rng(6).uniform(-50, 50, 40).reshape(8, 5)
    p = softmax(z)
    assert np.all(p >= 0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_shift_invariance():
    z = Rng(7).uniform(-3, 3, 6)
    assert np.allclose(softmax(z), softmax(z + 100.0))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_zero_gradient_at_exact_fit():
    model = init_model((2, 2), "identity", Rng(8))
    x = np.array([[0.3, -0.4]])
    y = forward_batch(model, x)
    loss, grad = backward(model, Batch(inputs=x, labels=y), "mse")
    assert loss <= 1e-12
    assert np.max(np.abs(grad)) <= 1e-12


@pytest.mark.parametrize("sizes,activation", LAYER_MATRIX)
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_gradient_matches_finite_differences(sizes, activation, loss):
    model = init_model(sizes, activation, Rng(9).child(str(sizes), activation))
    batch = random_batch(model, loss, Rng(10).child(str(sizes), activation, loss))
    _, grad = backward(model, batch, loss)
    fd = fd_param_gradient(model, batch, loss)
    denom = max(np.linalg.norm(fd), 1e-8)
    assert np.linalg.norm(grad - fd) / denom < 1e-4


def test_gradient_random_coordinates_2layer():
    model = init_model((6, 8, 3), "tanh", Rng(11))
    batch = random_batch(model, "mse", Rng(12))
    _, grad = backward(model, batch, "mse")
    fd = fd_param_gradient(model, batch, "mse")
    idx = Rng(13).choice(grad.shape[0], 50)
    for i in idx:
        denom = max(abs(fd[i]), 1e-6)
        assert abs(grad[i] - fd[i]) / denom < 1e-4


def test_input_gradient_matches_finite_differences():
    model = init_model((4, 5, 2), "sigmoid", Rng(14))
    batch = random_batch(model, "mse", Rng(15))
    gx = input_gradient(model, forward_trace(model, batch.inputs), batch.labels, "mse")
    h = 1e-5
    x = batch.inputs.copy()
    for b in range(x.shape[0]):
        for i in range(x.shape[1]):
            xp = x.copy()
            xp[b, i] += h
            xm = x.copy()
            xm[b, i] -= h
            lp, _ = backward(model, Batch(inputs=xp, labels=batch.labels), "mse")
            lm, _ = backward(model, Batch(inputs=xm, labels=batch.labels), "mse")
            fd = (lp - lm) / (2 * h)
            assert abs(gx[b, i] - fd) / max(abs(fd), 1e-6) < 1e-4


@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_trace_and_input_gradients_return_only_the_gradient(loss):
    model = init_model((3, 4, 2), "tanh", Rng(5))
    batch = random_batch(model, loss, Rng(6))
    trace = forward_trace(model, batch.inputs)
    grad = trace_gradient(model, trace, batch.labels, loss)
    grad_x = input_gradient(model, trace, batch.labels, loss)
    assert type(grad) is np.ndarray and grad.shape == (model.param_count,)
    assert type(grad_x) is np.ndarray and grad_x.shape == batch.inputs.shape


def test_unknown_loss_rejected():
    model = init_model((2, 2), "tanh", Rng(0))
    batch = xor_batch()
    with pytest.raises(ParameterError):
        backward(model, batch, "hinge")
    with pytest.raises(ParameterError, match="unknown loss"):
        per_example_backward(model, batch.inputs, batch.labels, "hinge")


def test_cross_entropy_label_count_checked():
    model = init_model((2, 3), "tanh", Rng(0))
    x = np.zeros((3, 2))
    with pytest.raises(ParameterError, match="one class index per output row"):
        trace_gradient(model, forward_trace(model, x), np.array([0, 1]), "cross_entropy")
    with pytest.raises(ParameterError, match="one class index per output row"):
        per_example_backward(model, x, np.array([0, 1, 2, 0]), "cross_entropy")
    # a negative label would index from the end, a label past the last class
    # would raise IndexError, and a fractional one would be truncated
    for labels in ([0, 1, -1], [0, 1, 3], [0.5, 1.7, 0.0], [0.0, 1.0, np.nan]):
        labels = np.array(labels)
        with pytest.raises(ParameterError, match=r"integers in \[0, 3\)"):
            trace_gradient(model, forward_trace(model, x), labels, "cross_entropy")
        with pytest.raises(ParameterError, match=r"integers in \[0, 3\)"):
            input_gradient(model, forward_trace(model, x), labels, "cross_entropy")
        with pytest.raises(ParameterError, match=r"integers in \[0, 3\)"):
            per_example_backward(model, x, labels, "cross_entropy")
        with pytest.raises(ParameterError, match=r"integers in \[0, 3\)"):
            backward(model, Batch(inputs=x, labels=labels), "cross_entropy")
    # integer-valued float labels are class indices
    assert np.array_equal(
        trace_gradient(model, forward_trace(model, x), np.array([0.0, 2.0, 1.0]), "cross_entropy"),
        trace_gradient(model, forward_trace(model, x), np.array([0, 2, 1]), "cross_entropy"),
    )


@pytest.mark.parametrize("labels", [3, np.array(3), np.zeros(2)])
def test_batch_label_count_checked(labels):
    with pytest.raises(ParameterError, match="label count must match input count"):
        Batch(inputs=np.ones((1, 4)), labels=labels)


def per_example_case(seed, activation, loss, sizes, B):
    model = init_model(sizes, activation, Rng(seed).child("model"))
    rng = Rng(seed).child("batch")
    x = rng.uniform(-1, 1, B * sizes[0]).reshape(B, sizes[0])
    if loss == "mse":
        y = rng.uniform(-1, 1, B * sizes[-1]).reshape(B, sizes[-1])
    else:
        y = np.asarray(rng.integers(0, sizes[-1], size=B))
    return model, x, y


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(ACTIVATIONS),
    loss=st.sampled_from(["mse", "cross_entropy"]),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    B=st.integers(1, 40),
)
def test_property_per_example_rows_match_single_example_backward(seed, activation, loss, sizes, B):
    model, x, y = per_example_case(seed, activation, loss, tuple(sizes), B)
    grads = per_example_backward(model, x, y, loss)
    assert grads.shape == (B, model.param_count)
    for i in range(B):
        _, want = backward(model, Batch(inputs=x[i : i + 1], labels=y[i : i + 1]), loss)
        assert np.max(np.abs(grads[i] - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_per_example_backward_single_row_is_backward_bit_for_bit(activation, loss):
    model, x, y = per_example_case(3, activation, loss, (5, 4, 3, 3), 1)
    (row,) = per_example_backward(model, x, y, loss)
    _, want = backward(model, Batch(inputs=x, labels=y), loss)
    assert np.array_equal(row, want)


def reference_trace_and_deltas(model, inputs, labels, loss, divisor):
    """Summed loss, activations (inputs first) and each layer's delta, first
    layer first, backpropagated from the output deltas divided by
    ``divisor``; the forward pass and loss head are written out."""
    act, deriv = ORACLE_ACT[model.activation], ORACLE_DERIV[model.activation]
    pre, acts = [], [inputs]
    for w, b in model.layers:
        pre.append(acts[-1] @ w + b)
        acts.append(act(pre[-1]))
    out = acts[-1]
    if loss == "mse":
        resid = out - np.asarray(labels, dtype=np.float64)
        loss_sum, dout = 0.5 * float(np.sum(resid * resid)), resid
    else:
        labels = np.asarray(labels, dtype=np.int64)
        probs = softmax(out)
        rows = np.arange(out.shape[0])
        picked = probs[rows, labels]
        probs[rows, labels] -= 1.0
        loss_sum, dout = -float(np.sum(np.log(np.maximum(picked, 1e-300)))), probs
    layers = model.layers
    deltas = [dout / divisor * deriv(acts[-1], pre[-1])]
    for layer in range(len(layers) - 1, 0, -1):
        deltas.append((deltas[-1] @ layers[layer][0].T) * deriv(acts[layer], pre[layer - 1]))
    return loss_sum, acts, deltas[::-1]


def reference_backward_full(model, batch, loss):
    """Batch-averaged loss, flat parameter gradient and input gradient from
    one forward trace and one full backward pass.  This is the routine that
    `backward` and `input_gradient` both called, each keeping one of the two
    gradients, before `trace_gradient` took its place; its helpers are
    written out so the split is checked against the old arithmetic."""
    loss_sum, acts, deltas = reference_trace_and_deltas(model, batch.inputs, batch.labels, loss, batch.size)
    layers = model.layers
    grad = np.empty(model.param_count)
    pos = 0
    for a, delta in zip(acts, deltas):
        fan_in, fan_out = a.shape[1], delta.shape[1]
        grad_w = grad[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        np.matmul(a.T, delta, out=grad_w)
        pos += fan_in * fan_out
        np.sum(delta, axis=0, out=grad[pos : pos + fan_out])
        pos += fan_out
    return loss_sum / batch.size, grad, deltas[0] @ layers[0][0].T


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(ACTIVATIONS),
    loss=st.sampled_from(["mse", "cross_entropy"]),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    B=st.integers(1, 40),
)
def test_property_gradients_match_full_backward_bit_for_bit(seed, activation, loss, sizes, B):
    model, x, y = per_example_case(seed, activation, loss, tuple(sizes), B)
    batch = Batch(inputs=x, labels=y)
    want_loss, want_grad, want_grad_x = reference_backward_full(model, batch, loss)
    got_loss, got_grad = backward(model, batch, loss)
    assert got_loss == want_loss
    assert np.array_equal(got_grad, want_grad)
    assert np.array_equal(trace_gradient(model, forward_trace(model, x), y, loss), want_grad)
    assert np.array_equal(input_gradient(model, forward_trace(model, x), y, loss), want_grad_x)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(ACTIVATIONS),
    loss=st.sampled_from(["mse", "cross_entropy"]),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    B=st.integers(1, 40),
)
def test_property_kernels_reuse_one_workspace(seed, activation, loss, sizes, B):
    """Two different batches run in turn through one set of kernel buffers,
    the output written into rows of a larger array as the GAN's generator
    writes into its discriminator's inputs: the second batch's trace, deltas
    and gradient equal the allocating functions' bit for bit."""
    model, x1, y1 = per_example_case(seed, activation, loss, tuple(sizes), B)
    _, x2, y2 = per_example_case(seed + 1, activation, loss, tuple(sizes), B)
    host = np.empty((B + 2, model.output_dim))
    pre, acts = _trace_buffers(model.sizes, activation, np.empty_like(x1), out=host[2:])
    deltas, scratch = [np.empty_like(z) for z in pre], [np.empty_like(z) for z in pre]
    grad = np.empty(model.param_count)
    for x, y in ((x1, y1), (x2, y2)):
        acts[0][...] = x
        _forward(model.layers, activation, pre, acts)
        np.divide(_output_delta(acts[-1], y, loss), B, out=deltas[-1])
        _backprop(model.layers, activation, pre, acts, deltas, scratch)
        _param_gradient(acts, deltas, _layers(model.sizes, grad))
    assert np.shares_memory(acts[-1], host)
    want_pre, want_acts = forward_trace(model, x2)
    assert all(np.array_equal(got, want) for got, want in zip(pre + acts, want_pre + want_acts))
    want_deltas = _averaged_deltas(model, (want_pre, want_acts), y2, loss)
    assert all(np.array_equal(got, want) for got, want in zip(deltas, want_deltas))
    assert np.array_equal(grad, trace_gradient(model, (want_pre, want_acts), y2, loss))


def matching_objective(model, known, B):
    """D(v) = || grad_w L(X, Y) - known ||^2 for the batch-averaged mse loss
    over the flattened rows v = (X, Y), from the allocating functions."""
    din = model.input_dim

    def objective(v):
        X, Y = v[: B * din].reshape(B, din), v[B * din :].reshape(B, -1)
        r = trace_gradient(model, forward_trace(model, X), Y, "mse") - known
        return float(r @ r)

    return objective


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(ACTIVATIONS),
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    B=st.integers(1, 3),
)
def test_property_matching_backprop_matches_central_differences(seed, activation, sizes, B):
    """Twice the double-backprop gradient of <grad_w L, r>, r = grad_w L - K
    held fixed, is the gradient of D over the inputs and targets: it agrees
    with central differences of D for every activation, 1-3 layers, 1-3
    rows and a random K."""
    model, x, y = per_example_case(seed, activation, "mse", tuple(sizes), B)
    known = Rng(seed).child("known").normal(0.0, 1.0, model.param_count)
    n = len(sizes) - 1
    pre, acts = forward_trace(model, x)
    deltas, scratch = [None] * (n - 1) + [(acts[-1] - y) / B], [None] * n
    _backprop(model.layers, activation, pre, acts, deltas, scratch)
    resid = np.empty(model.param_count)
    _param_gradient(acts, deltas, _layers(model.sizes, resid))
    resid -= known
    gx, gy = np.empty_like(x), np.empty_like(y)
    _matching_backprop(model.layers, activation, acts, deltas, scratch, y, _layers(model.sizes, resid), gx, gy)
    got = 2.0 * np.concatenate([gx.ravel(), gy.ravel()])
    objective = matching_objective(model, known, B)
    v = np.concatenate([x.ravel(), y.ravel()])
    want = loop_fd_gradient(objective, v, 1e-6)
    # the floor D covers a vanishing gradient, where central differences
    # leave only rounding of order eps * D / h
    assert np.max(np.abs(got - want)) <= 1e-6 * max(np.max(np.abs(want)), objective(v))


def reference_per_example_backward(model, x, y, loss):
    """Per-example gradient rows with each layer's outer products written by
    a broadcast multiply, as `per_example_backward` wrote them before its
    einsum."""
    _, acts, deltas = reference_trace_and_deltas(model, x, y, loss, 1)
    rows = []
    for a, delta in zip(acts, deltas):
        rows += [np.multiply(a[:, :, None], delta[:, None, :]).reshape(a.shape[0], -1), delta]
    return np.concatenate(rows, axis=1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(ACTIVATIONS),
    loss=st.sampled_from(["mse", "cross_entropy"]),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    B=st.integers(1, 40),
)
def test_property_per_example_backward_matches_broadcast_multiply(seed, activation, loss, sizes, B):
    """Equal to the broadcast-multiply reference under np.array_equal, which
    counts -0.0 and +0.0 equal: einsum writes a -0.0 product (relu's exact
    zeros) as +0.0."""
    model, x, y = per_example_case(seed, activation, loss, tuple(sizes), B)
    assert np.array_equal(per_example_backward(model, x, y, loss), reference_per_example_backward(model, x, y, loss))


def test_per_example_backward_relu_signed_zeros_compare_equal():
    model, x, y = per_example_case(3, "relu", "mse", (5, 4, 3, 3), 8)
    want = reference_per_example_backward(model, x, y, "mse")
    assert np.any((want == 0.0) & np.signbit(want))  # the reference holds -0.0 products
    assert np.array_equal(per_example_backward(model, x, y, "mse"), want)


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------


def test_sgd_eta_zero_leaves_model_unchanged():
    model = init_model((2, 4, 2), "sigmoid", Rng(16))
    stepped = sgd_step(model, xor_batch(), 0.0, "cross_entropy")
    assert np.array_equal(flatten(model), flatten(stepped))


def test_sgd_negative_eta_rejected():
    model = init_model((2, 2), "tanh", Rng(0))
    with pytest.raises(ParameterError):
        sgd_step(model, xor_batch(), -0.1)


def test_xor_convergence():
    model = init_model((2, 8, 2), "sigmoid", Rng(17).child("xor"))
    batch = xor_batch()
    for _ in range(5000):
        model = sgd_step(model, batch, 0.5, "cross_entropy")
        if accuracy(model, batch.inputs, batch.labels) == 1.0:
            break
    assert accuracy(model, batch.inputs, batch.labels) == 1.0


def test_single_linear_neuron_converges_to_slope_two():
    # closed-form least-squares solution of y = 2x is weight 2, bias 0
    model = TinyModel(sizes=(1, 1), params=np.zeros(2), activation="identity")
    x = np.linspace(-1, 1, 21)[:, None]
    y = 2.0 * x
    batch = Batch(inputs=x, labels=y)
    for _ in range(2000):
        model = sgd_step(model, batch, 0.5, "mse")
    [(w, b)] = model.layers
    assert abs(w[0, 0] - 2.0) < 1e-3
    assert abs(b[0]) < 1e-3


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_init_model_validation():
    with pytest.raises(ParameterError):
        init_model((3,), "tanh", Rng(0))
    with pytest.raises(ParameterError):
        init_model((3, 0), "tanh", Rng(0))
    with pytest.raises(ParameterError):
        init_model((3, 2), "softplus", Rng(0))


# ---------------------------------------------------------------------------
# Bigram language model
# ---------------------------------------------------------------------------


def test_uniform_lm_length_three_is_six_bits():
    lm = BigramLM(vocab_size=4, logits=np.zeros((4, 4)))
    assert abs(lm_log_perplexity(lm.probs, [0, 1, 2]) - 6.0) < 1e-9


def test_trained_lm_prefers_training_pattern():
    corpus = [[0, 1, 0, 1, 0, 1, 0, 1]] * 10  # "ababab..."
    lm = train_bigram(corpus, vocab_size=2)
    assert lm_log_perplexity(lm.probs, [0, 1, 0, 1]) < lm_log_perplexity(lm.probs, [0, 0, 0, 0])


def test_trained_lm_matches_count_oracle():
    corpus = [[0, 1, 2, 1, 0], [2, 2, 1, 0, 0]]
    smoothing = 0.1
    lm = train_bigram(corpus, vocab_size=3, smoothing=smoothing)
    counts = np.full((3, 3), smoothing)
    for seq in corpus:
        for a, b in zip(seq[:-1], seq[1:]):
            counts[a, b] += 1
    expected = counts / counts.sum(axis=1, keepdims=True)
    assert np.allclose(lm.probs, expected, atol=1e-12)


def test_lp_additivity():
    lm = train_bigram([[0, 1, 2, 3, 0, 2]] * 4, vocab_size=4)
    s1 = [0, 1, 2]
    s2 = [3, 0]
    joint = lm_log_perplexity(lm.probs, s1 + s2)
    # s2 alone scores its first token against the uniform prior; the joint
    # sequence scores it by the transition out of s1's last token instead
    boundary = np.log2(lm.probs[s1[-1], s2[0]])
    split = lm_log_perplexity(lm.probs, s1) + lm_log_perplexity(lm.probs, s2) - np.log2(4) - boundary
    assert abs(joint - split) < 1e-9


def test_lp_zero_probability_is_infinite():
    table = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert lm_log_perplexity(table, [0, 1]) == float("inf")


def test_lp_validation():
    lm = BigramLM(vocab_size=2, logits=np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        lm_log_perplexity(lm.probs, [])
    with pytest.raises(ParameterError):
        lm_log_perplexity(lm.probs, [0, 5])


def test_mask_bigram_zero_alpha_identity():
    lm = train_bigram([[0, 1, 1, 0]] * 3, vocab_size=2)
    table = mask_bigram_probs(lm, 0.0, Rng(0).child("m"))
    assert np.allclose(table, lm.probs, atol=1e-12)


def test_mask_bigram_rows_stochastic_or_zero():
    lm = train_bigram([[0, 1, 2, 0, 2, 1]] * 5, vocab_size=3)
    for seed in range(5):
        table = mask_bigram_probs(lm, 0.9, Rng(seed).child("m"))
        sums = table.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))
        assert np.all(table >= 0.0)


def test_mask_bigram_alpha_validation():
    lm = BigramLM(vocab_size=2, logits=np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        mask_bigram_probs(lm, 1.5, Rng(0))
