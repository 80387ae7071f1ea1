"""Tiny models: forward/backward correctness, SGD, checkpoints, and the
bigram language model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmask.data import xor_batch
from fedmask.models import (
    ACTIVATIONS,
    Batch,
    BigramLM,
    TinyModel,
    accuracy,
    backward,
    flatten,
    forward,
    forward_batch,
    init_model,
    input_gradient,
    lm_log_perplexity,
    mask_bigram_probs,
    per_example_backward,
    sgd_step,
    softmax,
    train_bigram,
    unflatten,
)
from fedmask.numeric import ParameterError, Rng

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


def straight_line_forward(model, x):
    """Independent reimplementation of the forward pass."""
    acts = {
        "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
        "relu": lambda z: np.maximum(z, 0.0),
        "tanh": np.tanh,
        "identity": lambda z: z,
    }
    a = np.asarray(x, dtype=float)
    for w, b in model.layers:
        a = acts[model.activation](a @ w + b)
    return a


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_matches_straight_line_oracle(activation):
    model = init_model((4, 6, 3), activation, Rng(1).child(activation))
    x = Rng(2).child(activation).uniform(-2, 2, 4)
    assert np.allclose(forward(model, x), straight_line_forward(model, x), atol=1e-12)


def test_forward_batch_shape_and_consistency():
    model = init_model((3, 4, 2), "tanh", Rng(3))
    X = Rng(4).uniform(-1, 1, 15).reshape(5, 3)
    out = forward_batch(model, X)
    assert out.shape == (5, 2)
    for i in range(5):
        assert np.allclose(out[i], forward(model, X[i]))


def test_forward_dim_validation():
    model = init_model((3, 2), "identity", Rng(0))
    with pytest.raises(ParameterError):
        forward(model, np.zeros(4))
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
    _, gx = input_gradient(model, batch, "mse")
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


def test_unknown_loss_rejected():
    model = init_model((2, 2), "tanh", Rng(0))
    batch = xor_batch()
    with pytest.raises(ParameterError):
        backward(model, batch, "hinge")
    with pytest.raises(ParameterError, match="unknown loss"):
        per_example_backward(model, batch.inputs, batch.labels, "hinge")


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
    assert abs(lm_log_perplexity(lm, [0, 1, 2]) - 6.0) < 1e-9


def test_trained_lm_prefers_training_pattern():
    corpus = [[0, 1, 0, 1, 0, 1, 0, 1]] * 10  # "ababab..."
    lm = train_bigram(corpus, vocab_size=2)
    assert lm_log_perplexity(lm, [0, 1, 0, 1]) < lm_log_perplexity(lm, [0, 0, 0, 0])


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
    joint = lm_log_perplexity(lm, s1 + s2)
    split = lm_log_perplexity(lm, s1) + lm_log_perplexity(lm, s2, context=s1[-1])
    assert abs(joint - split) < 1e-9


def test_lp_zero_probability_is_infinite():
    table = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert lm_log_perplexity(table, [0, 1]) == float("inf")


def test_lp_validation():
    lm = BigramLM(vocab_size=2, logits=np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        lm_log_perplexity(lm, [])
    with pytest.raises(ParameterError):
        lm_log_perplexity(lm, [0, 5])


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
