import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import assert_grads_match, finite_difference_grads
from tiergae.autodiff import (
    Adam,
    Param,
    Tape,
    glorot_uniform,
    seeded_rng,
    zero_grads,
)
from tiergae.cli import params_state, set_params_state
from tiergae.errors import ConfigError, DomainError, NonScalarLossError, ShapeMismatchError


def test_sigmoid_at_zero():
    t = Tape()
    out = t.sigmoid(t.const(np.zeros((2, 3))))
    assert np.array_equal(t.value(out), np.full((2, 3), 0.5))


def test_matmul_identity():
    t = Tape()
    a = np.arange(12.0).reshape(3, 4)
    out = t.matmul(t.const(np.eye(3)), t.const(a))
    assert np.array_equal(t.value(out), a)


def test_sum_sigmoid_gradient_at_zero():
    # sigma'(0) = 0.25 per coordinate
    t = Tape()
    x = Param(np.zeros((3, 1)), name="x")
    t.backward(t.sum(t.sigmoid(t.param(x))))
    assert np.allclose(x.grad, 0.25)


def test_sum_gradient_all_ones():
    t = Tape()
    w = Param(np.array([[1.0, 2.0], [3.0, 4.0]]), name="w")
    t.backward(t.sum(t.param(w)))
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_matmul_sum_gradient_closed_form():
    # d/dW sum(X W) = X^T 1
    rng = seeded_rng(0)
    x = rng.standard_normal((3, 2))
    w = Param(rng.standard_normal((2, 4)), name="w")
    t = Tape()
    t.backward(t.sum(t.matmul(t.const(x), t.param(w))))
    assert np.allclose(w.grad, x.T @ np.ones((3, 4)))


def _check_unary(op_name, value, **kwargs):
    p = Param(value.copy(), name="p")

    def run():
        t = Tape()
        node = getattr(t, op_name)(t.param(p), **kwargs)
        return t.value(t.sum(node))

    t = Tape()
    loss = t.sum(getattr(t, op_name)(t.param(p), **kwargs))
    t.backward(loss)
    assert_grads_match([p.grad], finite_difference_grads(run, [p]))


def _check_binary(op_name, left, right):
    a = Param(left.copy(), name="a")
    b = Param(right.copy(), name="b")

    def run():
        t = Tape()
        return t.value(t.sum(getattr(t, op_name)(t.param(a), t.param(b))))

    t = Tape()
    t.backward(t.sum(getattr(t, op_name)(t.param(a), t.param(b))))
    assert_grads_match([a.grad, b.grad], finite_difference_grads(run, [a, b]))


def test_gradcheck_every_op():
    rng = seeded_rng(11)
    m = rng.standard_normal((3, 4))
    _check_binary("matmul", rng.standard_normal((3, 4)), rng.standard_normal((4, 2)))
    _check_binary("add", m, rng.standard_normal((3, 4)))
    _check_binary("elementwise_mul", m, rng.standard_normal((3, 4)))
    _check_binary("add_bias", m, rng.standard_normal((1, 4)))
    _check_unary("transpose", m)
    _check_unary("sigmoid", m)
    _check_unary("exp", m)
    _check_unary("log", np.abs(m) + 0.5)
    _check_unary("mean", m)
    # kink safety: keep relu inputs away from 0 and clip inputs away from
    # the bounds, otherwise finite differences straddle the corner
    relu_in = m + np.sign(m) * 0.2
    _check_unary("relu", relu_in)
    _check_unary("clip", m, lo=-0.9, hi=0.9)
    # stacks of B matrices: stack @ stack, stack @ shared matrix
    stack = rng.standard_normal((3, 4, 5))
    _check_binary("matmul", stack, rng.standard_normal((3, 5, 2)))
    _check_binary("matmul", stack, rng.standard_normal((5, 2)))
    _check_binary("add_bias", stack, rng.standard_normal((1, 5)))
    _check_unary("transpose", stack)

    # scalar_mul takes the constant first, outside the generic helper shape
    p = Param(m.copy(), name="p")

    def run():
        t = Tape()
        return t.value(t.sum(t.scalar_mul(-2.5, t.param(p))))

    t = Tape()
    t.backward(t.sum(t.scalar_mul(-2.5, t.param(p))))
    assert_grads_match([p.grad], finite_difference_grads(run, [p]))


def test_gradcheck_composition():
    rng = seeded_rng(5)
    w1 = Param(rng.standard_normal((3, 5)), name="w1")
    w2 = Param(rng.standard_normal((5, 2)), name="w2")
    x = rng.standard_normal((4, 3))

    def forward():
        t = Tape()
        h = t.relu(t.matmul(t.const(x), t.param(w1)))
        z = t.sigmoid(t.matmul(h, t.param(w2)))
        return t, t.mean(t.elementwise_mul(z, z))

    t, loss = forward()
    t.backward(loss)
    numeric = finite_difference_grads(lambda: forward()[0].value(forward()[1]), [w1, w2])
    assert_grads_match([w1.grad, w2.grad], numeric)


def test_backward_is_linear():
    rng = seeded_rng(9)
    w = Param(rng.standard_normal((2, 2)), name="w")

    def grad_of(single):
        zero_grads([w])
        t = Tape()
        node = t.param(w)
        l1 = t.sum(t.sigmoid(node))
        l2 = t.mean(t.elementwise_mul(node, node))
        losses = {"l1": l1, "l2": l2, "both": t.add(l1, l2)}
        t.backward(losses[single])
        return w.grad.copy()

    assert np.allclose(grad_of("l1") + grad_of("l2"), grad_of("both"))


def test_replaying_backward_doubles_grads():
    w = Param(np.array([[1.0, -2.0]]), name="w")
    t = Tape()
    loss = t.sum(t.exp(t.param(w)))
    t.backward(loss)
    once = w.grad.copy()
    t.backward(loss)
    assert np.array_equal(w.grad, 2.0 * once)


def test_nonscalar_loss_rejected():
    t = Tape()
    node = t.const(np.ones((2, 2)))
    with pytest.raises(NonScalarLossError):
        t.backward(node)


def test_log_domain_error():
    t = Tape()
    with pytest.raises(DomainError):
        t.log(t.const(np.array([[1.0, 0.0]])))


def test_shape_mismatches_rejected():
    t = Tape()
    a = t.const(np.ones((2, 3)))
    b = t.const(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        t.matmul(a, b)
    with pytest.raises(ShapeMismatchError):
        t.add(a, t.const(np.ones((3, 2))))
    with pytest.raises(ShapeMismatchError):
        t.add_bias(a, t.const(np.ones((1, 2))))
    stack = t.const(np.ones((2, 3, 4)))
    with pytest.raises(ShapeMismatchError):
        t.matmul(stack, t.const(np.ones((3, 4, 2))))  # batch 2 vs 3
    with pytest.raises(ShapeMismatchError):
        t.matmul(t.const(np.ones((3, 3))), stack)  # shared matrix on the left
    with pytest.raises(ShapeMismatchError):
        t.matmul(stack, t.const(np.ones((3, 2))))  # inner widths 4 vs 3
    with pytest.raises(ShapeMismatchError):
        t.add_bias(stack, t.const(np.ones((1, 3))))
    with pytest.raises(ShapeMismatchError):
        t.transpose(t.const(np.ones((2, 2, 2, 2))))


def test_unreached_param_untouched():
    used = Param(np.ones((1, 1)), name="used")
    unused = Param(np.ones((1, 1)), name="unused")
    t = Tape()
    t.param(unused)  # recorded but not part of the loss
    t.backward(t.sum(t.param(used)))
    assert np.array_equal(unused.grad, np.zeros((1, 1)))
    assert np.array_equal(used.grad, np.ones((1, 1)))


def test_adam_zero_gradient_no_movement():
    p = Param(np.array([[3.0, -1.0]]), name="p")
    opt = Adam([p], lr=0.5)
    before = p.value.copy()
    opt.step()
    assert np.array_equal(p.value, before)


def test_adam_first_step_close_to_lr():
    p = Param(np.array([[2.0]]), name="p")
    p.grad[...] = 1.0
    Adam([p], lr=0.1).step()
    # bias-corrected first step is lr / (1 + eps), essentially lr
    assert abs(p.value[0, 0] - (2.0 - 0.1)) < 1e-6


def test_adam_identical_params_identical_updates():
    a = Param(np.array([[1.0, 2.0]]), name="a")
    b = Param(np.array([[1.0, 2.0]]), name="b")
    a.grad[...] = 0.3
    b.grad[...] = 0.3
    opt = Adam([a, b], lr=0.05)
    for _ in range(3):
        opt.step()
    assert np.array_equal(a.value, b.value)


def test_adam_state_persists_across_steps():
    # with a constant gradient the bias-corrected step size stays lr, so two
    # steps move twice as far; fresh-state steps would too, but the moments
    # must accumulate, which shows up with a sign flip
    p = Param(np.array([[0.0]]), name="p")
    opt = Adam([p], lr=0.1)
    p.grad[...] = 1.0
    opt.step()
    after_first = p.value.copy()
    p.grad[...] = -1.0
    opt.step()
    # momentum keeps the second step from mirroring the first
    assert not np.allclose(p.value - after_first, -(after_first - 0.0))


def test_zero_grads_resets():
    p = Param(np.ones((2, 2)), name="p")
    p.grad[...] = 5.0
    zero_grads([p])
    assert np.array_equal(p.grad, np.zeros((2, 2)))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_mean_gradient_is_uniform(seed, rows, cols):
    rng = np.random.default_rng(seed)
    p = Param(rng.standard_normal((rows, cols)), name="p")
    t = Tape()
    t.backward(t.mean(t.param(p)))
    assert np.allclose(p.grad, 1.0 / (rows * cols))


def test_seeded_rng_reproducible():
    a = seeded_rng(42, 1, 0).standard_normal(5)
    b = seeded_rng(42, 1, 0).standard_normal(5)
    c = seeded_rng(42, 1, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_glorot_bounds():
    rng = seeded_rng(0)
    w = glorot_uniform(rng, 30, 50)
    limit = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert (np.abs(w) <= limit).all()


def test_params_state_round_trip():
    rng = seeded_rng(2)
    a = Param(rng.standard_normal((2, 3)), name="a")
    b = Param(rng.standard_normal((1, 4)), name="b")
    state = params_state([a, b])
    a2 = Param(np.zeros((2, 3)), name="a")
    b2 = Param(np.zeros((1, 4)), name="b")
    set_params_state([a2, b2], state)
    assert np.array_equal(a.value, a2.value)
    assert np.array_equal(b.value, b2.value)


def test_params_state_errors():
    with pytest.raises(ValueError):
        params_state([Param(np.zeros(1), name="x"), Param(np.zeros(1), name="x")])
    p = Param(np.zeros((2, 2)), name="p")
    with pytest.raises(KeyError):
        set_params_state([p], {})
    bad = {"p": {"shape": [1, 2], "data": [0.0, 0.0]}}
    with pytest.raises(ShapeMismatchError):
        set_params_state([p], bad)
    for value in (float("nan"), float("inf")):
        bad = {"p": {"shape": [2, 2], "data": [0.0, value, 0.0, 0.0]}}
        with pytest.raises(ConfigError, match=r"^param 'p': .*non-finite"):
            set_params_state([p], bad)
    assert not p.value.any()


# ---------------------------------------------------------------- stacks


def test_batched_ops_match_per_slice():
    # each slice of a stacked result is the 2-D op on that slice; the shared
    # weight's gradient is the sum of the per-slice gradients
    rng = seeded_rng(13)
    x = rng.standard_normal((3, 4, 5))
    y = rng.standard_normal((3, 5, 4))
    w = Param(rng.standard_normal((5, 2)), name="w")
    t = Tape()
    xy = t.value(t.matmul(t.const(x), t.const(y)))
    xt = t.value(t.transpose(t.const(x)))
    t.backward(t.sum(t.matmul(t.const(x), t.param(w))))
    for b in range(3):
        assert np.allclose(xy[b], x[b] @ y[b], rtol=1e-14, atol=0.0)
        assert np.array_equal(xt[b], x[b].T)
    assert np.allclose(w.grad, sum(x[b].T @ np.ones((4, 2)) for b in range(3)),
                       rtol=1e-14, atol=0.0)

