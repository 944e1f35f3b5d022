import numpy as np
import pytest

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
from tiergae.errors import ConfigError, NonScalarLossError, ShapeMismatchError

from oracles import (
    AdamPerParam,
    assert_same_bits,
    bce_logits_two_softplus,
    decode_adjacency_matmul,
    softplus,
    stable_sigmoid,
)
from test_acceptance import _op_cases

# Tape methods that record leaves, read values or run the sweep; every other
# public method is an op
NOT_OPS = {"const", "param", "value", "backward"}


def test_op_inventory_matches_gradchecks():
    # an op cannot exist without a finite-difference check in acceptance
    # criterion 1, and no check outlives its op
    ops = {name for name in dir(Tape) if not name.startswith("_")} - NOT_OPS
    assert ops == {name for name, _, _ in _op_cases()}


def test_sigmoid_at_zero():
    # the reference logistic and softplus that the fused bce_logits is checked
    # against bit for bit
    assert np.array_equal(stable_sigmoid(np.zeros((2, 3))), np.full((2, 3), 0.5))
    assert np.allclose(softplus(np.zeros(2)), np.log(2.0), rtol=1e-15, atol=0.0)
    big = np.array([-1e3, 1e3])
    assert np.array_equal(stable_sigmoid(big), [0.0, 1.0])
    assert np.array_equal(softplus(big), [0.0, 1e3])


def test_matmul_identity():
    t = Tape()
    a = np.arange(12.0).reshape(3, 4)
    out = t.matmul(t.const(np.eye(3)), t.const(a))
    assert np.array_equal(t.value(out), a)


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
    _check_unary("gram", m)
    _check_unary("exp", m)
    # kink safety: keep clip inputs away from the bounds, otherwise finite
    # differences straddle the corner
    _check_unary("clip", m, lo=-0.9, hi=0.9)
    # stacks of B matrices
    stack = rng.standard_normal((3, 4, 5))
    _check_binary("matmul", stack, rng.standard_normal((3, 5, 2)))
    _check_unary("gram", stack)

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
    a = rng.uniform(0.0, 1.0, (4, 4))
    c1, c2 = rng.uniform(0.0, 2.0, (2, 4, 4))
    b1, b2 = Param(np.zeros((1, 5)), name="b1"), Param(np.zeros((1, 2)), name="b2")

    def forward():
        t = Tape()
        a_node = t.const(a)
        h = t.gcn_layer(a_node, t.const(x), t.param(w1), t.param(b1), relu=True)
        z = t.gcn_layer(a_node, h, t.param(w2), t.param(b2), relu=False)
        return t, t.bce_logits(t.gram(z), c1, c2, 12.0)

    t, loss = forward()
    t.backward(loss)
    numeric = finite_difference_grads(lambda: forward()[0].value(forward()[1]),
                                      [w1, w2, b1, b2])
    assert_grads_match([w1.grad, w2.grad, b1.grad, b2.grad], numeric)


def test_backward_is_linear():
    rng = seeded_rng(9)
    w = Param(rng.standard_normal((2, 2)), name="w")

    def grad_of(single):
        zero_grads([w])
        t = Tape()
        node = t.param(w)
        l1 = t.sum(t.exp(node))
        l2 = t.sum(t.elementwise_mul(node, node))
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


def test_shape_mismatches_rejected():
    t = Tape()
    a = t.const(np.ones((2, 3)))
    b = t.const(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        t.matmul(a, b)
    with pytest.raises(ShapeMismatchError):
        t.add(a, t.const(np.ones((3, 2))))
    stack = t.const(np.ones((2, 3, 4)))
    with pytest.raises(ShapeMismatchError):
        t.matmul(stack, t.const(np.ones((3, 4, 2))))  # batch 2 vs 3
    with pytest.raises(ShapeMismatchError):
        t.matmul(t.const(np.ones((3, 3))), stack)  # shared matrix on the left
    with pytest.raises(ShapeMismatchError):
        t.matmul(stack, t.const(np.ones((4, 2))))  # shared matrix on the right
    with pytest.raises(ShapeMismatchError):
        t.matmul(stack, t.const(np.ones((2, 3, 2))))  # inner widths 4 vs 3
    with pytest.raises(ShapeMismatchError):
        t.gram(t.const(np.ones((2, 2, 2, 2))))
    a3, w, b = t.const(np.ones((2, 3, 3))), t.const(np.ones((4, 2))), t.const(np.ones((1, 2)))
    with pytest.raises(ShapeMismatchError):
        t.gcn_layer(a3, stack, w, t.const(np.ones((1, 3))), relu=True)  # bias width
    with pytest.raises(ShapeMismatchError):
        t.gcn_layer(a3, stack, t.const(np.ones((3, 2))), b, relu=True)  # W rows 3 vs 4
    with pytest.raises(ShapeMismatchError):
        t.gcn_layer(t.const(np.ones((3, 3))), stack, w, b, relu=True)  # A not a stack
    with pytest.raises(ShapeMismatchError):
        t.bce_logits(a, np.ones((2, 3)), np.ones((3, 2)), 1.0)


def test_gcn_layer_rejects_a_with_a_gradient_path():
    # gcn_layer forms no gradient for A, so an A that has one is refused
    t = Tape()
    h, w, b = t.const(np.ones((2, 2))), t.const(np.ones((2, 1))), t.const(np.ones((1, 1)))
    for a in (t.param(Param(np.eye(2), name="a")), t.scalar_mul(2.0, t.const(np.eye(2)))):
        with pytest.raises(ValueError, match="constant"):
            t.gcn_layer(a, h, w, b, relu=False)


def test_bce_logits_non_finite_logit_gives_non_finite_loss():
    # a NaN or infinite logit is not finite downstream, and no warning is
    # raised on the way (the suite turns warnings into errors)
    for bad in (np.nan, np.inf, -np.inf):
        t = Tape()
        logits = t.const(np.array([[bad, 0.0], [1.0, -2.0]]))
        loss = t.bce_logits(logits, np.eye(2), 1.0 - np.eye(2), 4.0)
        assert not np.isfinite(t.value(loss))


def _bce_loss_and_grad(bce, logits, c1, c2, count):
    p = Param(logits.copy(), name="logits")
    t = Tape()
    loss = bce(t, t.param(p), c1, c2, count)
    t.backward(loss)
    return t.value(loss), p.grad


def test_bce_logits_matches_two_softplus_bit_for_bit():
    # zero of either sign (where both sigmoid branches meet), saturated and
    # infinite logits of either sign, NaN, and ordinary values, each under
    # weights that are zero, positive or both; NaN and inf rows give a loss
    # that is not finite, whose bits must match too
    special = np.array([0.0, -0.0, 700.0, -700.0, 36.0, -36.0, 1e-300, -2.5])
    for extra in (None, np.inf, -np.inf, np.nan):
        row = special if extra is None else np.append(special, extra)
        logits = np.stack([row, row[::-1], -row])
        rng = np.random.default_rng(int(len(row)))
        c1 = rng.uniform(0.0, 3.0, logits.shape) * (rng.random(logits.shape) < 0.7)
        c2 = rng.uniform(0.0, 3.0, logits.shape) * (rng.random(logits.shape) < 0.7)
        for count in (1.0, 7.0):
            got = _bce_loss_and_grad(Tape.bce_logits, logits, c1, c2, count)
            want = _bce_loss_and_grad(bce_logits_two_softplus, logits, c1, c2, count)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("shape", [(5, 3), (4, 6, 2), (1, 1), (2, 1, 1)])
def test_gram_matches_matmul_of_transpose_bit_for_bit(shape):
    rng = seeded_rng(17)
    z = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, size=shape)
    weight = rng.standard_normal(shape[:-1] + shape[-2:-1])
    grads = []
    for decode in (lambda t, node: t.gram(node), decode_adjacency_matmul):
        p = Param(z.copy(), name="z")
        t = Tape()
        out = decode(t, t.param(p))
        t.backward(t.sum(t.elementwise_mul(t.const(weight), out)))
        grads.append((t.value(out), p.grad))
    assert_same_bits(grads[0][0], grads[1][0])
    assert_same_bits(grads[0][1], grads[1][1])


@pytest.mark.parametrize("relu", [True, False])
def test_constant_input_gcn_layer_forms_no_input_gradient(relu):
    # the features of a first layer are a constant: its vjp returns None for
    # them, and the weight and bias gradients keep their bits from a run in
    # which the same features carry a gradient path
    rng = seeded_rng(23)
    a = rng.uniform(0.0, 1.0, (3, 5, 5))
    x = rng.standard_normal((3, 5, 4))
    w0, b0 = rng.standard_normal((4, 2)), rng.standard_normal((1, 2))
    weight = rng.standard_normal((3, 5, 2))
    grads, vjps = [], []
    for constant in (True, False):
        w, b = Param(w0.copy(), name="w"), Param(b0.copy(), name="b")
        t = Tape()
        h = t.const(x) if constant else t.param(Param(x.copy(), name="x"))
        layer = t.gcn_layer(t.const(a), h, t.param(w), t.param(b), relu)
        t.backward(t.sum(t.elementwise_mul(t.const(weight), layer)))
        grads.append((w.grad, b.grad))
        vjps.append(t.nodes[layer].vjp(weight))
    assert vjps[0][0] is None
    assert vjps[1][0].shape == x.shape
    for got, want in zip(grads[0] + vjps[0][1:], grads[1] + vjps[1][1:]):
        assert_same_bits(got, want)


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


def test_adam_vector_step_matches_the_per_parameter_loop():
    rng = seeded_rng(21)
    shapes = [(3, 4), (1, 4), (4, 2), (1, 2), (5,), (1, 1)]
    params = [Param(rng.standard_normal(s), name=f"p{i}") for i, s in enumerate(shapes)]
    ref = [Param(p.value.copy(), name=p.name) for p in params]
    opt, oracle = Adam(params, lr=0.03), AdamPerParam(ref, lr=0.03)
    # each param is a view into the vectors, in param order
    offset = 0
    for p, q in zip(params, ref):
        size = p.value.size
        assert np.shares_memory(p.value, opt.value) and np.shares_memory(p.grad, opt.grad)
        assert p.value.shape == q.value.shape and p.grad.shape == q.value.shape
        assert_same_bits(opt.value[offset:offset + size], q.value.ravel())
        offset += size
    assert offset == opt.value.size == opt.grad.size
    for step in range(8):
        for p, q in zip(params, ref):
            # gradients across twenty decades, with zeros of both signs
            g = rng.standard_normal(p.value.shape) * 10.0 ** rng.integers(-12, 8, p.value.shape)
            g.ravel()[:step % 3] = (0.0, -0.0)[step % 2]
            p.grad[...] = g
            q.grad[...] = g
        opt.step()
        oracle.step()
        for p, q in zip(params, ref):
            assert_same_bits(p.value, q.value)
    opt.zero_grads()
    assert not opt.grad.any() and not any(p.grad.any() for p in params)


def test_adam_refuses_a_param_given_twice():
    p = Param(np.ones((1, 2)), name="p")
    with pytest.raises(ValueError, match="more than once"):
        Adam([p, Param(np.ones((1, 2)), name="q"), p])


def test_zero_grads_resets():
    p = Param(np.ones((2, 2)), name="p")
    p.grad[...] = 5.0
    zero_grads([p])
    assert np.array_equal(p.grad, np.zeros((2, 2)))


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
    # weight's and bias's gradients are the sums of the per-slice gradients
    rng = seeded_rng(13)
    x = rng.standard_normal((3, 4, 5))
    y = rng.standard_normal((3, 5, 4))
    a = rng.standard_normal((3, 4, 4))
    w = Param(rng.standard_normal((5, 2)), name="w")
    bias = Param(rng.standard_normal((1, 2)), name="bias")
    t = Tape()
    xy = t.value(t.matmul(t.const(x), t.const(y)))
    xx = t.value(t.gram(t.const(x)))
    layer = t.gcn_layer(t.const(a), t.const(x), t.param(w), t.param(bias), relu=False)
    t.backward(t.sum(layer))
    for b in range(3):
        assert np.allclose(xy[b], x[b] @ y[b], rtol=1e-14, atol=0.0)
        assert np.allclose(xx[b], x[b] @ x[b].T, rtol=1e-14, atol=0.0)
        assert np.allclose(t.value(layer)[b], a[b] @ x[b] @ w.value + bias.value,
                           rtol=1e-14, atol=0.0)
    assert np.allclose(w.grad, sum((a[b] @ x[b]).T @ np.ones((4, 2)) for b in range(3)),
                       rtol=1e-14, atol=0.0)
    assert np.array_equal(bias.grad, np.full((1, 2), 12.0))

