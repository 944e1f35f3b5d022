import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.autodiff import Param, Tape, seeded_rng
from tiergae.cli import params_state
from tiergae.errors import ShapeMismatchError
from tiergae.gcn import gcn_norm
from tiergae.tgae import (
    NOISE_ROLE,
    RunConfig,
    TierModel,
    bce_weights,
    encode_tiered,
    make_tier_models,
    stack_samples,
    tier_sample,
    train_tier,
)
from tiergae.tvgae import (
    LOGSIGMA_LIMIT,
    VariationalTierModel,
    elbo_loss,
    encode_posterior,
    encode_tiered_variational,
    kl_divergence,
    make_variational_tier_models,
    reparameterize,
    train_tier_variational,
    train_tiered_variational,
)

from conftest import (
    FixedLogsigmaModel,
    kl_value,
    path4_adjacency,
    path4_features,
    recon_value,
)
from gradcheck import assert_grads_match, finite_difference_grads
from oracles import decode_adjacency_numpy, pipeline_loss, zero_grads
from test_tgae import path4_graph, path4_items


# ---------------------------------------------------------------- models


def test_mu_encoder_initialized_like_deterministic_encoder():
    det = make_tier_models(5, RunConfig(hidden=4, d_z=3, seed=17))
    var = make_variational_tier_models(5, RunConfig(hidden=4, d_z=3, seed=17))
    for d, v in zip(det, var):
        for pd, pv in zip(d.encoder.params(), v.encoder_mu.params()):
            assert np.array_equal(pd.value, pv.value)


def test_logsigma_encoder_differs_from_mu():
    var = make_variational_tier_models(5, RunConfig(hidden=4, d_z=3, seed=17))
    for v in var:
        w_mu = v.encoder_mu.layers[0].weight.value
        w_ls = v.encoder_logsigma.layers[0].weight.value
        assert not np.array_equal(w_mu, w_ls)


def test_param_names_carry_path_prefixes():
    var = make_variational_tier_models(4, RunConfig(hidden=3, d_z=2, seed=0))
    for v in var:
        assert all(p.name.startswith(f"tier{v.tier}.mu.") for p in v.encoder_mu.params())
        assert all(
            p.name.startswith(f"tier{v.tier}.logsigma.")
            for p in v.encoder_logsigma.params()
        )


def test_mismatched_encoder_widths_rejected():
    var = make_variational_tier_models(4, RunConfig(hidden=3, d_z=2, seed=0))
    other = make_variational_tier_models(4, RunConfig(hidden=3, d_z=3, seed=0))
    with pytest.raises(ShapeMismatchError):
        VariationalTierModel(var[0].encoder_mu, other[0].encoder_logsigma, tier=1)


def test_bad_tier_rejected():
    var = make_variational_tier_models(4, RunConfig(hidden=3, d_z=2, seed=0))
    with pytest.raises(ValueError):
        VariationalTierModel(var[0].encoder_mu, var[0].encoder_logsigma, tier=0)


# ---------------------------------------------------------------- posterior


def test_posterior_shapes_and_clamp():
    var = make_variational_tier_models(4, RunConfig(hidden=6, d_z=3, seed=1))[0]
    # blow up the logsigma path so its raw outputs exceed the clamp range
    for p in var.encoder_logsigma.params():
        p.value *= 1e6
    s = tier_sample(path4_features(), path4_adjacency())
    tape = Tape()
    mu, ls = encode_posterior(var, tape.const(s.x), tape.const(gcn_norm(s.mask)), tape)
    vm, vl = tape.value(mu), tape.value(ls)
    assert vm.shape == vl.shape == (4, 3)
    assert (np.abs(vl) <= LOGSIGMA_LIMIT).all()
    assert (np.abs(vl) == LOGSIGMA_LIMIT).any()


# ---------------------------------------------------------------- sampling


def test_reparameterize_zero_noise_returns_mu_exactly():
    rng = np.random.default_rng(2)
    mu = rng.standard_normal((4, 3))
    ls = rng.standard_normal((4, 3))
    tape = Tape()
    z = reparameterize(tape, tape.const(mu), tape.const(ls), np.zeros((4, 3)))
    assert np.array_equal(tape.value(z), mu)


def test_reparameterize_hand_computed():
    tape = Tape()
    z = reparameterize(
        tape,
        tape.const(np.array([[1.0]])),
        tape.const(np.array([[math.log(2.0)]])),
        np.array([[3.0]]),
    )
    assert math.isclose(float(tape.value(z)[0, 0]), 7.0, rel_tol=1e-15)


def test_reparameterize_shape_checks():
    tape = Tape()
    mu = tape.const(np.zeros((2, 2)))
    with pytest.raises(ShapeMismatchError):
        reparameterize(tape, mu, tape.const(np.zeros((3, 2))), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatchError):
        reparameterize(tape, mu, tape.const(np.zeros((2, 2))), np.zeros((3, 3)))


def test_reparameterize_monte_carlo_mean():
    # mean of z over many draws concentrates on mu; 3 sigma / sqrt(n) bound
    mu = np.array([[0.7, -0.3]])
    ls = np.array([[0.1, -0.5]])
    sigma = np.exp(ls)
    rng = np.random.default_rng(123)
    n_draws = 10_000
    acc = np.zeros_like(mu)
    for _ in range(n_draws):
        tape = Tape()
        z = reparameterize(tape, tape.const(mu), tape.const(ls),
                           rng.standard_normal(mu.shape))
        acc += tape.value(z)
    err = np.abs(acc / n_draws - mu)
    assert (err <= 3.0 * sigma / math.sqrt(n_draws)).all()


def test_reparameterize_gradients():
    # d z / d mu = 1, d z / d logsigma = exp(ls) * eps
    mu_p = Param(name="mu", value=np.array([[0.2, -0.4]]))
    ls_p = Param(name="ls", value=np.array([[0.3, 0.1]]))
    eps = np.array([[1.5, -2.0]])
    tape = Tape()
    z = reparameterize(tape, tape.param(mu_p), tape.param(ls_p), eps)
    zero_grads([mu_p, ls_p])
    tape.backward(tape.graph_sum(z, 1.0, 1.0))
    assert np.allclose(mu_p.grad, np.ones((1, 2)), atol=1e-15)
    assert np.allclose(ls_p.grad, np.exp(ls_p.value) * eps, atol=1e-15)


# ---------------------------------------------------------------- KL


def test_kl_zero_at_standard_normal_posterior():
    assert kl_value(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0


def test_kl_scalar_hand_computed():
    # n = 1: KL = -(1 + 0 - 1 - 1) / 2 = 1/2
    assert math.isclose(kl_value([[1.0]], [[0.0]]), 0.5, rel_tol=1e-15)
    # mu = 0, sigma = e: KL = -(1 + 2 - 0 - e^2) / 2
    expect = -(1.0 + 2.0 - math.exp(2.0)) / 2.0
    assert math.isclose(kl_value([[0.0]], [[1.0]]), expect, rel_tol=1e-12)


def test_kl_matches_independent_formula():
    rng = np.random.default_rng(5)
    mu = rng.standard_normal((6, 4))
    ls = rng.standard_normal((6, 4)) * 0.5
    # closed form per element, summed then averaged over nodes
    per_elem = 0.5 * (mu**2 + np.exp(2 * ls) - 2 * ls - 1.0)
    assert math.isclose(
        kl_value(mu, ls), per_elem.sum() / 6, rel_tol=1e-12
    )


def test_kl_nonnegative_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        mu = rng.standard_normal((n, d)) * 3
        ls = rng.standard_normal((n, d)) * 2
        assert kl_value(mu, ls) >= 0.0


def test_kl_is_per_node_average():
    rng = np.random.default_rng(7)
    mu = rng.standard_normal((3, 2))
    ls = rng.standard_normal((3, 2))
    doubled = kl_value(np.vstack([mu, mu]), np.vstack([ls, ls]))
    assert math.isclose(doubled, kl_value(mu, ls), rel_tol=1e-12)


def test_kl_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        kl_value(np.zeros((2, 2)), np.zeros((3, 2)))


def test_kl_gradients():
    # d KL / d mu = mu / n, d KL / d ls = (exp(2 ls) - 1) / n
    mu_p = Param(name="mu", value=np.array([[0.5, -1.0], [2.0, 0.0]]))
    ls_p = Param(name="ls", value=np.array([[0.2, -0.3], [0.0, 1.0]]))
    tape = Tape()
    node = kl_divergence(tape, tape.param(mu_p), tape.param(ls_p))
    zero_grads([mu_p, ls_p])
    tape.backward(node)
    n = 2
    assert np.allclose(mu_p.grad, mu_p.value / n, atol=1e-14)
    assert np.allclose(ls_p.grad, (np.exp(2 * ls_p.value) - 1.0) / n, atol=1e-14)


# ---------------------------------------------------------------- ELBO


def test_elbo_is_recon_plus_weighted_kl():
    rng = np.random.default_rng(3)
    mu = rng.standard_normal((4, 3))
    ls = rng.standard_normal((4, 3)) * 0.3
    target = np.zeros((4, 4))
    target[0, 1] = target[1, 0] = 1.0
    logits = decode_adjacency_numpy(mu)
    for w in (1.0, 0.25, 2.0):
        tape = Tape()
        node = elbo_loss(
            tape, tape.const(logits), bce_weights(target), tape.const(mu), tape.const(ls), w
        )
        expect = recon_value(logits, target) + w * kl_value(mu, ls)
        assert math.isclose(float(tape.value(node)), expect, rel_tol=1e-12)


def test_elbo_zero_weight_is_pure_reconstruction():
    rng = np.random.default_rng(4)
    mu = rng.standard_normal((3, 2))
    ls = rng.standard_normal((3, 2))
    target = np.zeros((3, 3))
    target[0, 2] = target[2, 0] = 1.0
    logits = decode_adjacency_numpy(mu)
    tape = Tape()
    node = elbo_loss(
        tape, tape.const(logits), bce_weights(target), tape.const(mu), tape.const(ls), 0.0
    )
    assert float(tape.value(node)) == recon_value(logits, target)


# ---------------------------------------------------------------- training


def test_variational_zero_epochs_changes_nothing():
    var = make_variational_tier_models(4, RunConfig(hidden=4, d_z=2, seed=1))[0]
    before = params_state(var.params())
    s = tier_sample(path4_features(), path4_adjacency())
    hist = train_tier_variational(
        var, stack_samples([s]), RunConfig(epochs=0), np.random.default_rng(0)
    )
    assert hist == []
    after = params_state(var.params())
    for k in before:
        assert np.array_equal(before[k], after[k])


def test_variational_training_descends():
    var = make_variational_tier_models(4, RunConfig(hidden=8, d_z=4, seed=42))[0]
    s = tier_sample(path4_features(), path4_adjacency())
    hist = train_tier_variational(
        var, stack_samples([s]), RunConfig(epochs=60, lr=0.01),
        seeded_rng(42, 1, NOISE_ROLE),
    )
    assert len(hist) == 60
    assert all(np.isfinite(v) for v in hist)
    # sampling makes single epochs noisy; compare leading and trailing means
    assert np.mean(hist[-10:]) < np.mean(hist[:10])


def test_variational_training_deterministic():
    def run():
        var = make_variational_tier_models(4, RunConfig(hidden=5, d_z=3, seed=6))[0]
        s = tier_sample(path4_features(), path4_adjacency())
        return train_tier_variational(
            var, stack_samples([s]), RunConfig(epochs=12, lr=0.01),
            seeded_rng(6, 1, NOISE_ROLE),
        )

    assert run() == run()


def test_variational_training_requires_samples():
    var = make_variational_tier_models(4, RunConfig(hidden=4, d_z=2))[0]
    with pytest.raises(ValueError):
        train_tier_variational(
            var, [], RunConfig(epochs=1), np.random.default_rng(0)
        )


def test_fixed_logsigma_ablation_tracks_deterministic_model():
    # kl_weight 0 and logsigma pinned to -20: sampling noise is exp(-20),
    # so every epoch loss must match the deterministic model to 1e-6
    seed = 31
    s = tier_sample(path4_features(), path4_adjacency())
    det = make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=seed))[0]
    det_hist = train_tier(det, stack_samples([s]), RunConfig(epochs=30, lr=0.01))
    var = make_variational_tier_models(4, RunConfig(hidden=6, d_z=3, seed=seed))[0]
    var_hist = train_tier_variational(
        FixedLogsigmaModel(var.encoder_mu, var.tier), stack_samples([s]),
        RunConfig(epochs=30, lr=0.01), seeded_rng(seed, 1, NOISE_ROLE),
    )
    assert len(det_hist) == len(var_hist)
    for a, b in zip(det_hist, var_hist):
        assert abs(a - b) <= 1e-6


def test_tiered_variational_returns_three_histories():
    var = make_variational_tier_models(4, RunConfig(hidden=5, d_z=3, seed=8))
    hist = train_tiered_variational(
        var, path4_items(), RunConfig(epochs=4, lr=0.01, seed=8)
    )
    assert sorted(hist) == [1, 2, 3]
    for h in hist.values():
        assert len(h) == 4 and all(np.isfinite(v) for v in h)


def test_tiered_variational_rejects_empty_corpus():
    var = make_variational_tier_models(4, RunConfig(hidden=4, d_z=2))
    with pytest.raises(ValueError):
        train_tiered_variational(var, [], RunConfig(epochs=1))


# ---------------------------------------------------------------- inference


def test_mu_mode_inference_deterministic():
    var = make_variational_tier_models(4, RunConfig(hidden=5, d_z=3, seed=9))
    g = path4_graph()
    m1 = path4_items()[0][1]
    r1 = encode_tiered_variational(g, m1, var)
    r2 = encode_tiered_variational(g, m1, var)
    for t1, t2 in zip(r1.tiers, r2.tiers):
        assert np.array_equal(t1.z, t2.z)


def test_mu_mode_inference_equals_deterministic_path():
    # wrapping the mu encoders in the deterministic model must reproduce
    # mu-mode inference bit for bit: same code path, no sampling anywhere
    var = make_variational_tier_models(4, RunConfig(hidden=5, d_z=3, seed=10))
    det = [TierModel(encoder=v.encoder_mu, tier=v.tier) for v in var]
    g = path4_graph()
    m1 = path4_items()[0][1]
    rv = encode_tiered_variational(g, m1, var)
    rd = encode_tiered(g, m1, det)
    for tv, td in zip(rv.tiers, rd.tiers):
        assert np.array_equal(tv.z, td.z)


def test_mu_mode_inference_shapes():
    var = make_variational_tier_models(4, RunConfig(hidden=5, d_z=3, seed=11))
    rep = encode_tiered_variational(path4_graph(), path4_items()[0][1], var)
    assert rep.tiers[0].z.shape == (4, 3)
    assert rep.tiers[1].z.shape == (2, 3)
    assert rep.tiers[2].z.shape == (1, 3)


# ---------------------------------------------------------------- pipeline


def test_variational_pipeline_reaches_every_parameter():
    var = make_variational_tier_models(4, RunConfig(hidden=4, d_z=2, seed=12))
    m1 = path4_items()[0][1]
    rng = np.random.default_rng(0)
    noises = [rng.standard_normal((n, 2)) for n in (4, 2, 1)]
    tape = Tape()
    loss = pipeline_loss(var, path4_features(), path4_adjacency(), m1, tape,
                         RunConfig(), noises)
    assert np.isfinite(tape.value(loss))
    all_params = [p for v in var for p in v.params()]
    zero_grads(all_params)
    tape.backward(loss)
    for p in all_params:
        if p.name.endswith(".weight"):
            assert np.abs(p.grad).max() > 0.0, p.name


def test_variational_pipeline_gradcheck():
    var = make_variational_tier_models(4, RunConfig(hidden=3, d_z=2, seed=13))
    m1 = path4_items()[0][1]
    rng = np.random.default_rng(1)
    noises = [rng.standard_normal((n, 2)) for n in (4, 2, 1)]
    all_params = [p for v in var for p in v.params()]

    def build():
        tape = Tape()
        node = pipeline_loss(var, path4_features(), path4_adjacency(), m1, tape,
                             RunConfig(), noises)
        return tape, node

    tape, node = build()
    zero_grads(all_params)
    tape.backward(node)
    analytic = [p.grad.copy() for p in all_params]

    def loss_fn():
        t, n = build()
        return float(t.value(n))

    numeric = finite_difference_grads(loss_fn, all_params)
    assert_grads_match(analytic, numeric)


def test_variational_pipeline_requires_three_noises():
    var = make_variational_tier_models(4, RunConfig(hidden=3, d_z=2, seed=0))
    with pytest.raises(ValueError, match="one noise array per tier"):
        pipeline_loss(var, path4_features(), path4_adjacency(), path4_items()[0][1],
                      Tape(), RunConfig(), [np.zeros((4, 2))])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 100_000))
def test_kl_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    d = int(rng.integers(1, 5))
    mu = rng.standard_normal((n, d)) * 5
    ls = rng.uniform(-LOGSIGMA_LIMIT, 3.0, size=(n, d))
    assert kl_value(mu, ls) >= 0.0
