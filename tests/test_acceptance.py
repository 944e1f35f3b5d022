"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test prints exactly one line, "ACCEPTANCE <n> PASS|FAIL  <what it
checks>", and the conftest terminal-summary hook replays all lines at the
end of the run. Criteria cover gradient correctness, pooling exactness, the
vanillin golden fixture, training smoke with pinned losses, variational
properties, tier invariances, run-to-run byte determinism, and offline
operation of the whole suite.
"""

import contextlib
import socket
import time

import numpy as np
import pytest

from tiergae.autodiff import Param, Tape, seeded_rng
from tiergae.cli import RunConfig, cmd_embed, cmd_ingest, cmd_train
from tiergae.fgroups import mark_atoms, membership_from_partition, partition_molecule
from tiergae.graphs import Graph, MembershipMatrix, dense_to_coo
from tiergae.pooling import pool_adjacency, pool_features
from tiergae.pubchem import fetch_pubchem_sdf
from tiergae.sdf import featurize, formula_from_features, parse_sdf, write_sdf
from tiergae.tgae import (
    NOISE_ROLE,
    encode_tiered,
    make_tier_models,
    next_tier_samples,
    stack_samples,
    tier_sample,
    train_tier,
)
from tiergae.tvgae import (
    encode_tiered_variational,
    make_variational_tier_models,
    train_tier_variational,
)

from acceptance_report import record
from conftest import (
    VANILLIN_SDF,
    FixedLogsigmaModel,
    kl_value,
    path4_adjacency,
    path4_features,
)
from gradcheck import assert_grads_match, finite_difference_grads
from oracles import (
    decode_adjacency_numpy,
    dense_membership,
    functional_groups,
    matmul,
    membership_from_dense,
    permute_graph,
    pipeline_loss,
    zero_grads,
)
from test_pooling import pool_oracle, random_membership, random_symmetric_adjacency
from test_pubchem import RecordingTransport

# reference run: 4-node path, seed 42, lr 0.01, 200 epochs, default widths
GOLDEN_INITIAL_LOSS = 0.6867933749406451
GOLDEN_FINAL_LOSS = 8.593996670312733e-05
GOLDEN_TOL = 1e-9


@contextlib.contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        record(f"ACCEPTANCE {n} FAIL  {description}")
        raise
    record(f"ACCEPTANCE {n} PASS  {description}")


def path4_membership() -> MembershipMatrix:
    return membership_from_dense(
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    )


def ranking_auc(scores, labels) -> float:
    """Pairwise ranking statistic, written independently of any library AUC."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(
        1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
    )
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# 1. gradient correctness: every tape op, then both end-to-end pipelines


def _gradcheck(build, params):
    tape, node = build()
    zero_grads(params)
    tape.backward(node)
    analytic = [p.grad.copy() for p in params]

    def loss_fn():
        t, n = build()
        return float(t.value(n))

    assert_grads_match(analytic, finite_difference_grads(loss_fn, params))


def _op_cases():
    """One loss builder per tape op and case. Matrix outputs are weighted by
    a random constant before summing so transposed or swapped vjps cannot
    cancel out."""
    rng = np.random.default_rng(105)
    a = Param(name="a", value=rng.uniform(0.2, 1.5, (3, 2)))
    b = Param(name="b", value=rng.uniform(0.2, 1.5, (3, 2)))
    # clip inputs sit farther from their kinks than the fd step
    kinked = Param(name="kinked", value=np.array([[0.4, -0.6], [1.2, -0.1]]))
    # a stack of B = 2 graphs for gcn_layer: A is not symmetric, so a vjp
    # that skips its transpose fails; pre-activations stay clear of relu's kink
    adj = rng.uniform(0.0, 1.0, (2, 3, 3))
    h = Param(name="h", value=rng.uniform(-1.0, 1.0, (2, 3, 4)))
    w = Param(name="w", value=rng.uniform(-1.0, 1.0, (4, 2)))
    bias = Param(name="bias", value=rng.uniform(-0.5, 0.5, (1, 2)))
    # bce_logits at moderate logits and at saturated ones, where a clamped
    # sigmoid would have zeroed the gradient
    logits = Param(name="logits", value=rng.uniform(-5.0, 5.0, (2, 3, 3)))
    saturated = Param(name="saturated", value=rng.choice([-40.0, 40.0], (2, 3, 3)))
    c1, c2 = rng.uniform(0.0, 2.0, (2, 2, 3, 3))
    c32 = rng.standard_normal((3, 2))
    c33 = rng.standard_normal((3, 3))
    bt = Param(name="bt", value=rng.standard_normal((2, 3)))
    c22 = rng.standard_normal((2, 2))
    c232 = rng.standard_normal((2, 3, 2))
    c233 = rng.standard_normal((2, 3, 3))
    row_mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])[:, :, None]

    def wsum(t, node, c):
        return t.graph_sum(t.elementwise_mul(t.const(c), node), 1.0, 1.0)

    def layer(t, relu):
        return t.gcn_layer(t.const(adj), t.param(h), t.param(w), t.param(bias), relu)

    return [
        ("matmul", lambda t: wsum(t, matmul(t, t.param(a), t.param(bt)), c33), [a, bt]),
        # the weights are not symmetric, so a vjp that drops either term fails
        ("gram", lambda t: wsum(t, t.gram(t.param(a)), c33), [a]),
        ("gram", lambda t: wsum(t, t.gram(t.param(h)), c233), [h]),
        ("add", lambda t: wsum(t, t.add(t.param(a), t.param(b)), c32), [a, b]),
        ("elementwise_mul", lambda t: wsum(t, t.elementwise_mul(t.param(a), t.param(b)), c32), [a, b]),
        ("scalar_mul", lambda t: wsum(t, t.scalar_mul(-2.5, t.param(a)), c32), [a]),
        ("exp", lambda t: wsum(t, t.exp(t.param(a)), c32), [a]),
        # a stack whose second graph has a pad row, each graph weighted apart
        ("graph_sum", lambda t: t.graph_sum(t.param(h), row_mask, [0.5, -1.5]), [h]),
        ("clip", lambda t: wsum(t, t.clip(t.param(kinked), -0.5, 1.0), c22), [kinked]),
        ("gcn_layer", lambda t: wsum(t, layer(t, True), c232), [h, w, bias]),
        ("gcn_layer", lambda t: wsum(t, layer(t, False), c232), [h, w, bias]),
        ("bce_logits", lambda t: t.bce_logits(t.param(logits), c1, c2, 6.0), [logits]),
        ("bce_logits", lambda t: t.bce_logits(t.param(saturated), c1, c2, 6.0), [saturated]),
    ]


def test_criterion_1_gradients():
    with criterion(1, "analytic gradients match finite differences for every "
                      "tape op and both full pipelines (< 10 s)"):
        start = time.time()

        for name, make_loss, params in _op_cases():
            def build(make_loss=make_loss):
                t = Tape()
                return t, make_loss(t)

            _gradcheck(build, params)

        x, adj, m1 = path4_features(), path4_adjacency(), path4_membership()

        det = make_tier_models(4, RunConfig(hidden=3, d_z=2, seed=77))
        det_params = [p for m in det for p in m.params()]

        def build_det():
            tape = Tape()
            return tape, pipeline_loss(det, x, adj, m1, tape)

        _gradcheck(build_det, det_params)

        var = make_variational_tier_models(4, RunConfig(hidden=3, d_z=2, seed=78))
        var_params = [p for m in var for p in m.params()]
        rng = np.random.default_rng(105)
        noises = [rng.standard_normal((n, 2)) for n in (4, 2, 1)]

        def build_var():
            tape = Tape()
            return tape, pipeline_loss(var, x, adj, m1, tape,
                                       RunConfig(), noises)

        _gradcheck(build_var, var_params)

        elapsed = time.time() - start
        assert elapsed < 10.0, f"gradient criterion took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. pooling exactness against an independent oracle


def test_criterion_2_pooling_oracle():
    with criterion(2, "pooling matches an independent dense oracle bitwise on "
                      "50 random graphs and conserves mass to 1e-12"):
        rng = np.random.default_rng(2024)
        four_channel_seen = 0
        for case in range(50):
            n = int(rng.integers(1, 9))
            s = int(rng.choice([1, 4]))
            four_channel_seen += s == 4
            z = rng.standard_normal((n, 3))
            adj = random_symmetric_adjacency(rng, n, s)
            m = random_membership(rng, n)
            x_next, a_next = pool_features(z, m), pool_adjacency(adj, m)
            ox, oa = pool_oracle(z, adj, dense_membership(m))
            assert np.array_equal(x_next, ox), f"case {case}: features differ"
            assert np.array_equal(a_next, oa), f"case {case}: adjacency differs"
            for c in range(s):
                drift = abs(a_next[:, :, c].sum() - adj[:, :, c].sum())
                assert drift <= 1e-12, f"case {case} channel {c}: mass drift {drift}"
        assert four_channel_seen >= 10  # the multi-edge-feature case is exercised

        # explicit 4-channel regression: channels must pool independently
        z = rng.standard_normal((6, 3))
        adj = random_symmetric_adjacency(rng, 6, 4)
        m = random_membership(rng, 6)
        full = pool_adjacency(adj, m)
        for c in range(4):
            single = pool_adjacency(adj[:, :, c][:, :, None], m)
            assert np.array_equal(full[:, :, c], single[:, :, 0])


# ---------------------------------------------------------------------------
# 3. vanillin golden fixture


def test_criterion_3_vanillin_golden():
    with criterion(3, "vanillin parses to 19 atoms / 19 bonds / 38 directed "
                      "entries, C8H8O3, InChI round-trip, hetero marks, "
                      "disjoint cover with >= 3 functional groups"):
        mol = parse_sdf(VANILLIN_SDF.read_bytes())[0]
        symbols = [a.symbol for a in mol.atoms]
        assert mol.atom_count == 19
        assert symbols.count("C") == 8
        assert symbols.count("O") == 3
        assert symbols.count("H") == 8
        assert mol.bond_count == 19

        graph = featurize(mol)
        assert graph.edge_index.shape == (2, 38)
        assert formula_from_features(graph.x) == "C8H8O3"

        inchi = mol.inchi
        assert inchi and inchi.startswith("InChI=")
        assert parse_sdf(write_sdf([mol]))[0].inchi == inchi

        marked = mark_atoms(mol)
        hetero_marked = {i for i in marked if symbols[i] not in ("C", "H")}
        assert hetero_marked == {8, 9, 10}  # atoms 9, 10, 11 in file numbering

        part = partition_molecule(mol)
        flat = sorted(a for g in part.groups for a in g)
        assert flat == list(range(19))  # disjoint and complete
        assert len(functional_groups(part)) >= 3
        membership_from_partition(part, 19)  # must build without complaint


# ---------------------------------------------------------------------------
# 4. deterministic training smoke with pinned golden losses


def test_criterion_4_tgae_smoke():
    with criterion(4, "path-4 training run (seed 42, lr 0.01, 200 epochs) "
                      "descends, ranks edges with AUC >= 0.9, and lands on "
                      "the pinned golden losses within 1e-9 (< 30 s)"):
        start = time.time()
        models = make_tier_models(4, RunConfig(seed=42))
        stack, = stack_samples([tier_sample(path4_features(), path4_adjacency())])
        history = train_tier(models[0], [stack], RunConfig(epochs=200, lr=0.01))

        assert history[-1] < history[0]
        assert abs(history[0] - GOLDEN_INITIAL_LOSS) <= GOLDEN_TOL
        assert abs(history[-1] - GOLDEN_FINAL_LOSS) <= GOLDEN_TOL

        from tiergae.gcn import encode_numpy

        z = encode_numpy(models[0].encoder, stack.x[0], stack.a_norm[0])
        logits = decode_adjacency_numpy(z)
        scores, labels = [], []
        for i in range(4):
            for j in range(4):
                if i != j:
                    scores.append(logits[i, j])
                    labels.append(bool(stack.mask[0, i, j]))
        assert ranking_auc(scores, labels) >= 0.9

        elapsed = time.time() - start
        assert elapsed < 30.0, f"training smoke took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 5. variational properties


def test_criterion_5_tvgae_properties():
    with criterion(5, "KL is 0 at the prior and >= 0 on 100 random inputs; "
                      "the clamped ablation tracks the deterministic run to "
                      "1e-6 per epoch; mu-mode embeddings ignore seeds"):
        assert kl_value(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0

        rng = np.random.default_rng(55)
        for _ in range(100):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            mu = rng.standard_normal((n, d)) * 3
            ls = rng.standard_normal((n, d)) * 2
            assert kl_value(mu, ls) >= 0.0

        stacks = stack_samples([tier_sample(path4_features(), path4_adjacency())])
        det = make_tier_models(4, RunConfig(seed=42))[0]
        det_hist = train_tier(det, stacks, RunConfig(epochs=200, lr=0.01))
        var = make_variational_tier_models(4, RunConfig(seed=42))[0]
        var_hist = train_tier_variational(
            FixedLogsigmaModel(var.encoder_mu, var.tier), stacks,
            RunConfig(epochs=200, lr=0.01), seeded_rng(42, 1, NOISE_ROLE),
        )
        assert len(det_hist) == len(var_hist) == 200
        worst = max(abs(a - b) for a, b in zip(det_hist, var_hist))
        assert worst <= 1e-6, f"ablation drifts {worst} from the deterministic run"

        # mu-mode inference must not consult any rng state
        ei, ea = dense_to_coo(path4_adjacency())
        g = Graph(x=path4_features(), edge_index=ei, edge_attr=ea)
        vmodels = make_variational_tier_models(4, RunConfig(hidden=6, d_z=3, seed=3))
        np.random.seed(1)
        r1 = encode_tiered_variational(g, path4_membership(), vmodels)
        np.random.seed(999)
        r2 = encode_tiered_variational(g, path4_membership(), vmodels)
        for t1, t2 in zip(r1.tiers, r2.tiers):
            assert np.array_equal(t1.z, t2.z)


# ---------------------------------------------------------------------------
# 6. tier invariances


def test_criterion_6_tier_invariances():
    with criterion(6, "whole-molecule embedding is relabel-invariant to 1e-9 "
                      "and training one tier leaves the others bit-identical"):
        mol = parse_sdf(VANILLIN_SDF.read_bytes())[0]
        graph = featurize(mol)
        m1 = membership_from_partition(partition_molecule(mol), 19)
        models = make_tier_models(13, RunConfig(seed=7))
        rep = encode_tiered(graph, m1, models)

        rng = np.random.default_rng(0)
        for _ in range(3):
            perm = rng.permutation(19)
            p = np.eye(19)[perm].T  # node i moves to row perm[i]
            rep_p = encode_tiered(
                permute_graph(graph, perm), membership_from_dense(p @ dense_membership(m1)), models
            )
            delta = np.abs(rep_p.tiers[2].z - rep.tiers[2].z).max()
            assert delta <= 1e-9, f"relabeling moved z3 by {delta}"

        # train exactly one tier; the other two must not move a bit
        sample = tier_sample(path4_features(), path4_adjacency(), path4_membership())
        t2 = next_tier_samples(
            make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=1))[0],
            [sample], stack_samples([sample]), [None],
        )
        for trained_idx, train_samples in ((0, [sample]), (1, t2)):
            fresh = make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=5))
            snapshot = {
                p.name: p.value.copy() for m in fresh for p in m.params()
            }
            train_tier(fresh[trained_idx], stack_samples(train_samples),
                       RunConfig(epochs=8, lr=0.01))
            for idx, model in enumerate(fresh):
                if idx == trained_idx:
                    continue
                for p in model.params():
                    assert np.array_equal(p.value, snapshot[p.name]), p.name


# ---------------------------------------------------------------------------
# 7. byte determinism of the whole pipeline


def test_criterion_7_pipeline_determinism(tmp_path):
    with criterion(7, "two ingest-train-embed runs with the same seed write "
                      "byte-identical corpus, checkpoint, and exports"):
        cfg = RunConfig(epochs=5, hidden=6, d_z=3, seed=11)
        outputs = {}
        for run in ("one", "two"):
            root = tmp_path / run
            corpus = cmd_ingest([VANILLIN_SDF], root / "corpus.json")
            ckpt, history = cmd_train(cfg, corpus, root / "model.json")
            exports = cmd_embed(ckpt, corpus, root / "export")
            outputs[run] = {
                "corpus": corpus.read_bytes(),
                "checkpoint": ckpt.read_bytes(),
                "history": history.read_bytes(),
                "exports": [p.read_bytes() for p in exports],
            }
        assert outputs["one"]["corpus"] == outputs["two"]["corpus"]
        assert outputs["one"]["checkpoint"] == outputs["two"]["checkpoint"]
        assert outputs["one"]["history"] == outputs["two"]["history"]
        assert outputs["one"]["exports"] == outputs["two"]["exports"]


# ---------------------------------------------------------------------------
# 8. the suite runs with the network disabled


def test_criterion_8_offline():
    with criterion(8, "network sockets are disabled for the whole suite and "
                      "the fetcher is exercised through an injected fake"):
        with pytest.raises(RuntimeError):
            socket.create_connection(("localhost", 80), timeout=0.1)

        fake = RecordingTransport([(200, VANILLIN_SDF.read_bytes())])
        body = fetch_pubchem_sdf(1183, fake)
        assert parse_sdf(body)[0].cid == 1183
        assert fake.urls  # the request went through the injected transport
