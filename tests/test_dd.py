from types import SimpleNamespace

import numpy as np
import pytest

from odirl.dd import (
    CLS_SOURCE,
    CLS_TARGET,
    ClassifierPair,
    DDConfig,
    classifier_loss,
    dd_for_transitions,
)
from odirl.envs import SOURCE, TARGET, Batch, Transition
from odirl.nets import Adam
from oracles import (
    GAUSS_MU_SRC,
    GAUSS_MU_TGT,
    gaussian_domain_transitions,
    gaussian_eval_grid,
    gaussian_true_dd,
    mlp_layers,
    replicated_uniform_sa_batch,
    toy_mdp_transition_matrix,
)

LN2 = float(np.log(2.0))
# A DD clamp far above any DD these tests produce, so the clamp is the identity.
UNCLAMPED = 1e9


def dd_of_rows(pair, s, a, s_next, config, alpha):
    """DD of the rows (s[i], a[i], s_next[i])."""
    return dd_for_transitions(pair, Batch(s, a, s_next, SOURCE), config, alpha)


def fit_classifiers(pair, source_transitions, target_transitions, steps, config, rng):
    """Train the pair over two fixed batches; returns the last loss."""
    opt = Adam(pair.blocks().values(), lr=config.lr)
    source_transitions, target_transitions = Batch.of(source_transitions), Batch.of(target_transitions)
    n_src, n_tgt = len(source_transitions), len(target_transitions)
    full_batch = config.batch_size >= max(n_src, n_tgt)
    last = float("nan")
    for _ in range(steps):
        if full_batch:
            src, tgt = source_transitions, target_transitions
        else:
            src = source_transitions.rows(rng.integers(0, n_src, config.batch_size))
            tgt = target_transitions.rows(rng.integers(0, n_tgt, config.batch_size))
        last, _, _ = classifier_loss(pair, src, tgt, noise_std=config.input_noise_std, rng=rng)
        opt.step()
    return last


def unsmoothed_loss(pair, source_batch, target_batch):
    """classifier_loss without input smoothing; its zero draws come from a throwaway stream."""
    return classifier_loss(pair, source_batch, target_batch, noise_std=0.0,
                           rng=np.random.default_rng(0))


def classifier_accuracy(pair, source_batch, target_batch) -> float:
    """Fraction of correct (s,a,s') domain predictions over both batches."""
    def predict(batch):
        batch = Batch.of(batch)
        return pair.q_sas.forward(np.concatenate([batch.s, batch.a, batch.s_next], axis=1)).argmax(axis=1)
    correct = int((predict(source_batch) == CLS_SOURCE).sum())
    correct += int((predict(target_batch) == CLS_TARGET).sum())
    return correct / (len(source_batch) + len(target_batch))


def small_transition(tag, rng, dim=1):
    return Transition(
        s=rng.normal(size=dim), a=rng.normal(size=dim), s_next=rng.normal(size=dim),
        done=False, domain_tag=tag, gt_reward=0.0,
    )


def test_untrained_pair_has_uniform_logits_and_loss_2ln2():
    rng = np.random.default_rng(0)
    pair = ClassifierPair(1, 1, hidden=(16,), seed=0)
    src = [small_transition(SOURCE, rng) for _ in range(8)]
    tgt = [small_transition(TARGET, rng) for _ in range(8)]
    total, l_sas, l_sa = unsmoothed_loss(pair, src, tgt)
    assert total == pytest.approx(2 * LN2, abs=1e-12)
    assert l_sas == pytest.approx(LN2, abs=1e-12)
    assert l_sa == pytest.approx(LN2, abs=1e-12)


def test_classifier_loss_requires_both_domains():
    rng = np.random.default_rng(0)
    pair = ClassifierPair(1, 1, hidden=(16,), seed=0)
    src = [small_transition(SOURCE, rng) for _ in range(4)]
    with pytest.raises(ValueError):
        unsmoothed_loss(pair, src, [])
    with pytest.raises(ValueError):
        unsmoothed_loss(pair, [], src)


def test_classifier_loss_rejects_mislabeled_batches():
    rng = np.random.default_rng(0)
    pair = ClassifierPair(1, 1, hidden=(16,), seed=0)
    src = [small_transition(SOURCE, rng) for _ in range(4)]
    tgt = [small_transition(TARGET, rng) for _ in range(4)]
    with pytest.raises(ValueError):
        unsmoothed_loss(pair, tgt, src)


@pytest.mark.parametrize("noise_std", [0.03, 0.0])
def test_classifier_loss_draws_two_smoothing_normals_per_call(noise_std):
    # The classifier stream's contract: each call draws one (n, 2*state_dim +
    # action_dim) normal for the (s, a, s') input, then one (n, state_dim +
    # action_dim) normal for the (s, a) input, whatever noise_std is.
    state_dim, action_dim, n_src, n_tgt = 3, 2, 5, 4
    rng = np.random.default_rng(0)

    def batch(n, tag):
        return Batch(rng.normal(size=(n, state_dim)), rng.normal(size=(n, action_dim)),
                     rng.normal(size=(n, state_dim)), tag)

    src, tgt = batch(n_src, SOURCE), batch(n_tgt, TARGET)
    pair = ClassifierPair(state_dim, action_dim, hidden=(8,), seed=0)
    for net in (pair.q_sas, pair.q_sa):       # random weights, so the noise moves the loss
        net.params[...] = rng.normal(0.0, 0.5, net.params.shape)
    stream, twin = np.random.default_rng(1), np.random.default_rng(1)
    _, l_sas, l_sa = classifier_loss(pair, src, tgt, noise_std=noise_std, rng=stream)
    n = n_src + n_tgt
    z_sas = twin.standard_normal((n, 2 * state_dim + action_dim))
    z_sa = twin.standard_normal((n, state_dim + action_dim))
    assert stream.bit_generator.state == twin.bit_generator.state

    # The first draw smooths the (s, a, s') input and the second the (s, a) input.
    s, a, sn = (np.concatenate([getattr(src, k), getattr(tgt, k)]) for k in ("s", "a", "s_next"))
    labels = np.r_[np.full(n_src, CLS_SOURCE), np.full(n_tgt, CLS_TARGET)]
    for net, x, z, loss in ((pair.q_sas, np.hstack([s, a, sn]), z_sas, l_sas),
                            (pair.q_sa, np.hstack([s, a]), z_sa, l_sa)):
        logits = net.forward(x + noise_std * z)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        assert loss == pytest.approx(-logp[np.arange(n), labels].mean(), rel=1e-12)


def test_separable_domains_train_to_near_zero_loss():
    # Disjoint s' supports: source lands near -5, target near +5.
    rng = np.random.default_rng(1)
    def make(tag, center):
        out = []
        for _ in range(400):
            s = rng.uniform(-1, 1, 1)
            a = rng.uniform(-1, 1, 1)
            out.append(Transition(s=s, a=a, s_next=np.array([center + rng.normal(0, 0.2)]),
                                  done=False, domain_tag=tag, gt_reward=0.0))
        return out
    src = make(SOURCE, -5.0)
    tgt = make(TARGET, +5.0)
    pair = ClassifierPair(1, 1, hidden=(32,), seed=0)
    cfg = DDConfig(input_noise_std=0.0, lr=3e-3, batch_size=128)
    fit_classifiers(pair, src, tgt, steps=600, config=cfg, rng=np.random.default_rng(2))
    loss, l_sas, _ = unsmoothed_loss(pair, src, tgt)
    assert l_sas < 0.05


def test_identical_domains_stay_at_chance():
    rng = np.random.default_rng(3)
    src = gaussian_domain_transitions(2000, 0.0, SOURCE, rng)
    tgt = gaussian_domain_transitions(2000, 0.0, TARGET, rng)
    pair = ClassifierPair(1, 1, hidden=(32,), seed=0)
    cfg = DDConfig(input_noise_std=0.01, lr=1e-3, batch_size=128)
    fit_classifiers(pair, src, tgt, steps=500, config=cfg, rng=np.random.default_rng(4))
    held_src = gaussian_domain_transitions(1000, 0.0, SOURCE, rng)
    held_tgt = gaussian_domain_transitions(1000, 0.0, TARGET, rng)
    trained_loss, _, _ = unsmoothed_loss(pair, held_src, held_tgt)
    assert trained_loss >= 2 * LN2 - 0.08
    acc = classifier_accuracy(pair, held_src, held_tgt)
    assert 0.45 <= acc <= 0.55


def test_dd_zero_when_logits_identical():
    pair = ClassifierPair(1, 1, hidden=(16,), seed=0)  # zero output init
    cfg = DDConfig(dd_clip=UNCLAMPED)
    dd = dd_of_rows(pair, np.zeros((5, 1)), np.zeros((5, 1)), np.zeros((5, 1)), cfg, 1.0)
    assert np.all(dd == 0.0)


def test_dd_matches_direct_substitution_example():
    # q_sas says p(target)=0.8, q_sa says 0.5 -> DD = ln 4
    pair = ClassifierPair(1, 1, hidden=(16,), seed=0)
    mlp_layers(pair.q_sas)[-1][1][...] = np.array([0.0, np.log(4.0)])
    cfg = DDConfig(dd_clip=UNCLAMPED)
    dd = dd_of_rows(pair, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), cfg, 1.0)
    assert dd[0] == pytest.approx(np.log(4.0), rel=1e-6)      # float32 nets


def test_dd_alpha_linearity_is_exact():
    rng = np.random.default_rng(5)
    pair = ClassifierPair(1, 1, hidden=(16,), seed=1)
    # random nontrivial logits
    mlp_layers(pair.q_sas)[-1][0][...] = rng.normal(size=(16, 2))
    mlp_layers(pair.q_sa)[-1][0][...] = rng.normal(size=(16, 2))
    s, a, sn = rng.normal(size=(9, 1)), rng.normal(size=(9, 1)), rng.normal(size=(9, 1))
    base = dd_of_rows(pair, s, a, sn, DDConfig(dd_clip=UNCLAMPED), 1.0)
    for c in (0.0, 0.5, 2.0, 7.0):
        scaled = dd_of_rows(pair, s, a, sn, DDConfig(dd_clip=UNCLAMPED), c)
        assert np.array_equal(scaled, c * base)
    # with the clamp, alpha still scales outside the clamp
    clipped = dd_of_rows(pair, s, a, sn, DDConfig(dd_clip=0.5), 3.0)
    assert np.array_equal(clipped, 3.0 * np.clip(base, -0.5, 0.5))


def test_dd_clip_bounds_output():
    rng = np.random.default_rng(6)
    pair = ClassifierPair(1, 1, hidden=(16,), seed=1)
    mlp_layers(pair.q_sas)[-1][1][...] = np.array([0.0, 40.0])
    dd = dd_of_rows(pair, np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)),
                  DDConfig(dd_clip=5.0), 1.0)
    assert np.all(dd == 5.0)


def test_swapped_label_query_is_exact_negation():
    rng = np.random.default_rng(7)
    pair = ClassifierPair(1, 1, hidden=(16,), seed=2)
    mlp_layers(pair.q_sas)[-1][0][...] = rng.normal(size=(16, 2))
    mlp_layers(pair.q_sa)[-1][0][...] = rng.normal(size=(16, 2))
    s, a, sn = rng.normal(size=(6, 1)), rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    cfg = DDConfig(dd_clip=UNCLAMPED)
    base = dd_of_rows(pair, s, a, sn, cfg, 1.0)

    def swapped(net):  # the classifier with its source and target logit columns exchanged
        return SimpleNamespace(forward=lambda x, keep=True: net.forward(x, keep)[:, ::-1])

    swapped_pair = SimpleNamespace(q_sas=swapped(pair.q_sas), q_sa=swapped(pair.q_sa))
    swapped = dd_of_rows(swapped_pair, s, a, sn, cfg, 1.0)
    assert np.array_equal(swapped, -base)


def test_retraining_with_swapped_domains_negates_dd_within_noise():
    rng = np.random.default_rng(8)
    src = gaussian_domain_transitions(4000, GAUSS_MU_SRC, SOURCE, rng)
    tgt = gaussian_domain_transitions(4000, GAUSS_MU_TGT, TARGET, rng)
    # swapped roles: target data relabeled source and vice versa
    src_sw = Batch(tgt.s, tgt.a, tgt.s_next, SOURCE)
    tgt_sw = Batch(src.s, src.a, src.s_next, TARGET)
    cfg = DDConfig(dd_clip=UNCLAMPED, input_noise_std=0.01, lr=1e-3, batch_size=256)
    pair = ClassifierPair(1, 1, hidden=(32, 32), seed=0)
    pair_sw = ClassifierPair(1, 1, hidden=(32, 32), seed=0)
    fit_classifiers(pair, src, tgt, steps=1500, config=cfg, rng=np.random.default_rng(9))
    fit_classifiers(pair_sw, src_sw, tgt_sw, steps=1500, config=cfg, rng=np.random.default_rng(9))
    S, A, SN = gaussian_eval_grid(8)
    d1 = dd_of_rows(pair, S[:, None], A[:, None], SN[:, None], cfg, 1.0)
    d2 = dd_of_rows(pair_sw, S[:, None], A[:, None], SN[:, None], cfg, 1.0)
    assert np.mean(np.abs(d1 + d2)) < 0.15


def test_gaussian_log_ratio_recovery():
    # Trained DD vs the closed-form Gaussian log-density ratio.
    rng = np.random.default_rng(10)
    src = gaussian_domain_transitions(12000, GAUSS_MU_SRC, SOURCE, rng)
    tgt = gaussian_domain_transitions(12000, GAUSS_MU_TGT, TARGET, rng)
    pair = ClassifierPair(1, 1, hidden=(64, 64), seed=0)
    cfg = DDConfig(dd_clip=UNCLAMPED, input_noise_std=0.01, lr=1e-3, batch_size=256)
    fit_classifiers(pair, src, tgt, steps=2500, config=cfg, rng=np.random.default_rng(11))
    S, A, SN = gaussian_eval_grid(20)
    est = dd_of_rows(pair, S[:, None], A[:, None], SN[:, None], cfg, 1.0)
    true = gaussian_true_dd(S, A, SN)
    mae = float(np.mean(np.abs(est - true)))
    assert mae <= 0.1


def test_tabular_bayes_consistency():
    # DD from classifiers vs exact log p ratios on an enumerable MDP.
    P_src = toy_mdp_transition_matrix(21)
    P_tgt = toy_mdp_transition_matrix(22)
    src = replicated_uniform_sa_batch(P_src, SOURCE, copies=120)
    tgt = replicated_uniform_sa_batch(P_tgt, TARGET, copies=120)
    pair = ClassifierPair(3, 2, hidden=(64,), seed=0)
    cfg = DDConfig(dd_clip=UNCLAMPED, input_noise_std=0.0, lr=3e-3, batch_size=10_000)
    fit_classifiers(pair, src, tgt, steps=4000, config=cfg, rng=np.random.default_rng(23))
    from oracles import onehot
    for s in range(3):
        for a in range(2):
            for sn in range(3):
                p_t, p_s = P_tgt[s, a, sn], P_src[s, a, sn]
                if min(p_t, p_s) < 0.05:
                    continue
                est = dd_of_rows(pair, onehot(s, 3)[None, :], onehot(a, 2)[None, :],
                               onehot(sn, 3)[None, :], cfg, 1.0)[0]
                assert est == pytest.approx(np.log(p_t) - np.log(p_s), abs=0.05)
