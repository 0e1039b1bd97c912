import numpy as np
import pytest

from odirl.envs import SOURCE, TARGET, Transition
from odirl.irl import (
    Discriminator,
    GailDiscriminator,
    disc_logit,
    disc_loss,
    gail_disc_loss,
    gail_policy_reward,
    policy_reward,
    reward_heatmap,
    _sigmoid,
)
from odirl.nets import Adam
from oracles import (
    N_ACTIONS,
    N_STATES,
    occupancy_measure,
    onehot,
    random_tabular_policy,
    replicated_occupancy_batch,
    toy_mdp_transition_matrix,
)

LN2 = float(np.log(2.0))


def rand_disc(seed=0, gamma=0.9, **kw):
    return Discriminator(2, 2, gamma=gamma, seed=seed, hidden=(16,), **kw)


def randomize_output(net, rng):
    last = len(net.layer_sizes) - 2
    net.weights(last)[...] = rng.normal(size=net.weights(last).shape)
    net.biases(last)[...] = rng.normal(size=net.biases(last).shape)


def test_f_equals_g_when_h_is_zero():
    rng = np.random.default_rng(0)
    disc = rand_disc()  # zero-init outputs: h == 0 exactly
    randomize_output(disc.g_net, rng)
    s, a, sn = rng.normal(size=(7, 2)), rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
    f = disc.f_value(s, a, sn)
    g = disc.g_value(s)
    assert np.array_equal(f, g)


def test_f_telescopes_over_trajectory_at_gamma_one():
    rng = np.random.default_rng(1)
    disc = rand_disc(gamma=1.0)
    randomize_output(disc.h_net, rng)  # g stays zero
    T = 12
    states = rng.normal(size=(T + 1, 2))
    f = disc.f_value(states[:-1], np.zeros((T, 2)), states[1:])
    h = disc.h_net.forward(states)[:, 0]
    assert np.sum(f) == pytest.approx(h[-1] - h[0], abs=1e-9)


def test_f_is_minus_h_at_gamma_zero_with_zero_g():
    rng = np.random.default_rng(2)
    disc = rand_disc(gamma=0.0)
    randomize_output(disc.h_net, rng)
    s, a, sn = rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    f = disc.f_value(s, a, sn)
    h = disc.h_net.forward(s)[:, 0]
    assert np.allclose(f, -h, atol=1e-12)


def test_disc_logit_examples():
    assert disc_logit(0.0, 0.0, 0.0) == 0.0
    assert _sigmoid(np.array([disc_logit(0.0, 0.0, 0.0)]))[0] == 0.5
    d = _sigmoid(np.array([disc_logit(np.log(3.0), 0.0, 0.0)]))[0]
    assert d == pytest.approx(0.75, abs=1e-12)
    d_dd = _sigmoid(np.array([disc_logit(0.0, 0.0, np.log(3.0))]))[0]
    assert d_dd == pytest.approx(0.75, abs=1e-12)


def test_logit_space_matches_ratio_form():
    rng = np.random.default_rng(3)
    for _ in range(500):
        f = rng.uniform(-15, 15)
        log_pi = rng.uniform(-15, 15)
        dd = rng.uniform(-5, 5)
        logit = disc_logit(f, log_pi, dd)
        if abs(logit) > 30:
            continue
        num = np.exp(f + dd)
        ratio_form = num / (num + np.exp(log_pi))
        assert abs(_sigmoid(np.array([logit]))[0] - ratio_form) < 1e-12


def test_policy_reward_examples():
    rng = np.random.default_rng(4)
    disc = rand_disc()
    randomize_output(disc.g_net, rng)
    s, a, sn = rng.normal(size=(6, 2)), rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    f = disc.f_value(s, a, sn)
    # f == log pi  =>  reward 0
    r = policy_reward(disc, s, a, sn, log_pi=f)
    assert np.allclose(r, 0.0, atol=1e-12)
    # identity: f - log_pi = ln 3
    r2 = policy_reward(disc, s, a, sn, log_pi=f - np.log(3.0))
    assert np.allclose(r2, np.log(3.0), atol=1e-12)
    # algebraic identity against log D - log(1-D)
    log_pi = rng.normal(size=6)
    r3 = policy_reward(disc, s, a, sn, log_pi=log_pi)
    logit = f - log_pi
    sig = _sigmoid(logit)
    assert np.allclose(r3, np.log(sig) - np.log(1.0 - sig), atol=1e-9)
    # investigation flag flips the sign
    r4 = policy_reward(disc, s, a, sn, log_pi=log_pi, flip_sign=True)
    assert np.array_equal(r4, -r3)


def _toy_batch(n, tag, rng):
    return [
        Transition(s=rng.normal(size=2), a=rng.normal(size=2), s_next=rng.normal(size=2),
                   done=False, domain_tag=tag, gt_reward=0.0)
        for _ in range(n)
    ]


def test_disc_loss_rejects_empty_and_mistagged_batches():
    rng = np.random.default_rng(5)
    disc = rand_disc()
    demo = _toy_batch(4, SOURCE, rng)
    pol = _toy_batch(4, TARGET, rng)
    with pytest.raises(ValueError):
        disc_loss(disc, [], pol, np.zeros(0), np.zeros(4))
    with pytest.raises(ValueError):
        disc_loss(disc, demo, [], np.zeros(4), np.zeros(0))
    with pytest.raises(ValueError):
        disc_loss(disc, pol, demo, np.zeros(4), np.zeros(4))  # target-tagged demos


def test_disc_loss_with_none_dd_equals_zero_dd_bitwise():
    rng = np.random.default_rng(6)
    disc_a = rand_disc(seed=3)
    disc_b = rand_disc(seed=3)
    demo = _toy_batch(16, SOURCE, rng)
    pol = _toy_batch(16, TARGET, rng)
    lp_d, lp_p = rng.normal(size=16), rng.normal(size=16)
    loss_a, _ = disc_loss(disc_a, demo, pol, lp_d, lp_p, demo_dd=None)
    loss_b, _ = disc_loss(disc_b, demo, pol, lp_d, lp_p, demo_dd=np.zeros(16))
    assert loss_a == loss_b
    assert np.array_equal(disc_a.g_net.grad, disc_b.g_net.grad)
    assert np.array_equal(disc_a.h_net.grad, disc_b.h_net.grad)


def test_disc_loss_indistinguishable_data_converges_to_2ln2():
    rng = np.random.default_rng(7)
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(32,))
    opt = Adam(disc.blocks(), lr=1e-3)
    for _ in range(400):
        demo = _toy_batch(64, SOURCE, rng)
        pol = _toy_batch(64, TARGET, rng)
        lp = np.full(64, -1.0)
        disc_loss(disc, demo, pol, lp, lp)
        opt.step()
    held_demo = _toy_batch(512, SOURCE, rng)
    held_pol = _toy_batch(512, TARGET, rng)
    lp = np.full(512, -1.0)
    loss, stats = disc_loss(disc, held_demo, held_pol, lp, lp)
    disc.g_net.zero_grad()
    disc.h_net.zero_grad()
    assert loss >= 2 * LN2 - 0.05


def test_tabular_discriminator_matches_occupancy_oracle():
    # Enumerable MDP: converged D(s,a) must equal rho_E / (rho_E + rho_pi).
    P = toy_mdp_transition_matrix(31)
    pi_e = random_tabular_policy(32)
    pi_b = random_tabular_policy(33)
    p0 = np.array([1.0, 0.0, 0.0])
    rho_e = occupancy_measure(P, pi_e, p0, horizon=12)
    rho_b = occupancy_measure(P, pi_b, p0, horizon=12)
    demo, _ = replicated_occupancy_batch(P, rho_e, SOURCE, scale=3000)
    pol, _ = replicated_occupancy_batch(P, rho_b, TARGET, scale=3000)

    disc = Discriminator(N_STATES, N_ACTIONS, gamma=0.0, state_only_g=False,
                         hidden=(64, 64), seed=1, train_shaping=False)
    opt = Adam(disc.blocks(), lr=3e-3)
    log_pi_b = np.log(pi_b)
    lp_demo = np.array([log_pi_b[t.s.argmax(), t.a.argmax()] for t in demo])
    lp_pol = np.array([log_pi_b[t.s.argmax(), t.a.argmax()] for t in pol])
    for _ in range(2500):
        disc_loss(disc, demo, pol, lp_demo, lp_pol)
        opt.step()

    for s in range(N_STATES):
        for a in range(N_ACTIONS):
            f = disc.f_value(onehot(s, N_STATES)[None, :], onehot(a, N_ACTIONS)[None, :],
                             onehot(0, N_STATES)[None, :])[0]
            d_val = _sigmoid(np.array([f - log_pi_b[s, a]]))[0]
            want = rho_e[s, a] / (rho_e[s, a] + rho_b[s, a])
            assert d_val == pytest.approx(want, abs=0.05)


def test_gail_loss_balanced_indistinguishable_is_2ln2_when_converged():
    rng = np.random.default_rng(8)
    gail = GailDiscriminator(2, 2, hidden=(16,), seed=0)
    demo = _toy_batch(256, SOURCE, rng)
    pol = _toy_batch(256, TARGET, rng)
    loss, _ = gail_disc_loss(gail, demo, pol)  # zero-init: D = 0.5 exactly
    gail.d_net.zero_grad()
    assert loss == pytest.approx(2 * LN2, abs=1e-12)


def test_gail_loss_rejects_mistagged_batches():
    rng = np.random.default_rng(10)
    gail = GailDiscriminator(2, 2, hidden=(16,), seed=0)
    demo = _toy_batch(4, SOURCE, rng)
    pol = _toy_batch(4, TARGET, rng)
    with pytest.raises(ValueError, match="source-tagged"):
        gail_disc_loss(gail, pol, pol)
    with pytest.raises(ValueError, match="mixes domain tags"):
        gail_disc_loss(gail, demo, pol[:2] + demo[:2])


def test_gail_reward_capped_by_logit_clamp():
    gail = GailDiscriminator(2, 2, hidden=(16,), seed=0)
    last = len(gail.d_net.layer_sizes) - 2
    gail.d_net.biases(last)[...] = 50.0  # D -> 1
    r = gail_policy_reward(gail, np.zeros((1, 2)), np.zeros((1, 2)))[0]
    assert r <= np.log1p(np.exp(10.0)) + 1e-12
    assert r == pytest.approx(10.0, abs=1e-3)


def test_gail_separable_data_reaches_full_demo_accuracy():
    rng = np.random.default_rng(9)
    demo = [Transition(s=rng.normal(size=2) + 4.0, a=rng.normal(size=2), s_next=np.zeros(2),
                       done=False, domain_tag=SOURCE, gt_reward=0.0) for _ in range(200)]
    pol = [Transition(s=rng.normal(size=2) - 4.0, a=rng.normal(size=2), s_next=np.zeros(2),
                      done=False, domain_tag=TARGET, gt_reward=0.0) for _ in range(200)]
    gail = GailDiscriminator(2, 2, hidden=(16,), seed=0)
    opt = Adam([gail.d_net], lr=3e-3)
    stats = {}
    for _ in range(300):
        _, stats = gail_disc_loss(gail, demo, pol)
        opt.step()
    assert stats["demo_acc"] == 1.0
    assert stats["policy_acc"] == 1.0


def test_heatmap_zero_net_is_all_zeros_and_shape():
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16,), state_only_g=True)
    xs, ys, vals = reward_heatmap(disc, grid_n=10)
    assert vals.shape == (10, 10)
    assert np.all(vals == 0.0)


def test_heatmap_csv_has_2500_rows(tmp_path):
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16,), state_only_g=True)
    path = tmp_path / "heatmap.csv"
    reward_heatmap(disc, grid_n=50, path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 2501


def test_heatmap_rejects_state_action_reward_term():
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16,), state_only_g=False)
    with pytest.raises(ValueError):
        reward_heatmap(disc, grid_n=10)


def test_shaping_constant_shift_leaves_logits_unchanged_at_gamma_one():
    rng = np.random.default_rng(10)
    disc = Discriminator(2, 2, gamma=1.0, seed=2, hidden=(16,))
    randomize_output(disc.g_net, rng)
    randomize_output(disc.h_net, rng)
    s, a, sn = rng.normal(size=(40, 2)), rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    log_pi = rng.normal(size=40)
    before = disc_logit(disc.f_value(s, a, sn), log_pi)
    last = len(disc.h_net.layer_sizes) - 2
    disc.h_net.biases(last)[...] += 7.3
    after = disc_logit(disc.f_value(s, a, sn), log_pi)
    assert np.max(np.abs(after - before)) <= 1e-9
