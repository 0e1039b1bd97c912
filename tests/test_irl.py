import numpy as np
import pytest

from odirl.envs import SOURCE, TARGET, Batch, Transition
from odirl.irl import (
    LOGIT_CLIP,
    Discriminator,
    GailDiscriminator,
    disc_loss,
    gail_disc_loss,
    gail_policy_reward,
    policy_reward,
    reward_heatmap,
    _sigmoid,
)
from odirl.nets import Adam, Mlp
from oracles import (
    N_ACTIONS,
    N_STATES,
    mlp_layers,
    occupancy_measure,
    onehot,
    random_tabular_policy,
    replicated_occupancy_batch,
    toy_mdp_transition_matrix,
)

LN2 = float(np.log(2.0))


def disc_logit(f_val, log_pi, dd_val=0.0):
    """Raw discriminator logit; its sigmoid is the modified discriminator output."""
    return (np.asarray(f_val) + np.asarray(dd_val)) - np.asarray(log_pi)


def rand_disc(seed=0, gamma=0.9, **kw):
    return Discriminator(2, 2, gamma=gamma, seed=seed, hidden=(16,), **kw)


def randomize_output(net, rng):
    w, b = mlp_layers(net)[-1]
    w[...] = rng.normal(size=w.shape)
    b[...] = rng.normal(size=b.shape)


def test_f_equals_g_when_h_is_zero():
    rng = np.random.default_rng(0)
    disc = rand_disc()  # zero-init outputs: h == 0 exactly
    randomize_output(disc.g_net, rng)
    s, a, sn = rng.normal(size=(7, 2)), rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
    f = disc.f_value(s, a, sn)
    g = disc.g_value(s, a)
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
        disc_loss(disc, [], pol, np.zeros(0), np.zeros(4), np.zeros(0))
    with pytest.raises(ValueError):
        disc_loss(disc, demo, [], np.zeros(4), np.zeros(0), np.zeros(4))
    with pytest.raises(ValueError):
        disc_loss(disc, pol, demo, np.zeros(4), np.zeros(4), np.zeros(4))  # target-tagged demos


def test_disc_loss_indistinguishable_data_converges_to_2ln2():
    rng = np.random.default_rng(7)
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(32,))
    opt = Adam(disc.blocks().values(), lr=1e-3)
    for _ in range(400):
        demo = _toy_batch(64, SOURCE, rng)
        pol = _toy_batch(64, TARGET, rng)
        lp = np.full(64, -1.0)
        disc_loss(disc, demo, pol, lp, lp, np.zeros(64))
        opt.step()
    held_demo = _toy_batch(512, SOURCE, rng)
    held_pol = _toy_batch(512, TARGET, rng)
    lp = np.full(512, -1.0)
    loss, stats = disc_loss(disc, held_demo, held_pol, lp, lp, np.zeros(512))
    assert loss >= 2 * LN2 - 0.05


def test_tabular_discriminator_matches_occupancy_oracle():
    # Enumerable MDP: converged D(s,a) must equal rho_E / (rho_E + rho_pi).
    P = toy_mdp_transition_matrix(31)
    pi_e = random_tabular_policy(32)
    pi_b = random_tabular_policy(33)
    p0 = np.array([1.0, 0.0, 0.0])
    rho_e = occupancy_measure(P, pi_e, p0, horizon=12)
    rho_b = occupancy_measure(P, pi_b, p0, horizon=12)
    demo, _ = replicated_occupancy_batch(P, rho_e, SOURCE, scale=300)
    pol, _ = replicated_occupancy_batch(P, rho_b, TARGET, scale=300)

    disc = Discriminator(N_STATES, N_ACTIONS, gamma=0.0, state_only_g=False,
                         hidden=(64, 64), seed=1)
    # A zero h that Adam never steps: f = g + 0 - 0 = g exactly.
    disc.h_net = Mlp([N_STATES, 1], zero_init_output=True)
    opt = Adam([disc.g_net], lr=3e-3)
    log_pi_b = np.log(pi_b)
    lp_demo = log_pi_b[demo.s.argmax(axis=1), demo.a.argmax(axis=1)]
    lp_pol = log_pi_b[pol.s.argmax(axis=1), pol.a.argmax(axis=1)]
    for _ in range(2500):
        disc_loss(disc, demo, pol, lp_demo, lp_pol, np.zeros(len(demo)))
        opt.step()

    for s in range(N_STATES):
        for a in range(N_ACTIONS):
            f = disc.f_value(onehot(s, N_STATES)[None, :], onehot(a, N_ACTIONS)[None, :],
                             onehot(0, N_STATES)[None, :])[0]
            d_val = _sigmoid(np.array([f - log_pi_b[s, a]]))[0]
            want = rho_e[s, a] / (rho_e[s, a] + rho_b[s, a])
            assert d_val == pytest.approx(want, abs=0.05)


def _dd_root(rho_e, rho_pi, dd):
    """The x solving rho_e * sigmoid(-(x + dd)) = rho_pi * sigmoid(x), by bisection:
    the left side falls and the right side rises in x."""
    lo, hi = -LOGIT_CLIP, LOGIT_CLIP
    for _ in range(100):
        x = 0.5 * (lo + hi)
        if rho_e * _sigmoid(np.array([-(x + dd)]))[0] > rho_pi * _sigmoid(np.array([x]))[0]:
            lo = x
        else:
            hi = x
    return 0.5 * (lo + hi)


def test_tabular_discriminator_with_dd_matches_the_pointwise_root():
    # Each (s, a) cell of the toy MDP is one one-hot state of a state-only g
    # with no hidden layer, so g is a lookup table; h is zero and gamma 0, so
    # f = g. The demo logits carry DD (f + DD - log pi), the policy logits do
    # not, so on every cell sigmoid(g - log pi) must reach sigmoid(x*) for
    # x* the root of rho_E sigmoid(-(x + DD)) = rho_pi sigmoid(x), over the
    # batch's own row counts.
    P = toy_mdp_transition_matrix(31)
    p0 = np.array([1.0, 0.0, 0.0])
    counts = [np.round(occupancy_measure(P, random_tabular_policy(seed), p0, horizon=12)
                       * 600).astype(int).ravel() for seed in (32, 33)]
    n_cells = N_STATES * N_ACTIONS
    dd_table = np.array([0.0, -3.0, 2.0, 0.0, -1.5, 0.0])
    log_pi = np.log(random_tabular_policy(34)).ravel()
    eye = np.eye(n_cells)

    def replicated(cell_counts, tag):
        cells = np.repeat(np.arange(n_cells), cell_counts)
        return cells, Batch(eye[cells], np.zeros((len(cells), 1)), eye[cells], tag)

    (demo_cells, demo), (pol_cells, pol) = (replicated(counts[0], SOURCE),
                                            replicated(counts[1], TARGET))

    disc = Discriminator(n_cells, 1, gamma=0.0, state_only_g=True, hidden=(), seed=0)
    opt = Adam([disc.g_net], lr=1e-2)          # h is a zero net Adam never steps
    for _ in range(2000):
        disc_loss(disc, demo, pol, log_pi[demo_cells], log_pi[pol_cells], dd_table[demo_cells])
        opt.step()

    rho_e, rho_pi = (c / c.sum() for c in counts)
    assert np.all(rho_e > 0) and np.all(rho_pi > 0)
    x_star = np.array([_dd_root(rho_e[c], rho_pi[c], dd_table[c]) for c in range(n_cells)])
    # Every optimal logit, demo and policy, is well inside the clamp.
    assert np.abs(np.concatenate([x_star, x_star + dd_table])).max() < LOGIT_CLIP / 2
    no_dd = dd_table == 0.0
    assert _sigmoid(x_star[no_dd]) == pytest.approx(
        (rho_e / (rho_e + rho_pi))[no_dd], abs=1e-12)
    # DD moves the optimum: a gate blind to where DD enters would not pass.
    assert np.all(np.abs(_sigmoid(x_star) - rho_e / (rho_e + rho_pi))[~no_dd] > 0.01)
    x = disc.g_value(eye, np.zeros((n_cells, 1))) - log_pi
    assert _sigmoid(x) == pytest.approx(_sigmoid(x_star), abs=1e-6)
    assert not disc.h_net.params.any()


def test_gail_loss_balanced_indistinguishable_is_2ln2_when_converged():
    rng = np.random.default_rng(8)
    gail = GailDiscriminator(2, 2, hidden=(16,), seed=0)
    demo = _toy_batch(256, SOURCE, rng)
    pol = _toy_batch(256, TARGET, rng)
    loss, _ = gail_disc_loss(gail, demo, pol)  # zero-init: D = 0.5 exactly
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
    mlp_layers(gail.d_net)[-1][1][...] = 50.0  # D -> 1
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


def test_heatmap_zero_net_is_all_zeros_and_shape(tmp_path):
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16,), state_only_g=True)
    xs, ys, vals = reward_heatmap(disc, 10, tmp_path / "heatmap.csv")
    assert vals.shape == (10, 10)
    assert np.all(vals == 0.0)


def test_heatmap_csv_has_2500_rows(tmp_path):
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16,), state_only_g=True)
    path = tmp_path / "heatmap.csv"
    reward_heatmap(disc, 50, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 2501


def test_heatmap_rejects_state_action_reward_term(tmp_path):
    disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16,), state_only_g=False)
    with pytest.raises(ValueError):
        reward_heatmap(disc, 10, tmp_path / "heatmap.csv")
    assert not (tmp_path / "heatmap.csv").exists()


def test_shaping_constant_shift_leaves_logits_unchanged_at_gamma_one():
    rng = np.random.default_rng(10)
    disc = Discriminator(2, 2, gamma=1.0, seed=2, hidden=(16,))
    randomize_output(disc.g_net, rng)
    randomize_output(disc.h_net, rng)
    s, a, sn = rng.normal(size=(40, 2)), rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    log_pi = rng.normal(size=40)
    before = disc_logit(disc.f_value(s, a, sn), log_pi)
    mlp_layers(disc.h_net)[-1][1][...] += 7.3
    after = disc_logit(disc.f_value(s, a, sn), log_pi)
    assert np.max(np.abs(after - before)) <= 1e-9
