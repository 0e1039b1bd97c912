import numpy as np
import pytest

import odirl.policy as policy_mod
from odirl.envs import Batch, EnvSpec, PointMazeConfig, PointMazeEnv, SOURCE, rollouts
from odirl.policy import (
    GaussianPolicy,
    PolicyOptConfig,
    PolicyOptimizer,
    ValueNet,
    clipped_grad_coeff,
    compute_gae,
    evaluate,
)
from oracles import with_log_std


def bandit_spec(action_dim=1, bound=2.0):
    return EnvSpec(
        state_dim=1,
        action_dim=action_dim,
        action_low=np.full(action_dim, -bound),
        action_high=np.full(action_dim, bound),
        horizon=1,
        goal=np.zeros(1),
    )


def collect_bandit_batch(policy, n, rng):
    """One-step episodes from the fixed state [0]."""
    states = np.zeros((n, 1))
    actions, _ = policy.sample_action(states, rng)
    return Batch(states, actions, states.copy(), SOURCE, done=np.ones(n, dtype=bool),
                 gt_reward=np.zeros(n), ends=np.ones(n, dtype=bool),
                 log_prob=policy.log_prob(states, actions))


@pytest.mark.parametrize("bound,log_std", [(2.0, 0.0), (50.0, 2.0), (1e-4, -5.0)])
def test_initial_std_is_half_the_action_half_range_within_the_log_std_bounds(bound, log_std):
    policy = GaussianPolicy(bandit_spec(2, bound=bound), hidden=(8,), seed=0)
    assert np.allclose(policy.log_std.params, log_std, rtol=0, atol=1e-12)


def test_sample_action_min_log_std_is_nearly_deterministic():
    policy = with_log_std(GaussianPolicy(bandit_spec(2), hidden=(8,), seed=0), -5.0)
    rng = np.random.default_rng(0)
    states = np.zeros((20, 1))
    mean = policy.mean_net.forward(states)
    a, _ = policy.sample_action(states, rng)
    assert np.all(np.abs(a - mean) < 5 * np.exp(-5.0))


def test_sample_action_logp_matches_log_prob_when_in_bounds():
    policy = with_log_std(GaussianPolicy(bandit_spec(2, bound=50.0), hidden=(8,), seed=1), -1.0)
    rng = np.random.default_rng(3)
    states = np.zeros((20, 1))
    a, logp = policy.sample_action(states, rng)
    assert logp.shape == (20,)
    assert np.allclose(logp, policy.log_prob(states, a), rtol=0, atol=1e-12)


def test_sample_action_repeatable_given_rng_state():
    policy = GaussianPolicy(bandit_spec(2), hidden=(8,), seed=0)
    a1, l1 = policy.sample_action(np.zeros((3, 1)), np.random.default_rng(77))
    a2, l2 = policy.sample_action(np.zeros((3, 1)), np.random.default_rng(77))
    assert np.array_equal(a1, a2) and np.array_equal(l1, l2)


def quadratic_bandit_reward(target=0.5):
    def reward_fn(s, a, sn):
        return -((a[:, 0] - target) ** 2)
    return reward_fn


def test_maxent_update_bandit_converges_to_optimum():
    # closed-form optimum: action mean -> 0.5
    policy = with_log_std(GaussianPolicy(bandit_spec(), hidden=(16,), seed=0), -1.0)
    value = ValueNet(bandit_spec(), hidden=(16,), seed=1)
    cfg = PolicyOptConfig(entropy_coef=0.0, epochs=5, minibatch_size=32, lr=3e-3,
                          value_lr=3e-3, gamma=0.0, gae_lambda=1.0)
    opt = PolicyOptimizer(policy, value, cfg)
    rng = np.random.default_rng(0)
    for _ in range(300):
        batch = collect_bandit_batch(policy, 32, rng)
        opt.update(batch, quadratic_bandit_reward(0.5), rng)
    mean = policy.mean_net.forward(np.zeros(1))[0]
    assert abs(mean - 0.5) < 0.05


def test_huge_clip_one_epoch_matches_reinforce_sign():
    # With an effectively infinite clip and one epoch the first update is the
    # plain policy-gradient estimate; Adam's first step moves each parameter
    # in the gradient's direction, so the mean shift matches the REINFORCE sign.
    policy = with_log_std(GaussianPolicy(bandit_spec(), hidden=(8,), seed=5), -0.5)
    value = ValueNet(bandit_spec(), hidden=(8,), seed=6)
    cfg = PolicyOptConfig(entropy_coef=0.0, epochs=1, minibatch_size=4096, lr=1e-3,
                          clip_ratio=1e9, gamma=0.0)
    opt = PolicyOptimizer(policy, value, cfg)
    rng = np.random.default_rng(0)
    batch = collect_bandit_batch(policy, 256, rng)
    state = np.zeros(1)
    mean_before = policy.mean_net.forward(state)[0]

    # REINFORCE estimate on the same batch, normalized advantages like the update
    acts = batch.a[:, 0]
    rewards = -((acts - 0.5) ** 2)
    adv = rewards - value.predict(np.zeros((256, 1)))
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    sigma = np.exp(policy.clipped_log_std()[0])
    reinforce_mean_grad = np.sum(adv * (acts - mean_before) / sigma**2)

    opt.update(batch, quadratic_bandit_reward(0.5), rng)
    mean_after = policy.mean_net.forward(state)[0]
    assert np.sign(mean_after - mean_before) == np.sign(reinforce_mean_grad)


def test_constant_reward_zero_entropy_leaves_mean_net_unchanged():
    policy = GaussianPolicy(bandit_spec(), hidden=(8,), seed=0)
    value = ValueNet(bandit_spec(), hidden=(8,), seed=1)
    cfg = PolicyOptConfig(entropy_coef=0.0, epochs=3, minibatch_size=32, gamma=0.0)
    opt = PolicyOptimizer(policy, value, cfg)
    rng = np.random.default_rng(0)
    before = policy.mean_net.params.copy()
    batch = collect_bandit_batch(policy, 64, rng)
    opt.update(batch, lambda s, a, sn: np.full(s.shape[0], 3.7), rng)
    assert np.array_equal(policy.mean_net.params, before)


def test_nonfinite_reward_raises():
    policy = GaussianPolicy(bandit_spec(), hidden=(8,), seed=0)
    value = ValueNet(bandit_spec(), hidden=(8,), seed=1)
    opt = PolicyOptimizer(policy, value, PolicyOptConfig())
    rng = np.random.default_rng(0)
    batch = collect_bandit_batch(policy, 8, rng)
    with pytest.raises(FloatingPointError):
        opt.update(batch, lambda s, a, sn: np.full(s.shape[0], np.nan), rng)


def converged_sigma(entropy_coef, seed=0, updates=400):
    policy = with_log_std(GaussianPolicy(bandit_spec(), hidden=(8,), seed=seed), -1.0)
    value = ValueNet(bandit_spec(), hidden=(8,), seed=seed + 1)
    cfg = PolicyOptConfig(entropy_coef=entropy_coef, epochs=5, minibatch_size=32,
                          lr=3e-3, value_lr=3e-3, gamma=0.0)
    opt = PolicyOptimizer(policy, value, cfg)
    rng = np.random.default_rng(11)
    for _ in range(updates):
        batch = collect_bandit_batch(policy, 32, rng)
        opt.update(batch, quadratic_bandit_reward(0.0), rng)
    return float(np.exp(policy.clipped_log_std()[0]))


def test_entropy_bonus_strictly_widens_converged_policy():
    # On a quadratic bandit the converged std grows with the entropy weight. With
    # standardized advantages a weight of 0.1 still converges to the e^-5 floor.
    sigmas = [converged_sigma(lam) for lam in (0.0, 0.5, 1.0)]
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_clip_coeff_sign_invariant_to_advantage_scaling():
    rng = np.random.default_rng(8)
    ratio = np.exp(rng.normal(scale=0.5, size=200))
    adv = rng.normal(size=200)
    c1 = clipped_grad_coeff(ratio, adv, 0.2)
    c2 = clipped_grad_coeff(ratio, adv * 7.3, 0.2)
    assert np.array_equal(np.sign(c1), np.sign(c2))


@pytest.mark.parametrize("gamma,lam", [(0.99, 0.95), (0.9, 1.0), (0.5, 0.0)])
def test_gae_over_a_flat_batch_matches_the_per_episode_closed_form(gamma, lam):
    # Episodes of lengths 4, 1, 6 and 3; each bootstraps from next_values at its
    # end, whether it ended at the goal or was truncated.
    rng = np.random.default_rng(5)
    lengths = [4, 1, 6, 3]
    T = sum(lengths)
    r, v, vn = rng.normal(size=T), rng.normal(size=T), rng.normal(size=T)
    ends = np.zeros(T, dtype=bool)
    last_rows = np.cumsum(lengths) - 1
    ends[last_rows] = True

    adv = compute_gae(r, v, vn, ends, gamma, lam)

    delta = r + gamma * vn - v
    expected = np.empty(T)
    for first, last in zip(last_rows - np.array(lengths) + 1, last_rows):
        for t in range(first, last + 1):
            expected[t] = sum((gamma * lam) ** k * delta[t + k] for k in range(last - t + 1))
    np.testing.assert_allclose(adv, expected, rtol=0, atol=1e-12)
    # the one-episode recursion run episode by episode gives the same bits
    chunks = np.split(np.arange(T), last_rows[:-1] + 1)
    per_episode = [one_episode_gae(r[i], v[i], vn[i], gamma, lam) for i in chunks]
    assert np.array_equal(np.concatenate(per_episode), adv)


def one_episode_gae(r, v, vn, gamma, lam):
    """The backward GAE recursion over a single episode."""
    adv, last = np.zeros(len(r)), 0.0
    for t in range(len(r) - 1, -1, -1):
        delta = r[t] + gamma * vn[t] - v[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv


def test_update_makes_one_reward_call_two_value_forwards_and_one_gae_call(monkeypatch):
    spec = EnvSpec(state_dim=2, action_dim=1, action_low=np.full(1, -1.0),
                   action_high=np.full(1, 1.0), horizon=10, goal=np.zeros(2))
    policy = GaussianPolicy(spec, hidden=(8,), seed=0)
    value = ValueNet(spec, hidden=(8,), seed=1)
    opt = PolicyOptimizer(policy, value, PolicyOptConfig(epochs=2, minibatch_size=4))
    rng = np.random.default_rng(2)
    ends = np.zeros(9, dtype=bool)
    ends[[2, 3, 8]] = True                  # episodes of 3, 1 and 5 rows
    batch = Batch(rng.normal(size=(9, 2)), rng.uniform(-1, 1, (9, 1)), rng.normal(size=(9, 2)),
                  SOURCE, done=ends.copy(), gt_reward=np.zeros(9), ends=ends,
                  log_prob=rng.normal(size=9))

    reward_calls, predict_calls, gae_calls = [], [], []
    predict, gae = ValueNet.predict, policy_mod.compute_gae
    monkeypatch.setattr(ValueNet, "predict",
                        lambda self, s: predict_calls.append(len(s)) or predict(self, s))
    monkeypatch.setattr(policy_mod, "compute_gae",
                        lambda *args: gae_calls.append(len(args[0])) or gae(*args))

    def reward_fn(s, a, sn):
        reward_calls.append((s.copy(), a.copy(), sn.copy()))
        return -np.sum(s * s, axis=1)

    opt.update(batch, reward_fn, np.random.default_rng(0))
    assert len(reward_calls) == 1
    s, a, sn = reward_calls[0]
    assert np.array_equal(s, batch.s)
    assert np.array_equal(a, batch.a)
    assert np.array_equal(sn, batch.s_next)
    assert predict_calls == [len(batch), len(batch)]
    assert gae_calls == [len(batch)]


def test_update_without_transitions_raises_empty_batch():
    policy = GaussianPolicy(bandit_spec(), hidden=(8,), seed=0)
    opt = PolicyOptimizer(policy, ValueNet(bandit_spec(), hidden=(8,), seed=1), PolicyOptConfig())
    env = PointMazeEnv(PointMazeConfig(), SOURCE, seed=0)
    no_episode = rollouts(GaussianPolicy(env.spec, hidden=(4,)), env, 0, np.random.default_rng(0))
    no_row = Batch(np.empty((0, 1)), np.empty((0, 1)), np.empty((0, 1)), SOURCE,
                   done=np.empty(0, dtype=bool), gt_reward=np.empty(0),
                   ends=np.empty(0, dtype=bool), log_prob=np.empty(0))
    for batch in (no_episode, no_row):
        with pytest.raises(ValueError, match="empty batch"):
            opt.update(batch, lambda s, a, sn: np.zeros(len(s)), np.random.default_rng(0))


def test_update_without_log_prob_raises_before_any_reward_or_value_call(monkeypatch):
    env = PointMazeEnv(PointMazeConfig(horizon=5), SOURCE, seed=0)
    policy = GaussianPolicy(env.spec, hidden=(8,), seed=0)
    value = ValueNet(env.spec, hidden=(8,), seed=1)
    opt = PolicyOptimizer(policy, value, PolicyOptConfig(epochs=1))
    before = policy.mean_net.params.copy(), value.net.params.copy()

    def forbidden(*args):
        raise AssertionError("called before the log_prob check")

    monkeypatch.setattr(ValueNet, "predict", forbidden)
    deterministic = rollouts(policy, env, 2, deterministic=True)
    sampled = rollouts(policy, env, 2, np.random.default_rng(0)).rows(np.arange(4))
    for batch in (deterministic, sampled):      # a mean-action rollout, buffer-style rows
        assert len(batch) > 0 and batch.log_prob is None
        with pytest.raises(ValueError, match="log_prob"):
            opt.update(batch, forbidden, np.random.default_rng(0))
    assert np.array_equal(policy.mean_net.params, before[0])
    assert np.array_equal(value.net.params, before[1])


def test_evaluate_policy_that_never_moves_has_zero_success():
    env = PointMazeEnv(PointMazeConfig(noise_std=0.0), SOURCE, seed=0)
    policy = with_log_std(GaussianPolicy(env.spec, hidden=(8,), seed=0), -5.0)
    # zero-init output layer: mean action is exactly zero
    ret, success = evaluate(policy, env, n_episodes=5)
    assert success == 0.0
    assert ret < 0.0


class StraightToGoal:
    def __init__(self, goal, scale):
        self.goal = np.asarray(goal)
        self.scale = scale

    def _act(self, state):
        delta = self.goal - state
        n = np.linalg.norm(delta)
        return delta if n <= self.scale else delta / n * self.scale

    def act_deterministic(self, states):
        """Row-wise over (N, 2) states."""
        return np.array([self._act(s) for s in states])

    def sample_action(self, states, rng):
        return self.act_deterministic(states), np.zeros(len(states))

    def log_prob(self, states, actions):
        return np.zeros(states.shape[0])


def test_evaluate_scripted_goal_policy_in_wall_free_maze():
    cfg = PointMazeConfig(noise_std=0.0, wall_x=0.5, source_wall_length=0.01,
                          start_region=(0.05, 0.05, 0.15, 0.15),
                          goal=(0.3, 0.1))
    env = PointMazeEnv(cfg, SOURCE, seed=0)
    ret_opt, success = evaluate(StraightToGoal(cfg.goal, cfg.action_scale), env, n_episodes=5)
    assert success == 1.0

    random_policy = with_log_std(GaussianPolicy(env.spec, hidden=(8,), seed=3), 2.0)
    ret_rand, _ = evaluate(random_policy, env, n_episodes=5)
    assert ret_opt >= ret_rand
