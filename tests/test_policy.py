import numpy as np
import pytest

from odirl.envs import EnvSpec, PointMazeConfig, PointMazeEnv, SOURCE, Trajectory, Transition, rollout
from odirl.policy import (
    GaussianPolicy,
    PolicyOptConfig,
    PolicyOptimizer,
    ValueNet,
    clipped_grad_coeff,
    evaluate,
)


def bandit_spec(action_dim=1, bound=2.0):
    return EnvSpec(
        state_dim=1,
        action_dim=action_dim,
        action_low=np.full(action_dim, -bound),
        action_high=np.full(action_dim, bound),
        horizon=1,
    )


def collect_bandit_batch(policy, n, rng):
    """One-step episodes from the fixed state [0]."""
    trajs = []
    state = np.zeros(1)
    for _ in range(n):
        a, _ = policy.sample_action(state, rng)
        logp = policy.log_prob(state[None, :], a[None, :])[0]
        t = Transition(s=state.copy(), a=a, s_next=state.copy(), done=True,
                       domain_tag=SOURCE, gt_reward=0.0)
        trajs.append(Trajectory(transitions=[t], log_probs=np.array([logp])))
    return trajs


def test_sample_action_min_log_std_is_nearly_deterministic():
    policy = GaussianPolicy(bandit_spec(2), hidden=(8,), seed=0, init_log_std=-5.0)
    rng = np.random.default_rng(0)
    state = np.zeros(1)
    mean = policy.mean_net.forward(state)
    for _ in range(20):
        a, _ = policy.sample_action(state, rng)
        assert np.all(np.abs(a - mean) < 5 * np.exp(-5.0))


def test_sample_action_logp_matches_log_prob_when_in_bounds():
    policy = GaussianPolicy(bandit_spec(2, bound=50.0), hidden=(8,), seed=1, init_log_std=-1.0)
    rng = np.random.default_rng(3)
    state = np.zeros(1)
    for _ in range(20):
        a, logp = policy.sample_action(state, rng)
        assert logp == pytest.approx(policy.log_prob(state[None, :], a[None, :])[0], abs=1e-12)


def test_sample_action_repeatable_given_rng_state():
    policy = GaussianPolicy(bandit_spec(2), hidden=(8,), seed=0)
    a1, l1 = policy.sample_action(np.zeros(1), np.random.default_rng(77))
    a2, l2 = policy.sample_action(np.zeros(1), np.random.default_rng(77))
    assert np.array_equal(a1, a2) and l1 == l2


def quadratic_bandit_reward(target=0.5):
    def reward_fn(s, a, sn):
        return -((a[:, 0] - target) ** 2)
    return reward_fn


def test_maxent_update_bandit_converges_to_optimum():
    # closed-form optimum: action mean -> 0.5
    policy = GaussianPolicy(bandit_spec(), hidden=(16,), seed=0, init_log_std=-1.0)
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
    policy = GaussianPolicy(bandit_spec(), hidden=(8,), seed=5, init_log_std=-0.5)
    value = ValueNet(bandit_spec(), hidden=(8,), seed=6)
    cfg = PolicyOptConfig(entropy_coef=0.0, epochs=1, minibatch_size=4096, lr=1e-3,
                          value_lr=0.0, clip_ratio=1e9, gamma=0.0, adv_norm=True)
    opt = PolicyOptimizer(policy, value, cfg)
    rng = np.random.default_rng(0)
    batch = collect_bandit_batch(policy, 256, rng)
    state = np.zeros(1)
    mean_before = policy.mean_net.forward(state)[0]

    # REINFORCE estimate on the same batch, normalized advantages like the update
    acts = np.array([tr.transitions[0].a[0] for tr in batch])
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
    policy = GaussianPolicy(bandit_spec(), hidden=(8,), seed=seed, init_log_std=-1.0)
    value = ValueNet(bandit_spec(), hidden=(8,), seed=seed + 1)
    cfg = PolicyOptConfig(entropy_coef=entropy_coef, epochs=5, minibatch_size=32,
                          lr=3e-3, value_lr=3e-3, gamma=0.0, adv_norm=False,
                          reward_norm=False)
    opt = PolicyOptimizer(policy, value, cfg)
    rng = np.random.default_rng(11)
    for _ in range(updates):
        batch = collect_bandit_batch(policy, 32, rng)
        opt.update(batch, quadratic_bandit_reward(0.0), rng)
    return float(np.exp(policy.clipped_log_std()[0]))


def test_entropy_bonus_strictly_widens_converged_policy():
    # On a quadratic bandit the converged std grows with the entropy weight.
    sigmas = [converged_sigma(lam) for lam in (0.0, 0.1, 1.0)]
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_clip_coeff_sign_invariant_to_advantage_scaling():
    rng = np.random.default_rng(8)
    ratio = np.exp(rng.normal(scale=0.5, size=200))
    adv = rng.normal(size=200)
    c1 = clipped_grad_coeff(ratio, adv, 0.2)
    c2 = clipped_grad_coeff(ratio, adv * 7.3, 0.2)
    assert np.array_equal(np.sign(c1), np.sign(c2))


def test_evaluate_policy_that_never_moves_has_zero_success():
    env = PointMazeEnv(PointMazeConfig(noise_std=0.0), SOURCE, seed=0)
    policy = GaussianPolicy(env.spec, hidden=(8,), seed=0, init_log_std=-5.0)
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
                          goal=(0.3, 0.1), goal_region=(0.2, 0.0, 0.4, 0.2))
    env = PointMazeEnv(cfg, SOURCE, seed=0)
    ret_opt, success = evaluate(StraightToGoal(cfg.goal, cfg.action_scale), env, n_episodes=5)
    assert success == 1.0

    random_policy = GaussianPolicy(env.spec, hidden=(8,), seed=3, init_log_std=2.0)
    ret_rand, _ = evaluate(random_policy, env, n_episodes=5)
    assert ret_opt >= ret_rand
