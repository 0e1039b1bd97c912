import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odirl.envs import (
    _WALL_EPS,
    SOURCE,
    TARGET,
    Batch,
    LinkChainConfig,
    LinkChainEnv,
    PointMazeConfig,
    PointMazeEnv,
    Trajectory,
    Transition,
    make_linkchain_pair,
    make_pointmaze_pair,
    rollout,
    rollouts,
    write_trajectory_csv,
)
from odirl.policy import GaussianPolicy
from oracles import pointmaze_step, reference_rollouts, stop_at_wall_every_row, with_log_std


def default_pair(seed=7):
    return make_pointmaze_pair(PointMazeConfig(), 0.5, 0.75, seed, seed)


class ScriptedPolicy:
    """Moves straight toward a fixed point; log-probs are placeholders."""

    def __init__(self, point, scale=0.08):
        self.point = np.asarray(point, dtype=np.float64)
        self.scale = scale

    def _act(self, state):
        delta = self.point - state
        norm = np.linalg.norm(delta)
        if norm > self.scale:
            delta = delta / norm * self.scale
        return delta

    def sample_action(self, states, rng):
        """Row-wise over (N, 2) states."""
        return np.array([self._act(s) for s in states]), np.zeros(len(states))

    def act_deterministic(self, states):
        return self.sample_action(states, None)[0]

    def log_prob(self, states, actions):
        return np.zeros(states.shape[0])


def test_reset_same_seed_gives_identical_initial_state_across_pair():
    src, tgt = default_pair(seed=7)
    assert np.array_equal(src.reset(), tgt.reset())


def test_reset_different_rng_states_differ():
    env = PointMazeEnv(PointMazeConfig(), SOURCE, seed=1)
    assert not np.array_equal(env.reset(), env.reset())


def test_linkchain_reset_within_init_ranges():
    cfg = LinkChainConfig()
    env = LinkChainEnv(cfg, SOURCE, seed=3)
    for _ in range(20):
        s = env.reset()
        n = cfg.num_joints
        assert np.all(np.abs(s[:n]) <= cfg.init_angle_range)
        assert np.all(np.abs(s[n:]) <= cfg.init_vel_range)


def test_pointmaze_action_through_wall_stops_at_wall_face():
    cfg = PointMazeConfig(noise_std=0.0)
    env = PointMazeEnv(cfg, SOURCE, seed=0)
    state = np.array([0.45, 0.8])  # left of the wall, inside its vertical extent
    nxt, _ = env.step(state, np.array([0.08, 0.0]))
    assert nxt[0] == pytest.approx(cfg.wall_x - cfg.wall_half_width, abs=1e-7)
    assert nxt[0] < cfg.wall_x - cfg.wall_half_width + 1e-12
    assert nxt[1] == pytest.approx(0.8)


def test_pointmaze_zero_action_zero_noise_is_fixed_point():
    env = PointMazeEnv(PointMazeConfig(noise_std=0.0), SOURCE, seed=0)
    state = np.array([0.3, 0.3])
    nxt, done = env.step(state, np.zeros(2))
    assert np.array_equal(nxt, state)
    assert not done


@pytest.mark.parametrize("noise_std", [0.01, 0.0])
def test_pointmaze_step_draws_one_noise_normal_per_call(noise_std):
    """One step over N rows advances the env's generator by exactly one (N, 2)
    normal, and a 1-D step by one (2,) normal, whatever noise_std is."""
    env = PointMazeEnv(PointMazeConfig(noise_std=noise_std), SOURCE, seed=0)
    env.rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    states = np.random.default_rng(12).uniform(0.05, 0.4, (5, 2))
    for rows in (states, states[0]):
        env.step(rows, np.full(rows.shape, 0.01))
        twin.standard_normal(rows.shape)
        assert env.rng.bit_generator.state == twin.bit_generator.state
    assert np.array_equal(env.step(states, np.zeros((5, 2)))[0],
                          states + noise_std * twin.standard_normal((5, 2)))


def test_pointmaze_step_rejects_nonfinite_state():
    env = PointMazeEnv(PointMazeConfig(), SOURCE, seed=0)
    with pytest.raises(ValueError):
        env.step(np.array([np.nan, 0.2]), np.zeros(2))


def test_pointmaze_no_state_ever_inside_wall():
    cfg = PointMazeConfig(noise_std=0.02, source_wall_length=0.25, target_wall_length=0.5)
    env = PointMazeEnv(cfg, TARGET, seed=5)
    xlo, ylo, xhi, yhi = cfg.wall_box(TARGET)
    rng = np.random.default_rng(4)
    state = env.reset()
    for _ in range(3000):
        action = rng.uniform(-0.08, 0.08, 2)
        state, _ = env.step(state, action)
        inside = xlo < state[0] < xhi and ylo < state[1] < yhi
        assert not inside
        assert np.all(state >= 0.0) and np.all(state <= 1.0)


def test_pointmaze_pair_identical_outside_extended_wall_region():
    # Same seeds => same rng streams; away from the wall the two domains
    # produce identical next states.
    src, tgt = default_pair(seed=12)
    rng = np.random.default_rng(0)
    for _ in range(200):
        state = rng.uniform([0.0, 0.0], [0.4, 0.6])  # well clear of the wall band
        action = rng.uniform(-0.05, 0.05, 2)
        s_next, _ = src.step(state, action)
        t_next, _ = tgt.step(state, action)
        assert np.array_equal(s_next, t_next)


def test_pointmaze_top_edge_is_not_a_corridor():
    # Sliding along the arena's top boundary must not cross the wall band.
    cfg = PointMazeConfig(noise_std=0.0)
    env = PointMazeEnv(cfg, SOURCE, seed=0)
    state = np.array([0.45, 1.0])
    nxt, _ = env.step(state, np.array([0.08, 0.05]))
    assert nxt[0] < cfg.wall_x - cfg.wall_half_width + 1e-9
    # same when the proposed point pokes above the arena mid-flight
    state = np.array([0.44, 0.98])
    nxt, _ = env.step(state, np.array([0.08, 0.08]))
    assert nxt[0] < cfg.wall_x - cfg.wall_half_width + 1e-9


def test_pointmaze_pair_differs_at_extended_wall():
    cfg = PointMazeConfig(noise_std=0.0)
    src, tgt = make_pointmaze_pair(cfg, 0.5, 0.75, 3, 3)
    state = np.array([0.45, 0.4])  # inside the target wall extension rows
    action = np.array([0.08, 0.0])
    s_next, _ = src.step(state, action)
    t_next, _ = tgt.step(state, action)
    assert s_next[0] > 0.52  # passes in the source
    assert t_next[0] < 0.48 + 1e-9  # blocked in the target


def test_ground_truth_reward_examples():
    env = PointMazeEnv(PointMazeConfig(goal=(0.0, 1.0), start_region=(0.0, 0.0, 0.1, 0.1)),
                       SOURCE, seed=0)
    assert env.ground_truth_reward(np.array([0.0, 1.0])) == 0.0
    assert env.ground_truth_reward(np.array([0.0, 0.0])) == pytest.approx(-1.0)
    # monotonic in distance
    closer = env.ground_truth_reward(np.array([0.0, 0.5]))
    farther = env.ground_truth_reward(np.array([0.3, 0.2]))
    assert closer > farther


def _tip_by_sums(angles):
    """The unit-length chain's tip: cumulative cos and sin sums over equal links."""
    cum = np.cumsum(angles, axis=-1)
    tip = np.stack([np.cos(cum).sum(axis=-1), np.sin(cum).sum(axis=-1)], axis=-1)
    return tip / angles.shape[-1]


def test_linkchain_reward_and_success_read_the_tip_by_forward_kinematics():
    cfg = LinkChainConfig()
    env = LinkChainEnv(cfg, TARGET, seed=0)
    goal = _tip_by_sums(np.array(cfg.goal_angles))
    assert np.allclose(env.spec.goal, goal, rtol=0, atol=1e-15)
    # zero angles stretch the chain along x: tip (1, 0), whatever the velocities
    assert np.allclose(_tip_by_sums(np.zeros(3)), [1.0, 0.0], rtol=0, atol=0)
    assert env.ground_truth_reward(np.r_[0.0, 0, 0, 1, 2, 3]) == pytest.approx(
        -np.hypot(1.0 - goal[0], -goal[1]), abs=1e-15)
    at_goal = np.r_[cfg.goal_angles, 0.5, -0.5, 2.0]
    assert env.ground_truth_reward(at_goal) == 0.0
    assert env.is_success(at_goal[None]).tolist() == [True]
    _, states = _states_near_the_goal("linkchain")
    dist = np.hypot(*(_tip_by_sums(states[:, :3]) - goal).T)
    assert np.allclose(env.ground_truth_reward(states), -dist, rtol=0, atol=1e-15)
    margin = np.abs(dist - cfg.success_radius) > 1e-12      # no row on the radius itself
    success = env.is_success(states)
    assert success[margin].any() and not success[margin].all()
    assert np.array_equal(success[margin], (dist <= cfg.success_radius)[margin])


def test_linkchain_masked_action_equals_zero_action():
    base = LinkChainConfig()
    _, tgt = make_linkchain_pair(base, (False, False, True), 1, 1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        state = rng.normal(scale=0.5, size=6)
        e_masked = np.array([0.0, 0.0, 1.0])
        n1, _ = tgt.step(state, e_masked)
        n2, _ = tgt.step(state, np.zeros(3))
        assert np.array_equal(n1, n2)
        # and in general a masked component never changes the outcome
        a = rng.uniform(-1, 1, 3)
        a_zeroed = a.copy()
        a_zeroed[2] = 0.0
        assert np.array_equal(tgt.step(state, a)[0], tgt.step(state, a_zeroed)[0])


def test_rollout_deterministic_policy_zero_noise_repeats_bit_identically():
    cfg = PointMazeConfig(noise_std=0.0, horizon=30)
    pol = ScriptedPolicy((0.9, 0.1))
    t1 = rollout(pol, PointMazeEnv(cfg, SOURCE, seed=9), np.random.default_rng(0))
    t2 = rollout(pol, PointMazeEnv(cfg, SOURCE, seed=9), np.random.default_rng(0))
    assert len(t1) == len(t2)
    for key in ("s", "a", "s_next", "done", "gt_reward", "ends"):
        assert np.array_equal(getattr(t1, key), getattr(t2, key)), key


def test_rollout_tags_transitions_and_stops_on_done():
    cfg = PointMazeConfig(noise_std=0.0)
    env = PointMazeEnv(cfg, TARGET, seed=0)
    # scripted run straight at the goal in a wall-free corridor (start y below wall)
    env2 = PointMazeEnv(
        PointMazeConfig(noise_std=0.0, start_region=(0.8, 0.1, 0.9, 0.2), goal=(0.9, 0.8)),
        TARGET, seed=0,
    )
    traj = rollout(ScriptedPolicy((0.9, 0.8)), env2, np.random.default_rng(0))
    assert traj.domain_tag == TARGET
    assert traj.done[-1] and not traj.done[:-1].any()
    assert np.flatnonzero(traj.ends).tolist() == [len(traj) - 1]
    assert len(traj) < 80


def test_rollouts_lay_episodes_back_to_back_as_one_episode_at_a_time_would():
    cfg = PointMazeConfig(noise_std=0.0, start_region=(0.6, 0.05, 0.9, 0.3), goal=(0.9, 0.8),
                          horizon=12)
    env = PointMazeEnv(cfg, TARGET, seed=4)
    policy = ScriptedPolicy(cfg.goal)
    batch = rollouts(policy, env, 6, np.random.default_rng(0))
    starts = PointMazeEnv(cfg, TARGET, seed=4).reset(6)
    stops = np.flatnonzero(batch.ends) + 1
    assert batch.domain_tag == TARGET and stops[-1] == len(batch) and len(stops) == 6
    assert len(set(np.diff(stops, prepend=0).tolist())) > 1       # episodes of different lengths
    assert len(batch.log_prob) == len(batch)
    for start, lo, hi in zip(starts, [0, *stops[:-1]], stops):
        state, rows = start, []
        for _ in range(12):                  # the same episode, one 1-D step at a time
            action = policy.act_deterministic(state[None])[0]
            nxt, done = env.step(state, action)
            rows.append((state, action, nxt, done, env.ground_truth_reward(nxt)))
            state = nxt
            if done:
                break
        s, a, sn, d, r = (np.array(col) for col in zip(*rows))
        assert np.array_equal(batch.s[lo:hi], s) and np.array_equal(batch.a[lo:hi], a)
        assert np.array_equal(batch.s_next[lo:hi], sn) and np.array_equal(batch.done[lo:hi], d)
        assert np.array_equal(batch.gt_reward[lo:hi], r)
        assert batch.episode_returns()[len([x for x in stops if x <= lo])] == sum(r.tolist())


def test_batch_of_packs_rows_or_episodes_of_one_domain():
    def row(i, tag=SOURCE):
        return Transition(np.array([i, 0.0]), np.array([0.1, i]), np.array([i + 1.0, 0.0]),
                          i == 2, tag, -float(i))

    batch = Batch.of([Trajectory([row(0), row(1)]), Trajectory([]), Trajectory([row(2)])])
    assert batch.domain_tag == SOURCE and len(batch) == 3
    assert batch.s[:, 0].tolist() == [0, 1, 2] and batch.a[:, 1].tolist() == [0, 1, 2]
    assert batch.ends.tolist() == [False, True, True]
    assert batch.done.tolist() == [False, False, True]
    assert batch.episode_returns() == [-1.0, -2.0]
    assert Batch.of([row(0), row(1)]).ends.tolist() == [False, True]
    assert Batch.of(batch) is batch
    with pytest.raises(ValueError, match="mixes domain tags"):
        Batch.of([row(0), row(1, TARGET)])
    with pytest.raises(ValueError, match="no rows"):
        Batch.of([])
    with pytest.raises(ValueError, match="mix domain tags"):
        Batch.concat([batch, Batch.of([row(0, TARGET)])])
    both = Batch.concat([batch, batch])
    assert both.ends.tolist() == [False, True, True] * 2 and both.log_prob is None


def test_trajectory_csv_header_and_rows(tmp_path):
    env = PointMazeEnv(PointMazeConfig(horizon=5), SOURCE, seed=0)
    traj = rollout(ScriptedPolicy((0.9, 0.8)), env, np.random.default_rng(0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s_0,s_1,a_0,a_1,s_next_0,s_next_1,done,domain_tag"
    assert len(lines) == len(traj) + 1
    assert lines[1].endswith(SOURCE)


def _grazing_and_corner_cases(cfg, wall):
    """(states, actions) along the wall faces, past its corners, along its bottom
    edge and into the arena corners, where the segment-wall clip is tightest."""
    xlo, ylo, xhi, yhi = wall
    a = cfg.action_scale
    cases = [
        # along the left and right faces, exactly on them and a hair outside
        ((xlo, 0.8), (0.0, a)), ((xlo - 1e-12, 0.6), (0.0, -a)), ((xhi, 0.9), (0.0, -a)),
        ((xhi + 1e-9, 0.5), (0.0, a)),
        # ending exactly on a face, and just short of it
        ((xlo - 0.05, 0.8), (0.05, 0.0)), ((xlo - 0.05, 0.8), (0.05 - 1e-12, 0.0)),
        ((xhi + 0.05, 0.8), (-0.05, 0.0)),
        # diagonals clipping the bottom corners, through and just past them
        ((xlo - 0.04, ylo - 0.04), (0.04, 0.04)), ((xlo - 0.04, ylo - 0.04), (0.08, 0.04)),
        ((xhi + 0.04, ylo - 0.04), (-0.04, 0.04)), ((xhi + 0.04, ylo - 0.05), (-0.04, 0.04)),
        # along the bottom edge, on it and a hair below, and straight up into it
        ((xlo - 0.05, ylo), (0.08, 0.0)), ((xhi + 0.05, ylo - 1e-12), (-0.08, 0.0)),
        ((0.5 * (xlo + xhi), ylo - 0.03), (0.0, a)), ((xlo, ylo - 0.03), (0.0, a)),
        # the top edge next to the wall, pushed out of the arena
        ((xlo - 0.01, 1.0), (a, a)), ((xhi + 0.01, 1.0), (-a, a)),
        # arena corners pushed outward, and a still point on a face
        ((0.0, 0.0), (-a, -a)), ((1.0, 1.0), (a, a)), ((0.0, 1.0), (-a, a)),
        ((1.0, 0.0), (a, -a)), ((xlo, 0.7), (0.0, 0.0)),
    ]
    states, actions = zip(*cases)
    return np.array(states, dtype=np.float64), np.array(actions, dtype=np.float64)


@pytest.mark.parametrize("wall_length", [0.5, 0.75])
def test_pointmaze_batched_step_matches_scalar_oracle(wall_length):
    cfg = PointMazeConfig(noise_std=0.0, source_wall_length=0.25, target_wall_length=wall_length)
    env = PointMazeEnv(cfg, TARGET, seed=0)
    wall = cfg.wall_box(TARGET)
    rng = np.random.default_rng(11)
    grazing, grazing_actions = _grazing_and_corner_cases(cfg, wall)
    states = np.concatenate([rng.uniform(0.0, 1.0, (400, 2)), grazing])
    actions = np.concatenate([rng.uniform(-0.1, 0.1, (400, 2)), grazing_actions])
    nxt, done = env.step(states, actions)
    assert nxt.shape == states.shape and done.shape == (len(states),)
    for i, (s, a) in enumerate(zip(states, actions)):
        ref, ref_done = pointmaze_step(cfg, wall, s, a)
        assert done[i] == ref_done, i
        assert np.max(np.abs(nxt[i] - ref)) <= 1e-12, (i, s, a, nxt[i], ref)
        one, one_done = env.step(s, a)
        assert np.array_equal(one, nxt[i]) and one_done == done[i]


def test_linkchain_batched_step_equals_row_by_row():
    _, env = make_linkchain_pair(LinkChainConfig(), (False, True, False), 0, 0)
    rng = np.random.default_rng(5)
    states = rng.normal(scale=2.0, size=(50, 6))
    actions = rng.uniform(-1.5, 1.5, size=(50, 3))
    nxt, done = env.step(states, actions)
    assert not done.any() and done.shape == (50,)
    rows = np.array([env.step(s, a)[0] for s, a in zip(states, actions)])
    assert np.array_equal(nxt, rows)
    rewards = env.ground_truth_reward(nxt)
    assert np.array_equal(rewards, [env.ground_truth_reward(s) for s in nxt])
    assert np.array_equal(env.is_success(nxt), [env.is_success(s[None])[0] for s in nxt])


def _states_near_the_goal(task):
    """An env of task and 50 states around its goal, some within its success radius."""
    rng = np.random.default_rng(2)
    if task == "pointmaze":
        return PointMazeEnv(PointMazeConfig(), TARGET, seed=0), rng.uniform(0.6, 1.0, (50, 2))
    angles = np.add(LinkChainConfig().goal_angles, rng.normal(0.0, 0.3, (50, 3)))
    return (LinkChainEnv(LinkChainConfig(), TARGET, seed=0),
            np.concatenate([angles, rng.normal(size=(50, 3))], axis=1))


@pytest.mark.parametrize("task", ["pointmaze", "linkchain"])
def test_batched_reward_and_success_equal_row_by_row(task):
    env, states = _states_near_the_goal(task)
    assert np.array_equal(env.ground_truth_reward(states),
                          [env.ground_truth_reward(s) for s in states])
    success = env.is_success(states)
    assert success.any() and not success.all()
    assert np.array_equal(success, [env.is_success(s[None])[0] for s in states])


def test_batched_reset_draws_what_one_dimensional_resets_draw():
    for make in (lambda seed: PointMazeEnv(PointMazeConfig(), SOURCE, seed),
                 lambda seed: LinkChainEnv(LinkChainConfig(), SOURCE, seed)):
        assert np.array_equal(make(4).reset(1)[0], make(4).reset())
        assert make(4).reset(3).shape == (3, make(4).spec.state_dim)


# A maze whose wall edges and action bound are binary fractions: segments built
# on a 1/1024 grid then start and end exactly on a wall edge.
_DYADIC_MAZE = PointMazeConfig(noise_std=0.0, wall_x=0.5, wall_half_width=0.03125,
                               action_scale=0.0625)


def _coordinate(edges):
    """Anywhere in the arena, on the 1/1024 grid, on a wall edge, or within a few _WALL_EPS of one."""
    return st.one_of(
        st.floats(0.0, 1.0),
        st.integers(0, 1024).map(lambda k: k / 1024),
        st.sampled_from(edges),
        st.tuples(st.sampled_from(edges), st.floats(-3 * _WALL_EPS, 3 * _WALL_EPS)).map(sum),
    )


def _action_coordinate(scale):
    """Any in-bound move, none (a still coordinate), or a 1/1024-grid move."""
    return st.one_of(st.floats(-scale, scale), st.just(0.0),
                     st.integers(-64, 64).map(lambda k: k / 1024))


@st.composite
def _segments(draw, wall, scale):
    """(states, actions) of 1 to 8 rows. Each row starts at a drawn point, or
    aims at one (it then ends on, or within a few _WALL_EPS of, a wall edge
    when that point is one), so a batch mixes rows near and far from the wall."""
    xs, ys = (wall[0], wall[2], 0.0, 1.0), (wall[1], wall[3], 0.0)
    states, actions = [], []
    for _ in range(draw(st.integers(1, 8))):
        point = np.array([draw(_coordinate(xs)), draw(_coordinate(ys))])
        action = np.array([draw(_action_coordinate(scale)), draw(_action_coordinate(scale))])
        if draw(st.booleans()):
            point = np.minimum(np.maximum(point - action, 0.0), 1.0)
        states.append(point)
        actions.append(action)
    return np.array(states), np.array(actions)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pointmaze_step_equals_the_every_row_slab_test_bit_for_bit(data):
    cfg = data.draw(st.sampled_from([PointMazeConfig(noise_std=0.0), _DYADIC_MAZE]))
    tag = data.draw(st.sampled_from([SOURCE, TARGET]))
    env, wall = PointMazeEnv(cfg, tag, seed=0), cfg.wall_box(tag)
    states, actions = data.draw(_segments(wall, cfg.action_scale))
    move = np.minimum(np.maximum(actions, env.spec.action_low), env.spec.action_high)
    ends = np.minimum(np.maximum(states + move, 0.0), 1.0)
    ref = stop_at_wall_every_row(wall, states, ends)
    nxt, done = env.step(states, actions)
    assert nxt.tobytes() == ref.tobytes()
    assert np.array_equal(done, np.hypot(*(ref - cfg.goal).T) <= cfg.goal_radius)
    for i in range(len(states)):
        assert env.step(states[i], actions[i])[0].tobytes() == ref[i].tobytes()


def _gt_rollout_envs():
    return (PointMazeEnv(PointMazeConfig(), TARGET, seed=1),
            LinkChainEnv(LinkChainConfig(), TARGET, seed=1),
            LinkChainEnv(LinkChainConfig(), SOURCE, seed=1))


@pytest.mark.parametrize("deterministic", [False, True])
def test_rollout_gt_reward_is_the_env_reward_of_every_landed_state(deterministic):
    for env in _gt_rollout_envs():
        policy = with_log_std(GaussianPolicy(env.spec, hidden=(8,), seed=2), 0.0)
        policy.mean_net.params[...] = np.random.default_rng(3).normal(0.0, 0.5,
                                                                      policy.mean_net.params.shape)
        batch = rollouts(policy, env, 5, np.random.default_rng(4), deterministic)
        assert np.array_equal(batch.gt_reward, env.ground_truth_reward(batch.s_next))
        assert np.array_equal(batch.gt_reward, [env.ground_truth_reward(s) for s in batch.s_next])



class GoalSeeker:
    """Steps each row of (N, 2) states toward a point; a stochastic action adds noise
    from the rng and reports a placeholder log-probability of it."""

    def __init__(self, point, scale=0.08):
        self.point = np.asarray(point, dtype=np.float64)
        self.scale = scale

    def act_deterministic(self, states):
        delta = self.point - states
        norm = np.linalg.norm(delta, axis=1, keepdims=True)
        return delta * np.minimum(1.0, self.scale / np.maximum(norm, 1e-12))

    def sample_action(self, states, rng):
        noise = rng.normal(0.0, 0.02, states.shape)
        return self.act_deterministic(states) + noise, -0.5 * (noise * noise).sum(axis=1)


class EndingLinkChain(LinkChainEnv):
    """A link chain whose episodes end once the first joint turns past 0.3 rad."""

    def step(self, states, actions):
        nxt, _ = super().step(states, actions)
        return nxt, np.abs(nxt[:, 0]) > 0.3


def _random_chain_policy(env):
    policy = with_log_std(GaussianPolicy(env.spec, hidden=(8,), seed=2), 0.0)
    policy.mean_net.params[...] = np.random.default_rng(3).normal(0.0, 0.5,
                                                                  policy.mean_net.params.shape)
    return policy


_MAZE_TO_GOAL = PointMazeConfig(start_region=(0.6, 0.05, 0.9, 0.3), goal=(0.9, 0.8), horizon=8)
# name -> (env factory, policy factory, whether every episode runs the env's horizon)
_ROLLOUT_CASES = {
    "pointmaze-goal": (lambda: PointMazeEnv(_MAZE_TO_GOAL, TARGET, seed=4),
                       lambda env: GoalSeeker(_MAZE_TO_GOAL.goal), False),
    "linkchain-ending": (lambda: EndingLinkChain(LinkChainConfig(horizon=12), TARGET, seed=1),
                         _random_chain_policy, False),
    "linkchain": (lambda: LinkChainEnv(LinkChainConfig(horizon=12), SOURCE, seed=1),
                  _random_chain_policy, True),
}


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", list(_ROLLOUT_CASES))
def test_rollouts_equal_the_episode_indexed_reference_bit_for_bit(case, deterministic):
    make_env, make_policy, runs_full = _ROLLOUT_CASES[case]
    env = make_env()
    policy, horizon = make_policy(env), env.spec.horizon
    batch = rollouts(policy, env, 6, np.random.default_rng(0), deterministic)
    ref = reference_rollouts(policy, make_env(), 6, horizon, np.random.default_rng(0),
                             deterministic)
    lengths = np.diff(np.flatnonzero(batch.ends) + 1, prepend=0)
    if runs_full:
        assert lengths.tolist() == [horizon] * 6
    else:                                   # episodes of the wave end at different steps
        assert len(set(lengths.tolist())) > 1 and lengths.min() < horizon
    for field in dataclasses.fields(Batch):
        got, want = getattr(batch, field.name), getattr(ref, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name
