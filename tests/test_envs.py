import numpy as np
import pytest

from odirl.envs import (
    SOURCE,
    TARGET,
    LinkChainConfig,
    LinkChainEnv,
    PointMazeConfig,
    PointMazeEnv,
    make_linkchain_pair,
    make_pointmaze_pair,
    rollout,
    trajectory_header,
    write_trajectory_csv,
)
from oracles import pointmaze_step


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
    env = PointMazeEnv(PointMazeConfig(goal=(0.0, 1.0), goal_region=(0.0, 0.9, 0.2, 1.0),
                                       start_region=(0.0, 0.0, 0.1, 0.1)), SOURCE, seed=0)
    assert env.ground_truth_reward(np.array([0.0, 1.0])) == 0.0
    assert env.ground_truth_reward(np.array([0.0, 0.0])) == pytest.approx(-1.0)
    # monotonic in distance
    closer = env.ground_truth_reward(np.array([0.0, 0.5]))
    farther = env.ground_truth_reward(np.array([0.3, 0.2]))
    assert closer > farther


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


def test_linkchain_source_mask_must_be_all_false_target_some_true():
    with pytest.raises(ValueError):
        make_linkchain_pair(LinkChainConfig(), (False, False, False), 0, 0)


def test_rollout_horizon_zero_is_empty():
    env = PointMazeEnv(PointMazeConfig(), SOURCE, seed=0)
    traj = rollout(ScriptedPolicy((0.9, 0.8)), env, horizon=0)
    assert len(traj) == 0


def test_rollout_deterministic_policy_zero_noise_repeats_bit_identically():
    cfg = PointMazeConfig(noise_std=0.0)
    pol = ScriptedPolicy((0.9, 0.1))
    t1 = rollout(pol, PointMazeEnv(cfg, SOURCE, seed=9), horizon=30)
    t2 = rollout(pol, PointMazeEnv(cfg, SOURCE, seed=9), horizon=30)
    assert len(t1) == len(t2)
    for a, b in zip(t1.transitions, t2.transitions):
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.s_next, b.s_next)
        assert a.done == b.done


def test_rollout_tags_transitions_and_stops_on_done():
    cfg = PointMazeConfig(noise_std=0.0)
    env = PointMazeEnv(cfg, TARGET, seed=0)
    # scripted run straight at the goal in a wall-free corridor (start y below wall)
    env2 = PointMazeEnv(
        PointMazeConfig(noise_std=0.0, start_region=(0.8, 0.1, 0.9, 0.2), goal=(0.9, 0.8),
                        goal_region=(0.75, 0.65, 1.0, 0.95)),
        TARGET, seed=0,
    )
    traj = rollout(ScriptedPolicy((0.9, 0.8)), env2, horizon=80)
    assert all(t.domain_tag == TARGET for t in traj.transitions)
    assert traj.transitions[-1].done
    assert len(traj) < 80


def test_trajectory_csv_header_and_rows(tmp_path):
    env = PointMazeEnv(PointMazeConfig(), SOURCE, seed=0)
    traj = rollout(ScriptedPolicy((0.9, 0.8)), env, horizon=5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(trajectory_header(2, 2))
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
    for gt_variant in ("distance", "forward_velocity"):
        _, env = make_linkchain_pair(LinkChainConfig(gt_variant=gt_variant), (False, True, False), 0, 0)
        rng = np.random.default_rng(5)
        states = rng.normal(scale=2.0, size=(50, 6))
        actions = rng.uniform(-1.5, 1.5, size=(50, 3))
        nxt, done = env.step(states, actions)
        assert not done.any() and done.shape == (50,)
        rows = np.array([env.step(s, a)[0] for s, a in zip(states, actions)])
        assert np.array_equal(nxt, rows)
        rewards = env.ground_truth_reward(nxt)
        assert np.array_equal(rewards, [env.ground_truth_reward(s) for s in nxt])
        assert np.array_equal(env.is_success(nxt), [env.is_success(s) for s in nxt])


def test_pointmaze_batched_reward_and_success_equal_row_by_row():
    env = PointMazeEnv(PointMazeConfig(), TARGET, seed=0)
    states = np.random.default_rng(2).uniform(0.6, 1.0, (50, 2))
    assert np.array_equal(env.ground_truth_reward(states),
                          [env.ground_truth_reward(s) for s in states])
    success = env.is_success(states)
    assert success.any() and not success.all()
    assert np.array_equal(success, [env.is_success(s) for s in states])


def test_batched_reset_draws_what_one_dimensional_resets_draw():
    for make in (lambda seed: PointMazeEnv(PointMazeConfig(), SOURCE, seed),
                 lambda seed: LinkChainEnv(LinkChainConfig(), SOURCE, seed)):
        assert np.array_equal(make(4).reset(1)[0], make(4).reset())
        assert make(4).reset(3).shape == (3, make(4).spec.state_dim)
