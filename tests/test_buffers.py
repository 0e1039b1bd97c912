import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from odirl.buffers import DemoSet, ReplayBuffer, load_demos, save_demos
from odirl.envs import (SOURCE, TARGET, Batch, EnvSpec, PointMazeConfig, PointMazeEnv, Trajectory,
                        Transition, rollouts, write_trajectory_csv)
from odirl.irl import Discriminator, reward_heatmap
from odirl.policy import GaussianPolicy
from oracles import (DequeReplayBuffer, reference_heatmap_csv, reference_save_demos,
                     reference_write_trajectory_csv)


def make_traj(n, tag=SOURCE, offset=0.0):
    ts = [
        Transition(
            s=np.array([0.1 + offset + i, 0.2]),
            a=np.array([0.01, -0.02]),
            s_next=np.array([0.1 + offset + i + 0.01, 0.18]),
            done=(i == n - 1),
            domain_tag=tag,
            gt_reward=-float(i) / 3.0,
        )
        for i in range(n)
    ]
    return Trajectory(transitions=ts)


def make_batch(n, tag=SOURCE, offset=0.0):
    return Batch.of([make_traj(n, tag, offset)])


def held_first_coords(buf, rng_seed=0, draws=2000):
    """The distinct s[0] values a buffer holds, seen through its sampler."""
    return set(buf.sample(draws, np.random.default_rng(rng_seed)).s[:, 0].tolist())


def test_push_fifo_eviction():
    buf = ReplayBuffer(capacity=5, domain_tag=SOURCE)
    buf.push(make_batch(10))
    assert len(buf) == 5
    assert held_first_coords(buf) == {0.1 + i for i in range(5, 10)}


def test_push_empty_trajectory_is_noop():
    buf = ReplayBuffer(capacity=5, domain_tag=SOURCE)
    env = PointMazeEnv(PointMazeConfig(), SOURCE, seed=0)
    buf.push(rollouts(GaussianPolicy(env.spec, hidden=(4,)), env, 3, 0))
    assert len(buf) == 0


def test_push_wrong_tag_raises():
    buf = ReplayBuffer(capacity=5, domain_tag=TARGET)
    with pytest.raises(ValueError):
        buf.push(make_batch(3, tag=SOURCE))


def test_wrong_tag_push_raises_before_writing_a_row():
    buf = ReplayBuffer(capacity=4, domain_tag=TARGET)
    buf.push(make_batch(6, tag=TARGET))
    before = buf.sample(50, np.random.default_rng(1))
    with pytest.raises(ValueError, match="domain contamination"):
        buf.push(make_batch(3, tag=SOURCE, offset=100.0))
    assert len(buf) == 4
    after = buf.sample(50, np.random.default_rng(1))
    for key in ("s", "a", "s_next"):
        assert np.array_equal(getattr(before, key), getattr(after, key))


@pytest.mark.parametrize("capacity", [1, 7, 64, 1000])
def test_ring_samples_the_rows_a_deque_of_rows_samples(capacity):
    """Episodes pushed far past capacity (some longer than the ring): each
    sample draws the same indices into the same oldest-first rows."""
    ring, ref = ReplayBuffer(capacity, SOURCE), DequeReplayBuffer(capacity)
    lengths = np.random.default_rng(0).integers(1, 90, size=40)
    for k, n in enumerate(lengths):
        batch = make_batch(int(n), offset=1000.0 * k)
        ring.push(batch)
        ref.push(batch)
        assert len(ring) == len(ref.rows)
        rng_ring, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
        got, want = ring.sample(33, rng_ring), ref.sample(33, rng_ref)
        assert got.domain_tag == SOURCE and len(got) == 33
        for j, key in enumerate(("s", "a", "s_next")):
            assert np.array_equal(getattr(got, key), np.array([row[j] for row in want]))
        assert rng_ring.random() == rng_ref.random()      # the same draws were made
    assert len(ring) == min(capacity, int(lengths.sum()))


def test_ring_holds_at_most_100_bytes_per_point_maze_row():
    """At full capacity, whatever the ring allocated (and kept) is counted."""
    capacity = 10_000
    env = PointMazeEnv(PointMazeConfig(), TARGET, seed=0)
    policy = GaussianPolicy(env.spec, hidden=(8,), seed=0, init_log_std=0.0)
    batches = [rollouts(policy, env, 8, env.spec.horizon, np.random.default_rng(i)) for i in range(3)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        buf = ReplayBuffer(capacity, TARGET)
        pushed = 0
        while pushed < capacity:
            batch = batches[pushed % 3]
            buf.push(batch)
            pushed += len(batch)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(buf) == capacity
    assert held / capacity <= 100


def test_sample_n_zero_gives_empty_batch():
    buf = ReplayBuffer(capacity=5, domain_tag=SOURCE)
    buf.push(make_batch(3))
    rng = np.random.default_rng(0)
    batch = buf.sample(0, rng)
    assert len(batch) == 0 and batch.s.shape == (0, 2) and batch.a.shape == (0, 2)
    assert rng.random() == np.random.default_rng(0).random()    # no draw was made


def test_sample_single_item_repeats():
    buf = ReplayBuffer(capacity=5, domain_tag=SOURCE)
    buf.push(make_batch(1))
    batch = buf.sample(4, np.random.default_rng(0))
    assert len(batch) == 4
    assert np.all(batch.s == batch.s[0]) and np.all(batch.s_next == batch.s_next[0])


def test_sample_empty_buffer_raises():
    buf = ReplayBuffer(capacity=5, domain_tag=SOURCE)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))


def test_sample_reproducible_given_seed():
    buf = ReplayBuffer(capacity=100, domain_tag=SOURCE)
    buf.push(make_batch(50))
    b1 = buf.sample(20, np.random.default_rng(33))
    b2 = buf.sample(20, np.random.default_rng(33))
    assert np.array_equal(b1.s, b2.s) and np.array_equal(b1.s_next, b2.s_next)


def test_sample_uniformity_chi_square():
    buf = ReplayBuffer(capacity=10, domain_tag=SOURCE)
    buf.push(make_batch(10))
    rng = np.random.default_rng(123)
    draws = buf.sample(100_000, rng)
    counts = np.bincount(np.rint(draws.s[:, 0] - 0.1).astype(int), minlength=10)
    p = stats.chisquare(counts).pvalue
    assert p > 0.01


def test_demo_set_requires_source_tag():
    with pytest.raises(ValueError):
        DemoSet(trajectories=[make_traj(3, tag=TARGET)])


def test_demo_roundtrip_is_value_exact(tmp_path):
    rng = np.random.default_rng(0)
    trajs = []
    for ep in range(3):
        ts = [
            Transition(
                s=rng.normal(size=2),
                a=rng.normal(size=2) * 1e-7,
                s_next=rng.normal(size=2),
                done=bool(rng.integers(0, 2)),
                domain_tag=SOURCE,
                gt_reward=float(rng.normal() * 1e3),
            )
            for _ in range(4)
        ]
        trajs.append(Trajectory(transitions=ts))
    demos = DemoSet(trajectories=trajs, env_config_hash="abc123", expert_seed=9, horizon=4)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    loaded = load_demos(path)
    lf_only = tmp_path / "demos_lf.csv"           # the same file with LF line ends
    lf_only.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    assert b"\r\n" in path.read_bytes() and lf_only.stat().st_size < path.stat().st_size
    for key in ("s", "a", "s_next", "done", "gt_reward", "ends"):
        assert np.array_equal(getattr(load_demos(lf_only).batch, key), getattr(loaded.batch, key))
    assert loaded.env_config_hash == "abc123"
    assert loaded.expert_seed == 9
    assert loaded.batch.domain_tag == demos.batch.domain_tag == SOURCE
    for key in ("s", "a", "s_next", "done", "gt_reward", "ends"):
        assert np.array_equal(getattr(demos.batch, key), getattr(loaded.batch, key)), key
    assert int(loaded.batch.ends.sum()) == 3


def _extreme_value_batch():
    """Two source episodes whose s, a and s_next hold -0.0, 5e-324, 1e308 and
    -1e-300 among random values, and whose gt_reward holds nan and +-inf."""
    rng = np.random.default_rng(4)
    s, a, sn = (rng.normal(size=(7, 2)) * 10.0 ** rng.integers(-30, 30, size=(7, 2))
                for _ in range(3))
    s[0], a[1], sn[2], s[3, 1], a[4, 0], sn[5, 1] = (-0.0, 5e-324), (1e308, -1e-300), \
        (-1e-300, -0.0), 1e308, 5e-324, -0.0
    gt = rng.normal(size=7)
    gt[[1, 3, 6]] = np.nan, np.inf, -np.inf
    ends = np.array([0, 0, 1, 0, 0, 0, 1], dtype=bool)
    return Batch(s, a, sn, SOURCE, done=ends.copy(), gt_reward=gt, ends=ends)


@pytest.mark.parametrize("writer", ["write_trajectory_csv", "save_demos", "reward_heatmap"])
def test_writers_match_the_csv_writer_references_byte_for_byte(tmp_path, writer):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    batch = _extreme_value_batch()
    if writer == "write_trajectory_csv":
        write_trajectory_csv(got, batch)
        reference_write_trajectory_csv(want, batch)
    elif writer == "save_demos":
        demos = DemoSet(batch, env_config_hash="h", expert_seed=2, horizon=4)
        save_demos(demos, got)
        reference_save_demos(demos, want)
        loaded = load_demos(got).batch
        for key in ("s", "a", "s_next", "gt_reward"):
            assert np.array_equal(getattr(loaded, key).view(np.int64),
                                  getattr(batch, key).view(np.int64)), key
        for key in ("done", "ends"):
            assert np.array_equal(getattr(loaded, key), getattr(batch, key)), key
    else:
        disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16, 16))
        disc.g_net.params[:] = np.random.default_rng(5).normal(size=disc.g_net.params.size)
        # g in chunks against one whole-grid forward: 2,500 rows, and 16,641 (one past a chunk)
        for grid_n in (129, 50):
            centers, _, values = reward_heatmap(disc, grid_n=grid_n, path=got)
            pts = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1).reshape(-1, 2)
            whole = disc.g_net.forward(pts)[:, 0].reshape(grid_n, grid_n)
            assert np.array_equal(values.view(np.int64), whole.view(np.int64)), grid_n
        reference_heatmap_csv(want, centers, values)
    assert got.read_bytes() == want.read_bytes()


def test_load_demos_reports_row_number_on_bad_column_count(tmp_path):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="x", expert_seed=0, horizon=3)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3] + ",0.5"  # corrupt the second data row (file line 4)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4"):
        load_demos(path)


@pytest.mark.parametrize("column,value,message", [
    ("s_0", "nan", "s_0 must be finite, not nan"), ("a_1", "inf", "a_1 must be finite, not inf"),
    ("s_next_1", "-inf", "s_next_1 must be finite, not -inf"),
    ("done", "2", "done must be 0 or 1, not 2"), ("done", "-1", "done must be 0 or 1, not -1"),
    ("s_0", "x", "unparseable value: could not convert string to float: 'x'"),
    ("episode", "1.5", "unparseable value: invalid literal for int\\(\\) with base 10: '1.5'"),
    ("s_1", '"0.5"', "quoted cell \\(demo files hold none\\)"),
    (None, "", "expected 10 columns, got 0"),      # column None: the value replaces the line
])
def test_load_demos_names_the_line_of_a_non_finite_value_or_a_bad_done(tmp_path, column, value,
                                                                       message):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="x", expert_seed=0, horizon=3)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")                         # the second data row (file line 4)
    if column is None:
        lines[3] = value
    else:
        cells[lines[1].split(",").index(column)] = value
        lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"demos.csv: line 4: {message}$"):
        load_demos(path)


@pytest.mark.parametrize("rows,message", [
    ("header only", "demo set must be nonempty"),
    ("target rows", "demo transitions must be source-tagged"),
])
def test_load_demos_names_the_file_without_source_rows(tmp_path, rows, message):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="x", expert_seed=0, horizon=3)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    lines = path.read_text().splitlines()
    lines = lines[:2] if rows == "header only" else [x.replace(",source,", ",target,") for x in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"demos.csv: {message}"):
        load_demos(path)


def test_load_demos_dim_mismatch_raises(tmp_path):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="x", expert_seed=0, horizon=3)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    spec = EnvSpec(state_dim=6, action_dim=3, action_low=-np.ones(3), action_high=np.ones(3), horizon=10)
    with pytest.raises(ValueError, match="do not match"):
        load_demos(path, expected_spec=spec)


def test_load_demos_hash_mismatch_warns_but_loads(tmp_path, caplog):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="old", expert_seed=0, horizon=3)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    with caplog.at_level("WARNING"):
        loaded = load_demos(path, expected_config_hash="new")
    assert len(loaded) == 3
    assert any("config hash" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("meta,key", [
    ('{"action_dim": 2}', "state_dim"), ('{"state_dim": 2}', "action_dim"),
    ('{"state_dim": "two", "action_dim": 2}', "state_dim"), ("5", "state_dim"),
])
def test_load_demos_names_a_dimension_the_metadata_lacks(tmp_path, meta, key):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="x", expert_seed=0, horizon=3)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    path.write_text("# " + meta + "\n" + path.read_text().split("\n", 1)[1])
    with pytest.raises(ValueError, match=f"demos.csv: line 1: .*'{key}'"):
        load_demos(path)


@pytest.mark.parametrize("header,message", [
    # a column renamed, the s/a order swapped, the reward column dropped, a column added
    ("episode,s_0,s_1,a_0,a_1,s_next_0,s_next_1,done,domain_tag,reward",
     "column 10 is 'reward', expected 'gt_reward'"),
    ("episode,a_0,a_1,s_0,s_1,s_next_0,s_next_1,done,domain_tag,gt_reward",
     "column 2 is 'a_0', expected 's_0'"),
    ("episode,s_0,s_1,a_0,a_1,s_next_0,s_next_1,done,domain_tag",
     "column 10 is None, expected 'gt_reward'"),
    ("episode,s_0,s_1,a_0,a_1,s_next_0,s_next_1,done,domain_tag,gt_reward,extra",
     "column 11 is 'extra', expected None"),
])
def test_load_demos_names_the_first_header_column_that_differs(tmp_path, header, message):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="x", expert_seed=0, horizon=3)
    path = tmp_path / "demos.csv"
    save_demos(demos, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "episode,s_0,s_1,a_0,a_1,s_next_0,s_next_1,done,domain_tag,gt_reward"
    lines[1] = header
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 2: bad header: {re.escape(message)}"):
        load_demos(path)
