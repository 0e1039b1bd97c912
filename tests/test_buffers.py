import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from odirl.buffers import DemoSet, ReplayBuffer, load_demos, save_demos
from odirl.envs import (SOURCE, TARGET, Batch, EnvSpec, LinkChainConfig, LinkChainEnv,
                        PointMazeConfig, PointMazeEnv, Trajectory, Transition, rollouts,
                        write_trajectory_csv)
from odirl.irl import Discriminator, reward_heatmap
from odirl.policy import GaussianPolicy
from odirl.nets import load_params, save_arrays, save_blocks
from oracles import (RowListReplayBuffer, reference_heatmap_csv, reference_write_trajectory_csv,
                     with_log_std)


def make_traj(n, tag=SOURCE, offset=0.0):
    """An episode of n rows whose first coordinate counts the rows; each row's
    s_next is the next row's s, the last row's the episode's own final state."""
    states = [np.array([0.1 + offset + i, 0.2 - 0.02 * i]) for i in range(n + 1)]
    ts = [
        Transition(
            s=states[i],
            a=np.array([0.01, -0.02]),
            s_next=states[i + 1],
            done=(i == n - 1),
            domain_tag=tag,
            gt_reward=-float(i) / 3.0,
        )
        for i in range(n)
    ]
    return Trajectory(transitions=ts)


def make_batch(n, tag=SOURCE, offset=0.0):
    return Batch.of([make_traj(n, tag, offset)])


MAZE_SPEC = PointMazeEnv(PointMazeConfig(), SOURCE, seed=0).spec     # 2-d states and actions


def load_maze_demos(path, config_hash="x"):
    """load_demos for an env of make_traj's dims, under _saved_demos' env config hash."""
    return load_demos(path, MAZE_SPEC, config_hash)


def test_push_empty_trajectory_is_noop():
    buf = ReplayBuffer(capacity=5, domain_tag=SOURCE)
    buf.push(Batch(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)), SOURCE))
    assert len(buf) == 0


def test_push_wrong_tag_raises():
    buf = ReplayBuffer(capacity=5, domain_tag=TARGET)
    with pytest.raises(ValueError):
        buf.push(make_batch(3, tag=SOURCE))


def assert_holds(buf, rows, arrays, sample):
    """buf holds `rows` rows in the very `arrays` it had, and samples `sample` again."""
    assert len(buf) == rows and all(x is y for x, y in zip(buf._arrays, arrays, strict=True))
    again = buf.sample(50, np.random.default_rng(1))
    for key in ("s", "a", "s_next"):
        assert np.array_equal(getattr(again, key), getattr(sample, key))


def test_wrong_tag_push_raises_before_writing_a_row():
    buf = ReplayBuffer(capacity=12, domain_tag=TARGET)
    buf.push(make_batch(6, tag=TARGET))
    arrays, before = buf._arrays, buf.sample(50, np.random.default_rng(1))
    with pytest.raises(ValueError, match="domain contamination"):
        buf.push(make_batch(3, tag=SOURCE, offset=100.0))
    assert_holds(buf, 6, arrays, before)


def test_a_push_past_capacity_raises_and_leaves_the_buffer_as_it_was():
    buf = ReplayBuffer(capacity=10, domain_tag=SOURCE)
    with pytest.raises(ValueError, match="pushing 11 rows into a buffer holding 0 of 10 rows"):
        buf.push(make_batch(11))
    assert len(buf) == 0 and buf._arrays == ()
    buf.push(make_batch(6))
    arrays, before = buf._arrays, buf.sample(50, np.random.default_rng(1))
    with pytest.raises(ValueError, match="pushing 5 rows into a buffer holding 6 of 10 rows"):
        buf.push(make_batch(5, offset=100.0))
    assert_holds(buf, 6, arrays, before)
    buf.push(make_batch(4, offset=100.0))         # exactly full
    assert len(buf) == 10


def pushed_batch(fault):
    """A three-row episode that `push` must reject, for each kind of fault."""
    batch = make_batch(3, offset=100.0)
    s, s_next = batch.s.copy(), batch.s_next.copy()
    if fault == "no-ends":
        return dataclasses.replace(batch, ends=None)
    if fault == "open-last-episode":
        return dataclasses.replace(batch, ends=np.array([False, True, False]))
    if fault == "inner-s-next-one-ulp-off":
        s_next[1, 0] = np.nextafter(s[2, 0], np.inf)
    else:                                           # the same value but for the sign of a zero
        s[1, 1] = 0.0
        s_next[0, 1] = -0.0
    return dataclasses.replace(batch, s=s, s_next=s_next)


@pytest.mark.parametrize("fault,message", [
    ("no-ends", "a pushed batch needs ends, and its last row must end an episode"),
    ("open-last-episode", "a pushed batch needs ends, and its last row must end an episode"),
    ("inner-s-next-one-ulp-off", "row 1 of the pushed batch: s_next is not the next row's s"),
    ("inner-s-next-negative-zero", "row 0 of the pushed batch: s_next is not the next row's s"),
])
def test_a_push_of_anything_but_whole_episodes_raises_before_writing_a_row(fault, message):
    buf = ReplayBuffer(capacity=12, domain_tag=SOURCE)
    with pytest.raises(ValueError, match=message):
        buf.push(pushed_batch(fault))
    assert len(buf) == 0 and buf._arrays == ()
    buf.push(make_batch(6))
    arrays, before = buf._arrays, buf.sample(50, np.random.default_rng(1))
    with pytest.raises(ValueError, match=message):
        buf.push(pushed_batch(fault))
    assert_holds(buf, 6, arrays, before)


BUFFER_LENGTHS = np.random.default_rng(0).integers(1, 90, size=40).tolist()    # episode lengths


def episode(n, k):
    """The k-th push: an episode of n rows (0 gives an empty batch), or one
    episode of each length of a tuple n, with first coordinates of its own."""
    if n == 0:
        return Batch(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)), SOURCE)
    lengths = n if isinstance(n, tuple) else (n,)
    return Batch.of([make_traj(m, offset=1000.0 * k + 100.0 * j) for j, m in enumerate(lengths)])


@pytest.mark.parametrize("lengths, capacity", [
    pytest.param(BUFFER_LENGTHS, sum(BUFFER_LENGTHS), id="episodes-to-capacity"),
    pytest.param(BUFFER_LENGTHS, sum(BUFFER_LENGTHS) + 1000, id="episodes-short-of-capacity"),
    pytest.param([1] * 57, 57, id="one-row-pushes"),
    pytest.param([sum(BUFFER_LENGTHS)], sum(BUFFER_LENGTHS), id="one-push-fills-it"),
    pytest.param([1], 1, id="one-row-buffer"),
    pytest.param([5, 0, 9, 0, 0, 3], 18, id="empty-pushes-between"),
    pytest.param([(3, 1, 7), (80,) * 5, 2, (1,) * 9], 422, id="several-episodes-per-push"),
])
def test_buffer_samples_every_bit_a_list_of_rows_samples(lengths, capacity):
    """Episodes of `lengths` rows pushed up to (or short of) capacity: after
    every push, the same length, the same sampled bits and the same draws as
    a list of rows, oldest first, and one set of arrays from the first push on."""
    buf, ref = ReplayBuffer(capacity, SOURCE), RowListReplayBuffer()
    episodes = 0
    for k, n in enumerate(lengths):
        batch = episode(n, k)
        buf.push(batch)
        ref.push(batch)
        episodes += len(batch) and int(batch.ends.sum())
        if k == 0:
            arrays = buf._arrays
        assert len(buf._arrays) == 3 and all(x is y for x, y in zip(buf._arrays, arrays))
        assert len(buf) == len(ref.rows)
        # one last row and one final state per episode pushed
        assert [len(x) for x in buf._episodes] == [episodes, episodes]
        rng_buf, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
        got, want = buf.sample(33, rng_buf), ref.sample(33, rng_ref)
        assert got.domain_tag == SOURCE and len(got) == 33
        for j, key in enumerate(("s", "a", "s_next")):
            assert np.array_equal(getattr(got, key).view(np.int64),
                                  np.array([row[j] for row in want]).view(np.int64))
        assert rng_buf.bit_generator.state == rng_ref.bit_generator.state
    assert len(buf) == sum(np.sum(n) for n in lengths)


def test_pushes_into_a_ring_of_its_runs_rows_peak_at_its_arrays_plus_one_batch():
    """A ring sized to the 3,600 link-chain rows pushed into it: while they
    are pushed, the traced peak stays within the ring's arrays and one batch
    (a ring that grew by doubling would hold its old and new arrays at once)."""
    env = LinkChainEnv(LinkChainConfig(horizon=15), TARGET, seed=0)
    policy = GaussianPolicy(env.spec, hidden=(8,), seed=0)
    batches = [rollouts(policy, env, 8, np.random.default_rng(i)) for i in range(3)]
    widths = sum(x.shape[1] for x in (batches[0].s, batches[0].a, batches[0].s_next))
    pushes = 30
    capacity = sum(len(batches[i % 3]) for i in range(pushes))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        buf = ReplayBuffer(capacity, TARGET)
        for i in range(pushes):
            buf.push(batches[i % 3])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert capacity == 3600 and len(buf) == capacity
    assert peak <= 8 * widths * (capacity + max(len(b) for b in batches))


def test_ring_holds_at_most_40_bytes_per_point_maze_row():
    """At full capacity, whatever the buffer allocated (and kept) is counted:
    s, a and the end flag (33 bytes) and a share of the per-episode arrays;
    s, a and s_next stored apart would take 48 bytes."""
    env = PointMazeEnv(PointMazeConfig(), TARGET, seed=0)
    policy = with_log_std(GaussianPolicy(env.spec, hidden=(8,), seed=0), 0.0)
    batches = [rollouts(policy, env, 8, np.random.default_rng(i)) for i in range(3)]
    pushes = capacity = 0                 # whole batches, to at least 10,000 rows
    while capacity < 10_000:
        capacity += len(batches[pushes % 3])
        pushes += 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        buf = ReplayBuffer(capacity, TARGET)
        for i in range(pushes):
            buf.push(batches[i % 3])
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(buf) == capacity
    assert held / capacity <= 40


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
    with pytest.raises(ValueError, match="demo transitions must be source-tagged"):
        DemoSet(trajectories=[make_traj(3, tag=TARGET)], expert_seed=1, horizon=3)


def test_demo_set_requires_its_provenance_by_keyword():
    batch = Batch.of([make_traj(3)])
    with pytest.raises(TypeError):
        DemoSet(batch, env_config_hash="x")
    with pytest.raises(TypeError):
        DemoSet(batch, "x", None, 1, 3)


@pytest.mark.parametrize("provenance,message", [
    ({"expert_seed": 1, "horizon": 0}, "horizon must be an integer >= 1, not 0"),
    ({"expert_seed": 1, "horizon": 3.0}, "horizon must be an integer >= 1, not 3.0"),
    ({"expert_seed": True, "horizon": 3}, "expert_seed must be an integer, not True"),
    ({"expert_seed": 1.0, "horizon": 3}, "expert_seed must be an integer, not 1.0"),
])
def test_demo_set_rejects_provenance_no_expert_could_have(provenance, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DemoSet(Batch.of([make_traj(3)]), env_config_hash="x", **provenance)


@pytest.mark.parametrize("missing", ["done", "gt_reward", "ends"])
def test_demo_set_names_an_array_its_batch_lacks(missing):
    # Such a set would save a file that load_demos rejects.
    batch = dataclasses.replace(Batch.of([make_traj(3)]), **{missing: None})
    with pytest.raises(ValueError, match=f"demo set has no '{missing}' array"):
        DemoSet(batch, expert_seed=1, horizon=3)


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
    return Batch(s, a, sn, SOURCE, done=np.array([0, 1, 1, 0, 0, 0, 0], dtype=bool),
                 gt_reward=gt, ends=ends)


def test_demo_roundtrip_is_value_exact(tmp_path):
    batch = _extreme_value_batch()
    path = tmp_path / "demos.bin"
    save_demos(DemoSet(batch, env_config_hash="abc123", expert_seed=9, horizon=4), path)
    loaded = load_maze_demos(path, "abc123")
    for key in ("s", "a", "s_next", "gt_reward"):
        assert np.array_equal(getattr(loaded.batch, key).view(np.int64),
                              getattr(batch, key).view(np.int64)), key
    for key in ("done", "ends"):
        got = getattr(loaded.batch, key)
        assert got.dtype == bool and np.array_equal(got, getattr(batch, key)), key
    assert (loaded.env_config_hash, loaded.expert_seed, loaded.horizon) == ("abc123", 9, 4)
    assert loaded.batch.domain_tag == SOURCE


@pytest.mark.parametrize("writer", ["write_trajectory_csv", "reward_heatmap"])
def test_writers_match_the_csv_writer_references_byte_for_byte(tmp_path, writer):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    if writer == "write_trajectory_csv":
        batch = _extreme_value_batch()
        write_trajectory_csv(got, batch)
        reference_write_trajectory_csv(want, batch)
    else:
        disc = Discriminator(2, 2, gamma=0.9, seed=0, hidden=(16, 16))
        disc.g_net.params[:] = np.random.default_rng(5).normal(size=disc.g_net.params.size)
        # g in chunks against one whole-grid forward: 2,500 rows, and 16,641 (one past a chunk)
        for grid_n in (129, 50):
            centers, _, values = reward_heatmap(disc, grid_n, got)
            pts = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1).reshape(-1, 2)
            whole = disc.g_net.forward(pts)[:, 0].reshape(grid_n, grid_n)
            assert np.array_equal(values.view(np.int64), whole.view(np.int64)), grid_n
        reference_heatmap_csv(want, centers, values)
    assert got.read_bytes() == want.read_bytes()


def _saved_demos(tmp_path, **arrays):
    """A three-row demo file, with the given arrays replacing (or, as None,
    removing) the saved ones: the file and its meta."""
    path = tmp_path / "demos.bin"
    save_demos(DemoSet(trajectories=[make_traj(3)], env_config_hash="x", expert_seed=0,
                       horizon=3), path)
    saved, meta = load_params(path)
    saved.update(arrays)
    save_arrays(path, {k: v for k, v in saved.items() if v is not None}, **meta)
    return path, meta


@pytest.mark.parametrize("column,value,message", [
    ("s_0", "nan", "s_0 must be finite, not nan"), ("a_1", "inf", "a_1 must be finite, not inf"),
    ("s_next_1", "-inf", "s_next_1 must be finite, not -inf"),
    ("done", "2", "done must be 0 or 1, not 2"), ("done", "-1", "done must be 0 or 1, not -1"),
    ("ends", "0.5", "ends must be 0 or 1, not 0.5"),
])
def test_load_demos_names_the_line_of_a_non_finite_value_or_a_bad_done(tmp_path, column, value,
                                                                       message):
    """The value goes into the second row; the error names the array and that 0-based row."""
    name, _, col = column.rpartition("_") if column not in ("done", "ends") else (column, "", "")
    path, meta = _saved_demos(tmp_path)
    arrays, _ = load_params(path)
    arrays[name][(1, int(col)) if col else 1] = float(value)
    save_arrays(path, arrays, **meta)
    with pytest.raises(ValueError, match=f"demos.bin: array '{name}' row 1: {message}$"):
        load_maze_demos(path)


@pytest.mark.parametrize("rows,message", [
    ("header only", "demo set must be nonempty"),
    ("target rows", "demo transitions must be source-tagged"),
])
def test_load_demos_names_the_file_without_source_rows(tmp_path, rows, message):
    path, meta = _saved_demos(tmp_path)
    arrays, _ = load_params(path)
    if rows == "header only":                           # every array with zero rows
        arrays = {k: v[:0] for k, v in arrays.items()}
    else:
        meta["domain_tag"] = TARGET
    save_arrays(path, arrays, **meta)
    with pytest.raises(ValueError, match=f"demos.bin: {message}"):
        load_maze_demos(path)


def test_load_demos_dim_mismatch_raises(tmp_path):
    path, _ = _saved_demos(tmp_path)
    spec = EnvSpec(state_dim=6, action_dim=3, action_low=-np.ones(3), action_high=np.ones(3),
                   horizon=10, goal=np.zeros(2))
    with pytest.raises(ValueError, match="do not match"):
        load_demos(path, spec, "x")


def test_load_demos_hash_mismatch_warns_but_loads(tmp_path, caplog):
    demos = DemoSet(trajectories=[make_traj(3)], env_config_hash="old", expert_seed=0, horizon=3)
    path = tmp_path / "demos.bin"
    save_demos(demos, path)
    with caplog.at_level("WARNING"):
        loaded = load_maze_demos(path, "new")
    assert len(loaded) == 3
    assert any("config hash" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("meta,key", [
    ('{"action_dim": 2}', "state_dim"), ('{"state_dim": 2}', "action_dim"),
    ('{"state_dim": "two", "action_dim": 2}', "state_dim"), ("5", "state_dim"),
])
def test_load_demos_names_a_dimension_the_metadata_lacks(tmp_path, meta, key):
    path, _ = _saved_demos(tmp_path)
    header, payload = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header), "meta": json.loads(meta)}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match=f"demos.bin: metadata has no integer '{key}'"):
        load_maze_demos(path)


@pytest.mark.parametrize("value", [pytest.param(KeyError, id="missing"), None, 1.5, True, "7"])
@pytest.mark.parametrize("key", ["expert_seed", "horizon"])
def test_load_demos_requires_integer_provenance(tmp_path, key, value):
    """A provenance value that is absent, null, fractional, a bool or a string
    raises naming the file and the key; none loads as a number."""
    path, _ = _saved_demos(tmp_path)
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    if value is KeyError:
        del header["meta"][key]
    else:
        header["meta"][key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match=f"demos.bin: metadata has no integer '{key}'$"):
        load_maze_demos(path)


def _checkpoint(tmp_path):
    path = tmp_path / "demos.bin"
    save_blocks(path, GaussianPolicy(MAZE_SPEC, hidden=(4,)).blocks())
    return path


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda t: _saved_demos(t, gt_reward=None)[0], "no array 'gt_reward' in demo file",
                 id="missing-array"),
    pytest.param(lambda t: _saved_demos(t, a=np.zeros((3, 3)))[0],
                 "array 'a' has shape \\(3, 3\\), expected \\(3, 2\\)", id="action-width"),
    pytest.param(lambda t: _saved_demos(t, s_next=np.zeros((2, 2)))[0],
                 "array 's_next' has shape \\(2, 2\\), expected \\(3, 2\\)", id="row-count"),
    pytest.param(lambda t: _saved_demos(t, ends=np.zeros(()))[0],
                 "array 'ends' has shape \\(\\), expected \\(3,\\)", id="scalar-ends"),
    pytest.param(lambda t: _saved_demos(t, ends=np.array([0.0, 1.0, 0.0]))[0],
                 "array 'ends' row 2: the last row ends no episode$", id="last-row-not-an-end"),
    pytest.param(_checkpoint, "metadata has no integer 'state_dim'", id="checkpoint"),
])
def test_load_demos_rejects_a_malformed_demo_file(tmp_path, make, message):
    with pytest.raises(ValueError, match=f"demos.bin: {message}"):
        load_maze_demos(make(tmp_path))
