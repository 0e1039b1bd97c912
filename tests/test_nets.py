from types import SimpleNamespace

import numpy as np
import pytest
from oracles import TextbookAdam, mlp_layers

from odirl.nets import (Adam, FlatParams, Mlp, load_blocks, load_params, minibatches,
                        save_arrays, save_blocks)


def finite_difference_check(
    net: Mlp,
    rng: np.random.Generator,
    n_draws: int = 10,
    eps: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-6,
) -> float:
    """Compare analytic (float32) parameter gradients against central differences.

    The differences are taken in float64, through `mlp_layers` views of a
    float64 copy of the net's float32 parameters, on float32-valued inputs and
    upstreams, so float32 rounding does not swamp them. For each draw a fresh
    random input and upstream vector are used and every parameter is
    perturbed. Returns the worst relative error seen; raises AssertionError on
    the first parameter outside tolerance.
    """
    params64 = net.params.astype(np.float64)
    layers64 = mlp_layers(SimpleNamespace(layer_sizes=net.layer_sizes, params=params64))

    def objective(x, upstream):
        h = x
        for w, b in layers64[:-1]:
            h = np.tanh(h @ w + b)
        w, b = layers64[-1]
        return float(((h @ w + b) * upstream).sum())

    worst = 0.0
    for _ in range(n_draws):
        x, upstream = (rng.normal(size=(1, n)).astype(np.float32).astype(np.float64)
                       for n in (net.in_dim, net.out_dim))
        net.grad[...] = 0.0
        net.forward(x)
        net.backward(x, upstream)
        analytic = net.grad.astype(np.float64)
        net.grad[...] = 0.0
        for j in range(params64.size):
            orig = params64[j]
            params64[j] = orig + eps
            up = objective(x, upstream)
            params64[j] = orig - eps
            down = objective(x, upstream)
            params64[j] = orig
            fd = (up - down) / (2.0 * eps)
            diff = abs(analytic[j] - fd)
            tol = max(abs_floor, rel_tol * max(abs(analytic[j]), abs(fd)))
            if diff > tol:
                raise AssertionError(
                    f"gradient mismatch at param {j}: analytic={analytic[j]:.8g} fd={fd:.8g}"
                )
            denom = max(abs(analytic[j]), abs(fd), abs_floor)
            worst = max(worst, diff / denom)
        net.forward(x)  # leave a fresh cache so callers see a clean net
    return worst


def test_zero_init_output_layer_gives_zero_output():
    net = Mlp([3, 16, 2], seed=0, zero_init_output=True)
    rng = np.random.default_rng(1)
    for _ in range(5):
        out = net.forward(rng.normal(size=3))
        assert np.all(out == 0.0)


def test_identity_single_layer_passes_input_through():
    net = Mlp([2, 2], seed=0)
    (w, b), = mlp_layers(net)
    w[...] = np.eye(2)
    b[...] = 0.0
    x = np.array([0.3, -1.7])
    assert np.allclose(net.forward(x), x)


def test_forward_is_repeatable():
    net = Mlp([4, 8, 3], seed=3)
    x = np.random.default_rng(0).normal(size=4)
    out1 = net.forward(x).copy()
    out2 = net.forward(x).copy()
    assert np.array_equal(out1, out2)


def test_forward_rejects_dim_mismatch():
    net = Mlp([4, 3], seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros(5))


def test_forward_rejects_nonfinite_input():
    net = Mlp([2, 3], seed=0)
    with pytest.raises(ValueError):
        net.forward(np.array([np.nan, 0.0]))


def test_deterministic_init_given_seed():
    a = Mlp([5, 32, 32, 2], seed=11)
    b = Mlp([5, 32, 32, 2], seed=11)
    c = Mlp([5, 32, 32, 2], seed=12)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


@pytest.mark.parametrize("sizes", [[3, 8, 1], [2, 5, 5, 2], [5, 2]])
def test_gradients_match_finite_differences_on_small_nets(sizes):
    # Mandatory pre-build check: every parameter against central differences.
    net = Mlp(sizes, seed=7)
    rng = np.random.default_rng(42)
    worst = finite_difference_check(net, rng, n_draws=20)
    assert worst <= 1e-4


def test_backward_zero_upstream_leaves_grad_unchanged():
    net = Mlp([3, 8, 2], seed=0)
    x = np.random.default_rng(0).normal(size=(4, 3))
    net.forward(x)
    net.backward(x, np.ones((4, 2)))
    before = net.grad.copy()
    net.forward(x)
    net.backward(x, np.zeros((4, 2)))
    assert np.array_equal(net.grad, before)


def test_backward_accumulation_is_linear():
    net = Mlp([3, 8, 2], seed=0)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    g1 = rng.normal(size=(6, 2))
    g2 = rng.normal(size=(6, 2))
    net.forward(x)
    net.backward(x, g1 + g2)
    combined = net.grad.copy()
    net.grad[...] = 0.0
    net.forward(x)
    net.backward(x, g1)
    net.forward(x)
    net.backward(x, g2)
    assert np.allclose(net.grad, combined, atol=1e-12)


STALE = "stale forward cache: call forward on these"


def test_backward_requires_a_kept_forward_of_the_same_rows():
    net = Mlp([3, 8, 2], seed=0)
    rng = np.random.default_rng(5)
    x1 = rng.normal(size=(2, 3))
    x2 = rng.normal(size=(2, 3))
    with pytest.raises(RuntimeError, match=STALE):        # nothing kept yet
        net.backward(x1, np.ones((2, 2)))
    net.forward(x1)
    with pytest.raises(RuntimeError, match=STALE):
        net.backward(x2, np.ones((2, 2)))
    net.forward(x2, keep=False)                           # an inference forward keeps nothing
    with pytest.raises(RuntimeError, match=STALE):
        net.backward(x2, np.ones((2, 2)))


@pytest.mark.parametrize("update", ["adam-step", "load-blocks"])
def test_a_parameter_update_releases_the_kept_forward(tmp_path, update):
    net, log_std = _mlp_and_log_std(6)
    x = np.random.default_rng(5).normal(size=(4, 3))
    blocks = {"mean": net, "log_std": log_std}
    save_blocks(tmp_path / "ckpt.bin", blocks)
    opt = Adam(blocks.values(), lr=1e-3)
    net.forward(x)
    net.backward(x, np.ones((4, 2)))                      # usable until the update
    if update == "adam-step":
        opt.step()
    else:
        load_blocks(tmp_path / "ckpt.bin", blocks)
    assert net._kept is None
    with pytest.raises(RuntimeError, match=STALE):
        net.backward(x, np.ones((4, 2)))


def test_an_inference_forward_gives_the_same_bits_and_leaves_the_kept_forward_usable():
    rng = np.random.default_rng(8)
    net, twin = Mlp([3, 16, 16, 2], seed=4), Mlp([3, 16, 16, 2], seed=4)
    x, up = rng.normal(size=(9, 3)), rng.normal(size=(9, 2))
    net.forward(x)
    kept = net._kept
    for other in (rng.normal(size=(33, 3)), rng.normal(size=3)):     # rows, and one 1-D state
        got = net.forward(other, keep=False)
        assert net._kept is kept
        assert np.array_equal(got.view(np.int64), twin.forward(other).view(np.int64))
    net.backward(x, up)
    twin.forward(x)
    twin.backward(x, up)
    assert np.array_equal(net.grad.view(np.int64), twin.grad.view(np.int64))


def test_adam_zero_grad_keeps_params():
    net = Mlp([3, 4, 1], seed=0)
    before = net.params.copy()
    Adam([net], lr=0.1).step()
    assert np.array_equal(net.params, before)


def test_adam_minimizes_quadratic():
    # loss = 0.5*(x - 3)^2, closed-form minimizer x* = 3
    x = FlatParams(np.array([-2.0]))
    opt = Adam([x], lr=0.1)
    for _ in range(200):
        x.grad[...] = x.params - 3.0
        opt.step()
    assert abs(x.params[0] - 3.0) < 1e-3


def test_adam_clip_rescales_gradient_norm():
    x = FlatParams(np.zeros(4))
    opt = Adam([x], lr=0.5, clip_norm=1.0)
    x.grad[...] = np.array([10.0, 0.0, 0.0, 0.0])
    opt.step()
    # first Adam step magnitude is lr per coordinate regardless of scale,
    # but the clipped gradient must have been rescaled to norm <= 1
    assert opt.t == 1
    x.grad[...] = np.array([0.3, 0.4, 0.0, 0.0])  # norm < clip: untouched
    g_before = x.grad.copy()
    opt.step()
    assert np.all(x.grad == 0.0)
    assert np.linalg.norm(g_before) < 1.0


def test_adam_raises_on_nonfinite_grad():
    x = FlatParams(np.zeros(2))
    opt = Adam([x])
    x.grad[...] = np.array([np.inf, 0.0])
    with pytest.raises(FloatingPointError):
        opt.step()


def test_adam_raises_naming_the_block_of_a_nan_gradient():
    blocks = _mlp_and_log_std(0)
    opt = Adam(blocks, lr=0.1, clip_norm=1.0)
    before = [b.params.copy() for b in blocks]
    blocks[1].grad[...] = np.array([0.5, np.nan])
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite gradient in block 1 of 2 \(FlatParams, 2 params\)$"):
        opt.step()
    assert all(np.array_equal(b.params, p) for b, p in zip(blocks, before)) and opt.t == 0


def test_adam_raises_naming_the_block_an_update_makes_infinite():
    net, log_std = Mlp([2, 3, 1], seed=0), FlatParams(np.zeros(2))
    opt = Adam([net, log_std], lr=1e38)
    net.params[0] = 3e38
    net.grad[0] = -1.0                      # the first step moves params[0] by +lr
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError,
            match=r"^non-finite parameters after update in block 0 of 2 \(Mlp, 13 params\)$"):
        opt.step()


def test_adam_holds_its_blocks_in_one_vector_in_block_order():
    blocks = _mlp_and_log_std(1)
    values = np.concatenate([b.params for b in blocks])
    Adam(blocks)
    for name in ("params", "grad"):
        vector = getattr(blocks[0], name).base
        assert vector is not None and vector.shape == values.shape
        start, offset = vector.__array_interface__["data"][0], 0
        for block in blocks:
            view = getattr(block, name)
            assert view.base is vector
            assert view.__array_interface__["data"][0] == start + view.itemsize * offset
            offset += view.size
        assert offset == vector.size
    assert np.array_equal(blocks[0].params.base, values)
    # a write to the vector reaches the layer views the kernels use
    net, free = blocks[0], Mlp([3, 16, 16, 2], seed=9)
    net.params.base[: net.params.size] = free.params
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(net.forward(x), free.forward(x))


def test_load_blocks_writes_through_to_the_optimizer_vector(tmp_path):
    saved = dict(zip(("mean", "log_std"), _mlp_and_log_std(2)))
    save_blocks(tmp_path / "ckpt.bin", saved)
    blocks = dict(zip(("mean", "log_std"), _mlp_and_log_std(3)))
    Adam(blocks.values())
    load_blocks(tmp_path / "ckpt.bin", blocks)
    assert np.array_equal(blocks["mean"].params.base,
                          np.concatenate([b.params for b in saved.values()]))
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(blocks["mean"].forward(x), saved["mean"].forward(x))


def test_save_blocks_writes_the_same_bytes_for_blocks_an_optimizer_holds(tmp_path):
    held, free = (dict(zip(("mean", "log_std"), _mlp_and_log_std(4))) for _ in range(2))
    Adam(held.values())
    save_blocks(tmp_path / "held.bin", held, seed=4)
    save_blocks(tmp_path / "free.bin", free, seed=4)
    assert (tmp_path / "held.bin").read_bytes() == (tmp_path / "free.bin").read_bytes()


def test_adam_rejects_a_block_another_optimizer_holds_or_one_listed_twice():
    net, log_std = _mlp_and_log_std(5)
    Adam([net])
    with pytest.raises(ValueError, match=r"block 1 of 2 \(Mlp, 370 params\) is already held"):
        Adam([log_std, net])
    other = FlatParams(np.ones(2))
    with pytest.raises(ValueError, match=r"block 1 of 2 \(FlatParams, 2 params\) is already held"):
        Adam([other, other])


def _mlp_and_log_std(seed):
    return [Mlp([3, 16, 16, 2], seed=seed), FlatParams(np.random.default_rng(seed).normal(size=2))]


def _adam(blocks, clip_norm, **kw):
    """An Adam with the given clip_norm, or with its default (no clip) for None."""
    return Adam(blocks, **kw) if clip_norm is None else Adam(blocks, clip_norm=clip_norm, **kw)


@pytest.mark.parametrize("clip_norm,weight_decay", [
    (None, 0.0), (None, 1e-2), (0.5, 1e-2), (1e6, 1e-2), (0.5, 0.0)])
def test_adam_matches_the_textbook_update_bit_for_bit(clip_norm, weight_decay):
    blocks, reference = _mlp_and_log_std(4), _mlp_and_log_std(4)
    opt = _adam(blocks, clip_norm, lr=1e-2, weight_decay=weight_decay)
    ref = TextbookAdam(reference, lr=1e-2, clip_norm=clip_norm, weight_decay=weight_decay)
    rng = np.random.default_rng(0)
    for _ in range(50):
        for b, r in zip(blocks, reference):
            b.grad[...] = r.grad[...] = rng.normal(0.0, 3.0, b.grad.shape)
        if clip_norm is not None:       # the clip binds at 0.5 and never at 1e6
            norm = np.sqrt(sum(float(b.grad @ b.grad) for b in blocks))
            assert (norm > clip_norm) == (clip_norm == 0.5)
        opt.step()
        ref.step()
        for b, r in zip(blocks, reference):
            assert np.array_equal(b.params, r.params)
            assert np.all(b.grad == 0.0)
    assert opt.t == ref.t == 50


@pytest.mark.parametrize("clip_norm", [None, 1.0])
def test_adam_raises_on_a_nan_gradient_before_changing_anything(clip_norm):
    x = FlatParams(np.ones(3))
    opt = _adam([x], clip_norm, lr=0.1)
    x.grad[...] = np.array([0.5, np.nan, 0.5])
    with pytest.raises(FloatingPointError, match="gradient"):
        opt.step()
    assert np.array_equal(x.params, np.ones(3)) and opt.t == 0


@pytest.mark.parametrize("clip_norm", [None, 1.0])
def test_adam_takes_finite_gradients_and_parameters_whose_square_sum_overflows(clip_norm):
    # g @ g and p @ p overflow float32 to inf here, but every element is finite
    x = FlatParams(np.full(4, 1e30))
    opt = _adam([x], clip_norm, lr=0.1)
    x.grad[...] = np.array([1e30, -1e30, 3.0, 0.0])
    with np.errstate(over="ignore"):    # numpy's overflow warnings are errors under pytest
        assert np.isinf(x.grad @ x.grad) and np.isinf(x.params @ x.params)
        opt.step()
    assert np.all(np.isfinite(x.params)) and opt.t == 1


def test_adam_raises_on_a_parameter_the_update_makes_infinite():
    x = FlatParams(np.array([3e38, 0.0]))
    opt = Adam([x], lr=1e38)
    x.grad[...] = np.array([-1.0, 0.0])     # the first step moves params[0] by +lr
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="parameters"):
        opt.step()


def test_forward_and_backward_match_the_textbook_kernels():
    _check_forward_and_backward_against_textbook_kernels([4, 16, 8, 3], zero_init_output=False)


@pytest.mark.parametrize("zero_init_output", [False, True], ids=["random-output", "zero-output"])
def test_forward_and_backward_of_a_width_one_output_match_the_textbook_kernels(zero_init_output):
    _check_forward_and_backward_against_textbook_kernels([4, 16, 8, 1], zero_init_output)


def _check_forward_and_backward_against_textbook_kernels(sizes, zero_init_output):
    net = Mlp(sizes, seed=2, zero_init_output=zero_init_output)
    rng = np.random.default_rng(3)
    x, up = (rng.normal(size=(37, n)).astype(np.float32) for n in (4, sizes[-1]))
    layers = mlp_layers(net)                            # float32, as are all the arrays below
    acts, n_layers = [x], len(layers)                   # tanh hidden layers, identity output
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < n_layers - 1 else z)
    delta, grads = up, []
    for i in reversed(range(n_layers)):
        dz = delta * (1.0 - acts[i + 1] * acts[i + 1]) if i < n_layers - 1 else delta
        grads = [(acts[i].T @ dz).ravel(), dz.sum(axis=0)] + grads
        delta = dz @ layers[i][0].T
    assert np.array_equal(net.forward(x), acts[-1])
    net.backward(x, up)
    # Bit for bit, the sign of every zero included (a zero output layer makes many).
    assert np.array_equal(net.grad.view(np.int32), np.concatenate(grads).view(np.int32))


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    blocks = {
        "a": FlatParams(rng.normal(size=137)),
        "b": FlatParams(rng.normal(size=(3, 5)) * 1e-17),
        "c": FlatParams(np.array([np.pi, -0.0, 3e38, 1e-40])),      # 1e-40: a subnormal
        "net": Mlp([3, 4, 4, 2], seed=5, zero_init_output=True),
    }
    meta = {"layer_shapes": [[3, 5]], "seed": 4}
    path = tmp_path / "ckpt.bin"
    save_blocks(path, blocks, **meta)
    loaded, loaded_meta = load_params(path)
    # Each Mlp's meta lists its activations, so headers keep one layout for every file.
    assert loaded_meta == {"net": {"layer_sizes": [3, 4, 4, 2], "activations": ["tanh", "tanh", "identity"],
                                   "seed": 5, "zero_init_output": True}, **meta}
    assert list(loaded) == list(blocks)
    # float32 values in a float64 container: widened exactly, and narrowed back bit for bit
    for k, block in blocks.items():
        assert loaded[k].shape == block.params.shape and loaded[k].dtype == np.dtype("<f8")
        assert loaded[k].tobytes() == block.params.astype("<f8").tobytes()
        assert loaded[k].astype(np.float32).tobytes() == block.params.tobytes()


def test_a_float32_net_round_trips_bit_for_bit_through_its_float64_file(tmp_path):
    saved, loaded = Mlp([3, 16, 2], seed=1), Mlp([3, 16, 2], seed=2)
    saved.params[...] = np.random.default_rng(1).normal(size=saved.params.size)
    save_blocks(tmp_path / "net.bin", {"net": saved})
    load_blocks(tmp_path / "net.bin", {"net": loaded})
    assert loaded.params.dtype == np.float32
    assert np.array_equal(loaded.params.view(np.int32), saved.params.view(np.int32))
    x = np.random.default_rng(2).normal(size=(5, 3))
    assert np.array_equal(loaded.forward(x).view(np.int64), saved.forward(x).view(np.int64))


def test_a_float64_value_float32_cannot_hold_loads_as_its_nearest_float32(tmp_path):
    values = np.array([0.1, 1.0 / 3.0, np.pi, 1.0 + 2.0 ** -30, -2.0 ** -140, 1e-45])
    assert not np.array_equal(values.astype(np.float32).astype(np.float64), values)
    save_arrays(tmp_path / "x.bin", {"x": values})
    block = FlatParams(np.zeros(values.size))
    load_blocks(tmp_path / "x.bin", {"x": block})
    got = block.params.astype(np.float64)
    for direction in (np.inf, -np.inf):               # no float32 neighbour is nearer
        neighbour = np.nextafter(block.params, np.float32(direction)).astype(np.float64)
        assert np.all(np.abs(got - values) <= np.abs(neighbour - values))
    assert np.array_equal(block.params.view(np.int32), values.astype(np.float32).view(np.int32))


# A demo file as the CSV codec wrote it before demos moved to the array container.
_CSV_DEMO_FILE = ('# {"env_config_hash": "x", "expert_seed": 0, "horizon": 3, "state_dim": 2, '
                  '"action_dim": 2, "n_trajectories": 1}\n'
                  "episode,s_0,s_1,a_0,a_1,s_next_0,s_next_1,done,domain_tag,gt_reward\r\n"
                  "0,0.1,0.2,0.01,-0.02,0.11,0.18,1,source,-0\r\n").encode()


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda raw: b"not json\n" + raw.split(b"\n", 1)[1], "header line is not JSON",
                 id="not-json"),
    pytest.param(lambda raw: b'[{"name": "a", "shape": [3]}]\n' + raw.split(b"\n", 1)[1],
                 "header is not an object listing arrays", id="list-header"),
    pytest.param(lambda raw: raw.replace(b'"shape": [3]', b'"shape": [-3]'),
                 "header is not an object listing arrays", id="negative-shape"),
    pytest.param(lambda raw: raw.replace(b'"shape": [3]', b'"shape": ["3"]'),
                 "header is not an object listing arrays", id="string-shape"),
    pytest.param(lambda raw: raw.replace(b'"name": "b"', b'"name": "a"'),
                 "header lists array 'a' twice", id="duplicate-name"),
    pytest.param(lambda raw: raw + b"\0", "header lists 40 bytes of arrays, file holds 41",
                 id="trailing-bytes"),
    pytest.param(lambda raw: raw[:-1], "header lists 40 bytes of arrays, file holds 39",
                 id="truncated"),
    pytest.param(lambda raw: _CSV_DEMO_FILE, "header line is not JSON", id="csv-demo-file"),
])
def test_load_params_names_the_file_of_a_malformed_header_or_size(tmp_path, edit, message):
    path = tmp_path / "arrays.bin"
    save_blocks(path, {"a": FlatParams(np.arange(3.0)), "b": FlatParams(np.ones((1, 2)))})
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"arrays.bin: {message}"):
        load_params(path)


@pytest.mark.parametrize("n,size", [(0, 4), (1, 4), (7, 1), (64, 64), (65, 64), (100, 30)])
def test_minibatches_cover_every_index_once_per_call(n, size):
    rng, reference = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(3):
        chunks = minibatches(n, size, rng)
        assert all(len(c) == size for c in chunks[:-1]) and all(1 <= len(c) <= size for c in chunks)
        flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
        assert np.array_equal(np.sort(flat), np.arange(n))
        # the chunks are one rng.permutation(n) in order, and nothing else is drawn
        assert np.array_equal(flat, reference.permutation(n))
    assert rng.bit_generator.state == reference.bit_generator.state
