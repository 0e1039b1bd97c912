"""Tanh MLPs with identity outputs, hand-written backprop, Adam, flat-file checkpoints.

Everything is float64 numpy. Parameters live in a single flat vector per
network so optimizers, checkpoints, and gradient checks can treat every
trainable object uniformly through the (params, grad) interface. An `Adam`
moves its blocks' vectors into one vector of its own, so each block's params
and grad are then views into that optimizer's vectors. Each trainable names
its blocks once, in a `blocks()` map; `save_blocks` and `load_blocks`
checkpoint any such map. Only a training forward keeps memory past its call.
"""

from __future__ import annotations

import json
import math
import os
from typing import Sequence

import numpy as np

class FlatParams:
    """A bare trainable vector (e.g. a Gaussian policy's log-std)."""

    def __init__(self, values: np.ndarray):
        self.params = np.asarray(values, dtype=np.float64).copy()
        self.grad = np.zeros_like(self.params)

    def adopt(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Use params and grad (same shapes and values, owned by an optimizer) from now on."""
        self.params, self.grad = params, grad


class Mlp:
    """Fully connected network with a kept training forward and accumulating backward.

    layer_sizes is the full chain [in, h1, ..., out]. Hidden layers are tanh
    and the output is identity; every network the method trains has this
    shape. Parameters are a flat float64 vector (a view into its optimizer's
    vector once an `Adam` holds the net); per-layer weight/bias views share
    its memory, so in-place optimizer updates are visible everywhere.

    forward rejects a non-finite input. forward(x) keeps x and the activations
    for backward until the next such forward or parameter update (`Adam.step`,
    `load_blocks`); forward(x, keep=False) keeps nothing. backward rejects an
    input other than the kept one. The
    kernels work in place on arrays they just made (z = h @ W; z += b;
    tanh(z, out=z), and dz = h * h; 1 - dz; dz *= delta): the operations of
    tanh(h @ W + b) and delta * (1 - h * h) in the same order, so bit for bit
    the same outputs and gradients.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        seed: int = 0,
        zero_init_output: bool = False,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(int(n) < 1 for n in layer_sizes):
            raise ValueError("layer sizes must be positive")
        self.layer_sizes = [int(n) for n in layer_sizes]
        self.seed = int(seed)
        self.zero_init_output = bool(zero_init_output)

        n_params = sum((fan_in + 1) * fan_out
                       for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.adopt(np.zeros(n_params, dtype=np.float64), np.zeros(n_params, dtype=np.float64))
        self._init_weights()
        self._kept = None           # the activations backward reads, from the last forward(x)

    def adopt(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Use the flat params and grad vectors from now on (an optimizer's views
        holding the same values), with per-layer views into them: (W, b) and
        (W, gW, gb) of each layer, so the kernels loop over one tuple per layer."""
        self.params, self.grad = params, grad
        layers, grad_layers = [], []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w, gw = (v[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
                     for v in (params, grad))
            offset += fan_in * fan_out
            b, gb = (v[offset : offset + fan_out] for v in (params, grad))
            offset += fan_out
            layers.append((w, b))
            grad_layers.append((w, gw, gb))
        self._layers, self._grad_layers = tuple(layers), tuple(grad_layers)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def _init_weights(self) -> None:
        rng = np.random.default_rng(self.seed)
        for fan_in, (w, b) in zip(self.layer_sizes, self._layers):
            bound = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-bound, bound, w.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)
        if self.zero_init_output:
            w, b = self._layers[-1]
            w[...] = 0.0
            b[...] = 0.0

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """Run the net on x of shape (in,) or (batch, in); keep: keep x as rows for backward."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.ndim != 2 or x2.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got shape {x.shape}")
        if not np.isfinite(x2).all():
            raise ValueError("non-finite network input")
        acts = [x2.copy()] if keep else None     # for backward: the input, hidden outputs
        h = x2
        for w, b in self._layers[:-1]:
            h = h @ w
            h += b
            np.tanh(h, out=h)
            if keep:
                acts.append(h)
        w, b = self._layers[-1]
        h = h @ w
        h += b
        if keep:
            self._kept = acts
        return h[0] if single else h

    def backward(self, x: np.ndarray, upstream: np.ndarray) -> None:
        """Accumulate d(sum(upstream * output))/d(params) into grad, for (batch, in) rows x.

        Requires a training forward kept for exactly these rows since the last
        parameter update. Only parameter gradients are formed: no input gradient.
        """
        x = np.asarray(x, dtype=np.float64)
        upstream = np.asarray(upstream, dtype=np.float64)
        acts = self._kept
        # The shape test and element compare of np.array_equal, without its call overhead.
        if acts is None or acts[0].shape != x.shape or not (acts[0] == x).all():
            raise RuntimeError("stale forward cache: call forward on these (batch, in) rows first")
        if upstream.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"upstream shape {upstream.shape} does not match output")
        dz = upstream                           # the identity output passes upstream through
        for i in reversed(range(len(self._grad_layers))):
            w, gw, gb = self._grad_layers[i]
            gw += acts[i].T @ dz
            gb += dz.sum(axis=0)
            if i > 0:                           # through the tanh that made acts[i]
                # A width-1 layer's K = 1 matmul is the broadcast product, bit for bit
                # but for the sign of a zero, which the +0-started gradient sums drop.
                delta = dz * w.T if w.shape[1] == 1 else dz @ w.T
                h = acts[i]
                dz = h * h
                np.subtract(1.0, dz, out=dz)
                dz *= delta

    def meta(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            # Fixed tanh/identity; still listed so checkpoint headers keep their layout.
            "activations": ["tanh"] * (len(self.layer_sizes) - 2) + ["identity"],
            "seed": self.seed,
            "zero_init_output": self.zero_init_output,
        }


class Adam:
    """Adaptive-moment optimizer over a list of (params, grad) blocks.

    On construction it moves the blocks' params, and their grads, into one
    vector each, in block order, and points every block at its slice
    (`adopt`), so each step runs the moments, the update and the checks once
    over the whole vector. A block has one optimizer: one that another
    optimizer holds (its params are a view), or one listed twice, raises a
    ValueError.

    Rescales the joint gradient to norm `clip_norm` when it is larger (the
    default, math.inf, never clips); the norm adds each block's g @ g in block
    order. step() zeroes gradients and releases each Mlp block's kept
    forward, which the update makes stale. The moments and the step go
    through two work vectors, in the textbook update's arithmetic order.

    step() raises FloatingPointError on a non-finite gradient element (before
    changing anything) and on a non-finite parameter after the update, naming
    the block by its index in `blocks`, its kind and its size. Each check
    computes x @ x first (the clip norm needs it anyway): a nan or inf element
    makes x @ x nan or inf, and finite elements make it finite unless the sum
    overflows. Only a non-finite x @ x runs np.isfinite on each block, which
    tells a non-finite element (raise) from an overflow (a numpy warning only).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8     # the textbook constants

    def __init__(
        self,
        blocks: Sequence,
        lr: float = 3e-4,
        clip_norm: float = math.inf,
        weight_decay: float = 0.0,
    ):
        self.blocks = list(blocks)
        for i, block in enumerate(self.blocks):
            if block.params.base is not None or any(block is b for b in self.blocks[:i]):
                raise ValueError(f"{self._describe(i)} is already held by an optimizer")
        self.lr = float(lr)
        self.clip_norm = clip_norm
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._params = np.concatenate([b.params.ravel() for b in self.blocks])
        self._grad = np.concatenate([b.grad.ravel() for b in self.blocks])
        offset = 0
        for block in self.blocks:
            end = offset + block.params.size
            block.adopt(self._params[offset:end].reshape(block.params.shape),
                        self._grad[offset:end].reshape(block.grad.shape))
            offset = end
        self._m, self._v = np.zeros_like(self._params), np.zeros_like(self._params)
        self._work = (np.empty_like(self._params), np.empty_like(self._params))

    def _describe(self, i: int) -> str:
        block = self.blocks[i]
        return (f"block {i} of {len(self.blocks)} "
                f"({type(block).__name__}, {block.params.size} params)")

    def _check_finite(self, name: str, message: str) -> None:
        """Raise naming the first block whose `name` array ("params" or "grad") is non-finite."""
        for i, block in enumerate(self.blocks):
            if not np.isfinite(getattr(block, name)).all():
                raise FloatingPointError(f"{message} in {self._describe(i)}")

    def step(self) -> None:
        g, p, m, v = self._grad, self._params, self._m, self._v
        square = sum(float(b.grad @ b.grad) for b in self.blocks)
        if not math.isfinite(square):
            self._check_finite("grad", "non-finite gradient")
        total = np.sqrt(square)
        if total > self.clip_norm:
            g *= self.clip_norm / total
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        s1, s2 = self._work
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=s1)
        v *= self.beta2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - self.beta2
        v += s1
        if self.weight_decay:
            p *= 1.0 - self.lr * self.weight_decay  # decoupled decay
        np.divide(m, bc1, out=s1)
        s1 *= self.lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        p -= s1
        if not math.isfinite(p @ p):
            self._check_finite("params", "non-finite parameters after update")
        g[...] = 0.0
        for block in self.blocks:
            if isinstance(block, Mlp):
                block._kept = None


def minibatches(n: int, size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One shuffled pass over n rows: index chunks of at most size rows.

    Draws one shuffle of range(n) per call, before any chunk is used.
    """
    perm = rng.permutation(n)
    return [perm[start : start + size] for start in range(0, n, size)]


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and meta of a save_arrays file; bit-exact for float64 payloads.

    A header line that is not a JSON object listing each array's name and
    non-negative shape, a name listed twice, or a file size other than the
    header line plus those arrays, raises a ValueError naming the file before
    any array is read.
    """
    with open(path, "rb") as fh:
        try:                                   # JSONDecodeError, UnicodeDecodeError
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: header line is not JSON: {exc}") from exc
        entries = header.get("arrays") if isinstance(header, dict) else None
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(isinstance(n, int) and n >= 0 for n in e["shape"]) for e in entries):
            raise ValueError(f"{path}: header is not an object listing arrays by name and shape")
        names = [e["name"] for e in entries]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{path}: header lists array {name!r} twice")
        payload = 8 * sum(math.prod(e["shape"]) for e in entries)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != payload:
            raise ValueError(f"{path}: header lists {payload} bytes of arrays, file holds {held}")
        arrays = {}
        for e in entries:
            arrays[e["name"]] = a = np.empty(e["shape"], dtype="<f8")
            fh.readinto(a)
    return arrays, header.get("meta", {})


def save_arrays(path, arrays: dict, **meta) -> None:
    """Write a {name: array} map: a JSON header line (the meta, and each
    array's name and shape), then each array as raw little-endian float64
    bytes, in map order."""
    header = {"meta": meta, "arrays": [{"name": name, "shape": list(np.shape(a))}
                                       for name, a in arrays.items()], "dtype": "<f8"}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def save_blocks(path, blocks: dict, **meta) -> None:
    """Checkpoint a {name: Mlp or FlatParams} map through save_arrays: each block's
    params under its name, and each Mlp block's meta() under its name in the meta."""
    save_arrays(path, {name: b.params for name, b in blocks.items()},
                **{**{name: b.meta() for name, b in blocks.items() if isinstance(b, Mlp)}, **meta})


def load_blocks(path, blocks: dict) -> dict:
    """Copy the checkpoint at path into a {name: Mlp or FlatParams} map; returns its meta.

    Every block needs an array of its own name and shape in the file; else a
    ValueError names the file and the array, and no block is changed.
    """
    arrays, meta = load_params(path)
    copy_blocks(path, arrays, blocks)
    return meta


def copy_blocks(path, arrays: dict, blocks: dict) -> None:
    """`load_blocks` on the arrays of the checkpoint at path, already read."""
    for name, block in blocks.items():
        if name not in arrays:
            raise ValueError(f"{path}: no array {name!r} in checkpoint")
        if arrays[name].shape != block.params.shape:
            raise ValueError(f"{path}: array {name!r} has shape {arrays[name].shape}, "
                             f"expected {block.params.shape}")
    for name, block in blocks.items():
        block.params[...] = arrays[name]
        if isinstance(block, Mlp):
            block._kept = None
