"""Dense networks with hand-written backprop, Adam, and flat-file checkpoints.

Everything is float64 numpy. Parameters live in a single flat vector per
network so optimizers, checkpoints, and gradient checks can treat every
trainable object uniformly through the (params, grad) interface.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

ACTIVATIONS = ("tanh", "relu", "identity")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _activate_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if name == "relu":
        return np.where(z > 0.0, 1.0, 0.0)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


class FlatParams:
    """A bare trainable vector (e.g. a Gaussian policy's log-std)."""

    def __init__(self, values: np.ndarray, name: str = "params"):
        self.params = np.asarray(values, dtype=np.float64).copy()
        self.grad = np.zeros_like(self.params)
        self.name = name
        self.version = 0


class Mlp:
    """Fully connected network with cached forward and accumulating backward.

    layer_sizes is the full chain [in, h1, ..., out]; activations has one
    entry per weight layer (default: tanh on hidden layers, identity on the
    output). Parameters are a flat float64 vector; per-layer weight/bias
    views share its memory, so in-place optimizer updates are visible
    everywhere.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        activations: Sequence[str] | None = None,
        seed: int = 0,
        zero_init_output: bool = False,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(int(n) < 1 for n in layer_sizes):
            raise ValueError("layer sizes must be positive")
        self.layer_sizes = [int(n) for n in layer_sizes]
        n_layers = len(self.layer_sizes) - 1
        if activations is None:
            activations = ["tanh"] * (n_layers - 1) + ["identity"]
        if len(activations) != n_layers:
            raise ValueError("need one activation per weight layer")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.activations = list(activations)
        self.seed = int(seed)
        self.zero_init_output = bool(zero_init_output)

        n_params = sum(
            (self.layer_sizes[i] + 1) * self.layer_sizes[i + 1] for i in range(n_layers)
        )
        self.params = np.zeros(n_params, dtype=np.float64)
        self.grad = np.zeros_like(self.params)
        self.version = 0

        # Per-layer views into the flat vectors.
        self._w_views: list[np.ndarray] = []
        self._b_views: list[np.ndarray] = []
        self._gw_views: list[np.ndarray] = []
        self._gb_views: list[np.ndarray] = []
        offset = 0
        for i in range(n_layers):
            fan_in, fan_out = self.layer_sizes[i], self.layer_sizes[i + 1]
            self._w_views.append(self.params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            self._gw_views.append(self.grad[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            self._b_views.append(self.params[offset : offset + fan_out])
            self._gb_views.append(self.grad[offset : offset + fan_out])
            offset += fan_out

        self._init_weights()
        self._cache = None

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def weights(self, layer: int) -> np.ndarray:
        return self._w_views[layer]

    def biases(self, layer: int) -> np.ndarray:
        return self._b_views[layer]

    def _init_weights(self) -> None:
        rng = np.random.default_rng(self.seed)
        n_layers = len(self.layer_sizes) - 1
        for i in range(n_layers):
            bound = 1.0 / np.sqrt(self.layer_sizes[i])
            self._w_views[i][...] = rng.uniform(-bound, bound, self._w_views[i].shape)
            self._b_views[i][...] = rng.uniform(-bound, bound, self._b_views[i].shape)
        if self.zero_init_output:
            self._w_views[-1][...] = 0.0
            self._b_views[-1][...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the net on x of shape (in,) or (batch, in); caches for backward."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.ndim != 2 or x2.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got shape {x.shape}")
        if not np.all(np.isfinite(x2)):
            raise ValueError("non-finite network input")
        acts = [x2]
        pre = []
        h = x2
        for i in range(len(self._w_views)):
            z = h @ self._w_views[i] + self._b_views[i]
            pre.append(z)
            h = _activate(self.activations[i], z)
            acts.append(h)
        self._cache = {"input": x2.copy(), "pre": pre, "acts": acts, "version": self.version}
        out = acts[-1]
        return out[0] if single else out

    def backward(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Accumulate d(sum(upstream * output))/d(params) into grad.

        Requires a forward pass cached for exactly this input since the last
        parameter update; returns the gradient with respect to the input.
        """
        x = np.asarray(x, dtype=np.float64)
        upstream = np.asarray(upstream, dtype=np.float64)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        u2 = upstream[None, :] if single else upstream
        cache = self._cache
        if cache is None or cache["version"] != self.version or not np.array_equal(cache["input"], x2):
            raise RuntimeError("stale forward cache: call forward on this input first")
        if u2.shape != (x2.shape[0], self.out_dim):
            raise ValueError(f"upstream shape {upstream.shape} does not match output")
        delta = u2
        for i in reversed(range(len(self._w_views))):
            dz = delta * _activate_grad(self.activations[i], cache["pre"][i])
            self._gw_views[i] += cache["acts"][i].T @ dz
            self._gb_views[i] += dz.sum(axis=0)
            delta = dz @ self._w_views[i].T
        return delta[0] if single else delta

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def meta(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            "activations": self.activations,
            "seed": self.seed,
            "zero_init_output": self.zero_init_output,
        }


class Adam:
    """Adaptive-moment optimizer over a list of (params, grad) blocks.

    Optionally rescales the joint gradient to a maximum norm before the
    update. step() zeroes gradients and bumps each block's version so stale
    forward caches are detectable.
    """

    def __init__(
        self,
        blocks: Sequence,
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        clip_norm: float | None = None,
        weight_decay: float = 0.0,
    ):
        self.blocks = list(blocks)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.clip_norm = clip_norm
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(b.params) for b in self.blocks]
        self._v = [np.zeros_like(b.params) for b in self.blocks]

    def step(self) -> None:
        grads = [b.grad for b in self.blocks]
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient")
        if self.clip_norm is not None:
            total = np.sqrt(sum(float(g @ g) for g in grads))
            if total > self.clip_norm and total > 0.0:
                scale = self.clip_norm / total
                for g in grads:
                    g *= scale
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for block, m, v, g in zip(self.blocks, self._m, self._v, grads):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                block.params *= 1.0 - self.lr * self.weight_decay  # decoupled decay
            block.params -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if not np.all(np.isfinite(block.params)):
                raise FloatingPointError("non-finite parameters after update")
            block.grad[...] = 0.0
            block.version += 1


def finite_difference_check(
    net: Mlp,
    rng: np.random.Generator,
    n_draws: int = 10,
    eps: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-6,
) -> float:
    """Compare analytic parameter gradients against central differences.

    For each draw a fresh random input and upstream vector are used and every
    parameter is perturbed. Returns the worst relative error seen; raises
    AssertionError on the first parameter outside tolerance.
    """
    worst = 0.0
    for _ in range(n_draws):
        x = rng.normal(size=net.in_dim)
        upstream = rng.normal(size=net.out_dim)
        net.zero_grad()
        net.forward(x)
        net.backward(x, upstream)
        analytic = net.grad.copy()
        net.zero_grad()
        for j in range(net.params.size):
            orig = net.params[j]
            net.params[j] = orig + eps
            up = float(net.forward(x) @ upstream)
            net.params[j] = orig - eps
            down = float(net.forward(x) @ upstream)
            net.params[j] = orig
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


def save_params(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named float64 arrays as a JSON header line plus raw bytes."""
    entries = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape)})
    header = {"meta": meta or {}, "arrays": entries, "dtype": "<f8"}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for name in arrays:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of save_params; bit-exact for float64 payloads."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"truncated checkpoint reading {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return arrays, header.get("meta", {})
