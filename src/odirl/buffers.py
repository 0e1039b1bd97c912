"""Replay buffers and demonstration persistence.

Replay buffers are single-domain, append-only stores: pushing a batch whose
tag does not match the buffer is a correctness bug (domain contamination)
and raises.
Demonstrations are stored value-exactly in the checkpoint container of
`nets.save_arrays`, with their provenance as header meta.
"""

from __future__ import annotations

import logging
from dataclasses import InitVar, dataclass

import numpy as np

from .envs import SOURCE, Batch
from .nets import load_params, save_arrays

logger = logging.getLogger(__name__)
_DEMO_ARRAYS = ("s", "a", "s_next", "done", "gt_reward", "ends")    # a demo file's arrays


class ReplayBuffer:
    """Every (s, a, s_next) row pushed into it, oldest first, up to `capacity` rows.

    Each state is stored once: s, a and an episode-end flag per row, and each
    episode's last row and final state (other rows' s_next is the next row's
    s). The first push allocates the row arrays at `capacity` rows (`np.empty`,
    so rows not yet written are not resident); no push grows or copies them.
    The harness sizes each buffer to the rows its run can push: numpy backs
    arrays of 4 MB and more with huge pages, so the touched rows of an
    oversized buffer are resident in 2 MB units. A push past capacity raises.
    """

    def __init__(self, capacity: int, domain_tag: str):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.domain_tag = domain_tag
        self._arrays: tuple = ()      # s, a, ends
        self._episodes: tuple = ()    # last row, final state
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, batch: Batch) -> None:
        """Append whole episodes; any other batch raises before a row is written."""
        if batch.domain_tag != self.domain_tag:
            raise ValueError(
                f"domain contamination: {batch.domain_tag!r} batch pushed into "
                f"{self.domain_tag!r} buffer"
            )
        n = len(batch)
        if n == 0:
            return
        if self._size + n > self.capacity:
            raise ValueError(f"pushing {n} rows into a buffer holding {self._size} of "
                             f"{self.capacity} rows would overflow it")
        s, s_next, ends = batch.s, batch.s_next, batch.ends
        if ends is None or not ends[-1]:
            raise ValueError("a pushed batch needs ends, and its last row must end an episode")
        # bit for bit, as sample rebuilds s_next, wherever no episode ends
        bad = np.flatnonzero((s_next[:-1].view(np.int64) != s[1:].view(np.int64)).any(axis=1)
                             & ~ends[:-1])
        if len(bad):
            raise ValueError(f"row {bad[0]} of the pushed batch: s_next is not the next row's s")
        if not self._arrays:
            self._arrays = (*(np.empty((self.capacity, x.shape[1])) for x in (s, batch.a)),
                            np.empty(self.capacity, dtype=bool))
            self._episodes = (np.empty(0, dtype=np.intp), np.empty((0, s.shape[1])))
        for dst, src in zip(self._arrays, (s, batch.a, ends)):
            dst[self._size:self._size + n] = src
        self._episodes = tuple(np.concatenate(x) for x in zip(
            self._episodes, (self._size + np.flatnonzero(ends), s_next[ends])))
        self._size += n

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """n rows uniform with replacement (no draw for n = 0)."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=n)
        (s, a, ends), (last_rows, finals) = self._arrays, self._episodes
        end = ends[idx]
        s_next = s[np.where(end, idx, idx + 1)]             # the next row's s inside an episode
        s_next[end] = finals[np.searchsorted(last_rows, idx[end])]
        return Batch(s[idx], a[idx], s_next, self.domain_tag)


@dataclass
class DemoSet:
    """Expert demonstrations: one source-domain batch plus provenance metadata.

    The batch must carry every array a demo file stores (done, gt_reward and
    ends as well as s, a and s_next). ``DemoSet(trajectories=...)`` packs a
    list of ``Trajectory`` episodes into the batch instead.
    """

    batch: Batch | None = None
    env_config_hash: str = ""
    expert_seed: int = 0
    horizon: int = 0
    trajectories: InitVar[list | None] = None

    def __post_init__(self, trajectories):
        if trajectories is not None:
            self.batch = Batch.of(trajectories)
        if self.batch is None or len(self.batch) == 0:
            raise ValueError("demo set must be nonempty")
        if self.batch.domain_tag != SOURCE:
            raise ValueError("demo transitions must be source-tagged")
        for name in _DEMO_ARRAYS:
            if getattr(self.batch, name) is None:
                raise ValueError(f"demo set has no {name!r} array")

    def __len__(self):
        return len(self.batch)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, Batch]:
        """n rows uniform with replacement: their indices into `batch`, and the rows."""
        idx = rng.integers(0, len(self.batch), size=n)
        return idx, self.batch.rows(idx)


def save_demos(demos: DemoSet, path) -> None:
    """Persist demos through the checkpoint container (`nets.save_arrays`):
    the batch's s, a, s_next, done, gt_reward and ends arrays, with the
    provenance, the dims and the domain tag as header meta."""
    batch = demos.batch
    save_arrays(path, {name: getattr(batch, name) for name in _DEMO_ARRAYS},
                env_config_hash=demos.env_config_hash, expert_seed=demos.expert_seed,
                horizon=demos.horizon, state_dim=batch.s.shape[1], action_dim=batch.a.shape[1],
                domain_tag=batch.domain_tag)


def load_demos(path, expected_spec, expected_config_hash: str) -> DemoSet:
    """Load a demo file written by save_demos for an env of `expected_spec`
    under env config hash `expected_config_hash`.

    Dims other than the spec's, a malformed file (see `nets.load_params`), a
    missing or misshapen array, a non-finite s, a or s_next value, a done or
    ends other than 0 or 1, a last row that ends no episode and a set without
    source-tagged rows raise a ValueError naming the file, and the array and
    its 0-based row where one applies. A config-hash mismatch logs a warning
    but the load proceeds.
    """
    arrays, meta = load_params(path)
    for key in ("state_dim", "action_dim"):
        if not isinstance(meta, dict) or not isinstance(meta.get(key), int):
            raise ValueError(f"{path}: metadata has no integer {key!r}")
    sd, ad = meta["state_dim"], meta["action_dim"]
    if (sd, ad) != (expected_spec.state_dim, expected_spec.action_dim):
        raise ValueError(f"{path}: demo dims (s={sd}, a={ad}) do not match env spec "
                         f"(s={expected_spec.state_dim}, a={expected_spec.action_dim})")
    if meta.get("env_config_hash") != expected_config_hash:
        logger.warning("demo file %s was recorded under env config hash %s, expected %s; loading "
                       "anyway", path, meta.get("env_config_hash"), expected_config_hash)
    rows = arrays["s"].shape[:1] if "s" in arrays else ()
    for name, width in zip(_DEMO_ARRAYS, [(sd,), (ad,), (sd,), (), (), ()]):
        if name not in arrays:
            raise ValueError(f"{path}: no array {name!r} in demo file")
        if arrays[name].shape != rows + width:
            raise ValueError(f"{path}: array {name!r} has shape {arrays[name].shape}, "
                             f"expected {rows + width}")
    # gt_reward stays unchecked: learning never reads it.
    for name in ("s", "a", "s_next"):
        bad = np.argwhere(~np.isfinite(arrays[name]))
        if len(bad):
            row, col = bad[0]
            raise ValueError(f"{path}: array {name!r} row {row}: {name}_{col} must be finite, "
                             f"not {float(arrays[name][row, col])!r}")
    for name in ("done", "ends"):
        bad = np.flatnonzero((arrays[name] != 0) & (arrays[name] != 1))
        if len(bad):
            raise ValueError(f"{path}: array {name!r} row {bad[0]}: {name} must be 0 or 1, "
                             f"not {arrays[name][bad[0]]:g}")
    if rows[0] and not arrays["ends"][-1]:
        raise ValueError(f"{path}: array 'ends' row {rows[0] - 1}: the last row ends no episode")
    batch = Batch(arrays["s"], arrays["a"], arrays["s_next"], meta.get("domain_tag"),
                  done=arrays["done"].astype(bool), gt_reward=arrays["gt_reward"],
                  ends=arrays["ends"].astype(bool))
    try:
        return DemoSet(batch, env_config_hash=meta.get("env_config_hash", ""),
                       expert_seed=int(meta.get("expert_seed", 0)),
                       horizon=int(meta.get("horizon", 0)))
    except ValueError as exc:                  # no rows, or not source-tagged
        raise ValueError(f"{path}: {exc}") from exc
