"""Replay buffers and demonstration persistence.

Buffers are single-domain rings: pushing a batch whose tag does not match
the buffer is a correctness bug (domain contamination) and raises.
Demonstrations round-trip through CSV value-exactly with a JSON metadata
header line.
"""

from __future__ import annotations

import json
import logging
from dataclasses import InitVar, dataclass
from itertools import zip_longest

import numpy as np

from .envs import SOURCE, Batch, trajectory_header, trajectory_rows

logger = logging.getLogger(__name__)


class ReplayBuffer:
    """The newest `capacity` (s, a, s_next) rows of one domain, in a numpy ring.

    The ring's arrays grow by doubling up to `capacity` rows, so a large
    capacity costs memory only as the buffer fills. Once full, a push
    overwrites the oldest rows: row i, oldest first, sits at
    (head + i) % capacity.
    """

    def __init__(self, capacity: int, domain_tag: str):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.domain_tag = domain_tag
        self._arrays: tuple = ()      # s, a, s_next
        self._head = 0
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, batch: Batch) -> None:
        if batch.domain_tag != self.domain_tag:
            raise ValueError(
                f"domain contamination: {batch.domain_tag!r} batch pushed into "
                f"{self.domain_tag!r} buffer"
            )
        new = [x[-self.capacity:] for x in (batch.s, batch.a, batch.s_next)]
        n = len(new[0])
        if n == 0:
            return
        size = min(self._size + n, self.capacity)
        if not self._arrays or size > len(self._arrays[0]):
            # Only a ring that has never wrapped grows, so its rows start at 0.
            rows = min(self.capacity, max(size, 2 * len(self._arrays[0]) if self._arrays else 0))
            grown = tuple(np.empty((rows, x.shape[1])) for x in new)
            for dst, src in zip(grown, self._arrays):
                dst[: self._size] = src[: self._size]
            self._arrays = grown
        at = (self._head + self._size + np.arange(n)) % self.capacity
        for dst, src in zip(self._arrays, new):
            dst[at] = src
        self._head = (self._head + self._size + n - size) % self.capacity
        self._size = size

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """n rows uniform with replacement (no draw for n = 0)."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=n) if n else np.zeros(0, dtype=np.intp)
        at = (self._head + idx) % self.capacity
        s, a, s_next = (x[at] for x in self._arrays)
        return Batch(s, a, s_next, self.domain_tag)


@dataclass
class DemoSet:
    """Expert demonstrations: one source-domain batch plus provenance metadata.

    ``DemoSet(trajectories=...)`` packs a list of ``Trajectory`` episodes
    into the batch instead.
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

    def __len__(self):
        return len(self.batch)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, Batch]:
        """n rows uniform with replacement: their indices into `batch`, and the rows."""
        idx = rng.integers(0, len(self.batch), size=n)
        return idx, self.batch.rows(idx)


def save_demos(demos: DemoSet, path) -> None:
    """Persist demos as CSV: one JSON metadata line, a header row, then rows.

    Rows are the trajectory-dump rows (``envs.trajectory_rows``) between an
    episode index and the ground-truth reward, so loading reconstructs
    the batch field by field.
    """
    batch = demos.batch
    sd, ad = batch.s.shape[1], batch.a.shape[1]
    meta = {
        "env_config_hash": demos.env_config_hash,
        "expert_seed": demos.expert_seed,
        "horizon": demos.horizon,
        "state_dim": sd,
        "action_dim": ad,
        "n_trajectories": int(batch.ends.sum()),
    }
    episode = np.cumsum(batch.ends) - batch.ends       # episode index of each row
    header = ["episode", *trajectory_header(sd, ad), "gt_reward"]
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta) + "\n" + ",".join(header) + "\r\n")
        fh.writelines(f"{ep},{line},{gt:.17g}\r\n" for ep, line, gt in
                      zip(episode.tolist(), trajectory_rows(batch), batch.gt_reward.tolist()))


def load_demos(path, expected_spec=None, expected_config_hash: str | None = None) -> DemoSet:
    """Load a demo CSV written by save_demos (LF or CRLF line ends, no quoted cells).

    Malformed rows, a non-finite s, a or s_next value and a done other than
    0 or 1 raise with their 1-based file line number, and a file without
    source-tagged rows names the file. A config-hash mismatch logs a warning
    but the load proceeds.
    """
    with open(path, "r") as fh:                # universal newlines: CRLF reads as LF
        meta_line = fh.readline()
        if not meta_line.startswith("#"):
            raise ValueError(f"{path}: line 1: missing JSON metadata header")
        try:
            meta = json.loads(meta_line.lstrip("#").strip())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line 1: bad metadata header: {exc}") from exc
        for key in ("state_dim", "action_dim"):
            if not isinstance(meta, dict) or not isinstance(meta.get(key), int):
                raise ValueError(f"{path}: line 1: metadata header has no integer {key!r}")
        sd, ad = meta["state_dim"], meta["action_dim"]
        if expected_spec is not None:
            if sd != expected_spec.state_dim or ad != expected_spec.action_dim:
                raise ValueError(
                    f"{path}: demo dims (s={sd}, a={ad}) do not match env spec "
                    f"(s={expected_spec.state_dim}, a={expected_spec.action_dim})"
                )
        if expected_config_hash is not None and meta.get("env_config_hash") != expected_config_hash:
            logger.warning(
                "demo file %s was recorded under env config hash %s, expected %s; loading anyway",
                path, meta.get("env_config_hash"), expected_config_hash,
            )
        header = _cells(fh.readline())
        expected = ["episode", *trajectory_header(sd, ad), "gt_reward"]
        if header != expected:                 # name the first differing column; None: absent
            col, got, want = next((i, h, e) for i, (h, e)
                                  in enumerate(zip_longest(header, expected)) if h != e)
            raise ValueError(f"{path}: line 2: bad header: column {col + 1} is {got!r}, "
                             f"expected {want!r}")
        n_cols = len(expected)
        rows = []
        for line_no, line in enumerate(fh, start=3):
            if '"' in line:
                raise ValueError(f"{path}: line {line_no}: quoted cell (demo files hold none)")
            row = _cells(line)
            if len(row) != n_cols:
                raise ValueError(
                    f"{path}: line {line_no}: expected {n_cols} columns, got {len(row)}"
                )
            rows.append(row)
    n_vals = 2 * sd + ad
    columns = list(zip(*rows)) or [()] * n_cols
    try:                                       # numpy parses each cell with int() / float()
        episodes = np.array(columns[0], dtype=np.int64)
        values = np.array(columns[1 : 1 + n_vals], dtype=np.float64).T
        dones = np.array(columns[1 + n_vals], dtype=np.int64)
        rewards = np.array(columns[3 + n_vals], dtype=np.float64)
    except ValueError:
        _raise_unparseable(path, rows, n_vals)
        raise
    tags = set(columns[2 + n_vals])
    if len(tags) > 1:
        raise ValueError(f"{path}: rows mix domain tags {sorted(tags)}")
    # gt_reward stays unchecked: learning never reads it.
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"{path}: line {row + 3}: {expected[1 + col]} must be finite, "
                         f"not {float(values[row, col])!r}")
    bad = np.flatnonzero((dones != 0) & (dones != 1))
    if len(bad):
        raise ValueError(f"{path}: line {bad[0] + 3}: done must be 0 or 1, not {dones[bad[0]]}")
    # Rows grouped by episode index, in file order within an episode.
    order = np.argsort(episodes, kind="stable")
    ep = episodes[order]
    s, a, s_next = (np.ascontiguousarray(x) for x in np.split(values[order], [sd, sd + ad], axis=1))
    batch = Batch(s, a, s_next, tags.pop() if tags else SOURCE,
                  done=dones[order].astype(bool), gt_reward=rewards[order],
                  ends=np.append(ep[1:] != ep[:-1], True)[: len(ep)])
    try:
        return DemoSet(batch, env_config_hash=meta.get("env_config_hash", ""),
                       expert_seed=int(meta.get("expert_seed", 0)),
                       horizon=int(meta.get("horizon", 0)))
    except ValueError as exc:                  # no rows, or only target-tagged ones
        raise ValueError(f"{path}: {exc}") from exc


def _cells(line: str) -> list[str]:
    """The comma-separated cells of one line read with universal newlines; [] for a blank line."""
    line = line.rstrip("\n")
    return line.split(",") if line else []


def _raise_unparseable(path, rows, n_vals: int) -> None:
    """Raise for the first row, in file order, with a cell that int() or float()
    rejects, naming its line and the cell's error."""
    for line_no, row in enumerate(rows, start=3):
        try:
            int(row[0])
            list(map(float, row[1 : 1 + n_vals]))
            int(row[1 + n_vals])
            float(row[3 + n_vals])
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: unparseable value: {exc}") from exc
