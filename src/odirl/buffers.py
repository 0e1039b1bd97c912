"""Replay buffers and demonstration persistence.

Buffers are single-domain rings: pushing a transition whose tag does not
match the buffer is a correctness bug (domain contamination) and raises.
Demonstrations round-trip through CSV value-exactly with a JSON metadata
header line.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .envs import SOURCE, Trajectory, Transition, trajectory_header, trajectory_row

logger = logging.getLogger(__name__)


class ReplayBuffer:
    def __init__(self, capacity: int, domain_tag: str):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.domain_tag = domain_tag
        self._data: deque = deque(maxlen=self.capacity)

    def __len__(self):
        return len(self._data)

    def push(self, trajectory: Trajectory) -> None:
        for t in trajectory.transitions:
            if t.domain_tag != self.domain_tag:
                raise ValueError(
                    f"domain contamination: {t.domain_tag!r} transition pushed into "
                    f"{self.domain_tag!r} buffer"
                )
        self._data.extend(trajectory.transitions)

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        """n transitions uniform with replacement."""
        if len(self._data) == 0:
            raise ValueError("cannot sample from an empty buffer")
        if n == 0:
            return []
        idx = rng.integers(0, len(self._data), size=n)
        return [self._data[i] for i in idx]

    def transitions(self) -> list[Transition]:
        return list(self._data)


@dataclass
class DemoSet:
    """Expert demonstrations: source-domain trajectories plus provenance metadata."""

    trajectories: list[Trajectory]
    env_config_hash: str = ""
    expert_seed: int = 0
    horizon: int = 0
    _transitions: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self.trajectories:
            raise ValueError("demo set must be nonempty")
        for traj in self.trajectories:
            for t in traj.transitions:
                if t.domain_tag != SOURCE:
                    raise ValueError("demo transitions must be source-tagged")
        self._transitions = [t for traj in self.trajectories for t in traj.transitions]

    def __len__(self):
        return len(self._transitions)

    def transitions(self) -> list[Transition]:
        return self._transitions

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        idx = rng.integers(0, len(self._transitions), size=n)
        return [self._transitions[i] for i in idx]


def save_demos(demos: DemoSet, path) -> None:
    """Persist demos as CSV: one JSON metadata line, a header row, then rows.

    Rows are the trajectory-dump rows (``envs.trajectory_row``) between an
    episode index and the ground-truth reward, so loading reconstructs
    trajectories field-by-field.
    """
    first = demos.trajectories[0].transitions[0]
    sd, ad = first.s.shape[0], first.a.shape[0]
    meta = {
        "env_config_hash": demos.env_config_hash,
        "expert_seed": demos.expert_seed,
        "horizon": demos.horizon,
        "state_dim": sd,
        "action_dim": ad,
        "n_trajectories": len(demos.trajectories),
    }
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["episode", *trajectory_header(sd, ad), "gt_reward"])
        for ep, traj in enumerate(demos.trajectories):
            writer.writerows([ep, *trajectory_row(t), format(t.gt_reward, ".17g")]
                             for t in traj.transitions)


def load_demos(path, expected_spec=None, expected_config_hash: str | None = None) -> DemoSet:
    """Load a demo CSV written by save_demos.

    Malformed rows raise with their 1-based file line number. A config-hash
    mismatch logs a warning but the load proceeds.
    """
    with open(path, "r", newline="") as fh:
        meta_line = fh.readline()
        if not meta_line.startswith("#"):
            raise ValueError(f"{path}: line 1: missing JSON metadata header")
        try:
            meta = json.loads(meta_line.lstrip("#").strip())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line 1: bad metadata header: {exc}") from exc
        sd, ad = int(meta["state_dim"]), int(meta["action_dim"])
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
        reader = csv.reader(fh)
        header = next(reader, None)
        n_cols = 1 + sd + ad + sd + 3
        if header is None or len(header) != n_cols:
            raise ValueError(f"{path}: line 2: bad header, expected {n_cols} columns")
        episodes: dict[int, list[Transition]] = {}
        for line_no, row in enumerate(reader, start=3):
            if len(row) != n_cols:
                raise ValueError(
                    f"{path}: line {line_no}: expected {n_cols} columns, got {len(row)}"
                )
            try:
                ep = int(row[0])
                vals = [float(v) for v in row[1 : 1 + 2 * sd + ad]]
                done = bool(int(row[1 + 2 * sd + ad]))
                tag = row[2 + 2 * sd + ad]
                gt = float(row[3 + 2 * sd + ad])
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: unparseable value: {exc}") from exc
            vals = np.asarray(vals)
            episodes.setdefault(ep, []).append(
                Transition(
                    s=vals[:sd], a=vals[sd : sd + ad], s_next=vals[sd + ad :],
                    done=done, domain_tag=tag, gt_reward=gt,
                )
            )
    trajectories = [Trajectory(transitions=episodes[ep]) for ep in sorted(episodes)]
    return DemoSet(
        trajectories=trajectories,
        env_config_hash=meta.get("env_config_hash", ""),
        expert_seed=int(meta.get("expert_seed", 0)),
        horizon=int(meta.get("horizon", 0)),
    )
