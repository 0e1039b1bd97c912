import csv
import json
import re

import numpy as np
import pytest

import paired
from odirl.config import load_config, save_config
from odirl.irl import Discriminator, checkpoint_meta
from odirl.nets import save_arrays, save_blocks
from oracles import mlp_layers


def _run_dir(path, seed, returns, success, disc=None):
    """A run directory holding what the tool reads: summary.json, progress.csv (an
    evaluation row for each of returns, a row without one between them), and with
    disc, config.yaml (target wall 0.7) and checkpoints/disc_final.bin."""
    path.mkdir(parents=True)
    (path / "summary.json").write_text(json.dumps({"seed": seed, "final_success_rate": success}))
    with open(path / "progress.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "gt_return"])
        for i, ret in enumerate(returns):
            writer.writerows([[2 * i + 1, ""], [2 * i + 2, format(ret, ".10g")]])
    if disc is not None:
        save_config(load_config(overrides={"pointmaze": {"target_wall_length": 0.7}}),
                    path / "config.yaml")
        (path / "checkpoints").mkdir()
        save_blocks(path / "checkpoints" / "disc_final.bin", disc.blocks(), **checkpoint_meta(disc))


def test_paired_reports_each_pair_and_a_deterministic_bootstrap_of_known_differences(tmp_path):
    # change - base: returns (mean of the last 5 of 6 evaluations) shifted by each of shifts;
    # success rates equal
    shifts = [1.0, 2.0, 3.0, 6.0, -0.75, 2.5, 4.25, 0.5]
    for i, shift in enumerate(shifts):
        base = [-50.0 - 7 * i] * 6
        _run_dir(tmp_path / "base" / f"run{i}", i, base, 0.5)
        _run_dir(tmp_path / "change" / f"run{i}", i, [-1e3] + [b + shift for b in base[1:]], 0.5)
    lines = paired.compare(tmp_path / "base", tmp_path / "change")
    assert lines[1] == "run0 0 -50.0000,-49.0000,+1.0000 0.5000,0.5000,+0.0000"
    assert lines[4] == "run3 3 -71.0000,-65.0000,+6.0000 0.5000,0.5000,+0.0000"
    ret, success = lines[9:]
    match = re.fullmatch(r"gt_return_last5: mean diff \+2\.3125, 95% CI \[(\S+), (\S+)\], n=8", ret)
    assert match and 0.5 < float(match[1]) < 2.3125 < float(match[2]) < 4.25
    assert success == "final_success_rate: mean diff +0.0000, 95% CI [+0.0000, +0.0000], n=8"
    assert paired.compare(tmp_path / "base", tmp_path / "change") == lines


def test_paired_needs_the_same_runs_on_both_sides(tmp_path):
    _run_dir(tmp_path / "base" / "a", 1, [0.0], 0.0)
    _run_dir(tmp_path / "change" / "b", 1, [0.0], 0.0)
    with pytest.raises(ValueError, match="do not hold the same nonempty set of runs"):
        paired.compare(tmp_path / "base", tmp_path / "change")


def test_paired_reads_the_f_gap_of_each_final_discriminator(tmp_path, capsys):
    # Rows that cross x = 0.5 at 0.3 < y < 0.5 pass through the gap only the
    # source (wall 0.5) has, not the target (wall 0.7); the rest are feasible.
    y = np.array([0.35, 0.4, 0.45, 0.1, 0.2, 0.25, 0.8, 0.9])
    s = np.stack([np.where(y < 0.7, 0.45, 0.1), y], axis=1)
    s_next = s + [0.1, 0.0]
    save_arrays(tmp_path / "demos.bin", {"s": s, "a": s_next - s, "s_next": s_next})
    gaps = []
    for side, sign in (("base", 1.0), ("change", -1.0)):
        disc = Discriminator(2, 2, gamma=0.99, hidden=(3,), seed=4)   # h is zero: f = g(s)
        (w1, b1), (w2, b2) = mlp_layers(disc.g_net)
        w2[...] = sign * np.array([[1.0], [-0.5], [2.0]])
        b2[...] = 0.25
        f = (np.tanh(s @ w1.astype(np.float64) + b1) @ w2.astype(np.float64))[:, 0] + 0.25
        gaps.append((f[:3].mean() - f[3:].mean()) / f.std())
        _run_dir(tmp_path / side / "odirl_s1", 1, [-1.0], 0.0, disc)
    assert paired.main([str(tmp_path / "base"), str(tmp_path / "change"),
                        "--demos", str(tmp_path / "demos.bin")]) == 0
    out = capsys.readouterr().out.splitlines()
    got = [float(v) for v in out[1].split()[-1].split(",")]     # float32 f, printed to 4 places
    assert got == pytest.approx([gaps[0], gaps[1], gaps[1] - gaps[0]], abs=2e-4)
    assert gaps[0] > 0.5 and out[-1].startswith("f_gap: mean diff -")
