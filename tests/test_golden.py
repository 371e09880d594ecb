"""Pinned output bytes of a small fixed sweep.

``data/golden_small.csv`` was written by the simulator before the
network core moved to a k-d tree CSR graph, and has held since, through
the move to the scipy-free cell grid. Any change to deployment,
adjacency, flooding, routing, the adversary or aggregation that moves a
single output byte fails here. Regenerate the file only for a change
that means to alter results, and say so in CHANGES.md.

``configs/paper.cfg``, the published scale, is pinned by the SHA-256 of
its CSV.
"""

import hashlib
from pathlib import Path

import pytest

from phantomnet.config import ExperimentConfig, load_config
from phantomnet.harness import emit_csv, run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden_small.csv"
GOLDEN_SHA256 = "b7067addb6c123fae6438fe9e936aa4be283af9c5321034a892c274e187adc6c"
PAPER = Path(__file__).parents[1] / "configs" / "paper.cfg"
PAPER_SHA256 = "273aaecbf0135e8b4a3ce8deb21de8f73a262a14dd86e6a1400da13b63c90c7d"


def test_golden_file_is_intact():
    assert hashlib.sha256(GOLDEN.read_bytes()).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("max_workers", [1, 2])
def test_small_sweep_matches_golden_bytes(tmp_path, max_workers):
    cfg = ExperimentConfig(
        n_nodes=800, field_side=1500.0,
        protocols=["psspr", "hbdrw", "pusbrf", "shortest-path"],
        h=[4, 6], H=[8], packets_per_run=40, seeds=[1, 2, 3]).validate()
    out = tmp_path / "golden.csv"
    emit_csv(run_experiment(cfg, max_workers=max_workers), str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_paper_scale_sweep_matches_pinned_hash(tmp_path):
    # 720 runs on 30 fields of 10,000 nodes; two workers halve the wait,
    # and the worker count moves no byte (the golden test runs both).
    out = tmp_path / "paper.csv"
    emit_csv(run_experiment(load_config(str(PAPER)), max_workers=2), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_SHA256
