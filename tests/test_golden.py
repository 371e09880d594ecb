"""Pinned output bytes of a small fixed sweep.

``data/golden_small.csv`` was written by the simulator before the
network core moved to a k-d tree CSR graph, and has held since, through
the move to the scipy-free cell grid. Any change to deployment,
adjacency, flooding, routing, the adversary or aggregation that moves a
single output byte fails here. Regenerate the file only for a change
that means to alter results, and say so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from phantomnet.config import ExperimentConfig
from phantomnet.harness import emit_csv, run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden_small.csv"
GOLDEN_SHA256 = "b7067addb6c123fae6438fe9e936aa4be283af9c5321034a892c274e187adc6c"


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
