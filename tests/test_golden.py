"""Pinned output bytes of a small fixed sweep.

``data/golden_small.csv`` was written by the simulator before the
network core moved to a k-d tree CSR graph, and has held since, through
the move to the scipy-free cell grid. Any change to deployment,
adjacency, flooding, routing, the adversary or aggregation that moves a
single output byte fails here. Regenerate the file only for a change
that means to alter results, and say so in CHANGES.md.

``configs/paper.cfg``, the published scale, and the default sweep are
pinned by the SHA-256 of their CSVs.

Every pin of the output bytes, where its hash lives, and the command
that regenerates it. ``phantomnet`` stands for ``python -m phantomnet``
with ``src`` on ``PYTHONPATH``, ``empty.cfg`` is an empty file (every
key keeps its default), and a CSV's hash is its ``sha256sum``.
``PHANTOMNET_THREADS`` moves no byte of any of them.

========================  ==================  ============================
pin                       hash in             regenerated by
========================  ==================  ============================
``golden_small.csv``,     this file           ``phantomnet simulate
``GOLDEN_SHA256``                             --config small.cfg --out
                                              tests/data/golden_small.csv``
                                              with the small sweep's config
``PAPER_SHA256``          this file           ``phantomnet simulate
                                              --config configs/paper.cfg``
``DEFAULT_SWEEP_SHA256``  this file           ``phantomnet simulate
                                              --config empty.cfg``
``TRACE_SHA256``          test_trace_golden   the digest its test computes
``TABLES_SHA256``         test_cli            ``phantomnet tables --csv-dir
                                              DIR``: stdout and three CSVs
``NETWORK_DUMP_SHA256``   test_cli            ``phantomnet trace --config
                                              field.cfg --protocol
                                              shortest-path --seed 7 --h 4
                                              --H 8 --network-out f.csv``,
                                              field.cfg holding SMALL_FIELD
``CLI_SHA256``            test_cli            the digest its test computes
                                              over the 88 ``main(argv)``
                                              calls of CLI_CALLS
``REFERENCE_SHA256``,     perfbench/run.py    ``python3 perfbench/run.py
``SWEEP_SHA256``                              --workload NAME``; part of
                                              the benchmark, changed only
                                              with it
========================  ==================  ============================

``pytest -m pin`` runs the Tier-1 check of every pin above but the
perfbench ones (which ``perfbench/run.py`` checks on every call): each
such test carries the ``pin`` marker.
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
DEFAULT_SWEEP_SHA256 = (
    "964dadc2c10abb5288e1596c33dc7ac9a403dd6847fce7e8ca34b00c1afd69cc")


@pytest.mark.pin
def test_golden_file_is_intact():
    assert hashlib.sha256(GOLDEN.read_bytes()).hexdigest() == GOLDEN_SHA256


@pytest.mark.pin
@pytest.mark.parametrize("max_workers", [1, 2])
def test_small_sweep_matches_golden_bytes(tmp_path, max_workers):
    cfg = ExperimentConfig(
        n_nodes=800, field_side=1500.0,
        protocols=["psspr", "hbdrw", "pusbrf", "shortest-path"],
        h=[4, 6], H=[8], packets_per_run=40, seeds=[1, 2, 3]).validate()
    out = tmp_path / "golden.csv"
    emit_csv(run_experiment(cfg, max_workers=max_workers), str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.pin
def test_paper_scale_sweep_matches_pinned_hash(tmp_path):
    # 720 runs on 30 fields of 10,000 nodes; two workers halve the wait,
    # and the worker count moves no byte (the golden test runs both).
    out = tmp_path / "paper.csv"
    emit_csv(run_experiment(load_config(str(PAPER)), max_workers=2), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_SHA256


@pytest.mark.pin
def test_default_sweep_matches_pinned_hash(tmp_path, sweep_rows):
    # The rows the acceptance criteria share, so this costs no extra run.
    out = tmp_path / "sweep.csv"
    emit_csv(sweep_rows, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_SWEEP_SHA256
