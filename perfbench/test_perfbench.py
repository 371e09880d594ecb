"""Checks of the benchmark itself: tracing leaves the output alone, failed
runs and packets are counted right, and every printed metric is declared.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workload  # noqa: E402

SMALL = """\
n_nodes = 800
field_side = 1500
protocols = psspr, hbdrw, pusbrf, shortest-path
h = 5
H = 8
packets_per_run = 20
seeds = 1, 2, 3, 4, 5
"""

# Seed 5 of this 400-node field leaves more than 1% of its sensors cut
# off from the sink; the other nine seeds deploy.
SPARSE = """\
n_nodes = 400
field_side = 1200
protocols = shortest-path
h = 5
H = 4
packets_per_run = 5
seeds = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
"""


def simulate(tmp_path, text, name, **kwargs):
    """One measured simulate call, summarised as run.py summarises it."""
    out = tmp_path / f"{name}.csv"
    call = workload.simulate(text, str(out), **kwargs)
    data = out.read_bytes()
    # run.run_call measures these across processes; any values will do.
    call.update(run.csv_summary(data), setup_s=0.5, loop_s=run.REF_LOOP_S,
                import_s=run.REF_IMPORT_S, csv=data)
    return call


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    return {"plain": simulate(tmp, SMALL, "plain"),
            "traced": simulate(tmp, SMALL, "traced", trace=True),
            "pool": simulate(tmp, SMALL, "pool", trace=True, max_workers=2)}


def test_tracing_leaves_csv_bytes_unchanged(small):
    assert small["traced"]["csv"] == small["plain"]["csv"]
    assert small["pool"]["csv"] == small["plain"]["csv"]
    # Every run and deploy happened in a pool worker and was handed back.
    layers = small["pool"]["layers"]
    assert layers["harness.run_one.count"][0] == small["plain"]["runs"]
    assert layers["harness.pool.deploys"][0] == layers["net.deploy.count"][0]
    assert layers["net.deploy.count"][0] > 0


def test_failed_run_is_counted(tmp_path):
    call = simulate(tmp_path, SPARSE, "sparse", trace=True)
    assert call["runs"] == 10 and call["runs_ok"] == 9
    ratio = run.end_to_end([call])["completed_run_ratio"]["value"]
    assert ratio == pytest.approx(0.9)
    assert call["failed_runs"] == [
        ["shortest-path", 5, 4, 5, "ConnectivityError"]]
    assert call["layers"]["harness.failed_runs"][0] == 1


def test_csv_packets_equal_traced_packets(small):
    for kind in ("traced", "pool"):
        layers = small[kind]["layers"]
        routed = sum(layers[f"route.{p}.packets"][0]
                     for p in ("psspr", "hbdrw", "pusbrf", "shortest-path"))
        assert small[kind]["packets"] == routed > 0


def test_printed_metrics_are_declared(small):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    printed = {
        "end_to_end": run.end_to_end([small["plain"]]),
        "per_layer": run.per_layer([small["traced"]], [small["plain"]]),
    }
    for kind, metrics in printed.items():
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert set(metrics) == set(units)
        for name, metric in metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", name)
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
