import hashlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phantomnet
from phantomnet.cli import main
from phantomnet.protocols import PROTOCOLS

SMALL_FIELD = ["--H", "8", "--n-nodes", "800", "--field-side", "1500"]

# What the four commands use at session level; routers, frames and the
# adversary's steps stay in their modules.
SESSION_NAMES = {
    "deploy", "Network", "SINK", "UNREACHABLE", "pick_source",
    "PROTOCOLS", "make_router", "RouteTrace", "run_session",
    "run_experiment", "emit_csv", "AggregateRow",
    "ExperimentConfig", "load_config", "parse_config",
    "SectorParams", "comm_overhead", "failure_path_probability",
    "make_tables", "phantom_count_hbdrw", "phantom_count_psspr",
    "phantom_count_pusbrf", "ratio_hbdrw_over_pusbrf",
    "ratio_pusbrf_over_psspr", "rmin_rmax_for",
}

# sha256 of the `tables` stdout and of each file --csv-dir writes. Every
# value is printed with two decimals, so the bytes do not depend on the
# host's last-bit rounding.
TABLES_SHA256 = {
    "stdout": "0b7c0e34382b61dde048dd9988cd2bc0438f5bd5efb02a931e16821568be88cd",
    "table2.csv": "c1a41ba572c31551dc5386d2b66e795fa7b5e4f5fa59412647f39a17535115f2",
    "table3.csv": "2cca1328345f18ab056200d2fe917ec87c402d39ec7426bb533b7065daeb1a41",
    "table4.csv": "137f0c9827b80b3ad9a5a60b451493a97d4bf7282284b83b8f97f75b5f67d0e4",
}


def test_namespace_is_the_session_surface():
    public = {name for name, value in vars(phantomnet).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == SESSION_NAMES


def test_tables_contains_reference_values(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "282.74" in out
    assert "31.42" in out
    assert "40.97" in out
    assert "16.48" in out


def test_tables_csv_dir(tmp_path, capsys):
    assert main(["tables", "--csv-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("table2.csv", "table3.csv", "table4.csv"):
        assert (tmp_path / name).exists()
    body = (tmp_path / "table4.csv").read_text()
    assert "10,8,12,18.04,62.83,282.74" in body


def test_tables_bytes_pinned(tmp_path, capsys):
    assert main(["tables", "--csv-dir", str(tmp_path)]) == 0
    got = {"stdout": capsys.readouterr().out.encode()}
    got.update((name, (tmp_path / name).read_bytes())
               for name in ("table2.csv", "table3.csv", "table4.csv"))
    assert {name: hashlib.sha256(body).hexdigest()
            for name, body in got.items()} == TABLES_SHA256


def test_analyze_prints_failure_probability(capsys):
    assert main(["analyze", "--h", "15", "--H", "60", "--r0", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.0800" in out
    assert "comm_overhead" in out


def test_analyze_domain_error_exit_code(capsys):
    # r0 beyond the path legs is a runtime (geometry) error.
    assert main(["analyze", "--h", "15", "--H", "60", "--r0", "61"]) == 2


@pytest.mark.parametrize("flag", [("--omega", "0"), ("--omega", "-2"),
                                  ("--omega", "3")])
def test_analyze_rejects_the_omega_simulate_rejects(flag, capsys):
    assert main(["analyze", "--h", "15", *flag]) == 1
    assert "error: omega must be even and >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--rmin", "10"), ("--rmax", "18")])
def test_analyze_rejects_a_lone_annulus_radius(flag, capsys):
    assert main(["analyze", "--h", "15", *flag]) == 1
    assert "error: --rmin and --rmax must be given together" in (
        capsys.readouterr().err)


def test_analyze_rejects_nan_visible_radius(capsys):
    assert main(["analyze", "--h", "15", "--r0", "nan"]) == 2
    assert "runtime error: r0 must be nonnegative" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert main(["tables", "--wat"]) == 1


def test_trace_outputs_csv(capsys):
    rc = main(["trace", "--protocol", "pusbrf", "--seed", "7",
               "--h", "4", "--H", "8", "--n-nodes", "800",
               "--field-side", "1500"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "packet_id,hop_index,node_id,phase"
    assert len(lines) > 2
    for i, line in enumerate(lines[1:]):
        pkt, idx, node, phase = line.split(",")
        assert pkt == "0" and int(idx) == i


def test_trace_network_dump(tmp_path, capsys):
    out = tmp_path / "field.csv"
    rc = main(["trace", "--protocol", "shortest-path", "--seed", "7",
               "--h", "4", "--H", "8", "--n-nodes", "800",
               "--field-side", "1500", "--network-out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert out.read_text().startswith("id,x,y,hop_to_sink,neighbor_count")


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("flag", [("--h", "0"), ("--omega", "3")])
def test_trace_bad_sweep_point_exits_one(protocol, flag, capsys):
    assert main(["trace", "--protocol", protocol, *flag, *SMALL_FIELD]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--r", "nan"), ("--field-side", "inf")])
def test_trace_non_finite_field_exits_one(flag, capsys):
    assert main(["trace", "--protocol", "psspr", *SMALL_FIELD, *flag]) == 1
    assert "error: n_nodes, field_side, r and r0 must be finite" in (
        capsys.readouterr().err)


def test_trace_negative_seed_exits_one(capsys):
    assert main(["trace", "--protocol", "psspr", "--seed", "-1",
                 *SMALL_FIELD]) == 1
    assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_simulate_bad_thread_count_exits_one(tmp_path, capsys, monkeypatch,
                                             threads):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_nodes = 800\nfield_side = 1500\n"
                   "protocols = shortest-path\nh = 5\nH = 8\nseeds = 1\n")
    monkeypatch.setenv("PHANTOMNET_THREADS", threads)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "res.csv")]) == 1
    err = capsys.readouterr().err
    assert "error: PHANTOMNET_THREADS" in err and repr(threads) in err


def test_simulate_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n_nodes = 800\n"
        "field_side = 1500\n"
        "protocols = shortest-path\n"
        "h = 5\n"
        "H = 8\n"
        "packets_per_run = 30\n"
        "seeds = 1,2\n")
    out = tmp_path / "res.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("protocol,h,H,")


def test_simulate_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("r0 = 10\n")  # r0 < r violates the invariant
    assert main(["simulate", "--config", str(cfg)]) == 1


def test_simulate_missing_file_exits_two(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_simulate_missing_output_directory_exits_one_before_the_sweep(
        tmp_path, capsys, monkeypatch):
    from phantomnet import cli
    ran = []

    def run_experiment(config):
        ran.append(config)
        return [phantomnet.AggregateRow("shortest-path", 5, 8, 9.0, 1.0, 1.0,
                                        1.0, 1)]
    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("protocols = shortest-path\nh = 5\nH = 8\nseeds = 1\n")
    out = tmp_path / "missing_dir" / "res.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output directory") and "missing_dir" in err
    assert not out.parent.exists()
    # An existing directory cannot be the output file either.
    out_dir = tmp_path / "a_dir"
    out_dir.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output path") and "a_dir" in err
    assert ran == []


# Runs in a fresh interpreter: simulate and trace must not load scipy;
# analyze and tables import it where they integrate.
SCIPY_GUARD = """
import sys
from phantomnet.cli import main
cfg, out = sys.argv[1:3]
assert main(["simulate", "--config", cfg, "--out", out]) == 0
assert main(["trace", "--protocol", "psspr", "--seed", "7", "--h", "4",
             "--H", "8", "--n-nodes", "800", "--field-side", "1500"]) == 0
print("scipy loaded after simulate and trace:", "scipy" in sys.modules)
assert main(["analyze", "--h", "15", "--H", "60", "--r0", "3"]) == 0
assert main(["tables"]) == 0
"""


def test_simulate_and_trace_do_not_import_scipy(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n_nodes = 800\n"
        "field_side = 1500\n"
        "protocols = psspr, hbdrw, pusbrf, shortest-path\n"
        "h = 4\n"
        "H = 8\n"
        "packets_per_run = 10\n"
        "seeds = 1\n")
    out = tmp_path / "res.csv"
    src = Path(phantomnet.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(cfg), str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "scipy loaded after simulate and trace: False" in proc.stdout
    assert len(out.read_text().splitlines()) == 5
    assert "0.0800" in proc.stdout and "comm_overhead" in proc.stdout
    assert "282.74" in proc.stdout
