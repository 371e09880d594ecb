import hashlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phantomnet
from phantomnet import adversary, harness
from phantomnet.analysis import make_tables
from phantomnet.cli import main
from phantomnet.config import load_config
from phantomnet.protocols import PROTOCOLS

SMALL_FIELD = {"n_nodes": 800, "field_side": 1500}


@pytest.fixture
def small_field(tmp_path):
    """``trace`` arguments for the 800-node field on 1500 m, at H = 8,
    with ``extra`` config values set over the field's (a config sets each
    key once)."""
    def argv(**extra):
        cfg = tmp_path / "field.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value
                               in {**SMALL_FIELD, **extra}.items()))
        return ["--config", str(cfg), "--H", "8"]
    return argv

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


@pytest.mark.pin
def test_tables_bytes_pinned(tmp_path, capsys):
    assert main(["tables", "--csv-dir", str(tmp_path)]) == 0
    got = {"stdout": capsys.readouterr().out.encode()}
    got.update((name, (tmp_path / name).read_bytes())
               for name in ("table2.csv", "table3.csv", "table4.csv"))
    assert {name: hashlib.sha256(body).hexdigest()
            for name, body in got.items()} == TABLES_SHA256


def test_analyze_prints_table3_phantom_distance(capsys):
    # One Monte-Carlo draw per preset h, the same in both commands, and
    # the same table 2 ratios and table 4 counts.
    for row in make_tables():
        assert main(["analyze", "--h", str(row["h"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {
            f"ratio_hbdrw_over_pusbrf = {row['hbdrw_over_pusbrf']:.2f} %",
            f"ratio_pusbrf_over_psspr = {row['pusbrf_over_psspr']:.2f} %",
            f"phantom_count_hbdrw  = {row['n_hbdrw']:.2f}",
            f"phantom_count_pusbrf = {row['n_pusbrf']:.2f}",
            f"phantom_count_psspr  = {row['n_psspr']:.2f}"} <= set(lines)
        line, = [line for line in lines
                 if line.startswith("avg_phantom_distance psspr")]
        assert line.startswith(
            f"avg_phantom_distance psspr = {row['distance_mc']:.2f} hops")


def test_analyze_prints_failure_probability(capsys):
    assert main(["analyze", "--h", "15", "--H", "60", "--r0", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.0800" in out
    assert "comm_overhead" in out


@pytest.mark.parametrize("H, outside", [(20, True), (23, True), (24, False)])
def test_analyze_flags_psspr_overhead_outside_its_geometry(H, outside, capsys):
    # h = 20 has r_max = 24: below it the exit-to-sink tail goes negative.
    assert main(["analyze", "--h", "20", "--H", str(H)]) == 0
    lines = capsys.readouterr().out.splitlines()
    psspr = [line for line in lines if line.startswith("comm_overhead psspr")]
    assert psspr == [f"comm_overhead psspr    = outside the formula's geometry "
                     f"(H={H} < r_max=24: the annulus reaches past the sink)"
                     if outside else "comm_overhead psspr    = 48.14 hops"]
    assert sum(line.endswith(" hops") for line in lines
               if line.startswith("comm_overhead")) == 3 - outside


@pytest.mark.parametrize("csv_dir", ["file", "file/sub"],
                         ids=["file-exists", "not-a-directory"])
def test_tables_unusable_csv_dir_prints_nothing(tmp_path, csv_dir, capsys):
    (tmp_path / "file").write_text("")
    assert main(["tables", "--csv-dir", str(tmp_path / csv_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("runtime error: ")


# A rejected input exits with the code of the first formula that rejects
# it and prints nothing: a geometry error exits 2, a parameter error 1.
# At h = 2 the default r_min is 1, so r0 = 1 is accepted with hx = 1.
@pytest.mark.parametrize("argv, code", [
    (["--h", "15", "--H", "60", "--r0", "61"], 2),     # r0 past a path leg
    (["--h", "8", "--H", "60", "--rmin", "8", "--rmax", "12"], 1),  # hx = 0
    (["--h", "1", "--H", "60"], 2),                    # r0 = 3 past h = 1
    (["--h", "2"], 2),                                 # r0 = 3 past h = 2
    (["--h", "2", "--r0", "1"], 0),                    # hx = 1 at r_min = 1
], ids=["r0-past-leg", "hx-zero", "h1", "h2", "h2-r0-1"])
def test_analyze_domain_error_exit_code(argv, code, capsys):
    assert main(["analyze", *argv]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "phantom_count_psspr  = 12.57" in captured.out.splitlines()
        assert captured.err == ""
        return
    assert captured.out == ""
    assert captured.err.startswith("runtime error: " if code == 2 else "error: ")


@pytest.mark.parametrize("argv, message", [
    (["--h", "1", "--r0", "0.5"], "h must be >= 2, got 1"),  # r0 fits h = 1
    (["--h", "5", "--H", "0"], "H must be >= 1, got 0"),
], ids=["h1", "H0"])
def test_analyze_rejects_h_and_H_below_their_floor(argv, message, capsys):
    assert main(["analyze", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_trace_outputs_csv(small_field, capsys):
    rc = main(["trace", "--protocol", "pusbrf", "--seed", "7", "--h", "4",
               *small_field()])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "packet_id,hop_index,node_id,phase"
    assert len(lines) > 2
    for i, line in enumerate(lines[1:]):
        pkt, idx, node, phase = line.split(",")
        assert pkt == "0" and int(idx) == i


# sha256 of the --network-out dump of the 800-node field on 1500 m, seed 7.
NETWORK_DUMP_SHA256 = (
    "f88a047ce048475975567ddc791dcd01cdcd0c7e7b2e27105f6257fe94219adb")


@pytest.mark.pin
def test_trace_network_dump(tmp_path, small_field, capsys):
    out = tmp_path / "field.csv"
    rc = main(["trace", "--protocol", "shortest-path", "--seed", "7",
               "--h", "4", *small_field(), "--network-out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "id,x,y,hop_to_sink,neighbor_count"
    # The header, then one row per node: the sink and every sensor.
    assert len(lines) == 1 + 1 + SMALL_FIELD["n_nodes"]
    sink = lines[1].split(",")
    assert sink[0] == "0" and sink[3] == "0"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NETWORK_DUMP_SHA256


# sha256 over the argv, exit code, stdout and stderr of each CLI_CALLS
# call, in order: the first packet of every protocol on the default
# field, PSSPR from hop-1 and farther sources (seeds 1-20 at H = 1), and
# `analyze` across h, H and both annulus choices, error exits included.
CLI_SHA256 = (
    "9a4c42c176354f02902234f3ee3a16dc973855c10f08de86dda0bdc8dddcd7e6")
CLI_CALLS = (
    [["trace", "--protocol", p, "--seed", str(seed)]
     for p in PROTOCOLS for seed in (1, 7)]
    + [["trace", "--protocol", "psspr", "--H", "1", "--h", "5",
        "--seed", str(seed)] for seed in range(1, 21)]
    + [["analyze", "--h", str(h), "--H", str(H), *annulus]
       for h in (0, 1, 2, 5, 10, 12, 15, 20, 25, 30) for H in (1, 20, 60)
       for annulus in ([], ["--rmin", "3", "--rmax", "9"])])


@pytest.mark.pin
def test_cli_outputs_pinned(capsys):
    assert len(CLI_CALLS) == 88
    digest = hashlib.sha256()
    for argv in CLI_CALLS:
        code = main(argv)
        out, err = capsys.readouterr()
        for part in (" ".join(argv), str(code), out, err):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == CLI_SHA256


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_prints_the_first_packet_run_one_routes(protocol, small_field,
                                                      capsys, monkeypatch):
    # run_one's traces, as its session's router returns them.
    routed = []
    real_make_router = adversary.make_router

    def make_router(*args, **kwargs):
        router = real_make_router(*args, **kwargs)

        def route(rng):
            routed.append(router(rng))
            return routed[-1]
        return route
    monkeypatch.setattr(adversary, "make_router", make_router)

    argv = small_field()
    config = load_config(argv[1])
    for seed in (1, 7):
        for h in (4, 6):
            assert main(["trace", "--protocol", protocol, "--seed", str(seed),
                         "--h", str(h), *argv]) == 0
            printed = capsys.readouterr().out.splitlines()[1:]
            routed.clear()
            harness.run_one(harness.RunSpec(protocol, h, 8, seed, config))
            first = routed[0]
            assert printed == [f"0,{i},{node},{phase}" for i, (node, phase)
                               in enumerate(zip(first.hops, first.phases))]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("flag", [
    (["--h", "0"], {}, "error: h and H values must be >= 1"),
    ([], {"omega": 3}, "error: omega must be even and >= 2, got 3"),
    (["--h", "-1"], {}, "error: h and H values must be >= 1")])
def test_trace_bad_sweep_point_exits_one(protocol, flag, small_field, capsys):
    args, extra, message = flag
    assert main(["trace", "--protocol", protocol, *args,
                 *small_field(**extra)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("r", "nan"), ("field_side", "inf")])
def test_trace_non_finite_field_exits_one(flag, small_field, capsys):
    key, value = flag
    assert main(["trace", "--protocol", "psspr",
                 *small_field(**{key: value})]) == 1
    assert "error: n_nodes, field_side, r and r0 must be finite" in (
        capsys.readouterr().err)


def test_trace_negative_seed_exits_one(small_field, capsys):
    assert main(["trace", "--protocol", "psspr", "--seed", "-1",
                 *small_field()]) == 1
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


def test_simulate_exits_two_when_a_cell_loses_every_run(tmp_path, capsys):
    # No node of these fields is 500 hops out: 3 of 33 runs fail, under
    # the 10% abort, yet they are all of the H = 500 cell.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_nodes = 400\nfield_side = 1200\n"
                   "protocols = shortest-path\nh = 5\n"
                   "H = 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 500\n"
                   "packets_per_run = 5\nseeds = 1, 2, 3\n")
    out = tmp_path / "res.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("3/33 runs failed: ")
    assert err[-1] == ("runtime error: every run failed for shortest-path "
                       "at h=5 H=500")
    assert not out.exists()


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


# Runs in a fresh interpreter with scipy blocked, so any import of it
# raises: every command must run on numpy alone.
SCIPY_GUARD = """
import sys
sys.modules["scipy"] = None
from phantomnet.cli import main
cfg, out = sys.argv[1:3]
assert main(["simulate", "--config", cfg, "--out", out]) == 0
assert main(["trace", "--config", cfg, "--protocol", "psspr", "--seed", "7",
             "--h", "4", "--H", "8"]) == 0
assert main(["analyze", "--h", "15", "--H", "60", "--r0", "3"]) == 0
assert main(["tables"]) == 0
"""

# The same commands with the process pool blocked: a run in one process
# must not import it.
POOL_GUARD = SCIPY_GUARD.replace(
    'sys.modules["scipy"] = None',
    'sys.modules["multiprocessing"] = None\n'
    'sys.modules["concurrent.futures.process"] = None')


def run_every_command(tmp_path, guard, env):
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
        [sys.executable, "-c", guard, str(cfg), str(out)],
        capture_output=True, text=True, timeout=120,
        env={**env, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 5
    assert "packet_id,hop_index,node_id,phase" in proc.stdout
    assert "0.0800" in proc.stdout and "comm_overhead" in proc.stdout
    assert "282.74" in proc.stdout


def test_no_command_imports_scipy(tmp_path):
    run_every_command(tmp_path, SCIPY_GUARD, os.environ)


def test_no_command_imports_the_pool_in_one_process(tmp_path):
    assert "concurrent.futures.process" in POOL_GUARD
    env = {k: v for k, v in os.environ.items() if k != "PHANTOMNET_THREADS"}
    run_every_command(tmp_path, POOL_GUARD, env)
