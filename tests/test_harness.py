import concurrent.futures
import contextlib
import math
import os
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phantomnet as pn
from phantomnet.config import DEFAULTS, ExperimentConfig, load_config, parse_config
from phantomnet.errors import HarnessError, InvalidParameter, ParseError
from phantomnet.harness import (RunSpec, emit_csv, pick_source, run_experiment,
                                run_one, start_run)
from phantomnet.protocols import PROTOCOLS


def tiny_config(**over):
    base = dict(n_nodes=800, field_side=1500.0, r=100.0, r0=300.0,
                protocols=["shortest-path"], h=[5], H=[8],
                packets_per_run=40, seeds=[1, 2, 3],
                output_path="out.csv")
    base.update(over)
    return ExperimentConfig(**base).validate()


class TestConfigParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(str(path))
        for key, val in DEFAULTS.items():
            assert getattr(cfg, key) == val

    def test_values_comments_and_lists(self):
        cfg = parse_config(
            "# experiment setup\n"
            "n_nodes = 500\n"
            "r = 80.0   # meters\n"
            "protocols = psspr, pusbrf\n"
            "h = 5,10,15,20,25,30\n"
            "H = 60\n"
            "seeds = 1, 2\n")
        assert cfg.n_nodes == 500
        assert cfg.r == 80.0
        assert cfg.protocols == ["psspr", "pusbrf"]
        assert cfg.h == [5, 10, 15, 20, 25, 30]
        assert cfg.H == [60]
        assert cfg.validate().sweep_points == [
            (5, 60), (10, 60), (15, 60), (20, 60), (25, 60), (30, 60)]

    def test_sweep_over_H(self):
        cfg = parse_config("h = 15\nH = 10,15,20,25\n").validate()
        assert cfg.sweep_points == [(15, 10), (15, 15), (15, 20), (15, 25)]

    @pytest.mark.parametrize("text,fragment", [
        ("nonsense\n", "key = value"),
        ("what_is_this = 4\n", "unknown key"),
        ("n_nodes = many\n", "bad value"),
        ("r0 =\n", "empty value"),
    ])
    def test_parse_errors_carry_line_info(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert ":1:" in str(err.value)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text,key,first", [
        # Without the check the last line would win without a word.
        ("field_side = 1500\nfield_side = inf\n", "field_side", 1),
        ("seeds = 1, 2\n# comment\nseeds = 3\n", "seeds", 1),
        ("n_nodes = 500\nH = 20\nH = 20\n", "H", 2),
    ])
    def test_repeated_key_is_rejected(self, text, key, first):
        with pytest.raises(ParseError) as err:
            parse_config(text)
        line = text.count("\n")
        assert str(err.value) == (f"<config>:{line}: repeated key {key!r} "
                                  f"(first set on line {first})")

    @pytest.mark.parametrize("over", [
        dict(r0=50.0),                      # r0 < r
        dict(h=[5, 10], H=[10, 20]),        # two sweep axes
        dict(seeds=[]),
        dict(seeds=[-1]),                   # numpy seeds are >= 0
        dict(protocols=["carrier-pigeon"]),
        dict(omega=5),
        dict(packets_per_run=0),
        dict(r=math.nan),                   # non-finite sizes crash numpy
        dict(field_side=math.nan),
        dict(field_side=math.inf),
        dict(r0=math.inf),
        dict(seeds=[1, 1, 2]),              # repeats would count twice
        dict(protocols=["shortest-path", "shortest-path"]),
        dict(h=[5, 5]),
        dict(H=[8, 8]),
    ])
    def test_validation_errors(self, over):
        with pytest.raises(InvalidParameter):
            tiny_config(**over)


class TestEmitCsv:
    def test_header_and_roundtrip(self, tmp_path):
        rows = run_experiment(tiny_config())
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("protocol,h,H,mean_safety_time,"
                            "mean_comm_overhead_hops,capture_rate,"
                            "failure_path_rate,n_runs")
        assert len(lines) == len(rows) + 1
        fields = lines[1].split(",")
        assert fields[0] == "shortest-path"
        assert (int(fields[1]), int(fields[2])) == (5, 8)
        assert abs(float(fields[3]) - rows[0].mean_safety_time) < 1e-6
        assert int(fields[7]) == 3

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(InvalidParameter):
            emit_csv([], str(tmp_path / "x.csv"))


class TestRunExperiment:
    def test_bookkeeping_single_cell(self):
        rows = run_experiment(tiny_config())
        assert len(rows) == 1
        row = rows[0]
        assert row.n_runs == 3
        assert 0.0 <= row.capture_rate <= 1.0

    def test_shortest_path_always_captured_near_H(self):
        rows = run_experiment(tiny_config(packets_per_run=100))
        row = rows[0]
        assert row.capture_rate == 1.0
        # Pure backtracking walks one hop per packet; capture comes a
        # few packets early because the visible radius spans ~3 hops.
        assert row.H - 6 <= row.mean_safety_time <= row.H + 2
        assert row.failure_path_rate == 1.0

    def test_psspr_failure_rate_zero_when_annulus_clears_disc(self):
        cfg = tiny_config(n_nodes=2000, field_side=2700.0,
                          protocols=["psspr"], h=[5], H=[20],
                          packets_per_run=60, seeds=[1, 2])
        rows = run_experiment(cfg)
        assert rows[0].failure_path_rate == 0.0

    def test_rows_in_config_order(self):
        cfg = tiny_config(protocols=["pusbrf", "shortest-path"], h=[3, 5],
                          packets_per_run=20, seeds=[1, 2])
        rows = run_experiment(cfg)
        assert [(r.protocol, r.h) for r in rows] == [
            ("pusbrf", 3), ("pusbrf", 5),
            ("shortest-path", 3), ("shortest-path", 5)]

    def test_each_field_deployed_once(self, monkeypatch):
        from phantomnet import harness
        ran, deployed = [], []
        real_run_one, real_deploy = harness.run_one, harness.deploy

        def run_one(spec):
            ran.append((spec.protocol, spec.seed))
            return real_run_one(spec)

        def deploy(*args):
            deployed.append(args[-1])
            return real_deploy(*args)

        monkeypatch.setattr(harness, "run_one", run_one)
        monkeypatch.setattr(harness, "deploy", deploy)
        harness._FIELD.clear()
        cfg = tiny_config(protocols=["pusbrf", "shortest-path"], h=[3, 5],
                          packets_per_run=20, seeds=[1, 2, 3, 4, 5])
        rows = run_experiment(cfg)
        # Seed-major, every run once; five fields, more than the network
        # cache holds.
        assert ran == [(p, seed) for seed in cfg.seeds
                       for p in ("pusbrf", "pusbrf",
                                 "shortest-path", "shortest-path")]
        assert deployed == cfg.seeds
        sp3, sp5 = rows[2], rows[3]
        assert (sp3.protocol, sp3.h, sp5.h) == ("shortest-path", 3, 5)
        assert replace(sp3, h=5) == sp5

    def test_benchmark_seams_see_every_packet_and_run(self, monkeypatch):
        # perfbench times and counts harness.run_session and
        # harness.enters_visible_area by replacing these module names.
        from phantomnet import harness
        records, visible = [], []
        real_session = harness.run_session
        real_visible = harness.enters_visible_area

        def run_session(*args, **kwargs):
            records.append(real_session(*args, **kwargs))
            return records[-1]

        def enters_visible_area(*args):
            visible.append(real_visible(*args))
            return visible[-1]

        monkeypatch.setattr(harness, "run_session", run_session)
        monkeypatch.setattr(harness, "enters_visible_area",
                            enters_visible_area)
        cfg = tiny_config(protocols=["psspr", "shortest-path"], h=[3, 5],
                          seeds=[1, 2])
        rows = run_experiment(cfg, max_workers=1)
        # Every run executes once: 2 protocols x 2 h values x 2 seeds.
        assert len(records) == 8
        assert sum(row.n_runs for row in rows) == 8
        assert len(visible) == sum(r.safety_time for r in records)
        assert sum(visible) == sum(r.failure_paths for r in records)
        assert 0 < sum(visible) < len(visible)

    def test_pool_seam_builds_every_lane(self, monkeypatch):
        # perfbench's HarvestingPool replaces harness.ProcessPoolExecutor,
        # a name the module imports only when it is first read.
        from phantomnet import harness
        assert (getattr(harness, "ProcessPoolExecutor")
                is concurrent.futures.ProcessPoolExecutor)
        with pytest.raises(AttributeError):
            harness.NoSuchPool
        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        cfg = tiny_config(protocols=["hbdrw"], packets_per_run=10,
                          seeds=[1, 2, 3])
        parallel = run_experiment(cfg, max_workers=2)
        assert built == [{"max_workers": 1}] * 2
        assert parallel == run_experiment(cfg, max_workers=1)

    @pytest.mark.parametrize("H", [[8], [8, 500]])
    def test_previous_field_released_before_next_deploy(self, monkeypatch, H):
        # No node is 500 hops out, so each run at H=500 fails after its
        # field is deployed; the error it leaves must not hold the field.
        from phantomnet import harness
        real_deploy = harness.deploy
        fields, alive = [], []

        def deploy(*args):
            alive.append([ref() is not None for ref in fields])
            net = real_deploy(*args)
            fields.append(weakref.ref(net))
            return net

        monkeypatch.setattr(harness, "deploy", deploy)
        harness._FIELD.clear()
        cfg = tiny_config(protocols=["psspr", "hbdrw", "pusbrf",
                                     "shortest-path"],
                          H=H, packets_per_run=10, seeds=[1, 2, 3])
        with contextlib.suppress(HarnessError):
            run_experiment(cfg, max_workers=1)
        assert alive == [[], [False], [False, False]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_field_deployed_once(self, monkeypatch, tmp_path, capsys,
                                        workers):
        # Seed 5's field fails the connectivity check. Its error is kept
        # in the field's place, so its four runs fail on one deploy. The
        # patched deploy, inherited by forked workers, appends a mark to
        # its seed's file.
        from phantomnet import harness
        real_deploy = harness.deploy

        def deploy(*args):
            with open(tmp_path / str(args[-1]), "a", encoding="utf-8") as fh:
                fh.write("x")
            return real_deploy(*args)

        monkeypatch.setattr(harness, "deploy", deploy)
        harness._FIELD.clear()
        cfg = tiny_config(n_nodes=400, field_side=1200.0, H=[4], h=[3, 5],
                          protocols=["pusbrf", "shortest-path"],
                          packets_per_run=5, seeds=list(range(1, 11)))
        rows = run_experiment(cfg, max_workers=workers)
        assert [row.n_runs for row in rows] == [9, 9, 9, 9]
        assert capsys.readouterr().err.startswith("4/40 runs failed: ")
        assert {int(p.name): p.read_text(encoding="utf-8")
                for p in tmp_path.iterdir()} == {s: "x" for s in cfg.seeds}

    def test_pool_deploys_each_field_in_one_process(self, monkeypatch,
                                                    tmp_path):
        # Forked workers inherit the patched deploy, which leaves one
        # file per (process, seed) it builds.
        from phantomnet import harness
        real_deploy = harness.deploy

        def deploy(*args):
            (tmp_path / f"{os.getpid()}-{args[-1]}").touch()
            return real_deploy(*args)

        monkeypatch.setattr(harness, "deploy", deploy)
        harness._FIELD.clear()
        cfg = tiny_config(protocols=["hbdrw", "pusbrf"], h=[3, 5],
                          packets_per_run=10, seeds=[1, 2, 3, 4, 5])
        parallel = run_experiment(cfg, max_workers=2)
        builds = [p.name.split("-") for p in tmp_path.iterdir()]
        assert sorted(int(seed) for _, seed in builds) == cfg.seeds
        assert len({pid for pid, _ in builds}) == 2
        assert str(os.getpid()) not in {pid for pid, _ in builds}
        assert parallel == run_experiment(cfg, max_workers=1)

    def test_deterministic_repeat(self, tmp_path):
        cfg = tiny_config(protocols=["pusbrf"], packets_per_run=30)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(a, str(pa))
        emit_csv(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_parallel_equals_serial(self):
        cfg = tiny_config(protocols=["hbdrw"], packets_per_run=30)
        serial = run_experiment(cfg, max_workers=1)
        parallel = run_experiment(cfg, max_workers=2)
        assert serial == parallel

    def test_failed_runs_reported_on_stderr(self, capsys):
        # Seed 5 of this sparse field leaves more than 1% of its sensors
        # cut off from the sink; one failure in ten stays under the
        # abort threshold.
        cfg = tiny_config(n_nodes=400, field_side=1200.0, H=[4],
                          packets_per_run=5, seeds=list(range(1, 11)))
        rows = run_experiment(cfg, max_workers=1)
        assert [row.n_runs for row in rows] == [9]
        assert capsys.readouterr().err == (
            "1/10 runs failed: (shortest-path, 5, 4, 5, ConnectivityError)\n")
        # Seed 29 fails too. Runs execute seed-major, but the line lists
        # the failures in config order: protocol, sweep point, seed.
        cfg = replace(cfg, protocols=["pusbrf", "shortest-path"],
                      seeds=list(range(1, 30)))
        rows = run_experiment(cfg, max_workers=1)
        assert [row.n_runs for row in rows] == [27, 27]
        assert capsys.readouterr().err == (
            "4/58 runs failed: (pusbrf, 5, 4, 5, ConnectivityError), "
            "(pusbrf, 5, 4, 29, ConnectivityError), "
            "(shortest-path, 5, 4, 5, ConnectivityError), "
            "(shortest-path, 5, 4, 29, ConnectivityError)\n")


class TestPickSource:
    def test_within_window_and_stable_across_protocols(self, desk_net):
        src = pick_source(desk_net, 15, 2)
        assert abs(desk_net.hops[src] - 15) <= 1
        assert pick_source(desk_net, 15, 2) == src

    def test_error_when_no_candidate(self, desk_net):
        with pytest.raises(InvalidParameter):
            pick_source(desk_net, 500, 2)

    def test_start_run_draws_one_source_per_field_and_H(self):
        # start_run keeps each H's source next to its field. Fields come
        # and go in turn, as in a seed-major sweep, and each must get the
        # source drawn on a fresh deploy of its seed; no node is 500 hops
        # out, and that failure is raised for every protocol, not kept.
        from phantomnet import harness
        harness._FIELD.clear()
        cfg = tiny_config()
        for seed in range(1, 15):
            fresh = pn.deploy(cfg.n_nodes, cfg.field_side, cfg.r, cfg.r0,
                              seed)
            want = {H: pick_source(fresh, H, seed) for H in (3, 5)}
            del fresh
            for H in (3, 500, 5):
                for p in PROTOCOLS:
                    spec = RunSpec(p, 5, H, seed, cfg)
                    if H == 500:
                        with pytest.raises(InvalidParameter):
                            start_run(spec)
                    else:
                        assert start_run(spec)[1] == want[H]


CONFIGS = Path(__file__).parents[1] / "configs"


class TestUncappedConfigs:
    @pytest.mark.parametrize("name, reference", [
        ("desk_uncapped.cfg", None), ("paper_uncapped.cfg", "paper.cfg")])
    def test_only_the_packet_cap_differs(self, name, reference):
        uncapped = load_config(str(CONFIGS / name))
        base = (load_config(str(CONFIGS / reference)) if reference
                else ExperimentConfig())
        assert uncapped.packets_per_run == 3000
        assert replace(uncapped, packets_per_run=base.packets_per_run) == base

    def test_capped_run_is_the_uncapped_run_cut_short(self):
        # A session's packets do not depend on its cap, so the 400-packet
        # run of every desk cell ends where the 3000-packet run would have
        # stood at packet 400.
        capped = ExperimentConfig(seeds=[1, 2, 3, 4]).validate()
        uncapped = load_config(str(CONFIGS / "desk_uncapped.cfg"))
        cap = capped.packets_per_run
        past_cap = 0
        for seed in capped.seeds:
            for protocol in capped.protocols:
                for h, H in capped.sweep_points:
                    short = run_one(RunSpec(protocol, h, H, seed, capped))
                    long = run_one(RunSpec(protocol, h, H, seed, uncapped))
                    assert short.safety_time == min(long.safety_time, cap)
                    assert short.captured == (long.captured
                                              and long.safety_time <= cap)
                    past_cap += long.safety_time > cap
        assert past_cap     # some run does outlast the cap
