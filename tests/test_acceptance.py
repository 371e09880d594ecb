"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -v -s`` to see every
line). The criteria pin the reference-table values, the geometric
invariants of the routing pipeline, and the end-to-end simulation
trends at desk scale.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import phantomnet as pn
import phantomnet.analysis as an
from phantomnet.cli import main as cli_main
from phantomnet.errors import DomainError
from phantomnet.psspr import (SectorParams, build_frame, candidate_domain,
                              route_packet, select_phantom)
from phantomnet.trace import enters_visible_area

from conftest import annulus_mean_radius, bfs_oracle, brute_force_adjacency

TABLE2 = {
    5: (40.97, 33.33), 10: (28.71, 20.00), 15: (23.38, 14.29),
    20: (20.22, 11.11), 25: (18.07, 14.29), 30: (16.48, 14.78),
}
TABLE4 = {
    5: (12.87, 31.42, 94.24), 10: (18.04, 62.83, 282.74),
    15: (22.03, 94.25, 565.48), 20: (25.40, 125.66, 942.47),
    25: (28.38, 157.08, 942.47), 30: (31.07, 188.50, 706.86),
}


class Check:
    """Collects sub-checks and prints the one-line verdict."""

    def __init__(self, name, budget_s):
        self.name = name
        self.budget_s = budget_s
        self.t0 = time.monotonic()
        self.failures = []

    def expect(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def done(self):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {status} - {self.name} ({elapsed:.1f}s, "
              f"budget {self.budget_s}s)")
        for f in self.failures:
            print(f"    failed: {f}")
        assert elapsed < self.budget_s, f"{self.name} exceeded runtime budget"
        assert not self.failures, f"{self.name}: {self.failures}"


def test_table4_regeneration():
    c = Check("table-4 phantom counts", 1.0)
    tables = an.make_tables(mc_samples=10_000)
    for row in tables["table4"]:
        exp = TABLE4[row["h"]]
        for got, want, label in ((row["n_hbdrw"], exp[0], "hbdrw"),
                                 (row["n_pusbrf"], exp[1], "pusbrf"),
                                 (row["n_psspr"], exp[2], "psspr")):
            c.expect(abs(got - want) <= 0.01,
                     f"h={row['h']} {label}: {got:.4f} vs {want}")
    c.done()


def test_table2_regeneration():
    c = Check("table-2 directed path ratios", 1.0)
    for h, (col1, col2) in TABLE2.items():
        r_min, r_max = an.RMIN_RMAX_PRESETS[h]
        got1 = an.ratio_hbdrw_over_pusbrf(h)
        got2 = an.ratio_pusbrf_over_psspr(h, r_min, r_max)
        c.expect(abs(got1 - col1) <= 0.01, f"h={h} col1 {got1:.4f} vs {col1}")
        c.expect(abs(got2 - col2) <= 0.01, f"h={h} col2 {got2:.4f} vs {col2}")
    c.done()


def test_failure_path_probability():
    c = Check("failure-path probability point value", 1.0)
    got = an.failure_path_probability(3, 60, 15)
    c.expect(abs(got - 0.0800) <= 0.0005, f"got {got:.5f} vs 0.0800")
    try:
        an.failure_path_probability(16, 60, 15)
        c.expect(False, "r0 > h did not raise DomainError")
    except DomainError:
        pass
    c.done()


def test_flooding_matches_bfs_oracle():
    c = Check("flooding equals BFS on 20 random 500-node fields", 10.0)
    produced = 0
    seed = 0
    while produced < 20:
        seed += 1
        try:
            net = pn.deploy(500, 1400.0, 100.0, 300.0, seed=seed)
        except pn.errors.ConnectivityError:
            continue
        produced += 1
        adj = brute_force_adjacency(net.positions, net.r)
        dist = bfs_oracle(adj, pn.SINK)
        for i in range(len(net)):
            if net.hops[i] != dist.get(i, pn.UNREACHABLE):
                c.expect(False, f"seed={seed} node={i}: "
                                f"{net.hops[i]} vs {dist.get(i)}")
                break
    c.done()


def test_failure_path_avoidance(desk_net):
    c = Check("zero failure paths with annulus beyond visible area", 60.0)
    src = pn.pick_source(desk_net, 20, 2)
    frame = build_frame(desk_net, src)
    params = SectorParams(5, 4, 6, 6)  # r_min * r = 400m > r0 = 300m
    domains = candidate_domain(desk_net, frame, params)
    rng = np.random.default_rng(1)
    violations = 0
    for _ in range(500):
        t = route_packet(desk_net, frame, params, rng, domains=domains)
        violations += enters_visible_area(t, desk_net, src)
    c.expect(violations == 0, f"{violations}/500 packets crossed the disc")
    c.done()


def test_same_hop_invariant(desk_net):
    c = Check("same-hop phases constant and rarely relaxed", 60.0)
    src = pn.pick_source(desk_net, 20, 2)
    frame = build_frame(desk_net, src)
    params = SectorParams(10, 8, 12, 6)
    domains = candidate_domain(desk_net, frame, params)
    rng = np.random.default_rng(5)
    phases = relaxed = 0
    for _ in range(500):
        t = route_packet(desk_net, frame, params, rng, domains=domains)
        runs = []
        cur = None
        for node, phase in zip(t.hops, t.phases):
            if phase == pn.trace.PHASE_SAME_HOP:
                if cur is None:
                    cur = []
                cur.append(node)
            elif cur is not None:
                runs.append(cur)
                cur = None
        if cur is not None:
            runs.append(cur)
        if not runs:
            continue
        phases += 1
        if any("relaxed" in a for a in t.annotations):
            relaxed += 1
            continue
        for run in runs:
            ring = {int(desk_net.hops[n]) for n in run}
            c.expect(len(ring) == 1,
                     f"unrelaxed same-hop run spans rings {sorted(ring)}")
    rate = relaxed / max(phases, 1)
    c.expect(rate < 0.10, f"relaxation rate {rate:.3f} >= 10%")
    c.done()


def test_safety_time_ordering(sweep_rows):
    c = Check("safety-time ordering across the sweep", 600.0)
    by = {(r.protocol, r.h): r.mean_safety_time for r in sweep_rows}
    for h in (5, 10, 15, 20):
        ps = by[("psspr", h)]
        pu = by[("pusbrf", h)]
        hb = by[("hbdrw", h)]
        c.expect(ps >= 1.5 * hb,
                 f"h={h}: psspr {ps:.1f} < 1.5 x hbdrw {hb:.1f}")
        c.expect(ps >= 1.05 * pu,
                 f"h={h}: psspr {ps:.1f} < 1.05 x pusbrf {pu:.1f}")
        c.expect(ps > pu > hb,
                 f"h={h}: ordering violated ({ps:.1f}, {pu:.1f}, {hb:.1f})")
    c.done()


def test_overhead_trend(sweep_rows):
    c = Check("overhead monotone in h, sector scheme cheaper", 600.0)
    hs = (5, 10, 15, 20)
    by = {(r.protocol, r.h): r.mean_comm_overhead_hops for r in sweep_rows}
    for proto in ("psspr", "pusbrf", "hbdrw", "shortest-path"):
        series = [by[(proto, h)] for h in hs]
        c.expect(all(b >= a - 1e-9 for a, b in zip(series, series[1:])),
                 f"{proto} overhead not non-decreasing: {series}")
    for h, (r_min, r_max) in an.RMIN_RMAX_PRESETS.items():
        params = an.SectorParams(h, r_min, r_max, omega=6)
        e12 = an.comm_overhead("pusbrf", params, 60)
        e16 = an.comm_overhead("psspr", params, 60)
        c.expect(e16 <= e12, f"analytic h={h}: {e16:.2f} > {e12:.2f}")
    # Simulated counterpart of the analytic reduction at h=20. Hop-count
    # simulation prices the sector scheme's geometric legs at realistic
    # per-hop strides while restricted flooding gets its first leg
    # hop-exact, so the analytic advantage does not survive; the
    # measured gap is reported here and the assertion is kept as
    # specified.
    sim_reduction = 1.0 - by[("psspr", 20)] / by[("pusbrf", 20)]
    c.expect(sim_reduction >= 0.03,
             f"simulated reduction at h=20 is {sim_reduction:+.1%} "
             f"(psspr {by[('psspr', 20)]:.1f} vs pusbrf "
             f"{by[('pusbrf', 20)]:.1f} hops)")
    c.done()


def test_phantom_geometry(dense_net):
    c = Check("phantom annulus, sector uniformity, distance oracle", 30.0)
    src = pn.pick_source(dense_net, 10, 11)
    frame = build_frame(dense_net, src)
    params = SectorParams(5, 4, 6, 6)
    domains = candidate_domain(dense_net, frame, params)
    rng = np.random.default_rng(21)
    counts = np.zeros(params.omega)
    spos = dense_net.positions[src]
    annulus_ok = True
    for _ in range(10_000):
        choice = select_phantom(dense_net, frame, params, rng,
                                domains=domains)
        counts[[choice.p1 in dom for dom in domains].index(True)] += 1
        d = np.linalg.norm(dense_net.positions[choice.p1] - spos)
        annulus_ok &= 400.0 <= d <= 600.0
    c.expect(annulus_ok, "a selected phantom left the annulus")
    p = stats.chisquare(counts).pvalue
    c.expect(p > 0.01, f"sector chi-square p={p:.4f}")
    mc, se = an.psspr_distance_mc(8, 12, n_samples=1_000_000,
                                  rng=np.random.default_rng(3))
    oracle = annulus_mean_radius(8, 12)
    c.expect(abs(mc - oracle) / oracle < 0.005,
             f"mc {mc:.4f} vs oracle {oracle:.4f}")
    c.expect(se / mc < 0.005, f"standard error {se:.5f} too large")
    c.done()


def test_simulate_determinism(tmp_path):
    c = Check("byte-identical CSV across repeated simulate runs", 300.0)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "protocols = psspr, pusbrf\n"
        "h = 5,10\n"
        "H = 20\n"
        "packets_per_run = 60\n"
        "seeds = 1,2,3\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc_a = cli_main(["simulate", "--config", str(cfg), "--out", str(out_a)])
    rc_b = cli_main(["simulate", "--config", str(cfg), "--out", str(out_b)])
    c.expect(rc_a == 0 and rc_b == 0, f"exit codes {rc_a}, {rc_b}")
    c.expect(out_a.read_bytes() == out_b.read_bytes(),
             "CSV outputs differ between runs")
    c.done()
