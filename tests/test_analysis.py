import math

import numpy as np
import pytest
from scipy.special import ellipe, ellipeinc

import phantomnet.analysis as an
from phantomnet.cli import main
from phantomnet.errors import DomainError, InvalidParameter

from conftest import annulus_mean_radius

# Published reference rows: h -> (r_min, r_max, hbdrw/pusbrf %, pusbrf/psspr %)
TABLE2 = {
    5: (4, 6, 40.97, 33.33),
    10: (8, 12, 28.71, 20.00),
    15: (12, 18, 23.38, 14.29),
    20: (16, 24, 20.22, 11.11),
    25: (22, 28, 18.07, 14.29),
    30: (26, 32, 16.48, 14.78),
}

# h -> (n_hbdrw, n_pusbrf, n_psspr)
TABLE4 = {
    5: (12.87, 31.42, 94.24),
    10: (18.04, 62.83, 282.74),
    15: (22.03, 94.25, 565.48),
    20: (25.40, 125.66, 942.47),
    25: (28.38, 157.08, 942.47),
    30: (31.07, 188.50, 706.86),
}


class TestRatios:
    @pytest.mark.parametrize("h", sorted(TABLE2))
    def test_table2_row(self, h):
        r_min, r_max, col1, col2 = TABLE2[h]
        assert an.ratio_hbdrw_over_pusbrf(h) == pytest.approx(col1, abs=0.01)
        assert an.ratio_pusbrf_over_psspr(h, r_min, r_max) == pytest.approx(
            col2, abs=0.01)

    def test_vanishes_for_large_h(self):
        assert an.ratio_hbdrw_over_pusbrf(10 ** 6) < 0.1

    def test_degenerate_single_radius(self):
        assert an.ratio_pusbrf_over_psspr(5, 5, 5) == pytest.approx(100.0)

    def test_h_outside_the_annulus_rejected(self):
        with pytest.raises(InvalidParameter,
                           match="need r_min <= h <= r_max, got 6, 5, 8"):
            an.ratio_pusbrf_over_psspr(5, 6, 8)


class TestFailurePath:
    def test_reference_point(self):
        # Independent arithmetic: (asin(3/60) + asin(3/15)) / pi.
        expected = (math.asin(0.05) + math.asin(0.2)) / math.pi
        assert expected == pytest.approx(0.0800, abs=5e-4)
        assert an.failure_path_probability(3, 60, 15) == pytest.approx(
            expected, abs=1e-12)

    def test_zero_radius(self):
        assert an.failure_path_probability(0, 60, 15) == 0.0

    def test_monotone_in_r0(self):
        vals = [an.failure_path_probability(r0, 60, 15)
                for r0 in (1, 2, 3, 5, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            an.failure_path_probability(16, 60, 15)
        with pytest.raises(DomainError):
            an.failure_path_probability(61, 60, 120)


class TestPhantomCounts:
    @pytest.mark.parametrize("h", sorted(TABLE4))
    def test_table4_row(self, h):
        n_hbdrw, n_pusbrf, n_psspr = TABLE4[h]
        r_min, r_max = an.RMIN_RMAX_PRESETS[h]
        assert an.phantom_count_hbdrw(h) == pytest.approx(n_hbdrw, abs=0.01)
        assert an.phantom_count_pusbrf(h) == pytest.approx(n_pusbrf, abs=0.01)
        assert an.phantom_count_psspr(r_min, r_max, h - r_min) == pytest.approx(
            n_psspr, abs=0.01)

    @pytest.mark.parametrize("count", [an.phantom_count_hbdrw,
                                       an.phantom_count_pusbrf])
    def test_h_below_two_rejected(self, count):
        with pytest.raises(InvalidParameter, match="h must be >= 2, got 1"):
            count(1)

    def test_ordering(self):
        for h, (r_min, r_max) in an.RMIN_RMAX_PRESETS.items():
            n_h = an.phantom_count_hbdrw(h)
            n_pu = an.phantom_count_pusbrf(h)
            n_ps = an.phantom_count_psspr(r_min, r_max, h - r_min)
            assert n_ps >= n_pu >= n_h > 0


class TestPhantomDistance:
    def test_baseline_closed_forms(self, capsys):
        assert main(["analyze", "--h", "10"]) == 0
        assert ("avg_phantom_distance hbdrw/pusbrf = 10.00 hops"
                in capsys.readouterr().out.splitlines())

    def test_mc_within_annulus_bounds(self):
        mean, se = an.psspr_distance_mc(4, 6, n_samples=50_000,
                                        rng=np.random.default_rng(1))
        assert 4.0 <= mean <= 6.0
        assert se > 0.0

    def test_mc_matches_area_weighted_oracle(self):
        oracle = annulus_mean_radius(8, 12)
        assert oracle == pytest.approx((2 / 3) * (12 ** 3 - 8 ** 3)
                                       / (12 ** 2 - 8 ** 2))
        mean, se = an.psspr_distance_mc(8, 12, n_samples=1_000_000,
                                        rng=np.random.default_rng(7))
        assert abs(mean - oracle) / oracle < 0.005
        assert se / mean < 0.005  # batch-means standard error

    def test_printed_form_disagrees_with_annulus(self):
        # The printed integral cannot reproduce the annulus mean; both
        # values are exposed so the discrepancy stays visible.
        printed = an.psspr_distance_printed(8, 12, 60)
        assert printed > 2 * annulus_mean_radius(8, 12)


class TestCommOverhead:
    # (R, H) pairs: the table row, the sink one hop either side of the
    # phantom ring and on it (where the chord touches zero), (33, 32),
    # where a 32-node rule would miss by more than 1e-9, a one-hop
    # source and a far one.
    @pytest.mark.parametrize("R, H", [(10, 60), (20, 19), (20, 21), (20, 20),
                                      (33, 32), (5, 1), (40, 1),
                                      (10, 1_000_000)])
    def test_matches_elliptic_oracle(self, R, H):
        # Independent closed form: the 0..pi chord integral equals
        # 2 (H+R) E(m) with m = 4RH/(H+R)^2.
        m = 4 * R * H / (H + R) ** 2
        oracle = R + 2 * (H + R) * ellipe(m) / math.pi
        if (R, H) == (10, 60):
            assert oracle == pytest.approx(70.4174, abs=1e-3)
        params = an.SectorParams(h=R, r_min=R - 1, r_max=R + 1, omega=6)
        assert an.comm_overhead("pusbrf", params, H) == pytest.approx(
            oracle, rel=1e-9)

    @pytest.mark.parametrize("R, H", [(10, 60), (20, 19), (20, 20), (2, 1),
                                      (10, 1_000_000)])
    def test_hbdrw_matches_incomplete_elliptic_oracle(self, R, H):
        # With m = 4RH/(H+R)^2 and gamma = acos((R-1)/R), the chord
        # integral over [0, gamma] is 2 (H+R) (E(m) - E(pi/2 - gamma/2 | m))
        # and over [pi, pi+gamma] it is 2 (H+R) E(gamma/2 | m).
        m = 4 * R * H / (H + R) ** 2
        gamma = math.acos((R - 1) / R)
        near = 2 * (H + R) * (ellipe(m) - ellipeinc(math.pi / 2 - gamma / 2, m))
        far = 2 * (H + R) * ellipeinc(gamma / 2, m)
        oracle = R + (near + far) / (2 * gamma)
        params = an.SectorParams(h=R, r_min=R - 1, r_max=R + 1, omega=6)
        assert an.comm_overhead("hbdrw", params, H) == pytest.approx(
            oracle, rel=1e-9)

    def test_zero_walk_collapses_to_straight_line(self):
        # With no phantom detour the chord is the constant H.
        H = 60.0
        assert an._quad(lambda a: H, 0.0, math.pi) == pytest.approx(
            math.pi * H, rel=1e-12)

    def test_sector_scheme_cheaper_on_reference_rows(self):
        for h, (r_min, r_max) in an.RMIN_RMAX_PRESETS.items():
            params = an.SectorParams(h, r_min, r_max, omega=6)
            assert (an.comm_overhead("psspr", params, 60)
                    <= an.comm_overhead("pusbrf", params, 60))

    def test_lower_bound(self):
        for h, (r_min, r_max) in an.RMIN_RMAX_PRESETS.items():
            params = an.SectorParams(h, r_min, r_max, omega=6)
            for proto in ("pusbrf", "hbdrw", "psspr"):
                assert an.comm_overhead(proto, params, 60) >= 60 - r_max

    @pytest.mark.parametrize("H", [20, 23, 24])
    def test_sector_scheme_keeps_to_its_geometry(self, H):
        # h = 20 has r_max = 24: below it the exit-to-sink tail H - r_max
        # would be negative.
        params = an.SectorParams(20, *an.rmin_rmax_for(20), omega=6)
        if H < params.r_max:
            with pytest.raises(DomainError, match=(
                    f"^H={H} < r_max=24: the annulus reaches past the sink$")):
                an.comm_overhead("psspr", params, H)
        else:
            assert round(an.comm_overhead("psspr", params, H), 2) == 48.14

    def test_unknown_protocol(self):
        params = an.SectorParams(h=10, r_min=8, r_max=12, omega=6)
        with pytest.raises(InvalidParameter):
            an.comm_overhead("flood-everything", params, 60)


class TestTables:
    def test_table3_presets_literal(self):
        rows = an.make_tables()
        presets = {(row["h"], row["r_min"], row["r_max"]) for row in rows}
        assert presets == {(5, 4, 6), (10, 8, 12), (15, 12, 18),
                           (20, 16, 24), (25, 22, 28), (30, 26, 32)}
        for row in rows:
            assert row["r_min"] <= row["distance_mc"] <= row["r_max"]

    def test_tables_are_deterministic(self):
        a = an.make_tables()
        b = an.make_tables()
        assert a == b

    def test_rmin_rmax_pattern_for_off_table_h(self):
        assert an.rmin_rmax_for(12) == (10, 14)
        assert an.rmin_rmax_for(25) == (22, 28)  # preset, not the pattern


class TestSectorParams:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            an.SectorParams(h=13, r_min=8, r_max=12, omega=6)
        with pytest.raises(InvalidParameter):
            an.SectorParams(h=10, r_min=12, r_max=8, omega=6)

    def test_rmin_rmax_for_gives_a_domain_exactly_when_h_is_positive(self):
        for h in range(1, 61):
            assert an.SectorParams(h, *an.rmin_rmax_for(h), omega=6).h == h
        with pytest.raises(InvalidParameter):
            an.SectorParams(0, *an.rmin_rmax_for(0), omega=6)
