import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ellipe

import phantomnet.analysis as an
from phantomnet.cli import main
from phantomnet.errors import DomainError, InvalidParameter, QuadratureFailure

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
    def test_matches_elliptic_oracle(self):
        # Independent closed form: the 0..pi chord integral equals
        # 2 (H+R) E(m) with m = 4RH/(H+R)^2.
        R, H = 10, 60
        m = 4 * R * H / (H + R) ** 2
        oracle = R + 2 * (H + R) * ellipe(m) / math.pi
        assert oracle == pytest.approx(70.4174, abs=1e-3)
        params = an.SectorParams(h=10, r_min=8, r_max=12, omega=6)
        assert an.comm_overhead("pusbrf", params, H) == pytest.approx(
            oracle, abs=1e-6)

    def test_zero_walk_collapses_to_straight_line(self):
        # With no phantom detour the chord integral is constant H.
        H = 60.0
        val, _ = integrate.quad(lambda a: math.sqrt(H * H), 0.0, math.pi)
        assert val / math.pi == pytest.approx(H)

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

    def test_tolerance_convergence(self):
        params = an.SectorParams(h=20, r_min=16, r_max=24, omega=6)
        a = an.comm_overhead("hbdrw", params, 60, tol=1e-6)
        b = an.comm_overhead("hbdrw", params, 60, tol=5e-7)
        assert abs(a - b) < 1e-5

    def test_quadrature_failure_is_detectable(self):
        params = an.SectorParams(h=10, r_min=8, r_max=12, omega=6)
        with pytest.raises(QuadratureFailure):
            an.comm_overhead("pusbrf", params, 60, tol=1e-16)

    def test_unknown_protocol(self):
        params = an.SectorParams(h=10, r_min=8, r_max=12, omega=6)
        with pytest.raises(InvalidParameter):
            an.comm_overhead("flood-everything", params, 60)


class TestTables:
    def test_table3_presets_literal(self):
        tables = an.make_tables(mc_samples=20_000)
        presets = {(row["h"], row["r_min"], row["r_max"])
                   for row in tables["table3"]}
        assert presets == {(5, 4, 6), (10, 8, 12), (15, 12, 18),
                           (20, 16, 24), (25, 22, 28), (30, 26, 32)}
        for row in tables["table3"]:
            assert row["r_min"] <= row["distance_mc"] <= row["r_max"]

    def test_tables_are_deterministic(self):
        a = an.make_tables(mc_samples=20_000)
        b = an.make_tables(mc_samples=20_000)
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
