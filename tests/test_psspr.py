import math

import numpy as np
import pytest

import phantomnet as pn
from phantomnet.errors import EmptyDomain, InvalidParameter
from phantomnet.net import project
from phantomnet.psspr import (SectorParams, _angle_deg, _same_hop_leg,
                              _walk, build_frame, candidate_domain,
                              route_packet, same_hop_count, select_phantom)
from phantomnet.trace import PHASE_DIRECT, enters_visible_area


def make_line_network(points, r, field_side=8000.0):
    """Sink first, then the given sensor positions, custom radius."""
    return pn.Network(np.array(points, dtype=float), r=r, r0=r,
                      field_side=field_side)


class TestFrame:
    def test_horizontal_source(self):
        net = make_line_network([[3000, 3000], [5000, 3000]], r=2100.0)
        frame = build_frame(net, 1)
        assert np.allclose(frame.center_v, [4000, 3000])
        assert np.allclose(frame.x_axis, [1, 0])
        assert net.hop_list[1] == 1

    def test_vertical_source(self):
        net = make_line_network([[3000, 3000], [3000, 5000]], r=2100.0)
        frame = build_frame(net, 1)
        assert np.allclose(frame.center_v, [3000, 4000])
        assert np.allclose(frame.x_axis, [0, 1])

    def test_midpoint_property(self, dense_net):
        src = pn.pick_source(dense_net, 8, 11)
        frame = build_frame(dense_net, src)
        v = np.array(frame.center_v)
        d_src = np.linalg.norm(v - dense_net.positions[src])
        d_sink = np.linalg.norm(v - dense_net.positions[pn.SINK])
        assert abs(d_src - d_sink) < 1e-9

    def test_sink_rejected(self, dense_net):
        with pytest.raises(InvalidParameter):
            pn.make_router(dense_net, "psspr", pn.SINK, h=5, omega=6)


class TestSectorParams:
    def test_theta_is_pi_over_omega(self):
        assert SectorParams(5, 4, 6, 6).theta == math.pi / 6

    # (h, r_min, r_max, omega)
    @pytest.mark.parametrize("args", [(5, 6, 4, 6), (5, 4, 6, 5), (5, 4, 6, 0),
                                      (3, 0, 6, 6), (7, 4, 6, 6), (3, 4, 6, 6),
                                      (4, 4, 4, 6)])
    def test_invalid(self, args):
        with pytest.raises(InvalidParameter):
            SectorParams(*args)


class TestCandidateDomain:
    def test_annulus_membership_exhaustive(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        params = SectorParams(5, 4, 6, 6)
        domains = candidate_domain(dense_net, frame, params)
        # Brute-force membership oracle over every node.
        spos = dense_net.positions[src]
        expected = set()
        for i in range(len(dense_net)):
            if i in (src, pn.SINK) or dense_net.hops[i] == pn.UNREACHABLE:
                continue
            w = dense_net.positions[i] - spos
            d = np.linalg.norm(w)
            if 400.0 <= d <= 600.0 and np.dot(w, frame.x_axis) <= 0.0:
                expected.add(i)
        got = {int(n) for dom in domains for n in dom}
        assert got == expected
        for dom in domains:
            for n in dom:
                d = np.linalg.norm(dense_net.positions[n] - spos)
                assert 400.0 <= d <= 600.0

    def test_sectors_disjoint_and_count(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        domains = candidate_domain(dense_net, frame, SectorParams(5, 4, 6, 6))
        assert len(domains) == 6
        all_ids = [int(n) for dom in domains for n in dom]
        assert len(all_ids) == len(set(all_ids))

    def test_sectors_are_ascending_lists_of_python_ints(self, dense_net):
        # The per-packet draw reads Python data only.
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        domains = candidate_domain(dense_net, frame, SectorParams(5, 4, 6, 6))
        assert type(domains) is list
        for dom in domains:
            assert type(dom) is list
            assert all(type(n) is int for n in dom)
            assert dom == sorted(dom)

    def test_empty_domain_raises(self):
        net = make_line_network([[500, 500], [600, 500]], r=150.0,
                                field_side=1000.0)
        frame = build_frame(net, 1)
        with pytest.raises(EmptyDomain):
            candidate_domain(net, frame, SectorParams(35, 30, 40, 6))


class TestSelectPhantom:
    def test_mirror_is_point_reflection(self):
        # V = (4000, 3000); reflecting (2000, 3600) through V gives
        # (6000, 2400), where a node is planted.
        net = make_line_network(
            [[3000, 3000], [5000, 3000], [2000, 3600], [6000, 2400]],
            r=2100.0)
        frame = build_frame(net, 1)
        params = SectorParams(1, 1, 2, 2)
        domains = candidate_domain(net, frame, params)
        rng = np.random.default_rng(0)
        chosen = set()
        for _ in range(8):
            choice = select_phantom(net, frame, params, rng, domains)
            assert choice.p1 == 2
            chosen.add(choice.chosen)
        # Node 3 carries packets only as the mirror of node 2.
        assert chosen == {2, 3}

    def test_annulus_membership_every_packet(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        params = SectorParams(5, 4, 6, 6)
        domains = candidate_domain(dense_net, frame, params)
        rng = np.random.default_rng(3)
        pos = dense_net.positions
        for _ in range(300):
            c = select_phantom(dense_net, frame, params, rng, domains=domains)
            d = np.linalg.norm(pos[c.p1] - pos[src])
            assert 400.0 <= d <= 600.0
            assert 0.0 <= c.beta <= 180.0
            assert sum(c.p1 in dom for dom in domains) == 1
            # A mirror lies within r of the point reflection of p1; with
            # no node there (sink and source aside), p1 is forced.
            target = 2 * np.array(frame.center_v) - pos[c.p1]
            if c.chosen != c.p1:
                assert np.linalg.norm(pos[c.chosen] - target) <= dense_net.r
            near = np.linalg.norm(pos - target, axis=1) <= dense_net.r
            near[[src, pn.SINK]] = False
            if not near.any():
                assert c.chosen == c.p1

    def test_deterministic_under_seed(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        params = SectorParams(5, 4, 6, 6)
        domains = candidate_domain(dense_net, frame, params)
        a = select_phantom(dense_net, frame, params,
                           np.random.default_rng(9), domains)
        b = select_phantom(dense_net, frame, params,
                           np.random.default_rng(9), domains)
        assert a == b


class TestAngle:
    def test_zero_length_vector_gives_zero(self):
        assert _angle_deg(0.0, 0.0, 3.0, 4.0) == 0.0
        assert _angle_deg(3.0, 4.0, 0.0, 0.0) == 0.0


class TestSameHopCount:
    def test_examples(self):
        assert same_hop_count(90.0, SectorParams(20, 16, 24, 6)) == 12
        assert same_hop_count(0.0, SectorParams(20, 16, 24, 6)) == 0
        assert same_hop_count(180.0, SectorParams(15, 12, 18, 6)) == 18

    def test_rounds_half_away_from_zero(self):
        # 25/180 * 18 = 2.5 rounds up to 3.
        assert same_hop_count(25.0, SectorParams(15, 12, 18, 6)) == 3


class TestDirectedRoute:
    def test_zero_hops_at_target(self, dense_net):
        node = int(dense_net.reachable_sensor_ids()[0])
        tx, ty = target = dense_net.positions[node]
        nodes, reached = _walk(
            dense_net, node, 5,
            lambda n: dense_net.dist(n, tx, ty) <= dense_net.r, target=target)
        assert nodes == [node]
        assert reached

    def test_reaches_point_500m_east(self, dense_net):
        rng = np.random.default_rng(1)
        ids = dense_net.reachable_sensor_ids()
        center = dense_net.positions[ids] - dense_net.positions[pn.SINK]
        near_center = ids[np.linalg.norm(center, axis=1) < 400]
        for k in range(20):
            node = int(near_center[rng.integers(len(near_center))])
            tx, ty = target = dense_net.positions[node] + [500.0, 0.0]
            nodes, _ = _walk(
                dense_net, node, 30,
                lambda n: dense_net.dist(n, tx, ty) <= dense_net.r,
                target=target)
            final = dense_net.positions[nodes[-1]]
            assert np.linalg.norm(final - target) <= dense_net.r

    def test_away_leg_exits_the_ring(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        spos = dense_net.positions[src]
        ring = 600.0  # 6 hops
        tx, ty = target = spos + [0.0, ring]
        nodes, reached = _walk(
            dense_net, src, 40,
            lambda n: (dense_net.dist(n, *spos) >= ring
                       or dense_net.dist(n, tx, ty) <= dense_net.r),
            target=target)
        assert reached
        assert np.linalg.norm(dense_net.positions[nodes[-1]] - spos) >= ring - dense_net.r

    def test_dead_ends_retreat_then_give_up(self):
        # Node 2 is a dead end east of node 1 and 3->4 one to the north;
        # the walk carries the packet back out of each and gives up,
        # unreached, once it has retreated to its start.
        net = make_line_network(
            [[0, 5000], [1000, 1000], [1090, 1000], [1000, 1090],
             [1000, 1180]],
            r=100.0)
        nodes, reached = _walk(net, 1, 50,
                               lambda n: net.dist(n, 2000.0, 1000.0) <= net.r,
                               target=(2000.0, 1000.0))
        assert nodes == [1, 2, 1, 3, 4, 3, 1]
        assert not reached


class TestVariableAngle:
    def test_prefers_aligned_neighbor(self):
        # Sink far east; the aligned neighbor (angle 0) must win over the
        # perpendicular one.
        net = make_line_network(
            [[3000, 1000], [0, 1000], [150, 1000], [0, 1150],
             [2900, 1000]],
            r=200.0, field_side=4000.0)
        nodes, _ = _walk(net, 1, 1, lambda n: n == pn.SINK,
                         order=net.by_sink_angle)
        assert nodes[1] == 2

    def test_delivers_near_shortest(self, dense_net):
        rng = np.random.default_rng(3)
        ids = dense_net.reachable_sensor_ids()
        pool = ids[dense_net.hops[ids] >= 8]
        ok = 0
        for _ in range(100):
            s = int(pool[rng.integers(len(pool))])
            h = dense_net.hop_list[s]
            nodes, reached = _walk(dense_net, s, 4 * h,
                                   lambda n: n == pn.SINK,
                                   order=dense_net.by_sink_angle)
            assert reached
            if nodes[-1] == pn.SINK and h <= len(nodes) - 1 <= 1.5 * h:
                ok += 1
        assert ok >= 90


def frame_y(network, frame, pos):
    """Signed distance of ``pos`` from the source-sink axis."""
    return float(project(pos - network.positions[pn.SINK], frame.y_axis))


class TestSameHopRoute:
    def test_zero_length(self, dense_net):
        node = int(dense_net.reachable_sensor_ids()[5])
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        nodes, annotations = _same_hop_leg(dense_net, node, 0, frame, None)
        assert nodes == [node]
        assert annotations == []

    def test_constant_ring_when_unrelaxed(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        rng = np.random.default_rng(4)
        ids = dense_net.reachable_sensor_ids()
        pool = ids[dense_net.hops[ids] >= 4]
        for _ in range(60):
            start = int(pool[rng.integers(len(pool))])
            nodes, annotations = _same_hop_leg(dense_net, start, 8, frame, None)
            if not annotations:
                ring = {int(dense_net.hops[n]) for n in nodes}
                assert len(ring) == 1

    def test_walks_toward_axis(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        rng = np.random.default_rng(17)
        ids = dense_net.reachable_sensor_ids()
        fy = np.abs([frame_y(dense_net, frame, dense_net.positions[i]) for i in ids])
        pool = ids[(dense_net.hops[ids] >= 4) & (fy >= 300.0)]
        ok = 0
        for _ in range(100):
            start = int(pool[rng.integers(len(pool))])
            nodes, _ = _same_hop_leg(dense_net, start, 12, frame, None)
            fy0 = abs(frame_y(dense_net, frame, dense_net.positions[nodes[0]]))
            fy1 = abs(frame_y(dense_net, frame, dense_net.positions[nodes[-1]]))
            ok += fy1 <= fy0
        assert ok >= 95


class TestRoutePacket:
    def test_direct_send_when_adjacent(self):
        net = make_line_network([[500, 500], [560, 500], [440, 500]],
                                r=100.0, field_side=1000.0)
        t = pn.make_router(net, "psspr", 1, h=1, omega=2)(
            np.random.default_rng(0))
        assert t.hops == [1, pn.SINK]
        assert t.phases == [PHASE_DIRECT, PHASE_DIRECT]
        assert t.delivered

    def test_direct_send_from_the_sinks_position(self):
        # No source frame exists at distance 0, and none is built.
        net = make_line_network([[500, 500], [500, 500], [560, 500]],
                                r=100.0, field_side=1000.0)
        t = pn.make_router(net, "psspr", 1, h=1, omega=2)(None)
        assert t.legs == [(PHASE_DIRECT, [1, pn.SINK])]
        assert t.delivered

    def test_delivered_trace_endpoints(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        params = SectorParams(5, 4, 6, 6)
        domains = candidate_domain(dense_net, frame, params)
        rng = np.random.default_rng(12)
        for _ in range(50):
            t = route_packet(dense_net, frame, params, rng, domains=domains)
            assert t.hops[0] == src
            if t.delivered:
                assert t.hops[-1] == pn.SINK
            for a, b in zip(t.hops, t.hops[1:]):
                assert b in dense_net.neighbors(a)

    def test_phantom_leg_avoids_visible_area(self, dense_net):
        # r_min * r = 400 > r0 = 300 here; the packet legs from the
        # phantom onward must stay clear of the source's visible disc.
        src = pn.pick_source(dense_net, 12, 11)
        frame = build_frame(dense_net, src)
        params = SectorParams(5, 4, 6, 6)
        domains = candidate_domain(dense_net, frame, params)
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = route_packet(dense_net, frame, params, rng, domains=domains)
            assert not enters_visible_area(t, dense_net, src)

    def test_phantom_diversity(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        params = SectorParams(5, 4, 6, 6)
        domains = candidate_domain(dense_net, frame, params)
        rng = np.random.default_rng(5)
        chosen = {route_packet(dense_net, frame, params, rng,
                               domains=domains).phantom
                  for _ in range(500)}
        need = 0.5 * pn.phantom_count_psspr(4, 6, 1)
        assert len(chosen) >= need

    def test_deterministic_traces(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        frame = build_frame(dense_net, src)
        params = SectorParams(5, 4, 6, 6)
        domains = candidate_domain(dense_net, frame, params)
        a = [route_packet(dense_net, frame, params,
                          np.random.default_rng(77), domains).hops
             for _ in range(3)]
        b = [route_packet(dense_net, frame, params,
                          np.random.default_rng(77), domains).hops
             for _ in range(3)]
        assert a == b
