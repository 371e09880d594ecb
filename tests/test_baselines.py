import numpy as np
import pytest

import phantomnet as pn
from phantomnet.baselines import _descend, hbdrw_route, shortest_path_route
from phantomnet.errors import EmptyRing, InvalidParameter
from phantomnet.protocols import PUSBRF
from phantomnet.psspr import build_frame

from conftest import bfs_oracle


def adjacency_lists(net):
    return [net.neighbors(i) for i in range(len(net))]


def test_params_validation(dense_net):
    src = pn.pick_source(dense_net, 10, 11)
    for protocol in ("hbdrw", PUSBRF):
        with pytest.raises(InvalidParameter):
            pn.make_router(dense_net, protocol, src, h=0, omega=6)


class TestHbdrw:
    def test_one_hop_walk_ends_at_neighbor(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        rng = np.random.default_rng(1)
        for _ in range(40):
            t = hbdrw_route(dense_net, src, 1, rng)
            assert t.phantom in dense_net.neighbors(src)

    def test_delivers_and_respects_hop_bound(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        h = 6
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = hbdrw_route(dense_net, src, h, rng)
            assert t.delivered and t.hops[-1] == pn.SINK
            assert t.transmissions >= dense_net.hops[src] - h
            assert t.transmissions <= 4 * dense_net.hops[src]

    def test_walk_set_discipline(self, dense_net):
        # Every walk relay moves strictly monotonically in hop count, in
        # the direction committed at the start, except annotated
        # fallback steps.
        src = pn.pick_source(dense_net, 10, 11)
        rng = np.random.default_rng(3)
        for _ in range(60):
            t = hbdrw_route(dense_net, src, 5, rng)
            walk = dict(t.legs)[pn.trace.PHASE_WALK]
            fallback_steps = {int(a.split("@")[1]) for a in t.annotations}
            deltas = [int(dense_net.hops[b]) - int(dense_net.hops[a])
                      for a, b in zip(walk, walk[1:])]
            if not deltas:
                continue
            committed = np.sign(deltas[0]) if 0 not in fallback_steps else None
            for step, d in enumerate(deltas):
                assert d != 0
                if committed is None:
                    committed = np.sign(d)
                if step not in fallback_steps:
                    assert np.sign(d) == committed

    def test_endpoint_arc_matches_four_gamma(self, dense_net):
        # Endpoints should concentrate in an arc of about 4*gamma around
        # the source-sink axis; measured as the central 95% window of
        # the angular deviation folded onto the axis line.
        h = 10
        gamma = np.degrees(np.arccos((h - 1) / h))
        src = pn.pick_source(dense_net, 12, 11)
        frame = build_frame(dense_net, src)
        axis = -np.array(frame.x_axis)
        rng = np.random.default_rng(5)
        devs = []
        for _ in range(5000):
            t = hbdrw_route(dense_net, src, h, rng)
            v = dense_net.positions[t.phantom] - dense_net.positions[src]
            ang = np.degrees(np.arctan2(v @ frame.y_axis, v @ axis))
            fold = ang if abs(ang) <= 90 else (180 - abs(ang)) * np.sign(-ang)
            devs.append(abs(fold))
        window = 2 * np.quantile(devs, 0.95)
        assert 0.75 * 4 * gamma <= window <= 1.25 * 4 * gamma


class TestPusbrf:
    def test_ring_membership_exact(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        # Independent oracle for the source-rooted distances.
        oracle = bfs_oracle(adjacency_lists(dense_net), src)
        rng = np.random.default_rng(4)
        for h in (1, 5, 9):
            route = pn.make_router(dense_net, PUSBRF, src, h=h, omega=6)
            for _ in range(30):
                t = route(rng)
                assert oracle[t.phantom] == h
                assert t.delivered and t.hops[-1] == pn.SINK
                # Source-to-phantom leg is a minimum-hop path.
                assert t.phantom in t.hops
                assert t.hops.index(t.phantom) == h

    def test_one_hop_ring_is_neighbors(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        rng = np.random.default_rng(6)
        route = pn.make_router(dense_net, PUSBRF, src, h=1, omega=6)
        seen = {route(rng).phantom for _ in range(200)}
        assert seen <= {int(j) for j in dense_net.neighbors(src)}

    def test_empty_ring_raises(self, dense_net):
        # The session set-up finds the empty ring, before any packet.
        src = pn.pick_source(dense_net, 10, 11)
        with pytest.raises(EmptyRing):
            pn.make_router(dense_net, PUSBRF, src, h=10_000, omega=6)

    def test_mean_phantom_distance_near_rh(self, dense_net):
        src = pn.pick_source(dense_net, 10, 11)
        rng = np.random.default_rng(6)
        h = 10
        route = pn.make_router(dense_net, PUSBRF, src, h=h, omega=6)
        d = []
        for _ in range(2000):
            t = route(rng)
            d.append(np.linalg.norm(dense_net.positions[t.phantom]
                                    - dense_net.positions[src]))
        mean = float(np.mean(d))
        assert 0.8 * h * dense_net.r <= mean <= 1.2 * h * dense_net.r


class TestShortestPath:
    def test_one_hop_source(self, dense_net):
        src = int(dense_net.neighbors(pn.SINK)[0])
        t = shortest_path_route(dense_net, src)
        assert t.hops == [src, pn.SINK]

    def test_length_equals_hop_count(self, dense_net):
        rng = np.random.default_rng(8)
        ids = dense_net.reachable_sensor_ids()
        oracle = bfs_oracle(adjacency_lists(dense_net), pn.SINK)
        for _ in range(100):
            src = int(ids[rng.integers(len(ids))])
            t = shortest_path_route(dense_net, src)
            assert t.transmissions == dense_net.hops[src] == oracle[src]
            assert t.hops[-1] == pn.SINK
            assert t.delivered


def descend_fresh(network, field, start, toward):
    """Hop-field descent without a memo, kept as the oracle of _descend."""
    nodes = [start]
    cur = start
    while field[cur] > 0:
        nbrs = np.asarray(network.neighbors(cur))
        down = nbrs[field[nbrs] == field[cur] - 1]
        d = np.linalg.norm(network.positions[down] - toward, axis=1)
        cur = int(down[int(np.argmin(d))])
        nodes.append(cur)
    return nodes


class TestMemoisedDescent:
    @pytest.mark.parametrize("root", ["sink", "source"])
    def test_equals_fresh_descent_from_every_node(self, desk_net, root):
        if root == "sink":
            field, toward = desk_net.hops, desk_net.positions[pn.SINK]
        else:
            src = pn.pick_source(desk_net, 15, 2)
            field = desk_net.hops_from(src)
            toward = desk_net.positions[src]
        memo = [-1] * len(desk_net)
        # A random order meets the memo both empty and partly filled.
        order = np.random.default_rng(3).permutation(len(desk_net))
        reachable = [int(n) for n in order if field[n] != pn.UNREACHABLE]
        for node in reachable:
            assert (_descend(desk_net, field, node, toward, memo)
                    == descend_fresh(desk_net, field, node, toward))
        # Every relay's next hop is now known and nothing else is.
        assert np.array_equal(np.asarray(memo) >= 0, field > 0)

    def test_shortest_path_follows_the_network_memo(self, desk_net):
        for src in desk_net.reachable_sensor_ids()[::7]:
            t = shortest_path_route(desk_net, int(src))
            assert t.hops == descend_fresh(desk_net, desk_net.hops, int(src),
                                           desk_net.positions[pn.SINK])
