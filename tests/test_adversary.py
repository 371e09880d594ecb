from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import phantomnet as pn
from phantomnet.adversary import observe_packet
from phantomnet.errors import InvalidParameter
from phantomnet.trace import PHASE_SHORTEST, RouteTrace, enters_visible_area


def two_node_net():
    """Sink plus one sensor within range of it."""
    positions = np.array([[500.0, 500.0], [560.0, 500.0]])
    return pn.Network(positions, r=100.0, r0=100.0, field_side=1000.0)


def test_one_hop_capture():
    net = two_node_net()
    trace = RouteTrace([(PHASE_SHORTEST, [1, pn.SINK])])
    perch = observe_packet(net, pn.SINK, trace)
    assert perch == 1
    assert perch in net.visible(1)


def test_short_traces_leave_the_perch_unchanged():
    # A trace of 0 or 1 hops transmits nothing, even from a node within
    # range of the perch.
    net = two_node_net()
    for perch, hops in product((pn.SINK, 1), ([], [0], [1])):
        trace = RouteTrace([(PHASE_SHORTEST, hops)])
        assert observe_packet(net, perch, trace) == perch


def test_out_of_range_trace_leaves_state_unchanged(dense_net):
    # A far-corner source two hops from its neighbor; both far from sink.
    ids = dense_net.reachable_sensor_ids()
    pos = dense_net.positions
    far = ids[np.linalg.norm(pos[ids] - pos[pn.SINK], axis=1) > 900]
    a = int(far[0])
    b = int(dense_net.neighbors(a)[0])
    trace = RouteTrace([(PHASE_SHORTEST, [a, b])])
    assert observe_packet(dense_net, pn.SINK, trace) == pn.SINK


def test_backtrace_progression_matches_path_oracle():
    # With r0 = r the capture point is essentially the source itself;
    # the same shortest path repeats every packet, so each packet pulls
    # the adversary exactly one hop backward.
    net = pn.deploy(500, 1500.0, 100.0, 100.0, seed=7)
    ids = net.reachable_sensor_ids()
    src = int(ids[np.argmax(net.hops[ids])])
    H = int(net.hops[src])
    rng = np.random.default_rng(1)
    record = pn.run_session(net, "shortest-path", src, 200, rng, h=5,
                            omega=6)
    assert record.captured
    assert abs(record.safety_time - H) <= 2


def test_adversary_never_teleports(desk_net):
    src = pn.pick_source(desk_net, 15, 2)
    router = pn.make_router(desk_net, "psspr", src, h=10, omega=6)
    rng = np.random.default_rng(4)
    visible = desk_net.visible(src)
    perch = pn.SINK
    for _ in range(80):
        moved = observe_packet(desk_net, perch, router(rng))
        jump = np.linalg.norm(desk_net.positions[moved]
                              - desk_net.positions[perch])
        assert jump <= desk_net.r
        if moved != perch and moved in visible:
            break
        perch = moved


def test_capture_definition_radius(desk_net):
    # run_session declares capture at the first packet that moves the
    # adversary onto the source or within r0 of it.
    src = pn.pick_source(desk_net, 10, 2)
    record = pn.run_session(desk_net, "shortest-path", src, 100,
                            np.random.default_rng(0), h=5, omega=6)
    router = pn.make_router(desk_net, "shortest-path", src, h=5, omega=6)
    rng = np.random.default_rng(0)
    perch = pn.SINK
    for k in range(1, 101):
        moved = observe_packet(desk_net, perch, router(rng))
        d = np.linalg.norm(desk_net.positions[moved]
                           - desk_net.positions[src])
        if moved != perch and (moved == src or d <= desk_net.r0):
            break
        perch = moved
    assert record.captured
    assert record.safety_time == k


def test_run_session_rejects_zero_packets(desk_net):
    src = pn.pick_source(desk_net, 10, 2)
    with pytest.raises(InvalidParameter):
        pn.run_session(desk_net, "shortest-path", src, 0,
                       np.random.default_rng(0), h=5, omega=6)


def test_single_packet_adjacent_source():
    net = two_node_net()
    record = pn.run_session(net, "shortest-path", 1, 1,
                            np.random.default_rng(0), h=5, omega=6)
    assert record.safety_time == 1
    assert record.captured


def test_shortest_path_capture_bound(desk_net):
    src = pn.pick_source(desk_net, 20, 2)
    record = pn.run_session(desk_net, "shortest-path", src, 400,
                            np.random.default_rng(0), h=5, omega=6)
    assert record.captured
    assert record.safety_time <= 25


def test_psspr_beats_shortest_path_paired_seeds():
    wins = 0
    for seed in range(1, 51):
        net = pn.deploy(700, 1500.0, 100.0, 300.0, seed=seed + 1000)
        ids = net.reachable_sensor_ids()
        cands = ids[np.abs(net.hops[ids] - 8) <= 1]
        src = int(cands[0])
        rng_a = np.random.default_rng([seed, 1])
        rng_b = np.random.default_rng([seed, 1])
        sp = pn.run_session(net, "shortest-path", src, 300, rng_a, h=5,
                            omega=6)
        ps = pn.run_session(net, "psspr", src, 300, rng_b, h=5, omega=6)
        wins += ps.safety_time > sp.safety_time
    assert wins >= 48  # 95% of 50 seeds


def test_session_determinism(desk_net):
    src = pn.pick_source(desk_net, 15, 2)
    kw = dict(h=10, omega=6)
    a = pn.run_session(desk_net, "psspr", src, 50,
                       np.random.default_rng(42), **kw)
    b = pn.run_session(desk_net, "psspr", src, 50,
                       np.random.default_rng(42), **kw)
    assert a == b


def test_metrics_bookkeeping(desk_net):
    src = pn.pick_source(desk_net, 10, 2)
    seen = []

    def failure_path(trace, network, source):
        seen.append(trace)
        return enters_visible_area(trace, network, source)

    record = pn.run_session(desk_net, "pusbrf", src, 30,
                            np.random.default_rng(3), h=5, omega=6,
                            failure_path=failure_path)
    # One packet per unit of safety time: the session stops at capture.
    assert len(seen) == record.safety_time
    assert record.captured or record.safety_time == 30
    assert record.total_hops == sum(t.transmissions for t in seen)
    assert record.delivered == sum(t.delivered for t in seen)
    assert record.failure_paths == sum(
        enters_visible_area_by_onset(t, desk_net, src) for t in seen)
    assert record == pn.run_session(desk_net, "pusbrf", src, 30,
                                    np.random.default_rng(3), h=5, omega=6)


def plain_distance(a, b):
    """sqrt(dx*dx + dy*dy) through numpy's row-wise sum of squares."""
    return float(np.linalg.norm((a - b)[None, :], axis=1)[0])


def observe_packet_loop(network, perch, trace):
    """A per-sender loop over numpy positions, kept as observe_packet's
    oracle."""
    pos = network.positions
    for sender in trace.hops[:-1]:
        if (sender != perch
                and plain_distance(pos[sender], pos[perch]) <= network.r):
            return sender
    return perch


def in_visible_area_loop(network, node, source):
    """The capture test on numpy positions, kept as the oracle of the
    session's r0 disc."""
    pos = network.positions
    return (node == source
            or plain_distance(pos[node], pos[source]) <= network.r0)


def enters_visible_area_by_onset(trace, network, source):
    """Failure-path test through the phantom onset index, kept as oracle."""
    if not trace.hops:
        return False
    start = 0
    if trace.phantom is not None:
        ppos = network.positions[trace.phantom]
        d = np.linalg.norm(network.positions[np.array(trace.hops)] - ppos,
                           axis=1)
        near = np.flatnonzero(d <= network.r)
        if not len(near):
            return False
        start = int(near[0])
    seg = np.array(trace.hops[start:], dtype=np.int64)
    d = np.linalg.norm(network.positions[seg] - network.positions[source],
                       axis=1)
    return bool(np.any(d <= network.r0))


def routed_traces(network, n_packets):
    """(source, trace) pairs from every protocol on a few sources."""
    out = []
    for k, H in enumerate((6, 12, 18)):
        src = pn.pick_source(network, H, 2)
        for p in pn.PROTOCOLS:
            router = pn.make_router(network, p, src, h=5, omega=6)
            rng = np.random.default_rng([k, pn.PROTOCOLS.index(p)])
            out += [(src, router(rng)) for _ in range(n_packets)]
    return out


def test_observe_packet_matches_per_sender_loop(desk_net):
    rng = np.random.default_rng(9)
    moved = 0
    for src, trace in routed_traces(desk_net, 15):
        perches = [pn.SINK, *rng.choice(trace.hops, 3),
                   *rng.integers(len(desk_net), size=2)]
        for at in map(int, perches):
            new = observe_packet(desk_net, at, trace)
            assert new == observe_packet_loop(desk_net, at, trace)
            moved += new != at
            for source in (src, trace.hops[0]):
                assert ((new in desk_net.visible(source))
                        == in_visible_area_loop(desk_net, new, source))
    assert moved > 50


def test_enters_visible_area_matches_onset_reference(desk_net):
    rng = np.random.default_rng(10)
    outcomes = set()
    for src, trace in routed_traces(desk_net, 15):
        # A phantom far off the path stands for one the packet never
        # reached.
        far = replace(trace, phantom=int(rng.integers(len(desk_net))))
        for t, source in product((trace, far),
                                 (src, *rng.integers(len(desk_net), size=2))):
            got = enters_visible_area(t, desk_net, int(source))
            assert got == enters_visible_area_by_onset(t, desk_net,
                                                       int(source))
            outcomes.add(got)
    assert outcomes == {True, False}
    empty = RouteTrace([(PHASE_SHORTEST, [])])
    assert not enters_visible_area(empty, desk_net, 1)


def test_replays_follow_the_reference_norms_at_the_radius():
    # Both sensors sit at distance 100 from the sink up to the last bit.
    # In plain float arithmetic sensor 1 is 100.00000000000001 away and
    # sensor 2 exactly 100.0; a fused multiply-add (a BLAS dot) rounds
    # them the other way round.
    net = pn.Network(np.array([[0.0, 0.0],
                               [38.715009983841995, 92.2016702774468],
                               [12.748076127660413, 99.18410434663095]]),
                     r=100.0, r0=100.0, field_side=200.0)
    pos = net.positions
    assert plain_distance(pos[1], pos[pn.SINK]) > net.r
    assert plain_distance(pos[2], pos[pn.SINK]) == net.r
    heard = {}
    for sender in (1, 2):
        trace = RouteTrace([(PHASE_SHORTEST, [sender, pn.SINK])])
        new = observe_packet(net, pn.SINK, trace)
        assert new == observe_packet_loop(net, pn.SINK, trace)
        heard[sender] = new == sender
        for phantom, source in product((None, pn.SINK), (1, 2)):
            t = replace(trace, phantom=phantom)
            assert (enters_visible_area(t, net, source)
                    == enters_visible_area_by_onset(t, net, source))
    assert heard == {1: False, 2: True}
