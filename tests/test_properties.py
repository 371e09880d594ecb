"""Routing invariants over random fields, seeds and hop parameters.

Hypothesis runs derandomized with no example database, so the suite
stays deterministic and leaves nothing on disk.
"""

import copy
import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

import phantomnet as pn
from conftest import validate_trace
from phantomnet.adversary import observe_packet
from phantomnet.analysis import SectorParams, rmin_rmax_for
from phantomnet.errors import (ConnectivityError, EmptyDomain, EmptyRing,
                               InvalidParameter)
from phantomnet.net import unit
from phantomnet.psspr import (build_frame, candidate_domain, route_packet,
                              select_phantom)
from phantomnet.trace import (PHASE_DIRECT, PHASE_DIRECTED,
                              PHASE_PHANTOM_PATH, PHASE_SAME_HOP,
                              PHASE_SHORTEST, PHASE_VAR_ANGLE, PHASE_WALK,
                              RouteTrace)

PACKETS = 10
SETUP_ERRORS = (ConnectivityError, InvalidParameter, EmptyDomain, EmptyRing)


def route_session(network, protocol, source, h, omega, seed):
    """Traces of one session's packets, all drawn from one rng."""
    router = pn.make_router(network, protocol, source, h=h, omega=omega)
    rng = np.random.default_rng(seed)
    return [router(rng) for _ in range(PACKETS)]


def same_hop_runs(trace):
    """Each same-hop leg, with the node it started from."""
    return [nodes for phase, nodes in trace.legs if phase == PHASE_SAME_HOP]


def opening_var_angle_run(trace):
    """The nodes of a trace's opening variable-angle leg when another
    leg follows it, else an empty list."""
    (phase, nodes), *rest = trace.legs
    return nodes if phase == PHASE_VAR_ANGLE and rest else []


def random_session(n, seed, h, H, omega, protocol):
    """(network, source, traces) of one session on a random field of
    density 3.5e-4 per m^2, or no example when the set-up fails."""
    side = math.sqrt(n / 3.5e-4)
    try:
        network = pn.deploy(n, side, 100.0, 300.0, seed)
        source = pn.pick_source(network, H, seed)
        traces = route_session(network, protocol, source, h, omega, seed)
    except SETUP_ERRORS:
        assume(False)
    return network, source, traces


FIELDS = dict(n=st.integers(300, 900), seed=st.integers(0, 2**16),
              h=st.integers(2, 8), H=st.integers(3, 9),
              omega=st.sampled_from([2, 4, 6, 8]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**FIELDS, protocol=st.sampled_from(pn.PROTOCOLS))
def test_route_invariants(n, seed, h, H, omega, protocol):
    network, source, traces = random_session(n, seed, h, H, omega, protocol)
    for trace in traces:
        validate_trace(network, trace, source)
        if not any(a.startswith("same-hop-relaxed") for a in trace.annotations):
            for run in same_hop_runs(trace):
                assert len({int(network.hops[node]) for node in run}) == 1
        # The sink-side variable-angle leg stops on entering its ring,
        # r_max*r >= 2r from the sink, so it never reaches the sink itself.
        assert network.sink not in opening_var_angle_run(trace)

    again = route_session(network, protocol, source, h, omega, seed)
    assert [t.hops for t in again] == [t.hops for t in traces]

    # The adversary, replayed from the sink, moves along one radio link
    # at most per packet: to the first sender in hop order within r of
    # its perch, by the plain geometric test.
    perch = network.sink
    for trace in traces:
        moved = observe_packet(network, perch, trace)
        assert moved == perch or moved in network.neighbors(perch)
        px, py = network.xs[perch], network.ys[perch]
        assert moved == next((s for s in trace.hops[:-1] if s != perch
                              and network.dist(s, px, py) <= network.r), perch)
        perch = moved


# PSSPR's two phase orders, set by the phantom's side of the center node
# V, and where each stops when its first leg misses.
SOURCE_SIDE = ([PHASE_DIRECTED],
               [PHASE_DIRECTED, PHASE_DIRECTED, PHASE_SAME_HOP, PHASE_VAR_ANGLE])
SINK_SIDE = ([PHASE_VAR_ANGLE],
             [PHASE_VAR_ANGLE, PHASE_SAME_HOP, PHASE_DIRECTED, PHASE_DIRECTED],
             [PHASE_VAR_ANGLE, PHASE_SAME_HOP] + [PHASE_DIRECTED] * 3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**FIELDS)
def test_psspr_leg_order_follows_the_phantoms_side(n, seed, h, H, omega):
    """The legs follow the phantom's side, and each directed and
    variable-angle leg ends on the first node where its stop rule holds,
    with its hop budget spent, or back on its start."""
    network, source, traces = random_session(n, seed, h, H, omega, "psspr")
    if network.sink_dist[source] <= network.r:
        assert all(t.legs == [(PHASE_DIRECT, [source, network.sink])]
                   and t.phantom is None for t in traces)
        return
    params = SectorParams(h, *rmin_rmax_for(h), omega)
    frame = build_frame(network, source)
    domains = candidate_domain(network, frame, params)
    r, sink, side = network.r, network.sink, network.field_side
    ring = params.r_max * r
    cap, budget = 4 * params.r_max, 4 * network.hop_list[source]
    sx, sy = network.xs[source], network.ys[source]
    fx, fy = frame.x_axis

    def near(x, y):
        return lambda n: network.dist(n, x, y) <= r

    rng = np.random.default_rng(seed)
    for trace in traces:
        # A replay of the packet's draws on a copy gives its mirror
        # anchor; routing it again keeps the rng in step.
        choice = select_phantom(network, frame, params, copy.deepcopy(rng),
                                domains)
        assert route_packet(network, frame, params, rng, domains) == trace
        tags = [phase for phase, _ in trace.legs]
        # The mirror flag is the in-field test of the exit anchor's
        # reflection through V, taken before any clamp.
        ux, uy = unit(network.xs[choice.p1] - sx, network.ys[choice.p1] - sy)
        vx, vy = frame.center_v
        mx, my = 2.0 * vx - sx - ring * ux, 2.0 * vy - sy - ring * uy
        assert choice.mirror_in_field == (0.0 <= mx <= side
                                          and 0.0 <= my <= side)
        px, py = network.xs[trace.phantom], network.ys[trace.phantom]
        x = (px - network.xs[sink]) * fx + (py - network.ys[sink]) * fy
        # The packet goes on past its first leg exactly when that leg
        # reached the phantom (source side) or entered the mirrored ring.
        first_end = trace.legs[0][1][-1]
        if x > frame.v_x:
            assert tags in SOURCE_SIDE
            assert (len(tags) > 1) == (
                network.dist(first_end, px, py) <= network.r)
            radius = min(ring, frame.corner_reach - r)
            ux, uy = unit(px - sx, py - sy)
            away = near(min(max(sx + radius * ux, 0.0), side),
                        min(max(sy + radius * uy, 0.0), side))
            rules = [(near(px, py), cap),
                     (lambda n: network.dist(n, sx, sy) >= radius
                      or away(n), cap),
                     None,
                     (lambda n: n == sink, budget)]
        else:
            assert tags in SINK_SIDE
            assert (len(tags) > 1) == (network.sink_dist[first_end] <= ring)
            # Past its first leg, the packet visits the mirror anchor
            # exactly when the flag holds.
            assert len(tags) == 1 or (len(tags) == 5) == choice.mirror_in_field
            rules = ([(lambda n: n == sink or network.sink_dist[n] <= ring,
                       budget), None]
                     + [(near(*choice.a_mirror), cap)] * choice.mirror_in_field
                     + [(lambda n: n == trace.phantom, cap),
                        (lambda n: n == sink, budget)])
        for (phase, nodes), rule in zip(trace.legs, rules):
            assert (rule is None) == (phase == PHASE_SAME_HOP)
            if rule is None:
                continue
            done, hops = rule
            assert not any(done(node) for node in nodes[:-1])
            assert (done(nodes[-1]) or len(nodes) - 1 == hops
                    or nodes[-1] == nodes[0])


def stitch_oracle(legs):
    """Reference per-hop views of a leg list: the legs concatenated, each
    starting where the one before ended. The first node carries the
    first leg's tag; every later node carries the tag of the leg that
    brought the packet to it."""
    hops, phases = [legs[0][1][0]], [legs[0][0]]
    for phase, nodes in legs:
        hops += nodes[1:]
        phases += [phase] * (len(nodes) - 1)
    return hops, phases


TAGS = [PHASE_DIRECT, PHASE_DIRECTED, PHASE_SAME_HOP, PHASE_VAR_ANGLE,
        PHASE_WALK, PHASE_PHANTOM_PATH, PHASE_SHORTEST]


@st.composite
def leg_lists(draw):
    """Legs on nodes 0..9 (0 is the sink), each starting where the one
    before it stopped; a leg of one node makes no hop."""
    start = draw(st.integers(0, 9))
    legs = []
    for phase in draw(st.lists(st.sampled_from(TAGS), min_size=1,
                               max_size=6)):
        nodes = [start] + draw(st.lists(st.integers(0, 9), max_size=4))
        legs.append((phase, nodes))
        start = nodes[-1]
    return legs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(legs=leg_lists())
@example(legs=[(PHASE_DIRECT, [3])])
@example(legs=[(PHASE_DIRECTED, [3]), (PHASE_SAME_HOP, [3]),
               (PHASE_VAR_ANGLE, [3, pn.SINK])])
def test_legs_give_the_stitched_hops_and_phases(legs):
    kept = [(phase, list(nodes)) for phase, nodes in legs]
    trace = RouteTrace(legs)
    assert (trace.hops, trace.phases) == stitch_oracle(legs)
    assert trace.delivered == (trace.hops[-1] == pn.SINK)
    assert trace.transmissions == len(trace.hops) - 1
    assert trace.legs == kept       # deriving the views copies, not edits
