"""Scalar per-hop kernels against their numpy forms.

Each reference below is the ndarray form the routing loops had before
they became scalar Python loops: boolean visited masks, fancy-indexed
candidate arrays, argmin picks, and vectorised keep-out, parent/child
and descent steps. Their distances and projections are written in the
same plain float arithmetic as the kernels (numpy's elementwise ufuncs
round exactly as Python floats do), so the two must agree hop for hop.
Besides random fields, a square lattice makes exact distance ties
common, and hand-placed fields pin first-of-equals picks, the sqrt
before a compare and the order of the keep-out filter and the bounce
trim.
"""

import math
from itertools import product

import numpy as np
import pytest

import phantomnet as pn
from conftest import walk_oracle
from phantomnet.baselines import _descend, _descend_to_sink, hbdrw_route
from phantomnet.net import unit
from phantomnet.psspr import _same_hop_leg, _walk, build_frame
from phantomnet.trace import PHASE_SHORTEST, PHASE_WALK, RouteTrace

R = 100.0


def nbr_array(network, node):
    return np.asarray(network.neighbors(node), dtype=np.int64)


def row_norms_ref(d):
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def dist_ref(network, node, point):
    return row_norms_ref(network.positions[[node]] - np.asarray(point))[0]


def inside(network, avoid_near):
    """The node ids within a keep-out disc, as the kernels take it."""
    if avoid_near is None:
        return None
    center, radius = np.asarray(avoid_near[0]), avoid_near[1]
    d = row_norms_ref(network.positions - center)
    return frozenset(np.flatnonzero(d <= radius).tolist())


def keep_out_ref(network, cands, avoid_near, cur):
    if avoid_near is None or len(cands) == 0:
        return cands
    center, radius = np.asarray(avoid_near[0]), avoid_near[1]
    if dist_ref(network, cur, center) <= radius:
        return cands
    return cands[row_norms_ref(network.positions[cands] - center) > radius]


def walk_ref(network, start, budget, pick, done, prev=None, avoid_near=None):
    nodes = [start]
    if done(start):
        return nodes, True
    cur = start
    seen = np.zeros(len(network), dtype=bool)
    seen[start] = True
    stack = [start]
    while len(nodes) - 1 < budget:
        nbrs = nbr_array(network, cur)
        cands = keep_out_ref(network, nbrs[~seen[nbrs]], avoid_near, cur)
        if prev is not None and len(cands) > 1:
            trimmed = cands[cands != prev]
            if len(trimmed):
                cands = trimmed
        prev = None
        if len(cands) == 0:
            stack.pop()
            if not stack:
                return nodes, False
            cur = stack[-1]
            nodes.append(cur)
            continue
        cur = pick(cur, cands)
        seen[cur] = True
        stack.append(cur)
        nodes.append(cur)
        if done(cur):
            return nodes, True
    return nodes, False


def directed_leg_ref(network, start, target, max_hops, prev=None,
                     stop_node=None, min_dist_from=None, avoid_near=None):
    pos = network.positions
    target = np.asarray(target)

    def pick(cur, cands):
        return int(cands[row_norms_ref(pos[cands] - target).argmin()])

    def done(node):
        if stop_node is not None:
            return node == stop_node
        if min_dist_from is not None:
            origin, dist = min_dist_from
            if dist_ref(network, node, origin) >= dist:
                return True
        return dist_ref(network, node, target) <= network.r

    return walk_ref(network, start, max_hops, pick, done, prev=prev,
                    avoid_near=avoid_near)


def var_angle_leg_ref(network, start, frame, budget, prev=None, stop_fn=None,
                      avoid_near=None):
    pos = network.positions
    sink = network.sink

    def pick(cur, cands):
        if sink in cands:
            return sink
        vecs = pos[cands] - pos[cur]
        to_sink = network.positions[pn.SINK] - pos[cur]
        to_sink = to_sink / row_norms_ref(to_sink[None, :])[0]
        cos = ((vecs[:, 0] * to_sink[0] + vecs[:, 1] * to_sink[1])
               / row_norms_ref(vecs))
        return int(cands[np.arccos(np.clip(cos, -1.0, 1.0)).argmin()])

    def done(node):
        return node == sink or (stop_fn is not None and stop_fn(node))

    return walk_ref(network, start, budget, pick, done, prev=prev,
                    avoid_near=avoid_near)


def same_hop_leg_ref(network, start, h_m, frame, anchor, prev=None,
                     avoid_near=None):
    pos = network.positions
    hops = network.hops

    def score(ids):
        if anchor is None:
            d = pos[ids] - network.positions[pn.SINK]
            fy = np.abs(d[:, 0] * frame.y_axis[0] + d[:, 1] * frame.y_axis[1])
            return int(fy.argmin())
        return int(row_norms_ref(pos[ids] - np.asarray(anchor)).argmin())

    nodes = [start]
    annotations = []
    cur = start
    relaxed = False
    for _ in range(h_m):
        nbrs = nbr_array(network, cur)
        ring = keep_out_ref(network, nbrs[hops[nbrs] == hops[cur]],
                            avoid_near, cur)
        cands = ring[ring != prev] if prev is not None else ring
        if len(cands) == 0:
            cands = ring
        if len(cands) == 0:
            if relaxed:
                annotations.append(f"same-hop-aborted@{len(nodes) - 1}")
                break
            cands = keep_out_ref(network,
                                 nbrs[np.abs(hops[nbrs] - hops[cur]) == 1],
                                 avoid_near, cur)
            if len(cands) == 0:
                annotations.append(f"same-hop-aborted@{len(nodes) - 1}")
                break
            relaxed = True
            annotations.append(f"same-hop-relaxed@{len(nodes)}")
        prev, cur = cur, int(cands[score(cands)])
        nodes.append(cur)
    return nodes, annotations


def descend_ref(network, field, start, toward):
    field = np.asarray(field)
    nodes = [start]
    cur = start
    while field[cur] > 0:
        nbrs = nbr_array(network, cur)
        down = nbrs[field[nbrs] == field[cur] - 1]
        cur = int(down[row_norms_ref(network.positions[down]
                                     - np.asarray(toward)).argmin()])
        nodes.append(cur)
    return nodes


def hbdrw_route_ref(network, source, walk_hops, rng):
    hops = network.hops
    committed_parent = bool(rng.integers(2) == 0)
    walk = [source]
    annotations = []
    cur, prev = source, None
    for step in range(walk_hops):
        nbrs = nbr_array(network, cur)
        parents = nbrs[hops[nbrs] < hops[cur]]
        children = nbrs[hops[nbrs] > hops[cur]]
        primary, other = ((parents, children) if committed_parent
                          else (children, parents))
        cands = primary
        if len(cands) == 0:
            cands = other
            if len(cands) == 0:
                break
            annotations.append(f"walk-fallback@{step}")
        if prev is not None and len(cands) > 1:
            trimmed = cands[cands != prev]
            if len(trimmed):
                cands = trimmed
        prev, cur = cur, int(cands[int(rng.integers(len(cands)))])
        walk.append(cur)
    tail = descend_ref(network, network.hops, cur, network.positions[pn.SINK])
    return RouteTrace([(PHASE_WALK, walk), (PHASE_SHORTEST, tail)],
                      annotations, cur if cur != source else None)


def lattice_net():
    """Sensors on a 50 m square grid, r = 100: exact distance ties abound."""
    grid = np.arange(25.0, 1000.0, 50.0)
    xx, yy = np.meshgrid(grid, grid)
    positions = np.vstack([[500.0, 500.0],
                           np.column_stack([xx.ravel(), yy.ravel()])])
    return pn.Network(positions, r=R, r0=300.0, field_side=1000.0)


def line_net():
    """Relays every 100 m along a line out of the sink, r = 100: the one
    400 m out sits exactly on a 400 m ring."""
    positions = [[100.0 * k, 500.0] for k in range(8)]
    return pn.Network(np.array(positions), r=R, r0=300.0, field_side=1000.0)


FIELDS = ["random-1", "random-2", "random-3", "lattice"]


@pytest.fixture(scope="module", params=FIELDS)
def field(request):
    if request.param == "lattice":
        return lattice_net()
    if request.param == "line":
        return line_net()
    seed = int(request.param.split("-")[1])
    return pn.deploy(1200, 1900.0, R, 300.0, seed=seed)


def leg_calls(network, n_calls, seed):
    """Random leg inputs: start, prev, target, keep-out disc, frame."""
    rng = np.random.default_rng(seed)
    ids = network.reachable_sensor_ids()
    pos = network.positions
    src = int(ids[np.argmax(network.hops[ids])])
    frame = build_frame(network, src)
    for _ in range(n_calls):
        start = int(ids[rng.integers(len(ids))])
        nbrs = network.neighbors(start)
        prev = int(nbrs[rng.integers(len(nbrs))]) if rng.random() < 0.8 \
            else None
        # Targets on the lattice's own grid keep ties frequent there.
        target = pos[int(ids[rng.integers(len(ids))])] \
            + 50.0 * rng.integers(-2, 3, size=2)
        keep_out = None
        if rng.random() < 0.7:
            center = pos[int(ids[rng.integers(len(ids))])]
            keep_out = ((float(center[0]), float(center[1])),
                        float(rng.uniform(100.0, 400.0)))
        yield start, prev, target, keep_out, frame


def test_directed_leg_matches_numpy_reference(field):
    """``_walk`` toward a point, under each stop rule a directed leg of
    ``route_packet`` uses: within r of the point, at least a distance
    from an origin or within r, and on one node."""
    pos = field.positions
    for start, prev, target, disc, _ in leg_calls(field, 60, 1):
        kw = dict(prev=prev, keep_out=inside(field, disc))
        ref = dict(prev=prev, avoid_near=disc)
        tx, ty = target
        assert (_walk(field, start, 40,
                      lambda n: field.dist(n, tx, ty) <= field.r,
                      target=target, **kw)
                == directed_leg_ref(field, start, target, 40, **ref))
        ox, oy = pos[start]
        assert (_walk(field, start, 40,
                      lambda n: (field.dist(n, ox, oy) >= 350.0
                                 or field.dist(n, tx, ty) <= field.r),
                      target=target, **kw)
                == directed_leg_ref(field, start, target, 40,
                                    min_dist_from=(pos[start], 350.0), **ref))
        assert (_walk(field, start, 25, lambda n: n == pn.SINK,
                      target=target, **kw)
                == directed_leg_ref(field, start, target, 25,
                                    stop_node=pn.SINK, **ref))
        # Toward the sink's position, the target scan and the ranked
        # table walk alike.
        bx, by = sink = pos[pn.SINK]
        for stop, rule in ((pn.SINK, lambda n: n == pn.SINK),
                           (None, lambda n: field.dist(n, bx, by) <= field.r)):
            want = directed_leg_ref(field, start, sink, 25, stop_node=stop,
                                    **ref)
            assert _walk(field, start, 25, rule, target=sink, **kw) == want
            assert _walk(field, start, 25, rule,
                         order=field.by_sink_distance, **kw) == want


# The line pins the ring test's "within": a leg that reaches the relay
# exactly on the ring stops there.
@pytest.mark.parametrize("field", FIELDS + ["line"], indirect=True)
def test_var_angle_leg_matches_numpy_reference(field):
    pos = field.positions
    for start, prev, _, disc, frame in leg_calls(field, 60, 2):
        kw = dict(prev=prev, keep_out=inside(field, disc))
        ref = dict(prev=prev, avoid_near=disc)
        assert (_walk(field, start, 60, lambda n: n == pn.SINK,
                      order=field.by_sink_angle, **kw)
                == var_angle_leg_ref(field, start, frame, 60, **ref))

        def entered(node):
            return dist_ref(field, node, pos[pn.SINK]) <= 400.0
        assert (_walk(field, start, 60,
                      lambda n: n == pn.SINK or field.sink_dist[n] <= 400.0,
                      order=field.by_sink_angle, **kw)
                == var_angle_leg_ref(field, start, frame, 60,
                                     stop_fn=entered, **ref))


def test_same_hop_leg_matches_numpy_reference(field):
    for start, prev, target, disc, frame in leg_calls(field, 60, 3):
        for anchor in (None, (float(target[0]), float(target[1]))):
            assert (_same_hop_leg(field, start, 12, frame, anchor, prev=prev,
                                  keep_out=inside(field, disc))
                    == same_hop_leg_ref(field, start, 12, frame, anchor,
                                        prev=prev, avoid_near=disc))


def test_visible_area_is_the_r0_disc_around_the_source(field):
    ids = field.reachable_sensor_ids()
    for src in ids[::97]:
        visible = field.visible(int(src))
        assert visible == inside(field, (field.positions[src], field.r0))
        assert int(src) in visible


def test_hbdrw_route_matches_numpy_reference(field):
    ids = field.reachable_sensor_ids()
    rng = np.random.default_rng(4)
    for k in range(60):
        src = int(ids[rng.integers(len(ids))])
        h = int(rng.integers(1, 12))
        got = hbdrw_route(field, src, h, np.random.default_rng(k))
        want = hbdrw_route_ref(field, src, h, np.random.default_rng(k))
        assert got == want


def test_descend_matches_numpy_reference(field):
    ids = field.reachable_sensor_ids()
    rng = np.random.default_rng(5)
    src = int(ids[rng.integers(len(ids))])
    for hops, root in ((field.hop_list, pn.SINK),
                       (field.hops_from(src), src)):
        toward = field.positions[root]
        memo = [-1] * len(field)
        for node in rng.permutation(ids)[:300]:
            node = int(node)
            if hops[node] < 0:
                continue
            assert (_descend(field, hops, node, toward, memo)
                    == descend_ref(field, hops, node, toward))


# Two sensors 60 m from the target T up to the last bits: their squared
# distances differ by one unit in the last place, their square roots are
# equal. Node 2 is the farther one by squared distance and comes first.
T = (1000.3, 1000.7)
TIE = [[1105.0, 1060.0],                            # sink, neighbor of all
       [1150.3, 1000.7],                            # start, 150 m east of T
       [1060.1086008774519, 1005.4886596330967],    # d^2 = 3599.999999999991
       [1060.2984906975737, 1001.125574920722]]     # d^2 = 3599.9999999999905


def tie_net():
    return pn.Network(np.array(TIE), r=R, r0=R, field_side=2000.0)


def test_tie_geometry():
    d2 = [(x - T[0]) * (x - T[0]) + (y - T[1]) * (y - T[1])
          for x, y in TIE[2:]]
    assert d2[0] > d2[1]
    assert math.sqrt(d2[0]) == math.sqrt(d2[1])
    net = tie_net()
    assert net.neighbors(1) == (0, 2, 3)
    assert net.hop_list == [0, 1, 1, 1]


def test_picks_compare_square_roots_and_keep_the_first_of_equals():
    net = tie_net()
    nodes, _ = _walk(net, 1, 1, lambda n: net.dist(n, *T) <= net.r, target=T)
    assert nodes == [1, 2]
    frame = build_frame(net, 1)
    nodes, _ = _same_hop_leg(net, 1, 1, frame, T)
    assert nodes == [1, 2]
    # A hand-made hop field with both sensors one hop below the start.
    assert _descend(net, [5, 1, 0, 0], 1, T, [-1] * 4) == [1, 2]


def test_var_angle_pick_keeps_the_first_of_equal_angles():
    # Nodes 2 and 3 both lie exactly on the line from node 1 to the sink.
    net = pn.Network(np.array([[0.0, 0.0], [300.0, 0.0], [220.0, 0.0],
                               [250.0, 0.0], [80.0, 0.0], [160.0, 0.0]]),
                     r=R, r0=R, field_side=400.0)
    nodes, _ = _walk(net, 1, 1, lambda n: n == pn.SINK,
                     order=net.by_sink_angle)
    assert nodes == [1, 2]


def test_keep_out_filters_before_the_bounce_trim():
    # From node 1, the previous relay 2 is the only candidate outside the
    # keep-out disc; node 3 lies inside it. Filtering first leaves node 2
    # alone, which the bounce trim then may not remove.
    net = pn.Network(np.array([[0.0, 0.0], [500.0, 500.0], [560.0, 500.0],
                               [440.0, 500.0]]),
                     r=R, r0=R, field_side=1000.0)
    keep_out = inside(net, ((360.0, 500.0), 100.0))
    assert keep_out == {3}
    nodes, _ = _walk(net, 1, 1, lambda n: net.dist(n, 300.0, 500.0) <= net.r,
                     prev=2, keep_out=keep_out, target=(300.0, 500.0))
    assert nodes == [1, 2]


def same_hop_net():
    """Sink at the origin and three level-1 sensors: node 1 on the x axis,
    nodes 2 and 3 mirrored about it, 60 m off, out of each other's range;
    node 4 one hop further out, in range of node 1 only."""
    return pn.Network(np.array([[0.0, 0.0], [50.0, 0.0], [50.0, 60.0],
                                [50.0, -60.0], [140.0, 0.0]]),
                      r=R, r0=R, field_side=1000.0)


def test_same_hop_geometry():
    net = same_hop_net()
    assert net.hop_list == [0, 1, 1, 1, 2]
    assert net.hop_rings(1) == ((0,), (2, 3), (4,))
    assert net.hop_rings(2) == ((0,), (1,), ())


@pytest.mark.parametrize("prev, keep_out, want", [
    (1, None, [2, 1]),            # the ring holds only prev: step back
    (2, frozenset({3}), [1, 2]),  # only a barred node besides prev
    (2, None, [1, 3]),            # prev set aside for node 3
])
def test_same_hop_steps_back_only_when_nothing_else_is_admissible(
        prev, keep_out, want):
    net = same_hop_net()
    frame = build_frame(net, 1)
    nodes, notes = _same_hop_leg(net, want[0], 1, frame, None, prev=prev,
                                 keep_out=keep_out)
    assert (nodes, notes) == (want, [])


@pytest.mark.parametrize("anchor, step", [((140.0, 10.0), 4),
                                          ((10.0, 10.0), 0), (None, 0)])
def test_same_hop_relaxes_once_then_aborts(anchor, step):
    # Node 1's whole ring is barred, a barred prev too: the step relaxes
    # to the sink or node 4, one hop lower or higher, nearest the anchor
    # or the axis (a tie the sink wins, first in neighbor order). Neither
    # has a level ring.
    net = same_hop_net()
    frame = build_frame(net, 1)
    for prev in (None, 2):
        nodes, notes = _same_hop_leg(net, 1, 3, frame, anchor, prev=prev,
                                     keep_out=frozenset({2, 3}))
        assert (nodes, notes) == ([1, step], ["same-hop-relaxed@1",
                                              "same-hop-aborted@1"])


@pytest.mark.parametrize("anchor", [None, (100.0, 0.0)],
                         ids=["projection", "anchor"])
def test_same_hop_tie_goes_to_the_first_in_ring_order(anchor):
    # Nodes 2 and 3 are exactly as far from the anchor and from the
    # source-sink axis; node 2 comes first in node 1's ring.
    net = same_hop_net()
    frame = build_frame(net, 1)
    assert _same_hop_leg(net, 1, 1, frame, anchor) == ([1, 2], [])


def angle_pick(network):
    """The variable-angle leg's per-hop pick, before the ranked table."""
    xs, ys = network.xs, network.ys
    bx, by = xs[pn.SINK], ys[pn.SINK]

    def pick(cur, cands):
        if pn.SINK in cands:
            return pn.SINK
        cx, cy = xs[cur], ys[cur]
        tx, ty = unit(bx - cx, by - cy)
        best, best_cos = -1, -math.inf
        for n in cands:
            vx = xs[n] - cx
            vy = ys[n] - cy
            cos = min(1.0, max(-1.0, (vx * tx + vy * ty)
                               / math.sqrt(vx * vx + vy * vy)))
            if cos > best_cos:
                best, best_cos = n, cos
        return best
    return pick


def test_tables_match_their_per_hop_forms(field):
    pos, hops = field.positions, field.hops
    d_sink = row_norms_ref(pos - pos[pn.SINK])
    rng = np.random.default_rng(6)
    for node in range(1, len(field)):
        nbrs = nbr_array(field, node)
        # Stable sorts: equal keys keep neighbor order.
        want = nbrs[np.argsort(d_sink[nbrs], kind="stable")]
        assert field.by_sink_distance(node) == tuple(want.tolist())
        others = nbrs[nbrs != pn.SINK]
        vecs = pos[others] - pos[node]
        to_sink = pos[pn.SINK] - pos[node]
        to_sink = to_sink / row_norms_ref(to_sink[None, :])[0]
        cos = np.clip((vecs[:, 0] * to_sink[0] + vecs[:, 1] * to_sink[1])
                      / row_norms_ref(vecs), -1.0, 1.0)
        want = [pn.SINK] * (len(others) < len(nbrs)) \
            + others[np.argsort(-cos, kind="stable")].tolist()
        assert field.by_sink_angle(node) == tuple(want)
        level = hops[node]
        assert field.hop_rings(node) == tuple(
            tuple(nbrs[m].tolist()) for m in (hops[nbrs] < level,
                                             hops[nbrs] == level,
                                             hops[nbrs] > level))
        assert field.visible(node) == inside(field, (pos[node], field.r0))
        assert {node, *field.neighbors(node)} == inside(field, (pos[node],
                                                                field.r))
        # The first admissible entry of a ranked table is the per-hop pick
        # over the admissible neighbors.
        for _ in range(3):
            cands = [n for n in nbrs.tolist() if rng.random() < 0.6]
            if not cands:
                continue
            assert ([n for n in field.by_sink_distance(node)
                     if n in cands][0]
                    == field.nearest(cands, *pos[pn.SINK]))
            assert ([n for n in field.by_sink_angle(node) if n in cands][0]
                    == angle_pick(field)(node, cands))


def test_ranked_walks_match_the_per_hop_picks(field):
    """The one-scan kernel against the per-hop candidate lists and picks it
    replaced: over both ranked tables, and toward node positions and
    points off every node."""
    xs, ys = field.xs, field.ys
    bx, by = xs[pn.SINK], ys[pn.SINK]
    per_hop = {field.by_sink_distance:
               lambda cur, cands: field.nearest(cands, bx, by),
               field.by_sink_angle: angle_pick(field)}
    stops = (lambda n: n == pn.SINK,
             lambda n: n == pn.SINK or field.dist(n, bx, by) <= 400.0)
    ids = field.reachable_sensor_ids()
    rng = np.random.default_rng(8)
    for start, prev, target, disc, _ in leg_calls(field, 60, 7):
        kw = dict(prev=prev, keep_out=inside(field, disc))
        node = int(ids[rng.integers(len(ids))])
        points = ((xs[node], ys[node]), (float(target[0]), float(target[1])))
        for stop in stops:
            for order, pick in per_hop.items():
                assert (_walk(field, start, 60, stop, order=order, **kw)
                        == walk_oracle(field, start, 60, pick, stop, **kw))
            for tx, ty in points:
                assert (_walk(field, start, 60, stop, target=(tx, ty), **kw)
                        == walk_oracle(
                            field, start, 60,
                            lambda cur, cands: field.nearest(cands, tx, ty),
                            stop, **kw))


def test_sink_dist_is_the_distance_to_the_sink(field):
    bx, by = field.xs[pn.SINK], field.ys[pn.SINK]
    assert len(field.sink_dist) == len(field)
    for n in range(len(field)):
        assert field.sink_dist[n] == field.dist(n, bx, by)


def symmetric_pair_net():
    """Sensors 2 and 3 mirror each other about the vertical through the
    sink, so both are exactly as far from it; node 1 hears both, the
    sink does not hear node 1."""
    return pn.Network(np.array([[500.0, 500.0], [500.0, 640.0],
                                [560.0, 570.0], [440.0, 570.0]]),
                      r=R, r0=R, field_side=1000.0)


def test_by_sink_distance_keeps_ascending_ids_among_equal_distances():
    net = symmetric_pair_net()
    assert net.sink_dist[2] == net.sink_dist[3]
    assert net.neighbors(1) == (2, 3)
    assert net.by_sink_distance(1) == (2, 3)
    assert _descend_to_sink(net, 1) == [1, 2, 0]

