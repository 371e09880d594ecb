import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import phantomnet as pn
from phantomnet.config import ExperimentConfig, load_config
from phantomnet.errors import ConnectivityError, InvalidParameter
from phantomnet.net import (CELL_MARGIN, GRAPH_BLOCK, project, row_norms,
                            unit)

from conftest import bfs_oracle, brute_force_adjacency


def test_deploy_two_nodes_all_adjacent():
    net = pn.deploy(2, 100.0, 200.0, 200.0, seed=0)
    assert len(net) == 3
    assert net.hops[1] == 1 and net.hops[2] == 1
    for i in (1, 2):
        assert pn.SINK in net.neighbors(i)


def test_deploy_sink_at_center():
    net = pn.deploy(50, 600.0, 150.0, 450.0, seed=4)
    assert np.allclose(net.positions[pn.SINK], [300.0, 300.0])
    assert net.hops[pn.SINK] == 0


def test_deploy_reference_scale():
    net = pn.deploy(10_000, 6000.0, 100.0, 300.0, seed=1)
    assert len(net) == 10_001
    assert np.allclose(net.positions[pn.SINK], [3000.0, 3000.0])
    assert np.all(net.positions >= 0.0) and np.all(net.positions <= 6000.0)


def test_deploy_peak_memory_at_paper_scale():
    # The radius graph frees each cell offset's candidate pairs before the
    # next and sorts its edges in place, so deploying the paper's field
    # never holds more than twice the memory the finished field keeps.
    pn.deploy(200, 800.0, 100.0, 300.0, seed=1)  # lazy imports go first
    tracemalloc.start()
    try:
        net = pn.deploy(10_000, 6000.0, 100.0, 300.0, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(net) == 10_001
    assert peak <= 2 * held, (peak, held)


@pytest.mark.parametrize("bad", [
    dict(n_nodes=1, field_side=100.0, r=10.0, r0=30.0),
    dict(n_nodes=10, field_side=0.0, r=10.0, r0=30.0),
    dict(n_nodes=10, field_side=100.0, r=0.0, r0=30.0),
    dict(n_nodes=10, field_side=100.0, r=10.0, r0=5.0),
    dict(n_nodes=10, field_side=100.0, r=math.nan, r0=30.0),
    dict(n_nodes=10, field_side=math.inf, r=10.0, r0=30.0),
    dict(n_nodes=10, field_side=100.0, r=10.0, r0=math.inf),
])
def test_deploy_rejects_bad_parameters(bad):
    with pytest.raises(InvalidParameter):
        pn.deploy(seed=1, **bad)


def test_deploy_rejects_disconnected_field():
    # 40 nodes spread over 5000m with r=100m cannot all reach the sink.
    with pytest.raises(ConnectivityError):
        pn.deploy(40, 5000.0, 100.0, 300.0, seed=1)


# Fields for the risky inputs of the adjacency build, each with its r:
# pairs at exactly distance r (the radius is inclusive; 60-80-100
# triangles make the squared distance exact), a field with no edges at
# all, and random fields whose r does not divide the side, with nodes on
# the field's edges, with r above the side, or with r far below the
# spacing of the nodes.
EXACT_R = [[0.0, 0.0], [60.0, 80.0], [60.0, 180.0], [400.0, 400.0]]
NO_EDGES = [[0.0, 0.0], [500.0, 0.0], [0.0, 500.0]]
# Every step of this lattice is exactly 100 long, and the steps cross the
# grid's cell boundaries.
EXACT_R_LATTICE = [[37.0 + 60.0 * a + 100.0 * b, 11.0 + 80.0 * a]
                   for a in range(6) for b in range(6)]


def random_field(seed, n, side, on_edges=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, side, size=(n, 2))
    k = on_edges
    pts[:k, 0], pts[k:2 * k, 0] = 0.0, side
    pts[2 * k:3 * k, 1], pts[3 * k:4 * k, 1] = 0.0, side
    return pts


ORACLE_FIELDS = {
    "exact_r": (EXACT_R, 100.0),
    "no_edges": (NO_EDGES, 100.0),
    "exact_r_lattice": (EXACT_R_LATTICE, 100.0),
    "odd_r_on_edges": (random_field(3, 600, 1000.0, on_edges=20), 73.0),
    "sparse_odd_r": (random_field(4, 300, 1000.0), 31.0),
    "dense_odd_r": (random_field(5, 400, 1000.0, on_edges=5), 137.5),
    "r_above_side": (random_field(6, 60, 300.0), 450.0),
    # Cells r wide would number 10^10 here; the grid widens them.
    "tiny_r": (random_field(7, 200, 1000.0), 0.01),
}


@pytest.fixture(params=["small_net", *ORACLE_FIELDS])
def oracle_net(request):
    if request.param == "small_net":
        return request.getfixturevalue("small_net")
    positions, r = ORACLE_FIELDS[request.param]
    return pn.Network(np.array(positions), r=r, r0=r, field_side=1000.0)


def test_flood_matches_bfs_oracle(oracle_net):
    adj = brute_force_adjacency(oracle_net.positions, oracle_net.r)
    dist = bfs_oracle(adj, pn.SINK)
    for i in range(len(oracle_net)):
        expected = dist.get(i, pn.UNREACHABLE)
        assert oracle_net.hops[i] == expected


def test_flood_is_idempotent(small_net):
    assert np.array_equal(small_net.hops_from(pn.SINK), small_net.hops)
    with pytest.raises(InvalidParameter):
        small_net.hops_from(len(small_net))


@pytest.mark.parametrize("max_hops", [0, 1, 4, 9, 10_000])
def test_restricted_flood_stops_at_max_hops(small_net, max_hops):
    for src in (pn.SINK, 17, 250):
        full = small_net.hops_from(src)
        expected = np.where(full <= max_hops, full, pn.UNREACHABLE)
        assert np.array_equal(small_net.hops_from(src, max_hops), expected)


def test_sink_neighbors_have_hop_one(small_net):
    for j in small_net.neighbors(pn.SINK):
        assert small_net.hops[j] == 1


def test_adjacency_matches_brute_force(oracle_net):
    adj = brute_force_adjacency(oracle_net.positions, oracle_net.r)
    for i in range(len(oracle_net)):
        nbrs = oracle_net.neighbors(i)
        assert np.array_equal(nbrs, np.sort(adj[i]))
        assert isinstance(nbrs, tuple)      # read-only
        assert nbrs is oracle_net.neighbors(i)


def reference_grid(positions, r):
    """Origin, cell width, nx, ny and each node's cell key j * nx + i, by
    the (n, 2) formula the grid was first built with."""
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    cell = max(r * (1.0 + CELL_MARGIN),
               float((hi - lo).max()) / math.sqrt(len(positions)))
    cell_ij = np.floor((positions - lo.tolist()) / cell).astype(np.int64)
    nx, ny = (cell_ij.max(axis=0) + 1).tolist()
    return lo.tolist(), cell, nx, ny, cell_ij[:, 1] * nx + cell_ij[:, 0]


def check_grid_and_csr(net):
    """The grid is a stable sort of the reference cell keys, and the CSR
    offsets are where each row starts among the sorted u * n + v edges."""
    origin, cell, nx, ny, keys = reference_grid(net.positions, net.r)
    assert (net.origin, net.cell, net.nx, net.ny) == (origin, cell, nx, ny)
    assert list(net.cell_nodes) == np.argsort(keys, kind="stable").tolist()
    assert list(net.cell_start) == [0] + np.cumsum(
        np.bincount(keys, minlength=nx * ny)).tolist()
    n = len(net)
    adj = brute_force_adjacency(net.positions, net.r)
    edges = np.sort(np.array([u * n + v for u in range(n) for v in adj[u]],
                             dtype=np.int64))
    assert net.indptr.tolist() == np.searchsorted(
        edges, np.arange(n + 1) * n).tolist()
    assert net.indices.tolist() == (edges % n).tolist()


# Fields whose grid is degenerate, each with its r: every sensor in one
# cell; a single row of cells; cells exactly 200 wide (1000 / sqrt(25))
# with nodes on their boundaries, on the field's far edge and at exactly
# r = 150 across a boundary; and two nodes.
ONE_CELL = [[500.0, 500.0]] + (random_field(8, 40, 60.0) + 470.0).tolist()
ONE_ROW = (random_field(9, 30, 1000.0) * [1.0, 0.05]).tolist()
ONE_COLUMN = (random_field(10, 30, 1000.0) * [0.05, 1.0]).tolist()
ON_BOUNDARIES = ([[0.0, 0.0], [1000.0, 1000.0], [1000.0, 0.0], [0.0, 1000.0],
                  [200.0, 200.0], [200.0, 50.0], [290.0, 320.0],
                  [110.0, 80.0], [400.0, 400.0], [400.0, 550.0],
                  [600.0, 400.0], [510.0, 520.0], [800.0, 1000.0],
                  [1000.0, 800.0], [1000.0, 650.0], [850.0, 1000.0]]
                 + [[200.0 * a, 600.0] for a in range(5)]
                 + [[600.0, 200.0 * b + 100.0] for b in range(4)])
DEGENERATE_FIELDS = {
    "one_cell": (ONE_CELL, 100.0),
    "one_row": (ONE_ROW, 100.0),
    "one_column": (ONE_COLUMN, 100.0),
    "on_boundaries": (ON_BOUNDARIES, 150.0),
    "two_nodes": ([[500.0, 500.0], [560.0, 580.0]], 100.0),
}


def test_grid_and_csr_match_the_reference_build(oracle_net):
    check_grid_and_csr(oracle_net)


@pytest.mark.parametrize("name", DEGENERATE_FIELDS)
def test_grid_and_csr_on_degenerate_fields(name):
    positions, r = DEGENERATE_FIELDS[name]
    net = pn.Network(np.array(positions), r=r, r0=r, field_side=1000.0)
    check_grid_and_csr(net)
    if name == "one_cell":
        assert (net.nx, net.ny) == (1, 1)
    if name == "one_row":
        assert net.ny == 1 < net.nx
    if name == "one_column":
        assert net.nx == 1 < net.ny
    if name == "on_boundaries":
        assert net.cell == 200.0 and (net.nx, net.ny) == (6, 6)


# Fields of more nodes than one block of the radius graph, so that
# candidate pairs meet across a block seam: many blocks, and one block
# plus a last block of a single node.
BLOCK_SEAM_FIELDS = {
    "many_blocks": (random_field(11, 2500, 1500.0, on_edges=10), 60.0),
    "block_plus_one": (random_field(12, GRAPH_BLOCK + 1, 1000.0), 73.0),
}


@pytest.mark.parametrize("name", BLOCK_SEAM_FIELDS)
def test_grid_and_csr_across_block_seams(name):
    positions, r = BLOCK_SEAM_FIELDS[name]
    net = pn.Network(np.array(positions), r=r, r0=r, field_side=1500.0)
    assert len(net) > GRAPH_BLOCK
    check_grid_and_csr(net)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(step=st.sampled_from([25.0, 50.0, 100.0]),
       points=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                       min_size=2, max_size=40),
       r_steps=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
def test_grid_and_csr_on_small_lattices(step, points, r_steps):
    # Lattice nodes tie on cell keys and, where the cell width is a
    # multiple of the step, sit on cell boundaries; pairs at exactly r
    # are common. Repeated points are allowed.
    net = pn.Network(np.array(points, dtype=np.float64) * step,
                     r=r_steps * step, r0=r_steps * step, field_side=800.0)
    check_grid_and_csr(net)


def kdtree_adjacency(positions, r):
    """Sorted neighbor lists from ``cKDTree.query_pairs``."""
    out = [[] for _ in range(len(positions))]
    pairs = cKDTree(positions).query_pairs(r, output_type="ndarray")
    for a, b in pairs.tolist():
        out[a].append(b)
        out[b].append(a)
    return [sorted(nbrs) for nbrs in out]


def test_adjacency_matches_kdtree_pairs(oracle_net):
    expected = kdtree_adjacency(oracle_net.positions, oracle_net.r)
    assert oracle_net.indptr.tolist() == np.cumsum(
        [0] + [len(nbrs) for nbrs in expected]).tolist()
    assert oracle_net.indices.tolist() == sum(expected, [])
    for csr in (oracle_net.indptr, oracle_net.indices):
        assert csr.dtype == np.int64 and not csr.flags.writeable


def kdtree_mirror(tree, r, x, y, skip):
    """The mirror rule on a k-d tree: of the three nodes nearest (x, y),
    the first not in ``skip``, if within r."""
    dists, ids = tree.query((x, y), k=3)
    for dist, cand in zip(dists.tolist(), ids.tolist()):
        if cand in skip:
            continue
        return cand if dist <= r else -1
    return -1


def test_mirror_lookup_matches_kdtree_query(oracle_net):
    net, r = oracle_net, oracle_net.r
    rng = np.random.default_rng(len(net))
    pos = net.positions
    lo, hi = pos.min(axis=0) - 2.0 * r, pos.max(axis=0) + 2.0 * r
    points = rng.uniform(lo, hi, size=(400, 2)).tolist()
    # Near the sink and the source, which the lookup skips.
    points += (pos[0] + rng.normal(0.0, r / 4.0, size=(50, 2))).tolist()
    points += (pos[-1] + rng.normal(0.0, r / 4.0, size=(50, 2))).tolist()
    # At r from a node, exactly and one ulp either side.
    for node in rng.integers(len(net), size=100).tolist():
        x, y = pos[node]
        for dx, dy in EXACT_R_OFFSETS:
            points.append((x + dx * r / 100.0, y + dy * r / 100.0))
        t = rng.uniform(0.0, 2.0 * math.pi)
        px = x + r * math.cos(t)
        py = y + r * math.sin(t)
        points += [(np.nextafter(px, -math.inf), py), (px, py),
                   (np.nextafter(px, math.inf), py)]
    # More than r past each edge and corner of the cell grid, where a
    # reflected point can land with no cell in reach: beside the first
    # and the last cell of each row and column, and off the corners.
    x0, y0 = net.origin
    x1, y1 = x0 + net.nx * net.cell, y0 + net.ny * net.cell
    for d in (1.5 * r, 2.0 * net.cell + r):
        for x in (x0 - d, x0 + net.cell / 2, x1 - net.cell / 2, x1 + d):
            for y in (y0 - d, y0 + net.cell / 2, y1 - net.cell / 2, y1 + d):
                points.append((x, y))
    tree = cKDTree(pos)
    skip = (pn.SINK, len(net) - 1)
    found = 0
    for x, y in points:
        got = net.nearest_in_range(x, y, skip)
        want = kdtree_mirror(tree, r, x, y, skip)
        if got != want:
            # Only an exact tie, as on the lattice, may go another way:
            # the tree breaks it in its own traversal order.
            assert got >= 0 and want >= 0, (x, y)
            d2 = [(pos[n, 0] - x) ** 2 + (pos[n, 1] - y) ** 2
                  for n in (got, want)]
            assert d2[0] == d2[1], (x, y)
        found += got >= 0
    assert found > 0


def test_neighbor_symmetry_and_hop_lipschitz(small_net):
    for u in range(len(small_net)):
        for v in small_net.neighbors(u):
            assert u in small_net.neighbors(v)
            if small_net.hops[u] != pn.UNREACHABLE:
                assert abs(small_net.hops[u] - small_net.hops[v]) <= 1


@pytest.mark.parametrize("seed", range(3))
def test_deterministic_deployment(seed):
    a = pn.deploy(400, 1000.0, 100.0, 300.0, seed=seed)
    b = pn.deploy(400, 1000.0, 100.0, 300.0, seed=seed)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.hops, b.hops)
    for i in range(len(a)):
        assert np.array_equal(a.neighbors(i), b.neighbors(i))


# Offsets of length exactly r = 100 (60-80-100 triangles and the axes),
# in every sign combination.
EXACT_R_OFFSETS = [(sx * a, sy * b) for a, b in
                   [(60.0, 80.0), (80.0, 60.0), (28.0, 96.0), (100.0, 0.0)]
                   for sx in (1.0, -1.0) for sy in (1.0, -1.0)]


def test_distance_helpers_match_plain_float_arithmetic():
    # The portable contract: each helper rounds exactly as Python floats
    # do for x*x + y*y under sqrt and for x*ux + y*uy, whatever BLAS or
    # SIMD code numpy has on this host.
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 3000.0, size=(10_000, 2))
    vecs = [pts[1:] - pts[:-1],                             # hop-like
            pts[1:] - pts[0],                               # to one point
            rng.normal(0.0, 1.0, size=(10_000, 2)),         # tiny
            rng.uniform(-1e4, 1e4, size=(10_000, 2))]
    base = pts[:1000]
    vecs += [(base + off) - base for off in EXACT_R_OFFSETS]
    for d in vecs:
        rows = d.tolist()
        plain = [math.sqrt(x * x + y * y) for x, y in rows]
        ux, uy = rows[0][0] / plain[0], rows[0][1] / plain[0]
        assert row_norms(d).tolist() == plain
        along = [x * ux + y * uy for x, y in rows]
        assert project(d, (ux, uy)).tolist() == along
        assert project(d, np.array([ux, uy])).tolist() == along
        assert [float(project(v, (ux, uy))) for v in d] == along


def test_distance_helpers_keep_exact_r_inclusive():
    for off in EXACT_R_OFFSETS:
        v = np.array(off)
        assert row_norms(v[None, :])[0] == 100.0
        assert project(v, (1.0, 0.0)) == off[0]
        assert project(v[None, :], (0.0, 1.0))[0] == off[1]


def test_scalar_columns_mirror_the_arrays(small_net):
    # Scans read the coordinates per neighbor from lists of Python floats;
    # every column holds, bit for bit, the doubles of its numpy form.
    pos = small_net.positions
    columns = {"xs": pos[:, 0], "ys": pos[:, 1],
               "sink_dist": row_norms(pos - pos[pn.SINK])}
    for name, want in columns.items():
        got = getattr(small_net, name)
        assert np.array(got).tobytes() == want.tobytes(), name
    for got in (small_net.xs, small_net.ys):
        assert type(got) is list and {type(v) for v in got} == {float}
    assert small_net.hop_list == small_net.hops.tolist()


def disc_oracle(network, node, radius):
    d = network.positions - network.positions[node]
    inside = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= radius
    return frozenset(np.flatnonzero(inside).tolist())


def with_r0(network, r0):
    """The same field, with visible areas of radius ``r0``."""
    return pn.Network(network.positions, network.r, r0, network.field_side)


def test_discs_match_brute_force(oracle_net):
    for radius in (oracle_net.r, 3.0 * oracle_net.r, 0.5 * oracle_net.r):
        net = with_r0(oracle_net, radius)
        for node in range(len(net)):
            assert net.visible(node) == disc_oracle(net, node, radius)
    # At r0 = r the visible area's sqrt test and the radio graph's squared
    # one give one relation, the closed neighborhood: reading the graph for
    # reach within r (the adversary, the failure-path onset, PSSPR's
    # to-phantom rule) gives what a sqrt test at r would.
    net = with_r0(oracle_net, oracle_net.r)
    for node in range(len(net)):
        assert net.visible(node) == {node, *net.neighbors(node)}


def test_discs_keep_exact_radii_across_cell_boundaries():
    # Lattice steps are exactly 100 long, and three steps in one
    # direction exactly 300 (180-240-300).
    net = pn.Network(np.array(EXACT_R_LATTICE), r=100.0, r0=300.0,
                     field_side=1000.0)
    cells = np.floor((net.positions - net.origin) / net.cell)
    crossed = {}
    for radius in (net.r, net.r0):
        area = with_r0(net, radius)
        for i in range(len(net)):
            d = net.positions - net.positions[i]
            exact = np.flatnonzero(
                np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) == radius)
            assert set(exact.tolist()) <= area.visible(i)
            for j in exact:
                key = (radius, bool((cells[i] != cells[j]).any()))
                crossed[key] = crossed.get(key, 0) + 1
    assert all(crossed.get((radius, True)) for radius in (net.r, net.r0))

    # Sensor 1 is 100.00000000000001 from the sink in plain float
    # arithmetic, sensor 2 exactly 100.0.
    net = pn.Network(np.array([[0.0, 0.0],
                               [38.715009983841995, 92.2016702774468],
                               [12.748076127660413, 99.18410434663095]]),
                     r=100.0, r0=100.0, field_side=200.0)
    assert net.visible(pn.SINK) == {pn.SINK, 2}
    assert pn.SINK not in net.visible(1)


def doubles_around(value, count):
    """``value`` and the ``count`` doubles on each side of it, ascending:
    a nextafter walk, one ulp a step."""
    walk = [np.nextafter.accumulate(np.array([value] + [bound] * count))
            for bound in (0.0, np.inf)]
    return np.concatenate([walk[0][::-1], walk[1][1:]])


def sqrt_and_square_disagree(r, count=20_000):
    """Offsets in ulps from fl(r*r) of the squared distances d2 at which
    the radio test d2 <= r*r and the sqrt test sqrt(d2) <= r differ."""
    d2 = doubles_around(r * r, count)
    return (np.flatnonzero((d2 <= r * r) != (np.sqrt(d2) <= r))
            - count).tolist()


@pytest.mark.parametrize("config", ["defaults", "paper"])
def test_radio_and_sqrt_tests_agree_at_the_configured_r(config):
    # Both tests compare the same dx*dx + dy*dy; at these radii no double
    # tells them apart, so the radio graph and a sqrt test at r give the
    # same reach. numpy's sqrt is correctly rounded, as math.sqrt is.
    r = (ExperimentConfig() if config == "defaults" else load_config(
        str(Path(__file__).parents[1] / "configs" / "paper.cfg"))).r
    assert sqrt_and_square_disagree(r) == []
    # The walk does find the one double above fl(r*r) where they part at
    # some other radii.
    assert sqrt_and_square_disagree(10.0) == [1]


@pytest.mark.parametrize("name", ["desk_net", "dense_net"])
def test_hop_one_is_within_r_of_the_sink(name, request):
    net = request.getfixturevalue(name)
    for s in net.reachable_sensor_ids().tolist():
        assert (net.hop_list[s] == 1) == (net.sink_dist[s] <= net.r)


def test_sink_leads_the_angle_ordering(small_net):
    # Node 2 is the midpoint of node 1 and the sink. Its cosine toward the
    # sink rounds to 1.0, while the sink's own rounds below 1.0.
    pts = [[500.0, 500.0], [426.958, 532.541],
           [463.47900000000004, 516.2705000000001]]
    net = pn.Network(np.array(pts), r=100.0, r0=100.0, field_side=1000.0)
    (bx, by), (cx, cy) = pts[0], pts[1]
    tx, ty = unit(bx - cx, by - cy)
    cos = [((x - cx) * tx + (y - cy) * ty)
           / math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy))
           for x, y in (pts[0], pts[2])]
    assert cos[0] < min(cos[1], 1.0)
    assert net.by_sink_angle(1) == (pn.SINK, 2)
    for node in small_net.neighbors(pn.SINK):
        assert small_net.by_sink_angle(node)[0] == pn.SINK
    # A relay at the sink's exact position has no direction to rank by.
    net = pn.Network(np.array([[500.0, 500.0], [500.0, 500.0],
                               [550.0, 500.0]]),
                     r=100.0, r0=100.0, field_side=1000.0)
    with pytest.raises(InvalidParameter):
        net.by_sink_angle(1)


def test_co_located_sensors_raise_a_named_error():
    # Nodes 1 and 2 share a position: the hop between them has no
    # direction to rank by its angle to the sink.
    net = pn.Network(np.array([[0.0, 0.0], [150.0, 0.0], [150.0, 0.0],
                               [80.0, 0.0]]),
                     r=100.0, r0=100.0, field_side=150.0)
    with pytest.raises(InvalidParameter,
                       match=r"^nodes 1 and 2 share a position$"):
        net.by_sink_angle(1)
    # Two neighbors share node 3's position: the lower id is named.
    with pytest.raises(InvalidParameter,
                       match=r"^nodes 3 and 1 share a position$"):
        pn.Network(np.array([[0.0, 0.0], [150.0, 0.0], [150.0, 0.0],
                             [150.0, 0.0]]),
                   r=100.0, r0=100.0, field_side=150.0).by_sink_angle(3)


@pytest.mark.parametrize("above", [2, 3])
def test_equal_angles_keep_id_order(above):
    # Node 1 looks straight at the sink along +x. Nodes 2 and 3 mirror
    # each other across that line, so their cosines are the same float
    # (their products with ty = 0.0 are 0.0 and -0.0); node 4 is on the
    # line, and node 5 beside node 1. Whichever of 2 and 3 is above, the
    # lower id comes first, after the sink and the collinear node.
    below = 5 - above
    pts = np.zeros((6, 2))
    pts[[0, 1, above, below, 4, 5]] = [[500.0, 500.0], [400.0, 500.0],
                                       [450.0, 530.0], [450.0, 470.0],
                                       [450.0, 500.0], [400.0, 560.0]]
    net = pn.Network(pts, r=100.0, r0=100.0, field_side=1000.0)
    assert net.neighbors(1) == (pn.SINK, 2, 3, 4, 5)
    assert net.by_sink_angle(1) == (pn.SINK, 4, 2, 3, 5)


def test_neighbor_tuples_are_csr_rows_of_python_ints(oracle_net):
    indptr, indices = oracle_net.indptr.tolist(), oracle_net.indices.tolist()
    for node in range(len(oracle_net)):
        nbrs = oracle_net.neighbors(node)
        assert list(nbrs) == indices[indptr[node]:indptr[node + 1]]
        assert all(type(n) is int for n in nbrs)


def test_tables_are_built_once(small_net):
    node = int(small_net.neighbors(pn.SINK)[0])
    for table in (small_net.by_sink_distance, small_net.by_sink_angle,
                  small_net.hop_rings, small_net.neighbors):
        assert table(node) is table(node)
    assert small_net.visible(node) is small_net.visible(node)
