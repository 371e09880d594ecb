import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

import phantomnet as pn
from phantomnet.errors import ConnectivityError, InvalidParameter
from phantomnet.net import project, row_norms, unit

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


def test_network_dump_csv(small_net, tmp_path):
    path = tmp_path / "net.csv"
    small_net.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,x,y,hop_to_sink,neighbor_count"
    assert len(lines) == len(small_net) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "0"


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
    assert list(small_net.xs) == small_net.positions[:, 0].tolist()
    assert list(small_net.ys) == small_net.positions[:, 1].tolist()
    assert small_net.hop_list == small_net.hops.tolist()


def disc_oracle(network, node, radius):
    d = network.positions - network.positions[node]
    inside = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= radius
    return frozenset(np.flatnonzero(inside).tolist())


def test_discs_match_brute_force(oracle_net):
    for radius in (oracle_net.r, 3.0 * oracle_net.r, 0.5 * oracle_net.r):
        for node in range(len(oracle_net)):
            assert (oracle_net.disc(node, radius)
                    == disc_oracle(oracle_net, node, radius))


def test_discs_keep_exact_radii_across_cell_boundaries():
    # Lattice steps are exactly 100 long, and three steps in one
    # direction exactly 300 (180-240-300).
    net = pn.Network(np.array(EXACT_R_LATTICE), r=100.0, r0=300.0,
                     field_side=1000.0)
    cells = np.floor((net.positions - net.origin) / net.cell)
    crossed = {}
    for radius in (net.r, net.r0):
        for i in range(len(net)):
            d = net.positions - net.positions[i]
            exact = np.flatnonzero(
                np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) == radius)
            assert set(exact.tolist()) <= net.disc(i, radius)
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
    assert net.disc(pn.SINK, 100.0) == {pn.SINK, 2}
    assert pn.SINK not in net.disc(1, 100.0)


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
    with pytest.raises(InvalidParameter):
        net.by_sink_angle(1)


def test_tables_are_built_once(small_net):
    node = int(small_net.neighbors(pn.SINK)[0])
    for table in (small_net.by_sink_distance, small_net.by_sink_angle,
                  small_net.hop_rings, small_net.neighbors):
        assert table(node) is table(node)
    assert small_net.disc(node, small_net.r0) is small_net.disc(node,
                                                                small_net.r0)
