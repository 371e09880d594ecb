"""Sensor field deployment, radius-r adjacency, and sink-rooted hop counts.

The sink always gets node id 0 and sits at the exact field center; sensor
nodes get ids 1..n. Hop counts are assigned by breadth-first flooding from
the sink, which is exactly the minimum-hop-count beacon exchange a real
deployment would run at startup.
"""

from __future__ import annotations

import math
from array import array

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import cKDTree

from .errors import ConnectivityError, InvalidParameter, UnknownNode

SINK = 0

# Hop sentinel for nodes the sink flood never reached.
UNREACHABLE = -1


class Network:
    """Deployed field.

    Holds node positions, the k-d tree over them, the radius-r neighbor
    graph (a symmetric CSR matrix with sorted rows, built from the tree's
    pair query), and the flooded minimum hop counts, with Python copies
    for the per-hop kernels: ``xs``/``ys`` (``array('d')`` columns) and
    ``hop_list``. Its only mutable parts are the neighbor tuples, built
    the first time a walk reaches a node, and ``sink_next_hop``, each
    node's relay on the shortest-path descent to the sink (-1 until
    known, see ``baselines``). Both are fixed functions of the field, so
    every run writes the same values and an instance can still be shared
    across concurrently executing runs.
    """

    def __init__(self, positions: np.ndarray, r: float, r0: float,
                 field_side: float, rng_seed: int):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.positions.setflags(write=False)
        self.xs = array("d", self.positions[:, 0].tolist())
        self.ys = array("d", self.positions[:, 1].tolist())
        self.r = float(r)
        self.r0 = float(r0)
        self.field_side = float(field_side)
        self.rng_seed = rng_seed
        self.sink = SINK
        self.kdtree = cKDTree(self.positions)
        self.graph = _radius_graph(self.kdtree, self.r)
        self.hops = _flood(self.graph, SINK)
        self.hops.setflags(write=False)
        self.hop_list = self.hops.tolist()
        self.sink_next_hop = [-1] * len(self.positions)
        self._neighbors: list[tuple[int, ...] | None] = [None] * len(self)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def sink_pos(self) -> np.ndarray:
        return self.positions[SINK]

    def check_node(self, node: int) -> None:
        if not 0 <= node < len(self.positions):
            raise UnknownNode(f"node id {node} not in network of {len(self)} nodes")

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Ascending ids of the nodes within r of ``node``, a tuple built on
        first use; ``node`` is not range-checked (every hop calls this)."""
        nbrs = self._neighbors[node]
        if nbrs is None:
            indptr = self.graph.indptr
            nbrs = self._neighbors[node] = tuple(
                self.graph.indices[indptr[node]:indptr[node + 1]].tolist())
        return nbrs

    def dist(self, node: int, x: float, y: float) -> float:
        """Distance from ``node`` to the point (x, y)."""
        dx = self.xs[node] - x
        dy = self.ys[node] - y
        return math.sqrt(dx * dx + dy * dy)

    def nearest(self, nodes, x: float, y: float) -> int:
        """The first of ``nodes`` closest to (x, y), -1 if none; like an
        argmin over ``row_norms``, it compares after the sqrt."""
        xs, ys = self.xs, self.ys
        best, best_d = -1, math.inf
        for n in nodes:
            dx = xs[n] - x
            dy = ys[n] - y
            d = math.sqrt(dx * dx + dy * dy)
            if d < best_d:
                best, best_d = n, d
        return best

    def hops_from(self, node: int) -> np.ndarray:
        """Minimum hop counts of every node measured from ``node``.

        This is the restricted-flooding view a source builds for itself;
        it is recomputed on every call, so cache it when routing many
        packets from the same source.
        """
        self.check_node(node)
        return _flood(self.graph, node)

    def reachable_sensor_ids(self) -> np.ndarray:
        """Sensor ids (sink excluded) that the sink flood reached."""
        ids = np.flatnonzero(self.hops != UNREACHABLE)
        return ids[ids != SINK]

    def dump_csv(self, path) -> None:
        """One row per node: id, x, y, hop_to_sink, neighbor_count."""
        degree = np.diff(self.graph.indptr)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,x,y,hop_to_sink,neighbor_count\n")
            for i in range(len(self.positions)):
                x, y = self.positions[i]
                fh.write(f"{i},{x:.6f},{y:.6f},{int(self.hops[i])},"
                         f"{degree[i]}\n")


# Distances are sqrt(x*x + y*y) and projections x*ux + y*uy, each product
# and sum rounded on its own: Python floats and numpy's elementwise ufuncs
# agree on that on any host. BLAS (`@`, np.dot, a 1-D np.linalg.norm) may
# fuse multiply and add, so no routing or replay code calls it. Keep the
# sqrt before any comparison: squared distances can reorder near-ties.
def norm(v) -> float:
    """Length of one 2-vector."""
    x, y = v
    return math.sqrt(x * x + y * y)


def row_norms(d: np.ndarray) -> np.ndarray:
    """Length of each row of an (n, 2) array."""
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def project(d: np.ndarray, u) -> np.ndarray:
    """``x*ux + y*uy`` of each row of an (n, 2) array, or of one vector."""
    return d[..., 0] * u[0] + d[..., 1] * u[1]


def deploy(n_nodes: int, field_side: float, r: float, r0: float,
           seed: int) -> Network:
    """Place ``n_nodes`` uniformly at random and flood hop counts.

    The sink is added at the exact field center on top of the requested
    sensor count. Raises ConnectivityError when more than 1% of sensors
    are unreachable from the sink, which signals that the density is too
    low for the requested communication radius.
    """
    if n_nodes < 2:
        raise InvalidParameter(f"n_nodes must be >= 2, got {n_nodes}")
    if field_side <= 0:
        raise InvalidParameter(f"field_side must be positive, got {field_side}")
    if r <= 0:
        raise InvalidParameter(f"r must be positive, got {r}")
    if r0 < r:
        raise InvalidParameter(f"r0 must be >= r, got r0={r0} r={r}")

    rng = np.random.default_rng(seed)
    sensor_pos = rng.uniform(0.0, field_side, size=(n_nodes, 2))
    center = np.array([field_side / 2.0, field_side / 2.0])
    positions = np.vstack([center[None, :], sensor_pos])

    net = Network(positions, r, r0, field_side, seed)
    unreachable = int(np.sum(net.hops[1:] == UNREACHABLE))
    if unreachable > 0.01 * n_nodes:
        raise ConnectivityError(
            f"{unreachable} of {n_nodes} nodes unreachable from sink "
            f"(limit is 1%); increase density or radius")
    return net


def _radius_graph(tree: cKDTree, r: float) -> csr_matrix:
    """Symmetric CSR adjacency of every pair at distance <= r.

    Rows are sorted, so a node's neighbors come out in ascending id
    order, and the index array is read-only.
    """
    n = tree.n
    pairs = tree.query_pairs(r, output_type="ndarray")
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(n, n))
    graph.sort_indices()
    graph.indices.setflags(write=False)
    return graph


def _flood(graph: csr_matrix, root: int) -> np.ndarray:
    """Minimum hop count of every node from ``root``, UNREACHABLE if none."""
    dist = shortest_path(graph, unweighted=True, indices=root)
    return np.where(np.isinf(dist), UNREACHABLE, dist).astype(np.int64)
