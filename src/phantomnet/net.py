"""Sensor field deployment, radius-r adjacency, and sink-rooted hop counts.

The sink always gets node id 0 and sits at the exact field center; sensor
nodes get ids 1..n. Hop counts are assigned by breadth-first flooding from
the sink, which is exactly the minimum-hop-count beacon exchange a real
deployment would run at startup.
"""

from __future__ import annotations

import math

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
    pair query), and the flooded minimum hop counts. Its only mutable
    part is ``sink_next_hop``: the relay each node forwards to on the
    shortest-path descent to the sink, filled in lazily by
    ``baselines`` (-1 while not yet known). That next hop is a fixed
    function of the field, so every run writes the same values and an
    instance can still be shared across concurrently executing runs.
    """

    def __init__(self, positions: np.ndarray, r: float, r0: float,
                 field_side: float, rng_seed: int):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.positions.setflags(write=False)
        self.r = float(r)
        self.r0 = float(r0)
        self.field_side = float(field_side)
        self.rng_seed = rng_seed
        self.sink = SINK
        self.kdtree = cKDTree(self.positions)
        self.graph = _radius_graph(self.kdtree, self.r)
        self.hops = _flood(self.graph, SINK)
        self.hops.setflags(write=False)
        self.sink_next_hop = np.full(len(self.positions), -1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def sink_pos(self) -> np.ndarray:
        return self.positions[SINK]

    def check_node(self, node: int) -> None:
        if not 0 <= node < len(self.positions):
            raise UnknownNode(f"node id {node} not in network of {len(self)} nodes")

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted ids of the nodes within radius r of ``node``.

        A read-only view into the graph's index array; ``node`` is not
        range-checked, since this sits on every routing hop.
        """
        indptr = self.graph.indptr
        return self.graph.indices[indptr[node]:indptr[node + 1]]

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


# Distances, bit for bit as the numpy forms the simulator's results were
# first computed with; any other form moves output bytes. A 1-D
# np.linalg.norm(v) is sqrt(v.dot(v)), a BLAS dot, which fuses multiply
# and add where the CPU has FMA: norm() makes that call, and
# row_dot_norms() reaches the same dot once per row through a stacked
# matmul. x*x + y*y, math.hypot and einsum round differently.
# np.linalg.norm(d, axis=1) sums plain squares, which row_norms()
# reproduces. Keep the sqrt before any argmin: squared distances can
# reorder near-ties.
def norm(v: np.ndarray) -> float:
    """Length of one vector, equal to ``np.linalg.norm(v)``."""
    return math.sqrt(v.dot(v))


def row_norms(d: np.ndarray) -> np.ndarray:
    """Length of each row, equal to ``np.linalg.norm(d, axis=1)``."""
    return np.sqrt((d * d).sum(axis=1))


def row_dot_norms(d: np.ndarray) -> np.ndarray:
    """Length of each row, equal to ``np.linalg.norm`` of that row alone."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


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
