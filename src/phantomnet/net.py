"""Sensor field deployment, radius-r adjacency, and sink-rooted hop counts.

The sink always gets node id 0 and sits at the exact field center; sensor
nodes get ids 1..n. Hop counts are assigned by breadth-first flooding from
the sink, which is exactly the minimum-hop-count beacon exchange a real
deployment would run at startup. Adjacency and the mirror lookup come
from binning the nodes into a grid of cells at least r wide; the module
needs numpy only.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import ConnectivityError, InvalidParameter

SINK = 0

# Hop sentinel for nodes the sink flood never reached.
UNREACHABLE = -1

# Grid cells are this much wider than r, so that rounding in the cell
# index can never put two nodes at exactly r in cells two apart.
CELL_MARGIN = 1e-6

# Cell offsets (di, dj) that meet every neighboring cell pair once.
HALF_NEIGHBORHOOD = ((0, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


class Network:
    """Deployed field.

    Holds node positions, a uniform grid of cells at least r wide with
    the nodes binned into it, the radius-r neighbor graph built from
    that grid (CSR arrays ``indptr``/``indices``, each row sorted), and
    the flooded minimum hop counts, with Python copies for the per-hop
    kernels: ``xs``/``ys`` (``array('d')`` columns), ``sink_dist`` (each
    node's distance to the sink, equal to ``dist(n, *sink)``) and
    ``hop_list``.
    Its only mutable parts are per-node tables, each filled the first
    time a walk or replay asks for a node: the neighbor tuples, the two
    sink orderings, the hop rings, the discs, and ``sink_next_hop``, each
    node's relay on the shortest-path descent to the sink (-1 until
    known, see ``baselines``). All are fixed functions of the field, so
    every run writes the same values and an instance can still be shared
    across concurrently executing runs.
    """

    def __init__(self, positions: np.ndarray, r: float, r0: float,
                 field_side: float):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.positions.setflags(write=False)
        self.xs = array("d", self.positions[:, 0].tobytes())
        self.ys = array("d", self.positions[:, 1].tobytes())
        self.r = float(r)
        self.r0 = float(r0)
        self.field_side = float(field_side)
        self.sink = SINK

        # Cell (i, j) of the grid holds the nodes
        # cell_nodes[cell_start[k]:cell_start[k + 1]], k = j * nx + i, in
        # ascending id order. Sparse fields get cells wider than r, so that
        # there are no more cells than about one per node.
        lo, hi = self.positions.min(axis=0), self.positions.max(axis=0)
        self.origin = lo.tolist()
        self.cell = max(self.r * (1.0 + CELL_MARGIN),
                        float((hi - lo).max()) / math.sqrt(len(self)))
        cell_ij = np.floor((self.positions - self.origin)
                           / self.cell).astype(np.int64)
        self.nx, self.ny = (cell_ij.max(axis=0) + 1).tolist()
        keys = cell_ij[:, 1] * self.nx + cell_ij[:, 0]
        order = np.argsort(keys, kind="stable")
        start = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=self.nx * self.ny),
                  out=start[1:])
        self.cell_start = array("q", start.tobytes())
        self.cell_nodes = array("q", order.tobytes())

        self.indptr, self.indices = _radius_graph(
            self.positions[order], self.r, cell_ij[order], self.nx, self.ny,
            start, order)
        self.hops = self._flood(SINK)
        self.hops.setflags(write=False)
        self.hop_list = self.hops.tolist()
        self.sink_dist = array("d", row_norms(
            self.positions - self.positions[SINK]).tobytes())
        self.sink_next_hop = [-1] * len(self.positions)
        self._neighbors: list[tuple[int, ...] | None] = [None] * len(self)
        self._by_sink_distance = self._neighbors.copy()
        self._by_sink_angle = self._neighbors.copy()
        self._hop_rings: list = self._neighbors.copy()
        self._discs: dict[tuple[int, float], frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self.positions)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Ascending ids of the nodes within r of ``node``, a tuple built on
        first use; ``node`` is not range-checked (every hop calls this)."""
        nbrs = self._neighbors[node]
        if nbrs is None:
            lo, hi = self.indptr[node:node + 2].tolist()
            nbrs = self._neighbors[node] = tuple(
                self.indices[lo:hi].tolist())
        return nbrs

    # Stable sorts and filters of the neighbor tuple: the first admissible
    # entry of a ranked table is the first of equals a per-hop pick takes.
    def by_sink_distance(self, node: int) -> tuple[int, ...]:
        """Neighbors of ``node``, nearest the sink first."""
        ranked = self._by_sink_distance[node]
        if ranked is None:
            ranked = self._by_sink_distance[node] = tuple(sorted(
                self.neighbors(node), key=self.sink_dist.__getitem__))
        return ranked

    def by_sink_angle(self, node: int) -> tuple[int, ...]:
        """Neighbors of ``node``, the sink first, then the rest by the
        largest cosine between the hop and the direction to the sink,
        clipped to [-1, 1] as arccos would need. A neighbor at the
        position of ``node`` has no direction and raises InvalidParameter."""
        ranked = self._by_sink_angle[node]
        if ranked is None:
            xs, ys = self.xs, self.ys
            cx, cy = xs[node], ys[node]
            tx, ty = unit(xs[SINK] - cx, ys[SINK] - cy)

            def key(n: int) -> float:
                if n == SINK:
                    # Its angle is zero by definition; no rounding of its
                    # cosine may rank another neighbor ahead of it.
                    return -2.0
                vx = xs[n] - cx
                vy = ys[n] - cy
                length = math.sqrt(vx * vx + vy * vy)
                if length == 0.0:
                    raise InvalidParameter(
                        f"nodes {node} and {n} share a position")
                return -min(1.0, max(-1.0, (vx * tx + vy * ty) / length))
            ranked = self._by_sink_angle[node] = tuple(
                sorted(self.neighbors(node), key=key))
        return ranked

    def hop_rings(self, node: int) -> tuple[tuple[int, ...], ...]:
        """(lower, same, upper): the neighbors of ``node`` with a smaller,
        an equal and a larger sink hop count."""
        rings = self._hop_rings[node]
        if rings is None:
            hop, nbrs = self.hop_list, self.neighbors(node)
            level = hop[node]
            rings = self._hop_rings[node] = (
                tuple(n for n in nbrs if hop[n] < level),
                tuple(n for n in nbrs if hop[n] == level),
                tuple(n for n in nbrs if hop[n] > level))
        return rings

    def disc(self, node: int, radius: float) -> frozenset[int]:
        """Ids of the nodes within ``radius`` of ``node``, itself included,
        by the sqrt(dx*dx + dy*dy) <= radius test on the cells it spans."""
        found = self._discs.get((node, radius))
        if found is None:
            x, y = self.xs[node], self.ys[node]
            found = self._discs[node, radius] = frozenset(
                n for n in self._scan(x, y, radius)
                if self.dist(n, x, y) <= radius)
        return found

    def _scan(self, x: float, y: float, radius: float):
        """The nodes of the cells within ``radius`` of the point (x, y),
        cell rows bottom to top, ascending ids within a cell.

        The margin keeps rounding in a cell index from dropping the cell
        of a node at exactly ``radius``. A point may lie off the grid, and
        so far past it that no cell is in reach.
        """
        x0, y0 = self.origin
        reach = radius * (1.0 + CELL_MARGIN)
        i_lo = max(math.floor((x - reach - x0) / self.cell), 0)
        i_hi = min(math.floor((x + reach - x0) / self.cell) + 1, self.nx)
        j_lo = max(math.floor((y - reach - y0) / self.cell), 0)
        j_hi = min(math.floor((y + reach - y0) / self.cell) + 1, self.ny)
        if i_lo >= i_hi:
            return
        start, nodes = self.cell_start, self.cell_nodes
        # The cells of one grid row are consecutive in cell_nodes.
        for k in range(j_lo * self.nx, j_hi * self.nx, self.nx):
            yield from nodes[start[k + i_lo]:start[k + i_hi]]

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

    def nearest_in_range(self, x: float, y: float, skip) -> int:
        """The node nearest (x, y) apart from those in ``skip``, -1 if it
        lies farther than r.

        Only the cells within r of the point can hold a node within r;
        ``nearest`` ranks them, the first of equals in cell order.
        """
        best = self.nearest((n for n in self._scan(x, y, self.r)
                             if n not in skip), x, y)
        if best >= 0 and self.dist(best, x, y) <= self.r:
            return best
        return -1

    def hops_from(self, node: int, max_hops: int | None = None) -> np.ndarray:
        """Minimum hop counts of every node measured from ``node``.

        This is the restricted-flooding view a source builds for itself:
        with ``max_hops`` the flood stops after that many hops, and nodes
        farther out stay UNREACHABLE. It is recomputed on every call, so
        cache it when routing many packets from the same source.
        """
        if not 0 <= node < len(self):
            raise InvalidParameter(
                f"node id {node} not in network of {len(self)} nodes")
        return self._flood(node, max_hops)

    def _flood(self, root: int, max_hops: int | None = None) -> np.ndarray:
        """Level-synchronous BFS from ``root``, UNREACHABLE where it never
        got to."""
        hops = np.full(len(self), UNREACHABLE, dtype=np.int64)
        seen = np.zeros(len(self), dtype=bool)
        hops[root] = 0
        seen[root] = True
        frontier = np.array([root])
        level = 0
        while len(frontier) and (max_hops is None or level < max_hops):
            level += 1
            lo = self.indptr[frontier]
            new = np.zeros(len(self), dtype=bool)
            new[self.indices[_spans(lo, self.indptr[frontier + 1] - lo)]] = True
            new &= ~seen
            seen |= new
            frontier = np.flatnonzero(new)
            hops[frontier] = level
        return hops

    def reachable_sensor_ids(self) -> np.ndarray:
        """Sensor ids (sink excluded) that the sink flood reached."""
        ids = np.flatnonzero(self.hops != UNREACHABLE)
        return ids[ids != SINK]

    def dump_csv(self, path) -> None:
        """One row per node: id, x, y, hop_to_sink, neighbor_count."""
        degree = np.diff(self.indptr)
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
def unit(x: float, y: float) -> tuple[float, float]:
    """The vector (x, y) scaled to length 1."""
    n = math.sqrt(x * x + y * y)
    if n == 0.0:
        raise InvalidParameter("zero-length direction vector")
    return x / n, y / n


def row_norms(d: np.ndarray) -> np.ndarray:
    """Length of each row of an (n, 2) array."""
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def project(d: np.ndarray, u) -> np.ndarray:
    """``x*ux + y*uy`` of each row of an (n, 2) array, or of one vector."""
    return d[..., 0] * u[0] + d[..., 1] * u[1]


def check_field(n_nodes: int, field_side: float, r: float, r0: float,
                seed: int) -> None:
    """Raise InvalidParameter unless ``deploy`` can place this field."""
    if not all(map(math.isfinite, (n_nodes, field_side, r, r0))):
        raise InvalidParameter(
            f"n_nodes, field_side, r and r0 must be finite, got {n_nodes}, "
            f"{field_side}, {r}, {r0}")
    if n_nodes < 2:
        raise InvalidParameter(f"n_nodes must be >= 2, got {n_nodes}")
    if field_side <= 0:
        raise InvalidParameter(f"field_side must be positive, got {field_side}")
    if r <= 0:
        raise InvalidParameter(f"r must be positive, got {r}")
    if r0 < r:
        raise InvalidParameter(f"r0 must be >= r, got r0={r0} r={r}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")


def deploy(n_nodes: int, field_side: float, r: float, r0: float,
           seed: int) -> Network:
    """Place ``n_nodes`` uniformly at random and flood hop counts.

    The sink is added at the exact field center on top of the requested
    sensor count. Raises ConnectivityError when more than 1% of sensors
    are unreachable from the sink, which signals that the density is too
    low for the requested communication radius.
    """
    check_field(n_nodes, field_side, r, r0, seed)

    rng = np.random.default_rng(seed)
    sensor_pos = rng.uniform(0.0, field_side, size=(n_nodes, 2))
    center = np.array([field_side / 2.0, field_side / 2.0])
    positions = np.vstack([center[None, :], sensor_pos])

    net = Network(positions, r, r0, field_side)
    unreachable = int(np.sum(net.hops[1:] == UNREACHABLE))
    if unreachable > 0.01 * n_nodes:
        raise ConnectivityError(
            f"{unreachable} of {n_nodes} nodes unreachable from sink "
            f"(limit is 1%); increase density or radius")
    return net


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(s, s + c)`` for each pair of the two arrays."""
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(starts - ends + counts, counts))


def _radius_graph(positions: np.ndarray, r: float, cell_ij: np.ndarray,
                  nx: int, ny: int, cell_start: np.ndarray,
                  cell_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, indices) of every pair with dx*dx + dy*dy
    <= r*r, rows sorted, so a node's neighbors come out in ascending id
    order; both arrays are read-only.

    ``positions`` and ``cell_ij`` are in cell order, row p holding node
    ``cell_nodes[p]``. Cells are at least r wide, so a pair within r sits
    in the same or in adjacent cells: each node meets the nodes after it
    in its own cell and those of the cells at the other offsets of
    HALF_NEIGHBORHOOD, which meets every pair of adjacent cells once.
    """
    xs, ys = positions[:, 0], positions[:, 1]
    r2 = r * r
    rows, cols = [], []
    for di, dj in HALF_NEIGHBORHOOD:
        ti, tj = cell_ij[:, 0] + di, cell_ij[:, 1] + dj
        p = np.flatnonzero((ti >= 0) & (ti < nx) & (tj < ny))
        key = tj[p] * nx + ti[p]
        lo = p + 1 if (di, dj) == (0, 0) else cell_start[key]
        counts = cell_start[key + 1] - lo
        pp = np.repeat(p, counts)
        qq = _spans(lo, counts)
        dx = xs[pp] - xs[qq]
        dy = ys[pp] - ys[qq]
        keep = dx * dx + dy * dy <= r2
        u, v = cell_nodes[pp[keep]], cell_nodes[qq[keep]]
        rows += [u, v]
        cols += [v, u]
    rows = np.concatenate(rows)
    n = len(positions)
    indices = np.sort(rows * n + np.concatenate(cols)) % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices
