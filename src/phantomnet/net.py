"""Sensor field deployment, radius-r adjacency, and sink-rooted hop counts.

The sink always gets node id 0 and sits at the exact field center; sensor
nodes get ids 1..n. Hop counts are assigned by breadth-first flooding from
the sink, which is exactly the minimum-hop-count beacon exchange a real
deployment would run at startup. Reach within r between nodes is the
radio graph; reach to a point, and the r0 visible area, go through a
grid of cells at least r wide. ``Draws`` is the one source of random
numbers. The module needs numpy only; the per-hop kernels read Python
lists and tuples, made once per field or per node.
"""

from __future__ import annotations

import math
from array import array

import numpy as np
from numpy.random import PCG64  # numpy loads numpy.random lazily: load it here

from .errors import ConnectivityError, InvalidParameter

SINK = 0

# Hop sentinel for nodes the sink flood never reached.
UNREACHABLE = -1

# Grid cells are this much wider than r, so that rounding in the cell
# index can never put two nodes at exactly r in cells two apart.
CELL_MARGIN = 1e-6

# Nodes per block of the radius graph's pair test, which bounds its memory.
GRAPH_BLOCK = 512


class Network:
    """Deployed field.

    Holds node positions, a uniform grid of cells at least r wide with
    the nodes binned into it, the radius-r neighbor graph built from
    that grid (CSR arrays ``indptr``/``indices``, each row sorted), and
    the flooded minimum hop counts, with Python forms for the per-hop
    kernels: memoryviews of the CSR arrays, ``xs``/``ys`` (lists of the
    coordinates as floats, which a scan reads per neighbor), ``sink_dist``
    (an ``array('d')`` equal to ``dist(n, *sink)``) and ``hop_list``.
    Its only mutable parts are per-node tables, each filled the first
    time a walk or replay asks for a node: the neighbor tuples, the two
    sink orderings, the hop rings, the visible areas, and
    ``sink_next_hop``, each node's relay on the shortest-path descent to
    the sink (-1 until known, see ``baselines``). All are fixed functions
    of the field, so every run writes the same values and an instance can
    still be shared across concurrently executing runs.
    """

    def __init__(self, positions: np.ndarray, r: float, r0: float,
                 field_side: float):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.positions.setflags(write=False)
        # Lists: a read returns the stored float, where an array('d') read
        # allocates one. Scans read xs and ys per neighbor; sink_dist, read
        # about once per hop, stays an array, which is cheaper to build.
        self.xs = self.positions[:, 0].tolist()
        self.ys = self.positions[:, 1].tolist()
        self.r = float(r)
        self.r0 = float(r0)
        self.field_side = float(field_side)
        self.sink = SINK

        # Cell (i, j) of the grid holds the nodes
        # cell_nodes[cell_start[k]:cell_start[k + 1]], k = j * nx + i, in
        # ascending id order. Sparse fields get cells wider than r, so that
        # there are no more cells than about one per node.
        n = len(self)
        x, y = self.positions[:, 0], self.positions[:, 1]
        x0, y0 = self.origin = [float(x.min()), float(y.min())]
        self.cell = max(self.r * (1.0 + CELL_MARGIN), float(
            max(x.max() - x0, y.max() - y0)) / math.sqrt(n))
        ci = np.floor((x - x0) / self.cell).astype(np.int64)
        cj = np.floor((y - y0) / self.cell).astype(np.int64)
        self.nx, self.ny = int(ci.max()) + 1, int(cj.max()) + 1
        keys = cj * self.nx + ci
        del ci, cj
        # The id breaks every tie, and about n cells keep keys * n in int64.
        order = np.argsort(keys * n + np.arange(n))
        start = np.bincount(keys + 1, minlength=self.nx * self.ny + 1).cumsum()
        keys = keys[order]
        self.cell_start = array("q", start.tobytes())
        self.cell_nodes = array("q", order.tobytes())

        self.indptr, self.indices = _radius_graph(
            x[order], y[order], self.r, keys, self.nx, self.ny, start, order)
        self._ptr, self._ind = map(memoryview, (self.indptr, self.indices))
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
        self._visible: dict[int, frozenset[int]] = {}   # sources only

    def __len__(self) -> int:
        return len(self.positions)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Ascending ids of the nodes within r of ``node``, a tuple built on
        first use; ``node`` is not range-checked (every hop calls this)."""
        nbrs = self._neighbors[node]
        if nbrs is None:
            lo, hi = self._ptr[node:node + 2]
            nbrs = self._neighbors[node] = tuple(self._ind[lo:hi])
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
            pairs = []  # (key, id): equal keys keep the ids' order
            for n in self.neighbors(node):
                vx = xs[n] - cx
                vy = ys[n] - cy
                length = math.sqrt(vx * vx + vy * vy)
                if length == 0.0:
                    raise InvalidParameter(
                        f"nodes {node} and {n} share a position")
                cos = (vx * tx + vy * ty) / length
                # The sink ranks first whatever its cosine rounds to; the
                # rest by -min(1.0, max(-1.0, cos)), without the two calls.
                pairs.append((-2.0 if n == SINK else -cos if -1.0 < cos < 1.0
                              else -1.0 if cos >= 1.0 else 1.0, n))
            pairs.sort()
            ranked = self._by_sink_angle[node] = tuple([n for _, n in pairs])
        return ranked

    def hop_rings(self, node: int) -> tuple[tuple[int, ...], ...]:
        """(lower, same, upper): the neighbors of ``node`` with a smaller,
        an equal and a larger sink hop count."""
        rings = self._hop_rings[node]
        if rings is None:
            hop = self.hop_list
            level = hop[node]
            lower, same, upper = [], [], []
            for n in self.neighbors(node):
                h = hop[n]
                (lower if h < level else same if h == level else upper).append(n)
            rings = self._hop_rings[node] = (
                tuple(lower), tuple(same), tuple(upper))
        return rings

    def visible(self, node: int) -> frozenset[int]:
        """Ids within r0 of ``node``, itself included (its visible area),
        by the sqrt(dx*dx + dy*dy) <= r0 test on the cells it spans."""
        found = self._visible.get(node)
        if found is None:
            x, y = self.xs[node], self.ys[node]
            found = self._visible[node] = frozenset(
                n for n in self._scan(x, y, self.r0)
                if self.dist(n, x, y) <= self.r0)
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


class Draws:
    """The one source of random numbers: every draw is made from the raw
    words of ``PCG64(seed_words)``, which NumPy keeps stable across
    releases, unlike the output of a generator method (NEP 19). Each
    method returns, call for call, what numpy's default generator seeded
    with the same words returns, and the tests hold it to that.

    ``integers(n)`` splits each word into 32-bit halves, low half first,
    as numpy does below 2**32, and rejects by Lemire's method ("Fast
    Random Integer Generation in an Interval", ACM TOMACS 2019).
    ``uniform(low, high, size)`` is numpy's ``next_double`` of each whole
    word, scaled as its ``random_uniform`` does; like numpy's, it leaves
    a buffered upper half to the next ``integers``. The README lists
    every stream's seed words."""

    __slots__ = ("_raw", "_high")

    def __init__(self, seed_words):
        self._raw = PCG64(seed_words).random_raw
        self._high = None   # the unused upper half of the last word

    def integers(self, n: int) -> int:
        if not 0 < n < 1 << 32:
            raise ValueError(f"n must be in [1, 2**32), got {n}")
        if n == 1:
            return 0    # numpy draws no word either
        while True:
            low = self._high
            if low is None:
                word = self._raw()
                low, self._high = word & 0xFFFFFFFF, word >> 32
            else:
                self._high = None
            m = low * n
            low = m & 0xFFFFFFFF
            if low >= n or low >= ((1 << 32) - n) % n:
                return m >> 32

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        low, high = float(low), float(high)
        # Each step rounds on its own, as numpy's C does.
        return low + (high - low) * ((self._raw(size) >> 11) * 2.0 ** -53)


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

    positions = np.vstack([[[field_side / 2.0] * 2],  # the sink, then sensors
                           Draws(seed).uniform(0.0, field_side,
                                               size=(n_nodes, 2))])

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
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


def _radius_graph(xs: np.ndarray, ys: np.ndarray, r: float,
                  keys: np.ndarray, nx: int, ny: int, cell_start: np.ndarray,
                  cell_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, indices) of every pair with dx*dx + dy*dy
    <= r*r, rows sorted, so a node's neighbors come out in ascending id
    order; both arrays are read-only.

    ``xs``, ``ys`` and the cell keys j * nx + i are in cell order, entry
    p holding node ``cell_nodes[p]``. Cells are at least r wide, so a pair
    within r sits in the same or in adjacent cells. Entry p meets each
    such pair once, in two runs of the cell order: the rest of its own
    cell with the next cell of its row, and the up to three cells of the
    row above. GRAPH_BLOCK entries are tested at a time.
    """
    n = len(xs)
    ci = keys % nx
    right = ci < nx - 1
    # (start, end) of each entry's two runs; past the top row the row
    # above clips to the empty run at the end.
    runs = np.stack([np.arange(1, n + 1), cell_start[keys + 1 + right],
                     cell_start[np.minimum(keys + nx - (ci > 0), nx * ny)],
                     cell_start[np.minimum(keys + nx + 1 + right, nx * ny)]],
                    axis=1).reshape(2 * n, 2)
    runs[:, 1] -= runs[:, 0]  # (start, count)
    counts = runs[:, 1].reshape(n, 2).sum(axis=1)
    # An edge's key is u << bits | v: sorted, the keys run by u, then v.
    bits = n.bit_length()
    found = []
    for b in range(0, n, GRAPH_BLOCK):
        e = b + GRAPH_BLOCK
        c = counts[b:e]
        qq = _spans(runs[2 * b:2 * e, 0], runs[2 * b:2 * e, 1])
        dx = np.repeat(xs[b:e], c) - xs[qq]
        dy = np.repeat(ys[b:e], c) - ys[qq]
        keep = np.flatnonzero(dx * dx + dy * dy <= r * r)
        u, v = np.repeat(cell_nodes[b:e], c)[keep], cell_nodes[qq[keep]]
        found += [(u << bits) | v, (v << bits) | u]
    indices = np.concatenate(found)
    del found
    indices.sort()
    np.bitwise_and(indices, (1 << bits) - 1, out=indices)
    # Every edge is stored both ways: row u has one entry per entry u.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=indptr[1:])
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices
