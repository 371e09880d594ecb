import numpy as np
import pytest

import phantomnet as pn
from phantomnet.config import ExperimentConfig
from phantomnet.harness import run_experiment


@pytest.fixture(scope="session")
def desk_net():
    """Reference-density field at desk scale."""
    return pn.deploy(2000, 2700.0, 100.0, 300.0, seed=2)


@pytest.fixture(scope="session")
def dense_net():
    """High-degree field used for the geometry-sensitive checks."""
    return pn.deploy(5000, 2000.0, 100.0, 300.0, seed=11)


@pytest.fixture(scope="session")
def small_net():
    """500-node field from the deployment examples."""
    return pn.deploy(500, 1500.0, 100.0, 300.0, seed=7)


@pytest.fixture(scope="session")
def sweep_rows():
    """Full default sweep, shared by the safety and overhead criteria."""
    cfg = ExperimentConfig(seeds=list(range(1, 31)), packets_per_run=400)
    return run_experiment(cfg)


def brute_force_adjacency(positions, r):
    """Quadratic all-pairs adjacency, the oracle for the cell-grid CSR graph.

    The squared distances are computed 256 rows at a time, so a field of
    a few thousand nodes stays a few MB."""
    n = len(positions)
    out = []
    for lo in range(0, n, 256):
        diff = positions[lo:lo + 256, None, :] - positions[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        for i in range(lo, min(lo + 256, n)):
            mask = d2[i - lo] <= r * r
            mask[i] = False
            out.append(np.flatnonzero(mask))
    return out


def bfs_oracle(adjacency, root):
    """Plain dict-and-list BFS, independent of the package's flood."""
    from collections import deque
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            v = int(v)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def annulus_mean_radius(r_min, r_max):
    """Area-weighted mean radius of an annulus: (2/3)(R^3-r^3)/(R^2-r^2),
    the oracle for the Monte-Carlo phantom distance."""
    return (2.0 / 3.0) * (r_max ** 3 - r_min ** 3) / (r_max ** 2 - r_min ** 2)


def validate_trace(network, trace, source):
    """Invariants every protocol's packet trace must satisfy."""
    assert trace.hops[0] == source
    for (_, before), (_, after) in zip(trace.legs, trace.legs[1:]):
        assert after[0] == before[-1], "a leg starts off the last one's end"
    for a, b in zip(trace.hops, trace.hops[1:]):
        assert b in network.neighbors(a), f"hop {a}->{b} is not a radio link"
    assert trace.delivered == (trace.hops[-1] == network.sink)


def keep_out_oracle(cands, inside, cur):
    """Drop the candidates inside a keep-out area while ``cur`` is outside
    it, the filter the walk kernel applies as it scans."""
    if inside is None or cur in inside:
        return cands
    return [n for n in cands if n not in inside]


def walk_oracle(network, start, budget, pick, done, prev=None, keep_out=None,
                order=None):
    """The walk kernel as a per-hop candidate list and a ``pick(cur, cands)``
    closure, kept as the oracle of ``psspr._walk``."""
    order = order or network.neighbors
    nodes = [start]
    if done(start):
        return nodes, True
    cur = start
    seen = {start}
    stack = [start]
    while len(nodes) - 1 < budget:
        cands = keep_out_oracle([n for n in order(cur) if n not in seen],
                                keep_out, cur)
        if prev is not None and len(cands) > 1:
            # On the first step, avoid an immediate bounce back onto the
            # previous phase's relay unless it is the only way out.
            cands = [n for n in cands if n != prev]
        prev = None
        if not cands:
            stack.pop()
            if not stack:
                return nodes, False
            cur = stack[-1]
            nodes.append(cur)
            continue
        cur = pick(cur, cands)
        seen.add(cur)
        stack.append(cur)
        nodes.append(cur)
        if done(cur):
            return nodes, True
    return nodes, False
