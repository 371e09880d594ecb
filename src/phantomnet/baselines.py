"""Comparison protocols: hop-based directed random walk (HBDRW),
source-based restricted-flooding phantom routing (PUSBRF), and the plain
shortest-path control.
"""

from __future__ import annotations

from .net import Network
from .trace import PHASE_PHANTOM_PATH, PHASE_SHORTEST, PHASE_WALK, RouteTrace


def hbdrw_route(network: Network, source: int, walk_hops: int,
                rng) -> RouteTrace:
    """``walk_hops``-hop directed random walk, then shortest path from the
    endpoint; ``protocols.make_router`` has checked the session.

    Each relay splits its neighbors into a parent set (smaller hop count)
    and a child set (larger hop count); the walk commits to one set kind
    for its whole length and picks uniformly inside it at every relay.
    An empty committed set at some relay falls back to the other set for
    that step; if both are empty the walk ends early.
    """
    committed_parent = bool(rng.integers(2) == 0)
    walk = [source]
    annotations: list[str] = []
    cur, prev = source, None
    for step in range(walk_hops):
        parents, _, children = network.hop_rings(cur)
        primary, other = ((parents, children) if committed_parent
                          else (children, parents))
        cands = primary
        if not cands:
            cands = other
            if not cands:
                break
            annotations.append(f"walk-fallback@{step}")
        if prev in cands and len(cands) > 1:
            cands = [n for n in cands if n != prev]
        prev, cur = cur, cands[rng.integers(len(cands))]
        walk.append(cur)

    legs = [(PHASE_WALK, walk),
            (PHASE_SHORTEST, _descend_to_sink(network, cur))]
    return RouteTrace(legs, annotations, cur if cur != source else None)


def pusbrf_route(network: Network, source: int, rng, source_hops: list[int],
                 source_next_hop: list[int], ring: list[int]) -> RouteTrace:
    """Phantom drawn uniformly from the ring exactly h source-hops away.

    The checked session state comes from ``protocols.make_router``:
    ``source_hops`` is the source-rooted flooding result, h hops out or
    more, ``source_next_hop`` the memo of its descent (see ``_descend``)
    and ``ring`` the sensors exactly h hops out, never empty. The
    source-to-phantom leg descends that hop field, giving a minimum hop
    path of exactly h hops, and the phantom forwards to the sink on a
    shortest path.
    """
    phantom = ring[rng.integers(len(ring))]

    # Walk the source-rooted hop field down from the phantom, then flip.
    to_phantom = _descend(network, source_hops, phantom,
                          (network.xs[source], network.ys[source]),
                          source_next_hop)[::-1]
    legs = [(PHASE_PHANTOM_PATH, to_phantom),
            (PHASE_SHORTEST, _descend_to_sink(network, phantom))]
    return RouteTrace(legs, phantom=phantom)


def shortest_path_route(network: Network, source: int) -> RouteTrace:
    """Minimum-hop route to the sink.

    Each relay forwards to a neighbor one hop closer to the sink, ties
    broken by Euclidean distance to the sink, so the trace length equals
    the source's hop count exactly; ``protocols.make_router`` has checked
    that the sink flood reached the source.
    """
    return RouteTrace([(PHASE_SHORTEST, _descend_to_sink(network, source))])


def _descend(network: Network, field, start: int, toward,
             next_hop: list[int]) -> list[int]:
    """Minimum-hop path from ``start`` down a hop field to its root.

    Each relay forwards to a neighbor one hop lower in ``field`` (hop
    counts indexable per node), ties broken by Euclidean distance to the
    point ``toward``, the first of equals in neighbor order. That choice
    depends on nothing but the field, ``toward`` and the relay, so it is
    made once per relay and kept in ``next_hop``, one entry per node, -1
    until known; pass the same list for every descent of one field.
    """
    nodes = [start]
    cur = start
    while field[cur] > 0:
        nxt = next_hop[cur]
        if nxt < 0:
            below = field[cur] - 1
            nxt = next_hop[cur] = network.nearest(
                [n for n in network.neighbors(cur) if field[n] == below],
                *toward)
        cur = nxt
        nodes.append(cur)
    return nodes


def _descend_to_sink(network: Network, start: int) -> list[int]:
    """Shortest path from ``start`` to the sink, memoised on the network."""
    sink = network.sink
    return _descend(network, network.hop_list, start,
                    (network.xs[sink], network.ys[sink]),
                    network.sink_next_hop)
