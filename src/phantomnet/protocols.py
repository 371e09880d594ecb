"""Protocol dispatch: build a per-session packet router for any protocol."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import baselines, psspr
from .analysis import SectorParams, rmin_rmax_for
from .errors import EmptyRing, InvalidParameter
from .net import UNREACHABLE, Network
from .trace import PHASE_DIRECT, RouteTrace

PSSPR = "psspr"
HBDRW = "hbdrw"
PUSBRF = "pusbrf"
SHORTEST_PATH = "shortest-path"

PROTOCOLS = (PSSPR, HBDRW, PUSBRF, SHORTEST_PATH)

Router = Callable[[np.random.Generator], RouteTrace]


def make_router(network: Network, protocol: str, source: int, *, h: int,
                omega: int) -> Router:
    """Set up one source's session at sweep point (h, omega) and return a
    callable that routes one packet per call.

    This is the only place a session is checked and its state built, so
    the routers never re-check it: (h, omega) must give valid sector
    parameters, whatever the protocol, and the source must be a sensor,
    not the sink, that the sink flood reached. A sector-phantom source
    within r of the sink sends directly; any other reuses its frame and
    candidate domains for the whole session. The restricted-flooding
    router reuses the source-rooted hop field, flooded h hops out, its
    phantom ring (EmptyRing when no node sits exactly h hops out) and
    the memo of its descent.
    """
    params = SectorParams(h, *rmin_rmax_for(h), omega)
    if not (0 <= source < len(network) and source != network.sink
            and network.hops[source] != UNREACHABLE):
        raise InvalidParameter(f"source {source} is not a sensor the sink reached")

    if protocol == PSSPR:
        frame = psspr.build_frame(network, source)
        if frame.source_sink_distance <= network.r:
            return lambda rng: RouteTrace(
                hops=[source, network.sink],
                phases=[PHASE_DIRECT, PHASE_DIRECT], delivered=True)
        domains = psspr.candidate_domain(network, frame, params)
        return partial(psspr.route_packet, network, frame, params,
                       domains=domains)

    if protocol == HBDRW:
        return partial(baselines.hbdrw_route, network, source, h)

    if protocol == PUSBRF:
        source_hops = network.hops_from(source, h)
        # Its phantom candidates: the sensors exactly h hops out.
        ring = np.flatnonzero(source_hops == h)
        ring = ring[ring != network.sink]
        if len(ring) == 0:
            raise EmptyRing(f"no node at exactly {h} hops from source {source}")
        return partial(baselines.pusbrf_route, network, source,
                       source_hops=source_hops,
                       source_next_hop=[-1] * len(network), ring=ring)

    if protocol == SHORTEST_PATH:
        return lambda rng: baselines.shortest_path_route(network, source)

    raise InvalidParameter(
        f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
