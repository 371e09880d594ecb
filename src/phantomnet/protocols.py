"""Protocol dispatch: build a per-session packet router for any protocol."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import baselines, psspr
from .errors import InvalidParameter
from .net import Network
from .trace import RouteTrace

PSSPR = "psspr"
HBDRW = "hbdrw"
PUSBRF = "pusbrf"
SHORTEST_PATH = "shortest-path"

PROTOCOLS = (PSSPR, HBDRW, PUSBRF, SHORTEST_PATH)

Router = Callable[[np.random.Generator], RouteTrace]


def make_router(network: Network, protocol: str, source: int,
                sector_params: psspr.SectorParams | None = None,
                walk_params: baselines.BaselineParams | None = None) -> Router:
    """Callable routing one packet per call, with per-source state built
    here once: the routing functions take it as required arguments.

    The sector-phantom router reuses the source frame and candidate
    domains for the whole session; the restricted-flooding router reuses
    the source-rooted hop field, flooded h hops out, its phantom ring and
    the memo of its descent.
    """
    if protocol == PSSPR:
        if sector_params is None:
            raise InvalidParameter("psspr requires sector_params")
        frame = psspr.build_frame(network, source)
        if frame.source_sink_distance <= network.r:
            domains = None  # direct sends never consult the domain
        else:
            domains = psspr.candidate_domain(network, frame, sector_params)
        return partial(psspr.route_packet, network, frame, sector_params,
                       domains=domains)

    if protocol == HBDRW:
        if walk_params is None:
            raise InvalidParameter("hbdrw requires walk_params")
        return partial(baselines.hbdrw_route, network, source, walk_params)

    if protocol == PUSBRF:
        if walk_params is None:
            raise InvalidParameter("pusbrf requires walk_params")
        source_hops = network.hops_from(source, walk_params.walk_hops)
        source_next_hop = [-1] * len(network)
        # Its phantom candidates: the sensors exactly h hops out.
        ring = np.flatnonzero(source_hops == walk_params.walk_hops)
        ring = ring[ring != network.sink]
        return partial(baselines.pusbrf_route, network, source, walk_params,
                       source_hops=source_hops,
                       source_next_hop=source_next_hop, ring=ring)

    if protocol == SHORTEST_PATH:
        return lambda rng: baselines.shortest_path_route(network, source)

    raise InvalidParameter(
        f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
