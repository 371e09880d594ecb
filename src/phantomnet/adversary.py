"""Patient backtracking adversary and the per-session simulation loop.

The adversary starts at the sink, passively overhears the radio
neighbors of its perch (its eavesdrop radius is the communication radius
r), and relocates once per packet: to the sender of the earliest
transmission in that packet's journey that its perch could hear. Scanning
in transmission order makes that sender the most source-ward audible
one, which is what walking a path backward means; the hunter is slower
than the radio, so the rest of the packet's journey is gone by the time
it arrives. Capture is declared when a move puts it within r0 of the
source (the source's visible area), the source itself included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter
from .net import Draws, Network
from .protocols import make_router
from .trace import RouteTrace, enters_visible_area


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one source/protocol session."""

    safety_time: int    # packets sent: up to the capture, or the cap
    captured: bool
    total_hops: int     # transmissions summed over all packets
    delivered: int      # packets whose trace ended at the sink
    failure_paths: int  # packets for which failure_path held


def observe_packet(network: Network, perch: int, trace: RouteTrace) -> int:
    """Replay one packet's transmissions past the adversary at ``perch``.

    Returns the new perch: the first sender that is a radio neighbor of
    the old one, so each move crosses one radio link. Packets that never
    come within range leave it exactly where it was.
    """
    heard = frozenset(network.neighbors(perch))
    for sender in trace.hops[:-1]:
        if sender in heard:
            return sender
    return perch


def run_session(network: Network, protocol: str, source: int,
                max_packets: int, rng: Draws, *, h: int,
                omega: int, failure_path=enters_visible_area) -> RunRecord:
    """Send packets until the adversary captures the source or the cap hits.

    ``make_router`` sets the session up at sweep point (h, omega) and
    checks the source before the first packet. ``failure_path(trace,
    network, source)`` is asked of every routed trace, delivered or not.
    """
    if max_packets < 1:
        raise InvalidParameter(f"max_packets must be >= 1, got {max_packets}")
    router = make_router(network, protocol, source, h=h, omega=omega)
    visible = network.visible(source)
    perch = network.sink
    total_hops = delivered = failures = 0

    for k in range(1, max_packets + 1):
        trace = router(rng)
        total_hops += trace.transmissions
        delivered += trace.delivered
        failures += failure_path(trace, network, source)
        moved = observe_packet(network, perch, trace)
        if moved != perch and moved in visible:
            return RunRecord(k, True, total_hops, delivered, failures)
        perch = moved
    return RunRecord(max_packets, False, total_hops, delivered, failures)
