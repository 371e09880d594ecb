"""Patient backtracking adversary and the per-session simulation loop.

The adversary starts at the sink, passively overhears transmissions
within its eavesdrop radius (equal to the communication radius r), and
relocates once per packet: to the sender of the earliest transmission in
that packet's journey that happened within range of its perch. Scanning
in transmission order makes that sender the most source-ward audible
one, which is what walking a path backward means; the hunter is slower
than the radio, so the rest of the packet's journey is gone by the time
it arrives. Capture is declared the moment it stands within r0 of the
source, or on the source itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .net import Network
from .protocols import make_router
from .trace import RouteTrace


@dataclass(frozen=True)
class AdversaryState:
    """Where the adversary is perched and what it has achieved so far."""

    at: int
    captured: bool = False


@dataclass(frozen=True)
class RunMetrics:
    """Outcome of one source/protocol session."""

    safety_time: int    # packets sent up to and including the capture
    total_hops: int     # transmissions summed over all packets
    delivered: int      # packets whose trace ended at the sink
    captured: bool


def initial_state(network: Network) -> AdversaryState:
    return AdversaryState(at=network.sink)


def observe_packet(network: Network, state: AdversaryState,
                   trace: RouteTrace, source: int) -> AdversaryState:
    """Replay one packet's transmissions past the adversary.

    The adversary moves to the sender of the first transmission that is
    within radius r of its perch, then checks the capture condition.
    Packets that never come within range leave it exactly where it was.
    """
    if state.captured or len(trace.hops) < 2:
        return state

    heard = network.disc(state.at, network.r)
    for sender in trace.hops[:-1]:
        if sender != state.at and sender in heard:
            return AdversaryState(at=sender, captured=sender in network.disc(
                source, network.r0))
    return state


def run_session(network: Network, protocol: str, source: int,
                max_packets: int, rng: np.random.Generator, *, h: int,
                omega: int, on_trace=None) -> RunMetrics:
    """Send packets until the adversary captures the source or the cap hits.

    ``make_router`` sets the session up at sweep point (h, omega) and
    checks the source before the first packet. ``on_trace`` is called
    with every routed trace (delivered or not) and lets the harness
    collect per-packet statistics without re-routing.
    """
    if max_packets < 1:
        raise InvalidParameter(f"max_packets must be >= 1, got {max_packets}")
    router = make_router(network, protocol, source, h=h, omega=omega)
    state = initial_state(network)
    total_hops = 0
    delivered = 0
    safety_time = max_packets
    captured = False

    for k in range(1, max_packets + 1):
        trace = router(rng)
        total_hops += trace.transmissions
        delivered += int(trace.delivered)
        if on_trace is not None:
            on_trace(trace)
        state = observe_packet(network, state, trace, source)
        if state.captured:
            safety_time = k
            captured = True
            break

    return RunMetrics(safety_time=safety_time, total_hops=total_hops,
                      delivered=delivered, captured=captured)
