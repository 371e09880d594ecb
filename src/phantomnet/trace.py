"""Per-packet route records shared by every routing protocol."""

from __future__ import annotations

from dataclasses import dataclass, field

# Phase tags of the sector-phantom pipeline.
PHASE_DIRECT = "direct-to-sink"
PHASE_DIRECTED = "directed"
PHASE_SAME_HOP = "same-hop"
PHASE_VAR_ANGLE = "variable-angle"

# Phase tags used by the baseline protocols.
PHASE_WALK = "random-walk"
PHASE_PHANTOM_PATH = "phantom-path"
PHASE_SHORTEST = "shortest-path"


@dataclass
class RouteTrace:
    """Ordered node sequence for one packet.

    ``phases[i]`` tags the phase that delivered the packet to ``hops[i]``
    (the first entry carries the tag of the first phase). ``phantom`` is
    the node id the protocol used as its decoy destination, when it has
    one. Undelivered packets keep their partial trace.
    """

    hops: list[int]
    phases: list[str]
    delivered: bool
    annotations: list[str] = field(default_factory=list)
    phantom: int | None = None

    def __post_init__(self):
        if len(self.hops) != len(self.phases):
            raise ValueError("hops and phases must have equal length")

    @property
    def transmissions(self) -> int:
        """Number of radio transmissions the packet consumed."""
        return max(0, len(self.hops) - 1)


def stitch(legs: list[tuple[list[int], str]], delivered: bool,
           annotations: list[str] | None = None) -> RouteTrace:
    """Concatenate routing legs, each starting where the one before ended.

    The first node carries the first leg's phase tag; every later node
    carries the tag of the leg that delivered the packet to it.
    """
    hops, phases = [legs[0][0][0]], [legs[0][1]]
    for nodes, phase in legs:
        hops += nodes[1:]
        phases += [phase] * (len(nodes) - 1)
    return RouteTrace(hops=hops, phases=phases, delivered=delivered,
                      annotations=list(annotations or []))


def enters_visible_area(trace: RouteTrace, network, source: int) -> bool:
    """True when the phantom-to-sink leg passes within r0 of the source.

    A failure path is a phantom-to-sink transmission path crossing the
    source's visible area. The leg begins the first time the packet
    comes within one communication radius of its phantom; packets that
    never got there cannot produce one, and one without a phantom at all
    (plain shortest path) forwards sink-ward from the source itself. So
    the leg must begin by the last hop inside the visible area.
    """
    visible = network.disc(source, network.r0)
    hops = trace.hops
    entered = not visible.isdisjoint(hops)
    if not entered or trace.phantom is None:
        return entered
    last = len(hops)
    while hops[last - 1] not in visible:
        last -= 1
    px, py = network.xs[trace.phantom], network.ys[trace.phantom]
    return any(network.dist(node, px, py) <= network.r
               for node in hops[:last])
