"""Per-packet route records shared by every routing protocol."""

from __future__ import annotations

from dataclasses import dataclass, field

from .net import SINK

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
    """One packet's route, as the legs that carried it.

    ``legs`` lists ``(phase, nodes)``; each leg starts on the node where
    the one before it stopped, so a leg that makes no hop holds that one
    node. ``phantom`` is the node id the protocol used as its decoy
    destination, when it has one. Undelivered packets keep their partial
    trace.
    """

    legs: list[tuple[str, list[int]]]
    annotations: list[str] = field(default_factory=list)
    phantom: int | None = None
    hops: list[int] = field(init=False)     # the nodes in route order

    def __post_init__(self):
        (_, hops), *rest = self.legs
        self.hops = hops = list(hops)
        for _, nodes in rest:
            hops += nodes[1:]

    @property
    def phases(self) -> list[str]:
        """``phases[i]`` tags the leg that brought the packet to
        ``hops[i]``; the first entry carries the first leg's tag."""
        return [self.legs[0][0]] + [phase for phase, nodes in self.legs
                                    for _ in nodes[1:]]

    @property
    def delivered(self) -> bool:
        """True when the last hop is the sink."""
        return self.hops[-1:] == [SINK]

    @property
    def transmissions(self) -> int:
        """Number of radio transmissions the packet consumed."""
        return max(0, len(self.hops) - 1)


def enters_visible_area(trace: RouteTrace, network, source: int) -> bool:
    """True when the phantom-to-sink leg passes within r0 of the source.

    A failure path is a phantom-to-sink transmission path crossing the
    source's visible area. The leg begins at the first hop that is the
    phantom or one of its radio neighbors; packets that never got there
    cannot produce one, and one without a phantom at all (plain shortest
    path) forwards sink-ward from the source itself. So the leg must
    begin by the last hop inside the visible area.
    """
    visible = network.visible(source)
    hops = trace.hops
    entered = not visible.isdisjoint(hops)
    if not entered or trace.phantom is None:
        return entered
    last = len(hops)
    while hops[last - 1] not in visible:
        last -= 1
    near = {trace.phantom, *network.neighbors(trace.phantom)}
    return not near.isdisjoint(hops[:last])
