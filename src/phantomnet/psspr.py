"""Sector-phantom routing pipeline: phantom selection plus the directed,
same-hop, and variable-angle phases that carry one packet source-to-sink.

Geometry conventions used throughout:

* The source frame has its origin at the sink; ``x_axis`` points from the
  sink toward the source, so the source sits at frame-x = D (the
  source-sink distance) and the center node V at D/2.
* The phantom candidate area is the half of the annulus
  [r_min*r, r_max*r] around the source that faces the sink, split into
  ``omega`` equal sectors of width pi/omega. Sector angles are measured
  about the source, from the sector fan's opening boundary, so sector i
  covers [(i-1)*theta, i*theta). The mirrored area obtained by point
  reflection through V is the matching half-annulus around the sink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import SectorParams
from .errors import EmptyDomain
from .net import UNREACHABLE, Network, project, row_norms, unit
from .trace import PHASE_DIRECTED, PHASE_SAME_HOP, PHASE_VAR_ANGLE, RouteTrace

Point = tuple[float, float]     # (x, y)


@dataclass(frozen=True)
class SourceFrame:
    """Coordinate frame a source sets up before sending packets, with the
    geometry every packet of its session reuses."""

    source: int
    center_v: Point          # midpoint of source and sink
    x_axis: Point            # unit vector, sink toward source
    y_axis: Point            # x_axis turned a quarter counterclockwise
    v_x: float               # frame-x of V
    corner_reach: float      # source to the farthest field corner


@dataclass(frozen=True)
class PhantomChoice:
    """One packet's pseudo-phantom and the phantom actually used."""

    p1: int                  # pseudo-phantom drawn from the sector
    chosen: int              # p1 or its mirror, carrying this packet
    beta: float              # degrees, drives the same-hop hop count
    a_mirror: Point          # point reflection through V of the exit
                             # anchor, r_max*r from the source toward p1
    mirror_in_field: bool    # that reflection, unclamped, lies in the field


def build_frame(network: Network, source: int) -> SourceFrame:
    """Coordinate frame for a source: V and the axes.

    The source must be a sensor the sink flood reached, as
    ``protocols.make_router`` checks for a session.
    """
    xs, ys = network.xs, network.ys
    sx, sy = xs[source], ys[source]
    bx, by = xs[network.sink], ys[network.sink]
    d = network.sink_dist[source]
    vx, vy = (sx + bx) / 2.0, (sy + by) / 2.0
    ux, uy = (sx - bx) / d, (sy - by) / d
    corners = (0.0, network.field_side)
    return SourceFrame(
        source=source,
        center_v=(vx, vy),
        x_axis=(ux, uy),
        y_axis=(-uy, ux),
        v_x=(vx - bx) * ux + (vy - by) * uy,
        corner_reach=max(network.dist(source, x, y) for x in corners
                         for y in corners),
    )


def candidate_domain(network: Network, frame: SourceFrame,
                     params: SectorParams) -> list[np.ndarray]:
    """Per-sector candidate node ids, index i holding sector i+1.

    A node qualifies when its distance from the source lies in
    [r_min*r, r_max*r] and it sits on the sink-facing side of the line
    through the source perpendicular to the source-sink axis.
    """
    pos = network.positions
    w = pos - pos[frame.source]
    dist = row_norms(w)
    wx = project(w, frame.x_axis)
    wy = project(w, frame.y_axis)

    mask = (dist >= params.r_min * network.r) & (dist <= params.r_max * network.r)
    mask &= wx <= 0.0
    mask &= network.hops != UNREACHABLE
    mask[frame.source] = False
    mask[network.sink] = False

    ids = np.flatnonzero(mask)
    # Angle about the source measured from the fan's opening boundary so
    # that sectors 1..omega tile [0, pi).
    psi = np.arctan2(wy[ids], -wx[ids]) + math.pi / 2.0
    sector = np.minimum((psi / params.theta).astype(np.int64), params.omega - 1)

    domains = [ids[sector == k] for k in range(params.omega)]
    if all(len(d) == 0 for d in domains):
        raise EmptyDomain(
            f"no candidate phantom in annulus [{params.r_min},{params.r_max}] "
            f"hops around source {frame.source}")
    return domains


def select_phantom(network: Network, frame: SourceFrame, params: SectorParams,
                   rng, domains: list[np.ndarray]) -> PhantomChoice:
    """Draw a pseudo-phantom pair and pick the phantom for one packet.

    ``domains`` is the session's ``candidate_domain``. The sector is
    drawn uniformly among non-empty sectors, the first pseudo-phantom
    uniformly within it; its mirror is the node nearest the point
    reflection through V. Each of the pair carries the packet with equal
    probability, except when no node lies within r of the reflected
    point, in which case the first pseudo-phantom is forced.
    """
    nonempty = [k for k, dom in enumerate(domains) if len(dom)]
    sector = nonempty[rng.integers(len(nonempty))]
    dom = domains[sector]
    p1 = int(dom[rng.integers(len(dom))])
    xs, ys = network.xs, network.ys
    px, py = xs[p1], ys[p1]
    sx, sy = xs[frame.source], ys[frame.source]
    vx, vy = frame.center_v

    # The mirror, -1 when no node lies within r of the reflected point;
    # near V, p1 may be its own mirror.
    p2 = network.nearest_in_range(2.0 * vx - px, 2.0 * vy - py,
                                  (network.sink, frame.source))
    chosen = p1
    if p2 >= 0 and rng.integers(2) == 1:
        chosen = p2

    # Exit anchors may fall outside the monitored area when the outer
    # radius is large; forwarding can only ever stop at the field edge,
    # so the aiming points are clamped to it.
    ux, uy = unit(px - sx, py - sy)
    reach = params.r_max * network.r
    ax, ay = _clamp(network, sx + reach * ux, sy + reach * uy)
    mx, my = _clamp(network, 2.0 * vx - ax, 2.0 * vy - ay)
    raw = (2.0 * vx - sx - reach * ux, 2.0 * vy - sy - reach * uy)

    # The two anchored angle forms are equal by the point symmetry
    # through V; each is the non-degenerate triangle for one member of
    # the pair (anchoring the chosen phantom at its own ray's vertex
    # would collapse the angle to zero).
    cx, cy = xs[chosen], ys[chosen]
    if chosen == p2:
        beta = _angle_deg(ax - sx, ay - sy, cx - sx, cy - sy)
    else:
        bx, by = xs[network.sink], ys[network.sink]
        beta = _angle_deg(mx - bx, my - by, cx - bx, cy - by)

    return PhantomChoice(p1=p1, chosen=chosen, beta=beta, a_mirror=(mx, my),
                         mirror_in_field=_clamp(network, *raw) == raw)


def same_hop_count(beta: float, params: SectorParams) -> int:
    """Length of the same-hop phase: round(beta/180 * r_max), at least 0.

    Rounding is half away from zero so a uniformly distributed angle
    introduces no bias.
    """
    return max(0, int(math.floor(beta / 180.0 * params.r_max + 0.5)))


def route_packet(network: Network, frame: SourceFrame, params: SectorParams,
                 rng, domains: list[np.ndarray]) -> RouteTrace:
    """Route one packet source-to-sink through a freshly drawn phantom.

    ``domains`` is the session's ``candidate_domain``; a source one hop
    from the sink never gets here, as ``protocols.make_router`` has it
    send directly. A phantom on the source side of V is reached, on it or
    on a radio neighbor of it, by directed routing, which then continues
    away from the source to the r_max ring, hands over to the same-hop
    walk, and finishes with variable-angle routing to the sink. A phantom
    on the sink side runs the mirrored order: variable-angle until the
    packet enters the mirrored ring, the same-hop walk, then directed
    routing through the mirror anchor and the phantom into the sink.
    Failed phases leave a partial, undelivered trace; they never drop the
    packet record.
    """
    source = frame.source
    sink = network.sink
    r = network.r
    choice = select_phantom(network, frame, params, rng, domains)
    h_m = same_hop_count(choice.beta, params)
    xs, ys = network.xs, network.ys
    sx, sy = xs[source], ys[source]
    bx, by = xs[sink], ys[sink]
    chosen_pos = (xs[choice.chosen], ys[choice.chosen])
    ring_radius = params.r_max * r
    cap = 4 * params.r_max
    budget = 4 * network.hop_list[source]

    # Each leg starts where the one before it stopped and is told the
    # relay the packet came from, so as not to bounce straight back. A leg
    # that makes no hop hands that relay on; with restart it hands on its
    # own start, which the next leg can never step to. Only the away leg
    # restarts, and the pinned traces depend on it.
    cur, prev = source, None
    legs: list[tuple[str, list[int]]] = []

    def leg(phase, walk, *args, restart=False, **kwargs):
        """Run one leg from where the packet stands and hand the packet
        on; returns the walk's second result (reached, or the same-hop
        annotations)."""
        nonlocal cur, prev
        nodes, out = walk(network, cur, *args, prev=prev, **kwargs)
        legs.append((phase, nodes))
        prev = nodes[-2] if len(nodes) > 1 else (cur if restart else prev)
        cur = nodes[-1]
        return out

    # Directed legs walk toward a point; variable-angle legs step down
    # ``by_sink_angle`` (the sink when in range, else the smallest angle to
    # it), where not revisiting relays breaks the orbits an angle-greedy
    # walk falls into around voids. The leg into the sink scans
    # ``by_sink_distance``: the relays a walk toward the sink's position
    # picks, ranked once per node.

    # A first leg that misses its anchor abandons the packet where it
    # stopped. Any other leg that fails hands the packet on from there.
    # The trace counts as delivered when its last hop is the sink.
    annotations: list[str] = []
    fx, fy = frame.x_axis
    if (chosen_pos[0] - bx) * fx + (chosen_pos[1] - by) * fy > frame.v_x:
        # Phantom on the source side of V: directed first, then away from
        # the source; the r_max ring may poke out of the monitored area,
        # and the walk can only get as far as the field holds nodes. Every
        # leg from the phantom onward steers around the visible area.
        away_radius = min(ring_radius, frame.corner_reach - r)
        ux, uy = unit(chosen_pos[0] - sx, chosen_pos[1] - sy)
        away = _clamp(network, sx + away_radius * ux, sy + away_radius * uy)
        keep_out = network.visible(source)
        at_phantom = {choice.chosen, *network.neighbors(choice.chosen)}
        if leg(PHASE_DIRECTED, _walk, cap, at_phantom.__contains__,
               target=chosen_pos):
            leg(PHASE_DIRECTED, _walk, cap,
                lambda n: (network.dist(n, sx, sy) >= away_radius
                           or network.dist(n, *away) <= r),
                target=away, keep_out=keep_out, restart=True)
            annotations = leg(PHASE_SAME_HOP, _same_hop_leg, h_m, frame, None,
                              keep_out=keep_out)
            leg(PHASE_VAR_ANGLE, _walk, budget, lambda n: n == sink,
                order=network.by_sink_angle, keep_out=keep_out)
    else:
        # Phantom on the sink side of V: mirrored phase order. Variable-
        # angle routing runs until the packet enters the mirrored ring
        # (r_max*r >= 2r, so it never steps on the sink), the same-hop walk
        # slides along it toward the mirror anchor, and directed routing
        # passes the anchor and the phantom into the sink. These legs run
        # before the phantom, so the visible-area keep-out does not bind
        # them; the phantom-to-sink tail near the sink cannot reach the
        # source's disc in the first place.
        if leg(PHASE_VAR_ANGLE, _walk, budget,
               lambda n: n == sink or network.sink_dist[n] <= ring_radius,
               order=network.by_sink_angle):
            annotations = leg(PHASE_SAME_HOP, _same_hop_leg, h_m, frame,
                              choice.a_mirror)
            # Visit the mirror anchor only when it lies in the field; a
            # mirrored ring wider than the field has no node near it.
            if choice.mirror_in_field:
                leg(PHASE_DIRECTED, _walk, cap,
                    lambda n: network.dist(n, *choice.a_mirror) <= r,
                    target=choice.a_mirror)
            leg(PHASE_DIRECTED, _walk, cap, lambda n: n == choice.chosen,
                target=chosen_pos)
            leg(PHASE_DIRECTED, _walk, budget, lambda n: n == sink,
                order=network.by_sink_distance)
    return RouteTrace(legs, annotations, choice.chosen)


def _clamp(network: Network, x: float, y: float) -> Point:
    """The point clipped to the field's extent [0, side]^2."""
    side = network.field_side
    return min(max(x, 0.0), side), min(max(y, 0.0), side)


def _angle_deg(ax: float, ay: float, bx: float, by: float) -> float:
    """Unsigned angle between two vectors, degrees in [0, 180]."""
    na = math.sqrt(ax * ax + ay * ay)
    nb = math.sqrt(bx * bx + by * by)
    if na == 0.0 or nb == 0.0:
        return 0.0
    c = (ax * bx + ay * by) / (na * nb)
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def _walk(network: Network, start: int, budget: int,
          done: Callable[[int], bool], prev: int | None = None,
          keep_out: frozenset[int] | None = None,
          order: Callable[[int], Sequence[int]] | None = None,
          target: Point | None = None) -> tuple[list[int], bool]:
    """Backtracking greedy walk. Returns (nodes, reached).

    Each step scans the neighbors of the current node once, in the
    sequence ``order`` gives (``network.neighbors`` by default). A
    neighbor is admissible unless the walk has visited it or, while the
    walk stands outside ``keep_out``, it lies in it: the phases from the
    phantom to the sink steer around the source's visible area hop by
    hop, and a phase that starts inside (the mirrored flow leaves from
    the source) can still get out. On the first step the relay ``prev``
    the packet came from is taken only when nothing else is admissible,
    so the packet does not bounce straight back. With a ``target`` the
    next relay is the admissible neighbor nearest that point, the first
    of equals, compared after the sqrt; without one, ``order`` is a
    ranked table and its first admissible entry is next. The walk ends
    once ``done`` holds for the node it stands on or ``budget`` hops are
    spent.
    Remembering visited nodes lets the walk skirt routing voids instead of
    oscillating at a local minimum. A dead end physically carries the
    packet back one hop and resumes from there, which is this
    simulator's hop-level stand-in for the perimeter mode of GPSR (Karp &
    Kung, MobiCom 2000). The walk gives up, unreached, once it has
    retreated all the way to its start with nothing left to try.
    """
    order = order or network.neighbors
    nodes = [start]
    if done(start):
        return nodes, True
    if target is not None:
        xs, ys = network.xs, network.ys
        tx, ty = target
    sqrt = math.sqrt
    cur = start
    seen = {start}
    stack = [start]
    while len(nodes) - 1 < budget:
        barred = () if keep_out is None or cur in keep_out else keep_out
        nxt, best_d, bounce = -1, math.inf, False
        for n in order(cur):
            if n in seen or n in barred:
                continue
            if n == prev:
                bounce = True
            elif target is None:
                nxt = n
                break
            else:
                dx = xs[n] - tx
                dy = ys[n] - ty
                d = sqrt(dx * dx + dy * dy)
                if d < best_d:
                    nxt, best_d = n, d
        if nxt < 0 and bounce:
            nxt = prev
        prev = None
        if nxt < 0:
            stack.pop()
            if not stack:
                return nodes, False
            cur = stack[-1]
            nodes.append(cur)
            continue
        cur = nxt
        seen.add(cur)
        stack.append(cur)
        nodes.append(cur)
        if done(cur):
            return nodes, True
    return nodes, False


def _same_hop_leg(network: Network, start: int, h_m: int, frame: SourceFrame,
                  anchor: Point | None, prev: int | None = None,
                  keep_out: frozenset[int] | None = None
                  ) -> tuple[list[int], list[str]]:
    """Constant-hop-count walk. Returns (nodes, annotations).

    Each step takes the first admissible ring node nearest ``anchor``
    (after the sqrt) or the axis, and ``prev`` only if no other is; the
    first ring with none relaxes to a hop up or down, the second aborts.
    ``keep_out`` bars ring nodes as in ``_walk``.
    """
    xs, ys = network.xs, network.ys
    bx, by = xs[network.sink], ys[network.sink]
    yx, yy = frame.y_axis
    if anchor is not None:
        ax, ay = anchor

    def pick(cands, barred, prev) -> int:
        nxt, best, bounce = -1, math.inf, False
        for n in cands:
            if n in barred:
                continue
            if n == prev:
                bounce = True
                continue
            if anchor is None:
                d = abs((xs[n] - bx) * yx + (ys[n] - by) * yy)
            else:
                dx = xs[n] - ax
                dy = ys[n] - ay
                d = math.sqrt(dx * dx + dy * dy)
            if d < best:
                nxt, best = n, d
        return prev if nxt < 0 and bounce else nxt

    nodes = [start]
    annotations: list[str] = []
    cur = start
    relaxed = False
    for _ in range(h_m):
        barred = () if keep_out is None or cur in keep_out else keep_out
        lower, same, upper = network.hop_rings(cur)
        nxt = pick(same, barred, prev)
        if nxt < 0 and not relaxed:
            nxt = pick(sorted(lower + upper), barred, None)
            relaxed = nxt >= 0
            if relaxed:
                annotations.append(f"same-hop-relaxed@{len(nodes)}")
        if nxt < 0:
            annotations.append(f"same-hop-aborted@{len(nodes) - 1}")
            break
        prev, cur = cur, nxt
        nodes.append(cur)
    return nodes, annotations
