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
from typing import Callable, Collection, Sequence

import numpy as np

from .analysis import SectorParams
from .errors import EmptyDomain
from .net import UNREACHABLE, Network, project, row_norms, unit
from .trace import (PHASE_DIRECTED, PHASE_SAME_HOP, PHASE_VAR_ANGLE,
                    RouteTrace, stitch)

Point = tuple[float, float]     # (x, y)


@dataclass(frozen=True)
class SourceFrame:
    """Coordinate frame a source sets up before sending packets, with the
    geometry every packet of its session reuses."""

    source: int
    center_v: Point          # midpoint of source and sink
    x_axis: Point            # unit vector, sink toward source
    y_axis: Point            # x_axis turned a quarter counterclockwise
    h_distance: int          # minimum hop count source <-> sink
    source_sink_distance: float
    v_x: float               # frame-x of V
    corner_reach: float      # source to the farthest field corner
    visible: frozenset[int]  # nodes within r0 of the source


@dataclass(frozen=True)
class PhantomChoice:
    """One packet's pseudo-phantom and the phantom actually used."""

    p1: int                  # pseudo-phantom drawn from the sector
    chosen: int              # p1 or its mirror, carrying this packet
    beta: float              # degrees, drives the same-hop hop count
    a_mirror: Point          # point reflection through V of the exit
                             # anchor, r_max*r from the source toward p1


def build_frame(network: Network, source: int) -> SourceFrame:
    """Coordinate frame for a source: V, the axes, and the hop distance.

    The source must be a sensor the sink flood reached, as
    ``protocols.make_router`` checks for a session.
    """
    xs, ys = network.xs, network.ys
    sx, sy = xs[source], ys[source]
    bx, by = xs[network.sink], ys[network.sink]
    dx, dy = sx - bx, sy - by
    d = math.sqrt(dx * dx + dy * dy)
    vx, vy = (sx + bx) / 2.0, (sy + by) / 2.0
    ux, uy = dx / d, dy / d
    corners = (0.0, network.field_side)
    return SourceFrame(
        source=source,
        center_v=(vx, vy),
        x_axis=(ux, uy),
        y_axis=(-uy, ux),
        h_distance=int(network.hops[source]),
        source_sink_distance=d,
        v_x=(vx - bx) * ux + (vy - by) * uy,
        corner_reach=max(network.dist(source, x, y) for x in corners
                         for y in corners),
        visible=network.disc(source, network.r0),
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
                   rng: np.random.Generator,
                   domains: list[np.ndarray]) -> PhantomChoice:
    """Draw a pseudo-phantom pair and pick the phantom for one packet.

    ``domains`` is the session's ``candidate_domain``. The sector is
    drawn uniformly among non-empty sectors, the first pseudo-phantom
    uniformly within it; its mirror is the node nearest the point
    reflection through V. Each of the pair carries the packet with equal
    probability, except when no node lies within r of the reflected
    point, in which case the first pseudo-phantom is forced.
    """
    nonempty = [k for k, dom in enumerate(domains) if len(dom)]
    sector = nonempty[int(rng.integers(len(nonempty)))]
    dom = domains[sector]
    p1 = int(dom[int(rng.integers(len(dom)))])
    xs, ys = network.xs, network.ys
    px, py = xs[p1], ys[p1]
    sx, sy = xs[frame.source], ys[frame.source]
    vx, vy = frame.center_v

    # The mirror, -1 when no node lies within r of the reflected point;
    # near V, p1 may be its own mirror.
    p2 = network.nearest_in_range(2.0 * vx - px, 2.0 * vy - py,
                                  (network.sink, frame.source))
    chosen = p1
    if p2 >= 0 and int(rng.integers(2)) == 1:
        chosen = p2

    # Exit anchors may fall outside the monitored area when the outer
    # radius is large; forwarding can only ever stop at the field edge,
    # so the aiming points are clamped to it.
    ax, ay = _toward(network, (sx, sy), (px, py), params.r_max * network.r)
    mx, my = _clamp(network, 2.0 * vx - ax, 2.0 * vy - ay)

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

    return PhantomChoice(p1=p1, chosen=chosen, beta=beta, a_mirror=(mx, my))


def same_hop_count(beta: float, params: SectorParams) -> int:
    """Length of the same-hop phase: round(beta/180 * r_max), at least 0.

    Rounding is half away from zero so a uniformly distributed angle
    introduces no bias.
    """
    return max(0, int(math.floor(beta / 180.0 * params.r_max + 0.5)))


def route_packet(network: Network, frame: SourceFrame, params: SectorParams,
                 rng: np.random.Generator,
                 domains: list[np.ndarray]) -> RouteTrace:
    """Route one packet source-to-sink through a freshly drawn phantom.

    ``domains`` is the session's ``candidate_domain``; a source within one
    communication radius of the sink never gets here, as
    ``protocols.make_router`` has it send directly. A phantom on the
    source side of V is reached by directed routing, which then continues
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
    budget = 4 * frame.h_distance

    # A plan lists legs as (phase, leg function, its arguments after the
    # start node, its keyword arguments, restart). Each leg starts where
    # the one before it stopped and is told the relay the packet came
    # from, so as not to bounce straight back. A leg that makes no hop
    # hands that relay on; with restart it hands on its own start, which
    # the next leg can never step to. Only the away leg restarts, and the
    # pinned traces depend on it.
    fx, fy = frame.x_axis
    if (chosen_pos[0] - bx) * fx + (chosen_pos[1] - by) * fy > frame.v_x:
        # Phantom on the source side of V: directed first, then away from
        # the source; the r_max ring may poke out of the monitored area,
        # and the walk can only get as far as the field holds nodes. Every
        # leg from the phantom onward steers around the visible area.
        away_radius = min(ring_radius, frame.corner_reach - r)
        away = _toward(network, (sx, sy), chosen_pos, away_radius)
        avoid = {"keep_out": frame.visible}
        plan = [
            (PHASE_DIRECTED, _directed_leg, (chosen_pos, cap), {}, False),
            (PHASE_DIRECTED, _directed_leg, (away, cap),
             {"min_dist_from": ((sx, sy), away_radius), **avoid}, True),
            (PHASE_SAME_HOP, _same_hop_leg, (h_m, frame, None), avoid, False),
            (PHASE_VAR_ANGLE, _var_angle_leg, (budget,), avoid, False)]
    else:
        # Phantom on the sink side of V: mirrored phase order. Variable-
        # angle routing runs until the packet enters the mirrored ring, the
        # same-hop walk slides along it toward the mirror anchor, and
        # directed routing passes the anchor and the phantom into the sink.
        # These legs run before the phantom, so the visible-area keep-out
        # does not bind them; the phantom-to-sink tail near the sink cannot
        # reach the source's disc in the first place.
        plan = [(PHASE_VAR_ANGLE, _var_angle_leg, (budget,),
                 {"ring": ring_radius}, False),
                (PHASE_SAME_HOP, _same_hop_leg, (h_m, frame, choice.a_mirror),
                 {}, False)]
        # Visit the mirror anchor only when it physically exists in the
        # field; a mirrored ring wider than the field has no node near it.
        vx, vy = frame.center_v
        ux, uy = unit(xs[choice.p1] - sx, ys[choice.p1] - sy)
        raw = (2.0 * vx - sx - ring_radius * ux,
               2.0 * vy - sy - ring_radius * uy)
        targets = [(chosen_pos, cap, choice.chosen), ((bx, by), budget, sink)]
        if _clamp(network, *raw) == raw:    # inside the field
            targets.insert(0, (choice.a_mirror, cap, None))
        plan += [(PHASE_DIRECTED, _directed_leg, (target, hops),
                  {"stop_node": stop}, False) for target, hops, stop in targets]

    # A first leg that misses its anchor abandons the packet undelivered.
    # Any other leg that fails hands the packet on from where it stopped,
    # and the last leg decides delivery. The sink-side variable-angle leg
    # stops on entering its ring, r_max*r >= 2r, so never steps on the sink.
    cur, prev = source, None
    delivered = False
    legs: list[tuple[list[int], str]] = []
    annotations: list[str] = []
    for phase, leg, args, kwargs, restart in plan:
        nodes, out = leg(network, cur, *args, prev=prev, **kwargs)
        legs.append((nodes, phase))
        if phase == PHASE_SAME_HOP:
            annotations.extend(out)
        elif len(legs) == 1 and not out:
            break
        prev = nodes[-2] if len(nodes) > 1 else (cur if restart else prev)
        cur = nodes[-1]
        delivered = cur == sink
    trace = stitch(legs, delivered, annotations)
    trace.phantom = choice.chosen
    return trace


def _clamp(network: Network, x: float, y: float) -> Point:
    """The point clipped to the field's extent [0, side]^2."""
    side = network.field_side
    return min(max(x, 0.0), side), min(max(y, 0.0), side)


def _toward(network: Network, origin: Point, through: Point,
            dist: float) -> Point:
    """``dist`` from ``origin`` toward ``through``, clamped to the field."""
    ux, uy = unit(through[0] - origin[0], through[1] - origin[1])
    return _clamp(network, origin[0] + dist * ux, origin[1] + dist * uy)


def _angle_deg(ax: float, ay: float, bx: float, by: float) -> float:
    """Unsigned angle between two vectors, degrees in [0, 180]."""
    na = math.sqrt(ax * ax + ay * ay)
    nb = math.sqrt(bx * bx + by * by)
    if na == 0.0 or nb == 0.0:
        return 0.0
    c = (ax * bx + ay * by) / (na * nb)
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def _barred(keep_out: frozenset[int] | None,
            cur: int) -> Collection[int]:
    """The keep-out nodes, given as ids, a relay at ``cur`` may not pick.

    The phases that carry a packet from the phantom to the sink steer
    around the source's visible area hop by hop. The rule binds only
    while the walk itself is outside the area, so a phase that starts
    inside (the mirrored flow leaves from the source) can still get out.
    """
    return () if keep_out is None or cur in keep_out else keep_out


def _walk(network: Network, start: int, budget: int,
          done: Callable[[int], bool], prev: int | None = None,
          keep_out: frozenset[int] | None = None,
          order: Callable[[int], Sequence[int]] | None = None,
          target: Point | None = None) -> tuple[list[int], bool]:
    """Backtracking greedy walk. Returns (nodes, reached).

    Each step scans the neighbors of the current node once, in the
    sequence ``order`` gives (``network.neighbors`` by default). A
    neighbor is admissible unless the walk has visited it or it is
    ``_barred`` by ``keep_out``. On the first step the relay ``prev``
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
    cur = start
    seen = {start}
    stack = [start]
    while len(nodes) - 1 < budget:
        barred = _barred(keep_out, cur)
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
                d = math.sqrt(dx * dx + dy * dy)
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


def _directed_leg(network: Network, start: int, target: Point,
                  max_hops: int, prev: int | None = None,
                  stop_node: int | None = None,
                  min_dist_from: tuple[Point, float] | None = None,
                  keep_out: frozenset[int] | None = None
                  ) -> tuple[list[int], bool]:
    """Greedy geographic walk toward ``target``. Returns (nodes, reached).

    Each step moves to the unvisited neighbor closest to the target; the
    walk into the sink's position scans ``Network.by_sink_distance``
    instead. The leg ends at ``stop_node`` when one is given; otherwise on
    reaching a node within r of the target or, with ``min_dist_from``, at
    least the given distance from its origin.
    """
    tx, ty = target
    if min_dist_from is not None:
        (ox, oy), away = min_dist_from

    order, aim = None, (tx, ty)
    if aim == (network.xs[network.sink], network.ys[network.sink]):
        order, aim = network.by_sink_distance, None

    def done(node: int) -> bool:
        if stop_node is not None:
            return node == stop_node
        if min_dist_from is not None and network.dist(node, ox, oy) >= away:
            return True
        return network.dist(node, tx, ty) <= network.r

    return _walk(network, start, max_hops, done, prev=prev,
                 keep_out=keep_out, order=order, target=aim)


def _var_angle_leg(network: Network, start: int, budget: int,
                   prev: int | None = None, ring: float | None = None,
                   keep_out: frozenset[int] | None = None
                   ) -> tuple[list[int], bool]:
    """Smallest-angle forwarding toward the sink. Returns (nodes, reached).

    Each step forwards along the candidate hop with the smallest angle
    to the direction of the sink, the first of equals, as ranked by
    ``Network.by_sink_angle``: the sink itself when it is in range, else
    the largest cosine. The leg ends at the sink or, with ``ring``, at
    the first node within that distance of the sink. Not revisiting
    relays breaks the orbit cycles a memoryless angle-greedy walk falls
    into around routing voids.
    """
    sink, sink_dist = network.sink, network.sink_dist

    def done(node: int) -> bool:
        return node == sink or (ring is not None and sink_dist[node] <= ring)

    return _walk(network, start, budget, done, prev=prev, keep_out=keep_out,
                 order=network.by_sink_angle)


def _same_hop_leg(network: Network, start: int, h_m: int, frame: SourceFrame,
                  anchor: Point | None, prev: int | None = None,
                  keep_out: frozenset[int] | None = None
                  ) -> tuple[list[int], list[str]]:
    """Constant-hop-count walk. Returns (nodes, annotations)."""
    hop = network.hop_list
    xs, ys = network.xs, network.ys
    bx, by = xs[network.sink], ys[network.sink]
    yx, yy = frame.y_axis

    def pick(cands: list[int]) -> int:
        if anchor is not None:
            return network.nearest(cands, *anchor)
        fy = [abs((xs[n] - bx) * yx + (ys[n] - by) * yy) for n in cands]
        return cands[fy.index(min(fy))]

    nodes = [start]
    annotations: list[str] = []
    cur = start
    relaxed = False
    for _ in range(h_m):
        barred = _barred(keep_out, cur)
        ring = [n for n in network.hop_rings(cur)[1] if n not in barred]
        # Never bounce straight back unless the ring offers nothing else.
        cands = [n for n in ring if n != prev] or ring
        if not cands:
            if relaxed:
                annotations.append(f"same-hop-aborted@{len(nodes) - 1}")
                break
            cands = [n for n in network.neighbors(cur)
                     if abs(hop[n] - hop[cur]) == 1 and n not in barred]
            if not cands:
                annotations.append(f"same-hop-aborted@{len(nodes) - 1}")
                break
            relaxed = True
            annotations.append(f"same-hop-relaxed@{len(nodes)}")
        prev, cur = cur, pick(cands)
        nodes.append(cur)
    return nodes, annotations
