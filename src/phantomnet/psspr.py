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
from typing import Callable

import numpy as np

from .errors import EmptyDomain, InvalidParameter, SourceIsSink
from .net import UNREACHABLE, Network, norm, row_norms
from .trace import (PHASE_DIRECT, PHASE_DIRECTED, PHASE_SAME_HOP,
                    PHASE_VAR_ANGLE, RouteTrace, stitch)


@dataclass(frozen=True)
class SectorParams:
    """Geometry of the phantom candidate area."""

    r_min: int      # inner annulus radius, hops
    r_max: int      # outer annulus radius, hops
    omega: int      # number of sectors, even

    def __post_init__(self):
        if self.r_min >= self.r_max:
            raise InvalidParameter(
                f"r_min must be < r_max, got {self.r_min} >= {self.r_max}")
        if self.r_min < 1:
            raise InvalidParameter(f"r_min must be >= 1, got {self.r_min}")
        if self.omega < 2 or self.omega % 2 != 0:
            raise InvalidParameter(
                f"omega must be an even integer >= 2, got {self.omega}")

    @property
    def theta(self) -> float:
        """Angular width of one sector, radians."""
        return math.pi / self.omega


@dataclass(frozen=True)
class SourceFrame:
    """Coordinate frame a source sets up before sending packets."""

    source: int
    source_pos: np.ndarray
    sink_pos: np.ndarray
    center_v: np.ndarray     # midpoint of source and sink
    x_axis: np.ndarray       # unit vector, sink toward source
    h_distance: int          # minimum hop count source <-> sink

    @property
    def y_axis(self) -> np.ndarray:
        return np.array([-self.x_axis[1], self.x_axis[0]])

    @property
    def source_sink_distance(self) -> float:
        return norm(self.source_pos - self.sink_pos)

    def frame_x(self, pos: np.ndarray) -> float:
        return float(np.dot(pos - self.sink_pos, self.x_axis))

    def frame_y(self, pos: np.ndarray) -> float:
        return float(np.dot(pos - self.sink_pos, self.y_axis))


@dataclass(frozen=True)
class PhantomChoice:
    """One packet's pseudo-phantom pair and the phantom actually used."""

    domain_index: int        # selected sector, 1..omega
    p1: int                  # pseudo-phantom drawn from the sector
    p2: int                  # node nearest the point reflection of p1
    chosen: int              # phantom carrying this packet
    beta: float              # degrees, drives the same-hop hop count
    mirror_found: bool       # False when no node sat within r of the
                             # reflected point and p1 was forced
    a_point: np.ndarray      # directed-phase exit anchor, r_max*r from
                             # the source along the ray source->p1
    a_mirror: np.ndarray     # point reflection of a_point through V


def build_frame(network: Network, source: int) -> SourceFrame:
    """Coordinate frame for a source: V, the x-axis, and the hop distance."""
    network.check_node(source)
    if source == network.sink:
        raise SourceIsSink("cannot build a routing frame for the sink")
    if network.hops[source] == UNREACHABLE:
        raise InvalidParameter(f"source {source} is unreachable from the sink")
    spos = network.positions[source]
    bpos = network.sink_pos
    d = norm(spos - bpos)
    return SourceFrame(
        source=source,
        source_pos=spos,
        sink_pos=bpos,
        center_v=(spos + bpos) / 2.0,
        x_axis=(spos - bpos) / d,
        h_distance=int(network.hops[source]),
    )


def candidate_domain(network: Network, frame: SourceFrame,
                     params: SectorParams) -> list[np.ndarray]:
    """Per-sector candidate node ids, index i holding sector i+1.

    A node qualifies when its distance from the source lies in
    [r_min*r, r_max*r] and it sits on the sink-facing side of the line
    through the source perpendicular to the source-sink axis.
    """
    pos = network.positions
    w = pos - frame.source_pos
    dist = row_norms(w)
    wx = w @ frame.x_axis
    wy = w @ frame.y_axis

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
                   domains: list[np.ndarray] | None = None) -> PhantomChoice:
    """Draw a pseudo-phantom pair and pick the phantom for one packet.

    The sector is drawn uniformly among non-empty sectors, the first
    pseudo-phantom uniformly within it; its mirror is the node nearest
    the point reflection through V. Each of the pair carries the packet
    with equal probability, except when no node lies within r of the
    reflected point, in which case the first pseudo-phantom is forced.
    """
    if domains is None:
        domains = candidate_domain(network, frame, params)
    nonempty = [k for k, dom in enumerate(domains) if len(dom)]
    if not nonempty:
        raise EmptyDomain("all phantom sectors are empty")

    sector = nonempty[int(rng.integers(len(nonempty)))]
    dom = domains[sector]
    p1 = int(dom[int(rng.integers(len(dom)))])
    p1_pos = network.positions[p1]

    mirror_target = 2.0 * frame.center_v - p1_pos
    dists, ids = network.kdtree.query(mirror_target, k=3)
    p2 = p1
    mirror_found = False
    for dist, cand in zip(np.atleast_1d(dists), np.atleast_1d(ids)):
        if cand in (network.sink, frame.source):
            continue
        if dist <= network.r:
            p2 = int(cand)
            mirror_found = True
        break

    chosen = p1
    if mirror_found and int(rng.integers(2)) == 1:
        chosen = p2

    # Exit anchors may fall outside the monitored area when the outer
    # radius is large; forwarding can only ever stop at the field edge,
    # so the aiming points are clamped to it.
    a_point = np.clip(
        frame.source_pos
        + params.r_max * network.r * _unit(p1_pos - frame.source_pos),
        0.0, network.field_side)
    a_mirror = np.clip(2.0 * frame.center_v - a_point, 0.0, network.field_side)

    # The two anchored angle forms are equal by the point symmetry
    # through V; each is the non-degenerate triangle for one member of
    # the pair (anchoring the chosen phantom at its own ray's vertex
    # would collapse the angle to zero).
    chosen_pos = network.positions[chosen]
    if mirror_found and chosen == p2:
        beta = _angle_deg(a_point - frame.source_pos,
                          chosen_pos - frame.source_pos)
    else:
        beta = _angle_deg(a_mirror - frame.sink_pos,
                          chosen_pos - frame.sink_pos)

    return PhantomChoice(domain_index=sector + 1, p1=p1, p2=p2, chosen=chosen,
                         beta=beta, mirror_found=mirror_found,
                         a_point=a_point, a_mirror=a_mirror)


def same_hop_count(beta: float, params: SectorParams) -> int:
    """Length of the same-hop phase: round(beta/180 * r_max), at least 0.

    Rounding is half away from zero so a uniformly distributed angle
    introduces no bias.
    """
    if not 0.0 <= beta <= 180.0:
        raise InvalidParameter(f"beta must be in [0, 180], got {beta}")
    return max(0, int(math.floor(beta / 180.0 * params.r_max + 0.5)))


def route_packet(network: Network, frame: SourceFrame, params: SectorParams,
                 rng: np.random.Generator,
                 domains: list[np.ndarray] | None = None) -> RouteTrace:
    """Route one packet source-to-sink through a freshly drawn phantom.

    Sources within one communication radius of the sink send directly.
    A phantom on the source side of V is reached by directed routing,
    which then continues away from the source to the r_max ring, hands
    over to the same-hop walk, and finishes with variable-angle routing
    to the sink. A phantom on the sink side runs the mirrored order:
    variable-angle until the packet enters the mirrored ring, the
    same-hop walk, then directed routing through the mirror anchor and
    the phantom into the sink. Failed phases leave a partial, undelivered
    trace; they never drop the packet record.
    """
    source = frame.source
    r = network.r
    if frame.source_sink_distance <= r:
        return RouteTrace(hops=[source, network.sink],
                          phases=[PHASE_DIRECT, PHASE_DIRECT], delivered=True)

    choice = select_phantom(network, frame, params, rng, domains=domains)
    h_m = same_hop_count(choice.beta, params)
    v_x = frame.frame_x(frame.center_v)
    chosen_pos = network.positions[choice.chosen]
    ring_radius = params.r_max * r
    # The r_max ring may poke out of the monitored area; the directed
    # phase can only move away from the source as far as the field holds
    # nodes.
    corners = np.array([[0.0, 0.0], [0.0, network.field_side],
                        [network.field_side, 0.0],
                        [network.field_side, network.field_side]])
    away_radius = min(ring_radius,
                      row_norms(corners - frame.source_pos).max() - r)
    annotations: list[str] = []

    legs: list[tuple[list[int], str]] = []
    delivered = False

    def finish() -> RouteTrace:
        t = stitch(legs, delivered, annotations)
        t.phantom = choice.chosen
        return t

    # Phases that fail to reach their geometric anchor hand the packet to
    # the next phase from wherever they stopped; only the final leg into
    # the sink decides delivery. Every phase from the phantom onward
    # steers around the source's visible area.
    keep_out = (frame.source_pos, network.r0)

    if frame.frame_x(chosen_pos) > v_x:
        # Phantom on the source side of V: directed first. A packet that
        # cannot reach its phantom is abandoned undelivered.
        cap = 4 * params.r_max
        nodes, reached = _directed_leg(network, source, chosen_pos, cap)
        legs.append((nodes, PHASE_DIRECTED))
        if not reached:
            return finish()
        cur, prev = nodes[-1], (nodes[-2] if len(nodes) > 1 else None)

        away_anchor = np.clip(
            frame.source_pos + away_radius * _unit(chosen_pos - frame.source_pos),
            0.0, network.field_side)
        nodes, _ = _directed_leg(
            network, cur, away_anchor, cap, prev=prev,
            min_dist_from=(frame.source_pos, away_radius), avoid_near=keep_out)
        legs.append((nodes, PHASE_DIRECTED))
        cur, prev = nodes[-1], (nodes[-2] if len(nodes) > 1 else cur)

        nodes, ann = _same_hop_leg(network, cur, h_m, frame, None, prev=prev,
                                   avoid_near=keep_out)
        legs.append((nodes, PHASE_SAME_HOP))
        annotations.extend(ann)
        cur, prev = nodes[-1], (nodes[-2] if len(nodes) > 1 else prev)

        nodes, reached = _var_angle_leg(network, cur, frame,
                                        4 * frame.h_distance, prev=prev,
                                        avoid_near=keep_out)
        legs.append((nodes, PHASE_VAR_ANGLE))
        delivered = reached and nodes[-1] == network.sink
        return finish()

    # Phantom on the sink side of V: mirrored phase order. Variable-angle
    # routing runs until the packet enters the mirrored ring, the
    # same-hop walk slides along it toward the mirror anchor, and
    # directed routing passes the anchor and the phantom into the sink.
    # These legs run before the phantom, so the visible-area keep-out
    # does not bind them; the phantom-to-sink tail near the sink cannot
    # reach the source's disc in the first place.
    def entered_ring(node: int) -> bool:
        return norm(network.positions[node] - frame.sink_pos) <= ring_radius

    nodes, reached = _var_angle_leg(network, source, frame,
                                    4 * frame.h_distance, stop_fn=entered_ring)
    legs.append((nodes, PHASE_VAR_ANGLE))
    cur, prev = nodes[-1], (nodes[-2] if len(nodes) > 1 else None)
    if not reached:
        return finish()
    if cur == network.sink:
        delivered = True
        return finish()

    nodes, ann = _same_hop_leg(network, cur, h_m, frame, choice.a_mirror,
                               prev=prev)
    legs.append((nodes, PHASE_SAME_HOP))
    annotations.extend(ann)
    cur, prev = nodes[-1], (nodes[-2] if len(nodes) > 1 else prev)

    # Visit the mirror anchor only when it physically exists in the
    # field; a mirrored ring wider than the field has no node near it.
    a_mirror_raw = (2.0 * frame.center_v - frame.source_pos
                    - ring_radius * _unit(network.positions[choice.p1]
                                          - frame.source_pos))
    targets: list[tuple[np.ndarray, int | None]] = []
    if (np.all(a_mirror_raw >= 0.0)
            and np.all(a_mirror_raw <= network.field_side)):
        targets.append((choice.a_mirror, None))
    targets.append((chosen_pos, choice.chosen))
    targets.append((frame.sink_pos, network.sink))

    cap = 4 * params.r_max
    for target, stop_node in targets:
        hop_cap = 4 * frame.h_distance if stop_node == network.sink else cap
        nodes, reached = _directed_leg(network, cur, target, hop_cap,
                                       prev=prev, stop_node=stop_node)
        legs.append((nodes, PHASE_DIRECTED))
        cur, prev = nodes[-1], (nodes[-2] if len(nodes) > 1 else prev)
        if stop_node == network.sink:
            delivered = reached and cur == network.sink
    return finish()


def _unit(v: np.ndarray) -> np.ndarray:
    n = norm(v)
    if n == 0.0:
        raise InvalidParameter("zero-length direction vector")
    return v / n


def _avoid_filter(network: Network, cands: np.ndarray,
                  avoid_near: tuple[np.ndarray, float] | None,
                  cur: int) -> np.ndarray:
    """Drop candidates inside a keep-out disc.

    The phases that carry a packet from the phantom to the sink steer
    around the source's visible area hop by hop. The filter binds only
    while the walk itself is outside the disc, so a phase that starts
    inside (the mirrored flow leaves from the source) can still get out.
    """
    if avoid_near is None or len(cands) == 0:
        return cands
    center, radius = avoid_near
    if norm(network.positions[cur] - center) <= radius:
        return cands
    return cands[row_norms(network.positions[cands] - center) > radius]


def _angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Unsigned angle between two vectors, degrees in [0, 180]."""
    na = norm(a)
    nb = norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    c = float(np.dot(a, b) / (na * nb))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def _walk(network: Network, start: int, budget: int,
          pick: Callable[[int, np.ndarray], int],
          done: Callable[[int], bool], prev: int | None = None,
          avoid_near: tuple[np.ndarray, float] | None = None
          ) -> tuple[list[int], bool]:
    """Backtracking greedy walk. Returns (nodes, reached).

    Each step hands the current node and its unvisited neighbors to
    ``pick``, which names the next relay; the walk ends once ``done``
    holds for the node it stands on or ``budget`` hops are spent.
    Remembering visited nodes lets the walk skirt routing voids instead of
    oscillating at a local minimum. A dead end physically carries the
    packet back one hop and resumes from there, which is this
    simulator's hop-level stand-in for the perimeter mode of GPSR (Karp &
    Kung, MobiCom 2000). The walk gives up, unreached, once it has
    retreated all the way to its start with nothing left to try.
    """
    nodes = [start]
    if done(start):
        return nodes, True
    cur = start
    seen = np.zeros(len(network), dtype=bool)
    seen[start] = True
    stack = [start]
    while len(nodes) - 1 < budget:
        nbrs = network.neighbors(cur)
        cands = nbrs[~seen[nbrs]]
        cands = _avoid_filter(network, cands, avoid_near, cur)
        if prev is not None and len(cands) > 1:
            # On the first step, avoid an immediate bounce back onto the
            # previous phase's relay unless it is the only way out.
            trimmed = cands[cands != prev]
            if len(trimmed):
                cands = trimmed
        prev = None
        if len(cands) == 0:
            stack.pop()
            if not stack:
                return nodes, False
            cur = stack[-1]
            nodes.append(cur)
            continue
        cur = pick(cur, cands)
        seen[cur] = True
        stack.append(cur)
        nodes.append(cur)
        if done(cur):
            return nodes, True
    return nodes, False


def _directed_leg(network: Network, start: int, target: np.ndarray,
                  max_hops: int, prev: int | None = None,
                  stop_node: int | None = None,
                  min_dist_from: tuple[np.ndarray, float] | None = None,
                  avoid_near: tuple[np.ndarray, float] | None = None
                  ) -> tuple[list[int], bool]:
    """Greedy geographic walk toward ``target``. Returns (nodes, reached).

    Each step moves to the unvisited neighbor closest to the target. The
    leg ends at ``stop_node`` when one is given; otherwise on reaching a
    node within r of the target or, with ``min_dist_from``, at least the
    given distance from its origin.
    """
    pos = network.positions
    r = network.r

    def pick(cur: int, cands: np.ndarray) -> int:
        return int(cands[row_norms(pos[cands] - target).argmin()])

    def done(node: int) -> bool:
        if stop_node is not None:
            return node == stop_node
        if min_dist_from is not None:
            origin, dist = min_dist_from
            if norm(pos[node] - origin) >= dist:
                return True
        return norm(pos[node] - target) <= r

    return _walk(network, start, max_hops, pick, done, prev=prev,
                 avoid_near=avoid_near)


def _var_angle_leg(network: Network, start: int, frame: SourceFrame,
                   budget: int, prev: int | None = None, stop_fn=None,
                   avoid_near: tuple[np.ndarray, float] | None = None
                   ) -> tuple[list[int], bool]:
    """Smallest-angle forwarding toward the sink. Returns (nodes, reached).

    Each step computes, for every candidate neighbor, the angle between
    the hop vector and the direction to the sink, and forwards along the
    smallest one. The leg ends at the sink or where ``stop_fn`` holds.
    Not revisiting relays breaks the orbit cycles a memoryless
    angle-greedy walk falls into around routing voids.
    """
    pos = network.positions
    sink = network.sink

    def pick(cur: int, cands: np.ndarray) -> int:
        if sink in cands:
            # The destination itself is in range; its angle is zero by
            # definition and no tie tolerance may displace it.
            return sink
        vecs = pos[cands] - pos[cur]
        to_sink = frame.sink_pos - pos[cur]
        to_sink /= norm(to_sink)
        phi = np.arccos(np.clip(vecs @ to_sink / row_norms(vecs), -1.0, 1.0))
        return int(cands[phi.argmin()])

    def done(node: int) -> bool:
        return node == sink or (stop_fn is not None and stop_fn(node))

    return _walk(network, start, budget, pick, done, prev=prev,
                 avoid_near=avoid_near)


def _same_hop_leg(network: Network, start: int, h_m: int, frame: SourceFrame,
                  anchor: np.ndarray | None, prev: int | None = None,
                  avoid_near: tuple[np.ndarray, float] | None = None
                  ) -> tuple[list[int], list[str]]:
    """Constant-hop-count walk. Returns (nodes, annotations)."""
    pos = network.positions
    hops = network.hops

    def score(ids: np.ndarray) -> int:
        if anchor is None:
            fy = np.abs((pos[ids] - frame.sink_pos) @ frame.y_axis)
            return int(fy.argmin())
        return int(row_norms(pos[ids] - anchor).argmin())

    nodes = [start]
    annotations: list[str] = []
    cur = start
    relaxed = False
    for _ in range(h_m):
        nbrs = network.neighbors(cur)
        ring = _avoid_filter(network, nbrs[hops[nbrs] == hops[cur]],
                             avoid_near, cur)
        # Never bounce straight back unless the ring offers nothing else.
        cands = ring[ring != prev] if prev is not None else ring
        if len(cands) == 0:
            cands = ring
        if len(cands) == 0:
            if relaxed:
                annotations.append(f"same-hop-aborted@{len(nodes) - 1}")
                break
            cands = _avoid_filter(network,
                                  nbrs[np.abs(hops[nbrs] - hops[cur]) == 1],
                                  avoid_near, cur)
            if len(cands) == 0:
                annotations.append(f"same-hop-aborted@{len(nodes) - 1}")
                break
            relaxed = True
            annotations.append(f"same-hop-relaxed@{len(nodes)}")
        prev, cur = cur, int(cands[score(cands)])
        nodes.append(cur)
    return nodes, annotations
