"""Closed-form security and overhead metrics, and the reference tables.

All distances are in hop units (the communication radius normalized to
1) unless a function takes an explicit ``r`` scale. The phantom-distance
integral printed for the sector-phantom scheme is dimensionally broken
in its source; the Monte-Carlo estimate over the annulus geometry is the
authoritative value and the printed form is evaluated only for
side-by-side display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameter
from .net import Draws

# Directed-routing hop counts paired with their annulus radii: the rows
# of every reference table.
RMIN_RMAX_PRESETS: dict[int, tuple[int, int]] = {
    5: (4, 6),
    10: (8, 12),
    15: (12, 18),
    20: (16, 24),
    25: (22, 28),
    30: (26, 32),
}

# Batch count of the Monte-Carlo distance's standard error, and the
# source-sink hops at which the tables evaluate the printed distance form.
MC_BATCHES = 100
H_PRINTED = 60


@dataclass(frozen=True)
class SectorParams:
    """One sweep point's phantom candidate area: h directed hops inside
    the annulus [r_min, r_max] hops around the source, split into omega
    sectors."""

    h: int          # directed hop count
    r_min: int      # inner annulus radius, hops
    r_max: int      # outer annulus radius, hops
    omega: int      # number of sectors, even

    def __post_init__(self):
        if not (1 <= self.r_min <= self.h <= self.r_max
                and self.r_min < self.r_max):
            raise InvalidParameter(
                f"need 1 <= r_min <= h <= r_max and r_min < r_max, got "
                f"r_min={self.r_min} h={self.h} r_max={self.r_max}")
        if self.omega < 2 or self.omega % 2 != 0:
            raise InvalidParameter(f"omega must be even and >= 2, got {self.omega}")

    @property
    def theta(self) -> float:
        """Angular width of one sector, radians."""
        return math.pi / self.omega


def rmin_rmax_for(h: int) -> tuple[int, int]:
    """Annulus radii for a directed hop count: table presets, else +-20%
    with r_min < h from h = 2 on, as N_PSSPR's hx = h - r_min must be >= 1."""
    if h in RMIN_RMAX_PRESETS:
        return RMIN_RMAX_PRESETS[h]
    r_min = max(1, min(h - 1, round(0.8 * h)))
    r_max = max(r_min + 1, round(1.2 * h))
    return r_min, r_max


def ratio_hbdrw_over_pusbrf(h: int) -> float:
    """Directed-path count of HBDRW as a percentage of PUSBRF's."""
    if h < 2:
        raise InvalidParameter(f"h must be >= 2, got {h}")
    return 100.0 * (2.0 / math.pi) * math.acos((h - 1) / h)


def ratio_pusbrf_over_psspr(h: int, r_min: int, r_max: int) -> float:
    """Directed-path count of PUSBRF as a percentage of the sector scheme's."""
    if not r_min <= h <= r_max:
        raise InvalidParameter(
            f"need r_min <= h <= r_max, got {r_min}, {h}, {r_max}")
    return 100.0 * h / sum(range(r_min, r_max + 1))


def failure_path_probability(r0_hops: float, H: int, h: int) -> float:
    """Probability that a phantom-to-sink path crosses the visible area."""
    if not r0_hops >= 0:    # NaN fails this test too
        raise DomainError(f"r0 must be nonnegative, got {r0_hops}")
    if r0_hops > H or r0_hops > h:
        raise DomainError(
            f"visible radius {r0_hops} exceeds a path leg (H={H}, h={h})")
    return (math.asin(r0_hops / H) + math.asin(r0_hops / h)) / math.pi


def phantom_count_hbdrw(h: int) -> float:
    """Phantom positions on the 4*gamma arc of radius h."""
    if h < 2:
        raise InvalidParameter(f"h must be >= 2, got {h}")
    return 4.0 * math.acos((h - 1) / h) * h


def phantom_count_pusbrf(h: int) -> float:
    """Phantom positions on the full circle of radius h."""
    if h < 2:
        raise InvalidParameter(f"h must be >= 2, got {h}")
    return 2.0 * math.pi * h


def phantom_count_psspr(r_min: int, r_max: int, hx: int) -> float:
    """Phantom positions across the whole annulus, h = r_min + hx."""
    if hx < 1:
        raise InvalidParameter(f"hx must be >= 1, got {hx}")
    h = r_min + hx
    return 2.0 * math.pi * h * sum(range(hx, r_max - r_min + 1)) / hx


def psspr_distance_mc(r_min: float, r_max: float, rng: Draws,
                      n_samples: int = 200_000) -> tuple[float, float]:
    """Monte-Carlo mean source-to-phantom distance over the annulus.

    Samples points area-uniformly between the two radii and returns
    (mean, standard error over MC_BATCHES batch means) in hop units.
    ``rng`` is anything with ``uniform(low, high, size)``, such as Draws.
    """
    radii = np.sqrt(rng.uniform(r_min ** 2, r_max ** 2, size=n_samples))
    mean = float(radii.mean())
    usable = (n_samples // MC_BATCHES) * MC_BATCHES
    batch_means = radii[:usable].reshape(MC_BATCHES, -1).mean(axis=1)
    se = float(batch_means.std(ddof=1) / math.sqrt(MC_BATCHES))
    return mean, se


def psspr_distance_printed(r_min: int, r_max: int, H: int) -> float:
    """The phantom-distance integral exactly as printed, for display only.

    Reads the missing differential as d(alpha) and the pi/4 factor as a
    divisor of the integral; no reading of this form reproduces the
    published distance column, hence the Monte-Carlo estimate is the
    value to trust.
    """
    c = r_min + r_max

    def integrand(alpha: float) -> float:
        return math.sqrt(H * H + c * c - 2.0 * c * H * math.cos(alpha)) / (math.pi / 4.0)

    return c / 4.0 + _quad(integrand, 0.0, math.pi / 2.0)


def comm_overhead(protocol: str, params: SectorParams, H: int) -> float:
    """Average hops to move one packet source-to-sink, per protocol.

    The two baselines integrate the law-of-cosines distance from the
    phantom ring to the sink over their respective angular supports; the
    sector scheme's cost is r_max directed hops, an expected same-hop
    walk of r_max/2, and the sector-boundary average of the straight
    exit-to-sink chords. ``H`` is the source-sink distance, hops.
    """
    R = params.h

    def chord(alpha: float) -> float:
        return math.sqrt(H * H + R * R - 2.0 * R * H * math.cos(alpha))

    if protocol == "pusbrf":
        return R + _quad(chord, 0.0, math.pi) / math.pi

    if protocol == "hbdrw":
        gamma = math.acos((R - 1) / R)
        v1 = _quad(chord, 0.0, gamma)
        v2 = _quad(chord, math.pi, math.pi + gamma)
        return R + (v1 + v2) / (2.0 * gamma)

    if protocol == "psspr":
        mu, theta = params.omega, params.theta
        r_max = params.r_max
        if H < r_max:
            raise DomainError(f"H={H} < r_max={r_max}: the annulus reaches "
                              f"past the sink")
        tail = H - r_max
        for i in range(1, mu // 2):
            tail += math.sqrt(H * H + r_max * r_max
                              - 2.0 * r_max * H * math.cos(i * theta))
        mean_same_hop = r_max / 2.0  # E[beta]/180 * r_max over uniform beta
        return r_max + mean_same_hop + 2.0 * tail / mu

    raise InvalidParameter(f"unknown protocol {protocol!r}")


def _quad(f, a: float, b: float) -> float:
    """The integral of the smooth ``f`` over [a, b] by the 64-node
    Gauss-Legendre rule (relative error below 1e-11 on every chord
    integral here). The nodes are built per call, not at import: the
    simulator never integrates."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * float(weights @ [f(mid + half * t) for t in nodes])


def closed_form(h: int, r_min: int, r_max: int, H: int) -> dict:
    """One reference-table row, the printed distance form taken at ``H``.
    It runs in ``analyze``'s print order: the first formula to reject raises."""
    row = {"h": h, "r_min": r_min, "r_max": r_max,
           "hbdrw_over_pusbrf": ratio_hbdrw_over_pusbrf(h),
           "pusbrf_over_psspr": ratio_pusbrf_over_psspr(h, r_min, r_max),
           "n_hbdrw": phantom_count_hbdrw(h),
           "n_pusbrf": phantom_count_pusbrf(h),
           "n_psspr": phantom_count_psspr(r_min, r_max, h - r_min)}
    # The authoritative annulus mean in hop units, seeded with h so that
    # every caller prints one draw per h.
    row["distance_mc"], row["distance_se"] = psspr_distance_mc(
        r_min, r_max, Draws(h))
    # the broken printed integral, shown for contrast
    row["distance_printed"] = psspr_distance_printed(r_min, r_max, H)
    return row


def make_tables() -> list[dict]:
    """Regenerate the reference tables over h in {5,...,30}: one
    ``closed_form`` row per preset (h, r_min, r_max), at ``H_PRINTED``."""
    return [closed_form(h, r_min, r_max, H_PRINTED)
            for h, (r_min, r_max) in RMIN_RMAX_PRESETS.items()]
