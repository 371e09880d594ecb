"""Experiment configuration: flat key = value files with # comments.

An empty file yields the desk-scale defaults: the published field is
10000 nodes on 6000m x 6000m with r = 100m, and the defaults keep that
node density on a 2700m x 2700m field so full sweeps finish on a desk.
Arrays are comma-separated; exactly one of ``h`` and ``H`` may be a list
and becomes the sweep axis.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .analysis import SectorParams, rmin_rmax_for
from .errors import InvalidParameter, ParseError
from .net import check_field
from .protocols import PROTOCOLS


@dataclass
class ExperimentConfig:
    n_nodes: int = 2000
    field_side: float = 2700.0
    r: float = 100.0
    r0: float = 300.0
    omega: int = 6
    protocols: list[str] = field(default_factory=lambda: list(PROTOCOLS))
    h: list[int] = field(default_factory=lambda: [5, 10, 15, 20])
    H: list[int] = field(default_factory=lambda: [20])
    packets_per_run: int = 400
    seeds: list[int] = field(default_factory=lambda: list(range(1, 31)))
    output_path: str = "results.csv"

    def validate(self) -> "ExperimentConfig":
        if not self.seeds:
            raise InvalidParameter("seeds must be non-empty")
        check_field(self.n_nodes, self.field_side, self.r, self.r0,
                    min(self.seeds))
        if self.packets_per_run < 1:
            raise InvalidParameter("packets_per_run must be >= 1")
        if not self.protocols:
            raise InvalidParameter("protocols must be non-empty")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise InvalidParameter(
                    f"unknown protocol {p!r}; expected one of {PROTOCOLS}")
        if not self.h or not self.H:
            raise InvalidParameter("h and H must be non-empty")
        if len(self.h) > 1 and len(self.H) > 1:
            raise InvalidParameter(
                "exactly one of h and H may be a sweep list; fix the other")
        if any(v < 1 for v in self.h) or any(v < 1 for v in self.H):
            raise InvalidParameter("h and H values must be >= 1")
        for h in self.h:
            SectorParams(h, *rmin_rmax_for(h), self.omega)
        for key in ("seeds", "protocols", "h", "H"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise InvalidParameter(f"{key} values must be distinct, "
                                       f"got {values}")
        return self

    @property
    def sweep_points(self) -> list[tuple[int, int]]:
        """(h, H) pairs in sweep order."""
        if len(self.H) > 1:
            return [(self.h[0], H) for H in self.H]
        return [(h, self.H[0]) for h in self.h]


# Each key's default, whose type parses that key's values.
DEFAULTS = asdict(ExperimentConfig())


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; missing keys take the defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = parse_config(text, origin=str(path))
    return cfg.validate()


def parse_config(text: str, origin: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ParseError(f"{origin}:{lineno}: unknown key {key!r}")
        if not value:
            raise ParseError(f"{origin}:{lineno}: empty value for {key!r}")
        try:
            setattr(cfg, key, _convert(key, value))
        except ValueError as exc:
            raise ParseError(f"{origin}:{lineno}: bad value for {key!r}: {exc}") from None
    return cfg


def _convert(key: str, value: str):
    """``value`` as the type of the key's default, or for a list default
    as a comma-separated list of its element type."""
    default = DEFAULTS[key]
    if isinstance(default, list):
        kind = type(default[0])
        return [kind(v.strip()) for v in value.split(",") if v.strip()]
    return type(default)(value)
