"""Hop-level WSN simulator for sector-phantom source-location-privacy
routing, with baseline protocols, a backtracking adversary, and the
closed-form analysis metrics. Per-packet routers, source frames and
the adversary's steps stay in their modules.
"""

from .adversary import run_session
from .analysis import (SectorParams, comm_overhead, failure_path_probability,
                       make_tables, phantom_count_hbdrw, phantom_count_psspr,
                       phantom_count_pusbrf, ratio_hbdrw_over_pusbrf,
                       ratio_pusbrf_over_psspr, rmin_rmax_for)
from .config import ExperimentConfig, load_config, parse_config
from .harness import AggregateRow, emit_csv, pick_source, run_experiment
from .net import SINK, UNREACHABLE, Network, deploy
from .protocols import PROTOCOLS, make_router
from .trace import RouteTrace

__version__ = "0.1.0"
