"""Experiment orchestration: seed sweeps, aggregation, and the CSV writer.

Runs are independent (protocol x sweep point x seed) and may execute in
parallel, each worker process taking every run of the seeds dealt to
it; aggregation is a deterministic fold in config order, so the output
bytes never depend on scheduling. Set PHANTOMNET_THREADS to cap the
worker count (1 disables the process pool).
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .adversary import RunRecord, run_session
from .config import ExperimentConfig
from .errors import HarnessError, InvalidParameter
from .net import Draws, deploy
from .protocols import PROTOCOLS
from .trace import enters_visible_area


@dataclass(frozen=True)
class AggregateRow:
    """One CSV row; the fields are its columns, in order."""

    protocol: str
    h: int
    H: int
    mean_safety_time: float
    mean_comm_overhead_hops: float
    capture_rate: float
    failure_path_rate: float
    n_runs: int


@dataclass(frozen=True)
class RunSpec:
    """One run: a protocol at a sweep point on one seed's field."""

    protocol: str
    h: int
    H: int
    seed: int
    config: ExperimentConfig


# Runs execute seed-major (per process), so one field at a time is in use:
# the last one deployed (or the error its deploy raised), with the sources
# drawn on it by H; they go with it, and a failed draw is not kept.
_FIELD: dict = {}


def _field(*key):
    if key not in _FIELD:
        _FIELD.clear()  # the previous field goes before the next is built
        _FIELD[key] = _attempt(deploy, *key), {}
    network, sources = _FIELD[key]
    if isinstance(network, Exception):
        raise network.with_traceback(None)
    return network, sources


def __getattr__(name: str):
    """The process pool, imported on first use and then kept as a global."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor as pool
    globals()[name] = pool
    return pool


def pick_source(network, H: int, seed: int) -> int:
    """Uniform choice among reachable nodes with hop count within H +- 1.

    Seeded by (deployment seed, H) only, so every protocol at a sweep
    point sees the same source on the same field; ``start_run`` draws it
    once per field and H.
    """
    hops = network.hops
    ids = network.reachable_sensor_ids()
    cands = ids[np.abs(hops[ids] - H) <= 1]
    if len(cands) == 0:
        raise InvalidParameter(
            f"no node within one hop of target distance H={H}")
    return int(cands[Draws([seed, H, 101]).integers(len(cands))])


def start_run(spec: RunSpec):
    """A run's (network, source, rng); ``trace`` sets its run up here too."""
    cfg = spec.config
    network, sources = _field(cfg.n_nodes, cfg.field_side, cfg.r, cfg.r0,
                              spec.seed)
    if spec.H not in sources:
        sources[spec.H] = pick_source(network, spec.H, spec.seed)
    return network, sources[spec.H], Draws(
        [spec.seed, spec.H, spec.h, PROTOCOLS.index(spec.protocol)])


def run_one(spec: RunSpec) -> RunRecord:
    network, source, rng = start_run(spec)
    # Called by this module's names, so perfbench's wrappers see each call.
    return run_session(network, spec.protocol, source,
                       spec.config.packets_per_run, rng, h=spec.h,
                       omega=spec.config.omega, failure_path=enters_visible_area)


def run_experiment(config: ExperimentConfig,
                   max_workers: int | None = None) -> list[AggregateRow]:
    """Execute the full sweep and aggregate per (protocol, sweep point).

    Individual run failures are tolerated up to 10% of the grid; beyond
    that the experiment aborts with HarnessError. Every failed run is
    reported on stderr as (protocol, h, H, seed, exception type) and
    leaves its cell's n_runs one short.
    """
    config.validate()
    # Seeds outermost, so each field is deployed once and stays in the
    # network cache while every run on it executes.
    specs = [RunSpec(p, h, H, seed, config)
             for seed in config.seeds
             for p in config.protocols
             for (h, H) in config.sweep_points]

    if max_workers is None:
        max_workers = _env_workers()
    if max_workers > 1:
        # Whole seeds are dealt in turn to single-process pools (lanes),
        # so each field is deployed and cached in one process only.
        pool = getattr(sys.modules[__name__], "ProcessPoolExecutor")
        with ExitStack() as stack:
            lanes = [stack.enter_context(pool(max_workers=1))
                     for _ in range(min(max_workers, len(config.seeds)))]
            futures = [lanes[config.seeds.index(s.seed) % len(lanes)]
                       .submit(run_one, s) for s in specs]
            results = [_attempt(fut.result) for fut in futures]
    else:
        results = [_attempt(run_one, s) for s in specs]

    # The first seed meets every cell in config order; each cell then
    # holds its runs in seed order.
    cells: dict[tuple, list] = {}
    for s, res in zip(specs, results):
        cells.setdefault((s.protocol, s.h, s.H), []).append((s.seed, res))
    failed = [(key, seed, res) for key, runs in cells.items()
              for seed, res in runs if isinstance(res, Exception)]
    if failed:
        print(f"{len(failed)}/{len(specs)} runs failed: " + ", ".join(
            f"({p}, {h}, {H}, {seed}, {type(exc).__name__})"
            for (p, h, H), seed, exc in failed), file=sys.stderr)
    if len(failed) > 0.10 * len(specs):
        raise HarnessError(f"{len(failed)}/{len(specs)} runs failed; "
                           f"first error: {failed[0][2]}")

    rows: list[AggregateRow] = []
    for (p, h, H), runs in cells.items():
        ok = [r for _, r in runs if isinstance(r, RunRecord)]
        if not ok:
            raise HarnessError(f"every run failed for {p} at h={h} H={H}")
        rows.append(AggregateRow(
            protocol=p, h=h, H=H,
            mean_safety_time=float(np.mean([r.safety_time for r in ok])),
            mean_comm_overhead_hops=float(np.mean(
                [r.total_hops / r.safety_time for r in ok])),
            capture_rate=float(np.mean([r.captured for r in ok])),
            failure_path_rate=float(np.mean(
                [r.failure_paths / r.safety_time for r in ok])),
            n_runs=len(ok),
        ))
    return rows


def _env_workers() -> int:
    """The worker count PHANTOMNET_THREADS asks for, 1 when it is unset."""
    raw = os.environ.get("PHANTOMNET_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidParameter(
            f"PHANTOMNET_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _attempt(fn, *args):
    """``fn(*args)``, or its exception without the frames holding a field."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - recorded per run
        return exc.with_traceback(None)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Write a CSV file: the header line, then one line per row, each
    cell already formatted as text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def emit_csv(rows: list[AggregateRow], path: str) -> None:
    """Write aggregate rows under a header of their field names, floats
    with 6 decimals."""
    if not rows:
        raise InvalidParameter("refusing to write an empty results file")
    write_csv(path, [f.name for f in fields(AggregateRow)],
              ([f"{v:.6f}" if isinstance(v, float) else str(v)
                for v in astuple(row)] for row in rows))
