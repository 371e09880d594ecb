"""Spans and counters recorded around phantomnet's cross-module calls.

``installed(recorder)`` replaces, for the duration of a ``with`` block,
the public functions one phantomnet module calls in another with
wrappers that time each call.  Nothing under ``src/`` changes: the
wrappers are set on the attribute the caller looks up (``harness.deploy``
for the deploy that ``harness`` imported by name, ``psspr.select_phantom``
for a function called through its module).

Every span is kept as (start, duration) in memory.  A span's self time is
its duration minus the time of the spans nested directly inside it.
Forked pool workers inherit the wrappers; after each run a worker
attaches what it recorded to the run's result or exception, and the
parent merges it when the future completes.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

PROTOCOLS = ("psspr", "hbdrw", "pusbrf", "shortest-path")
PSSPR_PHASES = ("directed", "same-hop", "variable-angle", "direct-to-sink")
_CARRY = "_perfbench_spans"


class Recorder:
    """Spans, self times and counters of one simulate call."""

    def __init__(self):
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.spans = defaultdict(list)      # name -> [(start, duration)]
        self.self_s = defaultdict(float)    # name -> summed self time
        self.counts = Counter()
        self.failed_runs = []               # (protocol, h, H, seed, error)
        self.workers = {}                   # pid -> {"busy_s", "deploys"}
        self._stack = []                    # child time of each open span

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            covered = stack.pop()
            if stack:
                stack[-1] += dt
            self.spans[name].append((t0, dt))
            self.self_s[name] += dt - covered

    def take(self) -> dict:
        """What this process recorded since the last take, then reset."""
        delta = {"pid": os.getpid(), "spans": dict(self.spans),
                 "self_s": dict(self.self_s), "counts": dict(self.counts),
                 "failed_runs": list(self.failed_runs)}
        self.reset()
        return delta

    def merge(self, delta: dict) -> None:
        with self._lock:
            for name, spans in delta["spans"].items():
                self.spans[name].extend(spans)
            for name, s in delta["self_s"].items():
                self.self_s[name] += s
            self.counts.update(delta["counts"])
            self.failed_runs.extend(delta["failed_runs"])
            w = self.workers.setdefault(delta["pid"],
                                        {"busy_s": 0.0, "deploys": 0})
            w["busy_s"] += sum(d for _, d in delta["spans"].get(
                "harness.run_one", ()))
            w["deploys"] += len(delta["spans"].get("net.deploy", ()))

    def harvest(self, future) -> None:
        """Done-callback of a pool future: merge the worker's spans."""
        payload = future.exception() or future.result()
        delta = vars(payload).pop(_CARRY, None)
        if delta is not None:
            self.merge(delta)


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def _account_packet(counts: Counter, protocol: str, trace) -> None:
    counts[f"route.{protocol}.hops"] += trace.transmissions
    counts[f"route.{protocol}.undelivered"] += not trace.delivered
    if protocol != "psspr":
        return
    counts.update("psspr.hops." + phase for phase in trace.phases[1:])
    counts["psspr.revisit_hops"] += len(trace.hops) - len(set(trace.hops))
    for note in trace.annotations:
        if note.startswith("same-hop-relaxed"):
            counts["psspr.same_hop_relaxed"] += 1
        elif note.startswith("same-hop-aborted"):
            counts["psspr.same_hop_aborted"] += 1


@contextmanager
def installed(rec: Recorder):
    """Wrap phantomnet's cross-module calls for the block's duration."""
    from phantomnet import adversary, harness, net, psspr

    def make_router(network, protocol, source, **kwargs):
        router = rec.call("protocols.make_router", orig["make_router"],
                          (network, protocol, source), kwargs)
        name = f"route.{protocol}"

        def route(rng):
            trace = rec.call(name, router, (rng,), {})
            _account_packet(rec.counts, protocol, trace)
            return trace
        return route

    def run_one(spec):
        if os.getpid() != rec.pid:
            # First run in a forked pool worker: drop the parent's spans.
            rec.pid = os.getpid()
            rec.reset()
        in_worker = rec.pid != owner
        try:
            result = rec.call("harness.run_one", orig["run_one"], (spec,), {})
        except Exception as exc:
            rec.failed_runs.append((spec.protocol, spec.h, spec.H, spec.seed,
                                    type(exc).__name__))
            if in_worker:
                setattr(exc, _CARRY, rec.take())
            raise
        if in_worker:
            object.__setattr__(result, _CARRY, rec.take())
        return result

    def run_session_done(metrics):
        rec.counts["adversary.captured_runs"] += metrics.captured
        rec.counts["adversary.censored_runs"] += not metrics.captured

    def visible_done(entered):
        rec.counts["trace.failure_paths"] += entered

    class HarvestingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(rec.harvest)
            return future

    owner = os.getpid()
    orig = {"make_router": adversary.make_router, "run_one": harness.run_one}
    patches = [
        (harness, "run_one", functools.wraps(harness.run_one)(run_one)),
        (harness, "deploy", _timed(rec, "net.deploy", harness.deploy)),
        (harness, "run_session", _timed(rec, "adversary.run_session",
                                        harness.run_session,
                                        after=run_session_done)),
        (harness, "enters_visible_area",
         _timed(rec, "trace.enters_visible_area", harness.enters_visible_area,
                after=visible_done)),
        (harness, "ProcessPoolExecutor", HarvestingPool),
        (adversary, "make_router",
         functools.wraps(adversary.make_router)(make_router)),
        (adversary, "observe_packet",
         _timed(rec, "adversary.observe_packet", adversary.observe_packet)),
        (psspr, "select_phantom",
         _timed(rec, "psspr.select_phantom", psspr.select_phantom)),
        (net.Network, "hops_from",
         _timed(rec, "net.hops_from", net.Network.hops_from)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    for obj, attr, new in patches:
        setattr(obj, attr, new)
    try:
        yield rec
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def tail_percentile(n: int) -> float:
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it.

    Falls back to the median below a hundred samples.
    """
    best = 500
    for permille in (900, 950, 990, 999):
        if n * (1000 - permille) >= 10_000:
            best = permille
    return best / 10


def _percentile(values, pct: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(pct * 10) - 1]


def _covered(spans) -> float:
    """Length of the union of (start, duration) intervals."""
    total, end = 0.0, float("-inf")
    for start, dur in sorted(spans):
        stop = start + dur
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def layer_metrics(rec: Recorder, run_experiment_s: float) -> dict:
    """Per-layer numbers of one traced call, as name -> (value, unit)."""
    out = {}
    c = rec.counts

    def durations(name):
        return [d for _, d in rec.spans.get(name, ())]

    def busy(name):
        return sum(durations(name))

    runs = durations("harness.run_one")
    tail = tail_percentile(len(runs))
    deploys = durations("net.deploy")
    out["harness.run_one.count"] = (len(runs), "count")
    out["harness.run_one.p50_ms"] = (_percentile(runs, 50.0) * 1e3, "ms")
    out["harness.run_one.ptail_ms"] = (_percentile(runs, tail) * 1e3, "ms")
    out["harness.run_one.ptail_pct"] = (tail, "%")
    out["harness.self_s"] = (
        run_experiment_s - _covered(rec.spans.get("harness.run_one", ())), "s")
    out["harness.network_reuse_ratio"] = (
        1.0 - len(deploys) / len(runs) if runs else 0.0, "ratio")
    out["harness.failed_runs"] = (len(rec.failed_runs), "count")
    worker_busy = [w["busy_s"] for w in rec.workers.values()] or [0.0]
    out["harness.pool.deploys"] = (
        sum(w["deploys"] for w in rec.workers.values()), "count")
    out["harness.pool.worker_busy_max_s"] = (max(worker_busy), "s")
    out["harness.pool.worker_busy_min_s"] = (min(worker_busy), "s")

    out["net.deploy.count"] = (len(deploys), "count")
    out["net.deploy.busy_s"] = (sum(deploys), "s")
    out["net.deploy.p50_ms"] = (_percentile(deploys, 50.0) * 1e3, "ms")
    out["net.deploy.busy_share"] = (sum(deploys) / run_experiment_s, "ratio")
    out["net.hops_from.count"] = (len(durations("net.hops_from")), "count")
    out["net.hops_from.busy_s"] = (busy("net.hops_from"), "s")
    out["protocols.make_router.count"] = (
        len(durations("protocols.make_router")), "count")
    out["protocols.make_router.busy_s"] = (busy("protocols.make_router"), "s")

    route_busy = 0.0
    for p in PROTOCOLS:
        per_packet = durations(f"route.{p}")
        hops = c[f"route.{p}.hops"]
        p_busy = sum(per_packet)
        route_busy += p_busy
        p_tail = tail_percentile(len(per_packet))
        out[f"route.{p}.packets"] = (len(per_packet), "count")
        out[f"route.{p}.hops"] = (hops, "count")
        out[f"route.{p}.busy_s"] = (p_busy, "s")
        out[f"route.{p}.us_per_packet_p50"] = (
            _percentile(per_packet, 50.0) * 1e6, "us")
        out[f"route.{p}.us_per_packet_ptail"] = (
            _percentile(per_packet, p_tail) * 1e6, "us")
        out[f"route.{p}.ptail_pct"] = (p_tail, "%")
        out[f"route.{p}.us_per_hop"] = (p_busy / hops * 1e6 if hops else 0.0,
                                        "us")
        out[f"route.{p}.undelivered"] = (c[f"route.{p}.undelivered"], "count")
    out["route.busy_share"] = (route_busy / run_experiment_s, "ratio")

    out["psspr.select_phantom.count"] = (
        len(durations("psspr.select_phantom")), "count")
    out["psspr.select_phantom.busy_s"] = (busy("psspr.select_phantom"), "s")
    for phase in PSSPR_PHASES:
        out[f"psspr.hops.{phase}"] = (c[f"psspr.hops.{phase}"], "count")
    out["psspr.revisit_hops"] = (c["psspr.revisit_hops"], "count")
    psspr_packets = out["route.psspr.packets"][0]
    out["psspr.delivery_ratio"] = (
        1.0 - c["route.psspr.undelivered"] / psspr_packets
        if psspr_packets else 0.0, "ratio")
    out["psspr.same_hop_relaxed"] = (c["psspr.same_hop_relaxed"], "count")
    out["psspr.same_hop_aborted"] = (c["psspr.same_hop_aborted"], "count")

    observe = durations("adversary.observe_packet")
    out["adversary.observe_packet.count"] = (len(observe), "count")
    out["adversary.observe_packet.busy_s"] = (sum(observe), "s")
    out["adversary.observe_packet.us_per_call"] = (
        sum(observe) / len(observe) * 1e6 if observe else 0.0, "us")
    out["adversary.run_session.self_s"] = (
        rec.self_s.get("adversary.run_session", 0.0), "s")
    out["adversary.captured_runs"] = (c["adversary.captured_runs"], "count")
    out["adversary.censored_runs"] = (c["adversary.censored_runs"], "count")

    visible = durations("trace.enters_visible_area")
    out["trace.enters_visible_area.count"] = (len(visible), "count")
    out["trace.enters_visible_area.busy_s"] = (sum(visible), "s")
    out["trace.enters_visible_area.us_per_call"] = (
        sum(visible) / len(visible) * 1e6 if visible else 0.0, "us")
    out["trace.failure_paths"] = (c["trace.failure_paths"], "count")
    return out
