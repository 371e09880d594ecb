"""Benchmark of `phantomnet simulate`, the sweep users wait for.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; phantomnet is imported from its
``src/``.  Each workload is a closed loop of simulate calls, each in a
fresh interpreter (``workload.py``), for ``--seconds`` seconds and at
least a few calls.  ``--seed`` picks the deployment seeds of the
workload's config.  Every call's CSV is hashed: all calls of a run must
agree, and at the default seed the hash must equal the one recorded in
``REFERENCE_SHA256``.  The last line of stdout is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics of
traced calls (``--trace 1``).  The exit code is 0 only when every call
completed and every check held.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
CALL_TIMEOUT_S = 150
DEFAULT_SEED = 0

# Desk-scale field, 20% denser than the simulator's default of 2,000
# nodes.  At the default density 11 of 300 fields failed the
# connectivity check, and two failed fields among twelve abort a whole
# sweep; at 2,400 nodes none of 1,500 fields failed.
DESK = "n_nodes = 2400\nfield_side = 2700\n"
SWEEP = DESK + """\
protocols = psspr, hbdrw, pusbrf, shortest-path
h = 20
H = 20
packets_per_run = 30
"""


@dataclass(frozen=True)
class Workload:
    why: str
    body: str           # config lines other than the seeds
    fields: int         # deployment seeds per simulate call
    max_workers: int = 1

    def config(self, seed: int) -> str:
        seeds = ", ".join(str(1000 * seed + i)
                          for i in range(1, self.fields + 1))
        return f"{self.body}seeds = {seeds}\n"


# Sessions are capped a little above the fewest packets the adversary
# needs to walk from the sink to a source that far away, so a run's work
# hardly depends on when (or whether) its source is captured, and the
# workloads cost the same whatever fields the seed draws.
WORKLOADS = {
    "sweep": Workload(
        why="default sweep shape in one process: twelve fields thrash the "
            "harness network cache, so every run redeploys before it routes",
        body=SWEEP, fields=12),
    "sweep-pool2": Workload(
        why="same inputs on the harness process pool with two workers, "
            "each still seeing more fields than its cache holds",
        body=SWEEP, fields=12, max_workers=2),
    "route-hot": Workload(
        why="three cached fields and many sources: routing and adversary "
            "replay dominate, deploy is near zero",
        body=DESK + """\
protocols = psspr, hbdrw, pusbrf, shortest-path
h = 15
H = 16, 17, 18, 19, 20, 21, 22, 23, 24
packets_per_run = 30
""", fields=3),
    "fields-paper-scale": Workload(
        why="the paper's 10,000-node field on 6000 m: deploy (adjacency, "
            "flood, k-d tree) dominates, routing is near zero",
        body="""\
n_nodes = 10000
field_side = 6000
protocols = psspr, pusbrf
h = 20
H = 40
packets_per_run = 10
""", fields=6),
}

# CSV SHA-256 of each workload at DEFAULT_SEED, recorded from the
# simulator before any optimisation.  sweep-pool2 must match sweep.
SWEEP_SHA256 = "93eeb90a6a1cda863eaf1d853bd91a75e6be733bc8449a8d6451b8ce72732ac6"
REFERENCE_SHA256 = {
    "sweep": SWEEP_SHA256,
    "sweep-pool2": SWEEP_SHA256,
    "route-hot":
        "9f657b130cf83930730ed0968f83728ff1bdf7a33d04cdb5bbe08d214d559747",
    "fields-paper-scale":
        "40844d865831d93a2e8f0b100ba0dd6b5933eaab36f453c147092bde052ebb71",
}


# Every reported time t but setup_s is scaled to t * REF_LOOP_S / loop_s,
# where loop_s is workload.loop_s() timed next to the call: the host's
# speed drift cancels, a change in phantomnet's own cost does not.  The
# fixed constant is near the loop's time (0.13-0.18 s) on the 2-vCPU
# Intel Xeon VM the reference numbers were taken on.
REF_LOOP_S = 0.2

# Set-up time is mostly importing numpy and scipy, which slows down with
# the host differently from the loop.  So setup_s is scaled instead by a
# fresh interpreter that imports the third-party modules phantomnet
# imports today, timed just before each call: setup * REF_IMPORT_S /
# import_s.  A change in phantomnet's own import or parse cost shows in
# full.
IMPORT_PROBE = "import numpy, scipy.integrate, scipy.spatial"
REF_IMPORT_S = 0.6

END_TO_END_UNITS = {
    "wall_s": "s",
    "packets_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "completed_run_ratio": "ratio",
}


def csv_summary(data: bytes) -> dict:
    """Packets and completed runs counted from a simulate CSV.

    A run sends exactly its safety time in packets, so a row stands for
    mean_safety_time x n_runs packets.
    """
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    st, n = header.index("mean_safety_time"), header.index("n_runs")
    packets = runs_ok = 0
    for line in lines[1:]:
        cells = line.split(",")
        packets += round(float(cells[st]) * int(cells[n]))
        runs_ok += int(cells[n])
    return {"sha256": hashlib.sha256(data).hexdigest(), "packets": packets,
            "runs_ok": runs_ok}


def import_probe_s() -> float:
    """Wall time of a fresh interpreter running IMPORT_PROBE."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   cwd=ROOT, timeout=CALL_TIMEOUT_S)
    return perf_counter() - t0


def run_call(workload: Workload, seed: int, index: int, trace: bool,
             max_workers: int) -> dict:
    """One simulate call in a fresh interpreter, with its CSV checked."""
    out = os.path.join(OUT_DIR, f"{os.getpid()}-{index}.csv")
    request = json.dumps({"src": SRC, "config": workload.config(seed),
                          "out": out, "trace": trace,
                          "max_workers": max_workers})
    import_s = import_probe_s()
    t_spawn = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(request, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {CALL_TIMEOUT_S} s"
    finally:
        if proc.poll() is None or proc.returncode != 0:
            # The call's session also holds any pool workers it started.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    elapsed = perf_counter() - t_spawn
    if proc.returncode != 0:
        if os.path.exists(out):
            os.remove(out)
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": tail[0], "elapsed": elapsed}
    result = json.loads(stdout.strip().splitlines()[-1])
    with open(out, "rb") as fh:
        data = fh.read()
    os.remove(out)
    result.update(csv_summary(data))
    result.update(ok=True, traced=trace, max_workers=max_workers,
                  elapsed=elapsed, import_s=import_s,
                  setup_s=result.pop("setup_end") - t_spawn)
    return result


def scaled(call: dict, seconds: float) -> float:
    """A time of this call at the reference host speed."""
    return seconds * REF_LOOP_S / call["loop_s"]


def end_to_end(calls: list[dict]) -> dict:
    """Median over untraced calls of each end-to-end metric."""
    values = {
        "wall_s": [scaled(c, c["wall_s"]) for c in calls],
        "packets_per_s": [c["packets"] / scaled(c, c["wall_s"])
                          for c in calls],
        "cpu_s": [scaled(c, c["cpu_s"]) for c in calls],
        "peak_rss_mb": [c["peak_rss_mb"] for c in calls],
        "setup_s": [c["setup_s"] * REF_IMPORT_S / c["import_s"]
                    for c in calls],
        "completed_run_ratio": [c["runs_ok"] / c["runs"] for c in calls],
    }
    return {name: {"value": statistics.median(v),
                   "unit": END_TO_END_UNITS[name]}
            for name, v in values.items()}


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Median over traced calls of each layer metric, plus tracing cost."""
    out = {}
    for name in traced[0]["layers"]:
        unit = traced[0]["layers"][name][1]
        out[name] = {"value": statistics.median(
            c["layers"][name][0] for c in traced), "unit": unit}
    traced_wall = statistics.median(scaled(c, c["wall_s"]) for c in traced)
    plain_wall = statistics.median(scaled(c, c["wall_s"]) for c in plain)
    out["host_speed_ratio"] = {"value": statistics.median(
        REF_LOOP_S / c["loop_s"] for c in traced), "unit": "ratio"}
    out["traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace_overhead_ratio"] = {"value": traced_wall / plain_wall - 1.0,
                                   "unit": "ratio"}
    return out


def call_plan(workload: Workload, trace: bool):
    """Kinds of call in run order: (traced, max_workers), first ones required.

    A traced run alternates plain and traced calls; on the pool workload
    it also runs one single-process call, whose bytes must match.
    """
    plain = (False, workload.max_workers)
    if not trace:
        return [plain, plain], [plain]
    first = [plain, (True, workload.max_workers)]
    if workload.max_workers > 1:
        first.append((False, 1))
    return first, first[:2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "phantomnet", "__init__.py")):
        print(f"no phantomnet sources under {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into an exit, so run_call stops the call in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    first, repeat = call_plan(workload, trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = perf_counter() + args.seconds
    calls = []
    while True:
        k = len(calls)
        traced, workers = (first[k] if k < len(first)
                           else repeat[(k - len(first)) % len(repeat)])
        call = run_call(workload, args.seed, k, traced, workers)
        calls.append(call)
        kind = "traced" if traced else f"plain x{workers}"
        print(f"call {k} ({kind}): " + (
            f"wall {call['wall_s']:.3f} s, loop {call['loop_s']:.3f} s, "
            f"sha256 {call['sha256']}"
            if call["ok"] else f"FAILED: {call['error']}"), file=sys.stderr)
        per_call = statistics.median(c["elapsed"] for c in calls)
        if len(calls) >= len(first) and perf_counter() + per_call > deadline:
            break
    try:
        os.rmdir(OUT_DIR)
    except OSError:
        pass

    done = [c for c in calls if c["ok"]]
    if not done:
        print("every simulate call failed", file=sys.stderr)
        return 1
    hashes = {c["sha256"] for c in done}
    correct = len(hashes) == 1
    if not correct:
        print(f"calls disagree on the CSV: {sorted(hashes)}", file=sys.stderr)
    sha = done[0]["sha256"]
    print(f"{args.workload} seed {args.seed}: csv sha256 {sha}")
    if args.seed == DEFAULT_SEED and sha != REFERENCE_SHA256[args.workload]:
        correct = False
        print(f"sha256 differs from the reference "
              f"{REFERENCE_SHA256[args.workload]}", file=sys.stderr)

    plain = [c for c in done
             if not c["traced"] and c["max_workers"] == workload.max_workers]
    if trace:
        traced = [c for c in done if c["traced"]]
        if not traced or not plain:
            print("no traced or no plain call completed", file=sys.stderr)
            return 1
        for f in traced[0]["failed_runs"]:
            print("failed run: protocol={} h={} H={} seed={} error={}"
                  .format(*f))
        metrics = per_layer(traced, plain)
    else:
        metrics = end_to_end(plain)
    failed = len(calls) - len(done)
    print(json.dumps({"correct": correct, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
