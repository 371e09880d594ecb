"""One `simulate` call in a fresh interpreter.

Reads a JSON request on stdin::

    {"src": ".../src", "config": "<config text>", "out": "<csv path>",
     "trace": false, "max_workers": 1}

imports phantomnet from ``src``, then runs the path `phantomnet simulate`
takes: ``config.parse_config`` -> ``harness.run_experiment`` ->
``harness.emit_csv``.  Prints one JSON object on stdout: the
perf_counter reading when set-up ended (import, parse and validate),
the simulate call's wall and CPU time, the peak RSS of this process and
its pool workers, the time of a fixed reference loop run next to the
call, and with ``trace`` the per-layer numbers.

Run as ``python3 perfbench/workload.py < request.json``.
"""

import contextlib
import json
import os
import resource
import sys
import time

LOOP_SLICES = 10
LOOP_ITERATIONS = 200_000


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def loop_s() -> float:
    """Time of a fixed pure-Python loop: how fast this CPU runs right now.

    The calls are timed on shared hosts whose speed drifts by 20% and
    more over minutes; run.py scales every time by this loop, measured
    just before and just after the call.
    """
    t0 = time.perf_counter()
    for _ in range(LOOP_SLICES):
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i
    return time.perf_counter() - t0


def simulate(config_text: str, out_path: str, trace: bool = False,
             max_workers: int = 1) -> dict:
    """Run one simulate call in this process and measure it.

    The caller has put phantomnet on ``sys.path``.  With ``trace`` the
    cross-module calls are wrapped for this call only.
    """
    from phantomnet import config, harness

    recorder = None
    wrapping = contextlib.nullcontext()
    if trace:
        import spans
        recorder = spans.Recorder()
        wrapping = spans.installed(recorder)
    with wrapping:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        cfg = config.parse_config(config_text).validate()
        t1 = time.perf_counter()
        rows = harness.run_experiment(cfg, max_workers=max_workers)
        t2 = time.perf_counter()
        harness.emit_csv(rows, out_path)
        t3 = time.perf_counter()
        cpu = _cpu_s() - cpu0

    result = {"wall_s": t3 - t0, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
              "runs": len(cfg.protocols) * len(cfg.sweep_points)
              * len(cfg.seeds)}
    if recorder is not None:
        result["layers"] = {name: list(v) for name, v in
                            spans.layer_metrics(recorder, t2 - t1).items()}
        result["failed_runs"] = [list(f) for f in recorder.failed_runs]
    return result


def main() -> int:
    request = json.load(sys.stdin)
    src = request["src"]
    sys.path.insert(0, src)
    import phantomnet
    from phantomnet import config
    if not os.path.abspath(phantomnet.__file__).startswith(src + os.sep):
        print(f"phantomnet imported from {phantomnet.__file__}, not {src}",
              file=sys.stderr)
        return 2
    config.parse_config(request["config"]).validate()
    setup_end = time.perf_counter()

    before = loop_s()
    result = simulate(request["config"], request["out"],
                      trace=request["trace"],
                      max_workers=request["max_workers"])
    result["loop_s"] = (before + loop_s()) / 2.0
    result["setup_end"] = setup_end
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
