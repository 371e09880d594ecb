"""Command line entry points.

Subcommands:
  simulate  run a configured experiment sweep and write the results CSV
  tables    print the three reference tables (optionally as CSV files)
  analyze   evaluate the closed-form security/overhead metrics
  trace     route one packet and dump the annotated trace as CSV rows

Exit codes: 0 success, 1 usage/validation errors, 2 runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis
from .config import DEFAULTS, load_config
from .errors import InvalidParameter, ParseError, PhantomNetError
from .harness import emit_csv, pick_source, run_experiment
from .net import deploy
from .protocols import PROTOCOLS, make_router


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phantomnet",
                     description="Sensor-network source-location-privacy "
                                 "routing simulator and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run an experiment sweep")
    p_sim.add_argument("--config", required=True, help="key = value config file")
    p_sim.add_argument("--out", help="override the config output_path")

    p_tab = sub.add_parser("tables", help="print the reference tables")
    p_tab.add_argument("--csv-dir", help="also write table2/3/4.csv here")

    p_ana = sub.add_parser("analyze", help="evaluate the closed-form metrics")
    p_ana.add_argument("--h", type=int, required=True, help="directed hop count")
    p_ana.add_argument("--H", type=int, default=60, help="source-sink hops")
    p_ana.add_argument("--rmin", type=int, help="annulus inner radius, hops")
    p_ana.add_argument("--rmax", type=int, help="annulus outer radius, hops")
    p_ana.add_argument("--r0", type=float, default=3.0,
                       help="visible-area radius, hops")
    p_ana.add_argument("--omega", type=int, default=6, help="sector count")

    p_tr = sub.add_parser("trace", help="dump one annotated packet trace")
    p_tr.add_argument("--protocol", required=True, choices=PROTOCOLS)
    p_tr.add_argument("--seed", type=int, default=1)
    p_tr.add_argument("--h", type=int, default=10)
    p_tr.add_argument("--H", type=int, default=15)
    p_tr.add_argument("--omega", type=int, default=DEFAULTS["omega"])
    p_tr.add_argument("--n-nodes", type=int, default=DEFAULTS["n_nodes"])
    p_tr.add_argument("--field-side", type=float, default=DEFAULTS["field_side"])
    p_tr.add_argument("--r", type=float, default=DEFAULTS["r"])
    p_tr.add_argument("--r0", type=float, default=DEFAULTS["r0"])
    p_tr.add_argument("--network-out", help="dump the deployed field as CSV")
    return parser


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.out:
        config.output_path = args.out
    out_dir = os.path.dirname(config.output_path)
    if out_dir and not os.path.isdir(out_dir):
        raise InvalidParameter(f"output directory {out_dir!r} does not exist")
    if os.path.isdir(config.output_path):
        raise InvalidParameter(f"output path {config.output_path!r} is a directory")
    rows = run_experiment(config)
    emit_csv(rows, config.output_path)
    print(f"wrote {len(rows)} aggregate rows to {config.output_path}")
    return 0


# Each reference table as (name, title, columns); a column is (field,
# printed label, printed width, value format). The field names double as
# the CSV header.
_TABLE_KEYS = (("h", "h", 3, ""), ("r_min", "Rmin", 5, ""),
               ("r_max", "Rmax", 5, ""))
_TABLES = (
    ("table2", "Random directed path ratios (%)", _TABLE_KEYS + (
        ("hbdrw_over_pusbrf", "HBDRW/PUSBRF", 13, ".2f"),
        ("pusbrf_over_psspr", "PUSBRF/PSSPR", 13, ".2f"))),
    ("table3", "Phantom-to-source distance "
               "(hops; annulus Monte-Carlo vs printed form)", _TABLE_KEYS + (
        ("distance_mc", "D_mc", 8, ".2f"),
        ("distance_printed", "D_printed", 10, ".2f"))),
    ("table4", "Phantom node counts", _TABLE_KEYS + (
        ("n_hbdrw", "N_HBDRW", 9, ".2f"),
        ("n_pusbrf", "N_PUSBRF", 9, ".2f"),
        ("n_psspr", "N_PSSPR", 9, ".2f"))),
)


def cmd_tables(args) -> int:
    tables = analysis.make_tables()
    for k, (name, title, cols) in enumerate(_TABLES):
        if k:
            print()
        print(title)
        print(" ".join(f"{label:>{width}}" for _, label, width, _ in cols))
        for row in tables[name]:
            print(" ".join(f"{row[field]:>{width}{fmt}}"
                           for field, _, width, fmt in cols))

    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for name, _, cols in _TABLES:
            with open(os.path.join(args.csv_dir, f"{name}.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write(",".join(field for field, *_ in cols) + "\n")
                for row in tables[name]:
                    fh.write(",".join(f"{row[field]:{fmt}}"
                                      for field, _, _, fmt in cols) + "\n")
    return 0


def cmd_analyze(args) -> int:
    r_min, r_max = (args.rmin, args.rmax)
    if (r_min is None) != (r_max is None):
        raise InvalidParameter("--rmin and --rmax must be given together")
    if r_min is None:
        r_min, r_max = analysis.rmin_rmax_for(args.h)
    params = analysis.SectorParams(args.h, r_min, r_max, args.omega)
    if args.H < 1:
        raise InvalidParameter(f"H must be >= 1, got {args.H}")
    print(f"parameters: h={args.h} H={args.H} r_min={r_min} r_max={r_max} "
          f"r0={args.r0} omega={args.omega}")
    p_fail = analysis.failure_path_probability(args.r0, args.H, args.h)
    print(f"failure_path_probability = {p_fail:.4f}")
    print(f"ratio_hbdrw_over_pusbrf = {analysis.ratio_hbdrw_over_pusbrf(args.h):.2f} %")
    print(f"ratio_pusbrf_over_psspr = "
          f"{analysis.ratio_pusbrf_over_psspr(args.h, r_min, r_max):.2f} %")
    print(f"phantom_count_hbdrw  = {analysis.phantom_count_hbdrw(args.h):.2f}")
    print(f"phantom_count_pusbrf = {analysis.phantom_count_pusbrf(args.h):.2f}")
    print(f"phantom_count_psspr  = "
          f"{analysis.phantom_count_psspr(r_min, r_max, args.h - r_min):.2f}")
    mc, se = analysis.psspr_distance_mc(r_min, r_max)
    print(f"avg_phantom_distance hbdrw/pusbrf = {args.h:.2f} hops")
    print(f"avg_phantom_distance psspr = {mc:.2f} hops "
          f"(mc, se={se:.4f}; printed form gives "
          f"{analysis.psspr_distance_printed(r_min, r_max, args.H):.2f})")
    for proto in ("pusbrf", "hbdrw", "psspr"):
        print(f"comm_overhead {proto:<8} = "
              f"{analysis.comm_overhead(proto, params, args.H):.2f} hops")
    return 0


def cmd_trace(args) -> int:
    network = deploy(args.n_nodes, args.field_side, args.r, args.r0, args.seed)
    if args.network_out:
        network.dump_csv(args.network_out)
    source = pick_source(network, args.H, args.seed)
    router = make_router(network, args.protocol, source, h=args.h,
                         omega=args.omega)
    rng = np.random.default_rng([args.seed, args.H, args.h])
    trace = router(rng)
    print("packet_id,hop_index,node_id,phase")    # one packet, id 0
    for i, (node, phase) in enumerate(zip(trace.hops, trace.phases)):
        print(f"0,{i},{node},{phase}")
    status = "delivered" if trace.delivered else "undelivered"
    notes = f" annotations={';'.join(trace.annotations)}" if trace.annotations else ""
    print(f"# {status}, {trace.transmissions} transmissions, "
          f"source={source}, phantom={trace.phantom}{notes}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "tables":
            return cmd_tables(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_trace(args)
    except (ParseError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PhantomNetError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
