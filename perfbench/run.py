#!/usr/bin/env python3
"""perfbench command line.

    python3 perfbench/run.py [--workload NAME]... [--seed S] [--seconds N]
                             [--trace 0|1 | --traced] [--smoke] [--out FILE]
    python3 perfbench/run.py --compare A.json B.json

One ``--workload`` runs in this process and ends with the one-line JSON
result the benchmark driver reads.  Several (default: all seven) run one
child process each, so that ``peak_rss_mb`` is each workload's own.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import compare, report                      # noqa: E402
from perfbench.config import DEFAULT_SECONDS, WORKLOADS    # noqa: E402
from perfbench.runner import run_workload                  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="replay order, stream order and update RNG")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes the timed phase (operation counts "
                             "scale with it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny load, a few seconds; never comparable "
                             "with a full run")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(_signum: int, _frame: object) -> None:
    # Unwind through the ``finally`` blocks that reap the server child
    # and remove the scratch files.
    raise SystemExit(143)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    signal.signal(signal.SIGTERM, _terminate)
    names = args.workload or list(WORKLOADS)
    if len(names) == 1:
        result = run_workload(names[0], seed=args.seed, seconds=args.seconds,
                              traced=bool(args.trace), smoke=args.smoke,
                              repo_root=ROOT)
        results = [report.as_record(result)]
        report.print_rows(results[0])
        if args.out and result.recorder is not None:
            result.recorder.write(report.spans_path(args.out))
        if result.first_error:
            print(result.first_error, file=sys.stderr)
    else:
        results = report.run_children(names, args, ROOT)
    if args.out:
        report.write_json(args.out, results, args, ROOT)
    if len(names) == 1:
        print(report.driver_line(results[0]), flush=True)
    return 0 if all(record["correct"] for record in results) else 1


if __name__ == "__main__":
    sys.exit(main())
