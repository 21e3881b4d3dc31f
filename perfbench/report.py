"""Printing, the JSON artifact, and one child process per workload."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

from perfbench.config import END_TO_END, GATED, SCHEMA_VERSION, unit_of
from perfbench.runner import Result

_UNITS = {metric.name: metric.unit for metric in END_TO_END}


def as_record(result: Result) -> dict:
    """A run as plain data: what ``--out`` stores and rows are printed from."""
    return {
        "workload": result.workload,
        "traced": result.traced,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value,
                           "unit": _UNITS.get(name) or unit_of(name)}
                    for name, value in result.metrics.items()},
        "notes": result.notes,
    }


def print_rows(record: dict) -> None:
    """``workload metric value unit`` — one line per metric."""
    for name, metric in record["metrics"].items():
        note = record["notes"].get(name)
        print(record["workload"], name, f"{metric['value']:.6g}",
              metric["unit"], *([f"({note})"] if note else []), flush=True)


def driver_line(record: dict) -> str:
    """The last line of a single-workload run, as the driver reads it:
    the gated end-to-end metrics, or every per-layer metric if traced."""
    metrics = record["metrics"] if record["traced"] else \
        {name: record["metrics"][name] for name in GATED}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def spans_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".spans.jsonl"


def run_children(names: list[str], args: argparse.Namespace,
                 root: str) -> list[dict]:
    """Each workload in a fresh interpreter; its rows print when it ends."""
    scratch = os.path.join(root, ".bench_build",
                           f"perfbench-parent-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    records = []
    try:
        for name in names:
            out = os.path.join(scratch, f"{name}.json")
            command = [sys.executable, os.path.join(root, "perfbench",
                                                    "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", out]
            if args.smoke:
                command.append("--smoke")
            # The child's own last line is for the driver, not for people.
            done = subprocess.run(command, cwd=root, text=True,
                                  stdout=subprocess.PIPE)
            sys.stdout.write("".join(done.stdout.splitlines(True)[:-1]))
            sys.stdout.flush()
            if not os.path.exists(out):
                raise SystemExit(f"{name}: run failed with exit code "
                                 f"{done.returncode} and no result")
            with open(out, encoding="utf-8") as source:
                records.extend(json.load(source)["runs"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return records


def _commit(root: str) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(args: argparse.Namespace, root: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "commit": _commit(root),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "traced": bool(args.trace)}


def write_json(path: str, records: list[dict], args: argparse.Namespace,
               root: str) -> None:
    """Write the artifact; a file that already holds runs of the same
    code and settings grows into a *set* of runs (what ``--compare``
    takes its medians and spreads from)."""
    artifact = header(args, root)
    runs = list(records)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as source:
            previous = json.load(source)
        earlier = previous.pop("runs")
        if previous != artifact:
            raise SystemExit(f"{path} holds runs of other code or settings "
                             f"({previous} != {artifact}); not appending")
        runs = earlier + runs
    artifact["runs"] = runs
    with open(path, "w", encoding="utf-8") as out:
        json.dump(artifact, out, indent=1)
        out.write("\n")
