"""``--compare A.json B.json``: is B worse than A, metric by metric?

Each file is a set of runs written by ``--out`` (one or more runs of the
same code, seed and settings).  A is the base of every ratio.
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import median

from perfbench.config import END_TO_END
from perfbench.stats import iqr_share

#: Header fields that must agree before two sets can be compared.
MUST_MATCH = ("schema_version", "seed", "seconds", "smoke", "traced")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as source:
        return json.load(source)


def values_by_workload(artifact: dict) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for run in artifact["runs"]:
        for name, metric in run["metrics"].items():
            out[run["workload"]][name].append(metric["value"])
    return out


def verdict(base: list[float], other: list[float], better: str,
            bound: float) -> tuple[float, float, str]:
    """``(ratio other/base, spread, ok | worse | unresolved)``.

    The spread is the wider of the two sets' inter-quartile shares.  A
    spread wider than the bound leaves the pair unresolved unless every
    run of ``other`` reads better than every run of ``base``.
    """
    base_mid, other_mid = median(base), median(other)
    ratio = other_mid / base_mid if base_mid else float("inf") \
        if other_mid else 1.0
    if better == "lower":
        worse_by = ratio - 1.0
        all_better = max(other) < min(base)
    else:
        worse_by = 1.0 - ratio
        all_better = min(other) > max(base)
    spread = max(iqr_share(base), iqr_share(other))
    if spread > bound and not all_better and bound > 0:
        return ratio, spread, "unresolved"
    return ratio, spread, "worse" if worse_by > bound else "ok"


def main(path_a: str, path_b: str) -> int:
    first, second = load(path_a), load(path_b)
    for key in MUST_MATCH:
        if first.get(key) != second.get(key):
            print(f"refusing to compare: {key} differs "
                  f"({first.get(key)!r} vs {second.get(key)!r})")
            return 2
    base, other = values_by_workload(first), values_by_workload(second)
    worst = 0
    print(f"base A = {path_a} ({len(first['runs'])} workload runs, "
          f"commit {first['commit'][:12]}); "
          f"B = {path_b} ({len(second['runs'])} workload runs, "
          f"commit {second['commit'][:12]})")
    print("workload metric A B B/A spread bound verdict")
    for workload in base:
        for metric in END_TO_END:
            ours = base[workload].get(metric.name)
            theirs = other.get(workload, {}).get(metric.name)
            if not ours or not theirs:
                continue
            ratio, spread, status = verdict(ours, theirs, metric.better,
                                            metric.bound)
            worst = max(worst, status != "ok")
            print(workload, metric.name,
                  f"{median(ours):.6g}", f"{median(theirs):.6g}",
                  f"{ratio:.4f}xA", f"{spread:.2%}", f"{metric.bound:.0%}",
                  status)
    return int(worst)
