"""Answer check: every distinct query against direct evaluation."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from time import perf_counter

from repro import PathExpression


def count_mismatches(distinct: Iterable[PathExpression],
                     ask: Callable[[PathExpression], Iterable[int]],
                     oracle: Callable[[PathExpression], set[int]],
                     layers: dict[str, float]) -> int:
    """Queries whose answer differs from ``oracle`` (outside any timing).

    A query the system fails to answer is a mismatch too.  The time the
    oracle takes is the index-less baseline ``queries.direct_eval_us``.
    """
    distinct = list(distinct)
    mismatches = 0
    oracle_s = 0.0
    for query in distinct:
        try:
            got = set(ask(query))
        except Exception:  # noqa: BLE001 - an unanswered query is a wrong one
            got = None
        started = perf_counter()
        want = oracle(query)
        oracle_s += perf_counter() - started
        if got != want:
            mismatches += 1
    if distinct:
        layers["queries.direct_eval_us"] = oracle_s / len(distinct) * 1e6
    return mismatches
