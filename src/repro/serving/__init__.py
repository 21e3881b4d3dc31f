"""Snapshot-isolated concurrent serving (see ``docs/serving.md``).

Public surface::

    from repro.serving import ServingEngine, ReplayConfig, run_replay

    serving = ServingEngine(graph)                 # M*(k) underneath
    results = serving.serve(queries, workers=4)    # snapshot-isolated
    serving.insert_subtree(0, ("item", []))        # epoch-bumping writer
"""

from repro.serving.engine import (
    PinnedSnapshot,
    ServedResult,
    ServingEngine,
    ServingStats,
    SnapshotReader,
)
from repro.serving.replay import (
    ReplayConfig,
    ReplayReport,
    answers_digest,
    load_workload,
    random_update,
    run_replay,
    save_workload,
)
from repro.serving.snapshot import EpochClock

__all__ = [
    "EpochClock",
    "PinnedSnapshot",
    "ReplayConfig",
    "ReplayReport",
    "ServedResult",
    "ServingEngine",
    "ServingStats",
    "SnapshotReader",
    "answers_digest",
    "load_workload",
    "random_update",
    "run_replay",
    "save_workload",
]
