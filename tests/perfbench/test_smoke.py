"""Smoke runs: counts repeat exactly, every metric is reported, answers
are checked, and nothing installed by a traced run survives it."""

import copy
import json
import os
import subprocess
import sys

import pytest

from perfbench import compare, report
from perfbench.config import END_TO_END, GATED, PER_LAYER, WORKLOADS, unit_of
from perfbench.layers import operation_self_error
from perfbench.runner import run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def smoke(name, traced=False, seed=1):
    return run_workload(name, seed=seed, traced=traced, smoke=True,
                        repo_root=ROOT)


def counts(metrics):
    """Metrics that are counts or ratios of counts, not clock readings."""
    clocked = ("_s", "_ms", "_us", "_mb")
    return {name: value for name, value in metrics.items()
            if not name.endswith(clocked) and not name.startswith("bench.")}


@pytest.mark.parametrize("name", [w for w in WORKLOADS if w != "wire_2conn"])
def test_two_untraced_runs_agree_on_every_count(name):
    first, second = smoke(name), smoke(name)
    assert first.correct and first.failed == 0
    assert set(GATED) <= set(first.metrics)
    assert {"visits_per_read", "index_nodes"} <= set(first.metrics)
    assert counts(first.metrics) == counts(second.metrics)
    assert all(first.metrics[name] > 0 for name in GATED)


@pytest.mark.parametrize("name", ["adapt_cold", "mixed_rw", "shard4",
                                  "disk_small_pool"])
def test_two_traced_runs_agree_on_every_count(name):
    first, second = smoke(name, traced=True), smoke(name, traced=True)
    assert first.correct
    assert counts(first.metrics) == counts(second.metrics)
    assert any(counts(first.metrics).values())


@pytest.mark.parametrize("name", ["serve_hot", "wire_2conn"])
def test_traced_run_reports_every_layer_metric_and_cleans_up(name):
    result = smoke(name, traced=True)
    assert result.correct
    assert list(result.metrics) == list(PER_LAYER)
    assert result.recorder.installed() == 0
    timed = [s for s in result.recorder.spans if s.phase == "timed"]
    assert timed and operation_self_error(timed) < 0.02
    if name == "serve_hot":
        assert all(result.metrics[f"ladder.{rung}_us"] > 0
                   for rung in ("direct", "kernel", "core", "serving",
                                "shard1", "wire"))
        assert set(result.notes) == {f"ladder.{rung}_us" for rung in
                                     ("kernel", "core", "serving", "shard1",
                                      "wire")}
        assert result.metrics["serving.cache_hit_share"] == 1.0
        assert result.metrics["indexes.query_calls"] == 0
    else:
        assert result.metrics["net.rtt_us"] > result.metrics["net.ping_us"] > 0
        assert result.metrics["net.shed"] == result.metrics["net.errors"] == 0


def test_seed_changes_the_order_not_the_counts():
    assert counts(smoke("lib_replay", seed=1).metrics) == \
        counts(smoke("lib_replay", seed=2).metrics)


def test_benchmark_json_agrees_with_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        declared = json.load(src)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    gated = [m for m in END_TO_END if m.name in GATED]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in gated]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        [(name, unit_of(name)) for name in PER_LAYER]
    assert declared["paths"] == ["perfbench", "tests/perfbench"]


def run_cli(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=120)


def test_cli_ends_with_the_driver_line_and_appends_to_a_set(tmp_path):
    out = tmp_path / "set.json"
    for _ in range(2):
        done = run_cli("--workload", "disk_small_pool", "--seed", "3",
                       "--seconds", "5", "--trace", "0", "--smoke",
                       "--out", str(out))
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert list(line["metrics"]) == list(GATED)
        assert "disk_small_pool visits_per_read" in done.stdout
    artifact = json.loads(out.read_text())
    assert artifact["smoke"] is True and artifact["seed"] == 3
    assert len(artifact["runs"]) == 2
    assert not os.path.exists(
        os.path.join(ROOT, ".bench_build", "xmark.rpdi"))

    # Two smoke runs are too short for their clocks to agree; counts do.
    done = run_cli("--compare", str(out), str(out))
    assert done.returncode in (0, 1), done.stderr
    row = next(row.split() for row in done.stdout.splitlines()
               if row.startswith("disk_small_pool index_nodes "))
    assert row[4] == "1.0000xA" and row[-1] == "ok"


def test_compare_refuses_mismatched_sets_and_flags_regressions(tmp_path):
    measured = report.as_record(smoke("lib_replay"))

    def artifact(path, ops_per_s, **header):
        record = copy.deepcopy(measured)
        record["metrics"]["ops_per_s"]["value"] = ops_per_s
        doc = {"schema_version": 1, "commit": "x", "seed": 1, "seconds": 5,
               "smoke": True, "traced": False, "runs": [record] * 3}
        doc.update(header)
        path.write_text(json.dumps(doc))
        return str(path)

    base = artifact(tmp_path / "a.json", 1000.0)
    assert compare.main(base, artifact(tmp_path / "b.json", 900.0)) == 0
    assert compare.main(base, artifact(tmp_path / "c.json", 700.0)) == 1
    assert compare.main(base, artifact(tmp_path / "d.json", 1000.0, seed=2)) == 2
    assert compare.main(base, artifact(tmp_path / "e.json", 1000.0,
                                       smoke=False)) == 2


def test_verdict_is_unresolved_when_spread_exceeds_the_bound():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [95.0] * 5, "lower", 0.10)[2] == \
        "unresolved"
    assert compare.verdict(noisy, [50.0] * 5, "lower", 0.10)[2] == "ok"
    assert compare.verdict([100.0] * 5, [120.0] * 5, "lower", 0.10)[2] == \
        "worse"
    assert compare.verdict([100.0] * 5, [85.0] * 5, "higher", 0.10)[2] == \
        "worse"
