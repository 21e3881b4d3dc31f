"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``generate`` — synthesise an XMark- or NASA-like document to a file;
* ``stats`` — print a document's structural statistics;
* ``index`` — build an M*(k)-index refined for a synthetic workload and
  save it as one paged segment file;
* ``query`` — run path expressions against a document (optionally
  through the file ``index`` wrote), printing answers and costs;
* ``report`` — regenerate the paper's full figure sweep as markdown;
* ``verify`` — run the differential correctness oracle + fuzz harness
  over every index family (see :mod:`repro.verify`);
* ``trace`` — run a workload with the tracer enabled and export a
  Chrome-trace JSON of the engine/index/evaluator/pager spans
  (see :mod:`repro.obs` and ``docs/observability.md``);
* ``serve`` — replay a workload through the snapshot-isolated
  concurrent serving layer on N worker threads, interleaved with
  document-update rounds (see :mod:`repro.serving` and
  ``docs/serving.md``); with ``--listen HOST:PORT`` it instead exposes
  the engine over the TCP wire protocol (see :mod:`repro.net` and
  ``docs/network.md``);
* ``loadgen`` — replay a workload *over the wire* against a ``serve
  --listen`` server (or an inline ephemeral one) at configurable
  connection concurrency, reporting p50/p95/p99 latency, throughput,
  and the over-the-wire answers digest (see ``docs/network.md``);
* ``lint`` — run the AST-based discipline checker (lock / cost / epoch
  / determinism rules) over the project's own source (see
  :mod:`repro.analysis` and ``docs/static-analysis.md``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.datasets import generate_nasa, generate_xmark
from repro.graph.xml_io import parse_xml_file
from repro.indexes.mstarindex import MStarIndex
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.serialization import load_graph, save_graph
from repro.storage.spill import DEFAULT_BUDGET_BYTES


def _load_document(path: str):
    """Load a document from a ``.rpgr`` file or parse it as XML."""
    if path.endswith(".rpgr"):
        return load_graph(path)
    return parse_xml_file(path)


def cmd_generate(args: argparse.Namespace) -> int:
    generator = generate_xmark if args.dataset == "xmark" else generate_nasa
    graph = generator(scale=args.scale, seed=args.seed)
    save_graph(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_document(args.document)
    print(graph)
    labels = sorted(graph.alphabet())
    print(f"alphabet ({len(labels)} labels): {', '.join(labels[:20])}"
          + (" ..." if len(labels) > 20 else ""))
    from repro.graph.paths import enumerate_rooted_label_paths
    paths = enumerate_rooted_label_paths(graph, 4)
    print(f"distinct rooted label paths (length <= 4): {len(paths)}")
    from repro.indexes.partition import full_bisimulation_blocks
    blocks, rounds = full_bisimulation_blocks(graph)
    print(f"1-index size: {max(blocks) + 1} nodes "
          f"(bisimulation stabilises at k = {rounds})")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    graph = _load_document(args.document)
    workload = Workload.generate(graph, num_queries=args.queries,
                                 max_length=args.max_length, seed=args.seed)
    index = MStarIndex(graph)
    for expr in workload:
        index.refine(expr, index.query(expr))
    DiskMStarIndex.build(index, args.output).close()
    print(f"refined {index} for {len(workload)} workload queries; "
          f"saved to {args.output}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    graph = _load_document(args.document)
    if args.index:
        with DiskMStarIndex(args.index, graph) as disk:
            index = disk.to_memory()
    else:
        index = MStarIndex(graph)
    for text in args.expressions:
        expr = PathExpression.parse(text)
        result = index.query(expr)
        print(f"{expr}: {len(result.answers)} answers, "
              f"cost {result.cost.index_visits} index + "
              f"{result.cost.data_visits} data visits"
              + (" (validated)" if result.validated else ""))
        if args.verbose:
            print(f"  oids: {sorted(result.answers)}")
        if args.refine:
            index.refine(expr, result)
    if args.refine and args.index:
        DiskMStarIndex.build(index, args.index).close()
        print(f"index updated in place: {args.index}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.report import run_report

    config = ExperimentConfig(scale=args.scale, num_queries=args.queries,
                              seed=args.seed)
    report = run_report(config)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.runner import run_verification

    families = ([name.strip() for name in args.indexes.split(",")
                 if name.strip()] if args.indexes else None)
    report = run_verification(
        seed=args.seed, rounds=args.rounds, families=families, k=args.k,
        queries_per_round=args.queries, engine_queries=args.engine_queries,
        profile=args.profile, graph_seed=args.graph_seed,
        progress=print if args.verbose else None)
    print(report.summary())
    if args.repro_out and not report.ok:
        with open(args.repro_out, "w") as handle:
            handle.write("\n".join(report.repro_lines()) + "\n")
        print(f"discrepancy repros written to {args.repro_out}")
    return 0 if report.ok else 1


def cmd_ooc(args: argparse.Namespace) -> int:
    """Spill-build the M*(k) hierarchy file under a byte budget; verify it.

    This is the CI ``ooc-smoke`` entry point: run with a deliberately
    low ``--budget`` so the build must spill, then ``--check`` proves
    the file's partitions identical to the in-RAM levels and its answers
    identical to the in-RAM A(k) and the data-graph oracle.  The file
    ``--output`` keeps is one ``repro query --index`` reads.
    """
    import os
    import tempfile

    from repro.indexes.aindex import AkIndex
    from repro.queries.evaluator import evaluate_on_data_graph
    from repro.storage.spill import (
        build_hierarchy_segment,
        check_budget,
        inram_hierarchy_digest,
    )

    try:
        check_budget(args.budget)
    except ValueError as error:
        print(f"ooc: error: {error}", file=sys.stderr)
        return 2
    generator = generate_xmark if args.dataset == "xmark" else generate_nasa
    graph = generator(scale=args.scale, seed=args.seed)
    print(f"ooc: {args.dataset} scale {args.scale}: {graph.num_nodes} "
          f"nodes, budget {args.budget} bytes")

    with tempfile.TemporaryDirectory(prefix="repro-ooc-") as tmp:
        path = args.output or os.path.join(tmp, f"mstar{args.k}.seg")
        report = build_hierarchy_segment(graph, args.k, path,
                                         budget_bytes=args.budget,
                                         page_size=args.page_size)
        print(f"ooc: M*({args.k}): {report.records} index nodes over "
              f"{args.k + 1} components, {report.pairs} pairs through "
              f"{report.runs} runs ({report.spills} spills), payload "
              f"{report.payload_bytes} bytes "
              f"({report.dataset_ratio:.2f}x budget)")
        print(f"ooc: M*({args.k}): peak tracked working set "
              f"{report.peak_tracked_bytes} bytes "
              f"({report.peak_ratio:.2f}x budget) in {report.seconds:.3f}s")
        if report.spills == 0:
            print("ooc: WARNING — build fit in the budget without "
                  "spilling; lower the budget to exercise the spill path")

        if not args.check:
            return 0

        if report.digest != inram_hierarchy_digest(graph, args.k):
            print("ooc: CHECK FAILED — hierarchy digest diverges from the "
                  "in-RAM levels")
            return 1
        ram_index = AkIndex(graph, args.k)
        workload = Workload.generate(graph, num_queries=args.queries,
                                     max_length=args.max_length,
                                     seed=args.seed)
        oracle_every = max(1, len(workload.queries) // 8)
        with DiskMStarIndex(path, graph) as disk_index:
            for position, expr in enumerate(workload.queries):
                disk = disk_index.query(expr).answers
                if disk != ram_index.query(expr).answers:
                    print(f"ooc: CHECK FAILED — stored answers diverge "
                          f"from in-RAM A(k) on {expr}")
                    return 1
                if position % oracle_every == 0 and \
                        disk != evaluate_on_data_graph(graph, expr):
                    print(f"ooc: CHECK FAILED — stored answers diverge "
                          f"from the data-graph oracle on {expr}")
                    return 1
            reads, hits = disk_index.io_stats()
        print(f"ooc: check OK — digest matches the in-RAM levels, "
              f"{len(workload.queries)} queries match the in-RAM index "
              f"({reads} page reads, {hits} pool hits)")
        return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _build_serving_engine(graph, shards: int, *, banner: str = "serve"):
    """The single-shard or sharded engine the serve/loadgen commands use."""
    from repro.serving.engine import ServingEngine

    if shards > 1:
        from repro.sharding import ShardedEngine

        serving = ShardedEngine(graph.freeze(), num_shards=shards)
        sizes = serving.placement.shard_sizes()
        print(f"{banner}: {shards} shards (owned nodes {sizes}, "
              f"{serving.num_cross_edges} cross edges, "
              f"built in {serving.construction_s:.3f}s)")
        return serving
    return ServingEngine(graph)


def cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serving.replay import (
        ReplayConfig,
        content_digest,
        load_workload,
        run_replay,
        save_workload,
    )

    if args.document:
        graph = _load_document(args.document)
    else:
        generator = generate_xmark if args.dataset == "xmark" else generate_nasa
        graph = generator(scale=args.scale, seed=args.seed)

    if args.listen:
        from repro.net.server import IndexServer

        host, port = _parse_hostport(args.listen)
        serving = _build_serving_engine(graph, args.shards)
        server = IndexServer(serving, host, port,
                             workers=args.net_workers,
                             max_queue=args.max_queue)
        with server:
            bound_host, bound_port = server.address
            print(f"serve: listening on {bound_host}:{bound_port} "
                  f"({args.net_workers} workers, "
                  f"queue depth {args.max_queue}); Ctrl-C to stop",
                  flush=True)
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                print("serve: shutting down")
        return 0

    if args.replay:
        queries = load_workload(args.replay)
        source = args.replay
    else:
        queries = list(Workload.generate(graph, num_queries=args.queries,
                                         max_length=args.max_length,
                                         seed=args.seed))
        source = (f"generated (queries={args.queries}, "
                  f"max-length={args.max_length}, seed={args.seed})")
        if args.save_workload:
            save_workload(args.save_workload, queries,
                          header=f"workload: {source}")
            print(f"serve: workload written to {args.save_workload}")

    serving = _build_serving_engine(graph, args.shards)
    config = ReplayConfig(workers=args.workers, passes=args.passes,
                          timeout=args.timeout,
                          update_rounds=args.update_rounds,
                          updates_per_round=args.updates_per_round,
                          update_seed=args.update_seed,
                          client_stall_s=args.stall_ms / 1e3,
                          check=args.check)
    report = run_replay(serving, queries, config)

    print(f"serve: {report.queries_served} queries "
          f"({len(queries)} unique x {config.passes} passes) on "
          f"{config.workers} workers from {source}")
    print(f"serve: {report.duration_s:.3f}s wall, "
          f"{report.throughput_qps:.0f} queries/s; epoch "
          f"{report.start_epoch} -> {report.end_epoch} "
          f"({report.updates_applied} updates, "
          f"{report.refinements} refinements)")
    print(f"serve: {report.cache_hits} cache hits, "
          f"{report.conflicts} snapshot conflicts, "
          f"{report.degraded} degraded, {report.timeouts} past deadline")
    if args.shards > 1:
        print(f"serve: {serving.stats.snapshot()['fallbacks']} cross-shard "
              f"fallbacks across {args.shards} shards")
    print(f"serve: answers digest {report.digest}")
    if args.digest_out:
        with open(args.digest_out, "w") as handle:
            handle.write(report.digest + "\n")
        print(f"serve: digest written to {args.digest_out}")
    if args.content_digest_out:
        digest = content_digest(serving, queries)
        with open(args.content_digest_out, "w") as handle:
            handle.write(digest + "\n")
        print(f"serve: content digest {digest} written to "
              f"{args.content_digest_out}")
    if args.json:
        with open(args.json, "w") as handle:
            _json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"serve: report written to {args.json}")
    if report.checked:
        if report.check_failures:
            print(f"serve: CHECK FAILED — {report.check_failures} queries "
                  f"diverge from the data-graph oracle")
            return 1
        print("serve: check OK — final answers match the data-graph oracle")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay a workload over the wire; optionally cross-check digests.

    With ``--connect`` the target is an external ``serve --listen``
    server (which must have been started from the same dataset, scale,
    seed, and shard count for the digest check to be meaningful);
    without it an ephemeral inline server is started on a loopback
    port, which is what the CI ``net-smoke`` job uses.
    """
    import json as _json

    from repro.net.loadgen import LoadgenConfig, run_loadgen
    from repro.serving.replay import load_workload

    generator = generate_xmark if args.dataset == "xmark" else generate_nasa

    def build_graph():
        graph = generator(scale=args.scale, seed=args.seed)
        return graph.freeze() if args.shards > 1 else graph

    graph = build_graph()
    if args.replay:
        queries = load_workload(args.replay)
    else:
        queries = list(Workload.generate(graph, num_queries=args.queries,
                                         max_length=args.max_length,
                                         seed=args.seed))
    config = LoadgenConfig(connections=args.connections,
                           passes=args.passes,
                           update_rounds=args.update_rounds,
                           updates_per_round=args.updates_per_round,
                           update_seed=args.update_seed,
                           budget_ms=args.budget_ms)

    server = None
    if args.connect:
        host, port = _parse_hostport(args.connect)
    else:
        from repro.net.server import IndexServer

        serving = _build_serving_engine(build_graph(), args.shards,
                                        banner="loadgen")
        server = IndexServer(serving, workers=args.net_workers,
                             max_queue=args.max_queue).start()
        host, port = server.address
        print(f"loadgen: inline server on {host}:{port}")
    try:
        report = run_loadgen(host, port, graph, queries, config)
    finally:
        if server is not None:
            server.stop()

    print(f"loadgen: {report.queries_ok}/{report.queries_sent} served on "
          f"{config.connections} connections ({report.shed} shed, "
          f"{report.updates_applied} updates, "
          f"{report.refinements} refinements)")
    print(f"loadgen: {report.duration_s:.3f}s serving wall, "
          f"{report.throughput_qps:.0f} queries/s; latency p50 "
          f"{report.p50_ms:.2f}ms, p95 {report.p95_ms:.2f}ms, "
          f"p99 {report.p99_ms:.2f}ms")
    print(f"loadgen: {report.cache_hits} cache hits, "
          f"{report.degraded} degraded, {report.timeouts} past deadline")
    print(f"loadgen: content digest {report.content_digest}")
    if args.digest_out:
        with open(args.digest_out, "w") as handle:
            handle.write(report.content_digest + "\n")
        print(f"loadgen: digest written to {args.digest_out}")
    if args.json:
        with open(args.json, "w") as handle:
            _json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"loadgen: report written to {args.json}")

    if args.check_inproc:
        from repro.serving.replay import (
            ReplayConfig,
            content_digest,
            run_replay,
        )

        serving = _build_serving_engine(build_graph(), args.shards,
                                        banner="loadgen")
        run_replay(serving, queries,
                   ReplayConfig(workers=4, passes=config.passes,
                                update_rounds=config.update_rounds,
                                updates_per_round=config.updates_per_round,
                                update_seed=config.update_seed))
        inproc = content_digest(serving, queries)
        if inproc != report.content_digest:
            print(f"loadgen: CHECK FAILED — over-the-wire digest "
                  f"{report.content_digest} != in-process digest {inproc}")
            return 1
        print("loadgen: check OK — over-the-wire answers match "
              "in-process replay byte-for-byte")
    return 0


#: Span-name prefixes a healthy traced workload must produce, grouped by
#: subsystem (``repro trace --check`` fails if any group is empty).
_TRACE_REQUIRED_GROUPS = {
    "engine": ("engine.",),
    "index-refinement": ("mstar.", "mk.", "dk.", "partition."),
    "evaluator": ("evaluator.",),
    "pager": ("pager.", "diskindex."),
}


def cmd_trace(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from repro.core.engine import AdaptiveIndexEngine
    from repro.obs import (
        REGISTRY,
        TRACER,
        validate_chrome_trace,
        validate_nesting,
    )

    if args.document:
        graph = _load_document(args.document)
    else:
        generator = generate_xmark if args.dataset == "xmark" else generate_nasa
        graph = generator(scale=args.scale, seed=args.seed)
    workload = Workload.generate(graph, num_queries=args.queries,
                                 max_length=args.max_length, seed=args.seed)

    TRACER.enable(clear=True)
    metrics_before = REGISTRY.snapshot()
    zero_span_queries: list[str] = []
    try:
        engine = AdaptiveIndexEngine(graph, index_factory=MStarIndex,
                                     cache=True)
        for _ in range(args.passes):
            for expr in workload:
                recorded_before = TRACER.recorded
                engine.execute(expr)
                if TRACER.recorded == recorded_before:
                    zero_span_queries.append(str(expr))
        # Disk phase: serialise the refined index and replay the workload
        # through the buffer pool, so pager/diskindex spans appear too.
        with tempfile.TemporaryDirectory() as tmp:
            disk_path = os.path.join(tmp, "trace.seg")
            with DiskMStarIndex.build(engine.index, disk_path,
                                      buffer_pages=8) as disk:
                for expr in workload:
                    disk.query(expr)
        records = TRACER.spans()
        payload = TRACER.export_chrome()
        dropped = TRACER.dropped
    finally:
        TRACER.disable()
        TRACER.clear()
    metrics_after = REGISTRY.snapshot()

    import json as _json
    with open(args.output, "w") as handle:
        _json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")

    by_group = {group: sum(1 for record in records
                           if record.name.startswith(prefixes))
                for group, prefixes in _TRACE_REQUIRED_GROUPS.items()}
    print(f"trace: {len(records)} spans ({dropped} dropped) from "
          f"{len(workload)} queries x {args.passes} passes "
          f"-> {args.output}")
    print("trace: spans by subsystem: "
          + ", ".join(f"{group}={count}"
                      for group, count in sorted(by_group.items())))
    interesting = ("engine_queries_total", "engine_cache_hits_total",
                   "engine_refinements_total", "pager_reads_total",
                   "pager_pool_hits_total", "partition_rounds_total")
    deltas = {key: metrics_after[key] - metrics_before.get(key, 0)
              for key in sorted(metrics_after)
              if key.split("{")[0] in interesting}
    for key, delta in deltas.items():
        if delta:
            print(f"trace: metric {key} +{delta:g}")

    if not args.check:
        return 0
    problems = validate_chrome_trace(payload)
    problems.extend(validate_nesting(records))
    for group, count in sorted(by_group.items()):
        if count == 0:
            problems.append(f"no {group} spans recorded")
    if zero_span_queries:
        problems.append(
            f"{len(zero_span_queries)} engine queries produced zero spans "
            f"(first: {zero_span_queries[0]})")
    if dropped:
        problems.append(f"ring buffer dropped {dropped} spans; "
                        f"raise capacity or shrink the workload")
    if problems:
        print(f"trace: CHECK FAILED — {len(problems)} problems")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("trace: check OK — schema valid, spans nested, "
          "all subsystems present")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint_cli

    return run_lint_cli(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiresolution XML indexing (M(k)/M*(k)) toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate",
                                   help="synthesise a dataset document")
    generate.add_argument("--dataset", choices=("xmark", "nasa"),
                          default="xmark")
    generate.add_argument("--scale", type=float, default=0.05,
                          help="1.0 approximates the paper's document sizes")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--output", "-o", required=True,
                          help="output path (.rpgr)")
    generate.set_defaults(handler=cmd_generate)

    stats = commands.add_parser("stats", help="document statistics")
    stats.add_argument("document", help=".rpgr file or XML document")
    stats.set_defaults(handler=cmd_stats)

    index = commands.add_parser("index",
                                help="build a workload-refined M*(k)-index")
    index.add_argument("document")
    index.add_argument("--output", "-o", required=True,
                       help="output path (one paged v2 segment, .seg)")
    index.add_argument("--queries", type=int, default=200)
    index.add_argument("--max-length", type=int, default=9)
    index.add_argument("--seed", type=int, default=1)
    index.set_defaults(handler=cmd_index)

    query = commands.add_parser("query", help="run path expressions")
    query.add_argument("document")
    query.add_argument("expressions", nargs="+",
                       help="XPath-style simple paths, e.g. //a/b")
    query.add_argument("--index",
                       help="M*(k)-index written by 'repro index' (.seg)")
    query.add_argument("--refine", action="store_true",
                       help="refine the index for each query (FUP)")
    query.add_argument("--verbose", "-v", action="store_true")
    query.set_defaults(handler=cmd_query)

    report = commands.add_parser(
        "report", help="regenerate the paper's figures as markdown")
    report.add_argument("--scale", type=float, default=0.05)
    report.add_argument("--queries", type=int, default=500)
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--output", "-o")
    report.set_defaults(handler=cmd_report)

    verify = commands.add_parser(
        "verify",
        help="differential correctness oracle + fuzz harness")
    verify.add_argument("--seed", type=int, default=0,
                        help="campaign seed (each round derives its own "
                             "graph seed)")
    verify.add_argument("--rounds", type=int, default=25)
    verify.add_argument("--indexes",
                        help="comma-separated family names (default: all; "
                             "see repro.verify.oracle.FAMILY_NAMES)")
    verify.add_argument("--k", type=int, default=2,
                        help="resolution for the parameterised families")
    verify.add_argument("--queries", type=int, default=24,
                        help="fuzzed queries per round")
    verify.add_argument("--engine-queries", type=int, default=40,
                        help="adaptive-engine stream length per round")
    verify.add_argument("--profile",
                        help="replay mode: run one round on this graph "
                             "profile")
    verify.add_argument("--graph-seed", type=int,
                        help="replay mode: exact graph seed from a "
                             "discrepancy repro line")
    verify.add_argument("--repro-out",
                        help="on failure, write discrepancy repro lines "
                             "(graph seed + query) to this file")
    verify.add_argument("--verbose", "-v", action="store_true",
                        help="print one status line per round")
    verify.set_defaults(handler=cmd_verify)

    ooc = commands.add_parser(
        "ooc",
        help="spill-build the M*(k) index file under a byte budget and "
             "verify it against the in-RAM builder")
    ooc.add_argument("--dataset", choices=("xmark", "nasa"),
                     default="xmark")
    ooc.add_argument("--scale", type=float, default=0.05)
    ooc.add_argument("--seed", type=int, default=7)
    ooc.add_argument("--k", type=int, default=8,
                     help="local-similarity resolution to build")
    ooc.add_argument("--budget", type=int, default=DEFAULT_BUDGET_BYTES,
                     help="spill budget in bytes (default: 64 MiB)")
    ooc.add_argument("--page-size", type=int, default=2048,
                     help="segment page size in bytes")
    ooc.add_argument("--queries", type=int, default=40,
                     help="spot-check workload size for --check")
    ooc.add_argument("--max-length", type=int, default=6)
    ooc.add_argument("--output", "-o", default="",
                     help="keep the index file at this path "
                          "(default: temporary)")
    ooc.add_argument("--check", action="store_true",
                     help="verify digests and answers against the "
                          "in-RAM builder and the data-graph oracle")
    ooc.set_defaults(handler=cmd_ooc)

    trace = commands.add_parser(
        "trace",
        help="run a traced workload and export a Chrome-trace JSON")
    trace.add_argument("document", nargs="?",
                       help=".rpgr file or XML document (default: generate "
                            "--dataset at --scale)")
    trace.add_argument("--dataset", choices=("xmark", "nasa"),
                       default="xmark")
    trace.add_argument("--scale", type=float, default=0.02)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--queries", type=int, default=24,
                       help="workload size")
    trace.add_argument("--max-length", type=int, default=6)
    trace.add_argument("--passes", type=int, default=2,
                       help="workload passes (>= 2 exercises the cache-hit "
                            "path)")
    trace.add_argument("--output", "-o", default="trace.json",
                       help="Chrome-trace JSON path (open in "
                            "chrome://tracing or Perfetto)")
    trace.add_argument("--check", action="store_true",
                       help="validate the export (schema, span nesting, "
                            "all subsystems traced) and exit non-zero on "
                            "problems")
    trace.set_defaults(handler=cmd_trace)

    serve = commands.add_parser(
        "serve",
        help="replay a workload through the concurrent serving layer")
    serve.add_argument("document", nargs="?",
                       help=".rpgr file or XML document (default: generate "
                            "--dataset at --scale)")
    serve.add_argument("--dataset", choices=("xmark", "nasa"),
                       default="xmark")
    serve.add_argument("--scale", type=float, default=0.02)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--replay",
                       help="workload file (one XPath-style query per "
                            "line); default: generate one from --queries/"
                            "--max-length/--seed")
    serve.add_argument("--save-workload",
                       help="write the generated workload to this file "
                            "(replayable via --replay)")
    serve.add_argument("--queries", type=int, default=60,
                       help="generated workload size")
    serve.add_argument("--max-length", type=int, default=6)
    serve.add_argument("--workers", type=int, default=4,
                       help="reader worker threads")
    serve.add_argument("--shards", type=int, default=1,
                       help="serve through a ShardedEngine with this many "
                            "shards (1 = plain single-engine serving)")
    serve.add_argument("--passes", type=int, default=2,
                       help="workload passes (>= 2 exercises the serving "
                            "result cache)")
    serve.add_argument("--update-rounds", type=int, default=4,
                       help="document-update rounds interleaved between "
                            "query chunks")
    serve.add_argument("--updates-per-round", type=int, default=1)
    serve.add_argument("--update-seed", type=int, default=0)
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-query deadline in seconds (conflicted "
                            "queries degrade to the locked oracle path)")
    serve.add_argument("--stall-ms", type=float, default=0.0,
                       help="simulated per-query client I/O in ms (what "
                            "worker threads overlap; see docs/serving.md)")
    serve.add_argument("--check", action="store_true",
                       help="re-check final answers against the data-graph "
                            "oracle and exit non-zero on divergence")
    serve.add_argument("--digest-out",
                       help="write the final-answers digest to this file "
                            "(the CI flake guard diffs two runs)")
    serve.add_argument("--content-digest-out",
                       help="write the answers-only content digest (the "
                            "one `repro loadgen` reproduces over the wire)")
    serve.add_argument("--json",
                       help="write the full replay report as JSON")
    serve.add_argument("--listen",
                       help="serve over TCP at HOST:PORT (port 0 = "
                            "ephemeral) instead of replaying; see "
                            "docs/network.md")
    serve.add_argument("--net-workers", type=int, default=4,
                       help="server worker threads draining the request "
                            "queue (with --listen)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admitted-but-unserved request bound before "
                            "load-shedding (with --listen)")
    serve.set_defaults(handler=cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="replay a workload over the wire protocol, reporting "
             "p50/p95/p99 latency and the answers digest")
    loadgen.add_argument("--connect",
                         help="HOST:PORT of a running `serve --listen` "
                              "server (default: start an inline server)")
    loadgen.add_argument("--dataset", choices=("xmark", "nasa"),
                         default="xmark")
    loadgen.add_argument("--scale", type=float, default=0.02)
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--shards", type=int, default=1,
                         help="shard count of the target engine (must "
                              "match the server's with --connect)")
    loadgen.add_argument("--replay",
                         help="workload file; default: generate from "
                              "--queries/--max-length/--seed")
    loadgen.add_argument("--queries", type=int, default=60)
    loadgen.add_argument("--max-length", type=int, default=6)
    loadgen.add_argument("--connections", type=int, default=4,
                         help="concurrent client connections")
    loadgen.add_argument("--passes", type=int, default=2)
    loadgen.add_argument("--update-rounds", type=int, default=4)
    loadgen.add_argument("--updates-per-round", type=int, default=1)
    loadgen.add_argument("--update-seed", type=int, default=0)
    loadgen.add_argument("--budget-ms", type=int, default=None,
                         help="per-query deadline shipped on the wire")
    loadgen.add_argument("--net-workers", type=int, default=4,
                         help="inline server worker threads")
    loadgen.add_argument("--max-queue", type=int, default=64,
                         help="inline server admission-control bound")
    loadgen.add_argument("--check-inproc", action="store_true",
                         help="also run the identical replay in-process "
                              "and fail on any digest difference")
    loadgen.add_argument("--digest-out",
                         help="write the over-the-wire content digest")
    loadgen.add_argument("--json",
                         help="write the loadgen report as JSON")
    loadgen.set_defaults(handler=cmd_loadgen)

    lint = commands.add_parser(
        "lint",
        help="AST-based discipline checker (lock/cost/epoch/determinism)")
    from repro.analysis.cli import add_lint_arguments
    add_lint_arguments(lint)
    lint.set_defaults(handler=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
