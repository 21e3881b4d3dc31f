"""perfbench: paper-scale layered benchmark for the repro index stack.

Drives the system only through its public entry points and reports
end-to-end metrics (untraced run) and per-layer metrics (traced run)
for seven workloads.  See ``perfbench/README.md`` and ``BENCHMARK.json``.
"""
