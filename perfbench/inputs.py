"""The document and the query list every workload starts from."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro import PathExpression, Workload, generate_nasa, generate_xmark
from repro.graph.datagraph import DataGraph

from perfbench.config import DATASET_SEED, QUERY_LIST_SEED, Sizes

GENERATORS = {"xmark": generate_xmark, "nasa": generate_nasa}


@dataclass
class Inputs:
    graph: DataGraph
    queries: tuple[PathExpression, ...]     # the paper's list, repeats kept
    distinct: list[PathExpression]          # first-occurrence order


def make_inputs(dataset: str, sizes: Sizes, layers: dict[str, float],
                num_queries: int | None = None) -> Inputs:
    """Generate the document and its query list, timing each step into
    ``layers``."""
    started = perf_counter()
    graph = GENERATORS[dataset](scale=sizes.scale, seed=DATASET_SEED)
    layers["graph.generate_s"] = perf_counter() - started
    layers["graph.nodes"] = graph.num_nodes
    layers["graph.edges"] = graph.num_edges

    started = perf_counter()
    workload = Workload.generate(
        graph, num_queries=num_queries or sizes.num_queries,
        max_length=sizes.max_length, seed=QUERY_LIST_SEED)
    layers["queries.workload_gen_s"] = perf_counter() - started
    distinct = list(dict.fromkeys(workload.queries))
    layers["queries.distinct"] = len(distinct)

    texts = [str(query) for query in distinct]
    started = perf_counter()
    for text in texts:
        PathExpression.parse(text)
    layers["queries.parse_us"] = \
        (perf_counter() - started) / len(texts) * 1e6
    return Inputs(graph, workload.queries, distinct)
