"""Stage-by-stage replay of one document search through public calls.

The replay calls exactly what ``FragmentPipeline.search`` calls, one stage
at a time, so the benchmark can put its own span around each layer:
``Query.parse``, the posting source's ``keyword_nodes``, the algorithm's
``repro.lca`` entry point, ``build_rtfs``, ``FragmentPipeline.record_tree``
and the algorithm's pruner.  Callers compare the replayed answer with the
engine's (or the wire's); a replay that disagrees fails the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import Query, SearchResult
from repro.core.rtf import build_rtfs
from repro.lca import elca_is_slca

from spans import Tracer


@dataclass
class StageCounts:
    """Work counted at the stage boundaries over a whole run."""

    posting_rows: int = 0
    candidates: int = 0
    fragments: int = 0
    raw_nodes: int = 0
    kept_nodes: int = 0


def replay_search(tracer: Tracer, request: int, engine, parsed: Query,
                  algorithm: str, counts: StageCounts) -> SearchResult:
    """One document engine's search, with a span per stage."""
    pipeline = engine.algorithm(algorithm)
    with tracer.span("index.keyword_nodes", request):
        lists = pipeline.source.keyword_nodes(parsed.keywords)
    counts.posting_rows += sum(len(postings) for postings in lists.values())
    with tracer.span("lca", request):
        roots = pipeline.lca_function(lists)
    counts.candidates += len(roots)
    fragments = []
    if roots:
        with tracer.span("core.rtf", request):
            raw = build_rtfs(pipeline.tree, parsed, roots, lists,
                             elca_is_slca(roots))
        for fragment in raw:
            with tracer.span("core.record_tree", request):
                records = pipeline.record_tree(parsed, fragment)
            with tracer.span("core.prune", request):
                pruned = pipeline.pruner(records)
            fragments.append(pruned)
            counts.fragments += 1
            counts.raw_nodes += len(fragment.nodes)
            counts.kept_nodes += len(pruned.kept_nodes)
    return SearchResult(query=parsed, algorithm=pipeline.name,
                        fragments=tuple(fragments), elapsed_seconds=0.0,
                        lca_nodes=tuple(roots))


def parse_query(tracer: Tracer, request: int, text: str) -> Query:
    with tracer.span("text.parse", request):
        return Query.parse(text)


def stage_metrics(tracer: Tracer, counts: StageCounts, staged: int,
                  outcome) -> None:
    """The per-layer metrics every workload reports from its replay.

    ``staged`` is the number of requests replayed stage by stage; stage
    times and counts are per such request, summed over its documents and
    fragments.
    """
    outcome.metric("text.parse_ms", tracer.mean_ms("text.parse"), "ms")
    per_request = max(staged, 1)
    for metric, span in (("index.keyword_nodes_ms", "index.keyword_nodes"),
                         ("lca.ms", "lca"),
                         ("core.rtf_ms", "core.rtf"),
                         ("core.record_tree_ms", "core.record_tree"),
                         ("core.prune_ms", "core.prune")):
        total = sum(s.duration for s in tracer.by_name(span))
        outcome.metric(metric, 1000.0 * total / per_request, "ms")
    outcome.metric("index.posting_rows", counts.posting_rows / per_request,
                   "count")
    outcome.metric("lca.candidates", counts.candidates / per_request, "count")
    outcome.metric("core.rtf.fragments", counts.fragments / per_request,
                   "count")
    outcome.metric("core.rtf.nodes", counts.raw_nodes / per_request, "count")
    outcome.metric("core.prune.kept_ratio",
                   counts.kept_nodes / counts.raw_nodes
                   if counts.raw_nodes else 0.0, "ratio")
