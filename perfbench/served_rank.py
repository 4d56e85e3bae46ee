"""served-rank: the TCP service under open-loop ranked and search traffic.

The service runs in a child process with its default ``ServiceConfig``
(one pool worker) over a memory corpus: one DBLP bibliography
split into 8 documents, so rare terms sit in few documents and the score
bounds of early-terminated ``rank`` discriminate.  Two connections send
requests at one fixed rate; queries are drawn Zipf-skewed from a pool
larger than the per-worker result cache, so the run has hits and misses.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import CorpusSearchEngine
from repro.service import (
    ServiceConfig,
    encode_message,
    ok_response,
    rank_stats_payload,
    ranking_payload,
    result_payload,
)
from repro.xmltree import parse_string

import benchlib
import inputs
import replay
from openloop import OpenLoopReport, busy_rate, run_open_loop
from spans import Tracer

#: Offered load, requests per second over both connections.
RATE = 50.0
CONNECTIONS = 2
#: Passes over the same request sequence, each on a freshly set-up server.
PASSES = 4
WARMUP_REQUESTS = 200
#: Traced runs replay every this many-th request in process.
REPLAY_EVERY = 4


def _setup(work, first_request: Dict[str, object]):
    """Generate and write the documents, start the server, answer once."""
    started = time.perf_counter()
    documents = inputs.rank_documents()
    docs_dir = work / "docs"
    docs_dir.mkdir(exist_ok=True)
    for doc_id, xml in documents.items():
        (docs_dir / f"{doc_id}.xml").write_text(xml, encoding="utf-8")
    server = benchlib.ServerProcess(["--docs", str(docs_dir)])
    try:
        client = benchlib.LineClient(server.port)
        first = (first_request, client.call(first_request))
        client.close()
    except BaseException:
        server.kill()
        raise
    return time.perf_counter() - started, server, first


def direct_engine(documents: Dict[str, str]) -> CorpusSearchEngine:
    """The served corpus, built the same way, without a result cache."""
    trees = {doc_id: parse_string(xml, doc_id)
             for doc_id, xml in documents.items()}
    return CorpusSearchEngine.from_trees(trees,
                                         shard_count=ServiceConfig().shards)


def _rank_reply(ranked) -> bytes:
    return encode_message(ok_response(
        ranking=ranking_payload(ranked.ranked),
        rank_stats=rank_stats_payload(ranked)))


def _search_reply(result) -> bytes:
    return encode_message(ok_response(result=result_payload(result)))


def expected_reply(engine: CorpusSearchEngine, request: Dict[str, object]):
    """The canonical reply bytes of one request, from the direct engine."""
    if request["op"] == "rank":
        ranked = engine.rank_search(request["query"], "validrtf",
                                    top_k=request["top_k"],
                                    early_terminate=True)
        return _rank_reply(ranked), ranked
    result = engine.search(request["query"], "validrtf",
                           doc_filter=request.get("doc_filter"))
    return _search_reply(result), None


def check_replies(engine, replies, outcome) -> None:
    """Wire bytes against the direct engine; early-terminated rank against
    exhaustive rank."""
    expected: Dict[str, bytes] = {}
    for request, raw in replies:
        key = json.dumps(request, sort_keys=True)
        if key not in expected:
            reply, ranked = expected_reply(engine, request)
            expected[key] = reply
            if ranked is not None:
                exhaustive = engine.rank_search(
                    request["query"], "validrtf", top_k=request["top_k"])
                if ranking_payload(exhaustive.ranked) != \
                        ranking_payload(ranked.ranked):
                    outcome.mismatch(f"rank {request['query']!r}: early "
                                     f"termination changed the ranking")
        outcome.attempted += 1
        if raw is None:
            outcome.mismatch(f"{request['op']} {request['query']!r}: no reply")
        elif raw != expected[key]:
            outcome.mismatch(f"{request['op']} {request['query']!r}: wire "
                             f"reply differs from the direct engine")
    outcome.report["distinct_requests_checked"] = len(expected)


def _replay(engine, tracer: Tracer, counts: replay.StageCounts, rid: int,
            wire) -> Tuple[bytes, bool]:
    """Replay one wire request in process under spans.

    The wire span is the root; the replay runs after it, as its child by
    request id.  Returns the replayed reply and whether the stage-by-stage
    decomposition agreed with each document engine.
    """
    request = wire.request
    root = tracer.record("wire", wire.sent, wire.received, rid,
                         op=request["op"])
    agreed = True
    with tracer.span("replay", rid, parent=root.span_id):
        parsed = replay.parse_query(tracer, rid, request["query"])
        if request["op"] == "rank":
            with tracer.span("corpus.rank", rid) as span:
                ranked = engine.rank_search(parsed, "validrtf",
                                            top_k=request["top_k"],
                                            early_terminate=True)
            span.notes.update(visited=ranked.docs_visited,
                              selected=ranked.docs_selected)
            with tracer.span("service.encode", rid):
                reply = _rank_reply(ranked)
            return reply, agreed
        doc_filter = request.get("doc_filter")
        with tracer.span("corpus.search", rid):
            result = engine.search(parsed, "validrtf", doc_filter=doc_filter)
        with tracer.span("service.encode", rid):
            reply = _search_reply(result)
        # Each selected document once more: whole, to split the corpus call
        # into dispatch and engine time, then stage by stage.
        for doc_id in doc_filter or engine.doc_ids:
            document = engine.document_engine(doc_id)
            with tracer.span("doc.engine", rid, doc=doc_id):
                whole = document.search(parsed, "validrtf")
            staged = replay.replay_search(tracer, rid, document, parsed,
                                          "validrtf", counts)
            agreed &= result_payload(staged) == result_payload(whole)
    return reply, agreed


def _trace_metrics(engine, report, tracer: Tracer, outcome) -> None:
    counts = replay.StageCounts()
    overheads: List[float] = []
    dispatch: List[float] = []
    searches = 0
    for rid, sample in enumerate(report.samples):
        if rid % REPLAY_EVERY or sample.raw is None:
            continue
        first_span = len(tracer.spans)
        reply, agreed = _replay(engine, tracer, counts, rid, sample)
        if reply != sample.raw or not agreed:
            outcome.invalid_reason = (f"the replay of request {rid} differs "
                                      f"from its wire reply")
        spans = tracer.spans[first_span:]
        call = sum(span.duration for span in spans
                   if span.name in ("corpus.rank", "corpus.search",
                                    "service.encode"))
        overheads.append(1000.0 * (sample.received - sample.sent - call))
        if sample.request["op"] == "search":
            searches += 1
            dispatch.append(1000.0 * sum(
                span.duration if span.name == "corpus.search"
                else -span.duration
                for span in spans if span.name in ("corpus.search",
                                                   "doc.engine")))
    # Stage spans exist for replayed searches only; rank requests are
    # timed whole (corpus.rank).
    replay.stage_metrics(tracer, counts, searches, outcome)
    outcome.metric("service.encode_ms", tracer.mean_ms("service.encode"),
                   "ms")
    outcome.metric("service.overhead_ms", benchlib.median(overheads), "ms")
    if dispatch:
        outcome.metric("corpus.dispatch_ms", benchlib.median(dispatch), "ms")
    outcome.metric("corpus.rank_ms", tracer.mean_ms("corpus.rank"), "ms")
    outcome.metric("corpus.rank.visit_ratio", _visit_ratio(tracer), "ratio")
    outcome.report["replayed_requests"] = len(overheads)
    outcome.report["replay_note"] = (
        "replays recompute every answer; the server may have answered the "
        "same request from its result cache")


def _visit_ratio(tracer: Tracer) -> float:
    spans = tracer.by_name("corpus.rank")
    visited = sum(span.notes.get("visited", 0) for span in spans)
    selected = sum(span.notes.get("selected", 0) for span in spans)
    return visited / selected if selected else 0.0


@dataclass
class Pass:
    """One set-up and one open-loop pass, with the server's own figures."""

    setup_s: float
    peak_rss_mb: float
    first: Tuple[Dict[str, object], bytes]
    report: OpenLoopReport
    before: Dict[str, object]
    after: Dict[str, object]

    def cache_delta(self, key: str) -> int:
        return (self.after["pool"]["cache"][key]
                - self.before["pool"]["cache"][key])


def _pass(work, sequence) -> Pass:
    """One set-up and one open-loop pass of the request sequence."""
    first_request, warmup, requests = sequence
    took, server, first = _setup(work, first_request)
    try:
        control = benchlib.LineClient(server.port)
        for request in warmup:
            control.call(request)
        before = json.loads(control.call({"op": "stats"}))["stats"]
        report = run_open_loop(
            lambda _: benchlib.LineClient(server.port), requests, RATE,
            CONNECTIONS)
        after = json.loads(control.call({"op": "stats"}))["stats"]
        control.close()
    finally:
        server.stop()
    return Pass(took, server.peak_rss_mb, first, report, before, after)


def run(seed: int, seconds: float, trace: bool) -> benchlib.Outcome:
    """``PASSES`` passes, each on a fresh server, of the same sequence.

    A request's latency is the best over the passes (best-of-N): the passes
    send identical schedules to identically started servers, so
    interference from other processes, which hits some passes and not
    others, drops out.  ``ops_per_s`` is the service's capacity on that
    schedule: requests over the time at least one of them was in service.
    Completed over wall time would only repeat the offered rate.
    """
    outcome = benchlib.Outcome()
    documents = inputs.rank_documents()
    pool = inputs.rank_pool(sorted(documents))
    sequence = inputs.rank_sequence(seed, pool, WARMUP_REQUESTS,
                                    int(RATE * seconds / PASSES))
    requests = sequence[2]
    work = benchlib.fresh_work_dir("served-rank")
    try:
        passes = [_pass(work, sequence) for _ in range(PASSES)]
    finally:
        benchlib.remove_work_dir(work)
    reports = [one.report for one in passes]
    outcome.metric("setup_s", statistics.median(
        one.setup_s for one in passes), "s")
    outcome.report["setup_s_samples"] = [one.setup_s for one in passes]
    outcome.metric("peak_rss_mb", statistics.median(
        one.peak_rss_mb for one in passes), "MB")
    outcome.report["peak_rss_mb_samples"] = [one.peak_rss_mb
                                             for one in passes]
    for report in reports:
        if report.invalid_reason:
            outcome.invalid_reason = report.invalid_reason
    best = {index: min(report.samples[index].latency_ms
                       for report in reports
                       if report.samples[index].raw is not None)
            for index in range(len(requests))
            if any(report.samples[index].raw is not None
                   for report in reports)}
    outcome.metric("ops_per_s", busy_rate(
        [index / RATE for index in best], list(best.values())), "1/s")
    outcome.report["completed_over_wall_per_s"] = [
        len(report.completed) / report.wall_s for report in reports]
    outcome.report["series"] = [[sample.latency_ms
                                 for sample in report.samples]
                                for report in reports]
    benchlib.latency_metrics(outcome, "read", list(best.values()), (50, 90))
    outcome.metric("read_p90_raw_ms", benchlib.percentile(
        [sample.latency_ms for report in reports
         for sample in report.completed], 90), "ms")

    hits = sum(one.cache_delta("hits") for one in passes)
    misses = sum(one.cache_delta("misses") for one in passes)
    outcome.metric("core.cache.hit_ratio",
                   hits / (hits + misses) if hits + misses else 0.0, "ratio")
    last = passes[-1].after
    outcome.metric("service.batcher.queue_wait_ms",
                   last["batcher"]["mean_queue_wait_ms"], "ms")
    outcome.metric("service.batcher.mean_batch",
                   last["batcher"]["mean_batch_size"], "count")
    outcome.metric("service.admission.peak_inflight",
                   last["admission"]["peak_inflight"], "count")
    outcome.metric("service.admission.rejected",
                   sum(one.after["admission"]["rejected"] for one in passes),
                   "count")
    outcome.report["generator_lateness"] = [report.lateness()
                                            for report in reports]
    outcome.report["offered_rate_per_s"] = RATE

    engine = direct_engine(documents)
    if trace:
        tracer = Tracer()
        _trace_metrics(engine, reports[-1], tracer, outcome)
        started = time.perf_counter()
        for doc_id, xml in documents.items():
            parse_string(xml, doc_id)
        outcome.metric("xmltree.parse_ms", benchlib.elapsed_ms(started)
                       / len(documents), "ms")
        outcome.report["tracer"] = tracer
    check_replies(engine, [one.first for one in passes]
                  + [(sample.request, sample.raw) for report in reports
                     for sample in report.samples], outcome)
    outcome.report["sizes"] = {
        "documents": {doc_id: {"xml_bytes": len(xml.encode("utf-8")),
                               "nodes": len(engine.trees[doc_id])}
                      for doc_id, xml in documents.items()},
        "distinct_queries": len(pool),
        "result_cache_per_worker": ServiceConfig().cache_size,
        "pool_exceeds_result_cache": len(pool) > ServiceConfig().cache_size,
        "workers": benchlib.SERVED_WORKERS,
    }
    outcome.report["inputs"] = {
        "documents": {doc_id: benchlib.digest(xml)
                      for doc_id, xml in documents.items()},
        "requests": benchlib.digest(json.dumps(requests, sort_keys=True)),
    }
    return outcome
