"""served-writes: reads beside the storage write path, in a closed loop.

The service runs in a child process with its default ``ServiceConfig``
(one pool worker, no background compactor) over a tree-free
segmented sqlite corpus in a file database under a fresh directory.  One
connection sends about 80% ``search``, 15% ``update`` (a regenerated
document) and 5% ``delete_doc`` (re-added later), plus a ``compact`` every
few writes, waiting for each reply.  Every write invalidates the pool's
engines, so reads after it are cold.  The run is sequential: it does not
exercise readers racing a compaction.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import CorpusSearchEngine
from repro.service import (
    ServiceConfig,
    encode_message,
    ok_response,
    result_payload,
)
from repro.storage import (
    DEFAULT_POSTING_LRU_SIZE,
    SegmentedStore,
    verify_database,
)
from repro.xmltree import parse_string

import benchlib
import inputs
import replay
from spans import Tracer

#: Passes over the same operation sequence, each on a fresh database.
PASSES = 4
#: Traced runs split every this many-th replayed read by document.
SPLIT_EVERY = 3


def _first_request() -> Dict[str, object]:
    return {"op": "search", "query": inputs.write_queries()[0],
            "algorithm": "validrtf"}


def _ingest(db, documents: Dict[str, str]) -> None:
    store = SegmentedStore(db)
    try:
        for doc_id, xml in documents.items():
            store.store_tree(parse_string(xml, doc_id), doc_id)
    finally:
        store.close()


def _setup(seed: int, work, repeat: int):
    """Generate, build the database, start the server, answer once."""
    started = time.perf_counter()
    documents = inputs.write_documents(seed)
    db = work / f"corpus{repeat}.db"
    _ingest(db, documents)
    server = benchlib.ServerProcess(["--db", str(db)])
    try:
        client = benchlib.LineClient(server.port)
        first = client.call(_first_request())
    except BaseException:
        server.kill()
        raise
    return time.perf_counter() - started, server, client, documents, db, first


class Record:
    """One operation as sent and answered, with the live set it saw."""

    __slots__ = ("op", "message", "raw", "sent", "received", "version")

    def __init__(self, op, message, raw, sent, received, version):
        self.op = op
        self.message = message
        self.raw = raw
        self.sent = sent
        self.received = received
        self.version = version

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000.0


def _closed_loop(client, seed: int, documents, seconds: float,
                 count: Optional[int]):
    """``count`` operations, or as many as ``seconds`` allow.

    Returns the records and ``states``: ``states[v]`` is the live document
    set after the ``v``-th write, and each record carries the state its
    reply must reflect.
    """
    ops = inputs.write_ops(seed, list(documents))
    live = dict(documents)
    states: List[Dict[str, str]] = [dict(live)]
    records: List[Record] = []
    deadline = time.perf_counter() + seconds
    while (len(records) < count if count is not None
           else time.perf_counter() < deadline):
        op = next(ops)
        message = op.message()
        sent = time.perf_counter()
        raw = client.call(message)
        received = time.perf_counter()
        if op.op == "update":
            live[op.doc] = op.xml
        elif op.op == "delete_doc":
            del live[op.doc]
        if op.op in ("update", "delete_doc"):
            states.append(dict(live))
        records.append(Record(op.op, message, raw, sent, received,
                              len(states) - 1))
    return records, states


class _Oracle:
    """The expected reply to a read: a memory corpus of the documents live
    at that point.  Every pass writes the same sequence, so replies are
    kept by live set and request and computed once for all passes; only
    the latest live set's corpus is kept."""

    def __init__(self) -> None:
        self.replies: Dict[Tuple, bytes] = {}
        self.states_built = 0
        self._live: Optional[Tuple] = None
        self._engine: Optional[CorpusSearchEngine] = None

    def reply(self, state: Dict[str, str], query: str,
              algorithm: str) -> bytes:
        live = tuple(sorted(state.items()))
        key = (live, query, algorithm)
        if key not in self.replies:
            if live != self._live:
                self._engine = CorpusSearchEngine.from_trees(
                    {doc_id: parse_string(xml, doc_id)
                     for doc_id, xml in live})
                self._live = live
                self.states_built += 1
            self.replies[key] = encode_message(ok_response(
                result=result_payload(self._engine.search(
                    query, algorithm))))
        return self.replies[key]


def _check(records: List[Record], states, oracle: _Oracle,
           outcome) -> None:
    """Each read against a memory corpus of the documents live at that
    point; each write's acknowledgement against the expected live set."""
    for record in records:
        outcome.attempted += 1
        reply = json.loads(record.raw)
        if not reply.get("ok"):
            outcome.mismatch(f"{record.op}: {reply.get('error')}")
            continue
        if record.op == "search":
            expected = oracle.reply(states[record.version],
                                    record.message["query"],
                                    record.message["algorithm"])
            if record.raw != expected:
                outcome.mismatch(f"search {record.message['query']!r} after "
                                 f"write {record.version}: differs from a "
                                 f"memory corpus of the live documents")
        elif reply.get("documents") != sorted(states[record.version]):
            outcome.mismatch(f"{record.op} {record.message.get('doc')}: "
                             f"acknowledged live set differs")


class _Mirror:
    """A second database built and written identically, for the replay."""

    def __init__(self, path, documents) -> None:
        _ingest(path, documents)
        self.store = SegmentedStore(path)
        self.engine: Optional[CorpusSearchEngine] = None

    def read_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for doc_id in self.engine.doc_ids:
            stats = self.engine.document_engine(doc_id).source.read_stats()
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals


def _replay_write(mirror: _Mirror, tracer: Tracer, rid: int, root: int,
                  record: Record) -> Tuple[object, str]:
    message = record.message
    if record.op == "update":
        with tracer.span("xmltree.parse", rid, parent=root):
            tree = parse_string(message["xml"], message["doc"])
        with tracer.span("storage.update", rid, parent=root):
            segment = mirror.store.update_document(tree, message["doc"])
        return segment, "segment"
    if record.op == "delete_doc":
        with tracer.span("storage.delete", rid, parent=root):
            segment = mirror.store.delete_document(message["doc"])
        return segment, "segment"
    with tracer.span("storage.compact", rid, parent=root) as span:
        folded = mirror.store.compact()
    span.notes.update(segments=folded["segments"])
    return folded, "compacted"


def _trace(records: List[Record], documents, work, outcome) -> Tracer:
    """Replay the whole sequence against the mirror, under spans."""
    tracer = Tracer()
    counts = replay.StageCounts()
    mirror = _Mirror(work / "mirror.db", documents)
    reads = staged_reads = 0
    cold: List[float] = []
    warm: List[float] = []
    overheads: List[float] = []
    dispatch: List[float] = []
    read_deltas: Dict[str, int] = {}
    try:
        for rid, record in enumerate(records):
            root = tracer.record("wire", record.sent, record.received, rid,
                                 op=record.op).span_id
            reply = json.loads(record.raw)
            if record.op != "search":
                answer, field = _replay_write(mirror, tracer, rid, root,
                                              record)
                mirror.engine = None
                if reply.get(field) != answer or \
                        reply.get("documents") != mirror.store.documents():
                    outcome.invalid_reason = (f"mirror {record.op} {rid} "
                                              f"differs from the wire reply")
                continue
            first_after_write = mirror.engine is None
            if first_after_write:
                with tracer.span("storage.rebuild", rid, parent=root):
                    mirror.engine = CorpusSearchEngine.from_store(
                        mirror.store)
            engine = mirror.engine
            query = record.message["query"]
            algorithm = record.message["algorithm"]
            before = mirror.read_stats()
            with tracer.span("replay", rid, parent=root):
                parsed = replay.parse_query(tracer, rid, query)
                with tracer.span("corpus.search", rid) as read:
                    result = engine.search(parsed, algorithm)
                with tracer.span("service.encode", rid) as encode:
                    replayed = encode_message(ok_response(
                        result=result_payload(result)))
            after = mirror.read_stats()
            for key, value in after.items():
                read_deltas[key] = read_deltas.get(key, 0) + value - \
                    before.get(key, 0)
            overheads.append(1000.0 * (record.received - record.sent
                                       - read.duration - encode.duration))
            if replayed != record.raw:
                outcome.invalid_reason = (f"replayed read {rid} differs "
                                          f"from its wire reply")
            reads += 1
            if first_after_write:
                again = time.perf_counter()
                engine.search(parsed, algorithm)
                cold.append(read.duration * 1000.0)
                warm.append(benchlib.elapsed_ms(again))
            if reads % SPLIT_EVERY:
                continue
            # Split one warm corpus read into dispatch and per-document
            # engine time, then replay each document stage by stage.
            staged_reads += 1
            with tracer.span("doc.split", rid, parent=root):
                with tracer.span("corpus.search.warm", rid) as corpus_call:
                    engine.search(parsed, algorithm)
                per_doc = 0.0
                for doc_id in engine.doc_ids:
                    document = engine.document_engine(doc_id)
                    with tracer.span("doc.engine", rid) as whole_span:
                        whole = document.search(parsed, algorithm)
                    per_doc += whole_span.duration
                    staged = replay.replay_search(tracer, rid, document,
                                                  parsed, algorithm, counts)
                    if result_payload(staged) != result_payload(whole):
                        outcome.invalid_reason = (f"staged replay of read "
                                                  f"{rid} differs")
            dispatch.append(1000.0 * (corpus_call.duration - per_doc))
    finally:
        mirror.store.close()
    replay.stage_metrics(tracer, counts, staged_reads, outcome)
    outcome.metric("service.encode_ms", tracer.mean_ms("service.encode"),
                   "ms")
    outcome.metric("service.overhead_ms", benchlib.median(overheads), "ms")
    outcome.metric("corpus.dispatch_ms", benchlib.median(dispatch), "ms")
    outcome.metric("xmltree.parse_ms", tracer.mean_ms("xmltree.parse"), "ms")
    for name in ("storage.update", "storage.delete", "storage.compact",
                 "storage.rebuild"):
        outcome.metric(f"{name}_ms", tracer.mean_ms(name), "ms")
    outcome.metric("storage.keyword_nodes_ms",
                   outcome.metrics["index.keyword_nodes_ms"][0], "ms")
    outcome.metric("storage.cold_over_warm",
                   sum(cold) / sum(warm) if warm else 0.0, "ratio")
    compactions = tracer.by_name("storage.compact")
    outcome.metric("storage.compact.segments_folded",
                   sum(span.notes["segments"] for span in compactions)
                   / max(len(compactions), 1), "count")
    hits = read_deltas.get("lru_hits", 0)
    lookups = hits + read_deltas.get("lru_misses", 0)
    outcome.metric("storage.lru_hit_ratio", hits / lookups if lookups else 0.0,
                   "ratio")
    outcome.metric("storage.bytes_read", read_deltas.get("bytes", 0)
                   / max(reads, 1), "count")
    outcome.metric("storage.merged_cursors",
                   read_deltas.get("merged_cursors", 0) / max(reads, 1),
                   "count")
    outcome.report["mirror_db_bytes"] = (work / "mirror.db").stat().st_size
    outcome.report["replayed_reads"] = reads
    outcome.report["split_reads"] = staged_reads
    outcome.report["replay_note"] = (
        "reads replay on a mirror database written in the same order; the "
        "server's engine may have been warmer or colder at the time")
    return tracer


@dataclass
class Pass:
    """One set-up and one run of the operation sequence on its database."""

    setup_s: float
    peak_rss_mb: float
    documents: Dict[str, str]
    db: Path
    initial_bytes: int
    first: bytes
    records: List[Record]
    states: List[Dict[str, str]]
    stats: Dict[str, object]


def _pass(seed: int, work, repeat: int, seconds: float,
          count: Optional[int]) -> Pass:
    took, server, client, documents, db, first = _setup(seed, work, repeat)
    try:
        initial_bytes = db.stat().st_size
        records, states = _closed_loop(client, seed, documents, seconds,
                                       count)
        stats = json.loads(client.call({"op": "stats"}))["stats"]
    finally:
        client.close()
        server.stop()
    return Pass(took, server.peak_rss_mb, documents, db, initial_bytes,
                first, records, states, stats)


def run(seed: int, seconds: float, trace: bool) -> benchlib.Outcome:
    """``PASSES`` passes of the same operation sequence, each on a fresh
    database and server.

    The first pass runs for its share of ``seconds``; the others run the
    same number of operations.  Each operation meets the same database
    state in every pass, so its latency is the best over the passes
    (best-of-N).
    """
    outcome = benchlib.Outcome()
    work = benchlib.fresh_work_dir("served-writes")
    try:
        passes = [_pass(seed, work, 0, seconds / PASSES, None)]
        passes += [_pass(seed, work, repeat, 0.0, len(passes[0].records))
                   for repeat in range(1, PASSES)]
        _measure(passes, outcome)
        last = passes[-1]
        if trace:
            outcome.report["tracer"] = _trace(last.records, last.documents,
                                              work, outcome)
        oracle = _Oracle()
        for one in passes:
            _check([Record("search", _first_request(), one.first, 0.0, 0.0,
                           0)] + one.records, one.states, oracle, outcome)
            report = verify_database(one.db)
            if not report.clean:
                outcome.mismatch(f"verify_database: {report.render()}")
        outcome.report["distinct_states_checked"] = oracle.states_built
        outcome.report["db_flush_policy"] = benchlib.flush_policy(last.db)
        _describe(last, outcome)
    finally:
        benchlib.remove_work_dir(work)
    return outcome


def _measure(passes: List[Pass], outcome) -> None:
    outcome.metric("setup_s", statistics.median(
        one.setup_s for one in passes), "s")
    outcome.report["setup_s_samples"] = [one.setup_s for one in passes]
    outcome.metric("peak_rss_mb", statistics.median(
        one.peak_rss_mb for one in passes), "MB")
    records = passes[0].records
    best = [min(one.records[index].latency_ms for one in passes)
            for index in range(len(records))]
    outcome.report["series"] = [[record.op for record in records]] + [
        [record.latency_ms for record in one.records] for one in passes]
    outcome.metric("ops_per_s", 1000.0 * len(best) / sum(best), "1/s")

    def latencies(*ops: str) -> List[float]:
        return [latency for record, latency in zip(records, best)
                if record.op in ops]

    benchlib.latency_metrics(outcome, "read", latencies("search"), (50, 90))
    outcome.metric("read_p90_raw_ms", benchlib.percentile(
        [record.latency_ms for one in passes for record in one.records
         if record.op == "search"], 90), "ms")
    benchlib.latency_metrics(outcome, "write",
                             latencies("update", "delete_doc"), (50, 90))
    compacts = latencies("compact")
    if compacts:
        outcome.metric("compact_ms", benchlib.median(compacts), "ms")

    last = passes[-1]
    live_bytes = sum(len(xml.encode("utf-8"))
                     for xml in last.states[-1].values())
    pages = benchlib.page_stats(last.db)
    db_bytes = last.db.stat().st_size
    outcome.metric("db_bytes_per_xml_byte", db_bytes / live_bytes, "ratio")
    outcome.metric("storage.free_page_share",
                   pages["freelist_count"] / pages["page_count"], "ratio")
    updates = sum(1 for r in records if r.op == "update")
    outcome.metric("storage.bytes_per_update",
                   (db_bytes - last.initial_bytes) / max(updates, 1),
                   "count")
    hits = sum(one.stats["pool"]["cache"]["hits"] for one in passes)
    lookups = hits + sum(one.stats["pool"]["cache"]["misses"]
                         for one in passes)
    outcome.metric("core.cache.hit_ratio", hits / lookups if lookups else 0.0,
                   "ratio")
    outcome.report["op_counts"] = {
        op: sum(1 for r in records if r.op == op)
        for op in ("search", "update", "delete_doc", "compact")}
    outcome.report["db_bytes"] = {"initial": last.initial_bytes,
                                  "final": db_bytes, "pages": pages}


def _describe(last: Pass, outcome) -> None:
    """Sizes and input digests."""
    queries = inputs.write_queries()
    distinct = len(queries) * len(inputs.ALGORITHMS)
    cache_size = ServiceConfig().cache_size
    outcome.report["sizes"] = {
        "documents": {doc_id: {"xml_bytes": len(xml.encode("utf-8")),
                               "nodes": sum(1 for _ in parse_string(
                                   xml, doc_id).iter_preorder())}
                      for doc_id, xml in last.documents.items()},
        "distinct_queries": distinct,
        "result_cache_per_worker": cache_size,
        "pool_fits_result_cache": distinct <= cache_size,
        "distinct_keywords": len({word for query in queries
                                  for word in query.split()}),
        "posting_lru": DEFAULT_POSTING_LRU_SIZE,
        "workers": benchlib.SERVED_WORKERS,
    }
    outcome.report["inputs"] = {
        "documents": {doc_id: benchlib.digest(xml)
                      for doc_id, xml in last.documents.items()},
        "operations": benchlib.digest(json.dumps(
            [r.message for r in last.records], sort_keys=True)),
    }
