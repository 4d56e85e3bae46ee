"""paper-memory: the paper's own measurement, in process, one caller.

One memory-backed ``SearchEngine`` per document with the library defaults
(tree resident, packed postings, no result cache), the synthetic DBLP
bibliography and XMark ``data2``, and the Section 5.1 workload queries, each
against its own dataset, alternating ``validrtf`` and ``maxmatch``.  Storage
and the service do no work here.

Untraced runs measure in ``WORKERS`` fresh interpreters, one after another,
each running this file with ``--seed`` and ``--seconds``; it prints one
JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import SearchEngine
from repro.lca import naive_elca
from repro.service import encode_message, result_payload
from repro.storage import SQLitePostingSource, SQLiteStore
from repro.xmltree import parse_string

import benchlib
import inputs
import replay
from spans import Tracer

#: Fresh interpreters an untraced run measures in, one after another.
#: The same code ran up to 1.6 times slower in one interpreter than in the
#: next one started seconds later; the run's figures pool every sample of
#: all of them, so no single interpreter sets them.
WORKERS = 5


def _setup(seed: int):
    """Generate, parse, index and answer once; returns the time it took.

    The first answer is checked with every other answer, after the run.
    """
    started = time.perf_counter()
    documents = inputs.paper_documents()
    engines = {name: SearchEngine(parse_string(xml, name))
               for name, xml in documents.items()}
    request = next(inputs.paper_rounds(seed))[0]
    dataset, query, algorithm = request
    result = engines[dataset].search(query, algorithm)
    took = time.perf_counter() - started
    first = (request, answer_digest(result),
             tuple(str(code) for code in result.lca_nodes))
    return took, engines, documents, first


def answer_digest(result) -> str:
    """Digest of one answer's canonical payload (kept instead of the answer,
    so a longer run does not hold more memory)."""
    return benchlib.digest(encode_message(result_payload(result)).decode())


def _closed_loop(engines, seed: int, seconds: float):
    """Whole rounds of requests until ``seconds`` have passed.

    One untimed round runs first, so the timed rounds meet a warm
    interpreter.  Only the engine call is timed; each answer is digested
    between calls for the oracle check after the run.
    """
    answers: List[Tuple[Tuple[str, str, str], str, Tuple[str, ...]]] = []
    latencies: List[float] = []
    rounds = inputs.paper_rounds(seed)
    for dataset, query, algorithm in next(rounds):
        engines[dataset].search(query, algorithm)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for request in next(rounds):
            dataset, query, algorithm = request
            begin = time.perf_counter()
            result = engines[dataset].search(query, algorithm)
            latencies.append(benchlib.elapsed_ms(begin))
            answers.append((request, answer_digest(result),
                            tuple(str(code) for code in result.lca_nodes)))
    return answers, latencies


def _traced_loop(engines, seed: int, seconds: float):
    """Whole rounds, each request replayed stage by stage under spans.

    Returns the tracer, the stage counts, the request count, each request's
    traced time, and why the run is invalid (``None`` when every replay
    equals the engine's answer).
    """
    tracer = Tracer()
    counts = replay.StageCounts()
    rounds = inputs.paper_rounds(seed)
    deadline = time.perf_counter() + seconds
    requests = 0
    timed: List[Tuple[Tuple[str, str, str], float]] = []
    invalid: Optional[str] = None
    while time.perf_counter() < deadline:
        for request in next(rounds):
            dataset, query, algorithm = request
            engine = engines[dataset]
            # The root span covers what the untraced loop times, the
            # search; encoding runs after it, as the untraced digest does.
            with tracer.span("request", requests, dataset=dataset,
                             algorithm=algorithm) as root:
                parsed = replay.parse_query(tracer, requests, query)
                replayed = replay.replay_search(tracer, requests, engine,
                                                parsed, algorithm, counts)
            timed.append((request, root.duration * 1000.0))
            with tracer.span("service.encode", requests):
                encoded = encode_message(result_payload(replayed))
            if encoded != encode_message(
                    result_payload(engine.search(query, algorithm))):
                invalid = (f"traced replay of {query!r} ({algorithm}) "
                           f"differs from the engine's answer")
            requests += 1
    return tracer, counts, requests, timed, invalid


def _check(answers, documents, outcome) -> None:
    """Oracles: a tree-free sqlite engine and ``repro.lca.naive``."""
    oracles = {}
    for name, xml in documents.items():
        store = SQLiteStore()
        store.store_tree(parse_string(xml, name), name)
        oracles[name] = (store, SearchEngine(
            source=SQLitePostingSource(store, name)))
    expected: Dict[Tuple[str, str, str], str] = {}
    naive_roots: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for (dataset, query, algorithm), answer, roots in answers:
        key = (dataset, query, algorithm)
        if key not in expected:
            oracle = oracles[dataset][1]
            expected[key] = answer_digest(oracle.search(query, algorithm))
            if (dataset, query) not in naive_roots:
                naive_roots[(dataset, query)] = tuple(
                    str(code)
                    for code in naive_elca(oracle.keyword_nodes(query)))
        outcome.attempted += 1
        if answer != expected[key]:
            outcome.mismatch(f"{dataset} {algorithm} {query!r}: answer "
                             f"differs from the tree-free sqlite engine")
        elif roots != naive_roots[(dataset, query)]:
            outcome.mismatch(f"{dataset} {algorithm} {query!r}: LCA roots "
                             f"differ from repro.lca.naive")
    for store, _ in oracles.values():
        store.close()
    outcome.report["distinct_requests_checked"] = len(expected)


def measure(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One set-up and one closed loop, in this process.

    With ``trace``, half of ``seconds`` runs untraced and half traced, and
    the result also holds the traced loop's figures.
    """
    took, engines, _, first = _setup(seed)
    answers, latencies = _closed_loop(
        engines, seed, seconds / 2 if trace else seconds)
    result: Dict[str, object] = {"setup_s": took, "first": first,
                                 "answers": answers, "latencies": latencies}
    if trace:
        result["traced"] = _traced_loop(engines, seed, seconds / 2)
    result["peak_rss_kb"] = benchlib.peak_rss_kb()
    return result


def _answer_from_json(answer) -> Tuple[Tuple[str, str, str], str,
                                       Tuple[str, ...]]:
    request, digest_, roots = answer
    return tuple(request), digest_, tuple(roots)


def _worker_result(seed: int, seconds: float) -> Dict[str, object]:
    """:func:`measure` in a fresh interpreter."""
    result = benchlib.run_worker(
        "paper_memory.py", ["--seed", str(seed), "--seconds", repr(seconds)])
    result["first"] = _answer_from_json(result["first"])
    result["answers"] = [_answer_from_json(answer)
                         for answer in result["answers"]]
    return result


def run(seed: int, seconds: float, trace: bool) -> benchlib.Outcome:
    """``WORKERS`` fresh interpreters untraced; this process when traced.

    The end-to-end metrics of a traced run come from one interpreter and
    are not comparable with an untraced run's.
    """
    outcome = benchlib.Outcome()
    if trace:
        results = [measure(seed, seconds, True)]
    else:
        results = [_worker_result(seed, seconds / WORKERS)
                   for _ in range(WORKERS)]
    setups = [result["setup_s"] for result in results]
    outcome.metric("setup_s", benchlib.median(setups), "s")
    outcome.report["setup_s_samples"] = setups
    peaks = [result["peak_rss_kb"] / 1024.0 for result in results]
    outcome.metric("peak_rss_mb", benchlib.median(peaks), "MB")
    outcome.report["peak_rss_mb_samples"] = peaks

    answers = [answer for result in results for answer in result["answers"]]
    latencies = [latency for result in results
                 for latency in result["latencies"]]
    untraced_ops = 1000.0 * len(latencies) / sum(latencies)
    outcome.metric("ops_per_s", untraced_ops, "1/s")
    benchlib.latency_metrics(outcome, "read", latencies, (50, 90))
    outcome.report["series"] = [[[request, latency] for (request, _, _),
                                 latency in zip(result["answers"],
                                                result["latencies"])]
                                for result in results]

    documents = inputs.paper_documents()
    if trace:
        tracer, counts, requests, timed, invalid = results[0]["traced"]
        if invalid:
            outcome.invalid_reason = invalid
        replay.stage_metrics(tracer, counts, requests, outcome)
        outcome.metric("service.encode_ms", tracer.mean_ms(
            "service.encode"), "ms")
        started = time.perf_counter()
        for name, xml in documents.items():
            parse_string(xml, name)
        outcome.metric("xmltree.parse_ms",
                       benchlib.elapsed_ms(started) / len(documents), "ms")
        outcome.metric("core.cache.hit_ratio", 0.0, "ratio")
        traced_ops = 1000.0 * len(timed) / sum(
            latency for _, latency in timed)
        outcome.metric("trace.ops_per_s_delta", untraced_ops - traced_ops,
                       "1/s")
        outcome.report["traced_ops_per_s"] = traced_ops
        outcome.report["tracer"] = tracer

    _check([result["first"] for result in results] + answers, documents,
           outcome)
    outcome.report["sizes"] = {
        "documents": {name: {"xml_bytes": len(xml.encode("utf-8")),
                             "nodes": len(parse_string(xml, name))}
                      for name, xml in documents.items()},
        "distinct_queries": len(inputs.paper_queries()),
        "result_cache": "off (library default)",
        "interpreters": len(results),
    }
    outcome.report["inputs"] = {
        "documents": {name: benchlib.digest(xml)
                      for name, xml in documents.items()},
        "queries": benchlib.digest(repr(inputs.paper_queries())),
    }
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    arguments = parser.parse_args()
    print(json.dumps(measure(arguments.seed, arguments.seconds, False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
