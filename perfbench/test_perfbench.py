"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import threading
import time

import pytest

import benchlib

benchlib.require_program()

import inputs  # noqa: E402
import paper_memory  # noqa: E402
import run  # noqa: E402
import served_rank  # noqa: E402
from openloop import busy_rate, run_open_loop  # noqa: E402
from spans import Tracer, covered  # noqa: E402

from repro import SearchEngine  # noqa: E402
from repro.datasets import publications_tree  # noqa: E402
from repro.xmltree import to_xml_string  # noqa: E402


# ---------------------------------------------------------------------- #
# Oracles
# ---------------------------------------------------------------------- #
def _paper_answers(engine, query):
    answers = []
    for algorithm in ("validrtf", "maxmatch"):
        result = engine.search(query, algorithm)
        answers.append((("doc", query, algorithm),
                        paper_memory.answer_digest(result),
                        tuple(str(code) for code in result.lca_nodes)))
    return answers


def test_paper_oracle_accepts_correct_answers():
    xml = to_xml_string(publications_tree())
    engine = SearchEngine(publications_tree())
    outcome = benchlib.Outcome()
    paper_memory._check(_paper_answers(engine, "xml keyword search"),
                        {"doc": xml}, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 0)


def test_paper_oracle_counts_a_corrupted_answer():
    xml = to_xml_string(publications_tree())
    engine = SearchEngine(publications_tree())
    answers = _paper_answers(engine, "xml keyword search")
    request, _, roots = answers[0]
    answers[0] = (request, "0" * 16, roots)
    outcome = benchlib.Outcome()
    paper_memory._check(answers, {"doc": xml}, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    line, code = run.summarize([("paper-memory", outcome, {})])
    assert line["correct"] is False and line["failed"] == 1 and code == 1


def test_paper_oracle_counts_wrong_lca_roots():
    xml = to_xml_string(publications_tree())
    engine = SearchEngine(publications_tree())
    answers = _paper_answers(engine, "xml keyword search")
    request, answer, _ = answers[1]
    answers[1] = (request, answer, ("0.9",))
    outcome = benchlib.Outcome()
    paper_memory._check(answers, {"doc": xml}, outcome)
    assert outcome.failed == 1
    assert "repro.lca.naive" in outcome.mismatches[0]


def test_wire_oracle_counts_a_corrupted_reply():
    documents = {"a": to_xml_string(publications_tree()),
                 "b": to_xml_string(publications_tree())}
    engine = served_rank.direct_engine(documents)
    search = {"op": "search", "query": "xml keyword"}
    rank = {"op": "rank", "query": "xml keyword", "top_k": 5,
            "early_terminate": True}
    good_search, _ = served_rank.expected_reply(engine, search)
    good_rank, _ = served_rank.expected_reply(engine, rank)
    outcome = benchlib.Outcome()
    corrupted = good_search[:-2] + b',"x":1}\n'
    served_rank.check_replies(engine, [(search, good_search),
                                       (rank, good_rank),
                                       (search, corrupted),
                                       (rank, None)], outcome)
    assert (outcome.attempted, outcome.failed) == (4, 2)


def test_summary_of_a_clean_run_is_correct():
    outcome = benchlib.Outcome()
    outcome.attempted = 3
    line, code = run.summarize([("w", outcome, {"m": {"value": 1.0,
                                                      "unit": "ms"}})])
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"m": {"value": 1.0, "unit": "ms"}}}
    assert code == 0


# ---------------------------------------------------------------------- #
# Percentiles
# ---------------------------------------------------------------------- #
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert benchlib.percentile(values, 50) == 50
    assert benchlib.percentile(values, 90) == 90
    assert benchlib.percentile(values, 99) == 99
    assert benchlib.percentile(list(reversed(values)), 100) == 100
    assert benchlib.percentile([7.0], 99) == 7.0


def test_samples_beyond_the_tail_rank():
    assert benchlib.samples_beyond(100, 90) == 10
    assert benchlib.samples_beyond(1000, 99) == 10
    assert benchlib.samples_beyond(999, 99) == 9
    assert benchlib.samples_beyond(250, 90) == 25
    values = [float(v) for v in range(250)]
    cut = benchlib.percentile(values, 90)
    assert sum(1 for v in values if v > cut) == \
        benchlib.samples_beyond(250, 90)


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def test_covered_merges_and_clips_children():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(1, 3), (2, 5), (8, 12)]) == 6
    assert covered((0, 10), [(-5, 20)]) == 10
    assert covered((0, 10), [(11, 12)]) == 0


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    root = tracer.record("root", 0.0, 10.0, request=1)
    tracer.record("a", 1.0, 3.0, 1, parent=root.span_id)
    child = tracer.record("b", 2.0, 5.0, 1, parent=root.span_id)
    tracer.record("c", 4.0, 4.5, 1, parent=child.span_id)
    later = tracer.record("replay", 12.0, 15.0, 1, parent=root.span_id)
    self_times = tracer.self_times()
    assert self_times[root.span_id] == pytest.approx(6.0)
    assert self_times[child.span_id] == pytest.approx(2.5)
    assert self_times[later.span_id] == pytest.approx(3.0)


def test_nested_spans_share_the_request_and_nest():
    tracer = Tracer()
    with tracer.span("outer", 7) as outer:
        with tracer.span("inner", 7) as inner:
            time.sleep(0.01)
    assert inner.parent == outer.span_id and inner.request == 7
    assert outer.duration >= inner.duration >= 0.01
    assert tracer.self_times()[outer.span_id] == pytest.approx(
        outer.duration - inner.duration)


# ---------------------------------------------------------------------- #
# Open-loop generator
# ---------------------------------------------------------------------- #
class _QueueLink:
    """One FIFO server: each request takes ``service_s`` (the first one
    ``first_s``), after it arrives and after the previous one finished."""

    def __init__(self, service_s: float, first_s: float,
                 send_cost_s: float = 0.0) -> None:
        self.service_s = service_s
        self.first_s = first_s
        self.send_cost_s = send_cost_s
        self.done_at = 0.0
        self.ready = []
        self.lock = threading.Condition()

    def send(self, message) -> None:
        if self.send_cost_s:
            time.sleep(self.send_cost_s)
        with self.lock:
            cost = self.first_s if not self.ready and not self.done_at \
                else self.service_s
            self.done_at = max(self.done_at, time.perf_counter()) + cost
            self.ready.append(self.done_at)
            self.lock.notify_all()

    def receive(self) -> bytes:
        with self.lock:
            while not self.ready:
                self.lock.wait()
            ready = self.ready.pop(0)
        delay = ready - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        return b"{}\n"

    def close(self) -> None:
        pass


def test_latency_counts_from_the_due_time_after_a_stall():
    link = _QueueLink(service_s=0.005, first_s=0.3)
    requests = [{"i": i} for i in range(10)]
    report = run_open_loop(lambda _: link, requests, rate=50.0,
                           connections=1)
    assert report.invalid_reason is None
    samples = report.samples
    # Request 5 is due 100 ms after request 0 but waits for the 300 ms
    # stall: its latency counts that wait, not just its own 5 ms.
    assert samples[5].latency_ms >= 300.0 - 100.0
    assert samples[9].latency_ms < samples[1].latency_ms
    assert set(report.lateness()) == {"p50_ms", "p99_ms", "max_ms"}
    assert report.lateness()["max_ms"] < 100.0


def test_generator_that_falls_behind_marks_the_run_invalid():
    link = _QueueLink(service_s=0.001, first_s=0.001, send_cost_s=0.03)
    requests = [{"i": i} for i in range(20)]
    report = run_open_loop(lambda _: link, requests, rate=100.0,
                           connections=1, max_lag_s=0.1)
    assert report.invalid_reason is not None
    assert "behind" in report.invalid_reason
    assert report.lateness()["max_ms"] > 100.0


def test_missing_replies_mark_the_run_invalid():
    class Mute(_QueueLink):
        def receive(self) -> bytes:
            raise ConnectionError("gone")

    report = run_open_loop(lambda _: Mute(0.001, 0.001), [{"i": 0}],
                           rate=10.0, connections=1)
    assert report.invalid_reason is not None


def test_busy_rate_counts_overlapping_requests_once():
    # Due at 0, 0.1 and 0.2 s; the first two overlap from 0.1 to 0.15 s,
    # so busy time is 0.15 + 0.01 = 0.16 s for 3 requests.
    assert busy_rate([0.0, 0.1, 0.2], [150.0, 20.0, 10.0]) == \
        pytest.approx(3 / 0.16)
    # Twice as slow a service, on the same schedule, halves the rate; the
    # offered rate does not enter.
    assert busy_rate([0.0, 1.0], [4.0, 4.0]) == pytest.approx(
        2 * busy_rate([0.0, 1.0], [8.0, 8.0]))


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
def _canonical(requests):
    return sorted(repr(sorted(request.items())) for request in requests)


def test_seeds_order_the_same_served_rank_requests():
    pool = inputs.rank_pool([f"part{index}" for index in range(8)])
    first_a, warm_a, timed_a = inputs.rank_sequence(1, pool, 30, 50)
    first_b, warm_b, timed_b = inputs.rank_sequence(2, pool, 30, 50)
    assert first_a == first_b
    assert _canonical(warm_a) == _canonical(warm_b)
    assert _canonical(timed_a) == _canonical(timed_b)
    assert timed_a != timed_b
    assert inputs.rank_sequence(1, pool, 30, 50)[2] == timed_a


def test_every_paper_round_holds_every_request_once():
    rounds = inputs.paper_rounds(4)
    first, second = next(rounds), next(rounds)
    expected = {(dataset, query, algorithm)
                for dataset, query in inputs.paper_queries()
                for algorithm in inputs.ALGORITHMS}
    assert sorted(first) == sorted(second) == sorted(expected)
    assert first != second
    assert all(first[index][2] != first[index + 1][2]
               for index in range(len(first) - 1))
