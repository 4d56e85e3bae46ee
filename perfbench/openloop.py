"""Open-loop load: requests are sent on a fixed schedule, replies or not.

Request ``i`` is due at ``start + i / rate`` on connection ``i % C``.  Each
connection has a sender thread, which sleeps until a request is due and
sends it, and a receiver thread, which reads the in-order replies.  Latency
is timed from the due time, so a stall also counts against the requests
queued behind it.  How late the sender ran is reported; a run whose sender
fell more than ``max_lag_s`` behind, or whose replies did not all arrive,
is invalid.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import benchlib
from spans import covered


@dataclass
class Sample:
    index: int
    request: Dict[str, object]
    due: float
    sent: float = 0.0
    received: float = 0.0
    raw: Optional[bytes] = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class OpenLoopReport:
    samples: List[Sample]
    wall_s: float
    invalid_reason: Optional[str] = None
    errors: List[str] = field(default_factory=list)

    @property
    def completed(self) -> List[Sample]:
        return [sample for sample in self.samples if sample.raw is not None]

    def lateness(self) -> Dict[str, float]:
        late = [sample.lateness_ms for sample in self.samples if sample.sent]
        if not late:
            return {}
        return {"p50_ms": benchlib.percentile(late, 50),
                "p99_ms": benchlib.percentile(late, 99),
                "max_ms": max(late)}


def run_open_loop(connect: Callable[[int], object],
                  requests: Sequence[Dict[str, object]], rate: float,
                  connections: int, max_lag_s: float = 1.0,
                  drain_s: float = 30.0) -> OpenLoopReport:
    """Send ``requests`` at ``rate`` per second over ``connections``.

    ``connect(i)`` returns an object with ``send(message)``, ``receive()``
    (one raw reply line) and ``close()``.
    """
    links = [connect(index) for index in range(connections)]
    start = time.perf_counter() + 0.05
    samples = [Sample(index, request, start + index / rate)
               for index, request in enumerate(requests)]
    lanes = [samples[lane::connections] for lane in range(connections)]
    errors: List[str] = []
    sent_counts = [0] * connections
    progress = threading.Condition()

    def sender(lane: int) -> None:
        link = links[lane]
        try:
            for sample in lanes[lane]:
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                link.send(sample.request)
                with progress:
                    sent_counts[lane] += 1
                    progress.notify_all()
        except Exception as error:  # noqa: BLE001 - reported as a failure
            errors.append(f"sender {lane}: {type(error).__name__}: {error}")

    def receiver(lane: int) -> None:
        link = links[lane]
        try:
            for position, sample in enumerate(lanes[lane]):
                with progress:
                    while sent_counts[lane] <= position:
                        if not progress.wait(timeout=drain_s):
                            return
                raw = link.receive()
                sample.received = time.perf_counter()
                sample.raw = raw
        except Exception as error:  # noqa: BLE001 - reported as a failure
            errors.append(f"receiver {lane}: {type(error).__name__}: {error}")

    threads = ([threading.Thread(target=sender, args=(lane,), daemon=True)
                for lane in range(connections)]
               + [threading.Thread(target=receiver, args=(lane,), daemon=True)
                  for lane in range(connections)])
    for thread in threads:
        thread.start()
    schedule_s = len(requests) / rate
    for thread in threads:
        thread.join(timeout=schedule_s + drain_s + 5.0)
    wall = time.perf_counter() - start
    for link in links:
        link.close()
    report = OpenLoopReport(samples, wall, errors=errors)
    if any(thread.is_alive() for thread in threads):
        report.invalid_reason = "the load generator did not finish"
    elif errors:
        report.invalid_reason = errors[0]
    elif len(report.completed) != len(samples):
        report.invalid_reason = (f"{len(samples) - len(report.completed)} "
                                 f"replies never arrived")
    else:
        worst = report.lateness().get("max_ms", 0.0)
        if worst > max_lag_s * 1000.0:
            report.invalid_reason = (f"the generator fell {worst:.0f} ms "
                                     f"behind its schedule")
    return report


def busy_rate(due_s: Sequence[float], latencies_ms: Sequence[float]) -> float:
    """Requests per second of busy time on one schedule.

    Request ``i`` is in service from its due time ``due_s[i]`` until its
    reply, ``latencies_ms[i]`` later; busy time is the length of the union
    of those intervals.  Unlike completed requests over wall time, which an
    open loop holds at the offered rate while the service keeps up, this
    falls when the service gets slower.
    """
    intervals = [(due, due + latency / 1000.0)
                 for due, latency in zip(due_s, latencies_ms)]
    return len(intervals) / covered((0.0, math.inf), intervals)
