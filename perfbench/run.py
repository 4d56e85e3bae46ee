"""Run the repository benchmark: one workload, or all of them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-memory --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every metric measured is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` lists (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``).  The exit code is not 0
when an answer differs from its oracle, a traced replay differs from the
answer it replays, or the load generator fell behind.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Dict, List, Tuple

import benchlib

WORKLOADS = {
    "paper-memory": "paper_memory",
    "served-rank": "served_rank",
    "served-writes": "served_writes",
}


def _spec() -> Dict[str, object]:
    with open(benchlib.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _selected(spec, outcome: benchlib.Outcome, trace: bool
              ) -> Dict[str, Dict[str, object]]:
    """The metrics ``BENCHMARK.json`` asks for, with its units."""
    selected = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in outcome.metrics:
            raise RuntimeError(f"the run measured no {name}")
        value, unit = outcome.metrics[name]
        if unit != entry["unit"]:
            raise RuntimeError(f"{name} measured in {unit}, "
                               f"BENCHMARK.json says {entry['unit']}")
        selected[name] = {"value": value, "unit": unit}
    return selected


def _print_table(workload: str, seed: int, trace: bool,
                 outcome: benchlib.Outcome, gated: set) -> None:
    print(f"== {workload}  seed={seed}  trace={int(trace)}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted \
        else 0.0
    rows: List[Tuple[str, float, str]] = sorted(
        (name, value, unit) for name, (value, unit) in outcome.metrics.items())
    rows.append(("error_rate", error_rate, "share"))
    for name, value, unit in rows:
        mark = "*" if name in gated else " "
        print(f" {mark} {name:<34} {value:>14.4f} {unit}")
    print(f"   attempted={outcome.attempted} failed={outcome.failed}  "
          f"(* = listed in BENCHMARK.json)")
    for detail in outcome.mismatches:
        print(f"   MISMATCH {detail}")
    if outcome.invalid_reason:
        print(f"   INVALID {outcome.invalid_reason}")


def _write_report(workload: str, seed: int, trace: bool,
                  outcome: benchlib.Outcome) -> None:
    report = dict(outcome.report)
    tracer = report.pop("tracer", None)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    benchlib.OUT.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": benchlib.environment(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "mismatches": outcome.mismatches,
        "invalid_reason": outcome.invalid_reason,
        **report,
    }
    with open(benchlib.OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write(benchlib.OUT / f"{stem}-spans.json")
    print(f"   environment: {json.dumps(payload['environment'])}")
    for key in ("sizes", "inputs", "tail_samples", "generator_lateness",
                "db_flush_policy", "op_counts"):
        if key in payload:
            print(f"   {key}: {json.dumps(payload[key], sort_keys=True)}")
    print(f"   report: {benchlib.OUT / (stem + '.json')}")


def run_one(spec, workload: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[benchlib.Outcome, Dict[str, Dict[str, object]]]:
    module = importlib.import_module(WORKLOADS[workload])
    outcome = module.run(seed, seconds, trace)
    gated = {entry["name"]
             for entry in spec["per_layer" if trace else "end_to_end"]}
    _print_table(workload, seed, trace, outcome, gated)
    _write_report(workload, seed, trace, outcome)
    return outcome, _selected(spec, outcome, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    try:
        benchlib.require_program()
        spec = _spec()
    except (benchlib.ProgramMissing, OSError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    seconds = arguments.seconds or float(spec["run_seconds"])
    trace = bool(arguments.trace)
    workloads = list(WORKLOADS) if arguments.workload == "all" \
        else [arguments.workload]
    results = [(workload, *run_one(spec, workload, arguments.seed, seconds,
                                   trace))
               for workload in workloads]
    line, code = summarize(results)
    print(json.dumps(line))
    return code


def summarize(results) -> Tuple[Dict[str, object], int]:
    """The result line and exit code of ``(workload, outcome, metrics)``.

    One oracle mismatch, or one invalid run, makes the whole line incorrect
    and the exit code 1.
    """
    attempted = sum(outcome.attempted for _, outcome, _ in results)
    failed = sum(outcome.failed for _, outcome, _ in results)
    valid = all(outcome.invalid_reason is None for _, outcome, _ in results)
    metrics: Dict[str, Dict[str, object]] = {}
    for workload, _, selected in results:
        prefix = f"{workload}." if len(results) > 1 else ""
        metrics.update({prefix + name: value
                        for name, value in selected.items()})
    correct = failed == 0 and valid and attempted > 0
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, 0 if correct else 1)


if __name__ == "__main__":
    sys.exit(main())
