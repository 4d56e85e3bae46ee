"""Host the TCP search service in its own process for the served workloads.

Run from the root of a checkout, with ``src`` importable::

    PYTHONPATH=src python3 perfbench/serve.py --docs DIR
    PYTHONPATH=src python3 perfbench/serve.py --db FILE

``--docs`` serves a memory corpus parsed from every ``*.xml`` file of DIR
(the file stem is the doc id); ``--db`` serves the segmented sqlite corpus
of FILE, which accepts live writes.  The pool has
``benchlib.SERVED_WORKERS`` workers; every other setting is the
``ServiceConfig`` default.  The process prints one JSON line with the bound
port, serves until its standard input closes, then prints one JSON line
with its peak resident memory and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import benchlib


def _memory_corpus_service(docs: Path):
    """A memory-corpus service with ``ServiceConfig`` defaults.

    ``ServiceConfig.build`` takes a single tree, so the same assembly is
    spelled out here for a corpus of parsed documents.
    """
    from repro.obs import MetricsRegistry
    from repro.service import (
        AdmissionController,
        EnginePool,
        RequestBatcher,
        SearchService,
        ServiceConfig,
    )
    from repro.xmltree import parse_string

    config = ServiceConfig(backend="corpus",
                           workers=benchlib.SERVED_WORKERS)
    trees = {path.stem: parse_string(path.read_text(encoding="utf-8"),
                                     path.stem)
             for path in sorted(docs.glob("*.xml"))}
    pool = EnginePool.for_backend(
        config.backend, workers=config.workers, cache_size=config.cache_size,
        shards=config.shards, representation=config.representation,
        trees=trees)
    metrics = MetricsRegistry()
    return SearchService(
        pool,
        batcher=RequestBatcher(pool, config.max_batch_size,
                               config.batch_window_seconds, metrics=metrics),
        admission=AdmissionController(config.max_inflight,
                                      config.timeout_seconds,
                                      metrics=metrics),
        default_cid_mode=config.cid_mode,
        owns_pool=True,
        metrics=metrics,
        slow_query_seconds=config.slow_query_seconds,
    )


def _database_service(db: Path):
    from repro.service import ServiceConfig

    return ServiceConfig(backend="corpus", db_path=str(db),
                         workers=benchlib.SERVED_WORKERS).build()


async def _serve(service) -> None:
    from repro.service import SearchServer

    server = SearchServer(service, "127.0.0.1", 0)
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    # Standard input closing is the stop signal; the parent never writes.
    await loop.run_in_executor(None, sys.stdin.read)
    await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--docs", type=Path)
    source.add_argument("--db", type=Path)
    arguments = parser.parse_args()
    if arguments.docs is not None:
        service = _memory_corpus_service(arguments.docs)
    else:
        service = _database_service(arguments.db)
    asyncio.run(_serve(service))
    print(json.dumps({"peak_rss_kb": benchlib.peak_rss_kb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
