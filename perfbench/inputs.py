"""Seeded inputs: the generated documents and the request sequences.

Documents come from ``repro.datasets`` and are handed to the program as XML
text; requests are plain dicts.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datasets import (
    DBLP_PAPER_FREQUENCIES,
    DBLPConfig,
    XMarkConfig,
    dblp_workload,
    generate_dblp,
    generate_xmark,
    xmark_workload,
)
from repro.xmltree import to_xml_string

ALGORITHMS = ("validrtf", "maxmatch")


# ---------------------------------------------------------------------- #
# paper-memory
# ---------------------------------------------------------------------- #
def paper_documents() -> Dict[str, str]:
    """The paper's two datasets at their ``repro.datasets`` defaults."""
    return {
        "dblp": to_xml_string(generate_dblp(DBLPConfig())),
        "xmark-data2": to_xml_string(
            generate_xmark(XMarkConfig(scale="data2"))),
    }


def paper_queries() -> List[Tuple[str, str]]:
    """``(dataset, query)`` for every Section 5.1 workload query."""
    return ([("dblp", query.text) for query in dblp_workload()]
            + [("xmark-data2", query.text) for query in xmark_workload()])


def paper_rounds(seed: int) -> Iterator[List[Tuple[str, str, str]]]:
    """Endless rounds of ``(dataset, query, algorithm)`` requests.

    Each round runs every workload query once with each algorithm, in a
    seeded order, the algorithm alternating between consecutive requests.
    Every round holds the same requests, so the cost mix of every run is
    the same, whatever the seed.
    """
    rng = random.Random(seed)
    queries = paper_queries()
    while True:
        orders = [rng.sample(queries, len(queries)) for _ in ALGORITHMS]
        yield [(dataset, query, algorithm)
               for pairs in zip(*orders)
               for algorithm, (dataset, query) in zip(ALGORITHMS, pairs)]


# ---------------------------------------------------------------------- #
# served-rank
# ---------------------------------------------------------------------- #
#: Documents the served-rank bibliography is split into.
RANK_PARTITIONS = 8
#: Distinct queries in the served-rank pool: more than the 256-entry
#: per-worker result cache, so the Zipf tail misses.
RANK_POOL = 640
RANK_ZIPF_S = 0.5
RANK_POOL_SEED = 2009
RANK_DRAW_SEED = 2010


def partition_bibliography(xml: str, parts: int) -> Dict[str, str]:
    """Split one bibliography's records into ``parts`` contiguous documents."""
    root = ET.fromstring(xml)
    records = list(root)
    size = -(-len(records) // parts)
    documents = {}
    for index in range(parts):
        part = ET.Element(root.tag, root.attrib)
        part.extend(records[index * size:(index + 1) * size])
        documents[f"part{index}"] = ET.tostring(part, encoding="unicode")
    return documents


def rank_documents() -> Dict[str, str]:
    return partition_bibliography(to_xml_string(generate_dblp(DBLPConfig())),
                                  RANK_PARTITIONS)


@dataclass(frozen=True)
class PoolEntry:
    query: str
    doc_filter: Tuple[str, ...]


def keyword_pool(rng: random.Random, size: int, low: int = 2,
                 high: int = 6) -> List[str]:
    """``size`` distinct 2–6-keyword queries from the DBLP keyword table."""
    keywords = sorted(DBLP_PAPER_FREQUENCIES)
    seen = set()
    pool = []
    while len(pool) < size:
        words = tuple(sorted(rng.sample(keywords, rng.randint(low, high))))
        if words not in seen:
            seen.add(words)
            pool.append(" ".join(words))
    return pool


def rank_pool(doc_ids: Sequence[str]) -> List[PoolEntry]:
    """The Zipf-ranked pool; entry 0 is the most popular.

    The pool is the same for every seed, because its queries set what a
    cache miss costs.
    """
    rng = random.Random(RANK_POOL_SEED)
    entries = []
    for query in keyword_pool(rng, RANK_POOL):
        chosen = rng.sample(list(doc_ids), rng.randint(2, 4))
        entries.append(PoolEntry(query, tuple(sorted(chosen))))
    return entries


#: One block of served-rank operations: 60% ``rank``, 25% corpus search,
#: 15% filtered search, shuffled per block so every run has the same mix.
RANK_BLOCK = ("rank",) * 12 + ("search",) * 5 + ("filtered",) * 3


def rank_draw(pool: Sequence[PoolEntry], count: int
              ) -> List[Dict[str, object]]:
    """``count`` requests drawn Zipf-skewed from ``pool``: 60% ``rank``
    (top 5, early-terminated), 25% search, 15% filtered search.

    The draw is fixed; only its order depends on the seed
    (:func:`rank_sequence`).
    """
    rng = random.Random(RANK_DRAW_SEED)
    weights = [1.0 / (rank + 1) ** RANK_ZIPF_S for rank in range(len(pool))]
    requests: List[Dict[str, object]] = []
    while len(requests) < count:
        for kind in rng.sample(RANK_BLOCK, len(RANK_BLOCK)):
            entry = rng.choices(pool, weights)[0]
            if kind == "rank":
                requests.append({"op": "rank", "query": entry.query,
                                 "top_k": 5, "early_terminate": True})
            elif kind == "search":
                requests.append({"op": "search", "query": entry.query})
            else:
                requests.append({"op": "search", "query": entry.query,
                                 "doc_filter": list(entry.doc_filter)})
    return requests[:count]


def rank_sequence(seed: int, pool: Sequence[PoolEntry], warmup: int,
                  measured: int):
    """The set-up's first request, the warm-up and the measured requests.

    Each part holds the same requests for every seed; the seed shuffles
    the warm-up and the measured part.  Drawing the requests per seed
    moved the median latency by about a sixth between seeds, with the
    cache hit ratio.
    """
    draw = rank_draw(pool, 1 + warmup + measured)
    first, warm, timed = draw[0], draw[1:1 + warmup], draw[1 + warmup:]
    rng = random.Random(seed)
    rng.shuffle(warm)
    rng.shuffle(timed)
    return first, warm, timed


# ---------------------------------------------------------------------- #
# served-writes
# ---------------------------------------------------------------------- #
WRITE_DOCUMENTS = 8
WRITE_PUBLICATIONS = 20
#: An explicit ``compact`` op follows every this many writes.
COMPACT_EVERY = 8
#: Deletes leave at least this many live documents.
MIN_LIVE = 4
#: One block of served-writes operations: 80% search, 15% update, 5%
#: delete, shuffled per block so every run has the same mix.
WRITE_BLOCK = ("search",) * 16 + ("update",) * 3 + ("delete_doc",)


def write_document(seed: int, version: int) -> str:
    """One regenerated bibliography document (``version`` varies content).

    Keywords are planted at the density of the default 400-publication
    bibliography, scaled to the smaller document.
    """
    scale = DBLPConfig().keyword_scale * WRITE_PUBLICATIONS \
        / DBLPConfig().publications
    return to_xml_string(generate_dblp(DBLPConfig(
        publications=WRITE_PUBLICATIONS, keyword_scale=scale,
        seed=seed * 100003 + version)))


def write_documents(seed: int) -> Dict[str, str]:
    return {f"doc{index}": write_document(seed, index)
            for index in range(WRITE_DOCUMENTS)}


def write_queries() -> List[str]:
    """The read pool: the DBLP workload, small enough to fit every cache."""
    return [query.text for query in dblp_workload()]


@dataclass
class WriteOp:
    op: str
    doc: Optional[str] = None
    xml: Optional[str] = None
    query: Optional[str] = None
    algorithm: Optional[str] = None

    def message(self) -> Dict[str, object]:
        if self.op == "search":
            return {"op": "search", "query": self.query,
                    "algorithm": self.algorithm}
        if self.op == "update":
            return {"op": "update", "doc": self.doc, "xml": self.xml}
        if self.op == "delete_doc":
            return {"op": "delete_doc", "doc": self.doc}
        return {"op": "compact"}


def write_ops(seed: int, initial: Sequence[str]) -> Iterator[WriteOp]:
    """Blocks of 16 searches, 3 updates and 1 delete, in a seeded order.

    The document a block deletes comes back as one of the next block's
    updates; a ``compact`` follows every :data:`COMPACT_EVERY` writes.
    """
    rng = random.Random(seed * 15485863 + 3)
    queries = write_queries()
    live = list(initial)
    readd: List[str] = []
    version = len(initial)
    writes = 0
    while True:
        returning, readd = readd, []
        for kind in rng.sample(WRITE_BLOCK, len(WRITE_BLOCK)):
            if kind == "search":
                op = WriteOp("search", query=rng.choice(queries),
                             algorithm=rng.choice(ALGORITHMS))
            elif kind == "update" or len(live) <= MIN_LIVE:
                version += 1
                if returning:
                    doc = returning.pop()
                    live.append(doc)
                else:
                    doc = rng.choice(sorted(live))
                op = WriteOp("update", doc=doc,
                             xml=write_document(seed, version))
            else:
                doc = rng.choice(sorted(live))
                live.remove(doc)
                readd.append(doc)
                op = WriteOp("delete_doc", doc=doc)
            yield op
            if op.op != "search":
                writes += 1
                if writes % COMPACT_EVERY == 0:
                    yield WriteOp("compact")
