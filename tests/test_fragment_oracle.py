"""The fragment stages against a slow definitional reference.

``getRTF``, the constructing step and both pruners run one columnar kernel
for every representation and backend, so comparing two engines cannot catch
a kernel bug.  This suite recomputes every answer straight from the paper's
definitions, node by node, with nothing shared with the kernel but the
per-node filter predicates and the fragment path construction:

* LCA roots from :mod:`repro.lca.naive`, each keyword node assigned to its
  deepest enclosing root, fragment nodes from :func:`dewey_fragment_nodes`;
* every node's key number and cID as the union over the fragment's own
  keyword nodes in its subtree;
* kept nodes from :func:`is_valid_contributor` / :func:`is_contributor`
  applied top-down.

Random trees × all four algorithms × both cid modes × packed and object
posting lists.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core import (
    ALGORITHM_NAMES,
    CID_MODES,
    NodeRecord,
    Query,
    SearchEngine,
    dewey_fragment_nodes,
    is_contributor,
    is_valid_contributor,
)
from repro.lca import naive_elca, naive_slca
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode, SubtreeSpec, XMLTree, tree_from_spec

#: Few labels and words, so same-label siblings with equal key numbers and
#: equal content (rules 2(a) and 2(b)) are common.
LABELS = ("a", "b", "c")
WORDS = ("alpha", "beta", "gamma", "delta", "epsilon")


@st.composite
def documents_and_queries(draw) -> Tuple[XMLTree, Query]:
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    budget = [draw(st.integers(min_value=3, max_value=60))]

    def build(depth: int) -> SubtreeSpec:
        text = None
        if rng.random() < 0.6:
            text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 2)))
        node = SubtreeSpec(rng.choice(LABELS), text)
        while depth < 4 and budget[0] > 0 and rng.random() < 0.75:
            budget[0] -= 1
            node.add(build(depth + 1))
        return node

    keywords = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3,
                             unique=True))
    return tree_from_spec(build(0)), Query(tuple(keywords))


def reference(tree: XMLTree, query: Query, algorithm: str, cid_mode: str):
    """Per fragment: (root, is_slca, nodes, keyword nodes, masks, cIDs, kept)."""
    analyzer = ContentAnalyzer(tree)
    words = {node.dewey: analyzer.node_content(node)
             for node in tree.iter_preorder()}
    lists = {keyword: [code for code, content in words.items()
                       if keyword in content]
             for keyword in query.keywords}
    if not all(lists.values()):
        return []
    roots = (naive_slca if algorithm.endswith("-slca") else naive_elca)(lists)
    keyword_nodes = sorted({code for codes in lists.values() for code in codes})

    answer = []
    for root in roots:
        own = [node for node in keyword_nodes
               if max((other for other in roots
                       if other.is_ancestor_or_self(node)),
                      key=len, default=None) == root]
        if not own:
            continue
        nodes = dewey_fragment_nodes(root, own)
        records: Dict[DeweyCode, NodeRecord] = {}
        for node in nodes:
            content = frozenset().union(*(words[keyword] for keyword in own
                                          if node.is_ancestor_or_self(keyword)))
            records[node] = NodeRecord(
                node, tree.node(node).label,
                keyword_mask=query.mask_of(content), content_words=content,
                is_keyword_node=node in own, cid_mode=cid_mode)
        children: Dict[DeweyCode, List[DeweyCode]] = {node: [] for node in nodes}
        for node in nodes[1:]:
            children[node.parent()].append(node)
        kept = [root]
        for node in nodes[1:]:
            parent = node.parent()
            if parent not in kept:
                continue
            record = records[node]
            if algorithm.startswith("validrtf"):
                group = [records[sibling] for sibling in children[parent]
                         if records[sibling].label == record.label]
                keep = is_valid_contributor(record, group)
            else:
                keep = is_contributor(
                    record, [records[sibling] for sibling in children[parent]])
            if keep:
                kept.append(node)
        answer.append((
            root,
            not any(root.is_ancestor_of(other) for other in roots),
            tuple(nodes), tuple(own),
            [records[node].keyword_mask for node in nodes],
            [records[node].content_feature for node in nodes],
            tuple(kept)))
    return answer


def kernel(engine: SearchEngine, query: Query, algorithm: str):
    """The same tuple per fragment, from the public stage API and search."""
    pipeline = engine.algorithm(algorithm)
    answer = []
    for fragment in pipeline.raw_fragments(query):
        records = pipeline.record_tree(query, fragment)
        pruned = pipeline.pruner(records)
        answer.append((fragment.root, fragment.is_slca, fragment.nodes,
                       fragment.keyword_nodes, records.masks, records.features,
                       pruned.kept_nodes))
    searched = engine.search(query, algorithm)
    assert [(f.root, f.kept_nodes) for f in searched] == \
        [(entry[0], entry[-1]) for entry in answer]
    return answer


@settings(max_examples=60, deadline=None)
@given(documents_and_queries())
def test_fragment_stages_match_the_definitions(case):
    tree, query = case
    for cid_mode in CID_MODES:
        expected = {algorithm: reference(tree, query, algorithm, cid_mode)
                    for algorithm in ALGORITHM_NAMES}
        for representation in ("packed", "object"):
            engine = SearchEngine(tree, cid_mode=cid_mode,
                                  representation=representation)
            for algorithm in ALGORITHM_NAMES:
                assert kernel(engine, query, algorithm) == \
                    expected[algorithm], (algorithm, cid_mode, representation)


@settings(max_examples=30, deadline=None)
@given(documents_and_queries())
def test_record_views_expose_the_columns(case):
    """``NodeRecord`` views (read by explanations) agree with the columns,
    including the lazily computed content words."""
    tree, query = case
    analyzer = ContentAnalyzer(tree)
    for cid_mode in CID_MODES:
        pipeline = SearchEngine(tree, cid_mode=cid_mode).algorithm("validrtf")
        for fragment in pipeline.raw_fragments(query):
            records = pipeline.record_tree(query, fragment)
            for index, code in enumerate(fragment.nodes):
                record = records.record(code)
                expected = frozenset().union(*(
                    analyzer.node_content(tree.node(keyword))
                    for keyword in fragment.keyword_nodes
                    if code.is_ancestor_or_self(keyword)))
                assert record.content_words == expected
                assert record.label == tree.node(code).label
                assert record.keyword_mask == records.masks[index]
                assert record.content_feature == records.features[index]
                assert [child.dewey for child in record.children] == \
                    [fragment.nodes[kid] for kid in records.children[index]]
