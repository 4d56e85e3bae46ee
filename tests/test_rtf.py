"""Tests for the getRTF stage: keyword-node dispatch and RTF construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Query, assign_keyword_nodes, build_rtfs
from repro.core.rtf import sweep_assign
from repro.index import InvertedIndex
from repro.index.packed import iter_matches, pack_deweys
from repro.lca import elca_is_slca, indexed_stack_elca
from repro.xmltree import DeweyCode

D = DeweyCode.parse


def swept(lca_nodes, lists):
    """:func:`sweep_assign` in :func:`assign_keyword_nodes`' result shape."""
    roots = sorted(lca_nodes)
    packed = [pack_deweys(codes) for codes in lists.values()]
    assigned = sweep_assign([root.components for root in roots],
                            iter_matches(packed))
    return {root: [DeweyCode(parts) for parts in keyword_parts]
            for root, keyword_parts in zip(roots, assigned)}


class TestAssignKeywordNodes:
    def test_nearest_enclosing_lca_wins(self):
        lca_nodes = [D("0"), D("0.2"), D("0.2.1")]
        lists = {"w1": [D("0.2.1.5"), D("0.2.0"), D("0.1")],
                 "w2": [D("0.2.1.5")]}
        assignment = assign_keyword_nodes(lca_nodes, lists)
        assert [str(code) for code in assignment[D("0.2.1")]] == ["0.2.1.5"]
        assert [str(code) for code in assignment[D("0.2")]] == ["0.2.0"]
        assert [str(code) for code in assignment[D("0")]] == ["0.1"]

    def test_keyword_node_equal_to_lca(self):
        assignment = assign_keyword_nodes([D("0.1")], {"w1": [D("0.1")]})
        assert assignment[D("0.1")] == [D("0.1")]

    def test_unassigned_keyword_nodes_dropped(self):
        assignment = assign_keyword_nodes([D("0.1")], {"w1": [D("0.2")]})
        assert assignment[D("0.1")] == []

    def test_duplicate_keyword_nodes_counted_once(self):
        assignment = assign_keyword_nodes(
            [D("0")], {"w1": [D("0.1")], "w2": [D("0.1")]})
        assert assignment[D("0")] == [D("0.1")]

    def test_every_requested_root_present(self):
        assignment = assign_keyword_nodes([D("0.1"), D("0.2")],
                                          {"w1": [D("0.1.0")]})
        assert set(assignment) == {D("0.1"), D("0.2")}


class TestSweepAssign:
    """The linear stack sweep ``build_rtfs`` runs equals the definition."""

    @pytest.mark.parametrize("roots, lists", [
        # keyword nodes outside every root, before, between and after them
        (["0.1", "0.3"], {"w1": ["0.0.4", "0.1.2", "0.2", "0.3.0", "0.4"]}),
        # nested roots: the nearest enclosing one wins
        (["0", "0.2", "0.2.1"], {"w1": ["0.1", "0.2.0", "0.2.1.5"],
                                 "w2": ["0.2.1.5", "0.2.2"]}),
        # a keyword node equal to its root, under a nested root
        (["0.1", "0.1.0"], {"w1": ["0.1", "0.1.0"], "w2": ["0.1.0.3"]}),
        # a root assigned nothing
        (["0.1", "0.2"], {"w1": ["0.1.0"]}),
    ])
    def test_cases(self, roots, lists):
        roots = [D(code) for code in roots]
        lists = {keyword: [D(code) for code in codes]
                 for keyword, codes in lists.items()}
        assert swept(roots, lists) == assign_keyword_nodes(roots, lists)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.lists(st.integers(0, 2), max_size=4).map(
            lambda suffix: DeweyCode([0] + suffix)), min_size=1, max_size=8),
        st.lists(st.sets(st.lists(st.integers(0, 2), max_size=5).map(
            lambda suffix: DeweyCode([0] + suffix)), max_size=10),
            min_size=1, max_size=3),
    )
    def test_matches_assign_keyword_nodes(self, roots, keyword_sets):
        lists = {f"w{index}": sorted(codes)
                 for index, codes in enumerate(keyword_sets)}
        assert swept(roots, lists) == assign_keyword_nodes(roots, lists)


class TestBuildRtfs:
    @pytest.fixture
    def q2_pieces(self, publications):
        query = Query.parse("Liu keyword")
        lists = InvertedIndex(publications).keyword_nodes(query.keywords)
        roots = indexed_stack_elca(lists)
        return publications, query, lists, roots

    def test_one_fragment_per_interesting_lca(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(tree, query, roots, lists, elca_is_slca(roots))
        assert [str(fragment.root) for fragment in fragments] == \
            ["0.2.0", "0.2.0.3.0"]

    def test_slca_flags(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(tree, query, roots, lists, elca_is_slca(roots))
        flags = {str(f.root): f.is_slca for f in fragments}
        assert flags == {"0.2.0": False, "0.2.0.3.0": True}

    def test_slca_flags_derived_when_missing(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(tree, query, roots, lists)
        flags = {str(f.root): f.is_slca for f in fragments}
        assert flags == {"0.2.0": False, "0.2.0.3.0": True}

    def test_fragment_nodes_are_paths(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(tree, query, roots, lists)
        article_fragment = fragments[0]
        assert [str(code) for code in article_fragment.nodes] == \
            ["0.2.0", "0.2.0.0", "0.2.0.0.0", "0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"]

    def test_every_fragment_covers_the_query(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        index = InvertedIndex(tree)
        for fragment in build_rtfs(tree, query, roots, lists):
            covered = set()
            for dewey in fragment.keyword_nodes:
                covered |= {keyword for keyword in query.keywords
                            if keyword in index.node_words(dewey)}
            assert covered == set(query.keywords)

    def test_fragments_partition_assigned_keyword_nodes(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(tree, query, roots, lists)
        seen = set()
        for fragment in fragments:
            overlap = seen & set(fragment.keyword_nodes)
            assert not overlap
            seen |= set(fragment.keyword_nodes)

    def test_no_roots_yields_no_fragments(self, publications):
        query = Query.parse("xml")
        assert build_rtfs(publications, query, [], {"xml": []}) == []
