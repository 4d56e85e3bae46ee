"""The node data structure of Section 4.1 and the RTF "constructing step".

For every node of an RTF the paper keeps:

* *Self Info*: Dewey code, label, keyword list ``kList`` (the tree keyword set
  ``TK_v``, stored as a bitmask whose integer value is the "key number") and
  the content id ``cID`` — the ``(min, max)`` word pair of the tree content
  set ``TC_v`` under lexical order.
* *Children Info*: the children grouped by distinct label (``chlList``); each
  label item records the child count, the children's key numbers
  (``chkList``), their cIDs (``chcIDList``) and references to the child
  records (``chList``).

The constructing step of ``pruneRTF`` (Algorithm 1, lines 1–15) builds this
record tree bottom-up from the RTF's keyword nodes: every keyword node's
information is propagated to all its ancestors within the fragment.  The
record tree is stored as columns parallel to ``fragment.nodes`` (parent and
child indexes, key numbers, cIDs), built in one linear pass; the
pruners decide on those columns, and :class:`NodeRecord` objects are views
over them, built only when asked for (explanations, tests).

Two content-feature modes are supported:

* ``"minmax"`` — the paper's approximate ``(min, max)`` pair;
* ``"exact"`` — the full tree content set.  Used by the ablation benchmark to
  quantify how often the approximation misidentifies duplicate content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from ..text import ContentAnalyzer
from ..xmltree import DeweyCode, XMLTree
from .fragments import Fragment
from .query import Query

ContentFeature = Union[Tuple[str, str], FrozenSet[str]]

#: Content-feature modes accepted by the record builder.
CID_MODES = ("minmax", "exact")

#: The ``(min, max)`` cID of a node without keyword content below it.
NO_CONTENT: Tuple[str, str] = ("", "")

_NO_WORDS: FrozenSet[str] = frozenset()


@dataclass
class LabelGroup:
    """One ``chlList`` entry: the children of a node sharing one label."""

    label: str
    children: List["NodeRecord"] = field(default_factory=list)

    @property
    def counter(self) -> int:
        """Number of children with this label."""
        return len(self.children)

    def key_numbers(self) -> List[int]:
        """The children's key numbers (``chkList``), sorted ascending."""
        return sorted(child.key_number for child in self.children)

    def content_features(self) -> List[ContentFeature]:
        """The children's content features (``chcIDList``)."""
        return [child.content_feature for child in self.children]


class NodeRecord:
    """The per-node record of Section 4.1.

    ``content_words`` (the RTF-restricted tree content set ``TC_v``) is
    computed on first access when the record comes from the constructing
    step (``content_words=None``): the union of the record's own
    keyword-node words and its children's content words.  Records built
    directly take it as an argument.
    """

    __slots__ = ("dewey", "label", "keyword_mask", "is_keyword_node",
                 "cid_mode", "children", "_content_words", "_own_words",
                 "_feature")

    def __init__(self, dewey: DeweyCode, label: str, keyword_mask: int = 0,
                 content_words: Optional[FrozenSet[str]] = _NO_WORDS,
                 is_keyword_node: bool = False, cid_mode: str = "minmax",
                 children: Optional[List["NodeRecord"]] = None):
        self.dewey = dewey
        self.label = label
        self.keyword_mask = keyword_mask
        self.is_keyword_node = is_keyword_node
        self.cid_mode = cid_mode
        self.children: List["NodeRecord"] = [] if children is None else children
        self._content_words: Optional[FrozenSet[str]] = content_words
        self._own_words: FrozenSet[str] = _NO_WORDS
        self._feature: Optional[ContentFeature] = None

    # ------------------------------------------------------------------ #
    # Self info
    # ------------------------------------------------------------------ #
    @property
    def content_words(self) -> FrozenSet[str]:
        """``TC_v``: the words of the fragment's keyword nodes below ``v``."""
        words = self._content_words
        if words is None:
            words = self._own_words
            for child in self.children:
                words = words | child.content_words
            self._content_words = words
        return words

    @property
    def key_number(self) -> int:
        """The integer value of ``kList`` (the paper's key number)."""
        return self.keyword_mask

    @property
    def content_feature(self) -> ContentFeature:
        """The ``cID``: the ``(min, max)`` word pair, or the exact set."""
        if self.cid_mode == "exact":
            return self.content_words
        if self._feature is not None:
            return self._feature
        words = self.content_words
        return (min(words), max(words)) if words else NO_CONTENT

    def tree_keyword_set(self, query: Query) -> FrozenSet[str]:
        """``TK_v`` decoded back into keyword strings."""
        return frozenset(query.keywords_of(self.keyword_mask))

    # ------------------------------------------------------------------ #
    # Children info
    # ------------------------------------------------------------------ #
    def label_groups(self) -> List[LabelGroup]:
        """The ``chlList``: children grouped by distinct label, document order."""
        groups: Dict[str, LabelGroup] = {}
        for child in self.children:
            groups.setdefault(child.label, LabelGroup(child.label)).children.append(child)
        return list(groups.values())

    def group_for(self, label: str) -> Optional[LabelGroup]:
        """The label group of ``label``, or ``None``."""
        for group in self.label_groups():
            if group.label == label:
                return group
        return None

    def iter_records(self):
        """Yield this record and all descendant records in document order."""
        yield self
        for child in self.children:
            yield from child.iter_records()

    def __repr__(self) -> str:
        return (f"NodeRecord({self.dewey} {self.label!r} key={self.key_number} "
                f"cid={self.content_feature!r})")


class RecordTree:
    """The record tree of one RTF built by the constructing step.

    Columns parallel to ``fragment.nodes`` (document order, root at 0):

    * ``children`` — each node's child indexes, in document order;
    * ``masks`` — key numbers (``kList`` bitmasks);
    * ``features`` — cIDs: ``(min, max)`` pairs, or exact word sets when
      ``cid_mode == "exact"``;
    * ``keyword_words`` — the own content words of each keyword node, by
      index.

    Labels are resolved through :meth:`label` on first use: MaxMatch never
    reads one, and ValidRTF only reads those of siblings it must group.
    ``root``, ``by_dewey`` and :meth:`record` expose the same data as
    :class:`NodeRecord` objects, built on first access.
    """

    __slots__ = ("fragment", "cid_mode", "children", "masks", "features",
                 "keyword_words", "_label_of", "_labels", "_records")

    def __init__(self, fragment: Fragment, cid_mode: str,
                 children: List[List[int]], masks: List[int],
                 features: List[ContentFeature],
                 keyword_words: Dict[int, FrozenSet[str]],
                 label_of: Callable[[DeweyCode], Optional[str]]):
        self.fragment = fragment
        self.cid_mode = cid_mode
        self.children = children
        self.masks = masks
        self.features = features
        self.keyword_words = keyword_words
        self._label_of = label_of
        self._labels: List[Optional[str]] = [None] * len(masks)
        self._records: Optional[Dict[DeweyCode, NodeRecord]] = None

    def label(self, index: int) -> str:
        """The element label of the node at ``index`` (memoized)."""
        label = self._labels[index]
        if label is None:
            label = self._labels[index] = \
                self._label_of(self.fragment.nodes[index]) or ""
        return label

    @property
    def by_dewey(self) -> Dict[DeweyCode, NodeRecord]:
        """Every node's :class:`NodeRecord`, keyed by Dewey code."""
        if self._records is None:
            self._records = dict(zip(self.fragment.nodes, self._views()))
        return self._records

    @property
    def root(self) -> NodeRecord:
        """The record of the fragment root."""
        return self.by_dewey[self.fragment.root]

    def record(self, dewey: DeweyCode) -> NodeRecord:
        """The record of one fragment node."""
        return self.by_dewey[dewey]

    def size(self) -> int:
        """Number of records (equals the raw fragment size)."""
        return len(self.masks)

    def _views(self) -> List[NodeRecord]:
        """One :class:`NodeRecord` per column row, children wired."""
        exact = self.cid_mode == "exact"
        keyword_words = self.keyword_words
        records: List[NodeRecord] = []
        for index, (code, mask, feature) in enumerate(zip(
                self.fragment.nodes, self.masks, self.features)):
            own = keyword_words.get(index)
            record = NodeRecord(code, self.label(index), mask,
                                content_words=feature if exact else None,
                                is_keyword_node=own is not None,
                                cid_mode=self.cid_mode)
            if own is not None:
                record._own_words = own
            if not exact:
                record._feature = feature
            records.append(record)
        for record, kids in zip(records, self.children):
            record.children = [records[kid] for kid in kids]
        return records


def build_record_tree(
    tree: XMLTree,
    analyzer: ContentAnalyzer,
    query: Query,
    fragment: Fragment,
    cid_mode: str = "minmax",
) -> RecordTree:
    """The constructing step of ``pruneRTF`` (Algorithm 1, lines 1–15).

    Builds one record per fragment node.  A node's keyword mask and content
    words are the union over the *fragment's own keyword nodes* located in
    its subtree — the restriction the paper's line 11/12 fix is about:
    keyword-node information must reach every ancestor within the RTF, but
    keyword nodes belonging to other (deeper) RTFs never contribute.
    """
    return build_record_tree_from_lookups(
        label_of=lambda dewey: tree.node(dewey).label,
        words_of=lambda dewey: analyzer.node_content(tree.node(dewey)),
        query=query,
        fragment=fragment,
        cid_mode=cid_mode,
    )


def build_record_tree_from_lookups(
    label_of: Callable[[DeweyCode], Optional[str]],
    words_of: Callable[[DeweyCode], FrozenSet[str]],
    query: Query,
    fragment: Fragment,
    cid_mode: str = "minmax",
) -> RecordTree:
    """The constructing step driven by node lookups instead of a tree.

    ``label_of`` and ``words_of`` resolve a fragment node's label and content
    word set; any :class:`~repro.index.source.PostingSource` provides both
    (``node_label`` / ``node_words``), which is how disk-backed searches run
    the pruning stage without the document resident in memory.  Semantics are
    identical to :func:`build_record_tree` (which delegates here).

    ``fragment.nodes`` is in document order and closed under "parent within
    the fragment" (a union of root paths), so a node's parent is the latest
    node one level up: one forward pass wires the parent and child columns,
    and one backward pass folds each node's key number and cID into its
    parent — once per fragment edge, as ints and ``(min, max)`` pairs.
    """
    if cid_mode not in CID_MODES:
        raise ValueError(f"unknown cid_mode {cid_mode!r}; expected one of {CID_MODES}")
    nodes = fragment.nodes
    count = len(nodes)
    root = fragment.root
    if not count or nodes[0] != root:
        raise ValueError(f"fragment root {root} is not its first node")

    # Forward pass: parent/child columns and keyword-node positions.
    # lint: allow(hot-loop-purity) fragment nodes arrive boxed; unbox each once
    parts = [code.components for code in nodes]
    # lint: allow(hot-loop-purity) likewise the fragment's keyword nodes
    keyword_parts = [code.components for code in fragment.keyword_nodes]
    parents = [-1] * count
    children: List[List[int]] = [[] for _ in range(count)]
    base = len(parts[0])
    latest = [0]  # latest[d]: the last node seen d levels below the root
    keyword_positions: List[int] = []
    pending = keyword_parts[0] if keyword_parts else None
    if pending == parts[0]:
        keyword_positions.append(0)
        pending = keyword_parts[1] if len(keyword_parts) > 1 else None
    for index in range(1, count):
        comps = parts[index]
        depth = len(comps) - base
        if not 0 < depth <= len(latest) \
                or comps[:-1] != parts[latest[depth - 1]]:
            raise ValueError(
                f"fragment node {nodes[index]} is not connected to the root")
        parent = latest[depth - 1]
        parents[index] = parent
        children[parent].append(index)
        if depth == len(latest):
            latest.append(index)
        else:
            latest[depth] = index
        if comps == pending:
            keyword_positions.append(index)
            position = len(keyword_positions)
            pending = keyword_parts[position] \
                if position < len(keyword_parts) else None
    if len(keyword_positions) != len(keyword_parts):
        raise ValueError(
            f"keyword nodes of the fragment rooted at {root} are not sorted, "
            f"unique fragment nodes")

    # Seed the keyword nodes (the paper's lines 5–12 "transfer the
    # information ... to all its ancestors"), then fold bottom-up.
    bits = {keyword: 1 << position
            for position, keyword in enumerate(query.keywords)}
    masks = [0] * count
    keyword_words: Dict[int, FrozenSet[str]] = {}
    for index in keyword_positions:
        content = words_of(nodes[index])
        keyword_words[index] = content
        mask = 0
        for keyword, bit in bits.items():
            if keyword in content:
                mask |= bit
        masks[index] = mask
    features: List[ContentFeature]
    if cid_mode == "exact":
        words: List[FrozenSet[str]] = [_NO_WORDS] * count
        for index, content in keyword_words.items():
            words[index] = content
        for index in range(count - 1, 0, -1):
            parent = parents[index]
            masks[parent] |= masks[index]
            if words[index]:
                words[parent] = words[parent] | words[index]
        features = list(words)
    else:
        lows: List[Optional[str]] = [None] * count
        highs: List[Optional[str]] = [None] * count
        for index, content in keyword_words.items():
            if content:
                lows[index] = min(content)
                highs[index] = max(content)
        for index in range(count - 1, 0, -1):
            parent = parents[index]
            masks[parent] |= masks[index]
            low = lows[index]
            if low is not None:
                parent_low = lows[parent]
                if parent_low is None:
                    lows[parent] = low
                    highs[parent] = highs[index]
                else:
                    if low < parent_low:
                        lows[parent] = low
                    high = highs[index]
                    if high > highs[parent]:
                        highs[parent] = high
        features = [NO_CONTENT if low is None else (low, high)
                    for low, high in zip(lows, highs)]
    return RecordTree(fragment, cid_mode, children, masks, features,
                      keyword_words, label_of)
