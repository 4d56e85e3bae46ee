"""The *valid contributor* filtering mechanism (Definition 4) — the paper's core.

A child ``v`` of ``u`` (both in an RTF) is a **valid contributor** iff

1. ``v`` is the unique child of ``u`` carrying its label, or
2. among the same-label siblings ``v1..vm``:
   (a) no sibling's tree keyword set strictly covers ``v``'s
       (``¬∃ vi: TK_v ⊂ TK_vi``), and
   (b) among siblings with an *equal* keyword set, ``v``'s tree content is
       distinct (``TC_v ≠ TC_vi``).  Operationally (Algorithm 1, lines 21–25)
       the first sibling of each (keyword set, content feature) pair in
       document order is kept as the representative and later duplicates are
       discarded — this is how "one of them should be discarded" is realized.

Rule 1 fixes MaxMatch's false-positive problem, rule 2(a) keeps the good part
of the contributor filter and rule 2(b) fixes the redundancy problem.

Content equality uses the node record's content feature: the paper's
``(min, max)`` word pair (``cid_mode="minmax"``) or the exact tree content set
(``cid_mode="exact"``, ablation).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Sequence, Set, Tuple

from ..xmltree import DeweyCode
from .contributor import strictly_covered_masks
from .fragments import PrunedFragment
from .node_record import ContentFeature, NodeRecord, RecordTree


def is_valid_contributor(record: NodeRecord, group: Sequence[NodeRecord]) -> bool:
    """Definition 4 test for one node against its same-label siblings.

    ``group`` must be the children of the node's parent that share its label
    (including the node itself), in document order.  The duplicate-content
    rule 2(b) keeps the *first* sibling of each (key number, content feature)
    pair, so the test depends on document order for exact ties.
    """
    members = list(group)
    if len(members) <= 1:
        return True
    mask = record.keyword_mask
    # Rule 2(a): discarded when a same-label sibling strictly covers it.
    if mask in strictly_covered_masks(member.keyword_mask for member in members):
        return False
    # Rule 2(b): equal keyword sets with identical content keep only the
    # earliest sibling in document order.
    feature = record.content_feature
    for sibling in members:
        if sibling.keyword_mask == mask and sibling.dewey < record.dewey \
                and sibling.content_feature == feature:
            return False
    return True


def prune_with_valid_contributor(record_tree: RecordTree,
                                 algorithm: str = "validrtf") -> PrunedFragment:
    """The pruning step of ``pruneRTF`` (Algorithm 1, lines 16–26).

    Top-down over the record tree's columns; for every kept node, its
    children are grouped by label once and examined per group:

    * a label group with a single child keeps that child (rule 1, line 26),
    * otherwise each child is kept iff (i) its key number is not strictly
      covered by a larger key number in the group (rule 2(a)) and (ii) no
      earlier kept sibling with the same key number had the same content
      feature (rule 2(b)).

    Children of discarded nodes are never kept, so their whole subtrees
    leave the meaningful RTF.  ``fragment.nodes`` is in document order, so
    parents are decided before their children, each group lists its
    children in document order, and the kept nodes come out sorted.
    """
    fragment = record_tree.fragment
    label_of = record_tree.label
    masks = record_tree.masks
    features = record_tree.features
    keep = [False] * len(masks)
    keep[0] = True
    for parent, kids in enumerate(record_tree.children):
        if not kids or not keep[parent]:
            continue
        if len(kids) == 1:
            keep[kids[0]] = True
            continue
        groups: Dict[str, List[int]] = {}
        for kid in kids:
            label = label_of(kid)
            group = groups.get(label)
            if group is None:
                groups[label] = [kid]
            else:
                group.append(kid)
        for group in groups.values():
            if len(group) == 1:
                keep[group[0]] = True
                continue
            covered = strictly_covered_masks([masks[kid] for kid in group])
            seen: Set[Tuple[int, ContentFeature]] = set()
            for kid in group:
                mask = masks[kid]
                if mask in covered:
                    continue
                key = (mask, features[kid])
                if key in seen:
                    continue
                seen.add(key)
                keep[kid] = True
    return PrunedFragment(fragment=fragment,
                          kept_nodes=tuple(compress(fragment.nodes, keep)),
                          algorithm=algorithm)


def valid_contributor_survivors(record_tree: RecordTree) -> List[DeweyCode]:
    """The kept node list only (convenience wrapper used in tests)."""
    return list(prune_with_valid_contributor(record_tree).kept_nodes)
