"""The *contributor* filtering mechanism of MaxMatch (Liu & Chen, VLDB 2008).

A node ``n`` of a fragment is a **contributor** when it has no sibling ``n2``
(within the fragment, any label) such that ``dMatch(n) ⊂ dMatch(n2)`` — i.e.
its matched-keyword set is not strictly covered by a sibling's.  MaxMatch
keeps a fragment node iff the node and all its fragment ancestors are
contributors, which the pruning below realizes with a top-down traversal
(descendants of discarded nodes are discarded too).

The paper shows this filter commits the *false positive problem* (it can
discard interesting uniquely-labelled children, e.g. a paper ``title`` whose
keywords are subsumed by the ``abstract``) and the *redundancy problem* (it
keeps same-label siblings whose matched content is identical).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, List, Sequence, Set

from ..xmltree import DeweyCode
from .fragments import PrunedFragment
from .node_record import NodeRecord, RecordTree


def strictly_covered_masks(masks: Iterable[int]) -> Set[int]:
    """The masks of ``masks`` that another mask strictly covers.

    The single covering kernel: the contributor test, rule 2(a) of the
    valid-contributor test and both pruning loops decide through it, so the
    rule can never diverge between explaining and pruning.  It compares the
    *distinct* masks only, so a group of siblings costs the square of its
    distinct key numbers, not of its size.
    """
    distinct = set(masks)
    covered: Set[int] = set()
    for mask in distinct:
        for other in distinct:
            if mask != other and mask & other == mask:
                covered.add(mask)
                break
    return covered


def is_contributor(record: NodeRecord, siblings: Sequence[NodeRecord]) -> bool:
    """MaxMatch's contributor test for one node against its siblings.

    ``siblings`` are the other children of the node's parent within the
    fragment (any label).  The node fails iff some sibling's keyword mask is a
    strict superset of its own.
    """
    mask = record.keyword_mask
    masks = [sibling.keyword_mask for sibling in siblings
             if sibling.dewey != record.dewey]
    masks.append(mask)
    return mask not in strictly_covered_masks(masks)


def prune_with_contributor(record_tree: RecordTree,
                           algorithm: str = "maxmatch") -> PrunedFragment:
    """Apply MaxMatch's contributor filter to one RTF / SLCA fragment.

    Top-down over the record tree's columns: a child is kept iff its parent
    is kept and no sibling's mask strictly covers its own, so the subtrees
    of discarded children are discarded wholesale, matching the pruneMatches
    behaviour of MaxMatch.  ``fragment.nodes`` is in document order, so
    parents are decided before their children and the kept nodes come out
    sorted.
    """
    fragment = record_tree.fragment
    masks = record_tree.masks
    keep = [False] * len(masks)
    keep[0] = True
    for parent, kids in enumerate(record_tree.children):
        if not kids or not keep[parent]:
            continue
        if len(kids) == 1:
            keep[kids[0]] = True
            continue
        covered = strictly_covered_masks([masks[kid] for kid in kids])
        for kid in kids:
            if masks[kid] not in covered:
                keep[kid] = True
    return PrunedFragment(fragment=fragment,
                          kept_nodes=tuple(compress(fragment.nodes, keep)),
                          algorithm=algorithm)


def contributor_survivors(record_tree: RecordTree) -> List[DeweyCode]:
    """The kept node list only (convenience wrapper used in tests)."""
    return list(prune_with_contributor(record_tree).kept_nodes)
