"""RTF construction — the ``getRTF`` stage of Algorithm 1.

Given the interesting LCA nodes (ELCAs, in document order) and the keyword
posting lists ``D_1..D_k``, every keyword node is dispatched to the *last* LCA
node in document order that is its ancestor-or-self — i.e. its nearest
enclosing interesting LCA node.  The keyword nodes collected for one LCA node,
together with the paths from that node down to them, form one Relaxed Tightest
Fragment (Definition 2; see the analysis in Section 4.3-(1)).

Keyword nodes that are not descendants of any interesting LCA node belong to
no partition and are dropped (they cannot complete a fragment covering the
query).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..index.packed import as_packed, iter_matches
from ..lca import elca_is_slca
from ..xmltree import DeweyCode, XMLTree
from .fragments import Fragment
from .query import Query


def assign_keyword_nodes(
    lca_nodes: Sequence[DeweyCode],
    keyword_lists: Mapping[str, Sequence[DeweyCode]],
) -> Dict[DeweyCode, List[DeweyCode]]:
    """Dispatch every keyword node to its nearest enclosing LCA node.

    Returns a mapping ``lca -> sorted keyword nodes``; LCA nodes with no
    assigned keyword node (possible only when the input lists are
    inconsistent) map to an empty list so callers see every requested root.
    This is the per-node definition over boxed codes (one search per keyword
    node); :func:`build_rtfs` assigns with the linear :func:`sweep_assign`.
    """
    sorted_lcas = sorted(lca_nodes)
    assignment: Dict[DeweyCode, List[DeweyCode]] = {code: [] for code in sorted_lcas}
    seen: set = set()
    for deweys in keyword_lists.values():
        for dewey in deweys:
            # lint: allow(hot-loop-purity) object path's input normalization
            code = DeweyCode.coerce(dewey)
            if code in seen:
                continue
            seen.add(code)
            owner = _nearest_enclosing(sorted_lcas, code)
            if owner is not None:
                assignment[owner].append(code)
    for keyword_nodes in assignment.values():
        keyword_nodes.sort()
    return assignment


def build_rtfs(
    tree: Optional[XMLTree],
    query: Query,
    lca_nodes: Sequence[DeweyCode],
    keyword_lists: Mapping[str, Sequence[DeweyCode]],
    slca_flags: Sequence[bool] = (),
) -> List[Fragment]:
    """``getRTF``: one raw :class:`Fragment` per interesting LCA node.

    ``slca_flags`` (parallel to ``lca_nodes``) marks which roots are also SLCA
    nodes; when omitted it is derived from the node set itself (an LCA node is
    an SLCA iff no other LCA node is its strict descendant).  Fragments come
    from Dewey arithmetic alone, so ``tree`` (which may be ``None``) and
    ``query`` only complete the stage signature.

    Any non-packed posting list is packed once here, so every representation
    and backend runs the same linear pass: :func:`sweep_assign` dispatches
    the merged keyword-node stream to the sorted roots, and each fragment's
    node set is grown in document order from its keyword nodes' root paths.
    :class:`DeweyCode` objects are materialized only for the fragments
    returned — keyword nodes outside every root never become objects.
    """
    # lint: allow(hot-loop-purity) roots arrive in any Dewey form; coerce each once
    roots = [DeweyCode.coerce(code) for code in lca_nodes]
    if slca_flags and len(slca_flags) == len(roots):
        flag_of = dict(zip(roots, slca_flags))
        roots = sorted(flag_of)
        flags = [flag_of[root] for root in roots]
    else:
        roots = sorted(set(roots))
        flags = elca_is_slca(roots)
    if not roots:
        return []
    # lint: allow(hot-loop-purity) unpacking the (small) root set once
    root_parts = [root.components for root in roots]
    packed = [as_packed(postings) for postings in keyword_lists.values()]
    assigned = sweep_assign(root_parts, iter_matches(packed))
    return [_grow_fragment(root, len(parts), keyword_parts, flag)
            for root, parts, keyword_parts, flag
            in zip(roots, root_parts, assigned, flags) if keyword_parts]


def sweep_assign(root_parts: Sequence[Tuple[int, ...]],
                 matches: Iterable[Tuple[Sequence[int], int]]
                 ) -> List[List[Tuple[int, ...]]]:
    """Dispatch a keyword-node stream to its nearest enclosing roots.

    ``root_parts`` are the roots' component tuples, strictly increasing in
    document order; ``matches`` is a document-order ``(components, mask)``
    stream such as :func:`~repro.index.packed.iter_matches` yields.  Returns
    the keyword nodes assigned to each root, as component tuples in document
    order; nodes outside every root are dropped.

    One stack sweep: roots are opened as the stream passes them, and the
    stack holds the chain of open roots enclosing the current node, deepest
    on top.  A root the stream has left never encloses a later node, so each
    root is pushed and popped once — the same answer as
    :func:`assign_keyword_nodes` in linear time.
    """
    assigned: List[List[Tuple[int, ...]]] = [[] for _ in root_parts]
    count = len(root_parts)
    upcoming = 0
    stack: List[int] = []
    for comps, _ in matches:
        node = tuple(comps)
        while upcoming < count and root_parts[upcoming] <= node:
            opened = root_parts[upcoming]
            while stack:
                top = root_parts[stack[-1]]
                if len(top) < len(opened) and opened[:len(top)] == top:
                    break
                stack.pop()
            stack.append(upcoming)
            upcoming += 1
        while stack:
            top = root_parts[stack[-1]]
            if len(top) <= len(node) and node[:len(top)] == top:
                assigned[stack[-1]].append(node)
                break
            stack.pop()
    return assigned


def _grow_fragment(root: DeweyCode, root_depth: int,
                   keyword_parts: Sequence[Tuple[int, ...]],
                   is_slca: bool) -> Fragment:
    """The fragment of ``root`` from its document-order keyword nodes.

    Each keyword node adds the part of its root path not already present,
    walking up from the node until it meets a known prefix.  Those new nodes
    all follow every node already added in document order, so appending them
    top-down keeps the node list sorted without a sort, and the keyword node
    itself is always the last one added.
    """
    seen: set = set()
    add = seen.add
    ordered: List[Tuple[int, ...]] = []
    keyword_positions: List[int] = []
    for parts in keyword_parts:
        fresh: List[Tuple[int, ...]] = []
        for size in range(len(parts), root_depth - 1, -1):
            prefix = parts[:size]
            if prefix in seen:
                break  # every shorter prefix is already present
            add(prefix)
            fresh.append(prefix)
        fresh.reverse()
        ordered.extend(fresh)
        keyword_positions.append(len(ordered) - 1)
    from_tuple = DeweyCode._from_tuple
    # lint: allow(hot-loop-purity) result boundary: only surviving fragments are boxed
    codes = [from_tuple(parts) for parts in ordered]
    return Fragment(
        root=root,
        keyword_nodes=tuple([codes[position] for position in keyword_positions]),
        nodes=tuple(codes),
        is_slca=is_slca,
    )


def _nearest_enclosing(sorted_lcas: Sequence[DeweyCode],
                       node: DeweyCode) -> DeweyCode:
    """The deepest LCA node that is an ancestor-or-self of ``node``.

    ``sorted_lcas`` is in document order, so every ancestor-or-self of
    ``node`` precedes (or equals) it; scanning backwards from the insertion
    point finds the nearest one — the "last RTF whose root is an ancestor of
    or the same as d" of Algorithm 1.
    """
    position = bisect_right(sorted_lcas, node)
    for index in range(position - 1, -1, -1):
        candidate = sorted_lcas[index]
        if candidate.is_ancestor_or_self(node):
            # Among the ancestors of ``node``, deeper ones come later in
            # document order, so the first ancestor found scanning backwards
            # is the nearest enclosing one.
            return candidate
    return None
