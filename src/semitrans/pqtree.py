"""PQ-tree over a fixed ground set of rows, reduced one column at a time.

The tree represents exactly the set of row orders under which every column
reduced so far has its ones consecutive.  P-nodes permute children freely,
Q-nodes only reverse.  A pertinent node is empty, full, or partial.  One rule
stands for the template set: at the pertinent root, P- or Q-node, the
non-empty children form one run, full inside, with at most one partial child
at each end, which opens into its subtrees, empty side outermost.  The partial
nodes below the root form a chain (each has at most one partial child), walked
iteratively from the top, so the walk needs no call stack as deep as the tree.

Every node keeps a parent pointer and its leaf count, and the tree keeps a
row -> leaf table, so a reduction touches only what the column touches: it
walks up from the leaves of the column's rows, stopping at the first node
already reached, and sums pertinent counts bottom-up over the nodes it
reached (Booth and Lueker's bubble-up, J. Comput. Syst. Sci. 13, 1976).
Nodes it never reached are empty.  One reduction costs the union of the
pertinent leaves' root paths plus the children lists the templates read and
rewrite; that is not the pertinent subtree alone, so nested prefixes (each
column's leaves sit below a chain of its predecessors) still cost Theta(k^2)
in total.
"""

from __future__ import annotations


class _Fail(Exception):
    pass


_LEAF, _P, _Q = 0, 1, 2

_EMPTY, _FULL, _PARTIAL = 0, 1, 2


class _Node:
    """A tree node.  A new internal node reads its children's leaf counts but
    leaves their parent pointers alone: a reduction may still fail after
    building it, and a failed reduction must not change the tree."""

    __slots__ = ("kind", "children", "row", "parent", "leaves")

    def __init__(self, kind: int, children: list["_Node"] | None = None, row: int = 0):
        self.kind = kind
        self.children = children if children is not None else []
        self.row = row
        self.parent: _Node | None = None
        self.leaves = sum(ch.leaves for ch in self.children) if children else 1


def _make_p(nodes: list[_Node]) -> _Node:
    return nodes[0] if len(nodes) == 1 else _Node(_P, nodes)


def _make_q(items: list[_Node]) -> _Node:
    """A root run's node; the run never has two items (a partial end opens into two or more)."""
    return items[0] if len(items) == 1 else _Node(_Q, items)


def _adopt(top: _Node):
    """Point the children of top, and of every node built under it in this
    reduction, back at their parent.  Built nodes are the ones whose parent
    is still unset; the tree root is never a child."""
    stack = [top]
    while stack:
        node = stack.pop()
        for ch in node.children:
            if ch.parent is None:
                stack.append(ch)
            ch.parent = node


class PQTree:
    """Certificate engine: feed row subsets via reduce(), read a frontier out."""

    def __init__(self, m: int):
        if m < 0:
            raise ValueError("row count must be nonnegative")
        self.m = m
        self._leaf = [_Node(_LEAF, row=r) for r in range(m + 1)]  # row -> leaf; entry 0 unused
        if m == 0:
            self.root: _Node | None = None
        elif m == 1:
            self.root = self._leaf[1]
        else:
            self.root = _Node(_P, self._leaf[1:])
            _adopt(self.root)
        self._pert: dict[_Node, int] = {}

    def reduce(self, mask: int) -> bool:
        """Constrain the tree so rows set in mask stay consecutive.

        Returns False (leaving the tree unchanged) when no frontier of the
        current tree keeps them consecutive; the tree is then unusable for
        further reductions of the same matrix.  Raises ValueError when mask
        is negative or sets a bit above row m.
        """
        if mask >> self.m:  # -1 for every negative mask
            raise ValueError("mask names rows outside 1..m")
        size = mask.bit_count()
        if size <= 1 or size >= self.m:
            return True
        node = self._bubble(mask, size)
        if size == node.leaves:
            return True
        try:
            self._apply_root(node)
        except _Fail:
            return False
        _adopt(node)
        self._normalize(node)
        return True

    def frontier(self) -> tuple[int, ...]:
        """Leftmost admissible row order."""
        if self.root is None:
            return ()
        out: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.kind == _LEAF:
                out.append(node.row)
            else:
                stack.extend(reversed(node.children))
        return tuple(out)

    # -- internals --------------------------------------------------------

    def _bubble(self, mask: int, size: int) -> _Node:
        """Fill the pertinent counts of the nodes above the rows set in mask
        and return the pertinent root: the deepest node holding all size of
        them.  Counts flow up a child at a time once every reached child of
        a node is summed, so a node is final before its parent and the first
        node to reach size is the deepest."""
        pert: dict[_Node, int] = {}
        waiting: dict[_Node, int] = {}  # reached internal node -> reached children not yet summed
        ready: list[_Node] = []
        while mask:
            low = mask & -mask
            mask ^= low
            leaf = self._leaf[low.bit_length()]
            pert[leaf] = 1
            ready.append(leaf)
            node = leaf.parent
            while node is not None:
                if node in waiting:
                    waiting[node] += 1
                    break
                waiting[node] = 1
                node = node.parent
        self._pert = pert
        while True:
            node = ready.pop()
            count = pert[node]
            if count == size:
                return node
            parent = node.parent
            pert[parent] = pert.get(parent, 0) + count
            waiting[parent] -= 1
            if not waiting[parent]:
                ready.append(parent)

    def _label(self, node: _Node) -> int:
        c = self._pert.get(node, 0)
        if c == 0:
            return _EMPTY
        if c == node.leaves:
            return _FULL
        return _PARTIAL

    def _split(self, node: _Node) -> tuple[list[_Node], list[_Node], list[_Node]]:
        """Children of node grouped as (empty, full, partial), each in order."""
        groups: tuple[list[_Node], list[_Node], list[_Node]] = ([], [], [])
        for ch in node.children:
            groups[self._label(ch)].append(ch)
        return groups

    def _orient_q(self, node: _Node) -> tuple[list[_Node], _Node | None, list[_Node]]:
        """A partial non-root Q-node read as (empties, partial child or None,
        fulls), in the stored order or else its reversal; the labels must read
        empties, at most one partial, then fulls."""
        labels = [self._label(ch) for ch in node.children]
        for seq, labs in ((node.children, labels), (node.children[::-1], labels[::-1])):
            i = 0
            while i < len(labs) and labs[i] == _EMPTY:
                i += 1
            j = i + 1 if i < len(labs) and labs[i] == _PARTIAL else i
            if all(lab == _FULL for lab in labs[j:]):
                return seq[:i], seq[i] if j > i else None, seq[j:]
        raise _Fail

    def _partial_items(self, node: _Node) -> list[_Node]:
        """Replacement child list for a non-root partial node, empties first.

        Walks down the chain of partial nodes: each level puts its empty side
        to the left and its full side to the right of the levels below it.
        """
        left: list[_Node] = []
        right: list[_Node] = []  # full sides, outermost first, each reversed
        while node is not None:
            if node.kind == _P:
                empty, full, partial = self._split(node)
                if len(partial) > 1:
                    raise _Fail
                lo = [_make_p(empty)] if empty else []
                hi = [_make_p(full)] if full else []
                node = partial[0] if partial else None
            else:
                lo, node, hi = self._orient_q(node)
            left.extend(lo)
            right.extend(reversed(hi))
        return left + right[::-1]

    def _apply_root(self, node: _Node):
        """The one root template: the non-empty children form a run, full
        inside, with at most one partial child at each end.  A P root puts its
        run, the full children as one P-node, in a Q-node after the empties."""
        if node.kind == _LEAF:
            return
        if node.kind == _P:
            empty, full, partial = self._split(node)
            if len(partial) > 2:
                raise _Fail
            run = partial[:1] + ([_make_p(full)] if full else []) + partial[1:]
            node.children = empty + [_make_q(self._open_run(run))]
            return
        children, pert = node.children, self._pert
        first, last = 0, len(children)
        while children[first] not in pert:
            first += 1
        while children[last - 1] not in pert:
            last -= 1
        run = children[first:last]
        for ch in run[1:-1]:
            if pert.get(ch) != ch.leaves:
                raise _Fail
        node.children = children[:first] + self._open_run(run) + children[last:]

    def _open_run(self, run: list[_Node]) -> list[_Node]:
        """The run with each partial end replaced by its _partial_items, the
        right one reversed, so both empty sides face out.  A new node is never
        partial, and neither is a run's only child (it would be the root)."""
        if self._label(run[-1]) == _PARTIAL:
            run = run[:-1] + self._partial_items(run[-1])[::-1]
        if self._label(run[0]) == _PARTIAL:
            run = self._partial_items(run[0]) + run[1:]
        return run

    def _normalize(self, node: _Node):
        """Splice out a root-template node left with a single child."""
        if node.kind == _LEAF or len(node.children) != 1:
            return
        child = node.children[0]
        parent = child.parent = node.parent
        if parent is not None:
            parent.children[parent.children.index(node)] = child
        else:
            self.root = child
