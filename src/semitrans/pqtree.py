"""PQ-tree over a fixed ground set of rows, reduced one column at a time.

The tree represents exactly the set of row orders under which every column
reduced so far has its ones consecutive.  P-nodes permute children freely,
Q-nodes only reverse.  A pertinent node is empty, full, or partial.  One rule
stands for the template set: at the pertinent root, P- or Q-node, the
non-empty children form one run, full inside, with at most one partial child
at each end, which opens into its subtrees, empty side outermost.  The partial
nodes below the root form a chain (each has at most one partial child), walked
iteratively from the top, so the walk needs no call stack as deep as the tree.

Every node keeps the rows of the leaves below it as one bitmask, the OR of
its children's, so labels are mask tests against the column: a node that
shares no row with it is empty, one whose rows it holds all of is full, any
other is partial.  A reduction walks down from the root, at each node into
the first child that meets the column, and stops where that child does not
hold the whole column: that node is the pertinent root.  Nodes point only at
their children, so a tree holds no reference cycle and is freed as soon as it
is dropped.  One reduction costs the children it scans on the path from the
root to the pertinent root plus the children lists the templates read and
rewrite; a deep pertinent root pays for its whole path, so nested prefixes
(each column's rows below a chain of its predecessors) cost Theta(k^2) in
total.
"""

from __future__ import annotations


class _Fail(Exception):
    pass


_LEAF, _P, _Q = 0, 1, 2

_EMPTY, _FULL, _PARTIAL = 0, 1, 2


class _Node:
    """A tree node.  rows has bit r-1 set for each leaf row r below it; it is
    fixed at construction, since a reduction rewrites children lists only
    where the leaf set stays the same."""

    __slots__ = ("kind", "children", "row", "rows")

    def __init__(self, kind: int, children: list["_Node"] | None = None, row: int = 0):
        self.kind = kind
        self.children = children if children is not None else []
        self.row = row
        # children hold disjoint rows, so the sum of their masks is their OR
        self.rows = sum(ch.rows for ch in self.children) if children else 1 << (row - 1)


def _make_p(nodes: list[_Node]) -> _Node:
    return nodes[0] if len(nodes) == 1 else _Node(_P, nodes)


def _make_q(items: list[_Node]) -> _Node:
    """A root run's node; the run never has two items (a partial end opens into two or more)."""
    return items[0] if len(items) == 1 else _Node(_Q, items)


class PQTree:
    """Certificate engine: feed row subsets via reduce(), read a frontier out."""

    def __init__(self, m: int):
        if m < 0:
            raise ValueError("row count must be nonnegative")
        self.m = m
        leaves = [_Node(_LEAF, row=r) for r in range(1, m + 1)]
        self.root: _Node | None = _make_p(leaves) if leaves else None
        self._mask = 0  # the column of the reduction in progress

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
        parent, node = None, self.root
        while True:  # down to the pertinent root, the deepest node holding all of mask
            for child in node.children:
                if child.rows & mask:
                    break
            if child.rows & mask != mask:
                break
            parent, node = node, child
        if node.rows == mask:
            return True
        self._mask = mask
        try:
            self._apply_root(node)
        except _Fail:
            return False
        self._normalize(node, parent)
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

    def _label(self, node: _Node) -> int:
        hit = node.rows & self._mask
        if not hit:
            return _EMPTY
        return _FULL if hit == node.rows else _PARTIAL

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
        if node.kind == _P:
            empty, full, partial = self._split(node)
            if len(partial) > 2:
                raise _Fail
            run = partial[:1] + ([_make_p(full)] if full else []) + partial[1:]
            node.children = empty + [_make_q(self._open_run(run))]
            return
        children, mask = node.children, self._mask
        first, last = 0, len(children)
        while not children[first].rows & mask:
            first += 1
        while not children[last - 1].rows & mask:
            last -= 1
        run = children[first:last]
        for ch in run[1:-1]:
            if ch.rows & mask != ch.rows:
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

    def _normalize(self, node: _Node, parent: _Node | None):
        """Splice out a root-template node left with a single child."""
        if len(node.children) != 1:
            return
        if parent is not None:
            parent.children[parent.children.index(node)] = node.children[0]
        else:
            self.root = node.children[0]
