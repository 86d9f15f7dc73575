"""(0,1)-matrices with certificate row permutations for consecutive/circular ones.

Columns are stored as bitmasks over rows (bit r-1 = row r), which keeps the
pairwise-intersection pipeline cheap at large sizes.  A row permutation is a
tuple giving the row indices in their new order: perm[p-1] is the row placed
at position p.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .pqtree import PQTree


class SizeGuardError(ValueError):
    """An enumeration oracle was asked to exceed its configured size bound."""


class BinaryMatrix(namedtuple("BinaryMatrix", "m n columns labels")):
    """Immutable m x n matrix over {0,1}, column-major bitmask storage:
    columns is a tuple of n row masks, labels None or one entry per column."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, columns: tuple[int, ...], labels: tuple[object, ...] | None = None):
        if m < 0 or n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(columns) != n:
            raise ValueError("column count mismatch")
        if columns and (min(columns) < 0 or max(columns) >> m):
            raise ValueError("column mask out of range for row count")
        if labels is not None and len(labels) != n:
            raise ValueError("label list must have one entry per column")
        return tuple.__new__(cls, (m, n, columns, labels))


class GraphFormatError(ValueError):
    """Malformed graph, orientation or matrix text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_header(text: str, names: str) -> tuple[int, int, list[tuple[int, str]]]:
    """The two nonnegative integers of a text's header line, named by names
    (such as 'n m') in its error message, and the data lines after it: the
    (1-based physical line number, stripped line) of every line that is
    neither blank nor a "#" comment."""
    lines = [(line_no, line) for line_no, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.strip()) and line[0] != "#"]
    if not lines:
        raise GraphFormatError(1, "empty input")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2:
        raise GraphFormatError(head_no, f"expected header '{names}'")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(head_no, "non-integer header") from None
    if a < 0 or b < 0:
        raise GraphFormatError(head_no, "negative header value")
    del lines[0]
    return a, b, lines


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse "m n" followed by m lines of n characters over {0,1}."""
    m, n, lines = read_header(text, "m n")
    if n == 0 and not lines:  # the m rows are empty lines, dropped as blank
        return BinaryMatrix(m, 0, ())
    if len(lines) != m:
        raise ValueError(f"expected {m} matrix rows, found {len(lines)}")
    cols = [0] * n
    for r, (line_no, ln) in enumerate(lines):
        if len(ln) != n or any(ch not in "01" for ch in ln):
            raise GraphFormatError(line_no, f"expected {n} characters over 0/1")
        for j, ch in enumerate(ln):
            if ch == "1":
                cols[j] |= 1 << r
    return BinaryMatrix(m, n, tuple(cols))


def format_permutation(perm: tuple[int, ...] | None) -> str:
    if perm is None:
        return "none"
    return "perm: " + " ".join(str(p) for p in perm)


def _ones_consecutive(mask: int) -> bool:
    if mask == 0:
        return True
    mask >>= (mask & -mask).bit_length() - 1
    return mask & (mask + 1) == 0


def has_consecutive_ones(mtx: BinaryMatrix) -> tuple[int, ...] | None:
    """Certificate row permutation for the consecutive-ones property, or None.

    PQ-tree reduction, one column at a time; columns are processed by
    decreasing number of ones (ties by index) and columns whose constraint is
    vacuous (at most one 1, or all ones) are skipped.  One pass drops each
    column into the bucket of its popcount; reading buckets m-1 down to 2 in
    insertion order is that stable sort.  The certificate is the final
    leftmost frontier.
    """
    buckets: list[list[int]] = [[] for _ in range(mtx.m + 1)]
    for c in mtx.columns:
        buckets[c.bit_count()].append(c)
    return reduce_buckets(mtx.m, buckets)


def reduce_buckets(m: int, buckets: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """The leftmost frontier of a PQ tree on m rows after reducing the
    columns of buckets[m-1] down to buckets[2] in order, or None at the first
    failing reduction; buckets[c] holds columns with c ones."""
    if m == 0:
        return ()
    tree = PQTree(m)
    for ones in range(m - 1, 1, -1):
        for c in buckets[ones]:
            if not tree.reduce(c):
                return None
    return tree.frontier()


def tucker_transform(mtx: BinaryMatrix) -> BinaryMatrix:
    """Complement every column having a 1 in the first row.

    Reduces circular-ones testing to consecutive ones: a complemented column is
    consecutive exactly when the original's zeros are, i.e. when its ones wrap.
    """
    if mtx.m == 0:
        raise ValueError("matrix has no first row")
    full = (1 << mtx.m) - 1
    cols = tuple([c ^ full if c & 1 else c for c in mtx.columns])
    return BinaryMatrix(mtx.m, mtx.n, cols, mtx.labels)


def has_circular_ones(mtx: BinaryMatrix) -> tuple[int, ...] | None:
    """Certificate row permutation for the circular-ones property, or None.

    A consecutive-ones certificate of the first-row-complemented matrix serves
    verbatim: each column is either untouched (consecutive implies circular) or
    complemented (its zeros are consecutive, so its ones wrap).
    """
    if mtx.m == 0:
        return ()
    return has_consecutive_ones(tucker_transform(mtx))
