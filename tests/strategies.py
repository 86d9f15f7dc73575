"""Hypothesis strategies for graphs, matrices and split instances."""

from itertools import combinations

from hypothesis import strategies as st

from semitrans import BinaryMatrix, Graph
from semitrans.generate import split_graph_from_types


@st.composite
def edge_sets(draw, max_n=7):
    """(n, edges): a vertex count and a set of pairs (u, v) with 1 <= u < v <= n."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
    return n, frozenset(p for i, p in enumerate(pairs) if (mask >> i) & 1)


def graphs(max_n=7):
    return edge_sets(max_n).map(lambda case: Graph(*case))


@st.composite
def binary_matrices(draw, max_m=6, max_n=6):
    m = draw(st.integers(min_value=0, max_value=max_m))
    n = draw(st.integers(min_value=0, max_value=max_n))
    cols = tuple(draw(st.integers(min_value=0, max_value=(1 << m) - 1)) if m else 0
                 for _ in range(n))
    return BinaryMatrix(m, n, cols)


@st.composite
def split_partitions(draw, max_k=5, max_t=4):
    k = draw(st.integers(min_value=1, max_value=max_k))
    t = draw(st.integers(min_value=0, max_value=max_t))
    types = [draw(st.sets(st.integers(min_value=1, max_value=t), max_size=t)) if t else set()
             for _ in range(k)]
    return split_graph_from_types(types, t)
