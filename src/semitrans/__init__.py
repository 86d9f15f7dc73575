"""Semi-transitive orientability of split graphs, decided in polynomial time
with verifiable certificates, on top of a consecutive/circular-ones engine."""

from types import ModuleType as _ModuleType

from .graphs import (
    Graph,
    GraphFormatError,
    SplitPartition,
    TwinReduction,
    format_graph,
    induced_subgraph,
    neighborhood_matrix,
    normalize_partition,
    parse_graph_pinned,
    split_partition,
    twin_reduce,
)
from .matrices import (
    BinaryMatrix,
    SizeGuardError,
    has_circular_ones,
    has_consecutive_ones,
    parse_matrix,
    tucker_transform,
)
from .orient import (
    Orientation,
    ShortcutWitness,
    find_shortcut,
    format_orientation,
    is_acyclic,
    is_semi_transitive_orientation,
    oracle_semi_transitive,
    orient_by_order,
    parse_orientation,
)
from .recognition import (
    Decision,
    InternalConsistencyError,
    Labeling,
    LabelingReport,
    Refutation,
    Shape,
    check_small_I,
    construct_orientation,
    decide_labeling,
    enumerate_labelings_oracle,
    find_forbidden_subgraph,
    prune_trivial_columns,
    recognize,
    render_decision,
    validate_labeling,
)
from .generate import (
    GenSpec,
    SplitMix64,
    forbidden_configuration,
    generate,
    split_graph_from_types,
)
from .harness import BenchReport, DiffReport, bench, difftest

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
