"""Edge-coloring criticality toolkit.

Exact chromatic-index decisions, Kempe-chain recoloring machinery,
adjacency-lemma oracles, and desk-scale verification sweeps over vertex
splits of regular class-1 graphs.
"""

from .coloring import (
    ColoringError,
    ImproperColoringError,
    LinkageError,
    PartialEdgeColoring,
    are_linked,
    coloring_from_text,
    elementary_violation,
    kempe_chain,
    kempe_swap,
    parity_census,
    recolor_edge,
    subchain_swap,
)
from .enumeration import enumerate_regular_graphs
from .graph6 import (
    Graph6Error,
    emit_graph6,
    parse_graph6,
)
from .graphs import (
    Edge,
    Graph,
    GraphError,
    canonical_mask,
    complete,
    complete_bipartite,
    complete_minus_matching,
    cube,
    cycle,
    graph_from_mask,
    is_overfull,
    make_graph,
    petersen,
    petersen_minus_vertex,
    prism,
    vertex_split,
)
from .lemmas import (
    check_deficiency_pair,
    check_kierstead,
    check_kite,
    check_multifan,
    check_parity,
    check_vizing_adjacency,
    lemma_records,
)
from .records import (
    RecordError,
    VerificationRecord,
    read_records,
    record_from_json_line,
    tally_verdicts,
)
from .solver import (
    SearchBudgetExceeded,
    chromatic_index,
    critical_edge_report,
    enumerate_colorings,
    find_coloring,
    find_delta_coloring,
    vizing_color,
)
from .structures import (
    build_maximal_multifan,
    enumerate_kierstead_paths,
    find_full_deficiency_pairs,
    kierstead_violation,
    kite_violation,
    kites_with_head,
    multifan_violation,
)
from .verifier import (
    SplitInstance,
    SweepConfig,
    check_split_instance,
    inherit_split_coloring,
    plan_instances,
    reproduce_nonelementary_path,
    run_sweep,
)

__version__ = "0.1.0"
