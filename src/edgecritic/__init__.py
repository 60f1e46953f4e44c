"""Edge-coloring criticality toolkit.

Exact chromatic-index decisions, Kempe-chain recoloring machinery,
adjacency-lemma oracles, and desk-scale verification sweeps over vertex
splits of regular class-1 graphs.

Import each name from the module that defines it (`edgecritic.solver`,
`edgecritic.verifier`, ...). The package root loads every module but `cli`
and re-exports only the names that code outside the package imports from
it: the five the benchmark harness builds its order-10 sample from.
"""

from . import coloring, enumeration, graph6, graphs, lemmas, records, solver, structures, verifier
from .graph6 import emit_graph6
from .graphs import complete, complete_minus_matching
from .solver import find_delta_coloring
from .verifier import SplitInstance
