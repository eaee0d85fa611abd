"""Certifying decision library for polygonality of word lists in free groups."""

from .errors import (
    GraphError,
    PairingError,
    PolygonalityError,
    PreconditionError,
    TrivialWordError,
    VerificationError,
    WordParseError,
)
from .fourvertex import (
    AuxDigraph,
    Completion,
    GoodList,
    GoodPart,
    build_auxiliary_digraph,
    decompose_good,
    four_vertex_witness,
    inductive_witness,
    uniform_permutation,
)
from .regular import (
    FractionalColoring,
    Matching,
    RegularWitness,
    enumerate_perfect_matchings,
    fractional_edge_coloring,
    is_k_graph,
    regular_witness,
)
from .surface import (
    SurfaceComplex,
    SurfaceReport,
    boundary_words,
    build_surface,
    surface_report,
)
from .whitehead import (
    AnalysisReport,
    Dart,
    EdgeRecord,
    Multigraph,
    VertexId,
    WhiteheadGraph,
    analyze,
    build_whitehead_graph,
)
from .witness import (
    Cycle,
    CycleList,
    Infeasible,
    WitnessVerdict,
    enumerate_cycles,
    make_cycle,
    pair_counts,
    search_witness_lp,
    verify_witness,
)
from .words import (
    Letter,
    Word,
    WordList,
    cyclic_reduce,
    length2_cyclic_subwords,
    parse_word,
    parse_word_list,
)

__version__ = "0.1.0"
