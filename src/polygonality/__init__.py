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
    Multigraph,
    VertexId,
    WhiteheadGraph,
    analyze,
    build_whitehead_graph,
)
from .witness import (
    Cycle,
    CycleList,
    Decision,
    Infeasible,
    WitnessVerdict,
    decide,
    enumerate_cycles,
    make_cycle,
    search_witness_lp,
    verify_witness,
)
from .words import (
    WordList,
    cyclic_reduce,
    make_word_list,
    parse_word,
    parse_word_list,
    word_text,
)

__version__ = "0.1.0"
