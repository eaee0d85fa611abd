"""Cycle lists for regular graphs via fractional edge coloring.

A k-regular graph in which every odd vertex set is left by at least k edges
carries a fractional k-edge-coloring: a list of perfect matchings covering
every edge the same number of times.  Pairwise symmetric differences of those
matchings decompose into cycles; collecting them over all matching pairs
yields a list in which every edge lies in the same number of cycles and every
adjacent edge pair lies in the same number of cycles.  ``coloring_witness``
does that collection for any coloring: the cycles of each pair of distinct
matchings are collected once, as edge sets, and counted with the product of
the two multiplicities; copies of one matching contribute nothing.  The
four-vertex construction feeds it a coloring read off its base graph.

Here the coloring is found by the package's one linear program, over the
enumerated matchings: a nonzero, nonnegative weighting of them in the kernel
of the balance rows ``cover_e - cover_e0``, one for each edge ``e`` other
than the first edge ``e0``, where ``cover_e`` marks the matchings that
contain ``e``.  Every edge is then covered by the same weight C, and since a
perfect matching holds |V|/2 of the k|V|/2 edges, integer weights of total
ell cover each edge ell/k times.  By Edmonds' description of the perfect
matching polytope such a weighting exists exactly when the odd-cut bound
holds, so a coloring is itself the proof of the hypothesis.  The exhaustive
odd-set check ``is_k_graph`` runs only after the linear program finds no
weighting, to name a violating set.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import GraphError, PreconditionError
from .simplex import maximize_homogeneous
from .whitehead import Multigraph, VertexId


class KGraphVerdict(NamedTuple):
    ok: bool
    k: int
    violating_set: tuple[VertexId, ...] | None


def _regularity(graph: Multigraph) -> int:
    degrees = {graph.degree(v) for v in graph.active_vertices()}
    if len(degrees) != 1:
        raise PreconditionError(f"graph is not regular (degrees {sorted(degrees)})")
    return degrees.pop()


def is_k_graph(graph: Multigraph, k: int | None = None) -> KGraphVerdict:
    """Exhaustive odd-cut check over the non-isolated vertices.

    ``k`` is the degree, when the caller already has it.  Returns the first
    violating odd set in canonical order (by size, then by vertex order) when
    the graph fails.
    """
    if k is None:
        k = _regularity(graph)
    verts = sorted(graph.active_vertices())
    for size in range(1, len(verts) + 1, 2):
        for subset in itertools.combinations(verts, size):
            inside = {v.index for v in subset}
            cut = sum(1 for s, t in graph.edges.values() if (s in inside) != (t in inside))
            if cut < k:
                return KGraphVerdict(False, k, subset)
    return KGraphVerdict(True, k, None)


def enumerate_perfect_matchings(graph: Multigraph) -> list[frozenset[int]]:
    """All perfect matchings on the non-isolated vertices, parallel edges distinct.

    A matching is its set of edge ids.  Each matching covers the least
    uncovered vertex first, by each of its edges in id order.
    """
    ends = graph.edges
    verts = graph.active_vertices()
    active = [v.index for v in verts]
    delta = [graph.delta(v) for v in verts]
    covered = [True] * len(graph.vertices())
    for i in active:
        covered[i] = False
    out: list[frozenset[int]] = []
    chosen: list[int] = []

    def extend(pos: int):
        while pos < len(active) and covered[active[pos]]:
            pos += 1
        if pos == len(active):
            out.append(frozenset(chosen))
            return
        i = active[pos]
        covered[i] = True
        for eid in delta[pos]:
            s, t = ends[eid]
            j = t if s == i else s
            if not covered[j]:
                covered[j] = True
                chosen.append(eid)
                extend(pos + 1)
                chosen.pop()
                covered[j] = False
        covered[i] = False

    if len(active) % 2 == 0:
        extend(0)
    return out


class FractionalColoring(NamedTuple):
    k: int
    ell: int
    entries: tuple[tuple[frozenset[int], int], ...]  # (matching, multiplicity)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "matchings": [
                {"edges": sorted(m), "multiplicity": n} for m, n in self.entries
            ],
        }


def fractional_edge_coloring(graph: Multigraph, k: int | None = None) -> FractionalColoring:
    """Perfect matchings with integer multiplicities covering each edge ell/k times.

    For a k-regular graph, finds nonzero rational weights on the enumerated
    perfect matchings that cover every edge equally, then clears
    denominators.  ``k`` is the degree, when the caller already has it.
    Raises GraphError when no such weights exist, which happens exactly when
    some odd vertex set is left by fewer than k edges.
    """
    if k is None:
        k = _regularity(graph)
    matchings = enumerate_perfect_matchings(graph)
    # cover[e][M] = 1 when M contains e; one balance row per edge after the first
    cover = {eid: [0] * len(matchings) for eid in graph.edge_ids()}
    for col, m in enumerate(matchings):
        for eid in m:
            cover[eid][col] = 1
    first, *rest = cover.values()
    rows = [[a - b for a, b in zip(row, first)] for row in rest]
    res = maximize_homogeneous(rows, [1] * len(matchings))
    if not res.objective:
        raise GraphError(f"no fractional edge coloring: an odd set is left by fewer than {k} edges")
    entries = [(m, mult) for m, mult in zip(matchings, res.integer_x()) if mult]
    ell = sum(n for _, n in entries)
    return FractionalColoring(k, ell, tuple(entries))


class RegularWitness(NamedTuple):
    cycles: dict[frozenset[int], int]  # multiplicity of each cycle's edge set
    m1: int
    m2: int
    coloring: FractionalColoring


def _difference_cycles(ends: dict[int, tuple[int, int]], ma: list[int], mb: list[int]):
    """The edge sets of the cycles of ``M_a Δ M_b``.

    ``ma[i]`` and ``mb[i]`` are the edges of the two perfect matchings at the
    vertex of index ``i``, and ``ends`` maps an edge id to its two end
    indices.  A vertex where the matchings differ has degree two in the
    difference, so each component is followed from any of its vertices,
    alternating between the matchings, until it closes.
    """
    done = [False] * len(ma)
    for start in range(len(ma)):
        if done[start] or ma[start] == mb[start]:
            continue
        this, other = ma, mb
        cycle = []
        i = start
        while True:
            done[i] = True
            eid = this[i]
            cycle.append(eid)
            s, t = ends[eid]
            i = t if s == i else s
            if i == start:
                break
            this, other = other, this
        yield frozenset(cycle)


def coloring_witness(graph: Multigraph, coloring: FractionalColoring) -> RegularWitness:
    """Cycle list from all pairwise symmetric differences of the coloring.

    With ell matchings covering each edge ell/k times, every edge lands in
    exactly (ell/k)(ell - ell/k) cycles and every adjacent pair of distinct
    edges in exactly (ell/k)^2.
    """
    # copies of one matching have an empty difference, so each pair of distinct
    # matchings contributes its cycles n_a * n_b times
    tables = []  # per matching: its edge at each vertex index, and its multiplicity
    ends = graph.edges
    for m, n in coloring.entries:
        table = [-1] * len(graph.vertices())
        for eid in m:
            for i in ends[eid]:
                table[i] = eid
        tables.append((table, n))
    cycles: dict[frozenset[int], int] = {}
    for (ma, n_a), (mb, n_b) in itertools.combinations(tables, 2):
        for cyc in _difference_cycles(ends, ma, mb):
            cycles[cyc] = cycles.get(cyc, 0) + n_a * n_b
    ell = coloring.ell
    share = ell // coloring.k
    return RegularWitness(cycles, share * (ell - share), share * share, coloring)


def regular_witness(graph: Multigraph) -> RegularWitness:
    """Cycle list of the coloring solved as a linear program.

    The coloring is solved first.  When it exists, every odd vertex set is
    left by at least k edges: every perfect matching crosses every odd cut,
    and each edge carries weight 1/k.  Only a coloring LP with optimum zero
    runs ``is_k_graph``, whose first violating odd set the
    ``PreconditionError`` names.
    """
    k = _regularity(graph)
    if k <= 1:
        raise PreconditionError(f"regular construction needs degree > 1, got {k}")
    try:
        coloring = fractional_edge_coloring(graph, k)
    except GraphError:
        verdict = is_k_graph(graph, k)
        if verdict.ok:
            raise
        raise PreconditionError(
            f"odd set {[v.name for v in verdict.violating_set]} is left by fewer than {k} edges"
        ) from None
    return coloring_witness(graph, coloring)
