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

Here the coloring is found by the package's one linear program, posed on
the simple graph of vertex pairs, where pair ``p`` stands for its ``m_p``
parallel edges: a nonzero, nonnegative weighting of the pair graph's perfect
matchings in the kernel of the rows ``m_p0 * cover_p - m_p * cover_p0``, one
for each pair after the first, where ``cover_p`` marks the matchings that
hold ``p``.  Every pair is then covered C * m_p times; scaled so that C is
an integer t, each matching of multiplicity n becomes n matchings of edge
ids that take each pair's edges round-robin, so every edge is covered t
times and ell = k * t.  By Edmonds' description of the perfect matching
polytope such a weighting exists exactly when the odd-cut bound holds, so a
coloring is itself the proof of the hypothesis.  The exhaustive odd-set
check ``is_k_graph``, which counts cuts over the graph's pair table, runs only
after the linear program finds no weighting, to name a violating set.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
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


def is_k_graph(graph: Multigraph) -> KGraphVerdict:
    """Exhaustive odd-cut check over the non-isolated vertices.

    A cut counts the edges of each vertex pair that crosses it.  Returns the
    first violating odd set in canonical order (by size, then by vertex
    order) when the graph fails.
    """
    k = _regularity(graph)
    pairs = [(s, t, len(eids)) for (s, t), eids in graph.pairs.items()]
    verts = graph.active_vertices()
    for size in range(1, len(verts) + 1, 2):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            cut = sum(m for s, t, m in pairs if (s in inside) != (t in inside))
            if cut < k:
                return KGraphVerdict(False, k, subset)
    return KGraphVerdict(True, k, None)


def enumerate_perfect_matchings(graph: Multigraph) -> list[frozenset[int]]:
    """All perfect matchings of the graph of vertex pairs, on the non-isolated vertices.

    The parallel edges of a vertex pair count once, by the least of their
    ids, and a matching is its set of those ids.  Each matching covers the
    least uncovered vertex first, by each of its pairs in id order.
    """
    delta: list[list[tuple[int, int]]] = [[] for _ in graph.vertices()]  # (edge, other end)
    for (s, t), eids in graph.pairs.items():
        delta[s].append((eids[0], t))
        delta[t].append((eids[0], s))
    out: list[frozenset[int]] = []
    chosen: list[int] = []

    def extend(free: int):  # the uncovered vertices, one bit each
        if not free:
            out.append(frozenset(chosen))
            return
        i = (free & -free).bit_length() - 1
        free ^= 1 << i
        for eid, j in delta[i]:
            if free >> j & 1:
                chosen.append(eid)
                extend(free ^ 1 << j)
                chosen.pop()

    active = sum(1 << i for i, d in enumerate(delta) if d)
    if active.bit_count() % 2 == 0:
        extend(active)
    return out


class FractionalColoring(NamedTuple):
    k: int
    ell: int
    entries: tuple[tuple[frozenset[int], int], ...]  # (matching, multiplicity)

    def to_json(self) -> dict:
        matchings = [{"edges": sorted(m), "multiplicity": n} for m, n in self.entries]
        return {"k": self.k, "ell": self.ell, "matchings": matchings}


def fractional_edge_coloring(graph: Multigraph) -> FractionalColoring:
    """Perfect matchings with integer multiplicities covering each edge ell/k times.

    For a k-regular graph, finds nonzero rational weights on the perfect
    matchings of the graph of vertex pairs that cover every pair in
    proportion to its edge count, then clears denominators and hands out
    each pair's edges round-robin.  Raises GraphError when no such weights
    exist, which happens exactly when some odd vertex set is left by fewer
    than k edges.
    """
    k = _regularity(graph)
    matchings = enumerate_perfect_matchings(graph)
    groups = {eids[0]: eids for eids in graph.pairs.values()}  # by least edge id
    (e0, m0), *rest = ((e, len(eids)) for e, eids in groups.items())
    # one balance row m_p0 * cover_p - m_p * cover_p0 per pair p after the first
    rows = [[m0 * (e in m) - mp * (e0 in m) for m in matchings] for e, mp in rest]
    res = maximize_homogeneous(rows, [1] * len(matchings))
    if not res.objective:
        raise GraphError(f"no fractional edge coloring: an odd set is left by fewer than {k} edges")
    x = res.integer_x()
    # pair p is covered C * m_p times; scale so that C is an integer t
    c0 = sum(n for n, m in zip(x, matchings) if e0 in m)
    scale, t = m0 // gcd(c0, m0), c0 // gcd(c0, m0)
    # n copies of a pair matching take each of its pairs' next n edges
    # round-robin, so every edge is covered t times; the copies repeat with the
    # lcm of the pair sizes, and equal copies are merged
    turn = dict.fromkeys(groups, 0)
    entries: dict[frozenset[int], int] = {}
    for m, n in zip(matchings, x):
        if n:
            n *= scale
            period = lcm(*(len(groups[e]) for e in m))
            for r in range(min(n, period)):
                copy = frozenset(groups[e][(turn[e] + r) % len(groups[e])] for e in m)
                entries[copy] = entries.get(copy, 0) + (n - r - 1) // period + 1
            for e in m:
                turn[e] += n
    return FractionalColoring(k, k * t, tuple(entries.items()))


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

    The coloring is solved first, and its ``k`` is the degree.  When it
    exists, every odd vertex set is left by at least k edges: every perfect
    matching crosses every odd cut, and each edge carries weight 1/k.  Only a
    coloring LP with optimum zero runs ``is_k_graph``, whose first violating
    odd set the ``PreconditionError`` names.  A 1-regular graph is a perfect
    matching, so its coloring always exists, and its degree is refused after.
    """
    try:
        coloring = fractional_edge_coloring(graph)
    except GraphError:
        verdict = is_k_graph(graph)
        if verdict.ok:
            raise
        raise PreconditionError(
            f"odd set {[v.name for v in verdict.violating_set]} is left by fewer than"
            f" {verdict.k} edges"
        ) from None
    if coloring.k <= 1:
        raise PreconditionError(f"regular construction needs degree > 1, got {coloring.k}")
    return coloring_witness(graph, coloring)
