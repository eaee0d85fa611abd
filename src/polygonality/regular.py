"""Cycle lists for regular graphs via fractional edge coloring.

A k-regular graph in which every odd vertex set is left by at least k edges
carries a fractional k-edge-coloring: a list of perfect matchings covering
every edge the same number of times.  Pairwise symmetric differences of those
matchings decompose into cycles; collecting them over all matching pairs
yields a list in which every edge lies in the same number of cycles and every
adjacent edge pair lies in the same number of cycles.  The coloring is found
as an exact rational feasibility problem over the enumerated matchings.

By Edmonds' description of the perfect matching polytope that problem is
feasible exactly when the odd-cut bound holds, so a coloring is itself the
proof of the hypothesis.  The exhaustive odd-set check ``is_k_graph`` runs
only after the problem turns out infeasible, to name a violating set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .errors import GraphError, PreconditionError, VerificationError
from .simplex import find_feasible
from .whitehead import Multigraph, VertexId
from .witness import CycleList, make_cycle, pair_counts


@dataclass(frozen=True)
class Matching:
    edges: frozenset[int]


@dataclass(frozen=True)
class KGraphVerdict:
    ok: bool
    k: int
    violating_set: tuple[VertexId, ...] | None

    def __bool__(self) -> bool:
        return self.ok


def _regularity(graph: Multigraph) -> int:
    degrees = {graph.degree(v) for v in graph.active_vertices()}
    if len(degrees) != 1:
        raise PreconditionError(f"graph is not regular (degrees {sorted(degrees)})")
    return degrees.pop()


def is_k_graph(graph: Multigraph) -> KGraphVerdict:
    """Exhaustive odd-cut check over the non-isolated vertices.

    Returns the first violating odd set in canonical order (by size, then by
    vertex order) when the graph fails.
    """
    k = _regularity(graph)
    verts = sorted(graph.active_vertices())
    for size in range(1, len(verts) + 1, 2):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            cut = sum(
                1
                for eid in graph.edges
                if len(inside.intersection(graph.edges[eid].ends)) == 1
            )
            if cut < k:
                return KGraphVerdict(False, k, subset)
    return KGraphVerdict(True, k, None)


def enumerate_perfect_matchings(graph: Multigraph) -> list[Matching]:
    """All perfect matchings on the non-isolated vertices, parallel edges distinct."""
    verts = sorted(graph.active_vertices())
    out: list[Matching] = []

    def extend(uncovered: tuple[VertexId, ...], chosen: tuple[int, ...]):
        if not uncovered:
            out.append(Matching(frozenset(chosen)))
            return
        v = uncovered[0]
        rest = set(uncovered[1:])
        for eid in graph.delta(v):
            w = graph.edges[eid].other(v)
            if w in rest:
                extend(tuple(x for x in uncovered[1:] if x != w), chosen + (eid,))

    if len(verts) % 2 == 0:
        extend(tuple(verts), ())
    return out


@dataclass(frozen=True)
class FractionalColoring:
    k: int
    ell: int
    entries: tuple[tuple[Matching, int], ...]  # (matching, multiplicity)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "matchings": [
                {"edges": sorted(m.edges), "multiplicity": n} for m, n in self.entries
            ],
        }


def fractional_edge_coloring(graph: Multigraph, k: int) -> FractionalColoring:
    """Perfect matchings with integer multiplicities covering each edge ell/k times.

    Solves for rational weights with unit total mass and per-edge coverage
    1/k over the enumerated perfect matchings, then clears denominators.
    Raises GraphError when no such weights exist, which happens exactly when
    some odd vertex set is left by fewer than k edges.
    """
    if k <= 1:
        raise PreconditionError(f"fractional coloring needs k > 1, got {k}")
    degree = _regularity(graph)
    if degree != k:
        raise PreconditionError(f"graph is {degree}-regular, not {k}-regular")
    matchings = enumerate_perfect_matchings(graph)
    eids = graph.edge_ids()
    # rows: total mass 1, then per edge (scaled by k): sum_{M ni e} k*y_M = 1
    rows = [[1] * len(matchings)]
    rhs = [1]
    for eid in eids:
        rows.append([k if eid in m.edges else 0 for m in matchings])
        rhs.append(1)
    res = find_feasible(rows, rhs)
    if res.status != "optimal":
        raise GraphError(f"no fractional edge coloring: an odd set is left by fewer than {k} edges")
    denom_lcm = lcm(*(int(val.denominator) for val in res.x))
    entries = []
    for m, val in zip(matchings, res.x):
        mult = int(val * denom_lcm)
        if mult:
            entries.append((m, mult))
    ell = sum(n for _, n in entries)
    if ell % k != 0:
        raise VerificationError(f"total matching count {ell} not divisible by {k}")
    share = ell // k
    for eid in eids:
        cover = sum(n for m, n in entries if eid in m.edges)
        if cover != share:
            raise VerificationError(f"edge {eid} covered {cover} times, expected {share}")
    return FractionalColoring(k, ell, tuple(entries))


@dataclass(frozen=True)
class RegularWitness:
    cycles: CycleList
    m1: int
    m2: int
    ell: int
    k: int
    coloring: FractionalColoring


def _edge_components(graph: Multigraph, eids: frozenset[int]) -> list[frozenset[int]]:
    remaining = set(eids)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = set(graph.edges[seed].ends)
        remaining.discard(seed)
        grown = True
        while grown:
            grown = False
            for eid in list(remaining):
                if frontier.intersection(graph.edges[eid].ends):
                    comp.add(eid)
                    frontier.update(graph.edges[eid].ends)
                    remaining.discard(eid)
                    grown = True
        comps.append(frozenset(comp))
    return comps


def regular_witness(graph: Multigraph) -> RegularWitness:
    """Cycle list from all pairwise symmetric differences of the coloring.

    The coloring is solved first.  When it exists, every odd vertex set is
    left by at least k edges: every perfect matching crosses every odd cut,
    and each edge carries weight 1/k.  Only an infeasible coloring runs
    ``is_k_graph``, whose first violating odd set the ``PreconditionError``
    names.

    With ell matchings covering each edge ell/k times, every edge lands in
    exactly (ell/k)(ell - ell/k) cycles and every adjacent pair of distinct
    edges in exactly (ell/k)^2; both counts are recomputed and asserted.
    """
    k = _regularity(graph)
    if k <= 1:
        raise PreconditionError(f"regular construction needs degree > 1, got {k}")
    try:
        coloring = fractional_edge_coloring(graph, k)
    except GraphError:
        verdict = is_k_graph(graph)
        if verdict.ok:
            raise
        raise PreconditionError(
            f"odd set {[v.name for v in verdict.violating_set]} is left by fewer than {k} edges"
        ) from None
    slots: list[Matching] = []
    for m, n in coloring.entries:
        slots.extend([m] * n)
    cycles: CycleList = {}
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            diff = slots[i].edges.symmetric_difference(slots[j].edges)
            if not diff:
                continue
            for comp in _edge_components(graph, diff):
                cyc = make_cycle(graph, comp)
                cycles[cyc] = cycles.get(cyc, 0) + 1
    ell = coloring.ell
    share = ell // k
    m1 = share * (ell - share)
    m2 = share * share
    pair_count, usage = pair_counts(graph, cycles)
    for eid, n in usage.items():
        if n != m1:
            raise VerificationError(f"edge {eid} lies in {n} cycles, expected {m1}")
    for v in graph.active_vertices():
        delta = graph.delta(v)
        for e, f in itertools.combinations(delta, 2):
            n = pair_count.get((v, frozenset((e, f))), 0)
            if n != m2:
                raise VerificationError(
                    f"pair ({e},{f}) at {v} lies in {n} cycles, expected {m2}"
                )
    return RegularWitness(cycles, m1, m2, ell, k, coloring)
