"""Cycle-list witnesses: enumeration, verification, LP search.

A witness for a graph with connecting maps is a nonempty multiset of simple
cycles such that for every vertex ``v`` and every unordered pair of distinct
edges ``{e, f}`` at ``v``, as many cycles contain both ``e`` and ``f`` as
contain both of their images under the connecting map at ``v``.  The verifier
checks this directly; the searcher decides existence (optionally demanding a
cycle of length at least three) by an exact rational LP over all simple
cycles and, on failure, returns a rational refutation certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .errors import GraphError, PreconditionError, VerificationError
from .simplex import ZERO, maximize_homogeneous
from .whitehead import Multigraph, VertexId, WhiteheadGraph, graph_hash, json_int, json_object


Turn = tuple[VertexId, frozenset[int]]


@dataclass(frozen=True)
class Cycle:
    """A simple cycle: its edge-id set, canonical key and stored walk.

    The walk visits vertices ``v_0, ..., v_{n-1}``; ``turns[t]`` is
    ``(v_t, {edge_seq[t - 1], edge_seq[t]})``, the vertex with the two cycle
    edges there, and edge ``edge_seq[t]`` joins ``v_t`` to ``v_{t+1}``
    (indices mod ``n``).  Only ``edges`` and ``key`` take part in equality and
    hashing; the walk is derived from them by :func:`make_cycle`, which builds
    every cycle.  Cycles sort by length, then key.
    """

    edges: frozenset[int]
    key: tuple[int, ...]
    edge_seq: tuple[int, ...] = field(compare=False)
    turns: tuple[Turn, ...] = field(compare=False)

    def __len__(self) -> int:
        return len(self.edges)

    def __lt__(self, other: "Cycle") -> bool:
        return (len(self.edges), self.key) < (len(other.edges), other.key)

    @property
    def is_long(self) -> bool:
        return len(self.edges) >= 3


CycleList = dict[Cycle, int]


def make_cycle(graph: Multigraph, eids) -> Cycle:
    """Validate an edge subset as a simple cycle, walk it and canonicalize it.

    The subset must induce a connected subgraph in which every touched vertex
    has degree exactly two.  The walk starts at the least vertex along its
    least edge.  The canonical key is the lexicographically least rotation of
    the cyclic edge-id sequence, in either direction.
    """
    eids = frozenset(eids)
    if len(eids) < 2:
        raise GraphError(f"cycle needs at least two edges, got {sorted(eids)}")
    incidence: dict[VertexId, list[int]] = {}
    for eid in eids:
        if eid not in graph.edges:
            raise GraphError(f"cycle references unknown edge {eid}")
        for v in graph.edges[eid].ends:
            incidence.setdefault(v, []).append(eid)
    for v, es in incidence.items():
        if len(es) != 2:
            raise GraphError(f"edge set {sorted(eids)} has degree {len(es)} at {v}")
    # the walk also proves connectivity
    start = min(incidence)
    verts, seq = [], []
    v, eid = start, min(incidence[start])
    while True:
        verts.append(v)
        seq.append(eid)
        v = graph.edges[eid].other(v)
        if v == start:
            break
        a, b = incidence[v]
        eid = b if a == eid else a
    if len(seq) != len(eids):
        raise GraphError(f"edge set {sorted(eids)} is not a single cycle")
    key = min(
        tuple(s[i:] + s[:i])
        for s in (seq, list(reversed(seq)))
        for i in range(len(seq))
    )
    turns = tuple((verts[t], frozenset((seq[t - 1], seq[t]))) for t in range(len(seq)))
    return Cycle(eids, key, tuple(seq), turns)


def enumerate_cycles(graph: Multigraph) -> list[Cycle]:
    """All simple cycles (edge subsets), bigons included, in canonical order."""
    found: dict[frozenset[int], Cycle] = {}

    def extend(start, v, used, visited):
        for eid in graph.delta(v):
            if eid in used:
                continue
            w = graph.edges[eid].other(v)
            if w == start:
                if used:
                    all_eids = frozenset(used) | {eid}
                    if all_eids not in found:
                        found[all_eids] = make_cycle(graph, all_eids)
            elif w not in visited and start < w:
                extend(start, w, used | {eid}, visited | {w})

    for s in sorted(graph.active_vertices()):
        extend(s, s, frozenset(), {s})
    return sorted(found.values())


@dataclass(frozen=True)
class WitnessVerdict:
    ok: bool
    failures: tuple  # (vertex, (e, f), count, image count)
    has_long_cycle: bool
    per_edge_usage: dict[int, int]

    def __bool__(self) -> bool:
        return self.ok


def pair_counts(
    graph: Multigraph, cycles: CycleList
) -> tuple[dict[Turn, int], dict[int, int]]:
    """Turn counts and per-edge usage of a cycle list, with multiplicity.

    ``counts[(v, {e, f})]`` is the number of cycles turning at ``v`` from
    ``e`` to ``f``, which is the number containing both edges of a pair at
    ``v``; ``usage[e]`` is the number containing ``e``, for every edge.
    """
    counts: dict[Turn, int] = {}
    usage = dict.fromkeys(graph.edges, 0)
    for cyc, mult in cycles.items():
        for eid in cyc.edges:
            usage[eid] += mult
        for turn in cyc.turns:
            counts[turn] = counts.get(turn, 0) + mult
    return counts, usage


def verify_witness(
    graph: WhiteheadGraph,
    cycles: CycleList,
    require_long: bool = False,
) -> WitnessVerdict:
    """Check the balanced-pair condition of a cycle list against the graph."""
    if not cycles:
        raise PreconditionError("a witness must be a nonempty cycle list")
    # count turns of cycles rebuilt here, never the walks the caller stored
    fresh: CycleList = {}
    for cyc, mult in cycles.items():
        if mult <= 0:
            raise PreconditionError(f"multiplicity of {sorted(cyc.edges)} must be positive")
        rebuilt = make_cycle(graph, cyc.edges)  # raises if the cycle is not in this graph
        fresh[rebuilt] = fresh.get(rebuilt, 0) + mult
    counts, usage = pair_counts(graph, fresh)
    failures = []
    for v in graph.active_vertices():
        delta = graph.delta(v)
        for i, e in enumerate(delta):
            for f in delta[i + 1 :]:
                here = counts.get((v, frozenset((e, f))), 0)
                img = frozenset((graph.sigma_edge(v, e), graph.sigma_edge(v, f)))
                there = counts.get((v.mu(), img), 0)
                if here != there:
                    failures.append((v, (e, f), here, there))
    has_long = any(c.is_long for c in fresh)
    ok = not failures and (has_long or not require_long)
    return WitnessVerdict(ok, tuple(failures), has_long, usage)


@dataclass(frozen=True)
class Infeasible:
    """Refutation: rational multipliers certifying that no witness exists."""

    require_long: bool
    certificate: tuple  # ((vertex, (e, f), multiplier as str), ...)
    normalization_dual: str

    def to_json(self, graph: WhiteheadGraph) -> dict:
        return {
            "infeasible": True,
            "require_long": self.require_long,
            "farkas": [
                {"vertex": v.name, "pair": [e, f], "value": val}
                for v, (e, f), val in self.certificate
            ],
            "normalization_dual": self.normalization_dual,
            "graph_hash": graph_hash(graph),
        }


def _constraint_rows(graph: WhiteheadGraph, cycles: list[Cycle]):
    """Deduplicated balance rows: +1 on cycles covering (v,{e,f}), -1 on the image."""
    covering: dict[Turn, list[int]] = {}
    for j, c in enumerate(cycles):
        for turn in c.turns:
            covering.setdefault(turn, []).append(j)
    rows = []
    keys = []
    for v in sorted(graph.active_vertices()):
        delta = graph.delta(v)
        for i, e in enumerate(delta):
            for f in delta[i + 1 :]:
                img = tuple(sorted((graph.sigma_edge(v, e), graph.sigma_edge(v, f))))
                this_key = (v, (e, f))
                partner_key = (v.mu(), img)
                if (partner_key[0], partner_key[1]) < (this_key[0], this_key[1]):
                    continue  # the partner emits this row (negated)
                row = [0] * len(cycles)
                for j in covering.get((v, frozenset((e, f))), ()):
                    row[j] += 1
                for j in covering.get((v.mu(), frozenset(img)), ()):
                    row[j] -= 1
                if any(row):
                    rows.append(row)
                    keys.append((v, (e, f)))
    return rows, keys


def search_witness_lp(graph: WhiteheadGraph, require_long: bool = True):
    """Find an integer witness or refute its existence, in exact arithmetic.

    Maximizes the total weight on long cycles (or on all cycles when
    ``require_long`` is off) subject to the balance equations and a unit
    normalization.  A positive optimum scales to integer multiplicities; a
    zero optimum yields a rational refutation certificate, checked here.

    Returns a :class:`CycleList`, which the caller passes to
    :func:`verify_witness`, or an :class:`Infeasible`.
    """
    cycles = enumerate_cycles(graph)
    rows, keys = _constraint_rows(graph, cycles)
    if not cycles:
        return Infeasible(require_long, (), "0")
    objective = [1 if (c.is_long or not require_long) else 0 for c in cycles]
    res = maximize_homogeneous(rows, objective, stop_when_positive=True)
    if res.objective > 0:
        denom_lcm = lcm(*(int(val.denominator) for val in res.x))
        witness: CycleList = {}
        for c, val in zip(cycles, res.x):
            m = int(val * denom_lcm)
            if m:
                witness[c] = m
        return witness
    # optimum is zero: validate the dual certificate before reporting; with
    # y.A >= c on every cycle and a zero normalization multiplier, any x >= 0
    # with A x = 0 has c.x <= y.A x = 0, while a positive one only bounds c.x
    duals = res.duals
    norm_dual = duals[len(rows)]
    if norm_dual != 0:
        raise VerificationError(
            f"refutation certificate has normalization multiplier {norm_dual}, not 0"
        )
    for j, c in enumerate(cycles):
        lhs = sum((duals[i] * rows[i][j] for i in range(len(rows))), ZERO) + norm_dual
        if lhs < objective[j]:
            raise VerificationError(f"refutation certificate fails on cycle {sorted(c.edges)}")
    certificate = tuple(
        (v, pair, str(duals[i])) for i, (v, pair) in enumerate(keys) if duals[i] != 0
    )
    return Infeasible(require_long, certificate, str(norm_dual))


# -- witness (de)serialization ----------------------------------------------


def witness_to_json(graph: WhiteheadGraph, cycles: CycleList) -> dict:
    """Serialize a cycle list; it is not verified here."""
    _, usage = pair_counts(graph, cycles)
    return {
        "graph_hash": graph_hash(graph),
        "cycles": [
            {"edges": sorted(c.edges), "multiplicity": m} for c, m in sorted(cycles.items())
        ],
        "long_cycle_present": any(c.is_long for c in cycles),
        "per_edge_usage": {str(eid): n for eid, n in sorted(usage.items())},
    }


def witness_from_json(graph: WhiteheadGraph, data: dict) -> CycleList:
    """Parse witness JSON strictly: cycle entries of exactly ``edges`` (int ids,
    none repeated) and ``multiplicity`` (a positive int), and the graph's hash."""
    try:
        cycles = [json_object(c, {"edges", "multiplicity"}, "a cycle") for c in data["cycles"]]
        entries = [(list(c["edges"]), c["multiplicity"]) for c in cycles]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed witness JSON: {exc}") from exc
    for listed, mult in entries:
        for eid in listed:
            json_int(eid, "edge id")
        if len(set(listed)) != len(listed):
            raise GraphError(f"cycle on edges {sorted(listed)} repeats an edge id")
        if type(mult) is not int or mult <= 0:
            raise GraphError(f"multiplicity {mult!r} is not a positive integer")
    if "graph_hash" not in data:
        raise GraphError("malformed witness JSON: no graph_hash")
    if data["graph_hash"] != graph_hash(graph):
        raise VerificationError("witness was produced for a different graph")
    out: CycleList = {}
    for listed, mult in entries:
        cyc = make_cycle(graph, listed)
        out[cyc] = out.get(cyc, 0) + mult
    return out
