"""Whitehead graphs with dart-level connecting maps.

The graph of a word list has one vertex per generator and per inverse
generator, and one edge per length-2 cyclic subword ``xy``, joining ``x`` to
``y^-1``.  Each edge carries two darts (edge-ends); the connecting map is
stored as a global involution on darts that sends the darts at a vertex ``v``
to the darts at ``mu(v)``, where ``mu`` swaps a generator with its inverse.
Position succession in the source words defines the involution: the dart of
the edge for positions ``(i, i+1)`` at ``x_{i+1}^-1`` is matched with the
dart of the edge for ``(i+1, i+2)`` at ``x_{i+1}``.

Graphs may also be built standalone (no words) from explicit edge and
connecting-map data; the constructor validates the involution law.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import GraphError, PreconditionError
from .words import Letter, WordList, length2_cyclic_subwords


@dataclass(frozen=True)
class VertexId:
    """A vertex ``a_g`` (sign +1) or ``a_g^-1`` (sign -1), ordered a1 < a1- < a2 < ..."""

    gen: int
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "sign", 1 if self.sign > 0 else -1)

    def mu(self) -> "VertexId":
        return VertexId(self.gen, -self.sign)

    @property
    def name(self) -> str:
        return f"a{self.gen}" if self.sign > 0 else f"a{self.gen}-"

    def __lt__(self, other: "VertexId") -> bool:
        return (self.gen, self.sign < 0) < (other.gen, other.sign < 0)

    def __str__(self) -> str:
        return self.name


def vertex_from_name(name: str) -> VertexId:
    """The vertex of a canonical name (``a1``, ``a1-``; no leading zeros)."""
    m = re.fullmatch(r"a([1-9]\d*)(-?)", name) if isinstance(name, str) else None
    if m is None:
        raise GraphError(f"bad vertex name {name!r} (expected e.g. 'a1' or 'a1-')")
    return VertexId(int(m.group(1)), -1 if m.group(2) else 1)


def vertex_of_letter(x: Letter) -> VertexId:
    return VertexId(x.gen, x.sign)


class Dart(NamedTuple):
    """One end of an edge: ``end`` indexes into the edge's endpoint pair."""

    eid: int
    end: int


@dataclass(frozen=True)
class EdgeRecord:
    eid: int
    ends: tuple[VertexId, VertexId]
    provenance: tuple[int, int] | None = None  # (word index, position)

    def other(self, v: VertexId) -> VertexId:
        if self.ends[0] == v:
            return self.ends[1]
        if self.ends[1] == v:
            return self.ends[0]
        raise GraphError(f"edge {self.eid} is not incident with {v}")

    def dart_at(self, v: VertexId) -> Dart:
        if self.ends[0] == v:
            return Dart(self.eid, 0)
        if self.ends[1] == v:
            return Dart(self.eid, 1)
        raise GraphError(f"edge {self.eid} is not incident with {v}")

    @property
    def label(self) -> str:
        if self.provenance is None:
            return f"e{self.eid}"
        j, i = self.provenance
        return f"w{j}:p{i}"


class Multigraph:
    """Loopless multigraph on the vertex set ``a1, a1-, ..., an, an-``.

    Immutable after construction.  Edge ids are arbitrary distinct integers;
    removal keeps the surviving ids stable.
    """

    def __init__(self, rank: int, edges: Iterable[EdgeRecord]):
        if rank < 1:
            raise GraphError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.edges: dict[int, EdgeRecord] = {}
        for e in edges:
            if e.eid in self.edges:
                raise GraphError(f"duplicate edge id {e.eid}")
            if e.ends[0] == e.ends[1]:
                raise GraphError(f"edge {e.eid} is a loop at {e.ends[0]}")
            for v in e.ends:
                if not 1 <= v.gen <= rank:
                    raise GraphError(f"edge {e.eid} endpoint {v} beyond rank {rank}")
            self.edges[e.eid] = e
        self._delta: dict[VertexId, list[int]] = {v: [] for v in self.vertices()}
        for eid in sorted(self.edges):
            for v in set(self.edges[eid].ends):
                self._delta[v].append(eid)

    def vertices(self) -> list[VertexId]:
        return [VertexId(g, s) for g in range(1, self.rank + 1) for s in (1, -1)]

    def edge_ids(self) -> list[int]:
        return sorted(self.edges)

    def delta(self, v: VertexId) -> list[int]:
        """Edge ids incident with ``v``, in increasing id order."""
        return list(self._delta[v])

    def degree(self, v: VertexId) -> int:
        return len(self._delta[v])

    def darts_at(self, v: VertexId) -> list[Dart]:
        return [self.edges[eid].dart_at(v) for eid in self._delta[v]]

    def dart_vertex(self, d: Dart) -> VertexId:
        return self.edges[d.eid].ends[d.end]

    def active_vertices(self) -> list[VertexId]:
        return [v for v in self.vertices() if self._delta[v]]

    def is_connected(self, ignore_isolated: bool = False) -> bool:
        verts = self.active_vertices() if ignore_isolated else self.vertices()
        if not verts:
            return True
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for eid in self._delta[v]:
                w = self.edges[eid].other(v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return all(v in seen for v in verts)

    def remove_edges(self, eids: Iterable[int]) -> "Multigraph":
        gone = set(eids)
        return Multigraph(self.rank, [e for eid, e in sorted(self.edges.items()) if eid not in gone])

    def local_edge_connectivity(self, x: VertexId, y: VertexId) -> int:
        """Maximum number of pairwise edge-disjoint x-y paths (= min cut size)."""
        if x == y:
            raise PreconditionError("local edge connectivity needs distinct endpoints")
        # unit-capacity arcs in both directions per edge; augment one path at a time
        cap: dict[tuple[int, int], int] = {}
        for eid in self.edges:
            cap[(eid, 0)] = 1  # ends[0] -> ends[1]
            cap[(eid, 1)] = 1
        flow = 0
        while True:
            parent: dict[VertexId, tuple[int, int]] = {}
            seen = {x}
            queue = [x]
            while queue and y not in seen:
                v = queue.pop(0)
                for eid in self._delta[v]:
                    e = self.edges[eid]
                    d = 0 if e.ends[0] == v else 1
                    if cap[(eid, d)] == 0:
                        continue
                    w = e.ends[1 - d]
                    if w not in seen:
                        seen.add(w)
                        parent[w] = (eid, d)
                        queue.append(w)
            if y not in seen:
                return flow
            v = y
            while v != x:
                eid, d = parent[v]
                cap[(eid, d)] -= 1
                cap[(eid, 1 - d)] += 1
                v = self.edges[eid].ends[d]
            flow += 1


class WhiteheadGraph(Multigraph):
    """Multigraph plus the connecting maps, stored as a dart involution.

    ``sigma[d]`` is a dart at ``mu(vertex(d))``; applying ``sigma`` twice is
    the identity, which is exactly the inverse-pair law for the per-vertex
    connecting maps.
    """

    def __init__(self, rank, edges, sigma: dict[Dart, Dart], words: WordList | None = None):
        super().__init__(rank, edges)
        self.sigma = dict(sigma)
        self.words = words
        self._validate_sigma()

    def _validate_sigma(self):
        all_darts = {Dart(eid, end) for eid in self.edges for end in (0, 1)}
        if set(self.sigma) != all_darts:
            missing = all_darts - set(self.sigma)
            extra = set(self.sigma) - all_darts
            raise GraphError(f"connecting map not total: missing={missing} extra={extra}")
        for d, img in self.sigma.items():
            if self.dart_vertex(img) != self.dart_vertex(d).mu():
                raise GraphError(f"sigma({d}) = {img} does not land at the paired vertex")
            if self.sigma[img] != d:
                raise GraphError(f"inverse-pair law broken at dart {d}")

    def sigma_edge(self, v: VertexId, eid: int) -> int:
        """Edge-level connecting map at ``v``: image of edge ``eid`` in delta(mu(v))."""
        return self.sigma[self.edges[eid].dart_at(v)].eid


def build_whitehead_graph(word_list: WordList) -> WhiteheadGraph:
    """Construct the graph of a word list, edges tagged with (word, position).

    The edge of subword ``x_i x_{i+1}`` joins ``x_i`` (end 0) and
    ``x_{i+1}^-1`` (end 1); its end-1 dart is matched with the end-0 dart of
    the successor edge at position ``i+1``.
    """
    edges: list[EdgeRecord] = []
    eid_of: dict[tuple[int, int], int] = {}
    for w in word_list.words:
        for x, y, i in length2_cyclic_subwords(w):
            eid = len(edges)
            eid_of[(w.index, i)] = eid
            edges.append(
                EdgeRecord(eid, (vertex_of_letter(x), vertex_of_letter(y.inverse())), (w.index, i))
            )
    sigma: dict[Dart, Dart] = {}
    for w in word_list.words:
        l = len(w)
        for i in range(l):
            right = Dart(eid_of[(w.index, i)], 1)
            left = Dart(eid_of[(w.index, (i + 1) % l)], 0)
            sigma[right] = left
            sigma[left] = right
    return WhiteheadGraph(word_list.rank, edges, sigma, words=word_list)


@dataclass(frozen=True)
class AnalysisReport:
    per_vertex: tuple[tuple[VertexId, int, int], ...]  # (vertex, local connectivity, degree)
    minimal: bool
    connected: bool
    diskbusting: bool
    regular_k: int | None

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"vertex": v.name, "lambda": lam, "degree": deg}
                for v, lam, deg in self.per_vertex
            ],
            "minimal": self.minimal,
            "connected": self.connected,
            "diskbusting": self.diskbusting,
            "regular_k": self.regular_k,
        }


def analyze(graph: Multigraph) -> AnalysisReport:
    """Minimality and diskbusting report.

    A list is minimal iff the local edge connectivity between every vertex and
    its paired inverse equals the vertex degree, and a minimal list is
    diskbusting iff the graph is connected.
    """
    rows = []
    for v in graph.vertices():
        if v.sign < 0:
            continue
        lam = graph.local_edge_connectivity(v, v.mu())
        rows.append((v, lam, graph.degree(v)))
        rows.append((v.mu(), lam, graph.degree(v.mu())))
    per_vertex = tuple(sorted(rows))
    minimal = all(lam == deg for _, lam, deg in per_vertex)
    connected = graph.is_connected()
    degrees = {graph.degree(v) for v in graph.vertices()}
    regular_k = degrees.pop() if len(degrees) == 1 else None
    return AnalysisReport(per_vertex, minimal, connected, minimal and connected, regular_k)


# -- serialization ----------------------------------------------------------


def _dart_name(graph: Multigraph, d: Dart) -> str:
    return f"{d.eid}@{graph.dart_vertex(d).name}"


def _dart_from_name(graph: Multigraph, s: str) -> Dart:
    m = re.fullmatch(r"(0|[1-9]\d*)@(a[1-9]\d*-?)", s) if isinstance(s, str) else None
    if m is None:
        raise GraphError(f"bad dart name {s!r}")
    eid, v = int(m.group(1)), vertex_from_name(m.group(2))
    if eid not in graph.edges:
        raise GraphError(f"dart {s!r} references unknown edge {eid}")
    return graph.edges[eid].dart_at(v)


def graph_to_json(graph: WhiteheadGraph) -> dict:
    sigma: dict[str, dict[str, str]] = {}
    for v in graph.vertices():
        m = {
            _dart_name(graph, d): _dart_name(graph, graph.sigma[d])
            for d in graph.darts_at(v)
        }
        if m:
            sigma[v.name] = m
    return {
        "rank": graph.rank,
        "edges": [
            {"id": e.eid, "u": e.ends[0].name, "v": e.ends[1].name}
            for _, e in sorted(graph.edges.items())
        ],
        "sigma": sigma,
    }


def json_int(value, what: str) -> int:
    """``value`` when it is an ``int`` (bools excluded); never coerced."""
    if type(value) is not int:
        raise GraphError(f"{what} {value!r} is not an integer")
    return value


def json_object(value, keys: set[str], what: str) -> dict:
    """``value`` when it is an object with exactly the keys ``keys``."""
    if not isinstance(value, dict) or set(value) != keys:
        found = sorted(value) if isinstance(value, dict) else type(value).__name__
        raise GraphError(f"malformed JSON: {what} needs the keys {sorted(keys)}, got {found}")
    return value


def graph_from_json(data: dict) -> WhiteheadGraph:
    """The graph of ``graph_to_json``'s schema, read strictly.

    Unknown or missing keys, non-canonical vertex and dart names and a dart
    listed under a vertex it is not at are errors.  Names are canonical and
    the keys of one table distinct, so a dart listed twice is always also
    listed under a vertex it is not at.
    """
    json_object(data, {"rank", "edges", "sigma"}, "a graph")
    rank = json_int(data["rank"], "rank")
    if not isinstance(data["edges"], list) or not isinstance(data["sigma"], dict):
        raise GraphError("malformed graph JSON: edges must be a list and sigma an object")
    edges = []
    for e in data["edges"]:
        json_object(e, {"id", "u", "v"}, "an edge")
        ends = (vertex_from_name(e["u"]), vertex_from_name(e["v"]))
        edges.append(EdgeRecord(json_int(e["id"], "edge id"), ends))
    plain = Multigraph(rank, edges)
    sigma: dict[Dart, Dart] = {}
    for name, table in sorted(data["sigma"].items()):
        at = vertex_from_name(name)
        if not isinstance(table, dict):
            raise GraphError(f"malformed graph JSON: sigma table of {name} is not an object")
        for src, dst in table.items():
            d = _dart_from_name(plain, src)
            if plain.dart_vertex(d) != at:
                raise GraphError(f"dart {src!r} is listed under {name}, not under its own vertex")
            sigma[d] = _dart_from_name(plain, dst)
    return WhiteheadGraph(rank, edges, sigma)


def graph_hash(graph: WhiteheadGraph) -> str:
    blob = json.dumps(graph_to_json(graph), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def export_dot(graph: Multigraph) -> str:
    lines = ["graph whitehead {"]
    for v in graph.vertices():
        lines.append(f'  "{v.name}";')
    for eid in sorted(graph.edges):
        e = graph.edges[eid]
        lines.append(f'  "{e.ends[0].name}" -- "{e.ends[1].name}" [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
