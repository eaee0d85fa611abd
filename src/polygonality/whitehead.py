"""Whitehead graphs with per-vertex connecting maps.

The graph of a word list has one vertex per generator and per inverse
generator, and one edge per length-2 cyclic subword ``xy``, joining ``x`` to
``y^-1``.  A vertex is its index ``0 .. 2 * rank - 1``: a :class:`VertexId`
is an ``int`` that also knows its name, so every table is indexed by the
vertex itself.  An edge is stored as the pair of its end indices, and the
edges of each vertex pair are grouped once, for the max-flows, cuts and
matchings.  The graph is loopless, so a vertex and an edge at it name one
edge-end.  The connecting map at a vertex ``v`` sends the edges at ``v`` to
the edges at ``mu(v) = v ^ 1``, which swaps a generator with its inverse; it
is stored as one edge table per vertex, and the tables of ``v`` and
``mu(v)`` are inverse to each other.  Position
succession in the source words defines the maps: at ``x_{i+1}^-1`` the edge
for positions ``(i, i+1)`` is sent to the edge for ``(i+1, i+2)`` at ``x_{i+1}``.

Graphs may also be built standalone (no words) from explicit edge and
connecting-map data; the constructor validates the tables.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from typing import Iterable, Mapping, NamedTuple

from .errors import GraphError, PreconditionError
from .words import WordList


class VertexId(int):
    """The vertex ``a_g`` (sign +1) or ``a_g^-1`` (sign -1) as the int it names,
    its index ``2(g - 1) + (sign < 0)``, so a1 < a1- < a2 < ...

    Equality, hashing and order are the int's, and ``mu()`` is ``v ^ 1`` kept a
    vertex.  A positive ``sign`` is read as +1 and any other as -1.
    """

    __slots__ = ()
    __match_args__ = ("gen", "sign")

    def __new__(cls, gen: int, sign: int):
        return super().__new__(cls, 2 * (gen - 1) + (sign <= 0))

    def __repr__(self) -> str:
        return f"VertexId(gen={self.gen!r}, sign={self.sign!r})"

    def __reduce__(self):
        return VertexId, (self.gen, self.sign)

    def mu(self) -> "VertexId":
        return int.__new__(VertexId, self ^ 1)

    @property
    def gen(self) -> int:
        return (self >> 1) + 1

    @property
    def sign(self) -> int:
        return -1 if self & 1 else 1

    @property
    def name(self) -> str:
        return f"a{self.gen}" if self.sign > 0 else f"a{self.gen}-"

    def __str__(self) -> str:
        return self.name


def vertex_from_name(name: str) -> VertexId:
    """The vertex of a canonical name (``a1``, ``a1-``; no leading zeros)."""
    m = re.fullmatch(r"a([1-9][0-9]*)(-?)", name) if isinstance(name, str) else None
    if m is None:
        raise GraphError(f"bad vertex name {name!r} (expected e.g. 'a1' or 'a1-')")
    return VertexId(_name_number(m.group(1), name), -1 if m.group(2) else 1)


def _name_number(digits: str, name: str) -> int:
    try:
        return int(digits)
    except ValueError:  # int() refuses a digit string past sys.get_int_max_str_digits()
        raise GraphError(f"bad name {name[:24]!r}...: its number has too many digits") from None


# the largest rank a graph accepts: the vertex list and each max-flow grow with
# the rank, used or not, so an absurd declared rank is refused before either
MAX_RANK = 1000


class Multigraph:
    """Loopless multigraph on the vertex set ``a1, a1-, ..., an, an-``.

    ``edges[eid]`` is the pair of end indices of edge ``eid``, positions in
    :meth:`vertices`; the constructor takes ``(edge id, (end index, end
    index))`` pairs, such as ``enumerate(ends)``.  ``pairs[(s, t)]``, for
    end indices ``s < t``, is the tuple of the ids of the edges joining them,
    in id order; the pairs are ordered by their least edge ids.  Immutable
    after construction.  Edge ids are arbitrary distinct integers of type
    ``int``, never coerced; removal keeps the surviving ids stable.  The rank
    is an ``int`` too, at most :data:`MAX_RANK`.
    """

    def __init__(self, rank: int, edges: Iterable[tuple[int, tuple[int, int]]]):
        if type(rank) is not int:
            json_int(rank, "rank")
        if rank < 1:
            raise GraphError(f"rank must be >= 1, got {rank}")
        if rank > MAX_RANK:
            raise GraphError(f"rank {rank} is over the cap of {MAX_RANK}")
        self.rank = rank
        self._vertices = tuple(VertexId(g, s) for g in range(1, rank + 1) for s in (1, -1))
        n = len(self._vertices)
        self.edges: dict[int, tuple[int, int]] = {}
        for eid, (s, t) in edges:
            if type(eid) is not int:  # True or 1.0 would pass as the id 1
                json_int(eid, "edge id")
            if eid in self.edges:
                raise GraphError(f"duplicate edge id {eid}")
            for i in (s, t):
                if not 0 <= i < n:
                    raise GraphError(
                        f"edge {eid} end index {i:d} is outside range({n}),"
                        f" the vertex indices of rank {rank}"
                    )
            if s == t:
                raise GraphError(f"edge {eid} is a loop at {self._vertices[s]}")
            self.edges[eid] = (s, t)
        self._delta: list[list[int]] = [[] for _ in self._vertices]
        pairs: dict[tuple[int, int], list[int]] = {}
        for eid in sorted(self.edges):
            s, t = self.edges[eid]
            self._delta[s].append(eid)
            self._delta[t].append(eid)
            pairs.setdefault((s, t) if s < t else (t, s), []).append(eid)
        self.pairs = {p: tuple(eids) for p, eids in pairs.items()}

    def vertices(self) -> tuple[VertexId, ...]:
        """The vertices ordered by index, the same objects on every call."""
        return self._vertices

    def edge_ids(self) -> list[int]:
        return sorted(self.edges)

    def delta(self, v: VertexId) -> list[int]:
        """Edge ids incident with ``v``, in increasing id order."""
        return list(self._delta[v])

    def degree(self, v: VertexId) -> int:
        return len(self._delta[v])

    def active_vertices(self) -> list[VertexId]:
        return [v for v in self._vertices if self._delta[v]]

    def is_connected(self, ignore_isolated: bool = False) -> bool:
        verts = self.active_vertices() if ignore_isolated else self.vertices()
        if not verts:
            return True
        near: list[list[int]] = [[] for _ in self._vertices]
        for s, t in self.pairs:
            near[s].append(t)
            near[t].append(s)
        seen = [False] * len(near)
        stack = [verts[0]]
        seen[stack[0]] = True
        while stack:
            for j in near[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return all(seen[v] for v in verts)

    def remove_edges(self, eids: Iterable[int]) -> "Multigraph":
        gone = set(eids)
        kept = [(eid, e) for eid, e in sorted(self.edges.items()) if eid not in gone]
        return Multigraph(self.rank, kept)

    def local_edge_connectivity(self, x: VertexId, y: VertexId) -> int:
        """Maximum number of pairwise edge-disjoint x-y paths (= min cut size)."""
        if x == y:
            raise PreconditionError("local edge connectivity needs distinct endpoints")
        # shortest augmenting paths (Edmonds-Karp) on the vertex pairs: arc 2k
        # runs along the k-th pair from s to t and arc 2k + 1 back, so arc a
        # reverses a ^ 1, and each starts with the pair's edge count as capacity
        head: list[int] = []
        cap: list[int] = []
        out: list[list[int]] = [[] for _ in self._vertices]
        for k, ((s, t), eids) in enumerate(self.pairs.items()):
            head += (t, s)
            cap += (len(eids), len(eids))
            out[s].append(2 * k)
            out[t].append(2 * k + 1)
        flow = 0
        while True:  # augment along one shortest path at a time
            parent = [-1] * len(out)
            room = [0] * len(out)  # the bottleneck of the path found to each vertex
            room[x] = len(self.edges)  # no path pushes more than the max-flow
            queue = deque([x])
            while queue and not room[y]:
                v = queue.popleft()
                for a in out[v]:
                    w = head[a]
                    if cap[a] and not room[w]:
                        room[w] = min(room[v], cap[a])
                        parent[w] = a
                        queue.append(w)
            if not room[y]:
                return flow
            push, v = room[y], y
            while v != x:
                a = parent[v]
                cap[a] -= push
                cap[a ^ 1] += push
                v = head[a ^ 1]
            flow += push


class WhiteheadGraph(Multigraph):
    """Multigraph plus the connecting maps, one edge table per vertex.

    ``sigma[i][e]`` is the image, at the paired vertex of index ``i ^ 1``, of
    the edge ``e`` at the vertex of index ``i``.  Each table lists its
    vertex's edges in id order, and the tables of a vertex and its pair are
    inverse to each other, which is the inverse-pair law.
    """

    def __init__(self, rank, edges, sigma: Mapping[int, Mapping[int, int]]):
        """``sigma`` maps a vertex index to its table; a vertex with no edges may be left out."""
        super().__init__(rank, edges)
        # faults name a dart as graph JSON does, "<edge id>@<vertex name>"
        verts = self._vertices
        beyond = sorted(i for i in sigma if not 0 <= i < len(verts))
        if beyond:
            raise GraphError(f"connecting map has tables at indices {beyond}, beyond rank {rank}")
        self.sigma: list[dict[int, int]] = []
        for i, eids in enumerate(self._delta):
            table = sigma.get(i, {})
            if table.keys() != set(eids):
                missing = [f"{e}@{verts[i]}" for e in sorted(set(eids) - table.keys())]
                extra = [f"{e}@{verts[i]}" for e in sorted(table.keys() - set(eids))]
                raise GraphError(
                    f"connecting map at {verts[i]} not total: missing={missing} extra={extra}"
                )
            self.sigma.append({e: table[e] for e in eids})
        for i, table in enumerate(self.sigma):
            paired = self.sigma[i ^ 1]  # the paired vertex mu(v) of index i has index i ^ 1
            for e, img in table.items():
                if type(img) is not int:
                    json_int(img, f"sigma('{e}@{verts[i]}') = edge")
                if img not in paired:
                    raise GraphError(
                        f"sigma('{e}@{verts[i]}') = edge {img}, which is not at the paired "
                        f"vertex {verts[i ^ 1]}"
                    )
                if paired[img] != e:
                    raise GraphError(f"inverse-pair law broken at dart '{e}@{verts[i]}'")


def build_whitehead_graph(word_list: WordList) -> WhiteheadGraph:
    """Construct the graph of a word list, one edge per subword, numbered in list order.

    A letter's code is its vertex index, so the edge of subword ``x_i
    x_{i+1}`` joins ``x_i`` and ``x_{i+1} ^ 1``; at that vertex it is sent to
    the successor edge at position ``i+1``, which starts at ``x_{i+1}``.  The
    edge of word ``j`` at position ``i`` has id ``i`` plus the length of the
    words before it.  The graph constructor refuses a word that is not cyclically
    reduced (its edge is a loop) and a generator beyond the rank.
    """
    ends: list[tuple[int, int]] = []
    sigma: dict[int, dict[int, int]] = {}
    for w in word_list.words:
        first, l = len(ends), len(w)
        after = w[1:] + w[:1]
        ends += [(x, y ^ 1) for x, y in zip(w, after)]
        for i, y in enumerate(after):
            right, left = first + i, first + (i + 1) % l
            sigma.setdefault(y ^ 1, {})[right] = left
            sigma.setdefault(y, {})[left] = right
    return WhiteheadGraph(word_list.rank, enumerate(ends), sigma)


class AnalysisReport(NamedTuple):
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
    for v in graph.vertices()[::2]:  # the positive vertices, each before its pair
        lam = graph.local_edge_connectivity(v, v.mu())
        rows += [(v, lam, graph.degree(v)), (v.mu(), lam, graph.degree(v.mu()))]
    per_vertex = tuple(rows)
    minimal = all(lam == deg for _, lam, deg in per_vertex)
    connected = graph.is_connected()
    degrees = {graph.degree(v) for v in graph.vertices()}
    regular_k = degrees.pop() if len(degrees) == 1 else None
    return AnalysisReport(per_vertex, minimal, connected, minimal and connected, regular_k)


# -- serialization ----------------------------------------------------------


def _dart_from_name(
    darts: dict[str, tuple[int, int]], edges: list[tuple[int, tuple[int, int]]], s
) -> tuple[int, int]:
    """The ``(vertex index, edge id)`` of the dart named ``s`` in ``darts``,
    the table of the canonical dart names of ``edges``."""
    d = darts.get(s) if isinstance(s, str) else None
    if d is not None:
        return d
    # not a dart of the graph: read the name the long way to say why
    m = re.fullmatch(r"(0|[1-9][0-9]*)@(a[1-9][0-9]*-?)", s) if isinstance(s, str) else None
    if m is None:
        raise GraphError(f"bad dart name {s!r}")
    eid, v = _name_number(m.group(1), s), vertex_from_name(m.group(2))
    if all(e != eid for e, _ in edges):
        raise GraphError(f"dart {s!r} references unknown edge {eid}")
    raise GraphError(f"edge {eid} is not incident with {v}")


def graph_to_json(graph: WhiteheadGraph) -> dict:
    """The graph as JSON: its rank, its edges by id, and at each vertex with
    edges the connecting map on dart names ``"<edge id>@<vertex name>"``.

    Read from the index tables: vertex ``i``'s table lists its edges in id
    order, and their images are at vertex ``i ^ 1``.
    """
    names = [v.name for v in graph.vertices()]
    ends = graph.edges
    tables: dict[str, dict[str, str]] = {}
    for i, table in enumerate(graph.sigma):
        if table:
            at, paired = names[i], names[i ^ 1]
            tables[at] = {f"{e}@{at}": f"{img}@{paired}" for e, img in table.items()}
    return {
        "rank": graph.rank,
        "edges": [
            {"id": eid, "u": names[ends[eid][0]], "v": names[ends[eid][1]]}
            for eid in sorted(ends)
        ],
        "sigma": tables,
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

    Unknown or missing keys, non-canonical vertex and dart names, an empty
    table, a dart listed under a vertex it is not at and an image not at the
    paired vertex are errors.  Names are canonical and the keys of one table
    distinct, so a dart listed twice is always also listed under a vertex it
    is not at.  Each distinct vertex name is parsed once into its vertex, and
    each dart name is looked up in a table of the edge list's own names; the
    slow validators run only to say why an entry is refused.
    """
    json_object(data, {"rank", "edges", "sigma"}, "a graph")
    rank = json_int(data["rank"], "rank")
    if not isinstance(data["edges"], list) or not isinstance(data["sigma"], dict):
        raise GraphError("malformed graph JSON: edges must be a list and sigma an object")
    index: dict[str, VertexId] = {}  # each distinct vertex name, parsed once
    edges: list[tuple[int, tuple[VertexId, VertexId]]] = []
    darts: dict[str, tuple[VertexId, int]] = {}
    keys = {"id", "u", "v"}
    for e in data["edges"]:
        if type(e) is not dict or e.keys() != keys:
            json_object(e, keys, "an edge")
        eid, u, v = e["id"], e["u"], e["v"]
        if type(eid) is not int:
            json_int(eid, "edge id")
        try:
            ends = index[u], index[v]
        except (KeyError, TypeError):  # a name met for the first time is parsed
            for name in (u, v):
                if type(name) is not str or name not in index:
                    index[name] = vertex_from_name(name)
            ends = index[u], index[v]
        edges.append((eid, ends))
        # a canonical name has no sign, so a negative id's darts are left out
        # and their names fall through to ``bad dart name``
        if eid >= 0:
            darts[f"{eid}@{u}"] = (ends[0], eid)
            darts[f"{eid}@{v}"] = (ends[1], eid)
    sigma: dict[int, dict[int, int]] = {}
    for name, table in sorted(data["sigma"].items()):
        at = index[name] if name in index else vertex_from_name(name)
        if not isinstance(table, dict):
            raise GraphError(f"malformed graph JSON: sigma table of {name} is not an object")
        if not table:
            raise GraphError(f"malformed graph JSON: sigma table of {name} is empty")
        images = sigma[at] = {}
        for src, dst in table.items():
            i, e = darts.get(src) or _dart_from_name(darts, edges, src)
            if i != at:
                raise GraphError(f"dart {src!r} is listed under {name}, not under its own vertex")
            j, images[e] = (type(dst) is str and darts.get(dst)) or _dart_from_name(darts, edges, dst)
            if j != at ^ 1:
                raise GraphError(
                    f"sigma({src!r}) = {dst!r} does not land at the paired vertex "
                    f"{at.mu()}"
                )
    return WhiteheadGraph(rank, edges, sigma)


def graph_hash(graph: WhiteheadGraph) -> str:
    """The first 16 hex digits of the SHA-256 of ``json.dumps(graph_to_json(graph),
    sort_keys=True)``, the text written here in one string.

    Edges come in id order, vertex tables in name order as strings (``a10``
    before ``a2``), and each table's entries in dart-name order as strings
    (``"10@a1"`` before ``"1@a1"``): the names of one table share their
    ``@`` suffix, so no name is a prefix of another and the quoted entries
    sort as their names do.  The ids and the rank are of type ``int``, and
    no name needs escaping.
    """
    names = [v.name for v in graph.vertices()]
    edges = ", ".join([
        f'{{"id": {eid}, "u": "{names[s]}", "v": "{names[t]}"}}'
        for eid, (s, t) in sorted(graph.edges.items())
    ])
    tables = []
    for i in sorted(range(len(names)), key=names.__getitem__):
        if graph.sigma[i]:
            at, paired = names[i], names[i ^ 1]
            entries = sorted([f'"{e}@{at}": "{img}@{paired}"' for e, img in graph.sigma[i].items()])
            tables.append(f'"{at}": {{{", ".join(entries)}}}')
    text = f'{{"edges": [{edges}], "rank": {graph.rank}, "sigma": {{{", ".join(tables)}}}}}'
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def export_dot(graph: Multigraph, word_list: WordList | None) -> str:
    """The graph in DOT.  An edge is labelled ``w<j>:p<i>`` when the graph is
    ``word_list``'s, whose edges are numbered by subword in list order, and
    ``e<id>`` when ``word_list`` is ``None``."""
    if word_list is None:
        labels = {eid: f"e{eid}" for eid in graph.edges}
    else:
        labels = dict(
            enumerate(f"w{j}:p{i}" for j, w in enumerate(word_list.words) for i in range(len(w)))
        )
    names = [v.name for v in graph.vertices()]
    lines = ["graph whitehead {"]
    lines += [f'  "{name}";' for name in names]
    for eid in sorted(graph.edges):
        s, t = graph.edges[eid]
        lines.append(f'  "{names[s]}" -- "{names[t]}" [label="{labels[eid]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
