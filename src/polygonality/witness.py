"""Cycle-list witnesses: enumeration, verification, LP search, the decider.

A witness for a graph with connecting maps is a nonempty multiset of simple
cycles such that for every vertex ``v`` and every unordered pair of distinct
edges ``{e, f}`` at ``v``, as many cycles contain both ``e`` and ``f`` as
contain both of their images under the connecting map at ``v``.  The verifier
checks this directly; the searcher decides existence (optionally demanding a
cycle of length at least three) by an exact rational LP over all simple
cycles and, on failure, returns a rational refutation certificate.

A :class:`Cycle` is stored as its walk, the cyclic sequence of its vertices
and edges from a canonical start; its key and its :func:`balance_column`, the
classes of its turns that the LP and the surface read, come off that walk.
Every construction (regular, four-vertex, LP) hands over its witness as
:func:`witness_from_json` reads one: the multiplicity of each cycle's edge-id
set.  :func:`verify_witness` is the one place where those sets are walked
into cycles.  :func:`decide` is the one route to a witness or a refutation:
it picks the construction, and its answer goes to that verifier.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from math import gcd, lcm
from typing import NamedTuple

from .errors import GraphError, PreconditionError, VerificationError
from .fourvertex import four_vertex_witness
from .regular import regular_witness
from .simplex import maximize_homogeneous
from .whitehead import Multigraph, WhiteheadGraph, graph_hash, json_int, json_object


#: ``(vertex index, smaller edge id, larger edge id)``: a cycle passing a vertex
#: along two of its edges, or a pair of distinct edges there to balance
Turn = tuple[int, int, int]


class Cycle(NamedTuple):
    """A simple cycle, stored as its walk.

    The walk visits the vertex indices ``verts[0], ..., verts[n-1]``, and edge
    ``edges[t]`` joins ``verts[t]`` to ``verts[t + 1]`` (indices mod ``n``).
    It starts at the cycle's least vertex along the smaller of its two edges
    there, so an edge set has exactly one walk, and tuple equality and hashing
    are cycle equality.  The canonical key is read off the walk.  Sort cycles
    by :func:`cycle_order`: the tuple's own order compares walks.
    """

    verts: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def key(self) -> tuple[int, ...]:
        """The least rotation of the walk's edge ids, in either direction.

        The ids are distinct, so the least rotation starts at the least id;
        the key is the smaller of the forward and the reversed rotation from
        there.
        """
        seq = self.edges
        i = seq.index(min(seq))
        forward = seq[i:] + seq[:i]
        return min(forward, forward[:1] + forward[:0:-1])

    @property
    def is_long(self) -> bool:
        return len(self.edges) >= 3


CycleList = dict[Cycle, int]


def cycle_order(cycle: Cycle) -> tuple[int, tuple[int, ...]]:
    """The sort key of a cycle: its length, then its canonical key."""
    return len(cycle.edges), cycle.key


def make_cycle(graph: Multigraph, eids) -> Cycle:
    """Validate an edge subset as a simple cycle and walk it.

    The subset must induce a connected subgraph in which every touched vertex
    has degree exactly two.  The walk starts at the least vertex along its
    least edge.  On the commutator's four-cycle the walk leaves ``a1`` along
    edge 0 and comes back along edge 1, while the key, the least rotation of
    the walk in either direction, starts at the least id and goes the
    smaller way round:

    >>> from polygonality import build_whitehead_graph, parse_word_list
    >>> graph = build_whitehead_graph(parse_word_list("rank 2\\nabAB"))
    >>> cyc = make_cycle(graph, {3, 1, 0, 2})
    >>> cyc.edges, cyc.key
    ((0, 3, 2, 1), (0, 1, 2, 3))

    At ``a1``, of index 0, the walk turns between edges 1 and 0: side 0 of
    the class named by that turn (see :func:`balance_column`):

    >>> balance_column(graph.sigma, cyc)[0]
    ((0, 0, 1), 0)
    """
    return _walk(graph, eids, 1, dict.fromkeys(graph.edges, 0), {})


def _walk(graph: Multigraph, eids, mult: int, usage: dict, counts: dict[Turn, int]) -> Cycle:
    """:func:`make_cycle`, adding ``mult`` to ``usage`` for each edge and to
    ``counts`` for each turn as it goes.  The walk is the check: it stops at a
    vertex of degree other than two, and covers the set only when the set is
    one cycle; the faults are then named in the order they are checked."""
    eids = frozenset(eids)
    if len(eids) < 2:
        raise GraphError(f"cycle needs at least two edges, got {sorted(eids)}")
    ends = graph.edges
    incidence: dict[int, list[int]] = {}
    try:
        for eid in eids:
            s, t = ends[eid]
            incidence.setdefault(s, []).append(eid)
            incidence.setdefault(t, []).append(eid)
            usage[eid] += mult
    except KeyError:
        raise GraphError(f"cycle references unknown edge {eid}") from None
    i = start = min(incidence)
    verts, seq = [], []
    try:  # unpacking the edges at a vertex of another degree stops the walk
        a, b = incidence[i]
        eid = min(a, b)
        while True:
            turn = (i, a, b) if a < b else (i, b, a)
            counts[turn] = counts.get(turn, 0) + mult
            verts.append(i)
            seq.append(eid)
            s, t = ends[eid]
            i = t if s == i else s
            if i == start:
                break
            a, b = incidence[i]
            eid = b if a == eid else a
    except ValueError:
        pass
    if len(seq) != len(eids):
        for i, es in incidence.items():
            if len(es) != 2:
                raise GraphError(
                    f"edge set {sorted(eids)} has degree {len(es)} at {graph.vertices()[i]}"
                )
        raise GraphError(f"edge set {sorted(eids)} is not a single cycle")
    return Cycle(tuple(verts), tuple(seq))


def balance_column(sigma: list[dict[int, int]], cycle: Cycle) -> list[tuple[Turn, int]]:
    """A cycle's column of the balance equations: each turn, the one at
    ``verts[t]`` from ``edges[t - 1]`` to ``edges[t]``, as ``(class, side)``.

    A class is a turn and its connecting-map image, named by the one at the
    generator's vertex (even index, side 0); the other is side 1.
    """
    seq = cycle.edges
    column = []
    for i, e, f in zip(cycle.verts, seq[-1:] + seq, seq):
        side = i & 1
        if side:
            i, e, f = i ^ 1, sigma[i][e], sigma[i][f]
        column.append(((i, e, f) if e < f else (i, f, e), side))
    return column


def enumerate_cycles(graph: Multigraph) -> list[Cycle]:
    """All simple cycles (edge subsets), bigons included, in canonical order.

    A depth-first search from each active vertex ``s`` extends a path through
    vertices above ``s`` only, so ``s`` is the least vertex of every cycle it
    closes.  It closes a cycle only when the path's first edge is smaller than
    the closing edge, which is the direction :func:`make_cycle` walks, so each
    cycle is found once and built directly from the path.
    """
    adjacent: list[list[tuple[int, int]]] = [[] for _ in graph.vertices()]
    for eid in graph.edge_ids():
        s, t = graph.edges[eid]
        adjacent[s].append((eid, t))
        adjacent[t].append((eid, s))
    on_path = [False] * len(adjacent)
    path_v: list[int] = []
    path_e: list[int] = []
    found: list[Cycle] = []

    def extend(start: int, i: int) -> None:
        for eid, j in adjacent[i]:
            if j == start:
                # strict: on a one-edge path, eid may be that edge itself
                if path_e and path_e[0] < eid:
                    found.append(Cycle(tuple(path_v), (*path_e, eid)))
            elif j > start and not on_path[j]:
                on_path[j] = True
                path_v.append(j)
                path_e.append(eid)
                extend(start, j)
                path_e.pop()
                path_v.pop()
                on_path[j] = False

    for s in range(len(adjacent)):
        path_v.append(s)
        extend(s, s)
        path_v.pop()
    return sorted(found, key=cycle_order)


class WitnessVerdict(NamedTuple):
    ok: bool
    failures: tuple  # (vertex, (e, f), count, image count)
    has_long_cycle: bool
    per_edge_usage: dict[int, int]
    cycles: CycleList  # the verifier's own walk of every checked cycle


def verify_witness(
    graph: WhiteheadGraph,
    cycles: Mapping[frozenset[int], int],
    require_long: bool = False,
) -> WitnessVerdict:
    """Check the balanced-pair condition of a cycle list against the graph.

    The keys are edge-id sets, as every construction returns them and as
    :func:`witness_from_json` reads them.  This is the only place they are
    walked: each set, once, by the walk of :func:`make_cycle`, which rejects
    one that is not a cycle of this graph and counts its edges and turns.
    The verdict carries the walked list.  Only counted turns and their images
    are compared: the connecting maps of a pair are inverse, so an unbalanced
    pair or its image is counted.  Failures come in vertex, then edge-id order.
    """
    if not cycles:
        raise PreconditionError("a witness must be a nonempty cycle list")
    usage = dict.fromkeys(graph.edges, 0)
    counts: dict[Turn, int] = {}
    walked: CycleList = {}
    for eids, mult in cycles.items():
        if mult <= 0:
            raise PreconditionError(f"multiplicity of {sorted(eids)} must be positive")
        walked[_walk(graph, eids, mult, usage, counts)] = mult  # distinct sets, distinct walks
    sigma = graph.sigma
    failing: dict[Turn, tuple[int, int]] = {}
    for turn, here in counts.items():
        i, e, f = turn
        g, h = sigma[i][e], sigma[i][f]
        image = (i ^ 1, g, h) if g < h else (i ^ 1, h, g)
        there = counts.get(image, 0)
        if here != there:
            failing[turn], failing[image] = (here, there), (there, here)
    verts = graph.vertices()
    failures = tuple((verts[i], (e, f), *failing[i, e, f]) for i, e, f in sorted(failing))
    has_long = any(c.is_long for c in walked)
    ok = not failures and (has_long or not require_long)
    return WitnessVerdict(ok, failures, has_long, usage, walked)


class Infeasible(NamedTuple):
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


def _constraint_rows(columns: list[list[tuple[Turn, int]]]):
    """The balance rows of the cycles' :func:`balance_column` lists, with their
    classes in class order: +1 on the cycles through side 0, -1 on side 1.

    A simple cycle passes a vertex at most once, so a row cancels to zero, and
    is skipped, exactly when the same cycles pass both sides.
    """
    covering: dict[Turn, tuple[list[int], list[int]]] = {}  # class -> cycles on each side
    for j, column in enumerate(columns):
        for cls, side in column:
            by_side = covering.get(cls)
            if by_side is None:
                by_side = covering[cls] = ([], [])
            by_side[side].append(j)
    rows, classes = [], []
    for cls in sorted(covering):
        plus, minus = covering[cls]
        if plus == minus:
            continue
        row = [0] * len(columns)
        for j in plus:
            row[j] = 1
        for j in minus:
            row[j] -= 1
        rows.append(row)
        classes.append(cls)
    return rows, classes


def search_witness_lp(graph: WhiteheadGraph, require_long: bool = True):
    """Find an integer witness or refute its existence, in exact arithmetic.

    Maximizes the total weight on long cycles (or on all cycles when
    ``require_long`` is off) subject to the balance equations and a unit
    normalization.  A positive optimum scales to integer multiplicities; a
    zero optimum yields a rational refutation certificate, checked here.

    Returns the multiplicity of each cycle's edge set, which the caller
    passes to :func:`verify_witness`, or an :class:`Infeasible`.
    """
    cycles = enumerate_cycles(graph)
    objective = [1 if (c.is_long or not require_long) else 0 for c in cycles]
    if not any(objective):  # nothing to weigh: zero multipliers refute, with no row built
        return Infeasible(require_long, (), "0")
    columns = [balance_column(graph.sigma, c) for c in cycles]
    rows, classes = _constraint_rows(columns)
    res = maximize_homogeneous(rows, objective)
    if res.objective > 0:
        return {frozenset(c.edges): m for c, m in zip(cycles, res.integer_x()) if m}
    # optimum is zero: validate the dual certificate before reporting; with
    # y.A >= c on every cycle and a zero normalization multiplier, any x >= 0
    # with A x = 0 has c.x <= y.A x = 0, while a positive one only bounds c.x
    duals = res.duals
    norm_dual = duals[len(rows)]
    if norm_dual != 0:
        raise VerificationError(
            f"refutation certificate has normalization multiplier {norm_dual}, not 0"
        )
    # y.A_j >= c_j in integers: scale y by the lcm of its denominators and sum
    # each cycle's column, +y at side 0 and -y at side 1, over the nonzero y
    scale = lcm(*(y.denominator for y in duals))
    scaled = {cls: y.numerator * scale // y.denominator for cls, y in zip(classes, duals) if y}
    for c, column, cj in zip(cycles, columns, objective):
        if sum(scaled.get(cls, 0) * (1 - 2 * side) for cls, side in column) < cj * scale:
            raise VerificationError(f"refutation certificate fails on cycle {sorted(c.edges)}")
    verts = graph.vertices()
    certificate = tuple((verts[i], (e, f), str(y)) for (i, e, f), y in zip(classes, duals) if y)
    return Infeasible(require_long, certificate, str(norm_dual))


#: the constructions, in the order ``auto`` tries them
METHODS = ("fourvertex", "regular", "lp")


class Decision(NamedTuple):
    """What :func:`decide` answered, and by which construction."""

    method: str
    passed_over: tuple[tuple[str, str], ...]  # (method, message) of each one ``auto`` skipped
    found: dict[frozenset[int], int] | Infeasible  # edge sets with multiplicities, or a refutation
    extras: dict  # the witness JSON's extra fields, ``method`` among them


def _construct(graph: WhiteheadGraph, method: str, require_long: bool):
    """One construction's edge sets or refutation, with its JSON extras."""
    if method == "fourvertex":
        good = four_vertex_witness(graph)
        levels = list(good.constants_per_level)
        return good.cycles, {"c1": good.c1, "c2": good.c2, "constants_per_level": levels}
    if method == "regular":
        rw = regular_witness(graph)
        return rw.cycles, {"m1": rw.m1, "m2": rw.m2, "coloring": rw.coloring.to_json()}
    return search_witness_lp(graph, require_long=require_long), {}


def decide(graph: WhiteheadGraph, method: str = "auto", require_long: bool = True) -> Decision:
    """A witness or a refutation for the graph, from the named construction.

    ``auto`` tries the constructions in :data:`METHODS` order and moves on
    only when one raises :class:`PreconditionError`, keeping its message; a
    named method, or the last one, re-raises it.  Under ``require_long``, a
    list other than the last one's with no cycle of length at least three is
    passed over the same way: such a list uses every turn, so every active
    vertex has a single neighbour, no list has a long cycle, and the LP
    refutes it at once.  A constructed list is divided by the gcd of its
    multiplicities: the quotient is still balanced, keeps its long cycles and
    certifies the same surface from fewer polygons.  The edge and pair counts
    among the extras are divided with it, so they describe the list returned.
    Nothing is verified here: the caller hands the list to
    :func:`verify_witness`.
    """
    if method != "auto" and method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected auto or one of {METHODS}")
    tried = METHODS if method == "auto" else (method,)
    passed_over = []
    for name in tried:
        try:
            found, extras = _construct(graph, name, require_long)
            if require_long and name != tried[-1] and not any(len(c) >= 3 for c in found):
                raise PreconditionError(f"the {name} list has no cycle of length at least three")
            break
        except PreconditionError as exc:
            if name == tried[-1]:
                raise
            passed_over.append((name, str(exc)))
    extras["method"] = name
    if not isinstance(found, Infeasible):
        g = gcd(*found.values())
        if g > 1:
            found = {eids: m // g for eids, m in found.items()}
            for key in ("c1", "c2", "m1", "m2"):  # they count cycles through an edge or a pair
                if key in extras:
                    extras[key] //= g
    return Decision(name, tuple(passed_over), found, extras)


# -- witness (de)serialization ----------------------------------------------


def witness_to_json(graph: WhiteheadGraph, cycles: CycleList, usage: dict[int, int]) -> dict:
    """Serialize a cycle list with its per-edge usage, as a
    :class:`WitnessVerdict` gives it, its cycles in :func:`cycle_order`;
    nothing is counted or verified here.  The ``witness`` command writes the
    JSON of this dict straight from the verdict, without building it."""
    return {
        "graph_hash": graph_hash(graph),
        "cycles": [
            {"edges": sorted(c.edges), "multiplicity": cycles[c]}
            for c in sorted(cycles, key=cycle_order)
        ],
        "long_cycle_present": any(c.is_long for c in cycles),
        "per_edge_usage": {str(eid): n for eid, n in sorted(usage.items())},
    }


def witness_hash(graph: WhiteheadGraph, cycles: CycleList, usage: dict[int, int]) -> str:
    """The first 16 hex digits of the SHA-256 of ``json.dumps(witness_to_json(graph,
    cycles, usage), sort_keys=True)``, the text written here in one string, for
    ``cycles`` already listed in :func:`cycle_order`.

    The usage entries are sorted as the strings ``'"<id>": <n>'``, which sorts
    them by their keys as strings (``"10"`` before ``"2"``, ``"-1"`` before
    ``"0"``): the closing quote sorts below every digit and below ``-``.
    """
    entries = ", ".join([
        f'{{"edges": [{", ".join(map(str, sorted(c.edges)))}], "multiplicity": {n}}}'
        for c, n in cycles.items()
    ])
    counts = ", ".join(sorted([f'"{eid}": {n}' for eid, n in usage.items()]))
    long = "true" if any(c.is_long for c in cycles) else "false"
    text = (
        f'{{"cycles": [{entries}], "graph_hash": "{graph_hash(graph)}", '
        f'"long_cycle_present": {long}, "per_edge_usage": {{{counts}}}}}'
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def witness_from_json(graph: WhiteheadGraph, data: dict) -> dict[frozenset[int], int]:
    """Parse witness JSON strictly: an object whose ``cycles`` list holds
    entries of exactly ``edges`` (a list of int ids, none repeated) and
    ``multiplicity`` (a positive int), and the graph's hash.  A refutation
    (``"infeasible": true``) is refused by name.

    Returns the multiplicity of each listed edge set, entries with one edge
    set merged, in one pass over the entries.  Nothing is walked here:
    :func:`verify_witness` walks each edge set, once, and rejects one that is
    not a cycle of the graph.
    """
    if type(data) is not dict:
        raise GraphError(f"malformed witness JSON: expected an object, got {type(data).__name__}")
    if data.get("infeasible") is True:
        raise GraphError('the JSON is a refutation ("infeasible": true), not a cycle-list witness')
    entries = data.get("cycles")
    if entries is None:
        raise GraphError("malformed witness JSON: no cycles list")
    if type(entries) is not list:
        found = type(entries).__name__
        raise GraphError(f"malformed witness JSON: cycles must be a list, got {found}")
    out: dict[frozenset[int], int] = {}
    for c in entries:
        listed = json_object(c, {"edges", "multiplicity"}, "a cycle")["edges"]
        if type(listed) is not list:
            found = type(listed).__name__
            raise GraphError(f"malformed witness JSON: cycle edges must be a list, got {found}")
        for eid in listed:
            json_int(eid, "edge id")
        eids = frozenset(listed)
        if len(eids) != len(listed):
            raise GraphError(f"cycle on edges {sorted(listed)} repeats an edge id")
        mult = c["multiplicity"]
        if type(mult) is not int or mult <= 0:
            raise GraphError(f"multiplicity {mult!r} is not a positive integer")
        out[eids] = out.get(eids, 0) + mult
    if "graph_hash" not in data:
        raise GraphError("malformed witness JSON: no graph_hash")
    if data["graph_hash"] != graph_hash(graph):
        raise VerificationError("witness was produced for a different graph")
    return out
