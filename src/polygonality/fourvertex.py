"""Witness construction for connected graphs on four vertices.

Directly constructs a balanced cycle list (with a cycle of length at least
three and constant per-edge usage) for a connected 4-vertex graph whose local
edge connectivity between paired vertices meets the degree everywhere.

Pipeline: pick a minimum-degree vertex ``w``; form the auxiliary digraph on
the darts at ``w`` and at its pair; partition it into the eight good shapes;
complete each part into a permutation digraph whose induced permutation of
the edges at ``w`` is "good" (images under the connecting map stay disjoint)
and "uniform" (a list of orbits of the induced pair permutation covers every
edge at ``w`` the same number of times); then recurse on the edge count,
peeling edges between the opposite vertex pair and patching with bigons,
triangles, and quadrilaterals built from the orbit pairs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import lcm

from .errors import GraphError, PreconditionError, VerificationError
from .regular import regular_witness
from .whitehead import Dart, Multigraph, VertexId, WhiteheadGraph
from .witness import CycleList, make_cycle, pair_counts

Node = tuple[str, int]  # ('e', i) or ('f', i)


@dataclass(frozen=True)
class Component:
    """One weakly connected piece of the auxiliary digraph.

    ``nodes`` follow the arcs: a path runs source to sink, a cycle is rotated
    to start at its least node.
    """

    kind: str  # 'path' | 'cycle'
    nodes: tuple[Node, ...]

    @property
    def short(self) -> bool:
        return len(self.nodes) == 2

    @property
    def long(self) -> bool:
        return len(self.nodes) >= 4

    def e_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n[0] == "e")


class AuxDigraph:
    """Digraph on the darts at ``w`` (e-nodes) and at its pair (f-nodes).

    There is an arc from each f-node to the e-node of the same index, and an
    arc from an e-node to an f-node when the two darts lie on one edge of the
    graph.  Sources and sinks are colored by which vertex of the opposite
    pair their edge touches.  Instances may also be built abstractly (no
    backing graph) for exhaustive decomposition tests.
    """

    def __init__(
        self,
        components: tuple[Component, ...],
        colors: dict[Node, str | None],
        graph: Multigraph | None = None,
        w: VertexId | None = None,
        u: VertexId | None = None,
        e_darts: tuple[Dart, ...] = (),
        f_darts: tuple[Dart, ...] = (),
    ):
        self.components = components
        self.colors = colors
        self.graph = graph
        self.w = w
        self.u = u
        self.e_darts = e_darts
        self.f_darts = f_darts
        self.succ: dict[Node, Node | None] = {}
        for comp in components:
            ns = comp.nodes
            for i, n in enumerate(ns):
                if i + 1 < len(ns):
                    self.succ[n] = ns[i + 1]
                elif comp.kind == "cycle":
                    self.succ[n] = ns[0]
                else:
                    self.succ[n] = None
        self._validate_structure()

    @property
    def nodes(self) -> list[Node]:
        return sorted(self.succ)

    @property
    def m(self) -> int:
        return sum(1 for n in self.succ if n[0] == "e")

    def color_count(self, color: str) -> int:
        return sum(1 for n in self.succ if self.colors.get(n) == color)

    def e_edge(self, i: int) -> int:
        return self.e_darts[i].eid

    def f_edge(self, i: int) -> int:
        return self.f_darts[i].eid

    def _validate_structure(self):
        for comp in self.components:
            ns = comp.nodes
            if comp.kind == "path":
                if len(ns) % 2 != 0 or ns[0][0] != "f" or ns[-1][0] != "e":
                    raise GraphError(f"bad path component {ns}")
                ends_colored = all(self.colors.get(n) in ("R", "B") for n in (ns[0], ns[-1]))
                interior_plain = all(self.colors.get(n) is None for n in ns[1:-1])
                if not (ends_colored and interior_plain):
                    raise GraphError(f"bad coloring on path {ns}")
            elif comp.kind == "cycle":
                if len(ns) % 2 != 0:
                    raise GraphError(f"odd cycle component {ns}")
                if any(self.colors.get(n) is not None for n in ns):
                    raise GraphError(f"colored cycle node in {ns}")
            else:
                raise GraphError(f"unknown component kind {comp.kind}")
            kinds = [n[0] for n in ns]
            if any(kinds[i] == kinds[i + 1] for i in range(len(kinds) - 1)):
                raise GraphError(f"component {ns} does not alternate dart sides")
        sources = [c.nodes[0] for c in self.components if c.kind == "path"]
        sinks = [c.nodes[-1] for c in self.components if c.kind == "path"]
        red_src = sum(1 for n in sources if self.colors.get(n) == "R")
        red_sink = sum(1 for n in sinks if self.colors.get(n) == "R")
        if red_src != red_sink:
            raise GraphError(
                f"red sources ({red_src}) and red sinks ({red_sink}) differ"
            )

    def is_good(self) -> bool:
        total = len(self.succ)
        return 2 * self.color_count("R") <= total and 2 * self.color_count("B") <= total


def _other_pair(graph: Multigraph, w: VertexId) -> tuple[VertexId, VertexId]:
    rest = sorted(v for v in graph.active_vertices() if v not in (w, w.mu()))
    if len(rest) != 2 or rest[0].mu() != rest[1]:
        raise PreconditionError("graph does not have exactly four non-isolated vertices")
    return rest[0], rest[1]


def build_auxiliary_digraph(
    graph: WhiteheadGraph,
    w: VertexId,
    u: VertexId | None = None,
) -> AuxDigraph:
    """Auxiliary digraph of ``graph`` at ``w``; see the module docstring.

    Validates the odd-path/even-cycle shape, the source/sink color balance,
    and that neither color exceeds half of the nodes.
    """
    if u is None:
        u, _ = _other_pair(graph, w)
    if u in (w, w.mu()):
        raise PreconditionError("u must avoid w and its pair")
    e_darts = tuple(sorted(graph.darts_at(w)))
    f_darts = tuple(graph.sigma[d] for d in e_darts)
    m = len(e_darts)
    if m < 2:
        raise PreconditionError(f"minimum degree {m} < 2; no usable construction")
    succ: dict[Node, Node | None] = {}
    f_index_of_edge = {d.eid: j for j, d in enumerate(f_darts)}
    for i in range(m):
        succ[("f", i)] = ("e", i)
        eid = e_darts[i].eid
        succ[("e", i)] = ("f", f_index_of_edge[eid]) if eid in f_index_of_edge else None
    colors: dict[Node, str | None] = {}
    for i in range(m):
        other = graph.edges[e_darts[i].eid].other(w)
        colors[("e", i)] = "R" if other == u else ("B" if other == u.mu() else None)
        other_f = graph.edges[f_darts[i].eid].other(w.mu())
        colors[("f", i)] = "B" if other_f == u else ("R" if other_f == u.mu() else None)
    components = _components_from_succ(succ)
    aux = AuxDigraph(components, colors, graph, w, u, e_darts, f_darts)
    if not aux.is_good():
        raise GraphError(
            "auxiliary digraph is not good; the edge-connectivity precondition fails"
        )
    return aux


def _components_from_succ(succ: dict[Node, Node | None]) -> tuple[Component, ...]:
    pred: dict[Node, Node] = {}
    for n, s in succ.items():
        if s is not None:
            if s in pred:
                raise GraphError(f"node {s} has in-degree above one")
            pred[s] = n
    comps = []
    seen: set[Node] = set()
    for n in sorted(succ):
        if n in seen or n in pred:
            continue
        chain = [n]
        seen.add(n)
        while succ[chain[-1]] is not None:
            chain.append(succ[chain[-1]])
            seen.add(chain[-1])
        comps.append(Component("path", tuple(chain)))
    for n in sorted(succ):
        if n in seen:
            continue
        start = n
        chain = [n]
        seen.add(n)
        while succ[chain[-1]] != start:
            nxt = succ[chain[-1]]
            if nxt is None or nxt in seen:
                raise GraphError("malformed successor structure")
            chain.append(nxt)
            seen.add(nxt)
        comps.append(Component("cycle", tuple(chain)))
    return tuple(comps)


# -- decomposition into the eight good shapes --------------------------------


@dataclass(frozen=True)
class GoodPart:
    type_tag: int
    components: tuple[Component, ...]

    def nodes(self) -> list[Node]:
        return [n for c in self.components for n in c.nodes]


def _path_class(D: AuxDigraph, comp: Component) -> str | None:
    if comp.kind != "path":
        return None
    return (D.colors[comp.nodes[0]] or "?") + (D.colors[comp.nodes[-1]] or "?")


def _first(comps, pred):
    return next((c for c in comps if pred(c)), None)


def _is_good_set(D: AuxDigraph, comps) -> bool:
    nodes = [n for c in comps for n in c.nodes]
    red = sum(1 for n in nodes if D.colors.get(n) == "R")
    blue = sum(1 for n in nodes if D.colors.get(n) == "B")
    return 2 * red <= len(nodes) and 2 * blue <= len(nodes)


def decompose_good(D: AuxDigraph) -> list[GoodPart]:
    """Partition a good auxiliary digraph into parts of the eight known shapes.

    Follows the inductive argument: peel short monochromatic pairs, then
    short-cycle/short-path pairs, then settle the remaining components into
    the long-path, mixed-pair, and cycle shapes, distributing leftover short
    monochromatic paths without breaking goodness.
    """
    if len(D.nodes) < 4:
        raise PreconditionError("decomposition needs at least four nodes")
    if not D.is_good():
        raise PreconditionError("digraph is not good (a color exceeds half the nodes)")
    comps = list(D.components)
    parts: list[GoodPart] = []

    def cls(c):
        return _path_class(D, c)

    while True:
        rr = _first(comps, lambda c: c.short and cls(c) == "RR")
        bb = _first(comps, lambda c: c.short and cls(c) == "BB")
        if rr is None or bb is None:
            break
        rest = [c for c in comps if c is not rr and c is not bb]
        if not rest:
            parts.append(GoodPart(1, (rr, bb)))
            comps = []
            break
        if sum(len(c.nodes) for c in rest) == 2:
            only = rest[0]
            if only.kind != "cycle":
                raise VerificationError("two leftover nodes should form a short cycle")
            parts.append(GoodPart(1, (rr, bb, only)))
            comps = []
            break
        parts.append(GoodPart(1, (rr, bb)))
        comps = rest

    has_rr = _first(comps, lambda c: c.short and cls(c) == "RR") is not None
    yy_class = "RR" if has_rr else "BB"

    while comps:
        sc = _first(comps, lambda c: c.kind == "cycle" and c.short)
        yy = _first(comps, lambda c: c.short and cls(c) == yy_class)
        if sc is None or yy is None:
            break
        others = [c for c in comps if c is not sc and c is not yy]
        if len(others) <= 1 and all(c.kind == "cycle" and c.short for c in others):
            parts.append(GoodPart(2, (yy, sc) + tuple(others)))
            comps = []
            break
        parts.append(GoodPart(2, (yy, sc)))
        comps = others

    short_cycles = [c for c in comps if c.kind == "cycle" and c.short]
    if short_cycles:
        if _first(comps, lambda c: c.short and cls(c) in ("RR", "BB")) is not None:
            raise VerificationError("short monochromatic path escaped the pairing phases")
        rest = [c for c in comps if c not in short_cycles]
        if len(short_cycles) >= 2:
            parts.append(GoodPart(4, tuple(short_cycles)))
            parts.extend(_pack_long_shapes(D, rest, []))
        else:
            sc = short_cycles[0]
            mono = _first(rest, lambda c: c.kind == "path" and cls(c) in ("RR", "BB"))
            if mono is not None:
                parts.append(GoodPart(2, (mono, sc)))
                rest = [c for c in rest if c is not mono]
            else:
                lc = _first(rest, lambda c: c.kind == "cycle")
                if lc is not None:
                    parts.append(GoodPart(8, (lc, sc)))
                    rest = [c for c in rest if c is not lc]
                else:
                    br = _first(rest, lambda c: cls(c) == "BR")
                    rb = _first(rest, lambda c: cls(c) == "RB")
                    if br is None or rb is None:
                        raise VerificationError("no companion components for a short cycle")
                    parts.append(GoodPart(3, (sc, br, rb)))
                    rest = [c for c in rest if c is not br and c is not rb]
            parts.extend(_pack_long_shapes(D, rest, []))
    elif comps:
        shorts = [
            c for c in comps if c.kind == "path" and c.short and cls(c) in ("RR", "BB")
        ]
        rest = [c for c in comps if c not in shorts]
        parts.extend(_pack_long_shapes(D, rest, shorts))

    _validate_partition(D, parts)
    return parts


def _pack_long_shapes(D: AuxDigraph, comps, shorts) -> list[GoodPart]:
    """Settle long paths/cycles and mixed pairs, absorbing short mono paths."""

    def cls(c):
        return _path_class(D, c)

    skeletons: list[tuple[int, list[Component]]] = []
    brs = [c for c in comps if cls(c) == "BR"]
    rbs = [c for c in comps if cls(c) == "RB"]
    if len(brs) != len(rbs):
        raise VerificationError("mixed paths are unbalanced")
    for c in comps:
        if c.kind == "cycle":
            if c.short:
                raise VerificationError("short cycle reached the long-shape packer")
            skeletons.append((7, [c]))
        elif cls(c) in ("RR", "BB"):
            if not c.long:
                raise VerificationError("short mono path reached the long-shape packer")
            skeletons.append((5, [c]))
    for br, rb in zip(brs, rbs):
        skeletons.append((6, [br, rb]))
    if shorts and not skeletons:
        raise PreconditionError("short paths cannot be absorbed; digraph was not good")
    pending = list(shorts)
    packed: list[GoodPart] = []
    for tag, members in skeletons:
        nodes = [n for c in members for n in c.nodes]
        half = len(nodes) // 2
        y_color = cls(pending[0])[0] if pending else None
        y_count = sum(1 for n in nodes if D.colors.get(n) == y_color) if pending else 0
        capacity = half - y_count
        while pending and capacity > 0:
            members.append(pending.pop(0))
            capacity -= 1
        packed.append(GoodPart(tag, tuple(members)))
    if pending:
        raise PreconditionError("short paths cannot be absorbed; digraph was not good")
    return packed


_SHAPE_NAMES = {
    1: "short R-R + short B-B (+ optional short cycle)",
    2: "monochromatic path + one or two short cycles",
    3: "short cycle + B-R path + R-B path",
    4: "two or more short cycles",
    5: "long monochromatic path + monochromatic short paths",
    6: "B-R path + R-B path + monochromatic short paths",
    7: "long cycle + monochromatic short paths",
    8: "long cycle + short cycle",
}


def validate_part(D: AuxDigraph, part: GoodPart) -> None:
    """Check a part against its claimed shape and per-part goodness."""

    def cls(c):
        return _path_class(D, c)

    cs = part.components
    paths = [c for c in cs if c.kind == "path"]
    cycles = [c for c in cs if c.kind == "cycle"]
    shorts = [c for c in paths if c.short]
    tag = part.type_tag
    ok = False
    if tag == 1:
        ok = (
            len(paths) == 2
            and sorted(cls(c) for c in shorts) == ["BB", "RR"]
            and all(c.short for c in paths)
            and len(cycles) <= 1
            and all(c.short for c in cycles)
        )
    elif tag == 2:
        ok = (
            len(paths) == 1
            and cls(paths[0]) in ("RR", "BB")
            and 1 <= len(cycles) <= 2
            and all(c.short for c in cycles)
        )
    elif tag == 3:
        ok = (
            len(cycles) == 1
            and cycles[0].short
            and sorted(cls(c) for c in paths) == ["BR", "RB"]
        )
    elif tag == 4:
        ok = len(cycles) == len(cs) and len(cycles) >= 2 and all(c.short for c in cycles)
    elif tag == 5:
        longs = [c for c in paths if c.long]
        ok = (
            not cycles
            and len(longs) == 1
            and cls(longs[0]) in ("RR", "BB")
            and len(shorts) == len(paths) - 1
            and len({cls(c) for c in shorts}) <= 1
            and all(cls(c) in ("RR", "BB") for c in shorts)
        )
    elif tag == 6:
        mixed = [c for c in paths if cls(c) in ("BR", "RB")]
        ok = (
            not cycles
            and sorted(cls(c) for c in mixed) == ["BR", "RB"]
            and all(c.short and cls(c) in ("RR", "BB") for c in paths if c not in mixed)
            and len({cls(c) for c in paths if c not in mixed}) <= 1
        )
    elif tag == 7:
        ok = (
            len(cycles) == 1
            and cycles[0].long
            and all(c.short and cls(c) in ("RR", "BB") for c in paths)
            and len({cls(c) for c in shorts}) <= 1
        )
    elif tag == 8:
        lens = sorted(len(c.nodes) for c in cycles)
        ok = not paths and len(cycles) == 2 and lens[0] == 2 and lens[1] >= 4
    if not ok:
        raise VerificationError(
            f"part does not match shape ({tag}) {_SHAPE_NAMES.get(tag)}: {cs}"
        )
    if not _is_good_set(D, cs):
        raise VerificationError(f"part of shape ({tag}) is not good: {cs}")


def _validate_partition(D: AuxDigraph, parts: list[GoodPart]) -> None:
    seen: list[Node] = []
    for p in parts:
        validate_part(D, p)
        seen.extend(p.nodes())
    if sorted(seen) != D.nodes:
        raise VerificationError("parts do not partition the digraph")


# -- uniform completions ------------------------------------------------------


@dataclass(frozen=True)
class Completion:
    """A completed digraph with its induced permutation and orbit list."""

    aux: AuxDigraph
    pi_nodes: dict[Node, Node]
    pi_edges: dict[int, int]
    orbit_list: tuple[tuple[frozenset[int], ...], ...]  # pairs of edge ids at w
    c: int


def _close_paths(part: GoodPart) -> list[tuple[Node, Node]]:
    return [(c.nodes[-1], c.nodes[0]) for c in part.components if c.kind == "path"]


def _pi_cycles(part: GoodPart, D: AuxDigraph, arcs) -> list[list[Node]]:
    """Cycle decomposition (on e-nodes) of the permutation induced by D + arcs."""
    succ = {n: D.succ[n] for c in part.components for n in c.nodes}
    for src, dst in arcs:
        if succ.get(src) is not None:
            raise VerificationError(f"arc source {src} already has a successor")
        succ[src] = dst
    pi = {}
    for n in succ:
        if n[0] == "e":
            mid = succ[n]
            if mid is None or succ[mid] is None:
                raise VerificationError("completion left an open walk")
            pi[n] = succ[mid]
    cycles = []
    left = set(pi)
    while left:
        start = min(left)
        chain = [start]
        left.discard(start)
        while pi[chain[-1]] != start:
            chain.append(pi[chain[-1]])
            left.discard(chain[-1])
        cycles.append(chain)
    return cycles


def _orbit_offset(xs: list[Node], off: int) -> tuple[frozenset[Node], ...]:
    m = len(xs)
    out = []
    for i in range(m):
        pair = frozenset((xs[i], xs[(i + off) % m]))
        if pair not in out and len(pair) == 2:
            out.append(pair)
    return tuple(out)


def _orbit_star(xs: list[Node], y: Node) -> tuple[frozenset[Node], ...]:
    return tuple(frozenset((x, y)) for x in xs)


def part_completion(D: AuxDigraph, part: GoodPart):
    """Completion arcs, orbit list, and coverage constant for one good part.

    The orbit list is a list of orbits of the induced pair permutation; each
    orbit is a tuple of 2-sets of e-nodes.  Every e-node of the part appears
    in exactly ``c`` pairs counted over the whole list.
    """
    tag = part.type_tag
    colors = D.colors
    if tag in (1, 4):
        arcs = _close_paths(part)
        es = sorted(n for c in part.components for n in c.e_nodes())
        k = len(part.components)
        orbits = [(frozenset((a, b)),) for a, b in itertools.combinations(es, 2)]
        c = k - 1
    elif tag == 2:
        path = next(c for c in part.components if c.kind == "path")
        cycles = [c for c in part.components if c.kind == "cycle"]
        arcs = _close_paths(part)
        xs = list(path.e_nodes())
        ys = [c.e_nodes()[0] for c in cycles]
        m = len(xs)
        op = _orbit_offset(xs, 1)
        stars = [_orbit_star(xs, y) for y in ys]
        if len(cycles) == 2:
            # decompose_good only pairs two short cycles with a one-edge path
            if m != 1:
                raise VerificationError(
                    "shape (2) with two short cycles needs a one-edge path,"
                    f" got {m} edges at w"
                )
            orbits, c = [stars[0], stars[1], (frozenset((ys[0], ys[1])),)], 2
        elif m == 1:
            orbits, c = [stars[0]], 1
        elif m == 2:
            orbits, c = [stars[0], op], 2
        else:
            orbits, c = [stars[0]] * 2 + [op] * (m - 1), 2 * m
    elif tag == 3:
        br = next(c for c in part.components if _path_class(D, c) == "BR")
        rb = next(c for c in part.components if _path_class(D, c) == "RB")
        y = next(c for c in part.components if c.kind == "cycle").e_nodes()[0]
        arcs = [(br.nodes[-1], rb.nodes[0]), (rb.nodes[-1], br.nodes[0])]
        xs = list(br.e_nodes()) + list(rb.e_nodes())
        m = len(xs)
        op, oc = _orbit_offset(xs, 1), _orbit_star(xs, y)
        if m == 2:
            orbits, c = [oc, op], 2
        else:
            orbits, c = [oc] * 2 + [op] * (m - 1), 2 * m
    elif tag in (7, 8) or (tag == 5 and {"R", "B"} <= {colors.get(n) for n in part.nodes()}):
        arcs = _close_paths(part)
        long_comp = next(c for c in part.components if c.long)
        xs = list(long_comp.e_nodes())
        ys = [c.e_nodes()[0] for c in part.components if c is not long_comp]
        M, k = len(xs), len(ys)
        if k > M:
            raise VerificationError("more short components than long-cycle edges")
        op = _orbit_offset(xs, 1)
        if k == 0:
            orbits, c = [op], (2 if M > 2 else 1)
        else:
            p = (M - k) if M > 2 else (4 - 2 * k)
            orbits = [o for y in ys for o in (_orbit_star(xs, y),) * 2] + [op] * p
            c = 2 * M
    else:  # tag 6, or tag 5 with a single color: one chained cycle
        paths = [c for c in part.components if c.kind == "path"]
        if tag == 6:
            br = next(c for c in paths if _path_class(D, c) == "BR")
            rb = next(c for c in paths if _path_class(D, c) == "RB")
            shorts = [c for c in paths if c is not br and c is not rb]
            if shorts and _path_class(D, shorts[0])[0] == "R":
                order = [br] + shorts + [rb]
            else:
                order = [br, rb] + shorts
        else:
            long_comp = next(c for c in paths if c.long)
            order = [long_comp] + [c for c in paths if c is not long_comp]
        arcs = [
            (order[i].nodes[-1], order[(i + 1) % len(order)].nodes[0])
            for i in range(len(order))
        ]
        xs = [n for c in order for n in c.e_nodes()]
        M = len(xs)
        orbits, c = [_orbit_offset(xs, M // 2)], (2 if M % 2 else 1)
        for pair in orbits[0]:
            cs = {colors.get(n) for n in pair}
            if cs in ({"R"}, {"B"}):
                raise VerificationError("offset orbit pairs a color with itself")
    for src, dst in arcs:
        if colors.get(src) != colors.get(dst):
            raise VerificationError(f"completion arc {src}->{dst} mixes colors")
    pi_cycles = _pi_cycles(part, D, arcs)
    _check_part_orbits(part, pi_cycles, orbits, c)
    return arcs, orbits, c


def _check_part_orbits(part: GoodPart, pi_cycles, orbits, c: int) -> None:
    pi: dict[Node, Node] = {}
    for chain in pi_cycles:
        for i, n in enumerate(chain):
            pi[n] = chain[(i + 1) % len(chain)]
    coverage = Counter()
    for orbit in orbits:
        members = set(orbit)
        for pair in orbit:
            image = frozenset(pi[n] for n in pair)
            if image not in members:
                raise VerificationError("orbit list contains a non-orbit")
            for n in pair:
                coverage[n] += 1
    es = {n for comp in part.components for n in comp.e_nodes()}
    if any(coverage[n] != c for n in es):
        raise VerificationError(
            f"orbit list coverage {dict(coverage)} is not uniformly {c}"
        )


def uniform_permutation(D: AuxDigraph) -> Completion:
    """Complete the digraph so the induced permutation at ``w`` is good and uniform.

    Per-part completions are rescaled to a common coverage constant by least
    common multiple.  All stated properties are revalidated against the
    backing graph; a failure indicates a construction bug and aborts.
    """
    if D.graph is None:
        raise PreconditionError("uniform completion needs a graph-backed digraph")
    parts = decompose_good(D)
    all_arcs: list[tuple[Node, Node]] = []
    per_part = []
    for part in parts:
        arcs, orbits, c_part = part_completion(D, part)
        all_arcs.extend(arcs)
        per_part.append((orbits, c_part))
    c = lcm(*(cp for _, cp in per_part)) if per_part else 1
    orbit_nodes: list[tuple[frozenset[Node], ...]] = []
    for orbits, c_part in per_part:
        orbit_nodes.extend(orbits * (c // c_part))
    succ = dict(D.succ)
    for src, dst in all_arcs:
        succ[src] = dst
    indeg = Counter(succ.values())
    if any(succ[n] is None or indeg[n] != 1 for n in succ):
        raise VerificationError("completion is not a permutation digraph")
    pi_nodes: dict[Node, Node] = {}
    for n in succ:
        if n[0] == "e":
            pi_nodes[n] = succ[succ[n]]
    graph, w, u = D.graph, D.w, D.u
    pi_edges = {
        D.e_edge(i): D.e_edge(pi_nodes[("e", i)][1]) for i in range(D.m)
    }
    sigma_after_pi = {}
    for i in range(D.m):
        x = D.e_edge(i)
        j = pi_nodes[("e", i)][1]
        img = D.f_edge(j)  # sigma_w(pi(x)) at the paired vertex
        sigma_after_pi[x] = img
        x_ends = set(graph.edges[x].ends)
        img_ends = set(graph.edges[img].ends)
        if x != img and x_ends & img_ends:
            raise VerificationError(f"permutation is not good: {x} meets {img}")
        if w.mu() in x_ends and img != x:
            raise VerificationError(f"edge {x} between the pair must be fixed, got {img}")
    coverage = Counter()
    for orbit in orbit_nodes:
        for pair in orbit:
            for n in pair:
                coverage[n] += 1
            ga, gb = (graph.edges[D.e_edge(n[1])] for n in pair)
            shared = set(ga.ends) & set(gb.ends) - {w, w.mu()}
            if shared:
                raise VerificationError(
                    f"orbit pair {sorted(pair)} shares {shared} outside the w pair"
                )
    if any(coverage[("e", i)] != c for i in range(D.m)):
        raise VerificationError("combined orbit list is not uniform")
    orbit_edges = tuple(
        tuple(frozenset(D.e_edge(n[1]) for n in pair) for pair in orbit)
        for orbit in orbit_nodes
    )
    return Completion(D, pi_nodes, pi_edges, orbit_edges, c)


# -- the inductive witness ----------------------------------------------------


@dataclass(frozen=True)
class GoodList:
    """Witness with the constants from the inductive construction."""

    cycles: CycleList
    c1: int  # every edge lies in exactly c1 cycles
    c2: int  # every distinct pair at the opposite vertex pair lies in exactly c2
    constants_per_level: tuple[dict, ...]

    def has_long_cycle(self) -> bool:
        return any(c.is_long for c in self.cycles)


def _check_level_preconditions(g: Multigraph, w: VertexId, u: VertexId) -> None:
    """Hypothesis of one recursion level: connected, lambda(v, v') = deg(v) =
    deg(v') for v in {w, u}, and deg(u) >= deg(w).

    lambda is symmetric, so one max-flow per vertex pair covers both vertices.
    """
    if not g.is_connected(ignore_isolated=True):
        raise PreconditionError("graph is not connected")
    for v in (w, u):
        lam = g.local_edge_connectivity(v, v.mu())
        if lam != g.degree(v) or g.degree(v) != g.degree(v.mu()):
            raise PreconditionError(
                f"connectivity condition fails at {v}: lambda={lam}, deg={g.degree(v)}"
            )
    if g.degree(u) < g.degree(w):
        raise PreconditionError("w lost minimality during the recursion")


def _check_good_list(
    g: Multigraph,
    w: VertexId,
    u: VertexId,
    sigma_w_edge: dict[int, int],
    cycles: CycleList,
    c1: int,
    c2: int,
) -> None:
    counts, usage = pair_counts(g, cycles)
    if any(n != c1 for n in usage.values()):
        raise VerificationError(f"per-edge usage {usage} is not uniformly {c1}")
    for e1, e2 in itertools.combinations(g.delta(w), 2):
        here = counts.get((w, frozenset((e1, e2))), 0)
        img = frozenset((sigma_w_edge[e1], sigma_w_edge[e2]))
        if here != counts.get((w.mu(), img), 0):
            raise VerificationError(f"pair balance at {w} fails on ({e1},{e2})")
    for v in (u, u.mu()):
        for e1, e2 in itertools.combinations(g.delta(v), 2):
            n = counts.get((v, frozenset((e1, e2))), 0)
            if n != c2:
                raise VerificationError(
                    f"pair ({e1},{e2}) at {v} lies in {n} cycles, expected {c2}"
                )
    if not any(c.is_long for c in cycles):
        raise VerificationError("list has no cycle of length at least three")


def _inductive(
    g: Multigraph,
    w: VertexId,
    u: VertexId,
    sigma_w_edge: dict[int, int],
    orbit_list,
    sigma_after_pi: dict[int, int],
    c: int,
    levels: list[dict],
) -> tuple[CycleList, int, int]:
    if g.degree(u) == g.degree(w):
        rw = regular_witness(g)
        levels.append({"edges": len(g.edges), "removed": None, "c1": rw.m1, "c2": rw.m2})
        return dict(rw.cycles), rw.m1, rw.m2
    uu_edges = [eid for eid in g.delta(u) if g.edges[eid].other(u) == u.mu()]
    if not uu_edges:
        raise PreconditionError(
            f"no edge joins {u} and {u.mu()} although deg({u}) exceeds deg({w})"
        )
    e = uu_edges[0]
    sub = g.remove_edges([e])
    _check_level_preconditions(sub, w, u)
    sub_cycles, c1_sub, c2_sub = _inductive(
        sub, w, u, sigma_w_edge, orbit_list, sigma_after_pi, c, levels
    )
    patch = Counter()
    for orbit in orbit_list:
        for pair in orbit:
            x, y = sorted(pair)
            sx, sy = sigma_after_pi[x], sigma_after_pi[y]
            x_at_pair = g.edges[x].other(w) == w.mu()
            y_at_pair = g.edges[y].other(w) == w.mu()
            if x_at_pair and y_at_pair:
                if (sx, sy) != (x, y):
                    raise VerificationError("edges between the w pair must be fixed")
                cycs = [make_cycle(g, {x, y})]
            elif not x_at_pair and not y_at_pair:
                cycs = [make_cycle(g, {e, x, y}), make_cycle(g, {e, sx, sy})]
            else:
                if x_at_pair:
                    x, y, sx, sy = y, x, sy, sx
                if sy != y:
                    raise VerificationError("edge between the w pair must be fixed")
                cycs = [make_cycle(g, {e, x, y, sx})]
            for cyc in cycs:
                patch[cyc] += 1
    final = Counter()
    for cyc, n in patch.items():
        final[cyc] += n * c2_sub
    for cyc, n in sub_cycles.items():
        final[cyc] += n * c
    for f in uu_edges[1:]:
        final[make_cycle(g, {e, f})] += c * c2_sub
    a = sum(1 for eid in g.delta(u) if g.edges[eid].other(u) in (w, w.mu()))
    b = len(uu_edges)
    c1 = c * c2_sub * (a + b - 1)
    c2 = c * c2_sub
    _check_good_list(g, w, u, sigma_w_edge, dict(final), c1, c2)
    levels.append({"edges": len(g.edges), "removed": e, "c1": c1, "c2": c2})
    return dict(final), c1, c2


def inductive_witness(
    graph: WhiteheadGraph, w: VertexId, completion: Completion
) -> GoodList:
    """Run the edge-peeling recursion under a fixed uniform completion.

    The graph itself must meet the level preconditions, as checked by
    :func:`four_vertex_witness`; each peeled graph is checked here.
    """
    D = completion.aux
    if D.graph is not graph:
        raise PreconditionError("completion was built for a different graph")
    sigma_w_edge = {eid: graph.sigma_edge(w, eid) for eid in graph.delta(w)}
    sigma_after_pi = {
        D.e_edge(i): D.f_edge(completion.pi_nodes[("e", i)][1]) for i in range(D.m)
    }
    levels: list[dict] = []
    cycles, c1, c2 = _inductive(
        graph,
        w,
        D.u,
        sigma_w_edge,
        completion.orbit_list,
        sigma_after_pi,
        completion.c,
        levels,
    )
    return GoodList(cycles, c1, c2, tuple(reversed(levels)))


def four_vertex_witness(graph: WhiteheadGraph) -> GoodList:
    """End-to-end construction for a connected graph on four vertices.

    Every peeled level is checked by :func:`_check_good_list`; the result
    always has a long cycle and is left to :func:`verify_witness` as a whole.
    """
    active = graph.active_vertices()
    if len(active) != 4 or any(v.mu() not in active for v in active):
        raise PreconditionError("construction needs exactly four paired non-isolated vertices")
    w = min(active, key=lambda v: (graph.degree(v), (v.gen, v.sign < 0)))
    u, _ = _other_pair(graph, w)
    _check_level_preconditions(graph, w, u)
    aux = build_auxiliary_digraph(graph, w, u=u)
    completion = uniform_permutation(aux)
    good = inductive_witness(graph, w, completion)
    # a graph that is regular at the top returns regular_witness's list unchecked
    if not good.has_long_cycle():
        raise VerificationError("constructed list has no cycle of length at least three")
    return good
