"""Witness construction for connected graphs on four vertices.

Directly constructs a balanced cycle list (with a cycle of length at least
three and constant per-edge usage) for a connected 4-vertex graph whose local
edge connectivity between paired vertices meets the degree everywhere.

Pipeline: pick a minimum-degree vertex ``w`` and form the auxiliary digraph:
its nodes are the dart of each edge x at ``w`` and that dart's connecting-map
image, its arcs run from the image of x to the dart of x and from the dart of
x to the image of y when x is sigma_w(y).  So each component alternates the
image and dart of one edge, then of the next, and is stored as that chain of
edges, and the digraph is those chains and nothing else.  Partition the
chains into the eight good shapes, pairing the short ones off in one pass per
phase, and complete each part into a permutation pi of its edges, whose
cycles join the part's chains end to end, so that pi is "good" (images under
the connecting map stay disjoint) and "uniform" (a list of orbits of the
induced pair permutation, each listed once with its count, covers every edge
at ``w`` the same number of times).  Given sigma_w, the completion hands over
plain values: sigma_w after pi, the orbit pairs weighted by how often the
list holds them, and the coverage constant.  Given the positive vertex u of
the other pair, one function then peels edges between the opposite vertex pair
down to a regular graph and writes the cycle list of every level in closed
form: the bigons, triangles and quadrilaterals patched in from the orbit
pairs, and the cycles of the regular graph at the bottom.  That graph is
edge-colored in closed form: each perfect matching of K4 on the four
vertices has equally many edges on its two sides, and pairing them gives k
perfect matchings, so this route solves no linear program.  Cycles are
edge-id sets throughout; the verifier walks them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import lcm
from typing import NamedTuple

from .errors import GraphError, PreconditionError, VerificationError
from .regular import FractionalColoring, RegularWitness, coloring_witness
from .whitehead import Multigraph, VertexId, WhiteheadGraph


class Chain(NamedTuple):
    """One component of the auxiliary digraph, as its chain of edges at ``w``.

    ``edges`` is ``(x1, x2, ...)`` with sigma_w(x_{i+1}) = x_i: the component
    runs image of x1, dart of x1, image of x2, ...  ``ends`` colors a path's
    source and sink (``'RR'``, ``'RB'``, ``'BR'`` or ``'BB'``) and is None
    for a cycle, which starts at its least edge.
    """

    edges: tuple[int, ...]
    ends: str | None

    @property
    def short(self) -> bool:
        return len(self.edges) == 1


class AuxDigraph:
    """The auxiliary digraph at ``w`` as its chains: paths by first edge, then cycles.

    It has two nodes per edge, and only path ends carry a color.
    """

    def __init__(self, components: tuple[Chain, ...]):
        self.components = components
        self.num_edges = sum(len(c.edges) for c in components)
        ends = Counter(c.ends for c in components)
        if ends["RB"] != ends["BR"]:
            raise GraphError(
                f"{ends['RB']} R-B against {ends['BR']} B-R paths: red sources and sinks differ"
            )

    def color_count(self, color: str) -> int:
        return sum(c.ends.count(color) for c in self.components if c.ends)

    def is_good(self) -> bool:
        # no color on more than half of the nodes, which number twice the edges
        return max(self.color_count("R"), self.color_count("B")) <= self.num_edges


def _other_pair(graph: Multigraph, w: VertexId) -> tuple[VertexId, VertexId]:
    rest = sorted(v for v in graph.active_vertices() if v not in (w, w.mu()))
    if len(rest) != 2 or rest[0].mu() != rest[1]:
        raise PreconditionError("graph does not have exactly four non-isolated vertices")
    return rest[0], rest[1]


def build_auxiliary_digraph(graph: WhiteheadGraph, w: VertexId) -> AuxDigraph:
    """Auxiliary digraph of ``graph`` at ``w``, as its chains; see the module docstring.

    A path starts at each edge y, in id order, whose image sigma_w(y) leaves
    the ``w`` pair, and steps from x to the y with sigma_w(y) = x while x
    joins ``w`` and its pair.  With u the positive vertex of the other pair,
    its source is R when sigma_w(y) ends at u', B at u; its sink is R when
    its last edge ends at u, B at u'.  The cycles follow, each from its least
    edge on no chain yet.

    sigma_w is a bijection onto the edges at the pair of ``w``, so no node has
    in- or out-degree above one, and each component alternates the two nodes
    of one edge, so it has even length: chains cannot break these.  On four
    vertices without loops, interior and cycle nodes, whose edges join ``w``
    and its pair, have no color, and path ends, whose edges leave it, have
    one.  Left to check: the source/sink color balance and goodness.
    """
    u, _ = _other_pair(graph, w)
    sigma_w = graph.sigma[w]
    if len(sigma_w) < 2:
        raise PreconditionError(f"minimum degree {len(sigma_w)} < 2; no usable construction")
    # keyed by the edges at the pair of w: an edge at w is a key exactly when
    # it joins w and its pair
    preimage = {s: x for x, s in sigma_w.items()}

    def chain(x: int) -> tuple[int, ...]:
        edges = [x]
        while edges[-1] in preimage and preimage[edges[-1]] != x:
            edges.append(preimage[edges[-1]])
        return tuple(edges)

    comps, seen = [], set()
    for y in sorted(sigma_w):
        if sigma_w[y] not in sigma_w:
            edges = chain(y)
            source = "R" if (u ^ 1) in graph.edges[sigma_w[y]] else "B"
            sink = "R" if u in graph.edges[edges[-1]] else "B"
            comps.append(Chain(edges, source + sink))
            seen.update(edges)
    for x in sorted(sigma_w):
        if x not in seen:
            edges = chain(x)
            comps.append(Chain(edges, None))
            seen.update(edges)
    aux = AuxDigraph(tuple(comps))
    if not aux.is_good():
        raise GraphError(
            "auxiliary digraph is not good; the edge-connectivity precondition fails"
        )
    return aux


# -- decomposition into the eight good shapes --------------------------------


class GoodPart(NamedTuple):
    type_tag: int
    components: tuple[Chain, ...]


def _first(comps, pred):
    return next((c for c in comps if pred(c)), None)


def _pair_off(comps, tag, xs, ys):
    """Parts of shape ``tag`` pairing the i-th of ``xs`` with the i-th of ``ys``,
    and the components left, in order; a lone short cycle left joins the last part."""
    parts = [GoodPart(tag, pair) for pair in zip(xs, ys)]
    paired = {c for part in parts for c in part.components}
    rest = [c for c in comps if c not in paired]
    if parts and len(rest) == 1 and rest[0].short and rest[0].ends is None:
        parts[-1] = GoodPart(tag, parts[-1].components + (rest[0],))
        rest = []
    return parts, rest


def decompose_good(D: AuxDigraph) -> list[GoodPart]:
    """Partition a good auxiliary digraph into parts of the eight known shapes.

    Follows the inductive argument: peel short monochromatic pairs, then
    short-cycle/short-path pairs, then settle the remaining components into
    the long-path, mixed-pair, and cycle shapes, distributing leftover short
    monochromatic paths without breaking goodness.
    """
    if D.num_edges < 2:
        raise PreconditionError("decomposition needs at least four nodes")
    if not D.is_good():
        raise PreconditionError("digraph is not good (a color exceeds half the nodes)")
    comps = list(D.components)
    rr = [c for c in comps if c.short and c.ends == "RR"]
    bb = [c for c in comps if c.short and c.ends == "BB"]
    parts, comps = _pair_off(comps, 1, rr, bb)
    # short paths of one color at most are left, to pair with the short cycles
    yy = rr[len(parts) :] or bb[len(parts) :]
    more, comps = _pair_off(comps, 2, yy, [c for c in comps if c.short and c.ends is None])
    parts += more

    short_cycles = [c for c in comps if c.ends is None and c.short]
    if short_cycles:
        if _first(comps, lambda c: c.short and c.ends in ("RR", "BB")) is not None:
            raise VerificationError("short monochromatic path escaped the pairing phases")
        rest = [c for c in comps if c not in short_cycles]
        if len(short_cycles) >= 2:
            parts.append(GoodPart(4, tuple(short_cycles)))
            parts.extend(_pack_long_shapes(rest, []))
        else:
            sc = short_cycles[0]
            mono = _first(rest, lambda c: c.ends in ("RR", "BB"))
            if mono is not None:
                parts.append(GoodPart(2, (mono, sc)))
                rest = [c for c in rest if c is not mono]
            else:
                lc = _first(rest, lambda c: c.ends is None)
                if lc is not None:
                    parts.append(GoodPart(8, (lc, sc)))
                    rest = [c for c in rest if c is not lc]
                else:
                    br = _first(rest, lambda c: c.ends == "BR")
                    rb = _first(rest, lambda c: c.ends == "RB")
                    if br is None or rb is None:
                        raise VerificationError("no companion components for a short cycle")
                    parts.append(GoodPart(3, (sc, br, rb)))
                    rest = [c for c in rest if c is not br and c is not rb]
            parts.extend(_pack_long_shapes(rest, []))
    elif comps:
        shorts = [c for c in comps if c.short and c.ends in ("RR", "BB")]
        rest = [c for c in comps if c not in shorts]
        parts.extend(_pack_long_shapes(rest, shorts))

    return parts


def _pack_long_shapes(comps, shorts) -> list[GoodPart]:
    """Settle long paths/cycles and mixed pairs, absorbing short mono paths."""
    skeletons: list[tuple[int, list[Chain]]] = []
    brs = [c for c in comps if c.ends == "BR"]
    rbs = [c for c in comps if c.ends == "RB"]
    if len(brs) != len(rbs):
        raise VerificationError("mixed paths are unbalanced")
    for c in comps:
        if c.ends is None:
            if c.short:
                raise VerificationError("short cycle reached the long-shape packer")
            skeletons.append((7, [c]))
        elif c.ends in ("RR", "BB"):
            if c.short:
                raise VerificationError("short mono path reached the long-shape packer")
            skeletons.append((5, [c]))
    for br, rb in zip(brs, rbs):
        skeletons.append((6, [br, rb]))
    packed: list[GoodPart] = []
    taken = 0
    for tag, members in skeletons:
        if taken < len(shorts):  # half the skeleton's nodes, less those of the short paths' color
            y = shorts[taken].ends[0]
            capacity = sum(len(c.edges) - (c.ends or "").count(y) for c in members)
            absorbed = shorts[taken : taken + capacity]
            members += absorbed
            taken += len(absorbed)
        packed.append(GoodPart(tag, tuple(members)))
    if taken < len(shorts):
        raise PreconditionError("short paths cannot be absorbed; digraph was not good")
    return packed


# -- uniform completions ------------------------------------------------------


class Completion(NamedTuple):
    """A completed digraph, handed over edge to edge.

    ``sigma_after_pi[x]`` is sigma_w(pi(x)) for each edge x at ``w``; each
    pair of edges at ``w`` in ``orbit_pairs`` is weighted by the number of
    times the rescaled orbit list holds it, in first-listed order.
    """

    sigma_after_pi: dict[int, int]
    orbit_pairs: Counter[frozenset[int]]
    c: int


def _orbit_offset(xs: tuple[int, ...], off: int) -> tuple[frozenset[int], ...]:
    pairs = (frozenset((x, xs[(i + off) % len(xs)])) for i, x in enumerate(xs))
    return tuple(dict.fromkeys(pair for pair in pairs if len(pair) == 2))


def _orbit_star(xs: tuple[int, ...], y: int) -> tuple[frozenset[int], ...]:
    return tuple(frozenset((x, y)) for x in xs)


def part_completion(part: GoodPart):
    """Cycles of pi, orbit list, and coverage constant for one good part.

    pi permutes the part's edges.  Each of its cycles, an edge tuple, is the
    part's chains joined end to end, each path's sink to a path's source of
    the same color, and pi sends each edge to the next one in its cycle.  The
    orbit list holds orbits of the induced pair permutation, each once as
    ``(orbit, n)``: the orbit, a tuple of 2-sets of edges, counts n > 0
    times.  Every edge of the part appears in exactly ``c`` pairs counted
    over the whole list.
    """
    tag = part.type_tag
    cycles = [c.edges for c in part.components]  # each path closed on itself
    if tag in (1, 4):
        es = sorted(x for c in part.components for x in c.edges)
        orbits = [((frozenset((a, b)),), 1) for a, b in itertools.combinations(es, 2)]
        c = len(part.components) - 1
    elif tag == 2:
        xs = next(c.edges for c in part.components if c.ends is not None)
        ys = [c.edges[0] for c in part.components if c.ends is None]
        m = len(xs)
        op = _orbit_offset(xs, 1)
        stars = [_orbit_star(xs, y) for y in ys]
        if len(ys) == 2:
            # decompose_good only pairs two short cycles with a one-edge path
            if m != 1:
                raise VerificationError(
                    "shape (2) with two short cycles needs a one-edge path,"
                    f" got {m} edges at w"
                )
            orbits, c = [(stars[0], 1), (stars[1], 1), ((frozenset(ys),), 1)], 2
        elif m == 1:
            orbits, c = [(stars[0], 1)], 1
        elif m == 2:
            orbits, c = [(stars[0], 1), (op, 1)], 2
        else:
            orbits, c = [(stars[0], 2), (op, m - 1)], 2 * m
    elif tag == 3:
        br = next(c for c in part.components if c.ends == "BR")
        rb = next(c for c in part.components if c.ends == "RB")
        sc = next(c for c in part.components if c.ends is None)
        xs = br.edges + rb.edges
        cycles = [xs, sc.edges]
        m = len(xs)
        op, oc = _orbit_offset(xs, 1), _orbit_star(xs, sc.edges[0])
        if m == 2:
            orbits, c = [(oc, 1), (op, 1)], 2
        else:
            orbits, c = [(oc, 2), (op, m - 1)], 2 * m
    elif tag in (7, 8) or (
        tag == 5 and {"R", "B"} <= set("".join(c.ends or "" for c in part.components))
    ):
        long_comp = next(c for c in part.components if not c.short)
        xs = long_comp.edges
        ys = [c.edges[0] for c in part.components if c is not long_comp]
        M, k = len(xs), len(ys)
        if k > M:
            raise VerificationError("more short components than long-cycle edges")
        op = _orbit_offset(xs, 1)
        if k == 0:
            orbits, c = [(op, 1)], (2 if M > 2 else 1)
        else:
            p = (M - k) if M > 2 else (4 - 2 * k)
            orbits = [(_orbit_star(xs, y), 2) for y in ys] + ([(op, p)] if p else [])
            c = 2 * M
    else:  # tag 6, or tag 5 with a single color: one chained cycle
        paths = part.components
        if tag == 6:
            br = next(c for c in paths if c.ends == "BR")
            rb = next(c for c in paths if c.ends == "RB")
            shorts = [c for c in paths if c is not br and c is not rb]
            if shorts and shorts[0].ends[0] == "R":
                order = [br] + shorts + [rb]
            else:
                order = [br, rb] + shorts
        else:
            long_comp = next(c for c in paths if not c.short)
            order = [long_comp] + [c for c in paths if c is not long_comp]
        xs = tuple(x for c in order for x in c.edges)
        cycles = [xs]
        M = len(xs)
        orbits, c = [(_orbit_offset(xs, M // 2), 1)], (2 if M % 2 else 1)
    return cycles, orbits, c


def uniform_permutation(D: AuxDigraph, sigma_w: dict[int, int]) -> Completion:
    """Complete the digraph so the induced permutation at ``w`` is good and uniform.

    ``sigma_w`` is the connecting map at ``w``.  Per-part completions are
    rescaled to a common coverage constant by least common multiple: a
    part's orbits count ``c // c_part`` times as often.  sigma_w after pi is
    read off the cycles of pi, edge to next edge.
    """
    sigma_after_pi: dict[int, int] = {}
    per_part = []
    for part in decompose_good(D):
        cycles, orbits, c_part = part_completion(part)
        for cyc in cycles:
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                sigma_after_pi[x] = sigma_w[y]
        per_part.append((orbits, c_part))
    c = lcm(*(c_part for _, c_part in per_part))
    orbit_pairs: Counter[frozenset[int]] = Counter()
    for orbits, c_part in per_part:
        for orbit, n in orbits:
            for pair in orbit:
                orbit_pairs[pair] += n * (c // c_part)
    return Completion(sigma_after_pi, orbit_pairs, c)


# -- the inductive witness ----------------------------------------------------


class GoodList(NamedTuple):
    """Witness with the constants from the inductive construction."""

    cycles: dict[frozenset[int], int]  # multiplicity of each cycle's edge set
    c1: int  # every edge lies in exactly c1 cycles
    c2: int  # every distinct pair at the opposite vertex pair lies in exactly c2
    constants_per_level: tuple[dict, ...]


def _check_level_preconditions(g: Multigraph, w: VertexId, u: VertexId) -> None:
    """Hypothesis of one peeling level: connected, lambda(v, v') = deg(v) =
    deg(v') for v in {w, u}, and deg(u) >= deg(w), which the choice of ``w``
    as a vertex of least degree gives.

    lambda is symmetric, so one max-flow per vertex pair covers both vertices.

    Lemma: when the input meets the hypothesis, so does every peeled graph.  The
    cut {u, w} | {u', w'} separates u from u', so it holds at least deg u
    edges; as it holds deg u + deg w - 2 #(u-w) of them, #(u-w) <= deg w / 2,
    and likewise #(u-w') <= deg w / 2 by the cut {u, w'}.  Hence
    #(u-u') >= deg u - deg w: there is a u-u' edge to peel at every level.
    Removing one while deg u > deg w lowers lambda(u, u'), deg u and deg u' by
    exactly one; leaves the w-w' cuts {w} and {w, u, u'} alone; and leaves the
    cuts {w, u} and {w, u'}, which start at deg w + deg u - 2 #(u-w) >= deg u
    > deg w, at deg w or more.  No edge between {w, w'} and {u, u'} goes, so
    the graph stays connected.  The input alone is therefore checked.
    """
    if not g.is_connected(ignore_isolated=True):
        raise PreconditionError("graph is not connected")
    for v in (w, u):
        lam = g.local_edge_connectivity(v, v.mu())
        if lam != g.degree(v) or g.degree(v) != g.degree(v.mu()):
            raise PreconditionError(
                f"connectivity condition fails at {v}: lambda={lam}, deg={g.degree(v)}"
            )


def base_witness(g: Multigraph, w: VertexId, u: VertexId) -> RegularWitness:
    """Cycle list of the regular graph where the peeling ends, from a closed-form coloring.

    The graph is k-regular (k = deg w) and loopless on w, w', u, u'.  Its
    degree equations force #(w-w') = #(u-u'), #(w-u) = #(w'-u') and
    #(w-u') = #(w'-u): each perfect matching of K4 has as many edges on one
    side as on the other.  Pairing the i-th edges of the two sides, in id
    order, gives k perfect matchings that use every edge once, a proper
    k-edge-coloring (ell = k), whose pairwise differences are bigons and
    four-cycles.  Raises ``PreconditionError`` when k <= 1 or when two sides
    differ in size, which happens exactly when the graph is not regular.
    """
    k = g.degree(w)
    if k <= 1:
        raise PreconditionError(f"regular construction needs degree > 1, got {k}")
    wp, up = w.mu(), u.mu()
    matchings = []
    # the three perfect matchings of K4, each as its two sides
    for side, opposite in (((w, wp), (u, up)), ((w, u), (wp, up)), ((w, up), (wp, u))):
        xs = g.pairs.get(tuple(sorted(side)), ())
        ys = g.pairs.get(tuple(sorted(opposite)), ())
        if len(xs) != len(ys):
            raise PreconditionError(
                f"{len(xs)} edges {side[0]}-{side[1]} against {len(ys)} edges"
                f" {opposite[0]}-{opposite[1]}: the graph is not regular"
            )
        matchings += [(frozenset(pair), 1) for pair in zip(xs, ys)]
    return coloring_witness(g, FractionalColoring(k, len(matchings), tuple(matchings)))


def inductive_witness(
    graph: WhiteheadGraph, w: VertexId, u: VertexId, completion: Completion
) -> GoodList:
    """Run the edge peeling under a fixed uniform completion at ``w``, in one pass.

    ``u`` is the positive vertex of the other pair.  Every level's cycles and
    constants are written in closed form, and ``constants_per_level`` lists
    the levels top-down.  The graph itself must meet the level preconditions,
    as checked by :func:`four_vertex_witness`; the peeled graphs then meet
    them too (see :func:`_check_level_preconditions`).
    """
    c = completion.c
    # level j (0 at the top) peels uu[j], until deg(u) = deg(w).  Only u-u'
    # edges go, so no edge at w changes: the patch shapes, a = deg(u) - #uu and
    # the bigons of each level are read off the input graph, and only the
    # bottom, regular graph is built.
    uu = graph.pairs.get((u & ~1, u | 1), ())
    a = graph.degree(u) - len(uu)
    top = graph.degree(u) - graph.degree(w)
    rw = base_witness(graph.remove_edges(uu[:top]), w, u)
    # each orbit pair's patch cycles at every level: the edges other than the
    # peeled one, and whether the cycle runs through the peeled edge
    patch: list[tuple[tuple[int, ...], bool, int]] = []
    for pair, count in completion.orbit_pairs.items():
        x, y = sorted(pair)
        sx, sy = completion.sigma_after_pi[x], completion.sigma_after_pi[y]
        # an edge at w joins w and its pair when its ends differ in the last bit
        (s, t), (p, q) = graph.edges[x], graph.edges[y]
        x_at_pair, y_at_pair = s ^ t == 1, p ^ q == 1
        if x_at_pair and y_at_pair:
            if (sx, sy) != (x, y):
                raise VerificationError("edges between the w pair must be fixed")
            patch.append(((x, y), False, count))
        elif not x_at_pair and not y_at_pair:
            patch += [((x, y), True, count), ((sx, sy), True, count)]
        else:
            if x_at_pair:
                x, y, sx, sy = y, x, sy, sx
            if sy != y:
                raise VerificationError("edge between the w pair must be fixed")
            patch.append(((x, y, sx), True, count))
    # building back up, c2 gains a factor c per level
    levels = [
        {
            "edges": len(graph.edges) - j,
            "removed": uu[j],
            "c1": rw.m2 * c ** (top - j) * (a + len(uu) - j - 1),
            "c2": rw.m2 * c ** (top - j),
        }
        for j in range(top)
    ]
    levels.append({"edges": len(graph.edges) - top, "removed": None, "c1": rw.m1, "c2": rw.m2})
    # Each level scales the list below it by c, so a level's own cycles enter
    # the final list times c ** (number of levels above it), once.  The list
    # reads like the level-by-level one: each level's patch cycles, top level
    # first, then the regular cycles, then each level's bigons, top level last.
    final = Counter()
    for e in uu[:top]:
        for rest, through_e, count in patch:
            cyc = frozenset((e, *rest)) if through_e else frozenset(rest)
            final[cyc] += count * rw.m2 * c ** (top - 1)
    for cyc, n in rw.cycles.items():
        final[cyc] += n * c**top
    for j in reversed(range(top)):
        for f in uu[j + 1 :]:
            final[frozenset((uu[j], f))] += rw.m2 * c**top
    return GoodList(dict(final), levels[0]["c1"], levels[0]["c2"], tuple(levels))


def four_vertex_witness(graph: WhiteheadGraph) -> GoodList:
    """End-to-end construction for a connected graph on four vertices.

    Only the long cycle is checked here; the list is left to
    :func:`verify_witness` as a whole.
    """
    active = graph.active_vertices()
    if len(active) != 4 or any(v.mu() not in active for v in active):
        raise PreconditionError("construction needs exactly four paired non-isolated vertices")
    w = min(active, key=lambda v: (graph.degree(v), v))
    u, _ = _other_pair(graph, w)
    _check_level_preconditions(graph, w, u)
    aux = build_auxiliary_digraph(graph, w)
    completion = uniform_permutation(aux, graph.sigma[w])
    good = inductive_witness(graph, w, u, completion)
    # the base graph is connected, so two of its K4 classes are non-empty and
    # two of its matchings differ in a four-cycle; this guards that argument
    if not any(len(c) >= 3 for c in good.cycles):
        raise VerificationError("constructed list has no cycle of length at least three")
    return good
