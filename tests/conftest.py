"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: cycles are
found by filtering edge subsets, canonical cycle keys by listing every
rotation, pair counts by direct recounting, witness existence by bounded
enumeration of multiplicity vectors, minimum cuts by listing vertex sets,
the edges of each vertex pair by a pass over the sorted edge ids,
regular cycle lists by the slot-pair loop over the coloring, perfect
matchings by a walk over vertex objects and sets, the fractional coloring by
the linear program over every perfect matching with parallel edges distinct,
linear programs by a Bland-rule simplex on a Fraction tableau, the
four-vertex build-up by rescaling the whole lower list at every level,
the glued vertices, links and orientability of a surface by a union-find
and a two-coloring over polygon corners, with each side's head and tail
read from connecting-map-compatible edge ranks, and a word expression by
reading one letter or parenthesis at a time.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

import polygonality as pg
from polygonality import fourvertex, words
from polygonality.errors import WordParseError
from polygonality.whitehead import Multigraph, VertexId
from polygonality.witness import make_cycle


def words_graph(text: str) -> pg.WhiteheadGraph:
    return pg.build_whitehead_graph(pg.parse_word_list(text))


@pytest.fixture
def commutator():
    return words_graph("rank 2\nabAB\n")


@pytest.fixture
def refutation_graph():
    # a(ab^-1)^3 b^-2, the known two-connected-but-not-minimal instance
    return words_graph("rank 2\na(aB)^3B^2\n")


@pytest.fixture
def nonminimal_graph():
    return words_graph("rank 2\nabab^2ab^3\n")


@pytest.fixture
def polygonal_graph():
    return words_graph("rank 2\naBa^2b\n")


def make_plain(rank: int, pairs) -> Multigraph:
    """The graph whose edge ``i`` joins the two ``VertexId``s of ``pairs[i]``."""
    return Multigraph(rank, [(i, (x.index, y.index)) for i, (x, y) in enumerate(pairs)])


def vid(gen: int, sign: int) -> VertexId:
    return VertexId(gen, sign)


def edge_ends(graph: Multigraph, eid: int) -> tuple[VertexId, VertexId]:
    """The two ends of an edge as vertex objects, named from their indices:
    index ``2(g - 1)`` is ``a_g`` and the next one ``a_g^-1``."""
    return tuple(VertexId(i // 2 + 1, -1 if i % 2 else 1) for i in graph.edges[eid])


def other_end(graph: Multigraph, eid: int, v: VertexId) -> VertexId:
    """The end of edge ``eid`` other than ``v``."""
    x, y = edge_ends(graph, eid)
    assert v in (x, y), f"edge {eid} is not at {v}"
    return y if x == v else x


def fourvertex_base_case(graph) -> Multigraph:
    """The regular graph in which the four-vertex recursion on ``graph`` ends."""
    with mock.patch.object(fourvertex, "base_witness", wraps=fourvertex.base_witness) as spy:
        pg.four_vertex_witness(graph)
    (base, _, _), _ = spy.call_args
    return base


# -- oracles ------------------------------------------------------------------


def oracle_is_cycle(graph: Multigraph, eids: frozenset[int]) -> bool:
    """Degree-2-everywhere plus edge connectivity, checked from scratch."""
    if len(eids) < 2:
        return False
    deg: dict = {}
    for e in eids:
        for v in edge_ends(graph, e):
            deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    seen = set()
    stack = [next(iter(eids))]
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        for f in eids:
            if f not in seen and set(edge_ends(graph, e)) & set(edge_ends(graph, f)):
                stack.append(f)
    return len(seen) == len(eids)


def oracle_all_cycles(graph: Multigraph) -> set[frozenset[int]]:
    eids = graph.edge_ids()
    out = set()
    for r in range(2, len(eids) + 1):
        for sub in itertools.combinations(eids, r):
            fs = frozenset(sub)
            if oracle_is_cycle(graph, fs):
                out.add(fs)
    return out


def oracle_cycle_key(seq) -> tuple[int, ...]:
    """Least of all rotations of a cyclic edge sequence, in both directions."""
    seq = list(seq)
    return min(tuple(s[i:] + s[:i]) for s in (seq, seq[::-1]) for i in range(len(seq)))


def oracle_turns(cycle) -> tuple[tuple[int, int, int], ...]:
    """The turns of a walked cycle, built in one pass over the walk: at
    ``verts[t]`` the walk turns from ``edges[t - 1]`` to ``edges[t]``."""
    seq = list(cycle.edges)
    return tuple(
        [(v, e, f) if e < f else (v, f, e) for v, e, f in zip(cycle.verts, [seq[-1], *seq], seq)]
    )


def oracle_constraint_rows(graph, cycles) -> tuple[list[list[int]], list]:
    """Balance rows and their keys as :func:`oracle_turns` lists the turns: a
    dense row per lesser turn of each turn-image pair, +1 on the cycles through
    the turn and -1 on those through the image, kept in turn order unless it is
    zero."""
    covering: dict = {}
    for j, c in enumerate(cycles):
        for turn in oracle_turns(c):
            covering.setdefault(turn, []).append(j)
    images = {}
    for turn in covering:
        i, e, f = turn
        g, h = graph.sigma[i][e], graph.sigma[i][f]
        image = (i ^ 1, min(g, h), max(g, h))
        images[min(turn, image)] = max(turn, image)
    rows, keys = [], []
    for turn in sorted(images):
        row = [0] * len(cycles)
        for j in covering.get(turn, ()):
            row[j] += 1
        for j in covering.get(images[turn], ()):
            row[j] -= 1
        if any(row):
            rows.append(row)
            keys.append((graph.vertices()[turn[0]], turn[1:]))
    return rows, keys


def oracle_min_cut(graph: Multigraph, x: VertexId, y: VertexId) -> int:
    """Fewest edges leaving a vertex set that contains ``x`` and not ``y``,
    over all ``2^(2 rank - 2)`` such sets; the edges with the same two ends
    are counted together."""
    rest = [v for v in graph.vertices() if v not in (x, y)]
    ends = Counter(frozenset(edge_ends(graph, e)) for e in graph.edges)
    best = len(graph.edges)
    for r in range(len(rest) + 1):
        for sub in itertools.combinations(rest, r):
            inside = {x, *sub}
            cut = sum(m for pair, m in ends.items() if len(inside & pair) == 1)
            best = min(best, cut)
    return best


def oracle_pair_table(graph: Multigraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Edge ids grouped by their unordered pair of end indices, each group in
    id order, the pairs in the order of their least edge ids."""
    ends = graph.edges
    pairs: dict[tuple[int, int], list[int]] = {}
    for eid in sorted(ends):
        s, t = ends[eid]
        pairs.setdefault((s, t) if s < t else (t, s), []).append(eid)
    return {p: tuple(eids) for p, eids in pairs.items()}


def oracle_graph_to_json(graph: pg.WhiteheadGraph) -> dict:
    """Graph JSON walked over vertex objects: each vertex's edges found
    through :func:`edge_ends`, each named at that vertex and its
    connecting-map image named at the paired vertex ``mu(v)``."""
    sigma: dict[str, dict[str, str]] = {}
    for v in graph.vertices():
        m = {
            f"{eid}@{v.name}": f"{graph.sigma[v.index][eid]}@{v.mu().name}"
            for eid in sorted(graph.edges)
            if v in edge_ends(graph, eid)
        }
        if m:
            sigma[v.name] = m
    return {
        "rank": graph.rank,
        "edges": [
            {"id": eid, "u": u.name, "v": v.name}
            for eid, (u, v) in sorted((eid, edge_ends(graph, eid)) for eid in graph.edges)
        ],
        "sigma": sigma,
    }


def _edge_components(graph: Multigraph, eids: frozenset[int]) -> list[frozenset[int]]:
    """Connected pieces of an edge set, grown edge by edge, by least edge id."""
    remaining = set(eids)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = set(edge_ends(graph, seed))
        remaining.discard(seed)
        grown = True
        while grown:
            grown = False
            for eid in list(remaining):
                if frontier.intersection(edge_ends(graph, eid)):
                    comp.add(eid)
                    frontier.update(edge_ends(graph, eid))
                    remaining.discard(eid)
                    grown = True
        comps.append(frozenset(comp))
    return comps


def oracle_regular_cycles(graph: Multigraph, coloring) -> dict:
    """Cycle list of a fractional coloring: one slot per unit of multiplicity,
    the pieces of every slot pair's symmetric difference rebuilt from their
    edge sets, in slot-pair order."""
    slots = [m for m, n in coloring.entries for _ in range(n)]
    cycles: dict = {}
    for i, j in itertools.combinations(range(len(slots)), 2):
        diff = slots[i].symmetric_difference(slots[j])
        for comp in _edge_components(graph, diff):
            cyc = make_cycle(graph, comp)
            cycles[cyc] = cycles.get(cyc, 0) + 1
    return cycles


def oracle_perfect_matchings(graph: Multigraph) -> list[frozenset[int]]:
    """Edge sets of all perfect matchings on the non-isolated vertices, walked
    over ``VertexId``s: the least uncovered vertex first, by each of its edges
    in id order."""
    verts = sorted(graph.active_vertices())
    out: list[frozenset[int]] = []

    def extend(uncovered: tuple[VertexId, ...], chosen: tuple[int, ...]):
        if not uncovered:
            out.append(frozenset(chosen))
            return
        v = uncovered[0]
        rest = set(uncovered[1:])
        for eid in graph.delta(v):
            w = other_end(graph, eid, v)
            if w in rest:
                extend(tuple(x for x in uncovered[1:] if x != w), chosen + (eid,))

    if len(verts) % 2 == 0:
        extend(tuple(verts), ())
    return out


def oracle_least_pair_edges(graph: Multigraph) -> set[int]:
    """The edges with no parallel edge of a smaller id."""
    least: dict[frozenset[int], int] = {}
    for eid, ends in graph.edges.items():
        key = frozenset(ends)
        least[key] = min(eid, least.get(key, eid))
    return set(least.values())


def oracle_pair_matchings(graph: Multigraph) -> list[frozenset[int]]:
    """The perfect matchings that use only least edges of their vertex pairs,
    in the order of :func:`oracle_perfect_matchings`."""
    least = oracle_least_pair_edges(graph)
    return [m for m in oracle_perfect_matchings(graph) if m <= least]


def oracle_edge_coloring(graph: Multigraph):
    """The fractional coloring over every perfect matching, parallel edges
    distinct: one balance row ``cover_e - cover_e0`` per edge after the
    first, all-ones costs, the integer weights taken as multiplicities.
    ``None`` when the optimum is zero."""
    (k,) = {graph.degree(v) for v in graph.active_vertices()}
    matchings = oracle_perfect_matchings(graph)
    cover = {eid: [int(eid in m) for m in matchings] for eid in sorted(graph.edges)}
    first, *rest = cover.values()
    rows = [[a - b for a, b in zip(row, first)] for row in rest]
    x, objective, _ = oracle_maximize_homogeneous(rows, [1] * len(matchings))
    if not objective:
        return None
    scale = math.lcm(*(v.denominator for v in x))
    entries = [(m, int(v * scale)) for m, v in zip(matchings, x) if v]
    return pg.FractionalColoring(k, sum(n for _, n in entries), tuple(entries))


def oracle_pair_count(graph, cycles: dict, v, e, f) -> int:
    """Cycles (with multiplicity) containing both edges e and f."""
    return sum(m for c, m in cycles.items() if e in c.edges and f in c.edges)


def oracle_balanced(graph: pg.WhiteheadGraph, cycles: dict) -> bool:
    for v in graph.active_vertices():
        delta = graph.delta(v)
        for e, f in itertools.combinations(delta, 2):
            img_e = graph.sigma[v.index][e]
            img_f = graph.sigma[v.index][f]
            if oracle_pair_count(graph, cycles, v, e, f) != oracle_pair_count(
                graph, cycles, v.mu(), img_e, img_f
            ):
                return False
    return True


def oracle_bounded_witness_search(
    graph: pg.WhiteheadGraph, bound: int, require_long: bool
):
    """Smallest balanced multiplicity vector with entries <= bound, or None."""
    cycles = pg.enumerate_cycles(graph)
    for total in range(1, bound * len(cycles) + 1):
        for mults in _compositions(total, len(cycles), bound):
            chosen = {c: m for c, m in zip(cycles, mults) if m}
            if not chosen:
                continue
            if require_long and not any(c.is_long for c in chosen):
                continue
            if oracle_balanced(graph, chosen):
                return chosen
    return None


def _compositions(total: int, parts: int, bound: int):
    if parts == 1:
        if total <= bound:
            yield (total,)
        return
    for head in range(min(total, bound) + 1):
        for rest in _compositions(total - head, parts - 1, bound):
            yield (head,) + rest


# -- reference simplex: Bland's rule on a Fraction tableau ---------------------
#
# The same pivot rules as ``polygonality.simplex``, in plain rational
# arithmetic: every pivot divides the pivot row by the pivot and subtracts
# multiples of it from the other rows.


class FractionTableau:
    """Dense tableau: rows over n columns, rhs, basis, and objective row."""

    def __init__(self, rows, rhs, basis, cost):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.n = len(cost)
        self.obj_row = list(cost)
        self.obj_val = Fraction(0)
        for i, bi in enumerate(basis):
            self._subtract_from_objective(i, bi)

    def _subtract_from_objective(self, r, col):
        f = self.obj_row[col]
        if f != 0:
            row = self.rows[r]
            self.obj_row = [a - f * b for a, b in zip(self.obj_row, row)]
            self.obj_val += f * self.rhs[r]

    def pivot(self, r, col):
        piv = self.rows[r][col]
        self.rows[r] = row = [v / piv for v in self.rows[r]]
        self.rhs[r] /= piv
        for i in range(len(self.rows)):
            f = self.rows[i][col]
            if i != r and f != 0:
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], row)]
                self.rhs[i] -= f * self.rhs[r]
        self._subtract_from_objective(r, col)
        self.basis[r] = col

    def run(self):
        """Bland's rule until the objective is positive or no column improves."""
        while self.obj_val <= 0:
            col = next((j for j in range(self.n) if self.obj_row[j] > 0), None)
            if col is None:
                return
            best_r, best_ratio = None, None
            for i, row in enumerate(self.rows):
                if row[col] > 0:
                    ratio = self.rhs[i] / row[col]
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[best_r])
                    ):
                        best_r, best_ratio = i, ratio
            if best_r is None:
                raise ArithmeticError("unbounded linear program")
            self.pivot(best_r, col)


def _fraction_gauss_jordan(rows, r, col):
    """Normalize ``rows[r]`` at ``col`` and clear ``col`` from the other rows."""
    rows[r] = row = [v / rows[r][col] for v in rows[r]]
    for i in range(len(rows)):
        f = rows[i][col]
        if i != r and f != 0:
            rows[i] = [a - f * b for a, b in zip(rows[i], row)]


def oracle_maximize_homogeneous(A, c):
    """Reference ``max c.x`` over ``A x = 0, sum(x) <= 1, x >= 0``, stopped at
    the first positive objective: (x, objective, duals, empty when positive)."""
    m, n = len(A), len(c)
    rows = [[Fraction(v) for v in row] + [Fraction(0)] for row in A]
    rows.append([Fraction(1)] * (n + 1))  # normalization row with its slack
    cost = [Fraction(v) for v in c] + [Fraction(0)]
    basis_cols, kept = [], []
    for i in range(m):
        col = next((j for j in range(n) if rows[i][j] != 0), None)
        if col is None:
            continue  # redundant row
        _fraction_gauss_jordan(rows, i, col)
        basis_cols.append(col)
        kept.append(i)
    tab = FractionTableau(
        [rows[i] for i in kept] + [rows[m]],
        [Fraction(0)] * len(kept) + [Fraction(1)],
        basis_cols + [n],
        cost,
    )
    tab.run()
    x = [Fraction(0)] * n
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = tab.rhs[i]
    if tab.obj_val > 0:
        return x, tab.obj_val, []
    # duals: solve y.B = c_B over the kept rows and the normalization row
    k = len(kept)
    mat = [
        [Fraction(A[kept[i]][bi] if bi < n else 0) for i in range(k)] + [Fraction(1), cost[bi]]
        for bi in tab.basis
    ]
    pending = list(range(len(mat)))
    y = [Fraction(0)] * (k + 1)
    solved = []
    for col in range(k + 1):
        pr = next((r for r in pending if mat[r][col] != 0), None)
        if pr is not None:
            pending.remove(pr)
            _fraction_gauss_jordan(mat, pr, col)
            solved.append((pr, col))
    for pr, col in solved:
        y[col] = mat[pr][-1]
    duals = [Fraction(0)] * (m + 1)
    for i, orig in enumerate(kept):
        duals[orig] = y[i]
    duals[m] = y[k]
    return x, tab.obj_val, duals


def oracle_inductive(g, w, u, orbit_pairs, sigma_after_pi, c, levels):
    """``fourvertex._inductive`` with the level-by-level build-up: every level
    rescales the whole list below it by ``c`` and inserts it again, between
    the level's patch cycles and its bigons."""
    peeled = []
    while g.degree(u) != g.degree(w):
        uu_edges = [eid for eid in g.delta(u) if other_end(g, eid, u) == u.mu()]
        peeled.append((g, uu_edges))
        g = g.remove_edges([uu_edges[0]])
        fourvertex._check_level_preconditions(g, w, u)
    rw = fourvertex.base_witness(g, w, u)
    levels.append({"edges": len(g.edges), "removed": None, "c1": rw.m1, "c2": rw.m2})
    cycles, c1, c2 = rw.cycles, rw.m1, rw.m2
    for g, uu_edges in reversed(peeled):
        e = uu_edges[0]
        final = Counter()
        for pair, count in orbit_pairs.items():
            x, y = sorted(pair)
            sx, sy = sigma_after_pi[x], sigma_after_pi[y]
            x_at_pair = other_end(g, x, w) == w.mu()
            y_at_pair = other_end(g, y, w) == w.mu()
            if x_at_pair and y_at_pair:
                cycs = [frozenset((x, y))]
            elif not x_at_pair and not y_at_pair:
                cycs = [frozenset((e, x, y)), frozenset((e, sx, sy))]
            else:
                if x_at_pair:
                    x, y, sx, sy = y, x, sy, sx
                cycs = [frozenset((e, x, y, sx))]
            for cyc in cycs:
                final[cyc] += count * c2
        for cyc, n in cycles.items():
            final[cyc] += n * c
        for f in uu_edges[1:]:
            final[frozenset((e, f))] += c * c2
        a = sum(1 for eid in g.delta(u) if other_end(g, eid, u) in (w, w.mu()))
        c1 = c * c2 * (a + len(uu_edges) - 1)
        c2 = c * c2
        levels.append({"edges": len(g.edges), "removed": e, "c1": c1, "c2": c2})
        cycles = dict(final)
    return cycles, c1, c2


def oracle_linear_orders(graph: pg.WhiteheadGraph) -> list[dict[int, int]]:
    """Ranks of the edges at every vertex, compatible with the connecting
    maps: ``rank[i][e] == rank[i ^ 1][sigma[i][e]]``.  The free choice is edge-id
    order at each positive vertex (even index), carried to its pair."""
    rank: list[dict[int, int]] = []
    for table in graph.sigma[0::2]:
        rank.append({e: r for r, e in enumerate(table)})
        rank.append({img: r for r, img in enumerate(table.values())})
    return rank


def oracle_tail_head(cx, rank, key) -> tuple[int, int]:
    """The tail and head corners of the side ``key = (polygon, t)``: of its two
    corners, ``t - 1`` and ``t``, the head is the one whose edge ranks lower at
    the side's vertex."""
    p, t = key
    verts, edges = cx.polygons[p]
    prev, nxt = (t - 1) % len(edges), t
    if rank[verts[t]][edges[prev]] < rank[verts[t]][edges[nxt]]:
        return nxt, prev
    return prev, nxt


def oracle_vertex_classes(cx) -> list[list[tuple[int, int]]]:
    """The glued vertices of a surface complex as union-find classes of its
    ``(polygon, corner)`` pairs: each glued side pair joins head with head and
    tail with tail, heads and tails read from :func:`oracle_linear_orders`.
    Classes are sorted, and listed by their least corner."""
    rank = oracle_linear_orders(cx.graph)
    parent = {(p, t): (p, t) for p, poly in enumerate(cx.polygons) for t in range(len(poly.edges))}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for key, partner in cx.pairing.items():
        ends = zip(oracle_tail_head(cx, rank, key), oracle_tail_head(cx, rank, partner))
        for c1, c2 in ends:
            rx, ry = find((key[0], c1)), find((partner[0], c2))
            parent[max(rx, ry)] = min(rx, ry)
    classes: dict = {}
    for corner in parent:
        classes.setdefault(find(corner), []).append(corner)
    return [sorted(cs) for _, cs in sorted(classes.items())]


def oracle_link_letters(cx, corners) -> tuple:
    """The letter codes read around one glued vertex, given its corners: from
    the least corner through its next side, across each side to the partner's
    matching corner (head to head, tail to tail), until the walk is back where
    it began.  A crossed side reads its generator, inverted unless the partner
    side is incoming (at a positive vertex), and a letter's code is the index
    of its vertex."""
    rank = oracle_linear_orders(cx.graph)
    p, t = corners[0]
    side_idx = (t + 1) % len(cx.polygons[p].edges)
    first, letters = (p, t, side_idx), []
    while True:
        partner = cx.pairing[(p, side_idx)]
        gen = cx.polygons[p].verts[side_idx] // 2 + 1
        incoming = cx.polygons[partner[0]].verts[partner[1]] % 2 == 0
        letters.append(VertexId(gen, 1 if incoming else -1).index)
        tail, head = oracle_tail_head(cx, rank, (p, side_idx))
        ptail, phead = oracle_tail_head(cx, rank, partner)
        t = phead if head == t else ptail
        p = partner[0]
        n = len(cx.polygons[p].edges)
        assert (p, t) in corners and partner[1] in (t, (t + 1) % n)
        side_idx = (t + 1) % n if partner[1] == t else t
        if (p, t, side_idx) == first:
            return tuple(letters)
        assert len(letters) <= len(corners)


def oracle_is_orientable(cx) -> bool:
    """Two-color the polygons so that glued sides run in opposite directions,
    a side running forward when its head is its corner ``t``, heads read from
    :func:`oracle_linear_orders`."""
    rank = oracle_linear_orders(cx.graph)
    flip: dict[int, bool] = {}
    for start in range(len(cx.polygons)):
        if start in flip:
            continue
        flip[start] = False
        stack = [start]
        while stack:
            p = stack.pop()
            for t in range(len(cx.polygons[p].edges)):
                q, s = cx.pairing[(p, t)]
                fwd_here = oracle_tail_head(cx, rank, (p, t))[1] == t
                fwd_there = oracle_tail_head(cx, rank, (q, s))[1] == s
                need = flip[p] ^ (fwd_here == fwd_there)
                if q not in flip:
                    flip[q] = need
                    stack.append(q)
                elif flip[q] != need:
                    return False
    return True


def oracle_match_power(letters, base) -> int | None:
    """``words.match_power`` by trying every rotation of the letter codes
    against every power of the word and of its inverse."""
    inverse = tuple(x ^ 1 for x in reversed(base))
    for c in range(1, len(letters) + 1):
        for exponent, word in ((c, base), (-c, inverse)):
            power = word * c
            if any(letters[r:] + letters[:r] == power for r in range(len(letters))):
                return exponent
    return None


def oracle_word_text(pairs) -> str:
    """The text of a word given as ``(generator, sign)`` pairs: generators
    1-26 are the letters ``a``-``z``, upper case when inverted, and a later
    generator ``g`` is the token ``a<g>``, followed by ``^-1`` when inverted."""
    out = []
    for gen, sign in pairs:
        if gen <= 26:
            letter = "abcdefghijklmnopqrstuvwxyz"[gen - 1]
            out.append(letter if sign > 0 else letter.upper())
        else:
            out.append(f"a{gen}" if sign > 0 else f"a{gen}^-1")
    return "".join(out)


_ORACLE_TOKEN = re.compile(r"\s*(?:([a-zA-Z])([0-9]*)|(\()|(\)))")


def oracle_parse_expr(text: str, pos: int, rank: int, depth: int, room: int):
    """``words._parse_expr`` reading one token at a time: every letter, plain
    or not, is its own atom, checked against the rank and then the cap."""
    out: list[int] = []
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if m is None:
            if not text[pos:].strip():
                break
            raise WordParseError(f"unexpected symbol at column {pos}: {text[pos:][:10]!r}")
        pos = m.end()
        letter, digits, lparen, rparen = m.groups()
        if rparen:
            if depth == 0:
                raise WordParseError("unbalanced ')'")
            return out, pos
        if lparen:
            atom, pos = oracle_parse_expr(text, pos, rank, depth + 1, room - len(out))
        else:
            atom = [words._letter_from_token(letter, digits, rank)]
        exp, pos = words._maybe_power(text, pos)
        if len(out) + len(atom) * abs(exp) > room:
            length = words.MAX_WORD_LENGTH - room + len(out) + len(atom) * abs(exp)
            raise WordParseError(
                f"word expands to at least {length} letters, over the cap of {words.MAX_WORD_LENGTH}"
            )
        out.extend(words._apply_power(atom, exp))
    if depth != 0:
        raise WordParseError("unbalanced '('")
    return out, pos
