"""Glue a verified cycle list into a closed surface and certify it.

Every cycle copy becomes a polygon dual to the cycle: polygon sides
correspond to cycle vertices, polygon corners to cycle edges.  A side at
vertex ``v`` carries the label ``(generator(v), {cycle edges at v})``, a
transverse orientation (into the polygon exactly when ``v`` is a positive
generator), and an internal orientation induced by connecting-map-compatible
linear orders on darts.  Sides are glued in matching label classes; the
balanced-pair condition guarantees the classes pair up perfectly.  Vertex
links of the glued surface then read powers of the input words, and the face
and edge counts decide the certificate inequality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import PairingError, PreconditionError, VerificationError
from .whitehead import Dart, VertexId, WhiteheadGraph
from .witness import Cycle, CycleList, verify_witness, witness_to_json
from .words import Letter, Word, WordList, match_power


def build_linear_orders(graph: WhiteheadGraph) -> dict[Dart, int]:
    """Rank the darts at every vertex, compatibly with the connecting maps.

    The rank of a dart equals the rank of its connecting-map image, which is
    exactly the compatibility the side orientations need.  The free choice is
    made canonically (edge id, then end) at the positive vertex of each pair.
    """
    rank: dict[Dart, int] = {}
    for v in graph.vertices():
        if v.sign < 0:
            continue
        for i, d in enumerate(sorted(graph.darts_at(v))):
            rank[d] = i
            rank[graph.sigma[d]] = i
    return rank


@dataclass(frozen=True)
class Side:
    poly: int
    index: int
    vertex: VertexId
    pair: frozenset[int]
    incoming: bool
    tail_corner: int
    head_corner: int


@dataclass(frozen=True)
class DualPolygon:
    index: int
    cycle: Cycle
    sides: tuple[Side, ...]

    def __len__(self) -> int:
        return len(self.sides)


class SurfaceComplex:
    """The glued closed surface with its counts and side pairing."""

    def __init__(self, graph: WhiteheadGraph, witness: CycleList, polygons, pairing):
        self.graph = graph
        self.witness = witness
        self.polygons: tuple[DualPolygon, ...] = polygons
        self.pairing: dict[tuple[int, int], tuple[int, int]] = pairing
        self._glue()

    def side(self, key: tuple[int, int]) -> Side:
        return self.polygons[key[0]].sides[key[1]]

    def _glue(self):
        parent: dict[tuple[int, int], tuple[int, int]] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for poly in self.polygons:
            for t in range(len(poly)):
                parent[(poly.index, t)] = (poly.index, t)
        seen = set()
        for key, partner in self.pairing.items():
            if key in seen:
                continue
            seen.add(key)
            seen.add(partner)
            s1, s2 = self.side(key), self.side(partner)
            union((s1.poly, s1.head_corner), (s2.poly, s2.head_corner))
            union((s1.poly, s1.tail_corner), (s2.poly, s2.tail_corner))
        classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for corner in parent:
            classes.setdefault(find(corner), []).append(corner)
        self.vertex_classes = [sorted(cs) for _, cs in sorted(classes.items())]
        self.corner_class = {
            corner: idx for idx, cs in enumerate(self.vertex_classes) for corner in cs
        }
        self.num_faces = len(self.polygons)
        edge_pairs = {frozenset((k, v)) for k, v in self.pairing.items()}
        self.num_edges = len(edge_pairs)
        self.num_vertices = len(self.vertex_classes)
        total_sides = sum(len(p) for p in self.polygons)
        if 2 * self.num_edges != total_sides:
            raise PairingError("side pairing does not cover every side exactly once")

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    def chi_minus_m(self) -> int:
        """chi(S) - m for the dual surface: equals -edges + faces of the complex."""
        return -self.num_edges + self.num_faces

    def is_orientable(self) -> bool:
        """2-color polygons so glued sides are traversed in opposite directions."""
        flip: dict[int, bool] = {}
        for poly in self.polygons:
            if poly.index in flip:
                continue
            flip[poly.index] = False
            stack = [poly.index]
            while stack:
                p = stack.pop()
                for t in range(len(self.polygons[p])):
                    q, s = self.pairing[(p, t)]
                    fwd_here = self.polygons[p].sides[t].head_corner == t
                    fwd_there = self.polygons[q].sides[s].head_corner == s
                    need = flip[p] ^ (fwd_here == fwd_there)
                    if q not in flip:
                        flip[q] = need
                        stack.append(q)
                    elif flip[q] != need:
                        return False
        return True


def _build_polygon(graph, rank, index: int, cycle: Cycle) -> DualPolygon:
    eids = cycle.edge_seq
    n = len(eids)
    sides = []
    for t, (v, pair) in enumerate(cycle.turns):
        e_prev, e_next = eids[t - 1], eids[t]
        d_prev = graph.edges[e_prev].dart_at(v)
        d_next = graph.edges[e_next].dart_at(v)
        corner_prev, corner_next = (t - 1) % n, t
        if rank[d_prev] < rank[d_next]:
            tail, head = corner_next, corner_prev
        else:
            tail, head = corner_prev, corner_next
        sides.append(Side(index, t, v, pair, v.sign > 0, tail, head))
    return DualPolygon(index, cycle, tuple(sides))


def build_surface(graph: WhiteheadGraph, witness: CycleList) -> SurfaceComplex:
    """Construct the closed surface of a verified witness.

    Expands multiplicities into physical polygon copies, orients sides by the
    canonical compatible dart orders, and pairs incoming with outgoing sides
    whose label pairs correspond under the connecting maps.  A pairing
    mismatch is a hard error: the verified balance condition rules it out.
    """
    verdict = verify_witness(graph, witness)
    if not verdict.ok:
        raise PreconditionError(f"witness fails verification: {verdict.failures[:3]}")
    rank = build_linear_orders(graph)
    polygons = []
    for cycle in sorted(witness):
        for _ in range(witness[cycle]):
            polygons.append(_build_polygon(graph, rank, len(polygons), cycle))
    incoming: dict[tuple[int, frozenset[int]], list[tuple[int, int]]] = {}
    outgoing: dict[tuple[int, frozenset[int]], list[tuple[int, int]]] = {}
    for poly in polygons:
        for side in poly.sides:
            if side.incoming:
                image = frozenset(
                    graph.sigma_edge(side.vertex, eid) for eid in side.pair
                )
                incoming.setdefault((side.vertex.gen, image), []).append(
                    (poly.index, side.index)
                )
            else:
                outgoing.setdefault((side.vertex.gen, side.pair), []).append(
                    (poly.index, side.index)
                )
    if set(incoming) != set(outgoing):
        raise PairingError("incoming and outgoing side label classes differ")
    pairing: dict[tuple[int, int], tuple[int, int]] = {}
    for key in sorted(incoming, key=lambda k: (k[0], sorted(k[1]))):
        ins, outs = sorted(incoming[key]), sorted(outgoing[key])
        if len(ins) != len(outs):
            raise PairingError(
                f"label class {key} has {len(ins)} incoming but {len(outs)} outgoing sides"
            )
        for a, b in zip(ins, outs):
            pairing[a] = b
            pairing[b] = a
    return SurfaceComplex(graph, witness, tuple(polygons), pairing)


@dataclass(frozen=True)
class BoundaryReading:
    vertex_class: int
    word: Word
    base_word_index: int | None
    exponent: int | None

    @property
    def ok(self) -> bool:
        return self.base_word_index is not None


def _link_traversal(complex_: SurfaceComplex, class_index: int):
    """Corners and side crossings around one glued vertex, as letters."""
    corners = complex_.vertex_classes[class_index]
    start = corners[0]
    poly, t = start
    letters = []
    visited = []
    side_idx = (t + 1) % len(complex_.polygons[poly])
    first = (poly, t, side_idx)
    while True:
        visited.append((poly, t))
        side = complex_.polygons[poly].sides[side_idx]
        partner = complex_.pairing[(poly, side_idx)]
        pside = complex_.side(partner)
        gen = side.vertex.gen
        letters.append((gen, 1 if pside.incoming else -1))
        if side.head_corner == t:
            nxt_corner = pside.head_corner
        elif side.tail_corner == t:
            nxt_corner = pside.tail_corner
        else:
            raise VerificationError("crossed a side not flanking the current corner")
        poly, t = partner[0], nxt_corner
        if complex_.corner_class.get((poly, t)) != class_index:
            raise VerificationError("link traversal left its vertex class (non-manifold gluing)")
        flanks = (t, (t + 1) % len(complex_.polygons[poly]))
        if partner[1] not in flanks:
            raise VerificationError("pairing sent the link outside the corner's flanks")
        side_idx = flanks[1] if partner[1] == flanks[0] else flanks[0]
        if (poly, t, side_idx) == first:
            break
        if len(visited) > len(corners):
            raise VerificationError("link traversal does not close up (non-manifold gluing)")
    if sorted(set(visited)) != corners:
        raise VerificationError("link traversal missed corners of its vertex class")
    return letters


def boundary_words(complex_: SurfaceComplex, word_list: WordList) -> list[BoundaryReading]:
    """Read the link of every glued vertex and match it against the input words.

    Each reading must be a nontrivial power of some input word, up to
    inversion and cyclic conjugation; the returned exponent is negative when
    the link reads the inverse word.
    """
    out = []
    for idx in range(len(complex_.vertex_classes)):
        letters = tuple(
            Letter(gen, sign) for gen, sign in _link_traversal(complex_, idx)
        )
        word = Word(letters)
        base, exponent = None, None
        for w in word_list.words:
            c = match_power(letters, w)
            if c is not None:
                base, exponent = w.index, c
                break
        out.append(BoundaryReading(idx, word, base, exponent))
    return out


@dataclass(frozen=True)
class SurfaceReport:
    m: int
    chi_s_minus_m: int
    chi_double: int
    orientable: bool
    boundary: tuple[BoundaryReading, ...]
    positive_degrees: dict[int, int]
    witness_hash: str

    def to_json(self) -> dict:
        return {
            "witness_hash": self.witness_hash,
            "m": self.m,
            "chi_S_minus_m": self.chi_s_minus_m,
            "chi_S_doubleprime": self.chi_double,
            "orientable": self.orientable,
            "boundary_words": [
                {
                    "vertex": r.vertex_class,
                    "word": str(r.word),
                    "base_word_index": r.base_word_index,
                    "exponent": r.exponent,
                }
                for r in self.boundary
            ],
            "positive_degrees": {str(j): d for j, d in sorted(self.positive_degrees.items())},
        }


def witness_hash(graph: WhiteheadGraph, witness: CycleList) -> str:
    blob = json.dumps(witness_to_json(graph, witness), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def surface_report(complex_: SurfaceComplex, word_list: WordList) -> SurfaceReport:
    """Certificate data for a built surface.

    Checks the boundary readings, requires the strict Euler inequality, and
    totals the positive degrees, each glued vertex counted for the word its
    link reads.
    """
    boundary = boundary_words(complex_, word_list)
    for r in boundary:
        if not r.ok:
            raise VerificationError(
                f"link of vertex {r.vertex_class} reads {r.word}, not a power of any input word"
            )
    chi = complex_.chi_minus_m()
    if chi >= 0:
        raise VerificationError(
            f"chi(S) - m = {chi} is not negative: the witness has no long cycle"
        )
    degrees: dict[int, int] = {}
    for r in boundary:
        degrees[r.base_word_index] = degrees.get(r.base_word_index, 0) + abs(r.exponent)
    return SurfaceReport(
        m=complex_.num_vertices,
        chi_s_minus_m=chi,
        chi_double=2 * chi,
        orientable=complex_.is_orientable(),
        boundary=tuple(boundary),
        positive_degrees=degrees,
        witness_hash=witness_hash(complex_.graph, complex_.witness),
    )
