"""Glue a verified cycle list into a closed surface and certify it.

Every cycle copy becomes a polygon dual to the cycle: polygon sides
correspond to cycle vertices, polygon corners to cycle edges.  A side at
vertex ``v`` carries the label ``(generator(v), {cycle edges at v})``, a
transverse orientation (into the polygon exactly when ``v`` is a positive
generator), and an internal orientation induced by connecting-map-compatible
linear orders on the edges at each vertex, read from the graph's per-vertex
connecting-map tables.  Sides are glued in matching label classes; the
balanced-pair condition guarantees the classes pair up perfectly.  The glued
vertices are the orbits of one link walk around the corners, which also reads
each vertex's boundary word; those words must be powers of the input words,
and the face and edge counts decide the certificate inequality.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import NamedTuple

from .errors import PairingError, PreconditionError, VerificationError
from .whitehead import VertexId, WhiteheadGraph
from .witness import Cycle, CycleList, cycle_order, ordered_witness_json, verify_witness
from .words import MAX_WORD_LENGTH, WordList, match_power, word_text


def build_linear_orders(graph: WhiteheadGraph) -> list[dict[int, int]]:
    """Rank the edges at every vertex, compatibly with the connecting maps.

    ``rank[i][e]`` is the rank of edge ``e`` at the vertex of index ``i``; it
    equals the rank of the edge's connecting-map image, which is exactly the
    compatibility the side orientations need.  The free choice is made
    canonically, in edge-id order, at the positive vertex of each pair.
    """
    rank: list[dict[int, int]] = []
    for table in graph.sigma[0::2]:  # even indices are the positive generators
        rank.append({e: r for r, e in enumerate(table)})
        rank.append({img: r for r, img in enumerate(table.values())})
    return rank


class Side(NamedTuple):
    """One side of a polygon, found under the key ``(polygon, position)``."""

    vertex: VertexId
    incoming: bool
    tail_corner: int
    head_corner: int


class SurfaceComplex:
    """The glued closed surface with its counts and side pairing."""

    def __init__(
        self, graph: WhiteheadGraph, witness: CycleList, usage: dict[int, int], polygons, pairing
    ):
        self.graph = graph
        self.witness = witness  # the cycles in cycle_order, as build_surface lists them
        self.usage = usage  # per-edge usage of the witness, from its verdict
        # each polygon is its tuple of sides; a cycle's copies share one tuple
        self.polygons: tuple[tuple[Side, ...], ...] = polygons
        self.pairing: dict[tuple[int, int], tuple[int, int]] = pairing
        sides = {(p, t) for p, poly in enumerate(polygons) for t in range(len(poly))}
        if pairing.keys() != sides:
            raise PairingError("side pairing does not cover every side exactly once")
        if any(partner == key or pairing.get(partner) != key for key, partner in pairing.items()):
            raise PairingError("side pairing is not an involution without fixed sides")
        self.num_faces = len(polygons)
        self.num_edges = len(sides) // 2
        self._walk_links()
        self.num_vertices = len(self.vertex_classes)

    def side(self, key: tuple[int, int]) -> Side:
        return self.polygons[key[0]][key[1]]

    def _walk_links(self):
        """Find the glued vertices and read their links, in one walk each.

        Crossing a side leaves a corner and enters the partner's corner that
        meets the same end (head to head, tail to tail), then goes on through
        that corner's other flank.  A glued vertex is one orbit of this walk,
        started from its least corner; it reads the crossed sides' letters,
        the code ``2 * (g - 1)`` of generator ``g`` when the partner side is
        incoming and its inverse's code otherwise.
        """
        polygons, pairing = self.polygons, self.pairing
        total = len(pairing)
        seen: set[tuple[int, int]] = set()
        self.vertex_classes: list[list[tuple[int, int]]] = []
        self.links: list[tuple[int, ...]] = []
        for p, poly in enumerate(polygons):
            for t in range(len(poly)):
                if (p, t) in seen:
                    continue
                first = (p, t, (t + 1) % len(poly))
                q, u, s = first
                corners, letters = [], []
                while True:
                    corners.append((q, u))
                    side = polygons[q][s]
                    q, s = pairing[(q, s)]
                    pside = polygons[q][s]
                    letters.append(2 * (side.vertex.gen - 1) + (not pside.incoming))
                    if side.head_corner == u:
                        u = pside.head_corner
                    elif side.tail_corner == u:
                        u = pside.tail_corner
                    else:
                        raise VerificationError("crossed a side not flanking the current corner")
                    flanks = (u, (u + 1) % len(polygons[q]))
                    if s not in flanks:
                        raise VerificationError("pairing sent the link outside the corner's flanks")
                    s = flanks[1] if s == flanks[0] else flanks[0]
                    if (q, u, s) == first:
                        break
                    if len(corners) >= total:
                        raise VerificationError(
                            "link traversal does not close up (non-manifold gluing)"
                        )
                seen.update(corners)
                self.vertex_classes.append(sorted(corners))
                self.links.append(tuple(letters))

    def chi_minus_m(self) -> int:
        """chi(S) - m for the dual surface: equals -edges + faces of the complex."""
        return -self.num_edges + self.num_faces

    def is_orientable(self) -> bool:
        """2-color polygons so glued sides are traversed in opposite directions."""
        flip: dict[int, bool] = {}
        for start in range(len(self.polygons)):
            if start in flip:
                continue
            flip[start] = False
            stack = [start]
            while stack:
                p = stack.pop()
                for t in range(len(self.polygons[p])):
                    q, s = self.pairing[(p, t)]
                    fwd_here = self.polygons[p][t].head_corner == t
                    fwd_there = self.polygons[q][s].head_corner == s
                    need = flip[p] ^ (fwd_here == fwd_there)
                    if q not in flip:
                        flip[q] = need
                        stack.append(q)
                    elif flip[q] != need:
                        return False
        return True


def _build_polygon(
    graph, rank, cycle: Cycle
) -> tuple[tuple[Side, ...], list[tuple[int, int, int]]]:
    """The sides of a cycle's polygon, and the label key of each side.

    The key is ``(generator, e, f)`` with ``e < f``: the side's pair for an
    outgoing side and the connecting-map image of the pair for an incoming
    one, so glued sides share a key.
    """
    # every side shares the graph's one VertexId object of its vertex
    verts, sigma = graph.vertices(), graph.sigma
    eids = cycle.edges
    n = len(eids)
    sides, labels = [], []
    for t, (i, e, f) in enumerate(cycle.turns):
        corner_prev, corner_next = (t - 1) % n, t
        if rank[i][eids[t - 1]] < rank[i][eids[t]]:
            tail, head = corner_next, corner_prev
        else:
            tail, head = corner_prev, corner_next
        # even indices are the positive generators
        v, incoming = verts[i], i % 2 == 0
        sides.append(Side(v, incoming, tail, head))
        if incoming:
            e, f = sigma[i][e], sigma[i][f]
        labels.append((v.gen, e, f) if e < f else (v.gen, f, e))
    return tuple(sides), labels


def build_surface(graph: WhiteheadGraph, witness: Mapping[frozenset[int], int]) -> SurfaceComplex:
    """Construct the closed surface of a verified witness.

    ``witness`` maps edge-id sets to multiplicities, as :func:`verify_witness`
    reads it.  The polygons are the verifier's own walks of its cycles, so
    each cycle is walked once.  Builds each cycle's sides once, shared by
    its copies, orients sides by the canonical compatible edge orders, pairs
    incoming with outgoing sides whose label pairs correspond under the
    connecting maps.  A pairing mismatch is a hard error: the verified
    balance condition rules it out.  Every side is read once as a letter of a
    boundary word, so a list with more sides in all than
    :data:`~polygonality.words.MAX_WORD_LENGTH` is refused before any polygon
    is built.
    """
    verdict = verify_witness(graph, witness)
    if not verdict.ok:
        failed = "; ".join(
            f"{v.name} {list(pair)}: {a} against {b}" for v, pair, a, b in verdict.failures[:3]
        )
        raise PreconditionError(f"witness fails verification: {failed}")
    # sorted once: the polygons are built and the witness hashed in this order
    cycles = {c: verdict.cycles[c] for c in sorted(verdict.cycles, key=cycle_order)}
    sides = sum(len(cycle.edges) * n for cycle, n in cycles.items())
    if sides > MAX_WORD_LENGTH:
        raise PreconditionError(
            f"witness glues {sides} polygon sides, over the cap of {MAX_WORD_LENGTH}"
        )
    rank = build_linear_orders(graph)
    polygons: list[tuple[Side, ...]] = []
    incoming: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    outgoing: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for cycle in cycles:
        sides, labels = _build_polygon(graph, rank, cycle)
        for _ in range(cycles[cycle]):
            for t, (side, label) in enumerate(zip(sides, labels)):
                (incoming if side.incoming else outgoing).setdefault(label, []).append(
                    (len(polygons), t)
                )
            polygons.append(sides)
    if set(incoming) != set(outgoing):
        raise PairingError("incoming and outgoing side label classes differ")
    pairing: dict[tuple[int, int], tuple[int, int]] = {}
    for key in sorted(incoming):
        ins, outs = incoming[key], outgoing[key]  # each in (polygon, side) order
        if len(ins) != len(outs):
            raise PairingError(
                f"label class {key} has {len(ins)} incoming but {len(outs)} outgoing sides"
            )
        for a, b in zip(ins, outs):
            pairing[a] = b
            pairing[b] = a
    return SurfaceComplex(graph, cycles, verdict.per_edge_usage, tuple(polygons), pairing)


class BoundaryReading(NamedTuple):
    vertex_class: int
    word: tuple[int, ...]
    base_word_index: int | None
    exponent: int | None

    @property
    def ok(self) -> bool:
        return self.base_word_index is not None


def boundary_words(complex_: SurfaceComplex, word_list: WordList) -> list[BoundaryReading]:
    """Read the link of every glued vertex and match it against the input words.

    Each reading must be a nontrivial power of some input word, up to
    inversion and cyclic conjugation; the returned exponent is negative when
    the link reads the inverse word.
    """
    out = []
    for idx, letters in enumerate(complex_.links):
        base, exponent = None, None
        for j, w in enumerate(word_list.words):
            c = match_power(letters, w)
            if c is not None:
                base, exponent = j, c
                break
        out.append(BoundaryReading(idx, letters, base, exponent))
    return out


class SurfaceReport(NamedTuple):
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
                    "word": word_text(r.word),
                    "base_word_index": r.base_word_index,
                    "exponent": r.exponent,
                }
                for r in self.boundary
            ],
            "positive_degrees": {str(j): d for j, d in sorted(self.positive_degrees.items())},
        }


def witness_hash(graph: WhiteheadGraph, witness: CycleList, usage: dict[int, int]) -> str:
    """The witness JSON's hash; ``witness`` lists its cycles in :func:`cycle_order`."""
    blob = json.dumps(ordered_witness_json(graph, list(witness), witness, usage), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
                f"link of vertex {r.vertex_class} reads {word_text(r.word)}, "
                "not a power of any input word"
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
        witness_hash=witness_hash(complex_.graph, complex_.witness, complex_.usage),
    )
