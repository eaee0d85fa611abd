"""Glue a verified cycle list into a closed surface and certify it.

Every cycle copy becomes a polygon dual to the cycle, and the polygon is the
verifier's :class:`~polygonality.witness.Cycle` itself: side ``t`` is the
turn at ``verts[t]``, between corners ``t - 1`` and ``t``, and corner ``t``
is the edge ``edges[t]``.  Entry ``t`` of the cycle's LP column
(:func:`~polygonality.witness.balance_column`) gives the side's class; side 0
of a class glues to side 1, and the balanced-pair condition pairs them up.
The gluing is the connecting map too: crossing side ``t`` from the corner on
edge ``x`` enters the partner's corner on ``sigma[verts[t]][x]``.
The glued vertices are the orbits of one link walk around the corners, which
also reads each vertex's boundary word; those words must be powers of the
input words, and the face and edge counts decide the certificate inequality.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .errors import PairingError, PreconditionError, VerificationError
from .whitehead import WhiteheadGraph
from .witness import CycleList, Turn, balance_column, cycle_order, verify_witness, witness_hash
from .words import MAX_WORD_LENGTH, WordList, match_power, word_text


class SurfaceComplex:
    """The glued closed surface with its counts and side pairing."""

    def __init__(self, graph: WhiteheadGraph, witness: CycleList, usage: dict[int, int], pairing):
        self.graph = graph
        self.witness = witness  # the cycles in cycle_order, as build_surface lists them
        self.usage = usage  # per-edge usage of the witness, from its verdict
        # each polygon is its cycle, once per copy; a cycle's copies share the one object
        polygons = self.polygons = tuple(c for c, n in witness.items() for _ in range(n))
        self.pairing: dict[tuple[int, int], tuple[int, int]] = pairing
        # as many keys as sides, each key a side: then each side is a key once
        sizes = [len(poly.edges) for poly in polygons]
        if len(pairing) != sum(sizes):
            raise PairingError("side pairing does not cover every side exactly once")
        n = len(sizes)
        for key, partner in pairing.items():
            (p, t), (q, s) = key, partner
            if not (0 <= p < n and 0 <= t < sizes[p] and 0 <= q < n and 0 <= s < sizes[q]):
                raise PairingError("side pairing does not cover every side exactly once")
            if partner == key or pairing.get(partner) != key:
                raise PairingError("side pairing is not an involution without fixed sides")
            if polygons[p].verts[t] ^ 1 != polygons[q].verts[s]:
                raise PairingError(f"sides {key} and {partner} do not lie at paired vertices")
        self.num_faces = len(polygons)
        self.num_edges = len(pairing) // 2
        self._walk_links()
        self.num_vertices = len(self.vertex_classes)

    def _walk_links(self):
        """Find the glued vertices and read their links, in one walk each.

        Crossing side ``s`` from the corner on edge ``x`` enters the partner's
        corner on ``sigma[verts[s]][x]``, then goes on through that corner's
        other flank.  A glued vertex is one orbit of this walk, started from
        its least corner; it reads the crossed sides' letters, each the
        partner side's vertex index.
        """
        polygons, pairing, sigma = self.polygons, self.pairing, self.graph.sigma
        total = len(pairing)
        seen: set[tuple[int, int]] = set()
        self.vertex_classes: list[list[tuple[int, int]]] = []
        self.links: list[tuple[int, ...]] = []
        for p, poly in enumerate(polygons):
            for t in range(len(poly.edges)):
                if (p, t) in seen:
                    continue
                first = (p, t, (t + 1) % len(poly.edges))
                q, u, s = first
                corners, letters = [], []
                while True:
                    corners.append((q, u))
                    verts, edges = polygons[q]
                    x = sigma[verts[s]][edges[u]]
                    q, s = pairing[(q, s)]
                    verts, edges = polygons[q]
                    letters.append(verts[s])
                    if edges[s] == x:  # the partner's corner s, left by side s + 1
                        u, s = s, (s + 1) % len(edges)
                    elif edges[s - 1] == x:  # its corner s - 1, left by side s - 1
                        u = s = (s - 1) % len(edges)
                    else:
                        raise VerificationError("pairing sent the link outside the corner's flanks")
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
        """2-color polygons so glued sides are traversed in opposite directions.

        Glued sides ``(p, t)`` and ``(q, s)`` run the same way exactly when
        crossing from corner ``t`` enters corner ``s``.
        """
        polygons, sigma = self.polygons, self.graph.sigma
        flip: dict[int, bool] = {}
        for start in range(len(polygons)):
            if start in flip:
                continue
            flip[start] = False
            stack = [start]
            while stack:
                p = stack.pop()
                verts, edges = polygons[p]
                for t in range(len(edges)):
                    q, s = self.pairing[(p, t)]
                    need = flip[p] ^ (polygons[q].edges[s] == sigma[verts[t]][edges[t]])
                    if q not in flip:
                        flip[q] = need
                        stack.append(q)
                    elif flip[q] != need:
                        return False
        return True


def build_surface(graph: WhiteheadGraph, witness: Mapping[frozenset[int], int]) -> SurfaceComplex:
    """Construct the closed surface of a verified witness.

    ``witness`` maps edge-id sets to multiplicities, as :func:`verify_witness`
    reads it.  The polygons are the verifier's own walks of its cycles, so
    each cycle is walked once and its copies share it.  Each cycle's
    :func:`~polygonality.witness.balance_column` is read once, and side 0 of
    each class is paired with its side 1 in (polygon, side) order; the
    verified balance gives them equal numbers, since the tables of a vertex
    pair are inverse, and :class:`SurfaceComplex` refuses a side left unpaired.
    Every side is read once as a letter of a boundary word, so a list with
    more sides in all than
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
    classes: dict[Turn, tuple[list[tuple[int, int]], list[tuple[int, int]]]] = {}
    p = 0  # the polygons are the cycles' copies in this order, as SurfaceComplex lists them
    for cycle, copies in cycles.items():
        members = []  # for each side t, the list it joins: its class's side 0 or side 1
        for cls, side in balance_column(graph.sigma, cycle):
            by_side = classes.get(cls)
            if by_side is None:
                by_side = classes[cls] = ([], [])
            members.append(by_side[side])
        for _ in range(copies):
            for t, listed in enumerate(members):
                listed.append((p, t))
            p += 1
    pairing: dict[tuple[int, int], tuple[int, int]] = {}
    for ins, outs in classes.values():
        for a, b in zip(ins, outs):
            pairing[a] = b
            pairing[b] = a
    return SurfaceComplex(graph, cycles, verdict.per_edge_usage, pairing)


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
