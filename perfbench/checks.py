"""Independent certificate checks, run outside the timed region.

Nothing here calls the library: graphs are rebuilt from the input word or
read from the input graph JSON, cycles are enumerated by a separate search,
and every certificate is checked from its JSON bytes alone.  A failed check
raises :class:`CertificateError`, which the benchmark treats as a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class CertificateError(Exception):
    """A certificate emitted by the program is wrong or malformed."""


def mu(v: str) -> str:
    """The paired vertex: ``a1`` <-> ``a1-``."""
    return v[:-1] if v.endswith("-") else v + "-"


@dataclass(frozen=True)
class Graph:
    """Edges as ``id -> (u, v)`` and the connecting maps as ``(vertex, edge) -> edge``."""

    edges: dict[int, tuple[str, str]]
    sigma: dict[tuple[str, int], int]

    def at(self, v: str) -> list[int]:
        return sorted(e for e, ends in self.edges.items() if v in ends)


def graph_of_word(word: str) -> Graph:
    """Whitehead graph of one cyclically reduced word in the compact letter form.

    Edge ``i`` joins ``x_i`` and ``x_{i+1}^-1``; at ``x_{i+1}^-1`` the
    connecting map sends edge ``i`` to edge ``i+1`` (and back).
    """

    def vertex(ch: str, inverse: bool = False) -> str:
        positive = ch.islower() != inverse
        return f"a{ord(ch.lower()) - ord('a') + 1}" + ("" if positive else "-")

    n = len(word)
    edges = {i: (vertex(word[i]), vertex(word[(i + 1) % n], inverse=True)) for i in range(n)}
    sigma = {}
    for i in range(n):
        j = (i + 1) % n
        sigma[(edges[i][1], i)] = j
        sigma[(edges[j][0], j)] = i
    return Graph(edges, sigma)


def graph_of_json(data: dict) -> Graph:
    """Graph from the ``{"rank", "edges", "sigma"}`` JSON the CLI reads."""
    edges = {int(e["id"]): (e["u"], e["v"]) for e in data["edges"]}
    sigma = {}
    for v, table in data["sigma"].items():
        for src, dst in table.items():
            e, at = src.split("@")
            f, there = dst.split("@")
            if at != v or there != mu(v):
                raise CertificateError(f"connecting map entry {src} -> {dst} is not at {v}")
            sigma[(v, int(e))] = int(f)
    return Graph(edges, sigma)


def cycle_pairs(graph: Graph, eids) -> dict[str, frozenset[int]]:
    """The two cycle edges at every vertex of a simple cycle; raises if not one."""
    eids = list(eids)
    if len(eids) < 2 or len(set(eids)) != len(eids):
        raise CertificateError(f"cycle {eids} needs at least two distinct edges")
    at: dict[str, list[int]] = {}
    for e in eids:
        if e not in graph.edges:
            raise CertificateError(f"cycle {eids} uses unknown edge {e}")
        for v in graph.edges[e]:
            at.setdefault(v, []).append(e)
    if any(len(es) != 2 for es in at.values()):
        raise CertificateError(f"cycle {eids} is not 2-regular")
    start = min(at)
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for e in at[v]:
            for w in graph.edges[e]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    if len(seen) != len(at):
        raise CertificateError(f"cycle {eids} is not connected")
    return {v: frozenset(es) for v, es in at.items()}


def _image(graph: Graph, v: str, pair: frozenset[int]) -> frozenset[int]:
    return frozenset(graph.sigma[(v, e)] for e in pair)


def _is_whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_witness(graph: Graph, data: dict, require_long: bool) -> None:
    """Balanced-pair condition of a witness JSON, recounted from scratch."""
    cycles = data.get("cycles")
    if not isinstance(cycles, list) or not cycles:
        raise CertificateError("witness has no cycles")
    counts: dict[tuple[str, frozenset[int]], int] = {}
    usage = {e: 0 for e in graph.edges}
    has_long = False
    for entry in cycles:
        mult, eids = entry.get("multiplicity"), entry.get("edges")
        if not _is_whole(mult) or mult <= 0:
            raise CertificateError(f"multiplicity {mult!r} is not a positive integer")
        if not isinstance(eids, list) or not all(_is_whole(e) for e in eids):
            raise CertificateError(f"cycle edges {eids!r} are not integers")
        for v, pair in cycle_pairs(graph, eids).items():
            counts[(v, pair)] = counts.get((v, pair), 0) + mult
        for e in eids:
            usage[e] += mult
        has_long = has_long or len(eids) >= 3
    for v in {v for ends in graph.edges.values() for v in ends}:
        delta = graph.at(v)
        for i, e in enumerate(delta):
            for f in delta[i + 1 :]:
                pair = frozenset((e, f))
                here = counts.get((v, pair), 0)
                there = counts.get((mu(v), _image(graph, v, pair)), 0)
                if here != there:
                    raise CertificateError(
                        f"pair {sorted(pair)} at {v} is covered {here} times, its image {there}"
                    )
    if require_long and not has_long:
        raise CertificateError("witness has no cycle of length at least three")
    if data.get("long_cycle_present") != has_long:
        raise CertificateError("long_cycle_present disagrees with the cycles")
    if data.get("per_edge_usage") != {str(e): n for e, n in sorted(usage.items())}:
        raise CertificateError("per_edge_usage disagrees with the cycles")


def enumerate_cycles(graph: Graph) -> list[frozenset[int]]:
    """Every simple cycle (bigons included) as an edge set, by depth-first search.

    A cycle is found from its least vertex, through vertices greater than it.
    """
    found: set[frozenset[int]] = set()
    incident = {}
    for e, (u, v) in graph.edges.items():
        incident.setdefault(u, []).append((e, v))
        incident.setdefault(v, []).append((e, u))
    order = {v: i for i, v in enumerate(sorted(incident))}

    def walk(start, v, used, visited):
        for e, w in incident[v]:
            if e in used:
                continue
            if w == start:
                if used:
                    found.add(frozenset(used) | {e})
            elif w not in visited and order[w] > order[start]:
                walk(start, w, used | {e}, visited | {w})

    for s in incident:
        walk(s, s, frozenset(), {s})
    return sorted(found, key=lambda c: (len(c), sorted(c)))


def check_refutation(
    graph: Graph, data: dict, require_long: bool, cycles: list[frozenset[int]]
) -> None:
    """A Farkas certificate proves that no witness exists.

    With dual ``y`` on the balance rows and normalization dual exactly 0,
    every cycle ``C`` must satisfy ``sum_rows y * row(C) >= obj(C)``, where
    ``obj(C)`` is 1 on cycles the objective counts (long ones when
    ``require_long``) and 0 elsewhere.  Then any balanced nonnegative
    combination of cycles has zero objective.
    """
    if data.get("infeasible") is not True or data.get("require_long") is not require_long:
        raise CertificateError("refutation does not refute the question asked")
    if not isinstance(data.get("normalization_dual"), str):
        raise CertificateError("normalization dual is missing")
    norm = Fraction(data["normalization_dual"])
    if norm != 0:
        raise CertificateError(f"normalization dual is {norm}, not exactly 0")
    rows: dict[tuple[str, frozenset[int]], Fraction] = {}
    for entry in data.get("farkas", []):
        v, pair, value = entry["vertex"], entry["pair"], entry["value"]
        key = (v, frozenset(pair))
        if len(key[1]) != 2 or not key[1] <= set(graph.at(v)) or key in rows:
            raise CertificateError(f"Farkas row {v} {pair} is not a pair at that vertex")
        rows[key] = Fraction(value)
    for cycle in cycles:
        pairs = cycle_pairs(graph, cycle)
        lhs = norm
        for (v, pair), y in rows.items():
            lhs += y * ((pairs.get(v) == pair) - (pairs.get(mu(v)) == _image(graph, v, pair)))
        objective = 1 if (len(cycle) >= 3 or not require_long) else 0
        if lhs < objective:
            raise CertificateError(f"Farkas values fail on cycle {sorted(cycle)}: {lhs} < {objective}")


def _power_of(reading: str, base: str, exponent: int) -> bool:
    if exponent < 0:
        base = base[::-1].swapcase()
    target = base * abs(exponent)
    return len(reading) == len(target) and reading in target + target


def check_surface(data: dict, words: list[str]) -> None:
    """Surface report: chi(S) - m < 0 and every boundary word a power of an input word."""
    chi = data.get("chi_S_minus_m")
    if not _is_whole(chi) or chi >= 0:
        raise CertificateError(f"chi(S) - m = {chi!r} is not negative")
    if data.get("chi_S_doubleprime") != 2 * chi:
        raise CertificateError("chi(S'') is not 2 (chi(S) - m)")
    boundary = data.get("boundary_words")
    if not boundary or data.get("m") != len(boundary):
        raise CertificateError("boundary word count differs from m")
    for reading in boundary:
        j, c = reading.get("base_word_index"), reading.get("exponent")
        if not _is_whole(j) or not 0 <= j < len(words) or not _is_whole(c) or c == 0:
            raise CertificateError(f"boundary word {reading.get('word')!r} is unmatched")
        if not _power_of(reading["word"], words[j], c):
            raise CertificateError(f"boundary word {reading['word']!r} is not word {j} ^ {c}")
