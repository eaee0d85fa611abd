"""Seeded corpora for the three workloads.

Every input is made from the workload seed alone; the program under test
only ever sees the files written from these instances.  Routing filters use
the library's public analysis (outside any timed region) so that each
workload exercises the construction it is named for.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from checks import Graph, graph_of_json, graph_of_word

LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Instance:
    id: str
    filename: str
    text: str  # input file bytes, UTF-8
    graph: Graph  # independent tables for the certificate checks
    word: str | None  # the single input word, for surface checks
    require_long: bool
    surface: bool


def random_word(rng: random.Random, rank: int, length: int) -> str:
    """Cyclically reduced word using every generator, in the compact letter form."""
    while True:
        out = []
        for _ in range(length):
            while True:
                ch = LETTERS[rng.randrange(rank)]
                ch = ch if rng.random() < 0.5 else ch.upper()
                if not out or out[-1] != ch.swapcase():
                    break
            out.append(ch)
        if out[0] != out[-1].swapcase() and len({c.lower() for c in out}) == rank:
            return "".join(out)


def route(pg, graph) -> str:
    """The method ``--method auto`` is documented to pick, from the public analysis."""
    report = pg.whitehead.analyze(graph)
    active = graph.active_vertices()
    if (
        len(active) == 4
        and all(v.mu() in active for v in active)
        and graph.is_connected(ignore_isolated=True)
        and all(lam == deg for v, lam, deg in report.per_vertex if v in active)
    ):
        return "fourvertex"
    degrees = {graph.degree(v) for v in active}
    if len(degrees) == 1 and degrees.pop() > 1 and pg.regular.is_k_graph(graph).ok:
        return "regular"
    return "lp"


def _word_instances(pg, rng, prefix, rank, lengths, want, keep, require_long, surface):
    out = []
    for length, count in lengths:
        made = 0
        while made < count:
            word = random_word(rng, rank, length)
            graph = pg.whitehead.build_whitehead_graph(
                pg.words.parse_word_list(f"rank {rank}\n{word}\n")
            )
            if route(pg, graph) != want or not keep(pg, graph):
                continue
            iid = f"{prefix}-L{length}-{made:02d}"
            out.append(
                Instance(iid, iid + ".txt", f"rank {rank}\n{word}\n", graph_of_word(word),
                         word, require_long, surface)
            )
            made += 1
    return out


def _any(pg, graph) -> bool:
    return True


def _non_minimal(pg, graph) -> bool:
    return not pg.whitehead.analyze(graph).minimal


# Per-stratum counts.  The shares fall with the cost of a stratum so that one
# pass stays near a fixed wall time while every stratum is present; in
# ``lp-words`` the rank-3 length-12 stratum holds the median instance.
LP_RANK3 = ((12, 200), (13, 15), (14, 8), (15, 5), (16, 3), (17, 2), (18, 1))
LP_RANK2 = ((8, 20), (10, 20))
FOURVERTEX = tuple((length, 8) for length in range(16, 33))
# ((k, vertex pairs), count): one large middle class, (4, 5), holds the median.
REGULAR = (
    ((4, 3), 4), ((5, 3), 3), ((6, 3), 3), ((4, 4), 3), ((3, 5), 3),
    ((4, 5), 32),
    ((7, 3), 2), ((8, 3), 2), ((5, 4), 2), ((6, 4), 2), ((3, 6), 2), ((4, 6), 2),
    ((3, 7), 1), ((7, 4), 1),
    ((8, 4), 1), ((4, 7), 1), ((3, 8), 1), ((4, 8), 1),
)


def lp_words(pg, rng):
    return _word_instances(pg, rng, "r3", 3, LP_RANK3, "lp", _any, True, False) + \
        _word_instances(pg, rng, "r2nm", 2, LP_RANK2, "lp", _non_minimal, True, False)


def fourvertex_surface(pg, rng):
    return _word_instances(pg, rng, "r2", 2, FOURVERTEX, "fourvertex", _any, True, True)


def regular_graphs(pg, rng):
    out = []
    for (k, pairs), count in REGULAR:
        for i in range(count):
            graph = pg.generators.random_regular_instance(rng.randrange(2**31), k, pairs)
            while route(pg, graph) != "regular":
                graph = pg.generators.random_regular_instance(rng.randrange(2**31), k, pairs)
            data = pg.whitehead.graph_to_json(graph)
            iid = f"k{k}p{pairs}-{i:02d}"
            text = json.dumps(data, indent=2, sort_keys=True) + "\n"
            out.append(Instance(iid, iid + ".json", text, graph_of_json(data), None, False, False))
    return out


WORKLOADS = {
    "lp-words": lp_words,
    "fourvertex-surface": fourvertex_surface,
    "regular-graphs": regular_graphs,
}


def make_corpus(pg, workload: str, seed: int) -> list[Instance]:
    """The workload's instances for ``seed``, in a seeded processing order."""
    rng = random.Random(f"{workload}:{seed}")
    instances = WORKLOADS[workload](pg, rng)
    rng.shuffle(instances)
    return instances
