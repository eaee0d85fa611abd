"""Seeded random instances for stress tests and the CLI ``gen`` command.

Instances are rejection-sampled until they are connected and the degree
pairing and the edge-connectivity condition (local connectivity between paired
vertices equals the degree) hold, then equipped with uniformly random connecting
maps satisfying the inverse-pair law.  Everything is reproducible from the seed.
"""

from __future__ import annotations

import random

from .errors import PreconditionError
from .whitehead import MAX_RANK, Multigraph, WhiteheadGraph, analyze
from .words import MAX_WORD_LENGTH

#: how many candidates each generator samples before it gives up
MAX_ATTEMPTS = 2000
#: how many stubs the regular generator shuffles over all its attempts, at
#: least one attempt's worth; it bounds the shuffles, not each attempt's check
MAX_STUBS = 4_000_000


def _check_edges(edges: int) -> None:
    """Refuse, before anything is built, more edges than the graph of a word
    list may have: it has one edge per letter."""
    if edges > MAX_WORD_LENGTH:
        raise PreconditionError(f"{edges} edges is over the cap of {MAX_WORD_LENGTH}")


def random_sigma(graph: Multigraph, rng: random.Random) -> dict[int, dict[int, int]]:
    """Connecting-map tables by vertex index: each positive vertex's edges,
    in id order, go to a shuffle of its pair's edges, and back."""
    sigma: dict[int, dict[int, int]] = {}
    for v in graph.vertices():
        if v.sign < 0:
            continue
        sources, targets = graph.delta(v), graph.delta(v.mu())
        rng.shuffle(targets)
        sigma[v.index] = dict(zip(sources, targets))
        sigma[v.index ^ 1] = dict(zip(targets, sources))
    return sigma


def random_regular_instance(seed: int, k: int, pairs: int) -> WhiteheadGraph:
    """Random connected k-regular graph on ``2 * pairs`` vertices meeting the connectivity bar."""
    if k < 2 or pairs < 1:
        raise PreconditionError("need k >= 2 and at least one vertex pair")
    if pairs > MAX_RANK:
        raise PreconditionError(f"rank {pairs} is over the cap of {MAX_RANK}")
    _check_edges(k * pairs)
    rng = random.Random(("regular", seed, k, pairs).__repr__())
    attempts = min(MAX_ATTEMPTS, max(1, MAX_STUBS // (2 * k * pairs)))
    for _ in range(attempts):
        stubs = [i for i in range(2 * pairs) for _ in range(k)]  # vertex indices
        rng.shuffle(stubs)
        mates = list(zip(stubs[0::2], stubs[1::2]))
        if any(a == b for a, b in mates):
            continue
        edges = list(enumerate(mates))
        plain = Multigraph(pairs, edges)
        if not plain.is_connected(ignore_isolated=True) or not analyze(plain).minimal:
            continue
        return WhiteheadGraph(pairs, edges, random_sigma(plain, rng))
    raise PreconditionError(
        f"no valid {k}-regular instance on {2 * pairs} vertices after {attempts} tries"
    )


def random_fourvertex_instance(seed: int, max_degree: int = 6) -> WhiteheadGraph:
    """Random connected 4-vertex instance with degrees at most ``max_degree``.

    Degree pairing forces the multiplicity between the positive pair to equal
    the one between the negative pair, and the two mixed multiplicities to
    match; the remaining freedom is sampled directly.  The degrees of the
    four vertices sum to at most ``4 * max_degree``, so there are at most
    ``2 * max_degree`` edges.
    """
    _check_edges(2 * max_degree)
    rng = random.Random(("fourvertex", seed, max_degree).__repr__())
    a, a_inv, b, b_inv = 0, 1, 2, 3  # vertex indices of a1, a1-, a2, a2-
    cap = max(1, max_degree // 2)
    for _ in range(MAX_ATTEMPTS):
        same = rng.randint(0, cap)  # a-b and a'-b' multiplicity
        cross = rng.randint(0, cap)  # a-b' and a'-b multiplicity
        loops_a = rng.randint(0, cap)  # a-a' multiplicity
        loops_b = rng.randint(0, cap)  # b-b' multiplicity
        deg_a = loops_a + same + cross
        deg_b = loops_b + same + cross
        if not (2 <= deg_a <= max_degree and 2 <= deg_b <= max_degree):
            continue
        if same + cross == 0:
            continue  # disconnected
        mates = (
            [(a, a_inv)] * loops_a
            + [(a, b)] * same
            + [(a, b_inv)] * cross
            + [(a_inv, b)] * cross
            + [(a_inv, b_inv)] * same
            + [(b, b_inv)] * loops_b
        )
        edges = list(enumerate(mates))
        plain = Multigraph(2, edges)
        if not analyze(plain).minimal:
            continue
        return WhiteheadGraph(2, edges, random_sigma(plain, rng))
    raise PreconditionError(
        f"no valid 4-vertex instance with degrees <= {max_degree} after {MAX_ATTEMPTS} tries"
    )
