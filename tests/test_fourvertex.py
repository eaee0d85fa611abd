import contextlib
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import sys
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polygonality as pg
from polygonality import cli, fourvertex, regular, simplex, witness
from polygonality.cli import _figure7_graph
from polygonality.errors import GraphError, PreconditionError, VerificationError
from polygonality.fourvertex import (
    AuxDigraph,
    Chain,
    GoodPart,
    build_auxiliary_digraph,
    decompose_good,
    part_completion,
    uniform_permutation,
)
from polygonality.generators import random_fourvertex_instance
from polygonality.whitehead import WhiteheadGraph, graph_to_json
from polygonality.witness import Infeasible, make_cycle

from conftest import (
    fourvertex_base_case,
    make_plain,
    oracle_inductive,
    oracle_pair_count,
    other_end,
    vid,
    words_graph,
)


# -- abstract digraph construction for the exhaustive corpus -------------------


def build_abstract(shapes):
    """shapes: list of ('path', n_nodes, start_color, end_color) or ('cycle', n_nodes).

    A component of n nodes is the chain of the next n / 2 edges.
    """
    chains, first = [], 0
    for shape in shapes:
        edges = tuple(range(first, first + shape[1] // 2))
        first += len(edges)
        chains.append(Chain(edges, shape[2] + shape[3] if shape[0] == "path" else None))
    return AuxDigraph(tuple(chains))


PATH_SHAPES = [
    ("path", n, s, e)
    for n in (2, 4, 6, 8)
    for s in ("R", "B")
    for e in ("R", "B")
]
CYCLE_SHAPES = [("cycle", n) for n in (2, 4, 6, 8)]
ALL_SHAPES = PATH_SHAPES + CYCLE_SHAPES


def all_good_digraphs(max_nodes=8):
    """Every good, balanced abstract digraph with 4..max_nodes nodes."""
    out = []
    for count in range(1, max_nodes // 2 + 1):
        for combo in itertools.combinations_with_replacement(ALL_SHAPES, count):
            total = sum(s[1] for s in combo)
            if not 4 <= total <= max_nodes:
                continue
            red_src = sum(1 for s in combo if s[0] == "path" and s[2] == "R")
            red_sink = sum(1 for s in combo if s[0] == "path" and s[3] == "R")
            if red_src != red_sink:
                continue
            D = build_abstract(list(combo))
            if D.is_good():
                out.append(D)
    return out


# -- independent shape predicates (test-side oracle) ---------------------------


def oracle_part_ok(comps):
    """Does this component set match ANY of the eight shapes, and is it good?"""
    nodes = 2 * sum(len(c.edges) for c in comps)
    ends = "".join(c.ends for c in comps if c.ends)  # only path ends are colored
    if 2 * ends.count("R") > nodes or 2 * ends.count("B") > nodes:
        return False
    paths = [c for c in comps if c.ends is not None]
    cycles = [c for c in comps if c.ends is None]
    short_p = [c for c in paths if len(c.edges) == 1]
    long_p = [c for c in paths if len(c.edges) >= 2]
    short_c = [c for c in cycles if len(c.edges) == 1]
    long_c = [c for c in cycles if len(c.edges) >= 2]
    classes = sorted(c.ends for c in paths)
    mono = [c for c in paths if c.ends in ("RR", "BB")]
    mono_short = [c for c in short_p if c.ends in ("RR", "BB")]

    def shorts_monochromatic(subset):
        return len({c.ends for c in subset}) <= 1

    # (1) short R-R + short B-B + optional short cycle
    if (
        sorted(c.ends for c in short_p) == ["BB", "RR"]
        and len(paths) == 2
        and not long_c
        and len(short_c) <= 1
    ):
        return True
    # (2) one monochromatic path + 1..2 short cycles
    if len(paths) == 1 and paths[0] in mono and not long_c and 1 <= len(short_c) <= 2:
        return True
    # (3) short cycle + B-R + R-B
    if classes == ["BR", "RB"] and len(paths) == 2 and len(short_c) == 1 and not long_c:
        return True
    # (4) >= 2 short cycles only
    if not paths and not long_c and len(short_c) >= 2:
        return True
    # (5) one long mono path + mono short paths
    if (
        not cycles
        and len(long_p) == 1
        and long_p[0] in mono
        and len(mono_short) == len(paths) - 1
        and shorts_monochromatic(mono_short)
    ):
        return True
    # (6) B-R + R-B + mono short paths
    mixed = [c for c in paths if c.ends in ("BR", "RB")]
    rest = [c for c in paths if c not in mixed]
    if (
        not cycles
        and sorted(c.ends for c in mixed) == ["BR", "RB"]
        and all(c in mono_short for c in rest)
        and shorts_monochromatic(rest)
    ):
        return True
    # (7) one long cycle + mono short paths
    if (
        len(long_c) == 1
        and not short_c
        and all(c in mono_short for c in paths)
        and shorts_monochromatic(paths)
    ):
        return True
    # (8) long cycle + short cycle
    if not paths and len(long_c) == 1 and len(short_c) == 1:
        return True
    return False


def oracle_partition_exists(D):
    comps = list(D.components)

    def rec(remaining):
        if not remaining:
            return True
        first, rest = remaining[0], remaining[1:]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(range(len(rest)), r):
                block = [first] + [rest[i] for i in extra]
                if oracle_part_ok(block):
                    left = [rest[i] for i in range(len(rest)) if i not in extra]
                    if rec(left):
                        return True
        return False

    return rec(comps)


# -- exhaustive decomposition vs oracle ----------------------------------------


def test_decompose_good_exhaustive_small():
    corpus = all_good_digraphs(8)
    assert len(corpus) == 85  # the complete catalog at this size
    for D in corpus:
        parts = decompose_good(D)
        covered = sorted(x for p in parts for c in p.components for x in c.edges)
        assert covered == sorted(x for c in D.components for x in c.edges)
        for part in parts:
            assert oracle_part_ok(list(part.components)), (
                part.type_tag,
                part.components,
            )
        assert oracle_partition_exists(D)


def _pi(cycles):
    """The permutation whose cycles are the given edge tuples."""
    return {x: y for cyc in cycles for x, y in zip(cyc, cyc[1:] + cyc[:1])}


def test_part_completions_uniform_on_exhaustive_corpus():
    for D in all_good_digraphs(8):
        for part in decompose_good(D):
            cycles, orbits, c = part_completion(part)
            assert c > 0 and orbits
            # the cycles induce a permutation of the part's edges
            pi = _pi(cycles)
            edges = sorted(x for cc in part.components for x in cc.edges)
            assert sorted(pi) == sorted(pi.values()) == edges
            # it keeps the digraph's arcs: each non-last chain edge goes to its
            # successor, and a cycle's last edge to its first
            for cc in part.components:
                tail = cc.edges[1:] + (cc.edges[:1] if cc.ends is None else ())
                assert all(pi[x] == y for x, y in zip(cc.edges, tail))
            # and joins each path's sink to a path's source of the same color
            sources = {cc.edges[0]: cc.ends[0] for cc in part.components if cc.ends}
            for cc in part.components:
                if cc.ends:
                    assert sources.get(pi[cc.edges[-1]]) == cc.ends[1]
            # each listed orbit is closed under pi, and covers the edges c times
            coverage = Counter()
            for orbit, n in orbits:
                for pair in orbit:
                    assert frozenset(pi[x] for x in pair) in orbit
                    coverage.update(dict.fromkeys(pair, n))
            assert coverage == dict.fromkeys(pi, c)
            # the one-orbit offset recipe never pairs two sinks of one color
            sink = {cc.edges[-1]: cc.ends[1] for cc in part.components if cc.ends}
            single_color = not {"R", "B"} <= set("".join(sink.values()))
            if part.type_tag == 6 or (part.type_tag == 5 and single_color):
                assert all(
                    {sink.get(x) for x in pair} not in ({"R"}, {"B"}) for pair in orbits[0][0]
                )


def test_decompose_rejects_bad_inputs():
    D = build_abstract([("path", 2, "R", "R")])  # 2 nodes, all red
    with pytest.raises(PreconditionError):
        decompose_good(D)
    big = build_abstract([("path", 2, "R", "R"), ("path", 2, "R", "R")])
    with pytest.raises(PreconditionError):
        decompose_good(big)  # four nodes but all red: not good
    with pytest.raises(GraphError, match="red sources and sinks differ"):
        build_abstract([("path", 2, "R", "B"), ("path", 2, "B", "B")])  # no B-R path


def test_completion_constants_for_small_shapes():
    # a pair of short cycles: unique completion, one orbit for each pair
    D = build_abstract([("cycle", 2), ("cycle", 2)])
    part = GoodPart(4, tuple(D.components))
    cycles, orbits, c = part_completion(part)
    assert cycles == [(0,), (1,)] and c == 1 and len(orbits) == 1
    # one-edge monochromatic path plus one short cycle: single star orbit
    D2 = build_abstract([("path", 2, "R", "R"), ("cycle", 2)])
    part2 = GoodPart(2, tuple(D2.components))
    cycles2, orbits2, c2 = part_completion(part2)
    assert cycles2 == [(0,), (1,)] and c2 == 1 and len(orbits2) == 1
    # three short paths closed into 2-cycles with a mono pair: c = k - 1
    D3 = build_abstract(
        [("path", 2, "R", "R"), ("path", 2, "B", "B"), ("cycle", 2)]
    )
    part3 = GoodPart(1, tuple(D3.components))
    _, orbits3, c3 = part_completion(part3)
    assert c3 == 2 and len(orbits3) == 3  # all pairs of the three fixed points


def test_a_long_cycle_with_one_short_path_per_edge_lists_no_empty_orbit():
    # three short paths fill a three-edge cycle: the offset orbit would count
    # M - k = 0 times, so only the three stars are listed, each twice
    D = build_abstract([("cycle", 6)] + [("path", 2, "R", "R")] * 3)
    parts = decompose_good(D)
    assert [(p.type_tag, len(p.components)) for p in parts] == [(7, 4)]
    _, orbits, c = part_completion(parts[0])
    assert c == 6 and [n for _, n in orbits] == [2, 2, 2]
    coverage = Counter()
    for orbit, n in orbits:
        for pair in orbit:
            coverage.update(dict.fromkeys(pair, n))
    assert coverage == dict.fromkeys(range(6), c)


def test_part_completion_rejects_the_gap_shape():
    # two short cycles around a path with more than one edge at w: the
    # decomposition never emits this shape (next test), so it has no recipe
    for path_nodes in (4, 6, 8):
        D = build_abstract(
            [("path", path_nodes, "R", "R"), ("cycle", 2), ("cycle", 2)]
        )
        part = GoodPart(2, tuple(D.components))
        with pytest.raises(VerificationError, match="one-edge path"):
            part_completion(part)


def test_decompose_never_emits_the_gap_shape():
    # the whole-digraph shape (2) bundles are built around a one-edge path,
    # so the uncovered recipe cannot be reached through the decomposition
    for D in all_good_digraphs(8):
        for part in decompose_good(D):
            if part.type_tag == 2:
                path = next(c for c in part.components if c.ends is not None)
                cycles = [c for c in part.components if c.ends is None]
                assert len(cycles) == 1 or len(path.edges) == 1


# -- graph-backed auxiliary digraphs -------------------------------------------


def _shapes(aux):
    """Each component as its kind, its node count and its end colors."""
    return sorted(
        ("path", 2 * len(c.edges), c.ends) if c.ends else ("cycle", 2 * len(c.edges), "")
        for c in aux.components
    )


def test_aux_digraph_commutator(commutator):
    aux = build_auxiliary_digraph(commutator, vid(1, 1))
    assert [s[:2] for s in _shapes(aux)] == [("path", 2), ("path", 2)]
    assert aux.color_count("R") == 2 and aux.color_count("B") == 2


def test_aux_digraph_all_pair_edges_gives_two_cycles():
    pairs = [(vid(1, 1), vid(1, -1))] * 2 + [(vid(2, 1), vid(2, -1))] * 2
    plain = make_plain(2, pairs)
    sigma = {i: {eid: eid for eid in plain.delta(v)} for i, v in enumerate(plain.vertices())}
    graph = WhiteheadGraph(2, list(plain.edges.items()), sigma)
    aux = build_auxiliary_digraph(graph, vid(1, 1))
    assert all(c.ends is None and len(c.edges) == 1 for c in aux.components)


def test_aux_digraph_figure_seven():
    graph = _figure7_graph()
    aux = build_auxiliary_digraph(graph, vid(1, 1))
    assert _shapes(aux) == [
        ("path", 2, "BB"),
        ("path", 2, "BR"),
        ("path", 2, "RR"),
        ("path", 2, "RR"),
        ("path", 6, "RB"),
    ]
    assert aux.color_count("R") == 6 and aux.color_count("B") == 4


def test_aux_digraph_rejects_low_degree():
    graph = words_graph("rank 2\nabb\n")  # a1 has one edge
    with pytest.raises(PreconditionError, match="minimum degree 1 < 2"):
        build_auxiliary_digraph(graph, vid(1, 1))


def test_long_cycle_with_short_cycle_part_from_graph():
    # three parallel edges between the w pair: fix one, swap two -> shapes (8)
    pairs = [(vid(1, 1), vid(1, -1))] * 3 + [(vid(2, 1), vid(2, -1))] * 2
    plain = make_plain(2, pairs)
    swap, flip = {0: 0, 1: 2, 2: 1}, {3: 3, 4: 4}
    graph = WhiteheadGraph(2, list(plain.edges.items()), {0: swap, 1: swap, 2: flip, 3: flip})
    aux = build_auxiliary_digraph(graph, vid(1, 1))
    parts = decompose_good(aux)
    assert [p.type_tag for p in parts] == [8]
    comp = uniform_permutation(aux, graph.sigma[vid(1, 1).index])
    assert comp.c == 4  # two copies of the star orbit, two of the offset orbit


def _min_degree_vertex(graph):
    """The vertex ``four_vertex_witness`` builds its auxiliary digraph at."""
    return min(graph.active_vertices(), key=lambda v: (graph.degree(v), (v.gen, v.sign < 0)))


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_uniform_permutation_is_good_and_uniform(seed):
    graph = random_fourvertex_instance(seed)
    w = _min_degree_vertex(graph)
    aux = build_auxiliary_digraph(graph, w)
    comp = uniform_permutation(aux, graph.sigma[w.index])
    assert sorted(comp.sigma_after_pi) == graph.delta(w)
    assert sorted(comp.sigma_after_pi.values()) == graph.delta(w.mu())
    for x, img in comp.sigma_after_pi.items():  # img is sigma_w(pi(x))
        if w.mu().index in graph.edges[x]:
            assert img == x  # an edge between the w pair is fixed
        elif img != x:
            assert not set(graph.edges[x]) & set(graph.edges[img])
    coverage = Counter()
    for pair, count in comp.orbit_pairs.items():
        for eid in pair:
            coverage[eid] += count
        x, y = (graph.edges[eid] for eid in pair)
        assert not set(x) & set(y) - {w.index, w.mu().index}
    assert coverage == dict.fromkeys(graph.delta(w), comp.c)


@given(st.integers(0, 400).map(random_fourvertex_instance))
@example(_figure7_graph())
@settings(max_examples=40, deadline=None)
def test_completion_hands_over_what_the_node_level_completion_induces(graph):
    # pi is read off every part's cycles, and each part's orbit counts are
    # scaled by c // c_part
    w = _min_degree_vertex(graph)
    aux = build_auxiliary_digraph(graph, w)
    comp = uniform_permutation(aux, graph.sigma[w.index])
    per_part = [part_completion(part) for part in decompose_good(aux)]
    pi = _pi([cyc for cycles, _, _ in per_part for cyc in cycles])
    assert sorted(pi) == sorted(pi.values()) == graph.delta(w)
    # on the nodes: pi(x) is y when the dart of x has an arc to the image of
    # y, sigma_w(y) = x; otherwise x is a sink, and the completion joins it
    # to a source, whose image leaves the w pair
    sigma_w = graph.sigma[w.index]
    arc = {x: y for y, x in sigma_w.items() if x in sigma_w}
    for x, y in pi.items():
        assert arc[x] == y if x in arc else sigma_w[y] not in sigma_w
    assert comp.sigma_after_pi == {x: sigma_w[pi[x]] for x in graph.delta(w)}
    c = math.lcm(*(c_part for _, _, c_part in per_part))
    orbit_list = [(o, n * (c // c_part)) for _, orbits, c_part in per_part for o, n in orbits]
    expected = Counter(pair for orbit, n in orbit_list for _ in range(n) for pair in orbit)
    assert comp.c == c
    assert list(comp.orbit_pairs.items()) == list(expected.items())


def test_completion_and_good_list_are_pinned():
    # sigma_w after pi, the orbit pairs in order, c and the good list, on
    # figure 7 and on 600 random graphs; at max degree 16 a chain has up to
    # seven edges
    graphs = [_figure7_graph()] + [
        random_fourvertex_instance(seed, d) for d in (6, 10, 16) for seed in range(200)
    ]
    digest = hashlib.sha256()
    for graph in graphs:
        w = _min_degree_vertex(graph)
        comp = uniform_permutation(build_auxiliary_digraph(graph, w), graph.sigma[w.index])
        good = pg.four_vertex_witness(graph)
        record = [
            sorted(comp.sigma_after_pi.items()),
            [[sorted(pair), n] for pair, n in comp.orbit_pairs.items()],
            comp.c,
            [[sorted(c), n] for c, n in good.cycles.items()],
            [good.c1, good.c2, list(good.constants_per_level)],
        ]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == (
        "b18ac27ad2c23148f62d6f85c78f115482756b8446cfff6ffe8b1b1cad7331d6"
    )


# -- the inductive construction ------------------------------------------------


def test_inductive_witness_hand_checked(polygonal_graph):
    good = pg.four_vertex_witness(polygonal_graph)
    shapes = sorted(tuple(sorted(c)) for c in good.cycles)
    assert shapes == [(0, 1, 3, 4), (0, 2, 4), (1, 2, 3)]
    assert good.c1 == 2 and good.c2 == 1
    levels = good.constants_per_level
    assert levels[0]["removed"] == 2 and levels[-1]["removed"] is None


def test_four_vertex_witness_commutator_base_case(commutator):
    good = pg.four_vertex_witness(commutator)
    assert len(good.cycles) == 1
    assert pg.verify_witness(commutator, good.cycles, require_long=True).ok


def test_four_vertex_witness_rejects_refutation_graph(refutation_graph):
    with pytest.raises(PreconditionError):
        pg.four_vertex_witness(refutation_graph)


def test_four_vertex_witness_figure_seven():
    graph = _figure7_graph()
    good = pg.four_vertex_witness(graph)
    verdict = pg.verify_witness(graph, good.cycles, require_long=True)
    assert verdict.ok
    usage = set(verdict.per_edge_usage.values())
    assert usage == {good.c1}
    # bookkeeping of the recursion: c1 = c * c2_inner * (a + b - 1) at the top
    top = good.constants_per_level[0]
    assert top["c1"] == good.c1


@given(st.integers(0, 400).map(random_fourvertex_instance))
@example(_figure7_graph())
@settings(max_examples=40, deadline=None)
def test_good_list_constants(graph):
    # every edge lies in c1 cycles, and every pair of distinct edges at the
    # opposite vertex pair in c2 cycles
    good = pg.four_vertex_witness(graph)
    for eid in graph.edges:
        assert sum(m for c, m in good.cycles.items() if eid in c) == good.c1
    walked = pg.verify_witness(graph, good.cycles).cycles  # the oracle counts cycles
    w = _min_degree_vertex(graph)
    for v in graph.active_vertices():
        if v in (w, w.mu()):
            continue
        for e, f in itertools.combinations(graph.delta(v), 2):
            assert oracle_pair_count(graph, walked, v, e, f) == good.c2


def test_peeling_does_not_deepen_the_stack():
    # ab^60AB^60 peels 118 edges between b and b^-1 before the graph is
    # regular; peeling once per stack frame would need over 60 frames more
    graph = words_graph("rank 2\nab^60AB^60\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        good = pg.four_vertex_witness(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert len(good.constants_per_level) == 119
    assert pg.verify_witness(graph, good.cycles, require_long=True).ok


def _assert_inductive_matches_the_level_by_level_loop(graph):
    with mock.patch.object(fourvertex, "inductive_witness", wraps=fourvertex.inductive_witness) as spy:
        good = pg.four_vertex_witness(graph)
    (g, w, u, completion), _ = spy.call_args
    levels = []
    cycles, c1, c2 = oracle_inductive(
        g, w, u, completion.orbit_pairs, completion.sigma_after_pi, completion.c, levels
    )
    assert list(good.cycles.items()) == list(cycles.items())  # insertion order too
    assert (good.c1, good.c2, good.constants_per_level) == (c1, c2, tuple(reversed(levels)))
    return good


@pytest.mark.parametrize(
    "graph",
    [
        words_graph("rank 2\nabAB\n"),
        words_graph("rank 2\naBa^2b\n"),
        _figure7_graph(),
        words_graph("rank 2\nab^12AB^12\n"),
    ],
    ids=["commutator", "remark-2.4b", "figure-7", "ab^12AB^12"],
)
def test_inductive_matches_the_level_by_level_loop_on_built_ins(graph):
    _assert_inductive_matches_the_level_by_level_loop(graph)


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_inductive_matches_the_level_by_level_loop_on_random_graphs(seed):
    _assert_inductive_matches_the_level_by_level_loop(random_fourvertex_instance(seed))


@st.composite
def rank2_words(draw):
    """A cyclically reduced rank-2 word of length 4-40 that uses both generators."""
    text = draw(st.sampled_from("abAB"))
    for _ in range(draw(st.integers(3, 39))):
        text += draw(st.sampled_from([x for x in "abAB" if x != text[-1].swapcase()]))
    assume(text[0] != text[-1].swapcase() and set(text.lower()) == {"a", "b"})
    return text


def diskbusting_graph(text):
    graph = words_graph(f"rank 2\n{text}\n")
    report = pg.analyze(graph)
    assume(report.minimal and report.connected)
    return graph


@given(rank2_words())
@example("abAB")
@example("ab^3AB^3")
@example("ab^7AB^7")
@example("ab^20AB^20")
@example("ab^40AB^40")
@settings(max_examples=60, deadline=None)
def test_theorem_one_end_to_end(text):
    # a minimal, connected rank-2 word has a verified list with a long cycle,
    # built by the combinatorial induction alone: no linear program, no
    # perfect matching enumeration
    graph = diskbusting_graph(text)
    with _lp_spies() as spies:
        good = pg.four_vertex_witness(graph)
    assert {name: spy.call_count for name, spy in spies.items()} == dict.fromkeys(spies, 0)
    assert pg.verify_witness(graph, good.cycles, require_long=True).ok


@contextlib.contextmanager
def _lp_spies():
    """Spies on every way into the simplex kernel and the matching enumeration."""
    targets = {
        "pivot": (simplex._Tableau, "pivot"),
        "maximize_homogeneous": (simplex, "maximize_homogeneous"),
        "regular.maximize_homogeneous": (regular, "maximize_homogeneous"),
        "witness.maximize_homogeneous": (witness, "maximize_homogeneous"),
        "enumerate_perfect_matchings": (regular, "enumerate_perfect_matchings"),
    }
    with contextlib.ExitStack() as stack:
        yield {
            name: stack.enter_context(
                mock.patch.object(owner, attr, autospec=True, side_effect=getattr(owner, attr))
            )
            for name, (owner, attr) in targets.items()
        }


def _seeded_diskbusting_word(seed, length):
    """The first minimal, connected rank-2 word of ``length`` letters drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        text = rng.choice("abAB")
        while len(text) < length:
            text += rng.choice([x for x in "abAB" if x != text[-1].swapcase()])
        if text[0] == text[-1].swapcase() or set(text.lower()) != {"a", "b"}:
            continue
        report = pg.analyze(words_graph(f"rank 2\n{text}\n"))
        if report.minimal and report.connected:
            return text


def test_a_long_word_is_witnessed_and_verified(tmp_path):
    # 192 letters: the base graph is 95-regular, and a coloring LP would have
    # to list its perfect matchings and pivot over them
    spec, out = tmp_path / "long.txt", tmp_path / "w.json"
    spec.write_text(f"rank 2\n{_seeded_diskbusting_word(1, 192)}\n", encoding="utf-8")
    with _lp_spies() as spies:
        assert cli.main(["witness", str(spec), "--require-long", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["method"] == "fourvertex"
    assert not any(spy.call_count for spy in spies.values())
    checked = tmp_path / "v.json"
    assert cli.main(["verify", str(spec), str(out), "--require-long", "--out", str(checked)]) == 0


@given(
    st.one_of(
        st.integers(0, 400).map(random_fourvertex_instance),
        rank2_words().map(diskbusting_graph),
    )
)
@example(_figure7_graph())
@settings(max_examples=60, deadline=None)
def test_the_closed_form_coloring_agrees_with_the_lp(graph):
    base = fourvertex_base_case(graph)
    w = _min_degree_vertex(graph)
    u, _ = fourvertex._other_pair(graph, w)
    k = base.degree(w)
    closed = fourvertex.base_witness(base, w, u)
    # k perfect matchings, each once, covering every edge exactly once
    entries = closed.coloring.entries
    assert (closed.coloring.k, closed.coloring.ell, len(entries)) == (k, k, k)
    assert all(n == 1 for _, n in entries)
    for m, _ in entries:
        assert sorted(i for eid in m for i in base.edges[eid]) == [0, 1, 2, 3]
    assert Counter(eid for m, _ in entries for eid in m) == dict.fromkeys(base.edges, 1)
    # the linear program on the same graph is the oracle
    lp = regular.regular_witness(base)
    assert (closed.coloring.ell, closed.m1, closed.m2) == (lp.coloring.ell, lp.m1, lp.m2)
    assert (closed.m1, closed.m2) == (k - 1, 1)
    assert sorted((len(c), n) for c, n in closed.cycles.items()) == sorted(
        (len(c), n) for c, n in lp.cycles.items()
    )
    # both are cycle lists of the base with m1 cycles through every edge and
    # m2 through every adjacent pair of distinct edges
    for rw in (closed, lp):
        walked = {make_cycle(base, eids): n for eids, n in rw.cycles.items()}
        for eid in base.edges:
            assert sum(n for c, n in walked.items() if eid in c.edges) == rw.m1
        for v in base.active_vertices():
            for e, f in itertools.combinations(base.delta(v), 2):
                assert oracle_pair_count(base, walked, v, e, f) == rw.m2
    # and either one, built back up, verifies on the input graph
    good = pg.four_vertex_witness(graph)
    with mock.patch.object(fourvertex, "base_witness", lambda g, w, u: regular.regular_witness(g)):
        via_lp = pg.four_vertex_witness(graph)
    for built in (good, via_lp):
        assert pg.verify_witness(graph, built.cycles, require_long=True).ok
    assert (good.c1, good.c2) == (via_lp.c1, via_lp.c2)


def test_the_base_coloring_rejects_unequal_sides():
    # a-a^-1 twice and b-b^-1 once: the two sides of one K4 matching differ
    a, ai, b, bi = vid(1, 1), vid(1, -1), vid(2, 1), vid(2, -1)
    graph = make_plain(2, [(a, ai), (a, ai), (b, bi), (a, b), (ai, bi), (a, bi), (ai, b)])
    assert (graph.degree(a), graph.degree(b)) == (4, 3)
    with pytest.raises(PreconditionError, match="not regular"):
        fourvertex.base_witness(graph, a, b)
    with pytest.raises(PreconditionError, match="degree > 1"):
        fourvertex.base_witness(make_plain(2, [(a, b), (ai, bi)]), a, b)


def _peel_checking_every_level(graph):
    """The peeling one edge at a time, each peeled graph checked in full."""
    w = _min_degree_vertex(graph)
    u, _ = fourvertex._other_pair(graph, w)
    fourvertex._check_level_preconditions(graph, w, u)
    uu = [eid for eid in graph.delta(u) if other_end(graph, eid, u) == u.mu()]
    assert len(uu) >= graph.degree(u) - graph.degree(w)  # an edge for every level
    g = graph
    while g.degree(u) != g.degree(w):
        uu_here = [eid for eid in g.delta(u) if other_end(g, eid, u) == u.mu()]
        assert uu_here == uu[len(graph.edges) - len(g.edges) :]
        g = g.remove_edges(uu_here[:1])
        fourvertex._check_level_preconditions(g, w, u)
        assert [g.edges[eid] for eid in g.delta(w)] == [graph.edges[eid] for eid in graph.delta(w)]


@given(
    st.one_of(
        st.integers(0, 400).map(random_fourvertex_instance),
        rank2_words().map(diskbusting_graph),
        st.integers(1, 30).map(lambda k: words_graph(f"rank 2\nab^{k}AB^{k}\n")),
    )
)
@example(_figure7_graph())
@settings(max_examples=80, deadline=None)
def test_peeling_keeps_the_hypothesis(graph):
    # the lemma that lets the construction check the input graph only
    _peel_checking_every_level(graph)


def _graph_file(graph):
    return json.dumps(graph_to_json(graph))


def _word_file(text):
    diskbusting_graph(text)  # the same assumption as the theorem (1) test
    return f"rank 2\n{text}\n"


@given(
    st.one_of(
        st.integers(0, 400).map(random_fourvertex_instance).map(_graph_file),
        rank2_words().map(_word_file),
    )
)
@example(_graph_file(_figure7_graph()))
@example("rank 2\nBabaaaabaB\n")  # the golden orbits.txt, gcd 8
@settings(max_examples=60, deadline=None)
def test_the_emitted_witness_is_the_construction_divided_by_its_gcd(text):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out, checked = (os.path.join(tmp, name) for name in ("input.txt", "w.json", "v.json"))
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["witness", spec, "--method", "fourvertex", "--require-long", "--out", out]
        assert cli.main(argv) == 0
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        assert cli.main(["verify", spec, out, "--require-long", "--out", checked]) == 0
        graph, _ = cli._resolve_graph(spec)
    emitted = {frozenset(c["edges"]): c["multiplicity"] for c in data["cycles"]}
    assert math.gcd(*emitted.values()) == 1
    good = pg.four_vertex_witness(graph)
    g = math.gcd(*good.cycles.values())
    assert {eids: g * m for eids, m in emitted.items()} == good.cycles
    assert (g * data["c1"], g * data["c2"]) == (good.c1, good.c2)
    for eid in graph.edges:
        assert sum(m for eids, m in emitted.items() if eid in eids) == data["c1"]


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_end_to_end_random(seed):
    graph = random_fourvertex_instance(seed)
    good = pg.four_vertex_witness(graph)
    verdict = pg.verify_witness(graph, good.cycles, require_long=True)
    assert verdict.ok
    assert len(set(verdict.per_edge_usage.values())) == 1
    lp = pg.search_witness_lp(graph, require_long=True)
    assert not isinstance(lp, Infeasible)


@pytest.mark.parametrize(
    "graph, repeats",
    [(_figure7_graph(), True), (words_graph("rank 2\naBa^2b\n"), False)],
    ids=["figure-7", "remark-2.4b"],
)
def test_four_vertex_witness_walks_no_cycle(graph, repeats, monkeypatch):
    # the construction hands over edge sets, and only the verifier walks them;
    # uniform_permutation weights an orbit pair above one on figure 7 only
    walks = Counter()
    walk = witness._walk

    def counted(*args):
        walks["_walk"] += 1
        return walk(*args)

    monkeypatch.setattr(witness, "_walk", counted)
    with mock.patch.object(fourvertex, "inductive_witness", wraps=fourvertex.inductive_witness) as spy:
        good = pg.four_vertex_witness(graph)
    assert not walks
    (_, _, _, completion), _ = spy.call_args
    assert (max(completion.orbit_pairs.values()) > 1) == repeats
    assert pg.verify_witness(graph, good.cycles).ok
    assert walks["_walk"] == len(good.cycles)
