import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import polygonality as pg
from polygonality.errors import GraphError, PreconditionError
from polygonality.generators import random_fourvertex_instance, random_regular_instance, random_sigma
from polygonality.regular import (
    enumerate_perfect_matchings,
    fractional_edge_coloring,
    is_k_graph,
    regular_witness,
)
from polygonality.whitehead import WhiteheadGraph

from conftest import (
    fourvertex_base_case,
    make_plain,
    oracle_edge_coloring,
    oracle_pair_matchings,
    oracle_regular_cycles,
    vid,
)


def k4():
    vs = [vid(1, 1), vid(1, -1), vid(2, 1), vid(2, -1)]
    return make_plain(2, list(itertools.combinations(vs, 2)))


def triangle():
    vs = [vid(1, 1), vid(1, -1), vid(2, 1)]
    return make_plain(2, list(itertools.combinations(vs, 2)))


def bigon():
    return make_plain(1, [(vid(1, 1), vid(1, -1))] * 2)


def test_is_k_graph_four_cycle(commutator):
    verdict = is_k_graph(commutator)
    assert verdict.ok and verdict.k == 2


def test_is_k_graph_triangle():
    verdict = is_k_graph(triangle())
    assert not verdict.ok and len(verdict.violating_set) == 3


def test_is_k_graph_k4():
    verdict = is_k_graph(k4())
    assert verdict.ok and verdict.k == 3


def test_is_k_graph_rejects_irregular(nonminimal_graph):
    with pytest.raises(PreconditionError):
        is_k_graph(nonminimal_graph)


def test_matchings_four_cycle(commutator):
    ms = enumerate_perfect_matchings(commutator)
    assert len(ms) == 2
    assert {frozenset(m) for m in ms} == {frozenset({0, 2}), frozenset({1, 3})}


def test_matchings_triangle_and_k4():
    assert enumerate_perfect_matchings(triangle()) == []
    assert len(enumerate_perfect_matchings(k4())) == 3


def test_coloring_four_cycle(commutator):
    col = fractional_edge_coloring(commutator)
    assert col.ell == 2 and len(col.entries) == 2
    assert all(n == 1 for _, n in col.entries)


def test_coloring_bigon():
    col = fractional_edge_coloring(bigon())
    assert col.ell == 2
    assert sorted(sorted(m) for m, _ in col.entries) == [[0], [1]]


def test_coloring_k4():
    col = fractional_edge_coloring(k4())
    assert col.ell == 3 and len(col.entries) == 3


def test_coloring_requires_k_graph():
    with pytest.raises(GraphError):
        fractional_edge_coloring(triangle())


def test_regular_witness_four_cycle(commutator):
    rw = regular_witness(commutator)
    assert rw.m1 == 1 and rw.m2 == 1
    assert len(rw.cycles) == 1 and next(iter(rw.cycles.values())) == 1


def test_regular_witness_k4():
    rw = regular_witness(k4())
    assert rw.m1 == 2 and rw.m2 == 1
    assert sum(rw.cycles.values()) == 3
    assert all(len(c) == 4 for c in rw.cycles)


def test_regular_witness_bigon():
    rw = regular_witness(bigon())
    assert sum(rw.cycles.values()) == 1
    assert not any(len(c) >= 3 for c in rw.cycles)  # a lone bigon is permitted here


def _assert_matchings_match_the_oracle(graph):
    # the pair graph's matchings: the edge-level list filtered, in its order
    assert enumerate_perfect_matchings(graph) == oracle_pair_matchings(graph)


def test_matchings_match_the_oracle_on_small_graphs(commutator):
    for graph in (commutator, k4(), triangle(), bigon()):
        _assert_matchings_match_the_oracle(graph)


@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_matchings_match_the_oracle_on_random_regular_instances(seed, k, pairs):
    _assert_matchings_match_the_oracle(random_regular_instance(seed, k, pairs))


@given(st.integers(0, 400))
@settings(max_examples=20, deadline=None)
def test_matchings_match_the_oracle_on_fourvertex_base_cases(seed):
    _assert_matchings_match_the_oracle(fourvertex_base_case(random_fourvertex_instance(seed)))


def test_symmetric_difference_degree_property():
    graph = k4()
    ms = enumerate_perfect_matchings(graph)
    for a, b in itertools.combinations(ms, 2):
        diff = a ^ b
        deg = {}
        for eid in diff:
            for v in graph.edges[eid]:
                deg[v] = deg.get(v, 0) + 1
        assert all(d == 2 for d in deg.values())


@given(st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_count_constants_random(seed):
    k = [2, 3, 4][seed % 3]
    pairs = 1 + (seed // 3) % 4
    if 2 * pairs * k % 2:
        return
    graph = random_regular_instance(seed, k, pairs)
    # the generator enforces the connectivity bar, so the odd-cut bound follows
    assert is_k_graph(graph).ok
    rw = regular_witness(graph)
    ell, k = rw.coloring.ell, rw.coloring.k
    share = ell // k
    assert rw.m1 == share * (ell - share)
    assert rw.m2 == share * share
    assert pg.verify_witness(graph, rw.cycles).ok
    # adjacent non-parallel edges force a long cycle through them (m2 > 0)
    if graph.is_connected() and 2 * pairs >= 4:
        has_nonparallel_pair = any(
            frozenset(graph.edges[e]) != frozenset(graph.edges[f])
            for v in graph.active_vertices()
            for e, f in itertools.combinations(graph.delta(v), 2)
        )
        if has_nonparallel_pair:
            assert pg.verify_witness(graph, rw.cycles, require_long=True).ok


def test_verify_passes_with_long_requirement(polygonal_graph):
    # connected, four vertices, adjacent non-parallel edges force a long cycle
    sub = polygonal_graph.remove_edges([2])  # drop the a-a^-1 edge: 2-regular
    rw = regular_witness(sub)
    assert any(len(c) >= 3 for c in rw.cycles)


def random_regular_multigraph(seed: int, k: int, pairs: int) -> WhiteheadGraph:
    """A k-regular loopless graph on 2 * pairs vertices, with no connectivity
    filter, so some of them leave an odd set by fewer than k edges."""
    rng = random.Random(seed)
    verts = [vid(g, s) for g in range(1, pairs + 1) for s in (1, -1)]
    while True:
        stubs = [v for v in verts for _ in range(k)]
        rng.shuffle(stubs)
        mates = list(zip(stubs[0::2], stubs[1::2]))
        if all(a != b for a, b in mates):
            plain = make_plain(pairs, mates)
            return WhiteheadGraph(pairs, list(plain.edges.items()), random_sigma(plain, rng))


@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_regular_witness_succeeds_exactly_on_k_graphs(seed, k, pairs):
    # a feasible coloring is the only odd-cut check on success (Edmonds'
    # perfect matching polytope); on failure the exhaustive check names the set
    graph = random_regular_multigraph(seed, k, pairs)
    verdict = is_k_graph(graph)
    if verdict.ok:
        rw = regular_witness(graph)
        assert rw.coloring.k == k and pg.verify_witness(graph, rw.cycles).ok
    else:
        names = [v.name for v in verdict.violating_set]
        with pytest.raises(PreconditionError) as exc:
            regular_witness(graph)
        assert str(exc.value) == f"odd set {names} is left by fewer than {k} edges"


def test_random_regular_multigraphs_fail_the_odd_cut_bound_sometimes():
    verdicts = [
        is_k_graph(random_regular_multigraph(seed, k, pairs)).ok
        for seed in range(20)
        for k in (2, 3)
        for pairs in (2, 3)
    ]
    assert any(verdicts) and not all(verdicts)


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_expanded_coloring_covers_every_edge_equally(seed, k, pairs):
    # parallel edges included: each pair matching is handed out round-robin
    # over its pairs' edges, so every edge ends up in t = ell / k matchings
    graph = random_regular_multigraph(seed, k, pairs)
    try:
        col = fractional_edge_coloring(graph)
    except GraphError:
        assert not is_k_graph(graph).ok
        return
    active = graph.active_vertices()  # in index order
    usage = Counter()
    for m, n in col.entries:
        assert sorted(i for eid in m for i in graph.edges[eid]) == active
        for eid in m:
            usage[eid] += n
    t, rest = divmod(col.ell, k)
    assert col.k == k and rest == 0 and t > 0
    assert usage == {eid: t for eid in graph.edges}
    assert len({m for m, _ in col.entries}) == len(col.entries)  # equal copies merged


@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_pair_lp_verdict_matches_the_edge_lp(seed, k, pairs):
    graph = random_regular_multigraph(seed, k, pairs)
    expected = oracle_edge_coloring(graph)
    if expected is None:
        with pytest.raises(GraphError):
            fractional_edge_coloring(graph)
    else:
        assert fractional_edge_coloring(graph).ell > 0


def random_simple_regular_graph(seed: int, k: int, pairs: int):
    """A k-regular graph on 2 * pairs vertices with no parallel edges."""
    rng = random.Random(seed)
    verts = [vid(g, s) for g in range(1, pairs + 1) for s in (1, -1)]
    while True:
        stubs = [v for v in verts for _ in range(k)]
        rng.shuffle(stubs)
        mates = list(zip(stubs[0::2], stubs[1::2]))
        if all(a != b for a, b in mates) and len({frozenset(m) for m in mates}) == len(mates):
            return make_plain(pairs, mates)


def _assert_coloring_matches_the_edge_lp(graph):
    expected = oracle_edge_coloring(graph)
    if expected is None:
        with pytest.raises(GraphError):
            fractional_edge_coloring(graph)
    else:
        assert fractional_edge_coloring(graph) == expected


def test_coloring_matches_the_edge_lp_on_small_simple_graphs(commutator):
    for graph in (commutator, k4(), triangle()):
        _assert_coloring_matches_the_edge_lp(graph)


@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_coloring_matches_the_edge_lp_on_simple_graphs(seed, k, pairs):
    # with no parallel edges every pair is one edge: the same rows, pivots and coloring
    _assert_coloring_matches_the_edge_lp(random_simple_regular_graph(seed, min(k, 2 * pairs - 1), pairs))


@given(st.integers(0, 60))
@settings(max_examples=20, deadline=None)
def test_existence_implies_lp_feasibility(seed):
    from polygonality.witness import Infeasible

    k = (2, 3, 4)[seed % 3]
    graph = random_regular_instance(seed, k, 1 + seed % 3)
    regular_witness(graph)  # construction succeeds on every generated instance
    assert not isinstance(pg.search_witness_lp(graph, require_long=False), Infeasible)


def _assert_regular_cycles_match_the_slot_pair_loop(graph):
    rw = regular_witness(graph)
    expected = oracle_regular_cycles(graph, rw.coloring)
    assert rw.cycles == {frozenset(c.edges): n for c, n in expected.items()}
    return rw


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_regular_cycles_match_the_slot_pair_loop(seed):
    k = (2, 3, 4, 5)[seed % 4]
    pairs = 1 + (seed // 4) % 4
    _assert_regular_cycles_match_the_slot_pair_loop(random_regular_instance(seed, k, pairs))


def test_regular_cycles_match_the_slot_pair_loop_with_a_repeated_matching():
    rw = _assert_regular_cycles_match_the_slot_pair_loop(random_regular_instance(1774479979, 4, 6))
    assert max(n for _, n in rw.coloring.entries) == 2


@given(st.integers(0, 400))
@settings(max_examples=20, deadline=None)
def test_regular_cycles_match_the_slot_pair_loop_on_fourvertex_base_cases(seed):
    _assert_regular_cycles_match_the_slot_pair_loop(fourvertex_base_case(random_fourvertex_instance(seed)))
