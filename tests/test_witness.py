import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import polygonality as pg
from polygonality.errors import GraphError, PreconditionError, VerificationError
from polygonality.generators import random_fourvertex_instance, random_regular_instance
from polygonality.witness import (
    Infeasible,
    make_cycle,
    subdivide,
    witness_from_json,
    witness_to_json,
)

from conftest import (
    make_plain,
    oracle_all_cycles,
    oracle_bounded_witness_search,
    oracle_pair_count,
    vid,
    words_graph,
)


def test_enumerate_four_cycle(commutator):
    cycles = pg.enumerate_cycles(commutator)
    assert len(cycles) == 1 and cycles[0].edges == frozenset({0, 1, 2, 3})


def test_enumerate_bigon():
    graph = make_plain(1, [(vid(1, 1), vid(1, -1)), (vid(1, 1), vid(1, -1))])
    cycles = pg.enumerate_cycles(graph)
    assert len(cycles) == 1 and len(cycles[0]) == 2


def test_enumerate_against_subset_oracle(refutation_graph):
    ours = {c.edges for c in pg.enumerate_cycles(refutation_graph)}
    assert ours == oracle_all_cycles(refutation_graph)


@given(st.integers(0, 30))
@settings(max_examples=20, deadline=None)
def test_enumerate_against_oracle_random(seed):
    graph = random_fourvertex_instance(seed, max_degree=5)
    ours = {c.edges for c in pg.enumerate_cycles(graph)}
    assert ours == oracle_all_cycles(graph)


def test_make_cycle_rejects_non_cycles(commutator):
    with pytest.raises(GraphError):
        make_cycle(commutator, {0, 1})  # a path, not a cycle
    with pytest.raises(GraphError):
        make_cycle(commutator, {0})
    with pytest.raises(GraphError):
        make_cycle(commutator, {0, 99})


def test_verify_commutator_witness(commutator):
    cyc = make_cycle(commutator, {0, 1, 2, 3})
    verdict = pg.verify_witness(commutator, {cyc: 1}, require_long=True)
    assert verdict.ok and verdict.has_long_cycle
    assert verdict.per_edge_usage == {0: 1, 1: 1, 2: 1, 3: 1}


def test_verify_empty_list_rejected(commutator):
    with pytest.raises(PreconditionError):
        pg.verify_witness(commutator, {})


def test_verify_bigon_fails_on_refutation_graph(refutation_graph):
    # the two parallel edges between b and b^-1
    parallel = [
        eid
        for eid in refutation_graph.delta(vid(2, 1))
        if refutation_graph.edges[eid].other(vid(2, 1)) == vid(2, -1)
    ]
    bigon = make_cycle(refutation_graph, parallel)
    verdict = pg.verify_witness(refutation_graph, {bigon: 1})
    assert not verdict.ok and verdict.failures


def test_verify_ignores_forged_turns(refutation_graph):
    # without turns the bigon would count as balanced; the verifier re-walks it
    parallel = [
        eid
        for eid in refutation_graph.delta(vid(2, 1))
        if refutation_graph.edges[eid].other(vid(2, 1)) == vid(2, -1)
    ]
    forged = dataclasses.replace(make_cycle(refutation_graph, parallel), turns=())
    counts, _ = pg.pair_counts(refutation_graph, {forged: 1})
    assert counts == {}
    verdict = pg.verify_witness(refutation_graph, {forged: 1})
    assert not verdict.ok and verdict.failures


def test_verify_scaling_invariance(polygonal_graph):
    found = pg.search_witness_lp(polygonal_graph, require_long=True)
    assert not isinstance(found, Infeasible)
    for scale in (2, 5):
        scaled = {c: m * scale for c, m in found.items()}
        assert pg.verify_witness(polygonal_graph, scaled, require_long=True).ok


def assert_single_edge_balance(graph, verdict):
    for v in graph.active_vertices():
        for e in graph.delta(v):
            assert verdict.per_edge_usage[e] == verdict.per_edge_usage[graph.sigma_edge(v, e)]


def test_strict_pair_mode(commutator):
    cyc = make_cycle(commutator, {0, 1, 2, 3})
    verdict = pg.verify_witness(commutator, {cyc: 1})
    assert verdict.ok
    assert_single_edge_balance(commutator, verdict)


@given(st.integers(0, 60))
@settings(max_examples=25, deadline=None)
def test_strict_mode_follows_from_pair_balance(seed):
    # summing the pair balance at v over the partners f of e gives
    # usage(e) = usage(sigma e), so every verified witness balances single edges
    graph = random_fourvertex_instance(seed)
    found = pg.search_witness_lp(graph, require_long=True)
    if not isinstance(found, Infeasible):
        verdict = pg.verify_witness(graph, found)
        assert verdict.ok
        assert_single_edge_balance(graph, verdict)


def test_rank_three_pipeline():
    wl = pg.parse_word_list("rank 3\nabAB\nbcBC\n")
    graph = pg.build_whitehead_graph(wl)
    assert pg.analyze(graph).diskbusting
    found = pg.search_witness_lp(graph, require_long=True)
    assert not isinstance(found, Infeasible)
    assert pg.verify_witness(graph, found, require_long=True).ok


def test_search_lp_feasible_round_trip(polygonal_graph, commutator):
    for graph in (polygonal_graph, commutator):
        found = pg.search_witness_lp(graph, require_long=True)
        assert not isinstance(found, Infeasible)
        assert pg.verify_witness(graph, found, require_long=True).ok


def test_search_lp_refutes_example(refutation_graph):
    found = pg.search_witness_lp(refutation_graph, require_long=True)
    assert isinstance(found, Infeasible)
    assert found.certificate  # nontrivial rational multipliers
    data = found.to_json(refutation_graph)
    assert data["infeasible"] and data["farkas"]


def test_refutation_needs_zero_normalization_dual(refutation_graph, monkeypatch):
    # the real duals plus 1/2 on the normalization row still cover every
    # cycle, but then they only bound the optimum by 1/2 and refute nothing
    from polygonality import witness
    from polygonality.simplex import QQ

    solve = witness.maximize_homogeneous

    def positive_normalization_dual(A, c, **kwargs):
        res = solve(A, c, **kwargs)
        assert res.objective == 0 and res.duals[-1] == 0
        res.duals[-1] = QQ(1, 2)
        return res

    monkeypatch.setattr(witness, "maximize_homogeneous", positive_normalization_dual)
    with pytest.raises(VerificationError, match="normalization multiplier 1/2, not 0"):
        pg.search_witness_lp(refutation_graph, require_long=True)


def test_search_lp_agrees_with_bounded_search_small_graphs():
    # every loopless instance here has at most 6 edges; bound B = 3
    BOUND = 3
    cases = []
    # bigon with identity-style map
    bigon = make_plain(1, [(vid(1, 1), vid(1, -1))] * 2)
    sigma = {}
    for eid in bigon.edges:
        d0, d1 = pg.Dart(eid, 0), pg.Dart(eid, 1)
        sigma[d0], sigma[d1] = d1, d0
    cases.append(pg.WhiteheadGraph(1, list(bigon.edges.values()), sigma))
    cases.append(words_graph("rank 2\nabAB\n"))
    cases.append(words_graph("rank 2\naBa^2b\n"))
    cases.append(words_graph("rank 2\na^2b^2\n"))
    for seed in range(8):  # random connecting maps over small multigraphs
        cases.append(random_fourvertex_instance(seed, max_degree=3))
    print(f"bounded witness search uses multiplicities <= {BOUND}")
    for graph in cases:
        assert len(graph.edges) <= 6
        for require_long in (False, True):
            lp = pg.search_witness_lp(graph, require_long=require_long)
            brute = oracle_bounded_witness_search(graph, BOUND, require_long)
            if isinstance(lp, Infeasible):
                assert brute is None
            else:
                assert pg.verify_witness(graph, lp, require_long=require_long).ok
                assert brute is not None


def test_witness_json_round_trip(polygonal_graph):
    found = pg.search_witness_lp(polygonal_graph, require_long=True)
    data = witness_to_json(polygonal_graph, found)
    back = witness_from_json(polygonal_graph, data)
    assert back == found


def test_witness_json_rejects_repeated_edge_id(commutator):
    data = {"cycles": [{"edges": [0, 1, 2, 3, 3], "multiplicity": 1}]}
    with pytest.raises(GraphError, match="repeats an edge id"):
        witness_from_json(commutator, data)


@pytest.mark.parametrize("mult", [1.9, 1.0, True, "1", 0, -1, None])
def test_witness_json_rejects_non_positive_int_multiplicity(commutator, mult):
    data = {"cycles": [{"edges": [0, 1, 2, 3], "multiplicity": mult}]}
    with pytest.raises(GraphError, match="not a positive integer"):
        witness_from_json(commutator, data)


@pytest.mark.parametrize("eid", [1.0, True, "1", None], ids=repr)
def test_witness_json_rejects_non_int_edge_id(commutator, eid):
    data = {"cycles": [{"edges": [0, eid, 2, 3], "multiplicity": 1}]}
    with pytest.raises(GraphError, match="edge id .* is not an integer"):
        witness_from_json(commutator, data)


def test_witness_json_wrong_graph(polygonal_graph, commutator):
    found = pg.search_witness_lp(commutator, require_long=True)
    data = witness_to_json(commutator, found)
    with pytest.raises(VerificationError):
        witness_from_json(polygonal_graph, data)


# -- subdivision ---------------------------------------------------------------


def test_subdivide_identity(commutator):
    sub = subdivide(commutator, 1)
    assert sub.edge_count() == 4
    assert all(node in sub.mu for node in sub.nodes)


def test_subdivide_bigon():
    bigon = make_plain(1, [(vid(1, 1), vid(1, -1))] * 2)
    sub = subdivide(bigon, 2)
    assert sub.edge_count() == 4
    assert sub.mu[("s", 2, 1)] == ("s", 1, 1)
    assert sub.mu[("s", 1, 1)] == ("s", 2, 1)


def test_subdivide_edge_count(commutator):
    sub = subdivide(commutator, 4)
    assert sub.edge_count() == 16


def test_subdivide_involution_fixed_point_free(refutation_graph):
    sub = subdivide(refutation_graph, 9)
    assert sub.edge_count() == 81
    for node, img in sub.mu.items():
        assert img != node and sub.mu[img] == node


def test_subdivide_rejects_mismatched_extension(commutator):
    with pytest.raises(PreconditionError):
        subdivide(commutator, 3)
    plain = subdivide(commutator, 3, extend_involution=False)
    assert plain.edge_count() == 12


# -- cross-module invariants ----------------------------------------------------


@given(st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_lp_round_trip_random(seed):
    graph = random_fourvertex_instance(seed)
    found = pg.search_witness_lp(graph, require_long=True)
    if not isinstance(found, Infeasible):
        assert pg.verify_witness(graph, found, require_long=True).ok


def test_pair_count_table_matches_direct_recount(polygonal_graph):
    found = pg.search_witness_lp(polygonal_graph, require_long=True)
    verdict = pg.verify_witness(polygonal_graph, found)
    for v in polygonal_graph.active_vertices():
        for e, f in itertools.combinations(polygonal_graph.delta(v), 2):
            direct = sum(
                m for c, m in found.items() if e in c.edges and f in c.edges
            )
            img = frozenset(
                (polygonal_graph.sigma_edge(v, e), polygonal_graph.sigma_edge(v, f))
            )
            image_count = sum(
                m for c, m in found.items() if img <= c.edges
            )
            assert verdict.ok and direct == image_count


def _regular_case(seed):
    graph = random_regular_instance(seed, 3 + seed % 2, 2 + seed % 2)
    return graph, pg.regular_witness(graph).cycles


def _fourvertex_case(seed):
    graph = random_fourvertex_instance(seed, max_degree=5)
    return graph, pg.four_vertex_witness(graph).cycles


@given(st.integers(0, 300), st.sampled_from([_regular_case, _fourvertex_case]))
@settings(max_examples=30, deadline=None)
def test_pair_counts_match_brute_force_recount(seed, case):
    graph, cycles = case(seed)
    counts, usage = pg.pair_counts(graph, cycles)
    for v in graph.active_vertices():
        for e, f in itertools.combinations(graph.delta(v), 2):
            assert counts.get((v, frozenset((e, f))), 0) == oracle_pair_count(
                graph, cycles, v, e, f
            )
    assert all(len(pair) == 2 and pair <= set(graph.delta(v)) for v, pair in counts)
    assert usage == {
        eid: sum(m for c, m in cycles.items() if eid in c.edges) for eid in graph.edges
    }
