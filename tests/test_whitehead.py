import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import polygonality as pg
from polygonality.errors import GraphError, PreconditionError
from polygonality.generators import random_fourvertex_instance, random_regular_instance
from polygonality.whitehead import (
    Dart,
    export_dot,
    graph_from_json,
    graph_to_json,
    vertex_from_name,
)

from conftest import vid, words_graph


def edge_multiset(graph):
    return Counter(tuple(sorted(v.name for v in e.ends)) for e in graph.edges.values())


def test_commutator_graph_is_four_cycle(commutator):
    assert edge_multiset(commutator) == Counter(
        {("a1", "a2-"): 1, ("a1", "a2"): 1, ("a1-", "a2"): 1, ("a1-", "a2-"): 1}
    )
    assert all(commutator.degree(v) == 2 for v in commutator.vertices())


def test_refutation_graph_multiplicities(refutation_graph):
    assert edge_multiset(refutation_graph) == Counter(
        {("a1", "a1-"): 1, ("a1", "a2"): 3, ("a1-", "a2-"): 3, ("a2", "a2-"): 2}
    )
    assert refutation_graph.degree(vid(1, 1)) == 4
    assert refutation_graph.degree(vid(2, 1)) == 5


def test_nonminimal_graph_multiplicities(nonminimal_graph):
    assert edge_multiset(nonminimal_graph) == Counter(
        {("a1", "a2-"): 3, ("a1-", "a2"): 3, ("a2", "a2-"): 3}
    )


def test_loops_rejected():
    # the subword aa would need a loop only if reduction were skipped; force one
    with pytest.raises(GraphError):
        pg.Multigraph(1, [pg.EdgeRecord(0, (vid(1, 1), vid(1, 1)))])


def test_connecting_map_position_rule(commutator):
    # the edge at position 0 (a,b^-1) maps at b^-1 to the position-1 edge at b
    e0, e1 = commutator.edges[0], commutator.edges[1]
    d = e0.dart_at(vid(2, -1))
    img = commutator.sigma[d]
    assert img.eid == e1.eid and commutator.dart_vertex(img) == vid(2, 1)


def test_connecting_map_figure_pattern():
    # b^-1 a b a^2: the map at a^-1 sends the corner edge of `ba` to that of `a a`
    graph = words_graph("rank 2\nBaba^2\n")
    # position 1 edge is (a, b^-1) from subword a b; at a^-1? use word positions:
    # letters: B a b a a -> edges: (B,A) (a,B) (b,A) (a,A) (a,b)
    by_prov = {e.provenance: e for e in graph.edges.values()}
    e = by_prov[(0, 3)]  # subword a a joining a and a^-1
    img = graph.sigma[e.dart_at(vid(1, -1))]
    assert img.eid == by_prov[(0, 4)].eid and graph.dart_vertex(img) == vid(1, 1)


def test_sigma_involution_law_on_examples(commutator, refutation_graph):
    for graph in (commutator, refutation_graph):
        for eid in graph.edges:
            for end in (0, 1):
                d = Dart(eid, end)
                assert graph.sigma[graph.sigma[d]] == d
                assert graph.dart_vertex(graph.sigma[d]) == graph.dart_vertex(d).mu()


def test_degrees_match_under_pairing(refutation_graph):
    for v in refutation_graph.vertices():
        assert refutation_graph.degree(v) == refutation_graph.degree(v.mu())


def test_edge_count_is_letter_count(refutation_graph):
    assert len(refutation_graph.edges) == 9


def test_local_connectivity_values(commutator, refutation_graph, nonminimal_graph):
    assert commutator.local_edge_connectivity(vid(1, 1), vid(1, -1)) == 2
    assert refutation_graph.local_edge_connectivity(vid(1, 1), vid(1, -1)) == 3
    assert nonminimal_graph.local_edge_connectivity(vid(2, 1), vid(2, -1)) == 3


def test_local_connectivity_requires_distinct(commutator):
    with pytest.raises(PreconditionError):
        commutator.local_edge_connectivity(vid(1, 1), vid(1, 1))


def test_analyze_nonminimal(nonminimal_graph):
    report = pg.analyze(nonminimal_graph)
    assert not report.minimal and not report.diskbusting
    rows = {v.name: (lam, deg) for v, lam, deg in report.per_vertex}
    assert rows["a2"] == (3, 6)


def test_analyze_polygonal(polygonal_graph):
    report = pg.analyze(polygonal_graph)
    assert report.minimal and report.diskbusting and report.connected


def test_analyze_commutator(commutator):
    report = pg.analyze(commutator)
    assert report.minimal and report.diskbusting and report.regular_k == 2


def test_analyze_absent_generator_disconnected():
    report = pg.analyze(words_graph("rank 2\na^2\n"))
    assert report.minimal and not report.connected and not report.diskbusting


@pytest.mark.parametrize("text", ["abAB", "aBa^2b", "a(aB)^3B^2", "abab^2ab^3"])
def test_connecting_maps_chain_around_every_cyclic_walk(text):
    # from the edge ending at x_1^-1, the map at x^-1 for each letter x of a
    # rotation steps to the next position and closes on the start edge
    wl = pg.parse_word_list(f"rank 2\n{text}\n")
    graph = pg.build_whitehead_graph(wl)
    by_prov = {e.provenance: e for e in graph.edges.values()}
    for w in wl.words:
        n = len(w)
        for rot in range(n):
            start = eid = by_prov[(w.index, (rot - 1) % n)].eid
            for t in range(n):
                x = w.letters[(rot + t) % n]
                eid = graph.sigma[graph.edges[eid].dart_at(vid(x.gen, -x.sign))].eid
                assert graph.edges[eid].provenance == (w.index, (rot + t) % n)
            assert eid == start


@given(st.integers(0, 40))
def test_sigma_involution_on_random_instances(seed):
    graph = random_fourvertex_instance(seed)
    for eid in graph.edges:
        for end in (0, 1):
            d = Dart(eid, end)
            assert graph.sigma[graph.sigma[d]] == d


def test_json_round_trip(refutation_graph):
    data = graph_to_json(refutation_graph)
    back = graph_from_json(data)
    assert graph_to_json(back) == data


@pytest.mark.parametrize("value", [0.7, "3", True, 1.0], ids=repr)
def test_json_rejects_non_int_edge_id(refutation_graph, value):
    data = graph_to_json(refutation_graph)
    data["edges"][0]["id"] = value
    with pytest.raises(GraphError, match="edge id .* is not an integer"):
        graph_from_json(data)


@pytest.mark.parametrize("value", [2.0, "2", True, 2.5], ids=repr)
def test_json_rejects_non_int_rank(refutation_graph, value):
    data = graph_to_json(refutation_graph)
    data["rank"] = value
    with pytest.raises(GraphError, match="rank .* is not an integer"):
        graph_from_json(data)


def test_json_bad_sigma_rejected(commutator):
    data = graph_to_json(commutator)
    keys = sorted(data["sigma"]["a1"])
    vals = [data["sigma"]["a1"][k] for k in keys]
    if len(vals) > 1:  # break the involution
        data["sigma"]["a1"][keys[0]], data["sigma"]["a1"][keys[1]] = vals[1], vals[0]
        with pytest.raises(GraphError):
            graph_from_json(data)


def _first_dart(data, vertex="a1"):
    return sorted(data["sigma"][vertex].items())[0]


def _noncanonical_vertex(data):
    data["edges"][0]["u"] = "a0" + data["edges"][0]["u"][1:]


def _leading_zero_dart(data):
    src, dst = _first_dart(data)
    del data["sigma"]["a1"][src]
    data["sigma"]["a1"]["0" + src] = dst


def _dart_under_other_vertex(data):
    src, dst = _first_dart(data)
    del data["sigma"]["a1"][src]
    data["sigma"]["a1-"][src] = dst


def _dart_listed_twice(data):
    src, dst = _first_dart(data)
    data["sigma"]["a1-"][src] = dst


def _unknown_top_level_key(data):
    data["comment"] = "extra"


def _unknown_edge_key(data):
    data["edges"][0]["weight"] = 1


def _sigma_table_not_an_object(data):
    data["sigma"]["a1"] = sorted(data["sigma"]["a1"].items())


STRICT_JSON_CASES = [
    (_noncanonical_vertex, "bad vertex name 'a01'"),
    (_leading_zero_dart, "bad dart name '00@a1'"),
    (_dart_under_other_vertex, "listed under a1-, not under its own vertex"),
    # a second listing is always under another vertex's table
    (_dart_listed_twice, "listed under a1-, not under its own vertex"),
    (_unknown_top_level_key, "a graph needs the keys"),
    (_unknown_edge_key, "an edge needs the keys"),
    (_sigma_table_not_an_object, "sigma table of a1 is not an object"),
]


@pytest.mark.parametrize(
    "corrupt, message", STRICT_JSON_CASES, ids=[c.__name__[1:] for c, _ in STRICT_JSON_CASES]
)
def test_json_is_strict(commutator, corrupt, message):
    data = graph_to_json(commutator)
    assert data["edges"][0]["u"] == "a1" and _first_dart(data)[0] == "0@a1"
    corrupt(data)
    with pytest.raises(GraphError, match=re.escape(message)):
        graph_from_json(data)


def test_dot_export_labels(refutation_graph):
    dot = export_dot(refutation_graph)
    assert '"a1" -- "a1-" [label="w0:p0"]' in dot
    assert dot.count(" -- ") == 9


def test_vertex_names_round_trip():
    for v in (vid(1, 1), vid(3, -1), vid(27, 1)):
        assert vertex_from_name(v.name) == v


def test_remove_edges_keeps_ids(refutation_graph):
    sub = refutation_graph.remove_edges([0, 5])
    assert sorted(sub.edges) == [1, 2, 3, 4, 6, 7, 8]
    assert sub.edges[3].ends == refutation_graph.edges[3].ends


def test_regular_instance_generator_properties():
    g = random_regular_instance(7, 3, 3)
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert all(
        g.local_edge_connectivity(v, v.mu()) == 3 for v in g.vertices() if v.sign > 0
    )
