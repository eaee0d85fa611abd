import hashlib
import itertools
import json
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polygonality as pg
from polygonality import generators
from polygonality.errors import GraphError, PreconditionError
from polygonality.generators import random_fourvertex_instance, random_regular_instance, random_sigma
from polygonality.whitehead import (
    Multigraph,
    WhiteheadGraph,
    export_dot,
    graph_from_json,
    graph_hash,
    graph_to_json,
    vertex_from_name,
)
from polygonality.words import make_word_list

from conftest import (
    edge_ends,
    make_plain,
    oracle_graph_to_json,
    oracle_min_cut,
    oracle_pair_table,
    vid,
    words_graph,
)


def edge_multiset(graph):
    return Counter(tuple(sorted(v.name for v in edge_ends(graph, e))) for e in graph.edges)


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
        pg.Multigraph(1, [(0, (0, 0))])


# rank 2 has the vertex indices 0..3; graph JSON reports sigma faults first,
# so only the library reaches these
INDEX_PAIR_FAULTS = {
    "repeated id": ([(0, (0, 2)), (0, (1, 3))], "duplicate edge id 0"),
    "loop": ([(0, (0, 2)), (1, (3, 3))], "edge 1 is a loop at a2-"),
    "end index 2 rank": (
        [(0, (0, 4))], "edge 0 end index 4 is outside range(4), the vertex indices of rank 2"
    ),
    "negative end index": (
        [(0, (-1, 0))], "edge 0 end index -1 is outside range(4), the vertex indices of rank 2"
    ),
}


@pytest.mark.parametrize("edges, message", INDEX_PAIR_FAULTS.values(), ids=INDEX_PAIR_FAULTS)
def test_constructor_rejects_a_faulty_index_pair(edges, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        Multigraph(2, edges)


# True and 1.0 compare equal to 1, so a check by value alone takes each for the id 1
NOT_INT_FAULTS = {
    "bool edge id": (
        1, [(True, (0, 1)), (2, (0, 1))], {0: {True: True, 2: 2}, 1: {True: True, 2: 2}},
        "edge id True is not an integer",
    ),
    "float edge id": (
        1, [(1.0, (0, 1)), (2, (0, 1))], {0: {1: 1, 2: 2}, 1: {1: 1, 2: 2}},
        "edge id 1.0 is not an integer",
    ),
    "bool image": (
        1, [(1, (0, 1)), (2, (0, 1))], {0: {1: True, 2: 2}, 1: {1: 1, 2: 2}},
        "sigma('1@a1') = edge True is not an integer",
    ),
    "float image": (
        1, [(1, (0, 1)), (2, (0, 1))], {0: {1: 1, 2: 2}, 1: {1: 1, 2: 2.0}},
        "sigma('2@a1-') = edge 2.0 is not an integer",
    ),
    "bool rank": (True, [], {}, "rank True is not an integer"),
}


@pytest.mark.parametrize("rank, edges, sigma, message", NOT_INT_FAULTS.values(), ids=NOT_INT_FAULTS)
def test_constructor_refuses_an_id_or_rank_that_is_not_an_int(rank, edges, sigma, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        WhiteheadGraph(rank, edges, sigma)


def test_connecting_map_position_rule(commutator):
    # the edge at position 0 (a,b^-1) maps at b^-1 to the position-1 edge at b
    img = commutator.sigma[vid(2, -1)][0]
    assert img == 1 and vid(2, 1) in edge_ends(commutator, 1)


def test_connecting_map_figure_pattern():
    # b^-1 a b a^2: the map at a^-1 sends the corner edge of `ba` to that of `a a`
    graph = words_graph("rank 2\nBaba^2\n")
    # edge i is the subword at position i of the one word:
    # letters: B a b a a -> edges: (B,A) (a,B) (b,A) (a,A) (a,b)
    assert edge_ends(graph, 3) == (vid(1, 1), vid(1, -1))  # subword a a
    img = graph.sigma[vid(1, -1)][3]
    assert img == 4 and vid(1, 1) in edge_ends(graph, img)


def assert_inverse_pair_law(graph):
    """Each table holds its vertex's edges, sends them to edges at the
    paired vertex, and is inverse to the paired vertex's table."""
    for v in graph.vertices():
        table = graph.sigma[v]
        assert sorted(table) == sorted(eid for eid in graph.edges if v in edge_ends(graph, eid))
        for eid, img in table.items():
            assert v.mu() in edge_ends(graph, img)
            assert graph.sigma[v.mu()][img] == eid


def test_sigma_involution_law_on_examples(commutator, refutation_graph):
    for graph in (commutator, refutation_graph):
        assert_inverse_pair_law(graph)


def test_degrees_match_under_pairing(refutation_graph):
    for v in refutation_graph.vertices():
        assert refutation_graph.degree(v) == refutation_graph.degree(v.mu())


def test_edge_count_is_letter_count(refutation_graph):
    assert len(refutation_graph.edges) == 9


def test_local_connectivity_values(commutator, refutation_graph, nonminimal_graph):
    assert commutator.local_edge_connectivity(vid(1, 1), vid(1, -1)) == 2
    assert refutation_graph.local_edge_connectivity(vid(1, 1), vid(1, -1)) == 3
    assert nonminimal_graph.local_edge_connectivity(vid(2, 1), vid(2, -1)) == 3


@st.composite
def loopless_multigraphs(draw):
    """Up to rank 5, with up to 30 parallel edges to a vertex pair in shuffled
    ids, isolated vertices and gaps in the ids."""
    rank = draw(st.integers(1, 5))
    verts = [vid(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    bond = st.tuples(st.sampled_from(list(itertools.combinations(verts, 2))), st.integers(1, 30))
    bonds = draw(st.lists(bond, max_size=12))
    pairs = draw(st.permutations([p for p, m in bonds for _ in range(m)]))
    return make_plain(rank, pairs).remove_edges(draw(st.sets(st.integers(0, len(pairs)))))


def assert_pair_table(graph):
    assert list(graph.pairs.items()) == list(oracle_pair_table(graph).items())


# between a2- and a1 the search cancels its first path on one edge and later
# needs that edge again: an augmenting step that does not restore the reverse
# arc finds two paths here, not three
EDGE_REUSED_AFTER_CANCELLING = make_plain(
    4,
    [
        (vid(4, 1), vid(3, -1)), (vid(3, 1), vid(1, 1)), (vid(3, -1), vid(1, 1)),
        (vid(2, -1), vid(4, 1)), (vid(2, 1), vid(3, -1)), (vid(2, -1), vid(2, 1)),
        (vid(1, -1), vid(3, -1)), (vid(4, 1), vid(4, -1)), (vid(4, 1), vid(3, 1)),
        (vid(4, -1), vid(1, 1)), (vid(2, -1), vid(1, -1)),
    ],
)


@settings(max_examples=150, deadline=None)
@given(loopless_multigraphs())
@example(EDGE_REUSED_AFTER_CANCELLING)
def test_local_connectivity_is_the_min_cut(graph):
    for x, y in itertools.permutations(graph.vertices(), 2):
        assert graph.local_edge_connectivity(x, y) == oracle_min_cut(graph, x, y)
    assert_pair_table(graph)
    assert_pair_table(graph.remove_edges(sorted(graph.edges)[::2]))


@st.composite
def repeated_word_lists(draw):
    """A list of rank 2 to 4 in which at least one word is repeated."""
    rank = draw(st.integers(2, 4))
    words = []
    for _ in range(draw(st.integers(1, 3))):
        word = [draw(st.integers(0, 2 * rank - 1))]
        for _ in range(draw(st.integers(0, 11))):
            word.append(draw(st.sampled_from([c for c in range(2 * rank) if c != word[-1] ^ 1])))
        assume(len(word) == 1 or word[0] != word[-1] ^ 1)
        words.append(tuple(word))
    words += draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
    return make_word_list(rank, draw(st.permutations(words)))


@settings(max_examples=60, deadline=None)
@given(repeated_word_lists(), st.data())
def test_analyze_on_repeated_words_is_the_min_cut(word_list, data):
    graph = pg.build_whitehead_graph(word_list)
    for v, lam, _ in pg.analyze(graph).per_vertex:
        assert lam == oracle_min_cut(graph, v, v.mu())
    assert_pair_table(graph)
    assert_pair_table(graph.remove_edges(data.draw(st.sets(st.sampled_from(sorted(graph.edges))))))
    assert_pair_table(graph_from_json(graph_to_json(graph)))


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


@pytest.mark.parametrize("text", ["abAB", "aBa^2b", "a(aB)^3B^2", "abab^2ab^3", "abAB\naBa^2b"])
def test_connecting_maps_chain_around_every_cyclic_walk(text):
    # from the edge ending at x_1^-1, the map at x^-1 for each letter x of a
    # rotation steps to the next position and closes on the start edge
    wl = pg.parse_word_list(f"rank 2\n{text}\n")
    graph = pg.build_whitehead_graph(wl)
    # edges are numbered by subword in list order: a word's position i is
    # edge i after the edges of the words before it
    first = 0
    for w in wl.words:
        n = len(w)
        for rot in range(n):
            start = eid = first + (rot - 1) % n
            for t in range(n):
                x = w[(rot + t) % n]
                eid = graph.sigma[x ^ 1][eid]  # the code of x^-1 is its vertex index
                assert eid == first + (rot + t) % n
            assert eid == start
        first += n
    assert sorted(graph.edges) == list(range(first))


@given(st.integers(0, 40))
def test_sigma_involution_on_random_instances(seed):
    assert_inverse_pair_law(random_fourvertex_instance(seed))


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


def _negative_edge_id(data):
    """Edge 0 renumbered -1, in the edge list and in every dart name."""
    data["edges"][0]["id"] = -1

    def rename(name):
        return "-1" + name[1:] if name.startswith("0@") else name

    data["sigma"] = {
        v: {rename(src): rename(dst) for src, dst in table.items()}
        for v, table in data["sigma"].items()
    }


def _unknown_top_level_key(data):
    data["comment"] = "extra"


def _unknown_edge_key(data):
    data["edges"][0]["weight"] = 1


def _sigma_table_not_an_object(data):
    data["sigma"]["a1"] = sorted(data["sigma"]["a1"].items())


def _image_named_at_its_other_end(data):
    """The image of 0@a1 is edge 3, which joins a1- and a2-: named at a2-."""
    assert data["sigma"]["a1"]["0@a1"] == "3@a1-"
    data["sigma"]["a1"]["0@a1"] = "3@a2-"


def _empty_table_beyond_the_rank(data):
    data["sigma"]["a9"] = {}


def _empty_table_of_an_isolated_vertex(data):
    data["rank"] = 3
    data["sigma"]["a3"] = {}


STRICT_JSON_CASES = [
    (_noncanonical_vertex, "bad vertex name 'a01'"),
    (_leading_zero_dart, "bad dart name '00@a1'"),
    (_dart_under_other_vertex, "listed under a1-, not under its own vertex"),
    # a second listing is always under another vertex's table
    (_dart_listed_twice, "listed under a1-, not under its own vertex"),
    # a canonical dart name has no sign, so the edge's darts cannot be named
    (_negative_edge_id, "bad dart name '-1@a1'"),
    (_unknown_top_level_key, "a graph needs the keys"),
    (_unknown_edge_key, "an edge needs the keys"),
    (_sigma_table_not_an_object, "sigma table of a1 is not an object"),
    (
        _image_named_at_its_other_end,
        "sigma('0@a1') = '3@a2-' does not land at the paired vertex a1-",
    ),
    # graph_to_json writes no empty table, so reading one would hash a file it never wrote
    (_empty_table_beyond_the_rank, "malformed graph JSON: sigma table of a9 is empty"),
    (_empty_table_of_an_isolated_vertex, "malformed graph JSON: sigma table of a3 is empty"),
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


def _missing_edge(sigma):
    del sigma[0][1]


def _extra_edge(sigma):
    sigma[0][2] = 2


def _image_not_at_the_paired_vertex(sigma):
    sigma[0][0] = 0


def _broken_inverse_pair(sigma):
    sigma[0][0], sigma[0][1] = sigma[0][1], sigma[0][0]


def _table_beyond_the_rank(sigma):
    sigma[4] = {}


# the commutator's tables by vertex index: edges 0 and 1 are at a1, 2 and 3 at a1-
SIGMA_FAULTS = [
    (_missing_edge, "connecting map at a1 not total: missing=['1@a1'] extra=[]"),
    (_extra_edge, "connecting map at a1 not total: missing=[] extra=['2@a1']"),
    (
        _image_not_at_the_paired_vertex,
        "sigma('0@a1') = edge 0, which is not at the paired vertex a1-",
    ),
    (_broken_inverse_pair, "inverse-pair law broken at dart '0@a1'"),
    (_table_beyond_the_rank, "connecting map has tables at indices [4], beyond rank 2"),
]


@pytest.mark.parametrize(
    "corrupt, message", SIGMA_FAULTS, ids=[c.__name__[1:] for c, _ in SIGMA_FAULTS]
)
def test_constructor_rejects_a_faulty_connecting_map(commutator, corrupt, message):
    sigma = {i: dict(table) for i, table in enumerate(commutator.sigma)}
    assert sorted(sigma[0]) == [0, 1] and sorted(sigma[1]) == [2, 3]
    WhiteheadGraph(2, commutator.edges.items(), sigma)
    corrupt(sigma)
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        WhiteheadGraph(2, commutator.edges.items(), sigma)


@st.composite
def whitehead_graphs(draw):
    """Up to rank 4, with parallel edges, isolated vertices and multi-digit,
    gapped edge ids.  Every drawn edge comes with its mirror image under mu,
    so each vertex has the degree of its pair and a connecting map exists."""
    rank = draw(st.integers(1, 4))
    verts = [vid(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(verts, 2))), max_size=8))
    ends = [e for x, y in pairs for e in ((x, y), (x.mu(), y.mu()))]
    eids = draw(st.lists(st.integers(0, 120), min_size=len(ends), max_size=len(ends), unique=True))
    edges = list(zip(eids, ends))
    return WhiteheadGraph(rank, edges, random_sigma(Multigraph(rank, edges), draw(st.randoms())))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        whitehead_graphs(),
        st.builds(random_regular_instance, st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 5)),
    )
)
def test_json_round_trip_on_random_graphs(graph):
    # through JSON text, as a graph file is read: the same edge ends, and the
    # same connecting-map tables in the same order
    back = graph_from_json(json.loads(json.dumps(graph_to_json(graph), indent=2, sort_keys=True)))
    assert back.rank == graph.rank and back.edges == graph.edges
    assert [list(t.items()) for t in back.sigma] == [list(t.items()) for t in graph.sigma]
    assert graph_hash(back) == graph_hash(graph)


def negative_ids(graph):
    """The same graph and connecting map with every edge id ``e`` made ``-1 - e``."""
    edges = [(-1 - eid, ends) for eid, ends in graph.edges.items()]
    sigma = {i: {-1 - e: -1 - img for e, img in t.items()} for i, t in enumerate(graph.sigma)}
    return WhiteheadGraph(graph.rank, edges, sigma)


@settings(max_examples=150, deadline=None)
@given(whitehead_graphs(), st.booleans())
def test_graph_json_matches_the_vertex_walk(graph, negate):
    graph = negative_ids(graph) if negate else graph
    data, expected = graph_to_json(graph), oracle_graph_to_json(graph)
    # equal with the same key order, so every dump of it is the same bytes
    assert json.dumps(data) == json.dumps(expected)
    blob = json.dumps(expected, sort_keys=True).encode()
    assert graph_hash(graph) == hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize(
    "text",
    [
        "rank 2\nabAB",
        "rank 2\naBa^2b\nab",
        "rank 3\nabcABCacbACB",
        "rank 4\nabcd\nDCdd",
        "rank 12\nabcdefghijkl\nLaKbJc",  # a10 sorts before a2 as a name
    ],
)
def test_graph_json_of_word_lists_matches_the_vertex_walk(text):
    graph = words_graph(text)
    expected = oracle_graph_to_json(graph)
    assert json.dumps(graph_to_json(graph)) == json.dumps(expected)
    blob = json.dumps(expected, sort_keys=True).encode()
    assert graph_hash(graph) == hashlib.sha256(blob).hexdigest()[:16]


# one dart name of the commutator's graph JSON made non-canonical: edge 0 joins a1 and a2-
BAD_DART_NAMES = {
    "leading zero": ("00@a1", "bad dart name '00@a1'"),
    "unknown edge": ("9@a1", "dart '9@a1' references unknown edge 9"),
    "wrong vertex": ("0@a2", "edge 0 is not incident with a2"),
    "non-ASCII edge": ("1\u0660@a1", "bad dart name '1\u0660@a1'"),
    "non-ASCII vertex": ("0@a1\u0661", "bad dart name '0@a1\u0661'"),
    "int": (0, "bad dart name 0"),
}
BAD_DART_CASES = [
    pytest.param(where, name, message, id=f"{where}-{case}")
    for case, (name, message) in BAD_DART_NAMES.items()
    for where in ("key", "value")
] + [pytest.param("value", ["0@a1"], "bad dart name ['0@a1']", id="value-list")]


@pytest.mark.parametrize("where, name, message", BAD_DART_CASES)
def test_json_rejects_a_non_canonical_dart_name(commutator, where, name, message):
    data = graph_to_json(commutator)
    table = data["sigma"]["a1"]
    src, dst = _first_dart(data)
    assert src == "0@a1"
    if where == "key":
        del table[src]
        table[name] = dst
    else:
        table[src] = name
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        graph_from_json(data)


def test_dot_export_labels(refutation_graph):
    dot = export_dot(refutation_graph, pg.parse_word_list("rank 2\na(aB)^3B^2\n"))
    assert '"a1" -- "a1-" [label="w0:p0"]' in dot
    assert dot.count(" -- ") == 9


def test_vertex_names_round_trip():
    for v in (vid(1, 1), vid(3, -1), vid(27, 1)):
        assert vertex_from_name(v.name) == v


def test_remove_edges_keeps_ids(refutation_graph):
    sub = refutation_graph.remove_edges([0, 5])
    assert sorted(sub.edges) == [1, 2, 3, 4, 6, 7, 8]
    assert sub.edges[3] == refutation_graph.edges[3]


def test_regular_instance_generator_properties():
    g = random_regular_instance(7, 3, 3)
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert all(
        g.local_edge_connectivity(v, v.mu()) == 3 for v in g.vertices() if v.sign > 0
    )


def test_the_regular_generator_shuffles_at_most_max_stubs(monkeypatch):
    # each attempt shuffles 2 k pairs stubs: a large k * pairs gets fewer
    # attempts, at least one, and the message names the attempts made
    monkeypatch.setattr(generators, "analyze", lambda graph: pg.analyze(graph)._replace(minimal=False))
    shuffle = random.Random.shuffle
    for stubs, attempts in ((40, 5), (3, 1), (10**9, generators.MAX_ATTEMPTS)):
        monkeypatch.setattr(generators, "MAX_STUBS", stubs)
        with mock.patch.object(random.Random, "shuffle", autospec=True, side_effect=shuffle) as spy:
            with pytest.raises(PreconditionError, match=f"after {attempts} tries$"):
                random_regular_instance(1, 2, 2)
        assert spy.call_count == attempts


def _index_table_graphs(seed: int, kind: str):
    """A random graph of ``kind``, with and without its connecting map."""
    if kind == "regular":
        graph = random_regular_instance(seed, 3 + seed % 2, 2 + seed % 2)
    else:
        graph = random_fourvertex_instance(seed, max_degree=5)
    gone = set(random.Random(seed).sample(sorted(graph.edges), len(graph.edges) // 3))
    return graph, graph_from_json(graph_to_json(graph)), graph.remove_edges(gone)


@given(st.integers(0, 200), st.sampled_from(["regular", "fourvertex"]))
@settings(max_examples=40, deadline=None)
def test_index_tables_match_the_vertex_ids(seed, kind):
    for graph in _index_table_graphs(seed, kind):
        verts = graph.vertices()
        assert verts is graph.vertices()  # one tuple per graph
        assert list(verts) == sorted(verts)
        # a vertex is the int of its index, and its pair is the index with the last bit flipped
        assert all(verts[i] == i and verts[i].mu() == verts[i] ^ 1 for i in range(len(verts)))
        assert len(verts) == 2 * graph.rank
        for eid in graph.edges:
            assert tuple(verts[i] for i in graph.edges[eid]) == edge_ends(graph, eid)
        for v in verts:
            assert graph.delta(v) == sorted(eid for eid in graph.edges if v in edge_ends(graph, eid))
            if isinstance(graph, pg.WhiteheadGraph):  # each table in edge-id order
                assert list(graph.sigma[v]) == graph.delta(v)
