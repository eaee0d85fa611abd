import pytest
from hypothesis import given, settings, strategies as st

import polygonality as pg
from polygonality.errors import PreconditionError, VerificationError
from polygonality.generators import random_fourvertex_instance
from polygonality.surface import build_linear_orders
from polygonality.witness import make_cycle

from conftest import vid, words_graph


def commutator_complex(commutator):
    wit = {make_cycle(commutator, {0, 1, 2, 3}): 1}
    return pg.build_surface(commutator, wit)


def test_linear_orders_are_compatible(polygonal_graph):
    rank = build_linear_orders(polygonal_graph)
    for eid in polygonal_graph.edges:
        for end in (0, 1):
            d = pg.Dart(eid, end)
            assert rank[d] == rank[polygonal_graph.sigma[d]]
    for v in polygonal_graph.active_vertices():
        ranks = sorted(rank[d] for d in polygonal_graph.darts_at(v))
        assert ranks == list(range(polygonal_graph.degree(v)))


def test_commutator_surface_counts(commutator):
    cx = commutator_complex(commutator)
    assert cx.num_faces == 1
    assert cx.num_edges == 2
    assert cx.num_vertices == 1
    assert cx.chi_minus_m() == -1
    assert cx.euler_characteristic() == 0  # the torus


def test_commutator_report(commutator):
    wl = pg.parse_word_list("rank 2\nabAB\n")
    cx = commutator_complex(commutator)
    report = pg.surface_report(cx, wl)
    assert report.m == 1
    assert report.chi_s_minus_m == -1
    assert report.chi_double == -2
    assert report.orientable
    assert report.positive_degrees == {0: 1}
    r = report.boundary[0]
    assert r.base_word_index == 0 and abs(r.exponent) == 1


def test_build_requires_verified_witness(refutation_graph):
    parallel = [
        eid
        for eid in refutation_graph.delta(vid(2, 1))
        if refutation_graph.edges[eid].other(vid(2, 1)) == vid(2, -1)
    ]
    bigon = make_cycle(refutation_graph, parallel)
    with pytest.raises(PreconditionError):
        pg.build_surface(refutation_graph, {bigon: 1})


def test_build_rejects_empty(commutator):
    with pytest.raises(PreconditionError):
        pg.build_surface(commutator, {})


def test_polygonal_word_certificate(polygonal_graph):
    wl = pg.parse_word_list("rank 2\naBa^2b\n")
    good = pg.four_vertex_witness(polygonal_graph)
    cx = pg.build_surface(polygonal_graph, good.cycles)
    report = pg.surface_report(cx, wl)
    assert report.chi_s_minus_m < 0
    assert report.chi_double == 2 * report.chi_s_minus_m
    for r in report.boundary:
        assert r.base_word_index == 0 and r.exponent != 0


def test_boundary_words_read_powers(commutator):
    wl = pg.parse_word_list("rank 2\nabAB\n")
    cx = commutator_complex(commutator)
    readings = pg.boundary_words(cx, wl)
    assert all(r.ok for r in readings)
    assert sum(abs(r.exponent) * len(wl.words[r.base_word_index]) for r in readings) == 4


def test_bigon_only_witness_has_no_certificate():
    # two parallel edges with the flip map: the lone bigon verifies but chi = 0
    from polygonality.whitehead import Dart, WhiteheadGraph
    from conftest import make_plain

    plain = make_plain(1, [(vid(1, 1), vid(1, -1))] * 2)
    sigma = {}
    for eid in plain.edges:
        d0, d1 = Dart(eid, 0), Dart(eid, 1)
        sigma[d0], sigma[d1] = d1, d0
    graph = WhiteheadGraph(1, list(plain.edges.values()), sigma)
    wl = pg.parse_word_list("rank 1\na^2\n")
    bigon = make_cycle(graph, {0, 1})
    cx = pg.build_surface(graph, {bigon: 1})
    assert cx.chi_minus_m() == 0
    with pytest.raises(VerificationError):
        pg.surface_report(cx, wl)


def test_broken_pairing_detected(commutator):
    cx = commutator_complex(commutator)
    wl = pg.parse_word_list("rank 2\nabAB\n")
    doubled = {make_cycle(commutator, {0, 1, 2, 3}): 2}
    cx2 = pg.build_surface(commutator, doubled)
    # swap two pairing partners within a class: the link traversal must notice
    keys = sorted(cx2.pairing)
    (a, b) = keys[0], cx2.pairing[keys[0]]
    other = next(
        k for k in keys if k not in (a, b) and cx2.pairing[k] not in (a, b)
    )
    c, d = other, cx2.pairing[other]
    cx2.pairing[a], cx2.pairing[d] = d, a
    cx2.pairing[c], cx2.pairing[b] = b, c
    # either the traversal itself breaks, or a link stops reading a word power
    with pytest.raises(VerificationError):
        pg.boundary_words(cx2, wl)
        pg.surface_report(cx2, wl)


def test_euler_bookkeeping_and_side_counts(polygonal_graph):
    good = pg.four_vertex_witness(polygonal_graph)
    cx = pg.build_surface(polygonal_graph, good.cycles)
    total_sides = sum(len(p) for p in cx.polygons)
    assert total_sides == 2 * cx.num_edges
    assert cx.euler_characteristic() - cx.num_vertices == cx.chi_minus_m()
    # strict face bound: some polygon has more than two sides
    assert 2 * cx.num_faces < 2 * cx.num_edges


def test_every_side_paired_once(polygonal_graph):
    good = pg.four_vertex_witness(polygonal_graph)
    cx = pg.build_surface(polygonal_graph, good.cycles)
    seen = set()
    for key, partner in cx.pairing.items():
        assert cx.pairing[partner] == key
        assert cx.side(key).incoming != cx.side(partner).incoming
        seen.add(key)
        seen.add(partner)
    assert len(seen) == sum(len(p) for p in cx.polygons)


def test_cycle_walk_structure():
    for text in ("rank 2\naBa^2b\n", "rank 2\na(aB)^3B^2\n", "rank 3\nabcabCAB\n"):
        graph = words_graph(text)
        for cyc in pg.enumerate_cycles(graph):
            verts = [v for v, _ in cyc.turns]
            eids = cyc.edge_seq
            assert len(verts) == len(set(verts)) == len(eids) == len(cyc)
            assert set(eids) == cyc.edges
            assert verts[0] == min(verts)
            assert eids[0] == min(set(graph.delta(verts[0])) & cyc.edges)
            for t, eid in enumerate(eids):
                ends = set(graph.edges[eid].ends)
                assert ends == {verts[t], verts[(t + 1) % len(verts)]}
                assert cyc.turns[t][1] == {eids[t - 1], eid}


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_random_certificates_end_to_end(seed):
    graph = random_fourvertex_instance(seed, max_degree=5)
    good = pg.four_vertex_witness(graph)
    cx = pg.build_surface(graph, good.cycles)
    assert cx.chi_minus_m() < 0
    assert cx.euler_characteristic() == cx.num_vertices + cx.chi_minus_m()
    # scaling the witness scales faces and edges but keeps the sign
    doubled = {c: 2 * m for c, m in good.cycles.items()}
    cx2 = pg.build_surface(graph, doubled)
    assert cx2.chi_minus_m() == 2 * cx.chi_minus_m()


def test_klein_bottle_gluing_reported_non_orientable():
    # a^2 b^2 also yields one square with chi(S_0) = 0, but glued oppositely
    wl = pg.parse_word_list("rank 2\na^2b^2\n")
    graph = pg.build_whitehead_graph(wl)
    good = pg.four_vertex_witness(graph)
    cx = pg.build_surface(graph, good.cycles)
    report = pg.surface_report(cx, wl)
    assert cx.euler_characteristic() == 0
    assert not report.orientable
    assert report.chi_s_minus_m == -1 and report.positive_degrees == {0: 1}


def test_torus_gluing_reported_orientable(commutator):
    cx = commutator_complex(commutator)
    assert cx.euler_characteristic() == 0 and cx.is_orientable()


def test_link_lengths_sum_to_side_count(polygonal_graph):
    wl = pg.parse_word_list("rank 2\naBa^2b\n")
    good = pg.four_vertex_witness(polygonal_graph)
    cx = pg.build_surface(polygonal_graph, good.cycles)
    readings = pg.boundary_words(cx, wl)
    assert sum(len(r.word) for r in readings) == sum(len(p) for p in cx.polygons)


def test_positive_degrees_constant_for_uniform_witness(polygonal_graph):
    wl = pg.parse_word_list("rank 2\naBa^2b\n")
    good = pg.four_vertex_witness(polygonal_graph)
    report = pg.surface_report(pg.build_surface(polygonal_graph, good.cycles), wl)
    assert len(set(report.positive_degrees.values())) == 1

