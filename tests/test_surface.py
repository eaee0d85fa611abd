import pytest
from hypothesis import given, settings, strategies as st

import polygonality as pg
from polygonality import surface
from polygonality.errors import PairingError, PreconditionError, VerificationError
from polygonality.generators import random_fourvertex_instance
from polygonality.witness import cycle_order, make_cycle

from conftest import (
    oracle_is_orientable,
    oracle_linear_orders,
    oracle_link_letters,
    oracle_turns,
    oracle_vertex_classes,
    other_end,
    vid,
    words_graph,
)


def commutator_complex(commutator):
    wit = {frozenset(make_cycle(commutator, {0, 1, 2, 3}).edges): 1}
    return pg.build_surface(commutator, wit)


def test_linear_orders_are_compatible(polygonal_graph):
    rank = oracle_linear_orders(polygonal_graph)
    for i, table in enumerate(polygonal_graph.sigma):
        for e, img in table.items():
            assert rank[i][e] == rank[i ^ 1][img]
    for v in polygonal_graph.active_vertices():
        ranks = sorted(rank[v][e] for e in polygonal_graph.delta(v))
        assert ranks == list(range(polygonal_graph.degree(v)))


def test_commutator_surface_counts(commutator):
    cx = commutator_complex(commutator)
    assert cx.num_faces == 1
    assert cx.num_edges == 2
    assert cx.num_vertices == 1
    assert cx.chi_minus_m() == -1
    assert cx.num_vertices - cx.num_edges + cx.num_faces == 0  # the torus


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
        if other_end(refutation_graph, eid, vid(2, 1)) == vid(2, -1)
    ]
    bigon = make_cycle(refutation_graph, parallel)
    with pytest.raises(PreconditionError):
        pg.build_surface(refutation_graph, {frozenset(bigon.edges): 1})


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
    from polygonality.whitehead import WhiteheadGraph
    from conftest import make_plain

    plain = make_plain(1, [(vid(1, 1), vid(1, -1))] * 2)
    flip = {eid: eid for eid in plain.edges}
    graph = WhiteheadGraph(1, list(plain.edges.items()), {0: flip, 1: flip})
    wl = pg.parse_word_list("rank 1\na^2\n")
    bigon = make_cycle(graph, {0, 1})
    cx = pg.build_surface(graph, {frozenset(bigon.edges): 1})
    assert cx.chi_minus_m() == 0
    with pytest.raises(VerificationError):
        pg.surface_report(cx, wl)


def swapped_pairing(cx):
    """``cx.pairing`` with two pairs within a class crossed over: still an
    involution, but no longer the gluing the labels call for."""
    pairing = dict(cx.pairing)
    keys = sorted(pairing)
    (a, b) = keys[0], pairing[keys[0]]
    other = next(k for k in keys if k not in (a, b) and pairing[k] not in (a, b))
    c, d = other, pairing[other]
    pairing[a], pairing[d] = d, a
    pairing[c], pairing[b] = b, c
    return pairing


def reglue(cx, pairing):
    return surface.SurfaceComplex(cx.graph, cx.witness, cx.usage, pairing)


def test_broken_pairing_detected(commutator):
    wl = pg.parse_word_list("rank 2\nabAB\n")
    doubled = {frozenset(make_cycle(commutator, {0, 1, 2, 3}).edges): 2}
    cx2 = pg.build_surface(commutator, doubled)
    # the links are read while gluing, so the swapped pairing goes in at construction;
    # either the walk itself breaks, or a link stops reading a word power
    with pytest.raises(VerificationError):
        pg.surface_report(reglue(cx2, swapped_pairing(cx2)), wl)


def test_non_involutive_pairing_rejected(commutator):
    cx = pg.build_surface(commutator, {frozenset(make_cycle(commutator, {0, 1, 2, 3}).edges): 2})
    pairing = dict(cx.pairing)
    key = next(iter(pairing))
    pairing[key] = next(k for k in pairing if k not in (key, pairing[key]))
    with pytest.raises(PairingError, match="involution"):
        reglue(cx, pairing)
    fixed = dict(cx.pairing)
    fixed[key] = key
    with pytest.raises(PairingError, match="involution"):
        reglue(cx, fixed)


def test_pairing_missing_a_side_rejected(commutator):
    cx = commutator_complex(commutator)
    key = min(cx.pairing)
    partial = {k: v for k, v in cx.pairing.items() if k != key}
    with pytest.raises(PairingError, match="every side"):
        reglue(cx, partial)
    with pytest.raises(PairingError, match="every side"):
        reglue(cx, {**cx.pairing, (len(cx.polygons), 0): key})


def test_pairing_with_a_side_out_of_range_rejected(commutator):
    # one side renamed, as key and as partner: the right size, but not every side
    cx = commutator_complex(commutator)
    key = min(cx.pairing)
    for bad in ((0, -1), (0, len(cx.polygons[0].edges))):
        renamed = {
            bad if k == key else k: bad if v == key else v for k, v in cx.pairing.items()
        }
        assert len(renamed) == len(cx.pairing)
        with pytest.raises(PairingError, match="does not cover every side exactly once"):
            reglue(cx, renamed)


def link_cases():
    """Complexes whose glued vertices the walk must find: random four-vertex
    instances, the golden orbits.txt word, and each of them doubled."""
    graphs = [random_fourvertex_instance(seed, max_degree=5) for seed in range(0, 60, 6)]
    graphs.append(words_graph("rank 2\nBabaaaabaB\n"))
    for graph in graphs:
        good = pg.four_vertex_witness(graph)
        yield pg.build_surface(graph, good.cycles)
        yield pg.build_surface(graph, {c: 2 * m for c, m in good.cycles.items()})


def test_link_walk_finds_the_union_find_classes():
    for cx in link_cases():
        classes = oracle_vertex_classes(cx)
        assert cx.vertex_classes == classes
        assert cx.num_vertices == len(classes)
        assert cx.links == [oracle_link_letters(cx, corners) for corners in classes]


def test_orientability_matches_the_rank_oracle(commutator):
    klein = words_graph("rank 2\na^2b^2\n")
    klein_cx = pg.build_surface(klein, pg.four_vertex_witness(klein).cycles)
    torus_cx = commutator_complex(commutator)
    assert not klein_cx.is_orientable() and torus_cx.is_orientable()
    for cx in [*link_cases(), klein_cx, torus_cx]:
        assert cx.is_orientable() == oracle_is_orientable(cx)


def test_pairing_at_unpaired_vertices_rejected():
    # a^2b^2 glues one square; gluing each side to one at a vertex it is not
    # paired with once passed, and its link read the boundary word aabb
    graph = words_graph("rank 2\na^2b^2\n")
    cx = pg.build_surface(graph, pg.four_vertex_witness(graph).cycles)
    pairing = {(0, 0): (0, 3), (0, 3): (0, 0), (0, 1): (0, 2), (0, 2): (0, 1)}
    with pytest.raises(PairingError, match=r"sides \(0, 0\) and \(0, 3\)"):
        reglue(cx, pairing)


def test_mismatched_gluing_refused_at_construction(polygonal_graph):
    # two glued pairs of aBa^2b crossed over: every side still meets one at
    # the paired vertex, but the turns no longer correspond under sigma
    cx = pg.build_surface(polygonal_graph, pg.four_vertex_witness(polygonal_graph).cycles)
    assert cx.pairing[(0, 0)] == (2, 2) and cx.pairing[(1, 0)] == (1, 1)
    pairing = {**cx.pairing, (0, 0): (1, 1), (1, 1): (0, 0), (1, 0): (2, 2), (2, 2): (1, 0)}
    with pytest.raises(VerificationError, match="outside the corner's flanks"):
        reglue(cx, pairing)


def test_euler_bookkeeping_and_side_counts(polygonal_graph):
    good = pg.four_vertex_witness(polygonal_graph)
    cx = pg.build_surface(polygonal_graph, good.cycles)
    total_sides = sum(len(p.edges) for p in cx.polygons)
    assert total_sides == 2 * cx.num_edges
    assert cx.num_faces - cx.num_edges == cx.chi_minus_m()
    # strict face bound: some polygon has more than two sides
    assert 2 * cx.num_faces < 2 * cx.num_edges


def test_every_side_paired_once(polygonal_graph):
    good = pg.four_vertex_witness(polygonal_graph)
    cx = pg.build_surface(polygonal_graph, good.cycles)
    seen = set()
    for key, partner in cx.pairing.items():
        assert cx.pairing[partner] == key
        assert cx.polygons[key[0]].verts[key[1]] ^ 1 == cx.polygons[partner[0]].verts[partner[1]]
        seen.add(key)
        seen.add(partner)
    assert len(seen) == sum(len(p.edges) for p in cx.polygons)


def test_copies_of_a_cycle_share_one_side_tuple(monkeypatch):
    # the golden orbits.txt word: 22 distinct cycles glued as 256 polygons,
    # each polygon the cycle itself, its balance column read once per cycle
    graph = words_graph("rank 2\nBabaaaabaB\n")
    good = pg.four_vertex_witness(graph)
    keyed = []
    column = surface.balance_column
    monkeypatch.setattr(surface, "balance_column", lambda *args: keyed.append(args) or column(*args))
    cx = pg.build_surface(graph, good.cycles)
    assert len(keyed) == len(good.cycles) == 22
    assert len(cx.polygons) == sum(good.cycles.values()) == 256
    assert len({id(p) for p in cx.polygons}) == 22
    assert {id(p) for p in cx.polygons} == {id(c) for c in cx.witness}


@given(st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_polygons_are_the_ordered_expansion_of_the_witness(seed):
    graph = random_fourvertex_instance(seed)
    cx = pg.build_surface(graph, pg.four_vertex_witness(graph).cycles)
    assert list(cx.witness) == sorted(cx.witness, key=cycle_order)
    assert list(cx.polygons) == [c for c, n in cx.witness.items() for _ in range(n)]


def test_cycle_walk_structure():
    for text in ("rank 2\naBa^2b\n", "rank 2\na(aB)^3B^2\n", "rank 3\nabcabCAB\n"):
        graph = words_graph(text)
        for cyc in pg.enumerate_cycles(graph):
            verts, eids = cyc
            turns = oracle_turns(cyc)
            assert [i for i, _, _ in turns] == list(verts)
            assert len(verts) == len(set(verts)) == len(eids) == len(set(eids))
            assert verts[0] == min(verts)
            assert eids[0] == min(set(graph.delta(graph.vertices()[verts[0]])) & set(eids))
            for t, eid in enumerate(eids):
                assert set(graph.edges[eid]) == {verts[t], verts[(t + 1) % len(verts)]}
                assert turns[t][1:] == tuple(sorted((eids[t - 1], eid)))


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_random_certificates_end_to_end(seed):
    graph = random_fourvertex_instance(seed, max_degree=5)
    good = pg.four_vertex_witness(graph)
    cx = pg.build_surface(graph, good.cycles)
    assert cx.chi_minus_m() < 0
    assert cx.num_vertices - cx.num_edges + cx.num_faces == cx.num_vertices + cx.chi_minus_m()
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
    assert cx.num_vertices - cx.num_edges + cx.num_faces == 0
    assert not report.orientable
    assert report.chi_s_minus_m == -1 and report.positive_degrees == {0: 1}


def test_torus_gluing_reported_orientable(commutator):
    cx = commutator_complex(commutator)
    assert cx.num_vertices - cx.num_edges + cx.num_faces == 0 and cx.is_orientable()


def test_link_lengths_sum_to_side_count(polygonal_graph):
    wl = pg.parse_word_list("rank 2\naBa^2b\n")
    good = pg.four_vertex_witness(polygonal_graph)
    cx = pg.build_surface(polygonal_graph, good.cycles)
    readings = pg.boundary_words(cx, wl)
    assert sum(len(r.word) for r in readings) == sum(len(p.edges) for p in cx.polygons)


def test_positive_degrees_constant_for_uniform_witness(polygonal_graph):
    wl = pg.parse_word_list("rank 2\naBa^2b\n")
    good = pg.four_vertex_witness(polygonal_graph)
    report = pg.surface_report(pg.build_surface(polygonal_graph, good.cycles), wl)
    assert len(set(report.positive_degrees.values())) == 1

