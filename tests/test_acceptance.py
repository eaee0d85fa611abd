"""Acceptance criteria, one test per criterion, each printing a PASS line.

Counts are exact integer equalities; runtime ceilings are wall-clock bounds
on this suite's own work.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import itertools
import time

import polygonality as pg
from polygonality.fourvertex import decompose_good, part_completion
from polygonality.generators import random_fourvertex_instance, random_regular_instance
from polygonality.witness import Infeasible

from conftest import words_graph
from test_fourvertex import all_good_digraphs, oracle_part_ok, oracle_partition_exists


def _report(num: int, text: str):
    print(f"PASS criterion {num}: {text}")


def _regular_corpus(n=102):
    out = []
    seed = 0
    while len(out) < n:
        k = (2, 3, 4)[seed % 3]
        pairs = 1 + (seed // 3) % 4  # up to 8 vertices
        out.append((seed, random_regular_instance(seed, k, pairs)))
        seed += 1
    return out


def _fourvertex_corpus(n=102):
    return [(seed, random_fourvertex_instance(seed, max_degree=6)) for seed in range(n)]


def test_criterion_1_refutation_instance():
    start = time.perf_counter()
    graph = words_graph("rank 2\na(aB)^3B^2\n")
    a, a_inv = pg.VertexId(1, 1), pg.VertexId(1, -1)
    assert graph.local_edge_connectivity(a, a_inv) == 3
    assert graph.degree(a) == 4
    found = pg.search_witness_lp(graph, require_long=True)
    assert isinstance(found, Infeasible)
    assert found.certificate, "expected a nontrivial rational dual certificate"
    for _, _, value in found.certificate:
        assert "/" in value or value.lstrip("-").isdigit()  # exact rationals
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"lambda(a,a-)=3 < 4=deg(a); witness refuted with "
               f"{len(found.certificate)} dual rows in {elapsed:.2f}s")


def test_criterion_2_minimality_pair():
    start = time.perf_counter()
    bad = words_graph("rank 2\nabab^2ab^3\n")
    b, b_inv = pg.VertexId(2, 1), pg.VertexId(2, -1)
    assert bad.local_edge_connectivity(b, b_inv) == 3
    assert bad.degree(b) == 6
    assert not pg.analyze(bad).minimal

    good_graph = words_graph("rank 2\naBa^2b\n")
    report = pg.analyze(good_graph)
    assert report.minimal and report.diskbusting
    constructed = pg.four_vertex_witness(good_graph)
    assert pg.verify_witness(good_graph, constructed.cycles, require_long=True).ok
    searched = pg.search_witness_lp(good_graph, require_long=True)
    assert not isinstance(searched, Infeasible)
    assert pg.verify_witness(good_graph, searched, require_long=True).ok
    wl = pg.parse_word_list("rank 2\naBa^2b\n")
    cert = pg.surface_report(pg.build_surface(good_graph, constructed.cycles), wl)
    assert cert.chi_s_minus_m < 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"abab^2ab^3 non-minimal; aBa^2b certified with chi(S)-m="
               f"{cert.chi_s_minus_m} in {elapsed:.2f}s")


def test_criterion_3_regular_counts():
    start = time.perf_counter()
    corpus = _regular_corpus()
    assert len(corpus) >= 100
    for seed, graph in corpus:
        rw = pg.regular_witness(graph)
        assert pg.verify_witness(graph, rw.cycles).ok, seed
        ell, k = rw.coloring.ell, rw.coloring.k
        assert ell % k == 0, seed
        share = ell // k
        # the coloring covers every edge ell/k times, counted with multiplicity
        for eid in graph.edges:
            cover = sum(n for m, n in rw.coloring.entries if eid in m)
            assert cover == share, (seed, eid)
        assert rw.m1 == share * (ell - share), seed
        assert rw.m2 == share * share, seed
        # independent recount of both constants
        for eid in graph.edges:
            used = sum(m for c, m in rw.cycles.items() if eid in c)
            assert used == rw.m1, (seed, eid)
        for v in graph.active_vertices():
            for e, f in itertools.combinations(graph.delta(v), 2):
                n = sum(m for c, m in rw.cycles.items() if {e, f} <= c)
                assert n == rw.m2, (seed, v, e, f)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"{len(corpus)} regular instances, all counts exact, {elapsed:.1f}s")


def test_criterion_4_odd_cut_property():
    corpus = _regular_corpus()
    counterexamples = [
        seed for seed, graph in corpus if not pg.is_k_graph(graph).ok
    ]
    assert counterexamples == []
    _report(4, f"odd-cut bound held on all {len(corpus)} generated instances")


def test_criterion_5_four_vertex_end_to_end():
    start = time.perf_counter()
    corpus = _fourvertex_corpus()
    assert len(corpus) >= 100
    for seed, graph in corpus:
        good = pg.four_vertex_witness(graph)
        verdict = pg.verify_witness(graph, good.cycles, require_long=True)
        assert verdict.ok, seed
        assert len(set(verdict.per_edge_usage.values())) == 1, seed
        confirmed = pg.search_witness_lp(graph, require_long=True)
        assert not isinstance(confirmed, Infeasible), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"{len(corpus)} four-vertex instances constructed, verified, "
               f"and LP-confirmed in {elapsed:.1f}s")


def test_criterion_6_decomposition_oracle():
    corpus = all_good_digraphs(8)
    for D in corpus:
        parts = decompose_good(D)
        edges = sorted(x for c in D.components for x in c.edges)
        assert sorted(x for p in parts for c in p.components for x in c.edges) == edges
        for part in parts:
            assert oracle_part_ok(list(part.components))
            part_completion(part)  # orbit recipes cover every emitted part
        assert oracle_partition_exists(D)
    _report(6, f"all {len(corpus)} good digraphs on <= 8 nodes decomposed and "
               f"validated against the brute-force oracle")


def test_criterion_7_commutator_certificate():
    graph = words_graph("rank 2\nabAB\n")
    wl = pg.parse_word_list("rank 2\nabAB\n")
    good = pg.four_vertex_witness(graph)
    assert len(good.cycles) == 1
    cycle, mult = next(iter(good.cycles.items()))
    assert len(cycle) == 4 and mult == 1
    report = pg.surface_report(pg.build_surface(graph, good.cycles), wl)
    assert report.chi_s_minus_m == -1
    assert report.chi_double == -2
    _report(7, "commutator witness is the 4-cycle once; chi(S)-m=-1, chi(S'')=-2")


def test_criterion_8_invariant_suites():
    failures = 0
    # (i) the inverse-pair law of the connecting-map tables, over both corpora
    corpora = [g for _, g in _fourvertex_corpus(30)] + [
        g for _, g in _regular_corpus(30)
    ]
    for graph in corpora:
        for i, table in enumerate(graph.sigma):
            for e, img in table.items():
                if graph.sigma[i ^ 1][img] != e:
                    failures += 1
    # (ii) homogeneity: scaled witnesses still verify
    for seed in range(12):
        graph = random_fourvertex_instance(seed)
        good = pg.four_vertex_witness(graph)
        for scale in (2, 3, 7):
            scaled = {c: m * scale for c, m in good.cycles.items()}
            if not pg.verify_witness(graph, scaled, require_long=True).ok:
                failures += 1
    # (iii) Euler bookkeeping both ways
    for seed in range(12):
        graph = random_fourvertex_instance(seed)
        cx = pg.build_surface(graph, pg.four_vertex_witness(graph).cycles)
        if cx.chi_minus_m() != -cx.num_edges + cx.num_faces:
            failures += 1
        if 2 * cx.num_edges != sum(len(p.edges) for p in cx.polygons):
            failures += 1
    # (iv) LP output -> verifier round trip
    for seed in range(12):
        graph = random_fourvertex_instance(seed, max_degree=5)
        found = pg.search_witness_lp(graph, require_long=True)
        if isinstance(found, Infeasible) or not pg.verify_witness(
            graph, found, require_long=True
        ).ok:
            failures += 1
    assert failures == 0
    _report(8, "involution, homogeneity, Euler bookkeeping, and LP round-trip "
               "suites all passed with zero failures")
