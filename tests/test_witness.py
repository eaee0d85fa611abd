import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import polygonality as pg
from polygonality import cli, witness
from polygonality.errors import GraphError, PreconditionError, VerificationError
from polygonality.generators import random_fourvertex_instance, random_regular_instance
from polygonality.witness import (
    Cycle,
    Infeasible,
    cycle_order,
    make_cycle,
    witness_from_json,
    witness_hash,
    witness_to_json,
)

from conftest import (
    make_plain,
    other_end,
    oracle_all_cycles,
    oracle_balanced,
    oracle_bounded_witness_search,
    oracle_constraint_rows,
    oracle_cycle_key,
    oracle_is_cycle,
    oracle_pair_count,
    oracle_turns,
    vid,
    words_graph,
)


def to_json(graph, cycles):
    """``witness_to_json`` with the per-edge usage counted here."""
    usage = {e: sum(m for c, m in cycles.items() if e in c.edges) for e in graph.edges}
    return witness_to_json(graph, cycles, usage)


def test_enumerate_four_cycle(commutator):
    cycles = pg.enumerate_cycles(commutator)
    assert len(cycles) == 1 and frozenset(cycles[0].edges) == frozenset({0, 1, 2, 3})


def test_enumerate_bigon():
    graph = make_plain(1, [(vid(1, 1), vid(1, -1)), (vid(1, 1), vid(1, -1))])
    cycles = pg.enumerate_cycles(graph)
    assert len(cycles) == 1 and len(cycles[0].edges) == 2


def test_enumerate_against_subset_oracle(refutation_graph):
    ours = {frozenset(c.edges) for c in pg.enumerate_cycles(refutation_graph)}
    assert ours == oracle_all_cycles(refutation_graph)


def random_word_graph(seed: int, rank: int = 3, length: int = 12) -> pg.WhiteheadGraph:
    """A random cyclically reduced word's graph; at rank 3, the shape the LP route decides."""
    rng = random.Random(seed)
    letters = "abcd"[:rank] + "ABCD"[:rank]
    while True:
        word = [rng.choice(letters) for _ in range(length)]
        if all(x != y.swapcase() for x, y in zip(word, word[1:] + word[:1])):
            return words_graph(f"rank {rank}\n" + "".join(word) + "\n")


RANDOM_GRAPHS = {
    "fourvertex": lambda seed: random_fourvertex_instance(seed, max_degree=5),
    "rank3-word": random_word_graph,
    "regular": lambda seed: random_regular_instance(seed, 3 + seed % 2, 3),
}


@given(st.integers(0, 30), st.sampled_from(sorted(RANDOM_GRAPHS)))
@settings(max_examples=30, deadline=None)
def test_enumerate_against_oracle_random(seed, kind):
    graph = RANDOM_GRAPHS[kind](seed)
    cycles = pg.enumerate_cycles(graph)
    assert {frozenset(c.edges) for c in cycles} == oracle_all_cycles(graph)
    orders = [cycle_order(c) for c in cycles]
    assert all(a < b for a, b in zip(orders, orders[1:]))  # strictly sorted


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 14))
@settings(max_examples=60, deadline=None)
def test_constraint_rows_match_the_turns_oracle(seed, rank, length):
    # rows and keys grouped from the balance columns, zero rows skipped before
    # they are built, equal those listed from the oracle's turns, in the same order
    graph = random_word_graph(seed, rank, length)
    cycles = pg.enumerate_cycles(graph)
    columns = [witness.balance_column(graph.sigma, c) for c in cycles]
    rows, classes = witness._constraint_rows(columns)
    keys = [(graph.vertices()[i], (e, f)) for i, e, f in classes]
    assert (rows, keys) == oracle_constraint_rows(graph, cycles)


def _class_counts(graph, cycles) -> dict:
    """The copies of a cycle list through each side of each class, summed
    over the cycles' balance columns."""
    counts: dict = {}
    for c, n in cycles.items():
        for cls, side in witness.balance_column(graph.sigma, c):
            counts.setdefault(cls, [0, 0])[side] += n
    return counts


@given(st.integers(0, 200), st.sampled_from(sorted(RANDOM_GRAPHS)), st.data())
@settings(max_examples=40, deadline=None)
def test_balance_columns_agree_with_the_verifier(seed, kind, data):
    # the LP's columns and the verifier's own walk count the same classes: a
    # list sums to zero in every class exactly when the verifier passes it,
    # and with one cycle's multiplicity raised by 1, each unbalanced class is
    # the verifier's two failures, its turn and its image, the counts swapped
    graph = RANDOM_GRAPHS[kind](seed)
    found = witness.decide(graph, "auto", False).found
    assume(not isinstance(found, Infeasible))
    verdict = pg.verify_witness(graph, found)
    counts = _class_counts(graph, verdict.cycles)
    assert not verdict.failures and all(a == b for a, b in counts.values())
    raised = data.draw(st.sampled_from(sorted(verdict.cycles, key=cycle_order)))
    verdict = pg.verify_witness(
        graph, {frozenset(c.edges): n + (c == raised) for c, n in verdict.cycles.items()}
    )
    counts = _class_counts(graph, verdict.cycles)
    assert (not verdict.failures) == all(a == b for a, b in counts.values())
    sigma, verts = graph.sigma, graph.vertices()
    expected = []
    for (i, e, f), (a, b) in counts.items():
        if a != b:
            g, h = sorted((sigma[i][e], sigma[i][f]))
            expected += [(i, e, f, a, b), (i ^ 1, g, h, b, a)]
    assert verdict.failures == tuple(
        (verts[i], (e, f), here, there) for i, e, f, here, there in sorted(expected)
    )


@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(4, 14))
@settings(max_examples=40, deadline=None)
def test_cycle_views_are_read_off_the_walk(seed, rank, length):
    # a cycle is its two-field walk: rewalking its edges gives the same tuple,
    # and the key and the balance column agree with the oracle's key and turns:
    # a turn at an even index is side 0 of its own class, one at an odd index
    # side 1 of its image's
    assert Cycle._fields == ("verts", "edges")
    graph = random_word_graph(seed, rank, length)
    for c in pg.enumerate_cycles(graph):
        assert make_cycle(graph, c.edges) == c
        assert c.key == oracle_cycle_key(c.edges)
        column = []
        for v, e, f in oracle_turns(c):
            if v % 2:
                g, h = graph.sigma[v][e], graph.sigma[v][f]
                column.append(((v - 1, min(g, h), max(g, h)), 1))
            else:
                column.append(((v, e, f), 0))
        assert witness.balance_column(graph.sigma, c) == column


@given(st.lists(st.integers(0, 60), min_size=2, max_size=14, unique=True))
def test_cycle_key_is_the_least_rotation(seq):
    cyc = Cycle(tuple(range(len(seq))), tuple(seq))
    assert cyc.key == oracle_cycle_key(seq)


@pytest.mark.parametrize("graph", [words_graph("rank 2\naBa^2b\n"), random_word_graph(0)])
def test_enumeration_builds_each_cycle_once(graph, monkeypatch):
    calls = []
    build = witness.Cycle

    def counted(verts, edges):
        calls.append(edges)
        return build(verts, edges)

    def forbidden(*args):
        raise AssertionError("enumeration must not rebuild a cycle from its edge set")

    monkeypatch.setattr(witness, "Cycle", counted)
    monkeypatch.setattr(witness, "make_cycle", forbidden)
    cycles = pg.enumerate_cycles(graph)
    assert len(calls) == len(cycles) > 1


def test_make_cycle_rejects_non_cycles(commutator):
    with pytest.raises(GraphError):
        make_cycle(commutator, {0, 1})  # a path, not a cycle
    with pytest.raises(GraphError):
        make_cycle(commutator, {0})
    with pytest.raises(GraphError):
        make_cycle(commutator, {0, 99})
    two_bigons = make_plain(2, [(vid(1, 1), vid(1, -1))] * 2 + [(vid(2, 1), vid(2, -1))] * 2)
    with pytest.raises(GraphError, match=r"^edge set \[0, 1, 2, 3\] is not a single cycle$"):
        make_cycle(two_bigons, {0, 1, 2, 3})


@given(st.integers(0, 10**6), st.integers(2, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_make_cycle_names_the_first_fault(seed, rank, data):
    # the walk checks an edge set by walking it; the faults of a set it cannot
    # close are named in order: size, unknown ids, degrees, then components
    graph = random_word_graph(seed, rank, 8)
    ids = graph.edge_ids()
    eids = frozenset(data.draw(st.lists(st.sampled_from([*ids, len(ids)]), max_size=6)))
    degree = Counter(i for e in eids if e in graph.edges for i in graph.edges[e])
    if len(eids) >= 2 and eids <= set(ids) and oracle_is_cycle(graph, eids):
        assert frozenset(make_cycle(graph, eids).edges) == eids
        return
    with pytest.raises(GraphError) as info:
        make_cycle(graph, eids)
    message = str(info.value)
    if len(eids) < 2:
        assert message.startswith("cycle needs at least two edges")
    elif not eids <= set(ids):
        assert message == f"cycle references unknown edge {len(ids)}"
    elif set(degree.values()) != {2}:
        name = message.rsplit(" at ", 1)[1]
        (i,) = [i for i, v in enumerate(graph.vertices()) if v.name == name]
        assert degree[i] != 2
        assert message == f"edge set {sorted(eids)} has degree {degree[i]} at {name}"
    else:
        assert message == f"edge set {sorted(eids)} is not a single cycle"


def test_verify_commutator_witness(commutator):
    cyc = make_cycle(commutator, {0, 1, 2, 3})
    verdict = pg.verify_witness(commutator, {frozenset(cyc.edges): 1}, require_long=True)
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
        if other_end(refutation_graph, eid, vid(2, 1)) == vid(2, -1)
    ]
    bigon = make_cycle(refutation_graph, parallel)
    verdict = pg.verify_witness(refutation_graph, {frozenset(bigon.edges): 1})
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
            assert verdict.per_edge_usage[e] == verdict.per_edge_usage[graph.sigma[v.index][e]]


def test_strict_pair_mode(commutator):
    cyc = make_cycle(commutator, {0, 1, 2, 3})
    verdict = pg.verify_witness(commutator, {frozenset(cyc.edges): 1})
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


def _patched_duals(monkeypatch, change):
    """Let ``change(A, c, duals)`` edit the optimal duals the LP search receives."""
    solve = witness.maximize_homogeneous

    def patched(A, c, **kwargs):
        res = solve(A, c, **kwargs)
        assert res.objective == 0 and res.duals[-1] == 0
        change(A, c, res.duals)
        return res

    monkeypatch.setattr(witness, "maximize_homogeneous", patched)


def test_refutation_needs_zero_normalization_dual(refutation_graph, monkeypatch):
    # the real duals plus 1/2 on the normalization row still cover every
    # cycle, but then they only bound the optimum by 1/2 and refute nothing
    from polygonality.simplex import QQ

    def positive_normalization_dual(A, c, duals):
        duals[-1] = QQ(1, 2)

    _patched_duals(monkeypatch, positive_normalization_dual)
    with pytest.raises(VerificationError, match="normalization multiplier 1/2, not 0"):
        pg.search_witness_lp(refutation_graph, require_long=True)


def test_refutation_fails_on_an_uncovered_cycle(refutation_graph, monkeypatch):
    # lower the first nonzero dual whose row is +1 on a long cycle by half
    # more than that cycle's slack, so y.A_j = c_j - 1/2 there (a fractional
    # dual: the check must compare c_j scaled, too); the Fraction sums below
    # name the first failing cycle independently of the library's check
    from polygonality.simplex import QQ

    cycles = pg.enumerate_cycles(refutation_graph)
    failing = []

    def lower_one_dual(A, c, duals):
        def lhs(j):
            return sum((Fraction(y) * row[j] for y, row in zip(duals, A)), Fraction(0))

        i = next(
            i for i, y in enumerate(duals[:-1])
            if y and any(a > 0 and cycles[j].is_long for j, a in enumerate(A[i]))
        )
        duals[i] -= QQ(1, 2) + min(
            lhs(j) - c[j] for j, a in enumerate(A[i]) if a > 0 and cycles[j].is_long
        )
        failing.extend(j for j in range(len(c)) if lhs(j) < c[j])

    _patched_duals(monkeypatch, lower_one_dual)
    with pytest.raises(VerificationError, match="refutation certificate fails on cycle") as exc:
        pg.search_witness_lp(refutation_graph, require_long=True)
    assert str(exc.value).endswith(f"fails on cycle {sorted(cycles[failing[0]].edges)}")
    assert any(cycles[j].is_long for j in failing)


def test_refutation_accepts_scaled_fractional_duals(refutation_graph, monkeypatch):
    # 3/2 times a certificate is one: y.A_j >= c_j >= 0 gives 3/2 y.A_j >= c_j
    from polygonality.simplex import QQ

    plain = pg.search_witness_lp(refutation_graph, require_long=True)

    def scale_duals(A, c, duals):
        duals[:] = [y * QQ(3, 2) for y in duals]

    _patched_duals(monkeypatch, scale_duals)
    scaled = pg.search_witness_lp(refutation_graph, require_long=True)
    expected = [(v, pair, QQ(val) * QQ(3, 2)) for v, pair, val in plain.certificate]
    assert any(q.denominator > 1 for _, _, q in expected)  # the lcm scaling is exercised
    assert isinstance(scaled, Infeasible) and scaled.normalization_dual == "0"
    assert scaled.certificate == tuple((v, pair, str(q)) for v, pair, q in expected)


def test_search_lp_agrees_with_bounded_search_small_graphs():
    # every loopless instance here has at most 6 edges; bound B = 3
    BOUND = 3
    cases = []
    # bigon with identity-style map
    bigon = make_plain(1, [(vid(1, 1), vid(1, -1))] * 2)
    flip = {eid: eid for eid in bigon.edges}
    cases.append(pg.WhiteheadGraph(1, list(bigon.edges.items()), {0: flip, 1: flip}))
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
    verdict = pg.verify_witness(polygonal_graph, found, require_long=True)
    data = to_json(polygonal_graph, verdict.cycles)
    back = witness_from_json(polygonal_graph, data)
    assert back == found
    assert pg.verify_witness(polygonal_graph, back, require_long=True).cycles == verdict.cycles


def test_witness_json_merges_entries_by_edge_set(commutator):
    cyc = make_cycle(commutator, [0, 1, 2, 3])
    data = to_json(commutator, {cyc: 1})
    data["cycles"] = [
        {"edges": [0, 1, 2, 3], "multiplicity": 2},
        {"edges": [3, 1, 0, 2], "multiplicity": 5},
    ]
    back = witness_from_json(commutator, data)
    assert back == {frozenset({0, 1, 2, 3}): 7}
    assert pg.verify_witness(commutator, back).cycles == {cyc: 7}


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
    data = to_json(commutator, pg.verify_witness(commutator, found).cycles)
    with pytest.raises(VerificationError):
        witness_from_json(polygonal_graph, data)


def test_witness_json_rejects_a_cycle_entry_with_another_key(commutator):
    data = to_json(commutator, {make_cycle(commutator, [0, 1, 2, 3]): 1})
    data["cycles"][0]["note"] = "ignored before"
    expected = r"a cycle needs the keys \['edges', 'multiplicity'\], got .*'note'"
    with pytest.raises(GraphError, match=expected):
        witness_from_json(commutator, data)


def test_witness_json_requires_the_graph_hash(commutator):
    data = to_json(commutator, {make_cycle(commutator, [0, 1, 2, 3]): 1})
    del data["graph_hash"]
    with pytest.raises(GraphError, match="no graph_hash"):
        witness_from_json(commutator, data)


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
                m for c, m in found.items() if e in c and f in c
            )
            img = frozenset((polygonal_graph.sigma[v.index][e], polygonal_graph.sigma[v.index][f]))
            image_count = sum(
                m for c, m in found.items() if img <= c
            )
            assert verdict.ok and direct == image_count


# the constructions' edge sets, as the verifier reads them: regular lists at
# ranks 2 and 3, four-vertex lists at rank 2


def _regular_case(seed):
    graph = random_regular_instance(seed, 3 + seed % 2, 2 + seed % 2)
    return graph, pg.regular_witness(graph).cycles


def test_regular_case_graphs_are_connected():
    # a disconnected graph can be minimal; its regular witness is then bigons only
    for seed in range(301):
        graph = random_regular_instance(seed, 3 + seed % 2, 2 + seed % 2)
        assert graph.is_connected(ignore_isolated=True), seed


def _fourvertex_case(seed):
    graph = random_fourvertex_instance(seed, max_degree=5)
    return graph, pg.four_vertex_witness(graph).cycles


def oracle_failures(graph, cycles) -> list:
    """The unbalanced pairs in vertex order, then edge-id order, each with its
    count and its image's, recounted over every pair at every vertex."""
    out = []
    for v in graph.active_vertices():
        sigma = graph.sigma[v.index]
        for e, f in itertools.combinations(graph.delta(v), 2):
            here = oracle_pair_count(graph, cycles, v, e, f)
            there = oracle_pair_count(graph, cycles, v.mu(), sigma[e], sigma[f])
            if here != there:
                out.append((v, (e, f), here, there))
    return out


def assert_verdict_recounts(graph, edge_sets, require_long=False):
    verdict = pg.verify_witness(graph, edge_sets, require_long=require_long)
    cycles = verdict.cycles
    assert {frozenset(c.edges): m for c, m in cycles.items()} == dict(edge_sets)
    assert list(verdict.failures) == oracle_failures(graph, cycles)
    assert (not verdict.failures) == oracle_balanced(graph, cycles)
    long_present = any(len(eids) >= 3 for eids in edge_sets)
    assert verdict.has_long_cycle == long_present
    assert verdict.ok == (oracle_balanced(graph, cycles) and (long_present or not require_long))
    assert verdict.per_edge_usage == {
        eid: sum(m for eids, m in edge_sets.items() if eid in eids) for eid in graph.edges
    }
    return verdict


@given(st.integers(0, 300), st.sampled_from([_regular_case, _fourvertex_case]))
@settings(max_examples=30, deadline=None)
def test_verdict_matches_brute_force_recount(seed, case):
    graph, found = case(seed)
    assert assert_verdict_recounts(graph, found, require_long=True).ok


def assert_hash_is_of_the_json_text(graph, edge_sets):
    verdict = pg.verify_witness(graph, edge_sets)
    cycles, usage = verdict.cycles, verdict.per_edge_usage
    blob = json.dumps(witness_to_json(graph, cycles, usage), sort_keys=True)
    ordered = {c: cycles[c] for c in sorted(cycles, key=cycle_order)}
    assert witness_hash(graph, ordered, usage) == hashlib.sha256(blob.encode()).hexdigest()[:16]


@given(st.integers(0, 300), st.sampled_from([_regular_case, _fourvertex_case]))
@settings(max_examples=30, deadline=None)
def test_witness_hash_is_the_hash_of_the_json_text(seed, case):
    assert_hash_is_of_the_json_text(*case(seed))


def test_witness_hash_sorts_usage_keys_as_strings():
    # "10" sorts before "2", and "-1" before "0", as json.dumps sorts the keys
    ids = [-12, -2, -1, 0, 2, 10, 11]
    turned = dict(zip(ids, ids[3:] + ids[:3]))
    sigma = {0: turned, 1: {img: e for e, img in turned.items()}}
    graph = pg.WhiteheadGraph(1, [(eid, (0, 1)) for eid in ids], sigma)
    bigons = {frozenset(pair): 1 + j % 3 for j, pair in enumerate(itertools.combinations(ids, 2))}
    assert_hash_is_of_the_json_text(graph, bigons)


def _bigons(graph) -> list[frozenset[int]]:
    by_ends: dict[frozenset[int], list[int]] = {}
    for eid in graph.edge_ids():
        by_ends.setdefault(frozenset(graph.edges[eid]), []).append(eid)
    return [frozenset(p) for es in by_ends.values() for p in itertools.combinations(es, 2)]


@given(
    st.integers(0, 300),
    st.sampled_from([_regular_case, _fourvertex_case]),
    st.sampled_from(["bump", "drop", "bigon"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_verifier_agrees_with_the_oracles_on_mutated_lists(seed, case, mutation, data):
    # the verifier compares only the turns it counted, with their images; the
    # oracles recount every pair at every vertex
    graph, found = case(seed)
    edge_sets = dict(found)
    listed = sorted(edge_sets, key=sorted)
    if mutation == "bump":
        eids = data.draw(st.sampled_from(listed))
        edge_sets[eids] += data.draw(st.integers(1, 3))
    elif mutation == "drop" and len(listed) > 1:
        del edge_sets[data.draw(st.sampled_from(listed))]
    elif mutation == "bigon" and _bigons(graph):
        eids = data.draw(st.sampled_from(_bigons(graph)))
        edge_sets[eids] = edge_sets.get(eids, 0) + data.draw(st.integers(1, 3))
    for require_long in (False, True):
        assert_verdict_recounts(graph, edge_sets, require_long)


# -- the decider's route --------------------------------------------------

ROUTE = ("fourvertex", "regular", "lp")


def assert_auto_takes_the_first_method_that_answers(graph, require_long=True):
    # each forced call either raises its PreconditionError or answers; auto
    # passes over exactly the ones that raise before the first that answers,
    # and, under require_long, an answer before the last that the forced LP
    # refutes, which is exactly an answer of bigons only
    passed_over, lp = [], None
    for method in ROUTE:
        try:
            forced = pg.decide(graph, method, require_long)
        except PreconditionError as exc:
            passed_over.append((method, str(exc)))
            continue
        if require_long and method != ROUTE[-1]:
            lp = lp or pg.decide(graph, "lp")
            refuted = isinstance(lp.found, Infeasible)
            assert refuted == all(len(c) == 2 for c in forced.found)
            if refuted:
                passed_over.append((method, None))  # the reason is auto's own
                continue
        break
    assert forced.method == method and forced.passed_over == ()
    auto = pg.decide(graph, "auto", require_long)
    assert [m for m, _ in auto.passed_over] == [m for m, _ in passed_over]
    assert all(want in (None, got) for (_, want), (_, got) in zip(passed_over, auto.passed_over))
    assert auto._replace(passed_over=()) == forced
    assert auto.extras["method"] == method
    return auto


@pytest.mark.parametrize(
    "name, method",
    [
        ("commutator", "fourvertex"),
        ("remark-2.4a", "lp"),
        ("remark-2.4b", "fourvertex"),
        ("example-6.1", "lp"),
        ("figure-7", "fourvertex"),
    ],
)
def test_auto_route_on_built_ins(name, method):
    kind, data = cli.load_input(name)
    graph = pg.build_whitehead_graph(data) if kind == "words" else data
    assert assert_auto_takes_the_first_method_that_answers(graph).method == method


ROUTE_GRAPHS = {
    "fourvertex": lambda seed: random_fourvertex_instance(seed, max_degree=5),
    "regular": lambda seed: random_regular_instance(seed, 3 + seed % 2, 2 + seed % 2),
    "rank2-word": lambda seed: random_word_graph(seed, 2, 6 + seed % 5),
    "rank3-word": lambda seed: random_word_graph(seed, 3, 6 + seed % 5),
}


@given(st.integers(0, 300), st.sampled_from(sorted(ROUTE_GRAPHS)), st.booleans())
@settings(max_examples=40, deadline=None)
def test_auto_route_on_random_graphs(seed, kind, require_long):
    assert_auto_takes_the_first_method_that_answers(ROUTE_GRAPHS[kind](seed), require_long)


@pytest.mark.parametrize("text", ["rank 2\nab\nAB\n", "rank 1\naa\n", "rank 2\nAAAAAA\n"])
def test_auto_passes_over_a_bigon_only_list_under_require_long(text):
    graph = words_graph(text)
    auto = assert_auto_takes_the_first_method_that_answers(graph)
    assert auto.method == "lp" and isinstance(auto.found, Infeasible)
    assert auto.passed_over[-1] == (
        "regular", "the regular list has no cycle of length at least three"
    )
    # a forced regular route, or auto without require_long, keeps the bigons
    for decision in (pg.decide(graph, "regular"), pg.decide(graph, "auto", require_long=False)):
        assert decision.method == "regular" and all(len(c) == 2 for c in decision.found)


def test_decide_refuses_an_unknown_method(refutation_graph):
    with pytest.raises(ValueError, match="unknown method 'simplex'"):
        pg.decide(refutation_graph, "simplex")
