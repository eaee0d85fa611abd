"""Tests of the benchmark's own checkers, statistics and span accounting.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import polygonality as pg  # noqa: E402
import polygonality.cli  # noqa: E402,F401
from checks import (  # noqa: E402
    CertificateError,
    check_refutation,
    check_surface,
    check_witness,
    enumerate_cycles,
    graph_of_json,
    graph_of_word,
)
from stats import nearest_rank, tail  # noqa: E402
from trace import Tracer, layer_metrics, self_times  # noqa: E402


def cli_json(tmp_path, *argv) -> tuple[int, dict]:
    out = tmp_path / "out.json"
    rc = pg.cli.main([*argv, "--out", str(out)])
    return rc, json.loads(out.read_text())


def word_file(tmp_path, word: str, rank: int = 2) -> str:
    path = tmp_path / "word.txt"
    path.write_text(f"rank {rank}\n{word}\n")
    return str(path)


# -- refutations ------------------------------------------------------------


@pytest.fixture
def refutation(tmp_path):
    word = "aaBaBaBBB"  # a(aB)^3B^2, no witness with a long cycle
    rc, data = cli_json(tmp_path, "witness", word_file(tmp_path, word), "--method", "lp", "--require-long")
    assert rc == 2 and data["infeasible"]
    graph = graph_of_word(word)
    return graph, data, enumerate_cycles(graph)


def test_genuine_refutation_passes(refutation):
    graph, data, cycles = refutation
    check_refutation(graph, data, True, cycles)


def test_refutation_rejects_tampered_farkas_value(refutation):
    graph, data, cycles = refutation
    for entry in data["farkas"]:
        entry["value"] = "0"
    with pytest.raises(CertificateError, match="Farkas values fail"):
        check_refutation(graph, data, True, cycles)


def test_refutation_rejects_nonzero_normalization_dual(refutation):
    graph, data, cycles = refutation
    data["normalization_dual"] = "1/7"
    with pytest.raises(CertificateError, match="not exactly 0"):
        check_refutation(graph, data, True, cycles)


def test_refutation_must_answer_the_question_asked(refutation):
    graph, data, cycles = refutation
    with pytest.raises(CertificateError):
        check_refutation(graph, data, False, cycles)


def test_cycle_enumeration_matches_library():
    for word, rank in (("aaBaBaBBB", 2), ("abcABC", 3), ("aBaabbcAcB", 3)):
        graph = pg.build_whitehead_graph(pg.parse_word_list(f"rank {rank}\n{word}\n"))
        ours = enumerate_cycles(graph_of_word(word))
        assert sorted(map(sorted, ours)) == sorted(sorted(c.edges) for c in pg.enumerate_cycles(graph))


# -- witnesses ----------------------------------------------------------------


@pytest.fixture
def fourvertex_witness(tmp_path):
    word = "aBaab"  # aBa^2b, polygonal through the four-vertex construction
    rc, data = cli_json(tmp_path, "witness", word_file(tmp_path, word), "--require-long")
    assert rc == 0 and len(data["cycles"]) > 1
    return graph_of_word(word), data


def test_genuine_witness_passes(fourvertex_witness):
    graph, data = fourvertex_witness
    check_witness(graph, data, require_long=True)


def test_witness_rejects_tampered_multiplicity(fourvertex_witness):
    graph, data = fourvertex_witness
    cycle = data["cycles"][-1]
    cycle["multiplicity"] += 1
    for e in cycle["edges"]:  # keep the usage table consistent: only balance can catch it
        data["per_edge_usage"][str(e)] += 1
    with pytest.raises(CertificateError, match="covered"):
        check_witness(graph, data, require_long=True)


@pytest.mark.parametrize("bad", [1.5, True, "1", 0, -1])
def test_witness_rejects_non_integer_multiplicity(fourvertex_witness, bad):
    graph, data = fourvertex_witness
    data["cycles"][0]["multiplicity"] = bad
    with pytest.raises(CertificateError, match="multiplicity"):
        check_witness(graph, data, require_long=True)


def test_witness_rejects_repeated_edge(fourvertex_witness):
    graph, data = fourvertex_witness
    edges = data["cycles"][0]["edges"]
    edges.append(edges[0])
    with pytest.raises(CertificateError, match="distinct"):
        check_witness(graph, data, require_long=True)


def test_word_graph_matches_library():
    word = "aBaabbcAcB"
    data = pg.whitehead.graph_to_json(pg.build_whitehead_graph(pg.parse_word_list(f"rank 3\n{word}\n")))
    assert graph_of_json(data) == graph_of_word(word)


def test_surface_check(tmp_path):
    path = word_file(tmp_path, "abAB")
    rc, data = cli_json(tmp_path, "surface", path)
    assert rc == 0
    check_surface(data, ["abAB"])
    data["boundary_words"][0]["word"] = "aabb"
    with pytest.raises(CertificateError, match="not word"):
        check_surface(data, ["abAB"])
    data["chi_S_minus_m"] = 0
    with pytest.raises(CertificateError, match="not negative"):
        check_surface(data, ["abAB"])


# -- statistics ---------------------------------------------------------------


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 101))) == (90.0, 90, 10)
    assert tail(list(range(1, 41))) == (75.0, 30, 10)
    assert tail(list(range(1, 1001))) == (99.0, 990, 10)
    # 39 samples: p75 leaves only 9 beyond, so p50 is the tail
    assert tail(list(range(1, 40))) == (50.0, 20, 19)


def test_tail_below_twenty_samples_falls_back_to_the_median():
    p, value, beyond = tail(list(range(1, 11)))
    assert (p, value, beyond) == (50.0, 5, 5)


def test_nearest_rank_is_order_free():
    assert nearest_rank([5, 1, 4, 2, 3], 50) == (3, 2)


# -- spans --------------------------------------------------------------------


def span(name, parent, start, end):
    return [name, parent, start, end, None]


def test_self_time_subtracts_children():
    spans = [
        span("a.root", -1, 0, 100),
        span("b.child", 0, 10, 30),
        span("c.grandchild", 1, 12, 20),
        span("b.child", 0, 40, 50),
    ]
    assert self_times(spans) == [70, 12, 8, 10]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        span("a.root", -1, 0, 100),
        span("b.x", 0, 10, 40),
        span("b.y", 0, 30, 60),  # overlaps b.x by 10
        span("b.z", 0, 90, 120),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_tracer_nests_wrapped_calls():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner_w = tracer.wrap("m.inner", inner)
    outer_w = tracer.wrap("m.outer", lambda x: inner_w(inner_w(x)))
    tracer.enabled = True
    assert outer_w(1) == 3
    names = [(s[0], s[1]) for s in tracer.spans]
    assert names == [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)]
    tracer.enabled = False
    outer_w(1)
    assert len(tracer.spans) == 3


def test_install_wraps_imported_names_and_restores_them(tmp_path):
    original = pg.witness.maximize_homogeneous
    tracer = Tracer()
    tracer.install(pg)
    try:
        assert pg.witness.maximize_homogeneous is pg.simplex.maximize_homogeneous
        assert pg.witness.maximize_homogeneous is not original
        tracer.enabled = True
        rc, _ = cli_json(tmp_path, "witness", word_file(tmp_path, "aaBaBaBBB"), "--method", "lp", "--require-long")
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert rc == 2 and pg.witness.maximize_homogeneous is original
    metrics = layer_metrics(tracer.spans, processed=1, scale=1.0)
    assert metrics["witness.refuted"] == (1.0, "ratio")
    assert metrics["simplex.rows"][0] > 0 and metrics["witness.cycles"][0] > 0
    assert metrics["cli.self_s"][0] > 0
    assert tracer.spans[0][0] == "cli.main"


# -- work budget --------------------------------------------------------------


def test_work_meter_counts_pivots_and_stops_over_budget():
    import run

    A, c = [[1, -1, 0], [0, 1, -1]], [1, 0, 0]
    expected = pg.simplex.maximize_homogeneous(A, c)
    meter = run.WorkMeter(pg.simplex, budget=10**6)
    assert meter.available
    meter.install()
    try:
        meter.start()
        assert pg.simplex.maximize_homogeneous(A, c) == expected
        meter.stop()
        assert meter.cells > 0 and meter.peak == meter.cells
        used, meter.budget = meter.cells, meter.cells - 1
        for _ in range(2):  # the same work stops at the same point every time
            meter.start()
            with pytest.raises(run.OverBudget, match="work budget"):
                pg.simplex.maximize_homogeneous(A, c)
            assert meter.cells > meter.budget and meter.cells <= used
    finally:
        meter.uninstall()
    assert "pivot" in vars(pg.simplex._Tableau) and pg.simplex._Tableau.pivot is meter._original


# -- contract -----------------------------------------------------------------


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-words", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_run_prints():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = layer_metrics([], processed=1, scale=1.0)
    layers["trace.overhead_ratio"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
