import json
from collections import Counter

import pytest

from polygonality import cli, regular
from polygonality.errors import PreconditionError
from polygonality.whitehead import Multigraph, build_whitehead_graph, graph_to_json
from polygonality.words import parse_word_list


def run_cli(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_analyze_refutation_example(tmp_path, capsys):
    code = run_cli("analyze", "example-6.1", "--format", "text")
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda(a1,a1-) = 3   deg(a1) = 4" in out
    assert "minimal      = False" in out


def test_analyze_json_output(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("analyze", "commutator", "--out", str(out)) == 0
    data = read_json(out)
    assert data["minimal"] and data["diskbusting"] and data["regular_k"] == 2


def test_witness_lp_refuted_exit_code(tmp_path):
    out = tmp_path / "w.json"
    code = run_cli(
        "witness", "example-6.1", "--method", "lp", "--require-long", "--out", str(out)
    )
    assert code == 2
    data = read_json(out)
    assert data["infeasible"] is True and data["farkas"]


def test_witness_methods_agree(tmp_path):
    for method in ("fourvertex", "lp", "auto"):
        out = tmp_path / f"w-{method}.json"
        code = run_cli(
            "witness", "remark-2.4b", "--method", method, "--require-long",
            "--out", str(out),
        )
        assert code == 0
        data = read_json(out)
        assert data["long_cycle_present"] is True


def test_witness_regular_method(tmp_path):
    out = tmp_path / "w.json"
    code = run_cli("witness", "commutator", "--method", "regular", "--out", str(out))
    assert code == 0
    data = read_json(out)
    assert data["method"] == "regular"
    assert data["coloring"]["k"] == 2 and data["coloring"]["ell"] == 2


def test_verify_accepts_emitted_witness(tmp_path):
    wit = tmp_path / "w.json"
    assert run_cli("witness", "remark-2.4b", "--require-long", "--out", str(wit)) == 0
    code = run_cli("verify", "remark-2.4b", str(wit), "--require-long")
    assert code == 0


def test_verify_rejects_mismatched_graph(tmp_path):
    wit = tmp_path / "w.json"
    assert run_cli("witness", "commutator", "--out", str(wit)) == 0
    assert run_cli("verify", "remark-2.4b", str(wit)) == 1  # hash mismatch is an error


def test_verify_flags_unbalanced_witness(tmp_path):
    import polygonality as pg
    from polygonality.cli import load_input
    from polygonality.whitehead import build_whitehead_graph
    from polygonality.witness import make_cycle, witness_to_json

    _, wl = load_input("example-6.1")
    graph = build_whitehead_graph(wl)
    parallel = [
        eid
        for eid in graph.delta(pg.VertexId(2, 1))
        if graph.edges[eid].other(pg.VertexId(2, 1)) == pg.VertexId(2, -1)
    ]
    bad = {make_cycle(graph, parallel): 1}
    wit = tmp_path / "bad.json"
    wit.write_text(json.dumps(witness_to_json(graph, bad)), encoding="utf-8")
    code = run_cli("verify", "example-6.1", str(wit), "--out", str(tmp_path / "v.json"))
    assert code == 2
    assert read_json(tmp_path / "v.json")["failures"]


def test_surface_certificate(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli("surface", "commutator", "--out", str(out)) == 0
    data = read_json(out)
    assert data["chi_S_minus_m"] == -1
    assert data["chi_S_doubleprime"] == -2
    assert data["positive_degrees"] == {"0": 1}


def test_surface_on_word_file(tmp_path):
    words = tmp_path / "list.txt"
    words.write_text("rank 2\naBa^2b\n", encoding="utf-8")
    out = tmp_path / "cert.json"
    assert run_cli("surface", str(words), "--out", str(out)) == 0
    assert read_json(out)["chi_S_minus_m"] < 0


def test_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert run_cli("export-dot", "example-6.1", "--out", str(out)) == 0
    dot = out.read_text(encoding="utf-8")
    assert dot.startswith("graph whitehead") and 'label="w0:p0"' in dot
    sigma = read_json(str(out) + ".sigma.json")
    assert "a1" in sigma and len(sigma["a1"]) == 4


def test_gen_round_trip(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen", "--kind", "fourvertex", "--seed", "5", "--out", str(out)) == 0
    wit = tmp_path / "w.json"
    assert run_cli("witness", str(out), "--require-long", "--out", str(wit)) == 0
    assert run_cli("verify", str(out), str(wit), "--require-long") == 0


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "--kind", "regular", "--seed", "9", "--k", "3", "--pairs", "2", "--out", str(a))
    run_cli("gen", "--kind", "regular", "--seed", "9", "--k", "3", "--pairs", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    run_cli("gen", "--kind", "regular", "--seed", "10", "--k", "3", "--pairs", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_witness_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("witness", "remark-2.4b", "--require-long", "--out", str(a))
    run_cli("witness", "remark-2.4b", "--require-long", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_unknown_input_is_an_error(capsys):
    assert run_cli("analyze", "no-such-instance") == 1
    assert "built-ins" in capsys.readouterr().err


def test_remark_builtin_requires_suffix(capsys):
    assert run_cli("analyze", "remark-2.4") == 1
    assert "remark-2.4a" in capsys.readouterr().err


def test_graph_json_with_a_repeated_key_is_an_error(tmp_path, capsys):
    # json.loads keeps the last copy of a key, so a junk first sigma table would pass
    data = graph_to_json(build_whitehead_graph(parse_word_list("rank 2\nabAB\n")))
    sigma = json.dumps(data["sigma"])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(data), encoding="utf-8")
    bad.write_text(
        json.dumps({**data, "sigma": 0}).replace("0}", '{"a1": {"junk": 1}, ' + sigma[1:] + "}"),
        encoding="utf-8",
    )
    assert run_cli("analyze", str(good), "--out", str(tmp_path / "r.json")) == 0
    assert run_cli("analyze", str(bad), "--out", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err.startswith("error: malformed JSON: key 'a1' is repeated")


def test_witness_json_with_a_repeated_key_is_an_error(tmp_path, capsys):
    wit = tmp_path / "w.json"
    assert run_cli("witness", "commutator", "--out", str(wit)) == 0
    assert run_cli("verify", "commutator", str(wit), "--out", str(tmp_path / "v.json")) == 0
    twice = tmp_path / "twice.json"
    # the first copy, an empty list, would have been dropped silently
    twice.write_text('{"cycles": [],' + wit.read_text(encoding="utf-8")[1:], encoding="utf-8")
    for argv in (
        ("verify", "commutator", str(twice)),
        ("surface", "commutator", "--witness", str(twice)),
    ):
        assert run_cli(*argv, "--out", str(tmp_path / "v.json")) == 1
        assert capsys.readouterr().err.startswith("error: malformed JSON: key 'cycles' is repeated")


def test_undecodable_input_is_an_error(tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    assert run_cli("analyze", str(binary)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_graph_json_input_round_trip(tmp_path):
    out = tmp_path / "g.json"
    run_cli("gen", "--kind", "fourvertex", "--seed", "3", "--out", str(out))
    report = tmp_path / "r.json"
    assert run_cli("analyze", str(out), "--out", str(report)) == 0
    assert read_json(report)["minimal"] is True


def test_selftest(capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == 5 and "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "commutator", "--format", "text"),
        ("surface", "commutator", "--format", "json"),
        ("export-dot", "commutator", "--format", "text"),
        ("analyze", "commutator", "--format", "dot"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_format_is_an_analyze_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    count_calls(monkeypatch, Multigraph, "local_edge_connectivity", counts)
    count_calls(monkeypatch, Multigraph, "is_connected", counts)
    count_calls(monkeypatch, regular, "is_k_graph", counts)
    return counts


def test_auto_computes_the_four_vertex_hypothesis_once(tmp_path, calls):
    # one max-flow per vertex pair, on the input graph and on its one peeled graph
    assert run_cli("witness", "remark-2.4b", "--out", str(tmp_path / "w.json")) == 0
    assert read_json(tmp_path / "w.json")["method"] == "fourvertex"
    assert calls["local_edge_connectivity"] == 4 and calls["is_connected"] == 2


def test_auto_computes_the_odd_cut_check_once(tmp_path, calls):
    graph = tmp_path / "g.json"
    run_cli("gen", "--kind", "regular", "--seed", "9", "--k", "3", "--pairs", "3", "--out", str(graph))
    calls.clear()  # the generator checks its own output
    assert run_cli("witness", str(graph), "--out", str(tmp_path / "w.json")) == 0
    assert read_json(tmp_path / "w.json")["method"] == "regular"
    # a feasible coloring certifies the odd-cut bound: no exhaustive check
    assert calls["local_edge_connectivity"] == 0 and calls["is_k_graph"] == 0
    # an infeasible coloring runs the check once, to name the violating set
    words = tmp_path / "triangles.txt"
    words.write_text("rank 3\naBcAbC\n", encoding="utf-8")
    assert run_cli("witness", str(words), "--method", "regular", "--out", str(tmp_path / "t.json")) == 1
    assert calls["is_k_graph"] == 1


@pytest.mark.parametrize(
    "argv, method, verified",
    [
        (("remark-2.4b", "--require-long"), "fourvertex", 1),
        (("example-6.1",), None, 0),  # refuted: nothing to verify
        (("remark-2.4b", "--method", "lp", "--require-long"), "lp", 1),
        (("commutator", "--method", "regular"), "regular", 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_witness_runs_the_verifier_once(tmp_path, monkeypatch, argv, method, verified):
    from polygonality import fourvertex, witness

    counts = Counter()
    for owner in (witness, fourvertex, regular):  # every module that may call it
        if hasattr(owner, "verify_witness"):
            count_calls(monkeypatch, owner, "verify_witness", counts)
    out = tmp_path / "w.json"
    code = run_cli("witness", *argv, "--out", str(out))
    assert code == (0 if method else 2)
    assert read_json(out).get("method") == method
    assert counts["verify_witness"] == verified


def test_surface_runs_the_verifier_once(tmp_path, monkeypatch):
    # the constructed list is checked by build_surface's verifier, not also by the CLI
    from polygonality import fourvertex, surface, witness

    counts = Counter()
    for owner in (witness, fourvertex, regular, surface):
        if hasattr(owner, "verify_witness"):
            count_calls(monkeypatch, owner, "verify_witness", counts)
    assert run_cli("surface", "remark-2.4b", "--out", str(tmp_path / "s.json")) == 0
    assert counts["verify_witness"] == 1


def test_auto_moves_on_when_a_precondition_fails(tmp_path):
    # aBcAbC: a 2-regular rank-3 graph of two disjoint triangles, so the odd
    # set {a, b, c} is left by no edge; the two triangles still balance
    text = "rank 3\naBcAbC\n"
    words = tmp_path / "triangles.txt"
    words.write_text(text, encoding="utf-8")
    graph = build_whitehead_graph(parse_word_list(text))
    with pytest.raises(PreconditionError, match="odd set"):
        regular.regular_witness(graph)
    out = tmp_path / "w.json"
    assert run_cli("witness", str(words), "--method", "regular", "--out", str(out)) == 1
    assert run_cli("witness", str(words), "--out", str(out)) == 0
    assert read_json(out)["method"] == "lp"


def test_simplex_work_is_pinned(tmp_path, monkeypatch):
    # pivots and tableau entries (rows x columns) they touch, the unit of the
    # benchmark's work budget, per `witness` command; captured on the Fraction
    # kernel, so any kernel must pivot on tableaux of the same shape
    from polygonality import simplex

    work = Counter()
    pivot = simplex._Tableau.pivot

    def counted(tab, r, col):
        work["pivots"] += 1
        work["cells"] += len(tab.rows) * tab.n
        return pivot(tab, r, col)

    monkeypatch.setattr(simplex._Tableau, "pivot", counted)
    regular_graph = tmp_path / "regular-9.json"
    run_cli("gen", "--kind", "regular", "--seed", "9", "--k", "3", "--pairs", "2", "--out", str(regular_graph))
    triangles = tmp_path / "triangles.txt"  # rank 3, solved by the LP with a positive optimum
    triangles.write_text("rank 3\naBcAbC\nabcACB\n", encoding="utf-8")
    seen = {}
    for name, spec in [
        ("example-6.1", "example-6.1"),
        ("remark-2.4a", "remark-2.4a"),
        ("regular-9", str(regular_graph)),
        ("triangles", str(triangles)),
    ]:
        work.clear()
        run_cli("witness", spec, "--out", str(tmp_path / "w.json"))
        seen[name] = (work["pivots"], work["cells"])
    assert seen == {
        "example-6.1": (1, 416),
        "remark-2.4a": (0, 0),
        "regular-9": (5, 420),
        "triangles": (11, 3575),
    }
    assert sum(cells for name, (_, cells) in seen.items() if name != "triangles") == 836
