import argparse
import hashlib
import importlib
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from polygonality import cli, regular, witness
from polygonality.errors import PreconditionError
from polygonality.generators import random_fourvertex_instance, random_regular_instance
from polygonality.whitehead import Multigraph, build_whitehead_graph, graph_hash, graph_to_json
from polygonality.witness import decide, witness_from_json
from polygonality.words import make_word_list, parse_word_list


def run_cli(*argv):
    return cli.main(list(argv))


def library_env():
    """The environment of a new interpreter that imports this checkout's library."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def fresh_cli(*argv):
    """Exit status, standard output and standard error of a command run in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "polygonality.cli", *argv],
        env=library_env(),
        capture_output=True,
        text=True,
    )
    return done.returncode, done.stdout, done.stderr


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_analyze_refutation_example(tmp_path, capsys):
    code = run_cli("analyze", "example-6.1", "--format", "text")
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda(a1,a1-) = 3   deg(a1) = 4" in out
    assert "minimal      = False" in out


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_outputs_get_the_mode_open_gives_a_new_file(tmp_path, umask, mode):
    # written to a temporary file first, an output once kept its 0600
    old = os.umask(umask)
    try:
        assert run_cli("witness", "commutator", "--out", str(tmp_path / "w.json")) == 0
        verify = ("verify", "commutator", str(tmp_path / "w.json"))
        assert run_cli(*verify, "--out", str(tmp_path / "v.json")) == 0
        assert run_cli("export-dot", "commutator", "--out", str(tmp_path / "c.dot")) == 0
    finally:
        os.umask(old)
    names = ["c.dot", "c.dot.sigma.json", "v.json", "w.json"]
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode


def test_a_failed_write_keeps_the_old_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "w.json"
    out.write_text("old", encoding="utf-8")

    def refuse(src, dst):
        raise PermissionError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    assert run_cli("witness", "commutator", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: cannot rename ")
    assert out.read_text(encoding="utf-8") == "old"
    assert os.listdir(tmp_path) == ["w.json"]  # no temporary file is left


def test_a_taken_temporary_name_is_passed_over(tmp_path, monkeypatch):
    lengths = []

    def token(n):  # zeros on the first call, ones on the next
        lengths.append(n)
        return bytes([len(lengths) > 1]) * n

    monkeypatch.setattr(os, "urandom", token)
    stray = tmp_path / f".tmp-{'00' * 8}.part"
    stray.write_text("stray", encoding="utf-8")
    assert run_cli("witness", "commutator", "--out", str(tmp_path / "w.json")) == 0
    assert lengths == [8, 8]
    assert stray.read_text(encoding="utf-8") == "stray"
    assert sorted(os.listdir(tmp_path)) == [stray.name, "w.json"]
    assert read_json(tmp_path / "w.json")["method"] == "fourvertex"


def test_a_write_with_every_temporary_name_taken_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    (tmp_path / f".tmp-{'00' * 8}.part").write_text("stray", encoding="utf-8")
    out = tmp_path / "w.json"
    assert run_cli("witness", "commutator", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: no free temporary name beside {out} in {cli._NAME_TRIES} tries\n"
    )
    assert not out.exists()


def test_an_output_in_a_missing_directory_is_an_error(tmp_path, capsys):
    assert run_cli("witness", "commutator", "--out", str(tmp_path / "no" / "w.json")) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("text", ["rank 2\nab\nAB\n", "rank 1\naa\n"], ids=["ab-AB", "aa"])
def test_a_bigon_only_list_gives_way_to_the_refutation(tmp_path, text):
    # every active vertex has a single neighbour, so no list has a long cycle:
    # both commands write the LP's refutation, while a forced regular route
    # still writes its bigons
    spec, out = tmp_path / "in.txt", tmp_path / "out.json"
    spec.write_text(text, encoding="utf-8")
    for argv in (("witness", str(spec), "--require-long"), ("surface", str(spec))):
        assert run_cli(*argv, "--out", str(out)) == 2
        data = read_json(out)
        assert data["infeasible"] is True and data["require_long"] is True
    argv = ("witness", str(spec), "--method", "regular", "--require-long", "--out", str(out))
    assert run_cli(*argv) == 2
    data = read_json(out)
    assert data["method"] == "regular" and data["long_cycle_present"] is False
    assert run_cli("surface", str(spec), "--method", "regular", "--out", str(out)) == 1


def test_a_long_bigon_only_word_is_refuted_without_the_simplex(tmp_path, monkeypatch):
    # rank 1 / a^200 has C(200, 2) bigons and no long cycle: zero multipliers
    # refute it, so no balance row is built and no simplex runs
    def fail(*args):
        raise AssertionError("the LP was solved")

    monkeypatch.setattr(witness, "_constraint_rows", fail)
    monkeypatch.setattr(witness, "maximize_homogeneous", fail)
    spec, out = tmp_path / "in.txt", tmp_path / "out.json"
    spec.write_text("rank 1\n" + "a" * 200 + "\n", encoding="utf-8")
    assert run_cli("surface", str(spec), "--out", str(out)) == 2
    data = read_json(out)
    assert data["infeasible"] is True and data["farkas"] == []


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


def test_a_regular_list_is_divided_with_its_counts(tmp_path, monkeypatch):
    # no regular list met so far has a gcd above 1, so a tripled one stands in
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps(graph_to_json(random_regular_instance(9, 4, 5))), encoding="utf-8")
    plain, tripled = tmp_path / "plain.json", tmp_path / "tripled.json"
    assert run_cli("witness", str(spec), "--method", "regular", "--out", str(plain)) == 0
    built = regular.regular_witness

    def triple(graph):
        rw = built(graph)
        cycles = {eids: 3 * m for eids, m in rw.cycles.items()}
        return rw._replace(cycles=cycles, m1=3 * rw.m1, m2=3 * rw.m2)

    monkeypatch.setattr(regular, "regular_witness", triple)
    assert run_cli("witness", str(spec), "--method", "regular", "--out", str(tripled)) == 0
    assert tripled.read_bytes() == plain.read_bytes()
    data = read_json(plain)
    assert set(data["per_edge_usage"].values()) == {data["m1"]}


def test_verify_accepts_emitted_witness(tmp_path):
    wit = tmp_path / "w.json"
    assert run_cli("witness", "remark-2.4b", "--require-long", "--out", str(wit)) == 0
    code = run_cli("verify", "remark-2.4b", str(wit), "--require-long")
    assert code == 0


def test_verify_rejects_mismatched_graph(tmp_path):
    wit = tmp_path / "w.json"
    assert run_cli("witness", "commutator", "--out", str(wit)) == 0
    assert run_cli("verify", "remark-2.4b", str(wit)) == 1  # hash mismatch is an error


@pytest.mark.parametrize(
    "argv",
    [["verify", "remark-2.4b", "{}"], ["surface", "remark-2.4b", "--witness", "{}"]],
    ids=["verify", "surface"],
)
def test_a_witness_for_another_graph_is_an_error_not_a_failed_check(tmp_path, capsys, argv):
    # no balance check runs on the file, so the exit is 1 (error), not 2
    wit = tmp_path / "w.json"
    assert run_cli("witness", "commutator", "--out", str(wit)) == 0
    capsys.readouterr()
    assert run_cli(*[str(wit) if a == "{}" else a for a in argv]) == 1
    assert capsys.readouterr() == ("", "error: witness was produced for a different graph\n")


def test_verify_flags_unbalanced_witness(tmp_path):
    import polygonality as pg
    from polygonality.cli import load_input
    from polygonality.whitehead import build_whitehead_graph
    from polygonality.witness import verify_witness, witness_to_json

    _, wl = load_input("example-6.1")
    graph = build_whitehead_graph(wl)
    parallel = [
        eid
        for eid in graph.delta(pg.VertexId(2, 1))
        if pg.VertexId(2, -1) in graph.edges[eid]
    ]
    verdict = verify_witness(graph, {frozenset(parallel): 1})
    wit = tmp_path / "bad.json"
    payload = witness_to_json(graph, verdict.cycles, verdict.per_edge_usage)
    wit.write_text(json.dumps(payload), encoding="utf-8")
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


def test_surface_names_the_unbalanced_pairs(tmp_path, capsys):
    # the first three failures reach standard error, each vertex by its name
    graph = build_whitehead_graph(parse_word_list("rank 2\naBa^2b\n"))
    wit = tmp_path / "w.json"
    cycles = [{"edges": [0, 2, 4], "multiplicity": 1}]
    payload = {"graph_hash": graph_hash(graph), "cycles": cycles}
    wit.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli("surface", "remark-2.4b", "--witness", str(wit)) == 1
    assert capsys.readouterr().err == (
        "error: witness fails verification: a1 [0, 2]: 1 against 0; a1 [0, 3]: 0 against 1; "
        "a1- [1, 4]: 0 against 1\n"
    )


def test_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert run_cli("export-dot", "example-6.1", "--out", str(out)) == 0
    dot = out.read_text(encoding="utf-8")
    assert dot.startswith("graph whitehead") and 'label="w0:p0"' in dot
    sigma = read_json(str(out) + ".sigma.json")
    assert "a1" in sigma and len(sigma["a1"]) == 4


# sha256 of the DOT file: edges of a word list's graph are labelled w<word>:p<position>,
# numbered in list order, and those of a graph-JSON input e<id>
DOT_SHA256 = {
    "example-6.1": "f8368014f3b04129015424b69985185cb2b7351213bc420f5bff559cdc602550",
    "figure-7": "c0cf3472481ad4d27958b22dafa3b2ba5de43df2232c0b80d2247efcd187d126",
    "two words": "9f16a52d3fad6fddb5055f729934a71d7a459beaade5c11f888cbb6cdffb3e5e",
}


@pytest.mark.parametrize("name", DOT_SHA256)
def test_export_dot_bytes(tmp_path, name):
    two = tmp_path / "two.txt"
    two.write_text("rank 2\nabAB\naBa^2b\n", encoding="utf-8")
    out = tmp_path / "g.dot"
    assert run_cli("export-dot", str(two) if name == "two words" else name, "--out", str(out)) == 0
    dot = out.read_bytes()
    # the second word's labels start after the first word's 4 edges
    assert (b'"a1" -- "a2" [label="w1:p0"];' in dot) == (name == "two words")
    assert hashlib.sha256(dot).hexdigest() == DOT_SHA256[name]


def test_export_dot_to_stdout_writes_both_files(tmp_path, capsys):
    # without --out the DOT text is followed by its sigma table on stdout
    out = tmp_path / "c.dot"
    assert run_cli("export-dot", "commutator", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("export-dot", "commutator") == 0
    expected = out.read_bytes() + (tmp_path / "c.dot.sigma.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


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


# a minimal, diskbusting rank-2 word of length 128 whose witness lists 2,687 cycles
LONG_FOUR_VERTEX_WORD = (
    "BAABBaababAAAbAAbbabAbaaBAbaabABaaBabABAAbaBAAbbAbABaBaBBABBBBB"
    "abbbbABBaBAbbaBaaaaabAAbbabABABaBabaBABabAbbabaaBaBaBABBABaBBaBaa"
)
LONG_FOUR_VERTEX_SHA256 = {
    "witness": "b376d67f9d6762b7e7eb030522627393946678fe5d8ac5cf22f4ee74e15f65c1",
    "verify": "b743bafc0e4c271d7f5167b906c193e73cd4db45ff6bfb346b652be4032ba671",
    "surface": "616a771d7d7ca8a005b065226bb360c1cb3dc36fd931798ce37f316567ca0cf1",
}


def test_long_four_vertex_word_bytes(tmp_path):
    word = tmp_path / "word.txt"
    word.write_text(f"rank 2\n{LONG_FOUR_VERTEX_WORD}\n", encoding="utf-8")
    wit = tmp_path / "witness.json"
    commands = {
        "witness": ("witness", str(word), "--require-long"),
        "verify": ("verify", str(word), str(wit)),
        "surface": ("surface", str(word)),
    }
    for name, argv in commands.items():
        out = wit if name == "witness" else tmp_path / f"{name}.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == LONG_FOUR_VERTEX_SHA256[name], name
    assert len(read_json(wit)["cycles"]) == 2687


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


# the commutator's sigma tables, with one of a1's changed: edges 0 and 1 are at a1
SIGMA_ERRORS = {
    "image at another vertex": (
        {"0@a1": "0@a2-", "1@a1": "2@a1-"},
        "sigma('0@a1') = '0@a2-' does not land at the paired vertex a1-",
    ),
    "empty table": ({}, "malformed graph JSON: sigma table of a1 is empty"),
    "absent table": (None, "connecting map at a1 not total: missing=['0@a1', '1@a1'] extra=[]"),
}


@pytest.mark.parametrize("table, line", SIGMA_ERRORS.values(), ids=SIGMA_ERRORS)
def test_connecting_map_errors_name_darts_as_the_file_does(tmp_path, capsys, table, line):
    data = graph_to_json(build_whitehead_graph(parse_word_list("rank 2\nabAB\n")))
    assert data["sigma"]["a1"] == {"0@a1": "3@a1-", "1@a1": "2@a1-"}
    if table is None:
        del data["sigma"]["a1"]
    else:
        data["sigma"]["a1"] = table
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("analyze", str(bad)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {line}\n"


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


@pytest.fixture(scope="module")
def refutation_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("refutation") / "e.json"
    assert run_cli("witness", "example-6.1", "--method", "lp", "--require-long", "--out", str(path)) == 2
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "text, message",
    [
        (None, 'the JSON is a refutation ("infeasible": true), not a cycle-list witness'),
        ("[1, 2]", "malformed witness JSON: expected an object, got list"),
        ('"cycles"', "malformed witness JSON: expected an object, got str"),
        ("{}", "malformed witness JSON: no cycles list"),
        ('{"cycles": null}', "malformed witness JSON: no cycles list"),
        ('{"cycles": {"edges": [0, 1]}}', "malformed witness JSON: cycles must be a list, got dict"),
        ('{"cycles": 3}', "malformed witness JSON: cycles must be a list, got int"),
        (
            '{"cycles": [{"edges": 3, "multiplicity": 1}]}',
            "malformed witness JSON: cycle edges must be a list, got int",
        ),
    ],
    ids=["refutation", "array", "string", "no-cycles", "null-cycles", "object-cycles",
         "number-cycles", "number-edges"],
)
@pytest.mark.parametrize("command", ["verify", "surface"])
def test_a_witness_file_of_the_wrong_shape_is_named(
    tmp_path, capsys, refutation_text, text, message, command
):
    # each shape gets its own message and exit 1, with no Python exception
    # text (a KeyError's key, a TypeError's wording) standing in for it
    wit = tmp_path / "w.json"
    wit.write_text(refutation_text if text is None else text, encoding="utf-8")
    argv = ["verify", "example-6.1", str(wit)] if command == "verify" else \
        ["surface", "example-6.1", "--witness", str(wit)]
    assert run_cli(*argv, "--out", str(tmp_path / "out.json")) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


DEEP_ARRAY = "[" * 5000 + "]" * 5000
DEEP_JSON = "error: malformed JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "argv, name, text, err",
    [
        (("analyze",), "g.json", '{"rank": ' + DEEP_ARRAY + "}", DEEP_JSON),
        (("verify", "commutator"), "w.json", '{"cycles": ' + DEEP_ARRAY + "}", DEEP_JSON),
        (
            ("analyze",),
            "words.txt",
            "rank 2\n" + "(" * 3000 + "a" + ")" * 3000 + "\n",
            "error: line 2: parentheses nested too deeply\n",
        ),
    ],
    ids=["graph json", "witness json", "word file"],
)
def test_deeply_nested_input_is_an_error(tmp_path, capsys, argv, name, text, err):
    # the decoders recurse once per level, past Python's recursion limit
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert run_cli(*argv, str(path)) == 1
    assert capsys.readouterr().err == err


BIG = "9" * 5000  # past the digits int() reads by default
COMMUTATOR_JSON = json.dumps(graph_to_json(build_whitehead_graph(parse_word_list("rank 2\nabAB\n"))))


@pytest.mark.parametrize(
    "argv, name, text, err",
    [
        (("analyze",), "words.txt", f"rank {BIG}\nab\n", "line 1: the rank has too many digits"),
        (("analyze",), "g.json", f'{{"rank": {BIG}}}', "malformed JSON: a number has too many digits"),
        (
            ("verify", "commutator"),
            "w.json",
            f'{{"cycles": [{BIG}]}}',
            "malformed JSON: a number has too many digits",
        ),
        (
            ("analyze",),
            "g.json",
            COMMUTATOR_JSON.replace('"u": "a1"', f'"u": "a{BIG}"', 1),
            "bad name 'a99999999999999999999999'...: its number has too many digits",
        ),
        (
            ("analyze",),
            "g.json",
            COMMUTATOR_JSON.replace('"0@a1"', f'"{BIG}@a1"', 1),
            "bad name '999999999999999999999999'...: its number has too many digits",
        ),
    ],
    ids=["rank header", "graph json", "witness json", "vertex name", "dart name"],
)
def test_a_number_past_the_int_digit_limit_is_an_error(tmp_path, capsys, argv, name, text, err):
    # int() refuses such a digit string with a ValueError, once a traceback
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert run_cli(*argv, str(path)) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


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


def test_selftest_fails_under_python_O_when_the_verifier_rejects():
    # the checks are explicit, so `python -O` keeps them; each failure names its reason
    script = """
import sys
from polygonality import cli, witness
verify = witness.verify_witness

def rejecting(*a, **k):
    v = verify(*a, **k)
    return witness.WitnessVerdict(False, v.failures, v.has_long_cycle, v.per_edge_usage, v.cycles)

witness.verify_witness = rejecting
sys.exit(cli.main(["selftest"]))
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=library_env(), capture_output=True, text=True
    )
    assert done.returncode == 1, done.stderr
    failed = {}
    for line in done.stdout.splitlines():
        if line.startswith("FAIL "):
            name, _, reason = line[5:].partition(": ")
            failed[name] = reason
    assert set(failed) == {"commutator certificate", "remark-2.4b polygonal", "figure-7 witness"}
    assert all(reason.strip() for reason in failed.values()), failed
    assert done.stdout.count("ok   ") == 2


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
    count_calls(monkeypatch, Multigraph, "remove_edges", counts)
    count_calls(monkeypatch, regular, "is_k_graph", counts)
    return counts


def test_auto_computes_the_four_vertex_hypothesis_once(tmp_path, calls):
    # one max-flow per vertex pair, on the input graph only: the peeled graphs
    # keep the hypothesis by the peeling lemma, and only the bottom one is built
    assert run_cli("witness", "remark-2.4b", "--out", str(tmp_path / "w.json")) == 0
    assert read_json(tmp_path / "w.json")["method"] == "fourvertex"
    assert calls["local_edge_connectivity"] == 2 and calls["is_connected"] == 1
    assert calls["remove_edges"] == 1


def test_a_deep_peeling_checks_the_hypothesis_once(tmp_path, calls):
    # 22 levels: checking every peeled graph ran 46 max-flows, 23 connectivity
    # checks and 22 graph copies
    words = tmp_path / "deep.txt"
    words.write_text("rank 2\nab^12AB^12\n", encoding="utf-8")
    assert run_cli("witness", str(words), "--method", "fourvertex", "--out", str(tmp_path / "w.json")) == 0
    assert read_json(tmp_path / "w.json")["method"] == "fourvertex"
    assert calls["local_edge_connectivity"] == 2 and calls["is_connected"] == 1
    assert calls["remove_edges"] == 1


def test_regular_witness_reads_the_degree_once(tmp_path, monkeypatch):
    counts = Counter()
    count_calls(monkeypatch, regular, "_regularity", counts)
    assert run_cli("witness", "commutator", "--method", "regular", "--out", str(tmp_path / "w.json")) == 0
    assert counts["_regularity"] == 1


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
        (("figure-7", "--require-long"), "fourvertex", 1),
        (("example-6.1",), None, 0),  # refuted: nothing to verify
        (("remark-2.4b", "--method", "lp", "--require-long"), "lp", 1),
        (("commutator", "--method", "regular"), "regular", 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_witness_runs_the_verifier_once(tmp_path, monkeypatch, argv, method, verified):
    import polygonality
    from polygonality import fourvertex, surface, witness

    counts = Counter()
    modules = (polygonality, cli, witness, fourvertex, regular, surface)
    for owner in modules:  # every module that binds the name
        if hasattr(owner, "verify_witness"):
            count_calls(monkeypatch, owner, "verify_witness", counts)
    count_calls(monkeypatch, witness, "_walk", counts)
    out = tmp_path / "w.json"
    code = run_cli("witness", *argv, "--out", str(out))
    assert code == (0 if method else 2)
    data = read_json(out)
    assert data.get("method") == method
    assert counts["verify_witness"] == verified
    # turns are counted once, by the verifier's one walk of each emitted cycle;
    # the JSON's usage table is its count
    assert counts["_walk"] == verified * len(data.get("cycles", ()))


def test_surface_runs_the_verifier_once(tmp_path, monkeypatch):
    # the constructed list is checked by build_surface's verifier, not also by the CLI
    from polygonality import fourvertex, surface, witness

    counts, glued = Counter(), []
    for owner in (witness, fourvertex, regular, surface):
        if hasattr(owner, "verify_witness"):
            count_calls(monkeypatch, owner, "verify_witness", counts)
    count_calls(monkeypatch, witness, "_walk", counts)
    build = surface.SurfaceComplex

    def recorded(graph, cycles, *rest):
        glued.append(cycles)
        return build(graph, cycles, *rest)

    monkeypatch.setattr(surface, "SurfaceComplex", recorded)
    assert run_cli("surface", "remark-2.4b", "--out", str(tmp_path / "s.json")) == 0
    # the witness hash serializes the verifier's usage table: one walk of each cycle
    assert counts["verify_witness"] == 1 and counts["_walk"] == len(glued[0]) > 1


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "remark-2.4b"),
        ("verify", "figure-7"),
        ("surface", "remark-2.4b", "--witness"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_each_read_cycle_is_walked_once(tmp_path, monkeypatch, argv):
    # figure-7 is a graph, which surface refuses; the verifier is the only walk
    from polygonality import witness

    wit = tmp_path / "w.json"
    assert run_cli("witness", argv[1], "--out", str(wit)) == 0
    distinct = {frozenset(c["edges"]) for c in read_json(wit)["cycles"]}
    walks = Counter()
    count_calls(monkeypatch, witness, "_walk", walks)
    assert run_cli(*argv, str(wit), "--out", str(tmp_path / "out.json")) == 0
    assert walks["_walk"] == len(distinct) > 1


def test_surface_reads_each_cycles_turns_once(tmp_path, monkeypatch):
    # the verifier counts turns during its walk, so only the polygon builder
    # reads them, as each distinct cycle's balance column
    from polygonality import surface

    wit = tmp_path / "w.json"
    assert run_cli("witness", "remark-2.4b", "--require-long", "--out", str(wit)) == 0
    distinct = {frozenset(c["edges"]) for c in read_json(wit)["cycles"]}
    reads = Counter()
    column = surface.balance_column

    def counted(sigma, cycle):
        reads[cycle] += 1
        return column(sigma, cycle)

    monkeypatch.setattr(surface, "balance_column", counted)
    out = tmp_path / "s.json"
    assert run_cli("surface", "remark-2.4b", "--witness", str(wit), "--out", str(out)) == 0
    assert {frozenset(c.edges) for c in reads} == distinct
    assert set(reads.values()) == {1}


@pytest.mark.parametrize("command", [("verify",), ("surface", "--witness")], ids=lambda c: c[0])
@pytest.mark.parametrize(
    "name, edges, err",
    [
        ("commutator", [0, 1], "edge set [0, 1] has degree 1 at a2-"),
        ("remark-2.4b", [0, 2, 3], "edge set [0, 2, 3] has degree 3 at a1"),
        ("commutator", [0, 1, 2, 99], "cycle references unknown edge 99"),
    ],
    ids=["path", "degree 3", "unknown edge"],
)
def test_read_entry_that_is_not_a_cycle_is_an_error(tmp_path, capsys, command, name, edges, err):
    # witness_from_json walks nothing, so the verifier's walk must refuse these
    wit = tmp_path / "w.json"
    assert run_cli("witness", name, "--out", str(wit)) == 0
    data = read_json(wit)
    data["cycles"] = [{"edges": edges, "multiplicity": 1}]
    wit.write_text(json.dumps(data), encoding="utf-8")
    argv = (command[0], name, *command[1:], str(wit))
    assert run_cli(*argv, "--out", str(tmp_path / "out.json")) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_verify_rejects_two_disjoint_cycles_as_one_entry(tmp_path, capsys):
    # figure-7's two parallel pairs a1 = a1- (edges 1, 2) and a2 = a2- (12, 13)
    wit = tmp_path / "w.json"
    assert run_cli("witness", "figure-7", "--out", str(wit)) == 0
    data = read_json(wit)
    data["cycles"] = [{"edges": [1, 2, 12, 13], "multiplicity": 1}]
    wit.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("verify", "figure-7", str(wit)) == 1
    assert capsys.readouterr().err == "error: edge set [1, 2, 12, 13] is not a single cycle\n"


@pytest.mark.parametrize(
    "word, length",
    [("a^99999999 b", 99999999), ("(ab)^-99999999", 199999998)],
)
def test_oversized_power_is_an_error_before_it_is_expanded(tmp_path, capsys, monkeypatch, word, length):
    from polygonality import words

    expand = words._apply_power

    def bounded(letters, exp):  # a missing cap fails here, not by exhausting memory
        assert len(letters) * abs(exp) <= words.MAX_WORD_LENGTH
        return expand(letters, exp)

    monkeypatch.setattr(words, "_apply_power", bounded)
    path = tmp_path / "words.txt"
    path.write_text(f"rank 2\n{word}\n", encoding="utf-8")
    assert run_cli("analyze", str(path)) == 1
    assert capsys.readouterr().err == (
        f"error: line 2: word expands to at least {length} letters, over the cap of 1000000\n"
    )


@pytest.mark.parametrize("kind", ["words", "graph"])
def test_declared_rank_over_the_cap_is_an_error(tmp_path, capsys, kind):
    # the rank is checked before a graph builds its 2 * rank vertices; the
    # 10**12 case would exhaust memory without the cap
    from polygonality.whitehead import MAX_RANK

    def declared(rank):
        path = tmp_path / f"rank-{rank}.{'txt' if kind == 'words' else 'json'}"
        if kind == "words":
            path.write_text(f"rank {rank}\nabAB\n", encoding="utf-8")
        else:
            data = graph_to_json(build_whitehead_graph(parse_word_list("rank 2\nabAB\n")))
            data["rank"] = rank
            path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    assert run_cli("analyze", declared(MAX_RANK), "--out", str(tmp_path / "a.json")) == 0
    for rank in (MAX_RANK + 1, 10**12):
        assert run_cli("analyze", declared(rank)) == 1
        assert capsys.readouterr().err == f"error: rank {rank} is over the cap of {MAX_RANK}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kind", "regular", "--k", "3", "--pairs", "400000"), "rank 400000 is over the cap of 1000"),
        (("--kind", "regular", "--k", "1000001", "--pairs", "1"), "1000001 edges is over the cap of 1000000"),
        (("--kind", "fourvertex", "--max-degree", "500001"), "1000002 edges is over the cap of 1000000"),
    ],
    ids=["rank", "regular edges", "fourvertex edges"],
)
def test_gen_refuses_an_instance_over_a_cap_before_it_builds_one(monkeypatch, capsys, argv, message):
    from polygonality import generators

    def built(*args, **kwargs):  # a late check fails here, before any large work
        raise AssertionError("gen started to build an instance over a cap")

    for name in ("Multigraph", "WhiteheadGraph"):
        monkeypatch.setattr(generators, name, built)
    monkeypatch.setattr(random.Random, "shuffle", built)
    assert run_cli("gen", *argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_caps_are_inclusive(monkeypatch, tmp_path, capsys):
    from polygonality import generators

    monkeypatch.setattr(generators, "MAX_RANK", 2)
    monkeypatch.setattr(generators, "MAX_WORD_LENGTH", 8)
    out = str(tmp_path / "g.json")
    assert run_cli("gen", "--kind", "regular", "--k", "4", "--pairs", "2", "--out", out) == 0
    assert run_cli("gen", "--kind", "fourvertex", "--max-degree", "4", "--out", out) == 0
    for argv, message in (
        (("--kind", "regular", "--k", "2", "--pairs", "3"), "rank 3 is over the cap of 2"),
        (("--kind", "regular", "--k", "5", "--pairs", "2"), "10 edges is over the cap of 8"),
        (("--kind", "fourvertex", "--max-degree", "5"), "10 edges is over the cap of 8"),
    ):
        assert run_cli("gen", *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def _surface_of_commutator_times(tmp_path, times):
    """Exit status of ``surface commutator`` over its witness with every
    multiplicity multiplied by ``times``."""
    wit = tmp_path / "w.json"
    assert run_cli("witness", "commutator", "--out", str(wit)) == 0
    data = read_json(wit)
    for cycle in data["cycles"]:
        cycle["multiplicity"] *= times
    for eid in data["per_edge_usage"]:
        data["per_edge_usage"][eid] *= times
    wit.write_text(json.dumps(data), encoding="utf-8")
    return run_cli("surface", "commutator", "--witness", str(wit), "--out", str(tmp_path / "s.json"))


def test_surface_refuses_a_witness_over_the_side_cap_before_it_builds_a_polygon(
    tmp_path, capsys, monkeypatch
):
    from polygonality import surface

    calls = Counter()
    count_calls(monkeypatch, surface, "balance_column", calls)
    # the commutator's list is one 4-cycle: 4 * 250,001 sides
    assert _surface_of_commutator_times(tmp_path, 250_001) == 1
    assert capsys.readouterr().err == (
        "error: witness glues 1000004 polygon sides, over the cap of 1000000\n"
    )
    assert not calls


def test_surface_side_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    from polygonality import surface

    monkeypatch.setattr(surface, "MAX_WORD_LENGTH", 8)
    assert _surface_of_commutator_times(tmp_path, 2) == 0
    assert _surface_of_commutator_times(tmp_path, 3) == 1
    assert capsys.readouterr().err == "error: witness glues 12 polygon sides, over the cap of 8\n"


def _assert_witness_writes_what_was_built(graph, spec, method):
    # the JSON of the witness command reads back to the construction's edge sets
    found = decide(graph, method, False).found
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "w.json")
        if spec is None:
            spec = os.path.join(tmp, "graph.json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(graph_to_json(graph), fh)
        assert run_cli("witness", spec, "--method", method, "--out", out) == 0
        written = read_json(out)
    assert witness_from_json(graph, written) == found


@pytest.mark.parametrize("name", ["commutator", "remark-2.4b", "figure-7"])  # the others are refuted
def test_witness_round_trip_on_built_ins(name):
    graph, _ = cli._resolve_graph(name)
    _assert_witness_writes_what_was_built(graph, name, "auto")


@given(st.integers(0, 300), st.sampled_from(["fourvertex", "regular"]))
@settings(max_examples=20, deadline=None)
def test_witness_round_trip_on_random_graphs(seed, method):
    if method == "fourvertex":
        graph = random_fourvertex_instance(seed, max_degree=5)
    else:
        graph = random_regular_instance(seed, 3 + seed % 2, 2 + seed % 2)
    _assert_witness_writes_what_was_built(graph, None, method)


def test_auto_moves_on_when_a_precondition_fails(tmp_path, capsys):
    # aBcAbC: a 2-regular rank-3 graph of two disjoint triangles, so the odd
    # set {a, b, c} is left by no edge; the two triangles still balance
    text = "rank 3\naBcAbC\n"
    words = tmp_path / "triangles.txt"
    words.write_text(text, encoding="utf-8")
    graph = build_whitehead_graph(parse_word_list(text))
    with pytest.raises(PreconditionError, match="odd set"):
        regular.regular_witness(graph)
    capsys.readouterr()
    assert run_cli("witness", str(words), "--method", "regular") == 1
    assert capsys.readouterr().out == ""
    out = tmp_path / "w.json"
    assert run_cli("witness", str(words), "--method", "regular", "--out", str(out)) == 1
    assert run_cli("witness", str(words), "--out", str(out)) == 0
    assert read_json(out)["method"] == "lp"


def test_simplex_work_is_pinned(tmp_path, monkeypatch):
    # pivots and tableau entries (rows x columns) they touch, the unit of the
    # benchmark's work budget, per `witness` command; captured on the Fraction
    # kernel, so any kernel must pivot on tableaux of the same shape.  The
    # coloring (triangles) and the cycle LP (example-6.1) both stop at their
    # first positive basis, or at a zero optimum.  regular-9 has four vertices, so
    # it takes the four-vertex route, which colors its base graph in closed
    # form and solves no linear program
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
    # rank 3 and 4-regular, 12 edges on 9 vertex pairs: an 8 x 4 coloring LP
    triangles = tmp_path / "triangles.txt"
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
        "regular-9": (0, 0),
        "triangles": (1, 20),
    }
    assert sum(cells for name, (_, cells) in seen.items() if name != "triangles") == 416


# -- one parser per process -----------------------------------------------------


def test_importing_the_cli_builds_no_parser():
    script = "from polygonality import cli; print(cli.build_parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", script], env=library_env(), capture_output=True, text=True
    )
    assert done.stdout == "0\n", done.stderr


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert run_cli("analyze", "commutator") == 0
    first = len(built)  # the top-level parser and one per subcommand
    assert run_cli("witness", "commutator") == 0
    assert run_cli("analyze", "remark-2.4b", "--format", "text") == 0
    assert first > 1 and len(built) == first


def test_a_handler_replaced_after_the_first_call_runs(monkeypatch, capsys):
    # wrappers such as the benchmark's tracer replace handlers after the parser exists
    assert run_cli("analyze", "commutator") == 0
    calls = Counter()
    count_calls(monkeypatch, cli, "cmd_analyze", calls)
    assert run_cli("analyze", "commutator") == 0
    assert calls == {"cmd_analyze": 1}


@pytest.fixture
def leak_inputs(tmp_path):
    """A graph whose witness has no long cycle, that witness, and a word list
    whose surface differs between ``--method lp`` and ``auto``."""
    graph, wit, words = (str(tmp_path / name) for name in ("g.json", "w.json", "words.txt"))
    assert run_cli("gen", "--kind", "regular", "--k", "2", "--pairs", "1", "--out", graph) == 0
    assert run_cli("witness", graph, "--out", wit) == 0
    with open(words, "w", encoding="utf-8") as fh:
        fh.write("rank 2\nab^2AB^2\n")
    return {"graph": graph, "witness": wit, "words": words}


@pytest.mark.parametrize(
    "first, second, option",
    [
        (("witness", "{graph}", "--require-long"), ("verify", "{graph}", "{witness}"), "--require-long"),
        (("surface", "{words}", "--method", "lp"), ("surface", "{words}"), "--method lp"),
        (("analyze", "commutator", "--format", "text"), ("analyze", "commutator"), "--format text"),
    ],
    ids=["require-long", "method", "format"],
)
def test_options_do_not_leak_into_the_next_call(leak_inputs, capsys, first, second, option):
    first, second = ([arg.format(**leak_inputs) for arg in argv] for argv in (first, second))
    capsys.readouterr()
    run_cli(*first)
    capsys.readouterr()
    code = run_cli(*second)
    assert (code, capsys.readouterr().out) == fresh_cli(*second)[:2]
    # the option would change the second command's output
    assert fresh_cli(*second, *option.split())[:2] != fresh_cli(*second)[:2]


@pytest.mark.parametrize(
    "argv", [("frobnicate",), ("verify", "commutator")], ids=["unknown subcommand", "missing argument"]
)
def test_a_usage_error_exits_2_and_the_next_call_succeeds(argv, capsys):
    assert run_cli("analyze", "commutator") == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == fresh_cli(*argv)[2]
    assert run_cli("analyze", "commutator", "--format", "text") == 0
    assert "minimal      = True" in capsys.readouterr().out


# -- one sort per surface command ------------------------------------------------


@pytest.mark.parametrize("from_file", [False, True], ids=["constructed", "--witness"])
def test_surface_orders_each_cycle_once(tmp_path, monkeypatch, from_file):
    # the polygons are built and the witness hashed in one cycle_order sort
    from polygonality import surface

    wit, out = str(tmp_path / "w.json"), str(tmp_path / "s.json")
    assert run_cli("witness", "remark-2.4b", "--require-long", "--out", wit) == 0
    ordered = Counter()
    order = witness.cycle_order

    def counted(cycle):
        ordered[cycle] += 1
        return order(cycle)

    monkeypatch.setattr(witness, "cycle_order", counted)
    monkeypatch.setattr(surface, "cycle_order", counted)
    flags = ("--witness", wit) if from_file else ()
    assert run_cli("surface", "remark-2.4b", *flags, "--out", out) == 0
    assert len(read_json(wit)["cycles"]) == len(ordered) > 1
    assert set(ordered.values()) == {1}


# -- numbers are ASCII digits ---------------------------------------------------


def _graph_json_with_name(old, new):
    """The graph JSON of a 12-letter word with the name ``old`` replaced by ``new``."""
    graph = build_whitehead_graph(parse_word_list("rank 2\nab^5AB^5\n"))
    text = json.dumps(graph_to_json(graph), ensure_ascii=False)
    assert f'"{old}"' in text
    return text.replace(f'"{old}"', f'"{new}"')


@pytest.mark.parametrize(
    "name, text, err",
    [
        ("g.json", _graph_json_with_name("a1", "a1\u0661"), "bad vertex name 'a1\u0661'"),
        ("g.json", _graph_json_with_name("10@a2", "1\u0660@a2"), "bad dart name '1\u0660@a2'"),
        ("words.txt", "rank \u0663\nabc^\u0662\n", "line 1: expected 'rank <n>', got 'rank \u0663'"),
        ("words.txt", "rank 3\nabc^\u0662\n", "line 2: unexpected symbol at column 3: '^\u0662'"),
        ("words.txt", "rank 3\na\u0661bc\n", "line 2: unexpected symbol at column 1: '\u0661bc'"),
    ],
    ids=["vertex name", "dart name", "rank", "power", "generator suffix"],
)
def test_non_ascii_digits_are_an_error(tmp_path, capsys, name, text, err):
    # in a str pattern, \d matches every Unicode decimal digit
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert run_cli("analyze", str(path)) == 1
    assert capsys.readouterr().err.startswith(f"error: {err}")


def test_import_builds_no_dataclass():
    # dataclasses brings inspect, ast, dis and tokenize, and generates its
    # methods by exec: most of a command's start-up before it was dropped
    script = "import sys, polygonality.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", script], env=library_env(), capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert "dataclasses" not in loaded and "inspect" not in loaded
    package = os.path.dirname(cli.__file__)
    ours = {
        "polygonality." + name[:-3]
        for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    }
    imported = {
        "__future__", "argparse", "collections", "collections.abc", "fractions", "functools",
        "hashlib", "itertools", "json", "math", "operator", "os", "random", "re", "sys", "typing",
    }
    assert ours | imported | {"polygonality"} <= loaded  # every module, and none deferred
    for name in ours:
        for value in vars(importlib.import_module(name)).values():
            if isinstance(value, type) and value.__module__ == name:
                assert not hasattr(value, "__dataclass_fields__"), value


# -- the JSON writer ----------------------------------------------------------
# every payload of a real schema is written as json.dumps writes it with
# indent=2 and sorted keys; the strings include ones that need escaping


def stdlib_dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


ints = st.integers() | st.integers(-(10**40), 10**40)
texts = st.text()
count_tables = st.dictionaries(st.integers(0, 10**6).map(str) | texts, ints)
edge_entries = st.lists(
    st.fixed_dictionaries({"edges": st.lists(ints), "multiplicity": ints}), max_size=6
)
pair = st.lists(ints, min_size=2, max_size=2)
sigma_tables = st.dictionaries(texts, st.dictionaries(texts, texts))
PAYLOADS = {
    "witness": st.fixed_dictionaries(
        {
            "graph_hash": texts,
            "cycles": edge_entries,
            "long_cycle_present": st.booleans(),
            "per_edge_usage": count_tables,
        },
        optional={
            "method": texts,
            "c1": ints,
            "c2": ints,
            "constants_per_level": st.lists(ints),
            "m1": ints,
            "m2": ints,
            "coloring": st.fixed_dictionaries({"k": ints, "ell": ints, "matchings": edge_entries}),
        },
    ),
    "refutation": st.fixed_dictionaries(
        {
            "infeasible": st.just(True),
            "require_long": st.booleans(),
            "farkas": st.lists(
                st.fixed_dictionaries({"vertex": texts, "pair": pair, "value": texts}), max_size=5
            ),
            "normalization_dual": texts,
            "graph_hash": texts,
            "method": texts,
        }
    ),
    "verify": st.fixed_dictionaries(
        {
            "ok": st.booleans(),
            "long_cycle_present": st.booleans(),
            "failures": st.lists(
                st.fixed_dictionaries(
                    {"vertex": texts, "pair": pair, "count": ints, "image_count": ints}
                ),
                max_size=5,
            ),
            "per_edge_usage": count_tables,
        }
    ),
    "analyze": st.fixed_dictionaries(
        {
            "vertices": st.lists(
                st.fixed_dictionaries({"vertex": texts, "lambda": ints, "degree": ints}), max_size=6
            ),
            "minimal": st.booleans(),
            "connected": st.booleans(),
            "diskbusting": st.booleans(),
            "regular_k": st.none() | ints,
        }
    ),
    "surface": st.fixed_dictionaries(
        {
            "witness_hash": texts,
            "m": ints,
            "chi_S_minus_m": ints,
            "chi_S_doubleprime": ints,
            "orientable": st.booleans(),
            "boundary_words": st.lists(
                st.fixed_dictionaries(
                    {
                        "vertex": ints,
                        "word": texts,
                        "base_word_index": st.none() | ints,
                        "exponent": st.none() | ints,
                    }
                ),
                max_size=5,
            ),
            "positive_degrees": count_tables,
        }
    ),
    "graph": st.fixed_dictionaries(
        {
            "rank": ints,
            "edges": st.lists(
                st.fixed_dictionaries({"id": ints, "u": texts, "v": texts}), max_size=6
            ),
            "sigma": sigma_tables,
        }
    ),
    "sigma table": sigma_tables,
}


@pytest.mark.parametrize("schema", sorted(PAYLOADS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_dump_writes_the_bytes_of_json_dumps(schema, data):
    payload = data.draw(PAYLOADS[schema])
    assert cli._dump(payload) == stdlib_dump(payload)


@pytest.mark.parametrize(
    "value",
    [{}, [], [[]], [{}], {"a": {}, "b": []}, [True, False, None], -7, 10**60, "\"\\\n\x00é😀"],
    ids=repr,
)
def test_dump_writes_empty_containers_and_scalars_as_json_dumps(value):
    assert cli._dump(value) == stdlib_dump(value)


def _witness_graph(method: str, seed: int):
    """A graph that ``method`` can be run on, most often of 11 or more edges."""
    rng = random.Random(seed)
    if method == "fourvertex":
        return random_fourvertex_instance(seed, max_degree=rng.randint(12, 20))
    if method == "regular":
        return random_regular_instance(seed, rng.randint(4, 6), rng.randint(3, 4))
    # a rank-3 word of 11 to 13 letters, cyclically reduced
    word = [rng.randrange(6)]
    while len(word) < rng.randint(11, 13) or word[-1] == word[0] ^ 1:
        word.append(rng.choice([x for x in range(6) if x != word[-1] ^ 1]))
    return build_whitehead_graph(make_word_list(3, [tuple(word)]))


@given(st.sampled_from(["fourvertex", "regular", "lp"]), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_witness_text_is_json_dumps_of_the_dict_form(method, seed):
    graph = _witness_graph(method, seed)
    assume(max(graph.edges) >= 10)  # ids that sort otherwise as strings
    decision = decide(graph, method, False)
    assume(not isinstance(decision.found, witness.Infeasible))
    verdict = witness.verify_witness(graph, decision.found)
    data = witness.witness_to_json(graph, verdict.cycles, verdict.per_edge_usage)
    expected = stdlib_dump({**data, **decision.extras})
    assert cli._witness_text(graph, verdict, decision.extras) == expected


def test_dump_writes_every_builtin_and_golden_output_as_json_dumps(tmp_path, monkeypatch):
    from polygonality import witness
    from test_golden import GEN_FILES, GOLDEN, WORD_FILES

    payloads = []
    dump = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda data: payloads.append(data) or dump(data))
    # a witness is written from its verdict, not from a payload: keep its
    # dict form, with the text written, to compare below
    witness_text, witnesses = cli._witness_text, []

    def collect_witness(graph, verdict, extras):
        text = witness_text(graph, verdict, extras)
        data = {**witness.witness_to_json(graph, verdict.cycles, verdict.per_edge_usage), **extras}
        payloads.append(data)
        witnesses.append((data, text))
        return text

    monkeypatch.setattr(cli, "_witness_text", collect_witness)
    for name, text in WORD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for name, args in GEN_FILES.items():
        assert cli.main(["gen", *args, "--out", str(tmp_path / name)]) == 0
    out, wit = str(tmp_path / "out.json"), str(tmp_path / "w.json")
    for command, spec, *flags in (argv for argv, _, _ in GOLDEN):
        path = tmp_path / spec
        cli.main([command, str(path) if path.exists() else spec, *flags, "--out", out])
    for name in [*cli._BUILTIN_WORDS, *cli._BUILTIN_GRAPHS]:
        run_cli("analyze", name, "--out", out)
        run_cli("export-dot", name, "--out", str(tmp_path / "g.dot"))
        run_cli("surface", name, "--out", out)
        for flags in ((), ("--require-long",), ("--method", "lp")):
            if run_cli("witness", name, *flags, "--out", wit) == 0:
                run_cli("verify", name, wit, "--require-long", "--out", out)
    # an unbalanced list: one bigon of example-6.1's graph
    graph = cli._resolve_graph("example-6.1")[0]
    verdict = witness.verify_witness(graph, {frozenset({6, 7}): 1})
    with open(wit, "w", encoding="utf-8") as fh:
        json.dump(witness.witness_to_json(graph, verdict.cycles, verdict.per_edge_usage), fh)
    assert run_cli("verify", "example-6.1", wit, "--out", out) == 2
    assert {"failures", "farkas", "boundary_words", "vertices", "cycles", "rank"} <= {
        key for data in payloads for key in data
    }
    assert any(data["failures"] for data in payloads if "failures" in data)
    for data in payloads:
        assert dump(data) == stdlib_dump(data)
    assert witnesses
    for data, text in witnesses:
        assert text == stdlib_dump(data)
