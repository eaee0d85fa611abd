"""Command-line pipeline: analyze, witness, verify, surface, export, generate.

Inputs are word-list files (``rank <n>`` header, one word per line), graph
JSON files, or built-in instance names.  Exit status: 0 on success or a found
witness, 2 when a witness is refuted or a verification fails, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import fourvertex, generators, regular, surface, whitehead, witness, words
from .errors import GraphError, PolygonalityError, PreconditionError
from .whitehead import EdgeRecord, VertexId, WhiteheadGraph


def _figure7_graph() -> WhiteheadGraph:
    """The seven-edges-at-w example graph with its pictured connecting map."""
    w, wp = VertexId(1, 1), VertexId(1, -1)
    u, up = VertexId(2, 1), VertexId(2, -1)
    ends = [
        (w, u), (w, wp), (w, wp), (w, up), (w, up), (w, u), (w, u),
        (wp, u), (wp, up), (wp, u), (wp, up), (wp, up),
        (u, up), (u, up), (u, up),
    ]
    edges = [EdgeRecord(i, pair) for i, pair in enumerate(ends)]
    plain = whitehead.Multigraph(2, edges)
    sigma = {}
    # the map at w, mirroring the published labeling e_i -> f_i
    w_images = {0: 7, 1: 8, 2: 1, 3: 2, 4: 9, 5: 10, 6: 11}
    for eid, img in w_images.items():
        d = plain.edges[eid].dart_at(w)
        sigma[d] = plain.edges[img].dart_at(wp)
        sigma[sigma[d]] = d
    u_darts = sorted(plain.darts_at(u))
    up_darts = sorted(plain.darts_at(up))
    for d, img in zip(u_darts, up_darts):
        sigma[d] = img
        sigma[img] = d
    return WhiteheadGraph(2, edges, sigma)


_BUILTIN_WORDS = {
    "commutator": "abAB",
    "remark-2.4a": "abab^2ab^3",
    "remark-2.4b": "aBa^2b",
    "example-6.1": "a(aB)^3B^2",
}

_BUILTIN_GRAPHS = {"figure-7": _figure7_graph}


def _unique_keys(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in keys if keys.count(k) > 1)
        raise GraphError(f"malformed JSON: key {repeated!r} is repeated")
    return data


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_json(text: str):
    """Decode JSON; unlike ``json.loads``, which keeps the last copy, a repeated key is an error."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def load_input(spec: str):
    """Resolve a built-in name or a file path to ('words', WordList) or ('graph', graph)."""
    if spec in _BUILTIN_WORDS:
        wl = words.WordList(2, (words.cyclic_reduce(words.parse_word(_BUILTIN_WORDS[spec], 2)),))
        return "words", wl
    if spec in _BUILTIN_GRAPHS:
        return "graph", _BUILTIN_GRAPHS[spec]()
    if spec == "remark-2.4":
        raise PolygonalityError(
            "remark-2.4 names two instances: use remark-2.4a (abab^2ab^3) "
            "or remark-2.4b (aB a^2 b)"
        )
    if not os.path.exists(spec):
        known = sorted(list(_BUILTIN_WORDS) + list(_BUILTIN_GRAPHS))
        raise PolygonalityError(f"no such input {spec!r}; built-ins: {', '.join(known)}")
    text = _read_text(spec)
    if spec.endswith(".json") or text.lstrip().startswith("{"):
        return "graph", whitehead.graph_from_json(_parse_json(text))
    return "words", words.parse_word_list(text)


def _resolve_graph(spec: str):
    kind, data = load_input(spec)
    if kind == "words":
        return whitehead.build_whitehead_graph(data), data
    return data, None


def write_output(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _fourvertex(graph: WhiteheadGraph, require_long: bool):
    good = fourvertex.four_vertex_witness(graph)
    return good.cycles, {
        "method": "fourvertex",
        "c1": good.c1,
        "c2": good.c2,
        "constants_per_level": list(good.constants_per_level),
    }


def _regular(graph: WhiteheadGraph, require_long: bool):
    rw = regular.regular_witness(graph)
    return rw.cycles, {
        "method": "regular",
        "m1": rw.m1,
        "m2": rw.m2,
        "coloring": rw.coloring.to_json(),
    }


def _lp(graph: WhiteheadGraph, require_long: bool):
    return witness.search_witness_lp(graph, require_long=require_long), {"method": "lp"}


_METHODS = {"fourvertex": _fourvertex, "regular": _regular, "lp": _lp}


def _construct(graph: WhiteheadGraph, method: str, require_long: bool):
    if method != "auto":
        return _METHODS[method](graph, require_long)
    for construct in (_fourvertex, _regular):
        try:
            return construct(graph, require_long)
        except PreconditionError:
            pass
    return _lp(graph, require_long)


def _construct_witness(graph: WhiteheadGraph, method: str, require_long: bool):
    """Returns (cycles or Infeasible, extras dict for the JSON payload, verdict).

    ``auto`` tries the four-vertex construction, then the regular one, then
    the LP search, and moves on only when a construction's precondition fails.
    Every constructed list is verified here, once; a refutation has no verdict.
    """
    found, extras = _construct(graph, method, require_long)
    if isinstance(found, witness.Infeasible):
        return found, extras, None
    return found, extras, witness.verify_witness(graph, found, require_long=require_long)


def cmd_analyze(args: argparse.Namespace) -> int:
    graph, _ = _resolve_graph(args.input)
    report = whitehead.analyze(graph)
    if args.format == "json":
        write_output(_dump(report.to_json()), args.out)
    else:
        lines = []
        for v, lam, deg in report.per_vertex:
            lines.append(f"lambda({v.name},{v.mu().name}) = {lam}   deg({v.name}) = {deg}")
        lines.append(f"minimal      = {report.minimal}")
        lines.append(f"connected    = {report.connected}")
        lines.append(f"diskbusting  = {report.diskbusting}")
        lines.append(f"regular_k    = {report.regular_k}")
        write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    graph, _ = _resolve_graph(args.input)
    found, extras, verdict = _construct_witness(graph, args.method, args.require_long)
    if verdict is None:
        write_output(_dump(found.to_json(graph)), args.out)
        return 2
    payload = witness.witness_to_json(graph, found)
    payload.update(extras)
    write_output(_dump(payload), args.out)
    if not verdict.ok:
        return 2
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    graph, _ = _resolve_graph(args.input)
    cycles = witness.witness_from_json(graph, _parse_json(_read_text(args.witness_path)))
    verdict = witness.verify_witness(graph, cycles, require_long=args.require_long)
    result = {
        "ok": verdict.ok,
        "long_cycle_present": verdict.has_long_cycle,
        "failures": [
            {"vertex": v.name, "pair": list(pair), "count": a, "image_count": b}
            for v, pair, a, b in verdict.failures
        ],
        "per_edge_usage": {str(e): n for e, n in sorted(verdict.per_edge_usage.items())},
    }
    write_output(_dump(result), args.out)
    return 0 if verdict.ok else 2


def cmd_surface(args: argparse.Namespace) -> int:
    kind, data = load_input(args.input)
    if kind != "words":
        raise PolygonalityError("surface certificates need word-list input")
    graph = whitehead.build_whitehead_graph(data)
    if args.witness_path is not None:
        found = witness.witness_from_json(graph, _parse_json(_read_text(args.witness_path)))
    else:
        # build_surface verifies the balance and surface_report the long cycle
        found, _ = _construct(graph, args.method, require_long=True)
        if isinstance(found, witness.Infeasible):
            write_output(_dump(found.to_json(graph)), args.out)
            return 2
    complex_ = surface.build_surface(graph, found)
    report = surface.surface_report(complex_, data)
    write_output(_dump(report.to_json()), args.out)
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph, _ = _resolve_graph(args.input)
    dot = whitehead.export_dot(graph)
    sigma_table = whitehead.graph_to_json(graph)["sigma"]
    if args.out is None:
        sys.stdout.write(dot)
        sys.stdout.write(_dump(sigma_table))
    else:
        write_output(dot, args.out)
        write_output(_dump(sigma_table), args.out + ".sigma.json")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "regular":
        graph = generators.random_regular_instance(args.seed, args.k, args.pairs)
    else:
        graph = generators.random_fourvertex_instance(args.seed, args.max_degree)
    write_output(_dump(whitehead.graph_to_json(graph)), args.out)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, fn):
        nonlocal failures
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # noqa: BLE001 - report and count every failure
            failures += 1
            print(f"FAIL {name}: {exc}")

    def commutator_certificate():
        _, wl = load_input("commutator")
        graph = whitehead.build_whitehead_graph(wl)
        found, _, verdict = _construct_witness(graph, "auto", True)
        assert verdict.ok
        complex_ = surface.build_surface(graph, found)
        report = surface.surface_report(complex_, wl)
        assert report.chi_s_minus_m == -1 and report.chi_double == -2

    def nonminimal_detected():
        graph, _ = _resolve_graph("remark-2.4a")
        report = whitehead.analyze(graph)
        assert not report.minimal

    def polygonal_word():
        graph, wl = _resolve_graph("remark-2.4b")
        report = whitehead.analyze(graph)
        assert report.minimal and report.diskbusting
        good = fourvertex.four_vertex_witness(graph)
        assert witness.verify_witness(graph, good.cycles, require_long=True).ok
        complex_ = surface.build_surface(graph, good.cycles)
        assert surface.surface_report(complex_, wl).chi_s_minus_m < 0

    def refutation_instance():
        graph, _ = _resolve_graph("example-6.1")
        report = whitehead.analyze(graph)
        assert not report.minimal
        found = witness.search_witness_lp(graph, require_long=True)
        assert isinstance(found, witness.Infeasible)

    def pictured_graph():
        graph = _figure7_graph()
        good = fourvertex.four_vertex_witness(graph)
        assert witness.verify_witness(graph, good.cycles, require_long=True).ok

    check("commutator certificate", commutator_certificate)
    check("remark-2.4a non-minimal", nonminimal_detected)
    check("remark-2.4b polygonal", polygonal_word)
    check("example-6.1 refuted", refutation_instance)
    check("figure-7 witness", pictured_graph)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygonality",
        description="Decide and certify polygonality of word lists in free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_common(p):
        p.add_argument("input", help="built-in name, word-list file, or graph JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    methods = ("auto", *_METHODS)
    p = command("analyze", cmd_analyze, "minimality / diskbusting report")
    add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p = command("witness", cmd_witness, "construct or search a cycle-list witness")
    add_common(p)
    p.add_argument("--method", choices=methods, default="auto")
    p.add_argument("--require-long", action="store_true")
    p = command("verify", cmd_verify, "check a witness file against its graph")
    add_common(p)
    p.add_argument("witness_path", metavar="witness")
    p.add_argument("--require-long", action="store_true")
    p = command("surface", cmd_surface, "build the surface certificate")
    add_common(p)
    p.add_argument("--witness", dest="witness_path", default=None)
    p.add_argument("--method", choices=methods, default="auto")
    p = command("export-dot", cmd_export_dot, "DOT export plus connecting-map table")
    add_common(p)
    p = command("gen", cmd_gen, "random valid instance from a seed")
    p.add_argument("--kind", choices=("regular", "fourvertex"), default="fourvertex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=6)
    p.add_argument("--out", default=None)
    command("selftest", cmd_selftest, "run the built-in examples end to end")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PolygonalityError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
