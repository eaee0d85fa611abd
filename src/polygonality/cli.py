"""Command-line pipeline: analyze, witness, verify, surface, export, generate.

Inputs are word-list files (``rank <n>`` header, one word per line), graph
JSON files, or built-in instance names.  Exit status: 0 on success or a found
witness, 2 when a witness is refuted or a verification fails, 1 on errors,
among them a witness file made for another graph, on which no check runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _quote

from . import fourvertex, generators, regular, surface, whitehead, witness, words
from .errors import GraphError, PolygonalityError, PreconditionError, VerificationError
from .whitehead import WhiteheadGraph


def _figure7_graph() -> WhiteheadGraph:
    """The seven-edges-at-w example graph with its pictured connecting map."""
    w, wp, u, up = 0, 1, 2, 3  # vertex indices of a1, a1-, a2, a2-
    ends = [
        (w, u), (w, wp), (w, wp), (w, up), (w, up), (w, u), (w, u),
        (wp, u), (wp, up), (wp, u), (wp, up), (wp, up),
        (u, up), (u, up), (u, up),
    ]
    # the map at w mirrors the published labeling e_i -> f_i; the map at u
    # sends its edges in id order to those at u^-1 in id order
    w_images = {0: 7, 1: 8, 2: 1, 3: 2, 4: 9, 5: 10, 6: 11}
    at_u, at_up = ([i for i, pair in enumerate(ends) if x in pair] for x in (u, up))
    u_images = dict(zip(at_u, at_up))
    sigma = {}
    for v, images in ((w, w_images), (u, u_images)):
        sigma[v] = images
        sigma[v ^ 1] = {img: e for e, img in images.items()}
    return WhiteheadGraph(2, enumerate(ends), sigma)


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
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise GraphError("malformed JSON: nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refuses a digit string past sys.get_int_max_str_digits()
        raise GraphError("malformed JSON: a number has too many digits") from None


def load_input(spec: str):
    """Resolve a built-in name or a file path to ('words', WordList) or ('graph', graph)."""
    if spec in _BUILTIN_WORDS:
        word = words.cyclic_reduce(words.parse_word(_BUILTIN_WORDS[spec], 2))
        return "words", words.make_word_list(2, (word,))
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
        # mkstemp makes the file 0600 whatever the umask: give it the mode
        # that open(out, "w") gives a new file, 0666 less the umask
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, nested ``pad`` deep: the
    standard library encodes in pure Python once ``indent`` is set, while this
    joins each list or object once, writing the ints in it in place."""
    kind = type(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is dict:
            body = sep.join([
                f"{_quote(k)}: {int.__repr__(x) if type(x) is int else _json(x, inner)}"
                for k, x in sorted(value.items())
            ])
            return f"{{\n{inner}{body}\n{pad}}}"
        body = sep.join([int.__repr__(x) if type(x) is int else _json(x, inner) for x in value])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"{kind.__name__} is not written as JSON here")


def _dump(data: dict) -> str:
    return _json(data, "") + "\n"


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


def _run_method(graph: WhiteheadGraph, method: str, require_long: bool):
    if method != "auto":
        return _METHODS[method](graph, require_long)
    for construct in (_fourvertex, _regular):
        try:
            return construct(graph, require_long)
        except PreconditionError:
            pass
    return _lp(graph, require_long)


# the extras that count cycles through an edge or a pair: they scale with the list
_PER_LIST_COUNTS = ("c1", "c2", "m1", "m2")


def _construct(graph: WhiteheadGraph, method: str, require_long: bool):
    """The method's witness as edge sets, or its refutation, with its JSON extras.

    A constructed list is divided by the gcd of its multiplicities: the
    quotient is still balanced, keeps its long cycles and certifies the same
    surface from fewer polygons.  The edge and pair counts among the extras
    are divided with it, so they describe the list returned.
    """
    found, extras = _run_method(graph, method, require_long)
    if isinstance(found, witness.Infeasible):
        return found, extras
    g = math.gcd(*found.values())
    if g > 1:
        found = {eids: m // g for eids, m in found.items()}
        for key in _PER_LIST_COUNTS:
            if key in extras:
                extras[key] //= g
    return found, extras


def _construct_witness(graph: WhiteheadGraph, method: str, require_long: bool):
    """Returns (edge sets or Infeasible, extras dict for the JSON payload, verdict).

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
    # the verifier's walked cycles; sorting the constructed edge sets themselves
    # would order them by inclusion, not as the JSON lists its cycles
    payload = witness.witness_to_json(graph, verdict.cycles, verdict.per_edge_usage)
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
    graph, word_list = _resolve_graph(args.input)
    dot = whitehead.export_dot(graph, word_list)
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

    def require(holds: bool, message: str) -> None:
        # an explicit check, so that `python -O` cannot strip it
        if not holds:
            raise VerificationError(message)

    def commutator_certificate():
        _, wl = load_input("commutator")
        graph = whitehead.build_whitehead_graph(wl)
        found, _, verdict = _construct_witness(graph, "auto", True)
        require(verdict is not None and verdict.ok, "the commutator's witness does not verify")
        complex_ = surface.build_surface(graph, found)
        report = surface.surface_report(complex_, wl)
        require(
            report.chi_s_minus_m == -1 and report.chi_double == -2,
            f"chi(S) - m = {report.chi_s_minus_m} and chi(S'') = {report.chi_double}, "
            "expected -1 and -2",
        )

    def nonminimal_detected():
        graph, _ = _resolve_graph("remark-2.4a")
        require(not whitehead.analyze(graph).minimal, "remark-2.4a is reported minimal")

    def polygonal_word():
        graph, wl = _resolve_graph("remark-2.4b")
        report = whitehead.analyze(graph)
        require(report.minimal and report.diskbusting, "remark-2.4b is not minimal and diskbusting")
        found, _, verdict = _construct_witness(graph, "fourvertex", True)
        require(verdict.ok, "the four-vertex witness of remark-2.4b does not verify")
        complex_ = surface.build_surface(graph, found)
        chi = surface.surface_report(complex_, wl).chi_s_minus_m
        require(chi < 0, f"chi(S) - m = {chi} is not negative")

    def refutation_instance():
        graph, _ = _resolve_graph("example-6.1")
        require(not whitehead.analyze(graph).minimal, "example-6.1 is reported minimal")
        found = witness.search_witness_lp(graph, require_long=True)
        require(isinstance(found, witness.Infeasible), "the LP search did not refute example-6.1")

    def pictured_graph():
        graph = _figure7_graph()
        _, _, verdict = _construct_witness(graph, "fourvertex", True)
        require(verdict.ok, "the four-vertex witness of figure 7 does not verify")

    check("commutator certificate", commutator_certificate)
    check("remark-2.4a non-minimal", nonminimal_detected)
    check("remark-2.4b polygonal", polygonal_word)
    check("example-6.1 refuted", refutation_instance)
    check("figure-7 witness", pictured_graph)
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared by every
    later one; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="polygonality",
        description="Decide and certify polygonality of word lists in free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="built-in name, word-list file, or graph JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    methods = ("auto", *_METHODS)
    p = sub.add_parser("analyze", help="minimality / diskbusting report")
    add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p = sub.add_parser("witness", help="construct or search a cycle-list witness")
    add_common(p)
    p.add_argument("--method", choices=methods, default="auto")
    p.add_argument("--require-long", action="store_true")
    p = sub.add_parser("verify", help="check a witness file against its graph")
    add_common(p)
    p.add_argument("witness_path", metavar="witness")
    p.add_argument("--require-long", action="store_true")
    p = sub.add_parser("surface", help="build the surface certificate")
    add_common(p)
    p.add_argument("--witness", dest="witness_path", default=None)
    p.add_argument("--method", choices=methods, default="auto")
    p = sub.add_parser("export-dot", help="DOT export plus connecting-map table")
    add_common(p)
    p = sub.add_parser("gen", help="random valid instance from a seed")
    p.add_argument("--kind", choices=("regular", "fourvertex"), default="fourvertex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=6)
    p.add_argument("--out", default=None)
    sub.add_parser("selftest", help="run the built-in examples end to end")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on every call, not stored in the shared parser, so that a
    # handler replaced after the first call (a wrapper, a test's patch) runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (PolygonalityError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
