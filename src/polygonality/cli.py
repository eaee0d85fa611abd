"""Command-line pipeline: analyze, witness, verify, surface, export, generate.

Inputs are word-list files (``rank <n>`` header, one word per line), graph
JSON files, or built-in instance names.  Exit status: 0 on success or a found
witness, 2 when a witness is refuted or a verification fails, 1 on errors,
among them a witness file made for another graph, on which no check runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import generators, surface, whitehead, witness, words
from .errors import GraphError, PolygonalityError, VerificationError
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


#: how many random names ``write_output`` tries for its temporary file
_NAME_TRIES = 16


def write_output(payload: str, out: str | None) -> None:
    """Write ``payload`` to standard output, or to ``out`` at once: its UTF-8
    bytes go to a new file beside ``out``, which is then renamed over it, so
    ``out`` holds the old bytes or the new ones, never a part.  The file is
    made as ``open(out, "w")`` makes one, mode 0666 less the umask."""
    if out is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out))
    for _ in range(_NAME_TRIES):
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # a stale file of an interrupted write, say
            continue
    else:
        raise FileExistsError(f"no free temporary name beside {out} in {_NAME_TRIES} tries")
    try:
        with open(fd, "wb") as fh:
            fh.write(payload.encode())
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


_IDS = ",\n        "  # between the edge ids of a cycle entry, as ``_dump`` indents them


def _witness_text(graph: WhiteheadGraph, verdict: witness.WitnessVerdict, extras: dict) -> str:
    """``_dump`` of ``witness_to_json(graph, verdict.cycles, verdict.per_edge_usage)``
    updated by ``extras``.  The cycle list, nearly all of the text, is written
    from one template per cycle, its sorted edge ids joined once; every other
    field goes through ``_json``, and the fields come in key order."""
    walked = verdict.cycles
    entries = [
        f'    {{\n      "edges": [\n        {_IDS.join(map(str, sorted(c.edges)))}\n'
        f'      ],\n      "multiplicity": {walked[c]}\n    }}'
        for c in sorted(walked, key=witness.cycle_order)
    ]
    usage = {str(eid): n for eid, n in verdict.per_edge_usage.items()}
    fields = {
        "graph_hash": _quote(whitehead.graph_hash(graph)),
        "long_cycle_present": _json(verdict.has_long_cycle, "  "),
        "per_edge_usage": _json(usage, "  "),
        **{key: _json(value, "  ") for key, value in extras.items()},
    }
    keys = sorted(fields)
    before = "".join([f"{_quote(k)}: {fields[k]},\n  " for k in keys if k < "cycles"])
    after = "".join([f",\n  {_quote(k)}: {fields[k]}" for k in keys if k > "cycles"])
    # the first entry carries the text before it and the last the text after
    # it, so the one join below is the only copy of the whole text
    entries[0] = f'{{\n  {before}"cycles": [\n{entries[0]}'
    entries[-1] = f"{entries[-1]}\n  ]{after}\n}}\n"
    return ",\n".join(entries)


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
    decision = witness.decide(graph, args.method, args.require_long)
    if isinstance(decision.found, witness.Infeasible):
        write_output(_dump(decision.found.to_json(graph)), args.out)
        return 2
    verdict = witness.verify_witness(graph, decision.found, require_long=args.require_long)
    write_output(_witness_text(graph, verdict, decision.extras), args.out)
    return 0 if verdict.ok else 2


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
        found = witness.decide(graph, args.method).found
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


#: each check of ``selftest``: its name and its steps, each a command line,
#: the exit status it must give and a test of its JSON output, or ``None``
_SELFTEST = (
    ("commutator certificate", (
        ("witness commutator --require-long", 0, None),
        ("surface commutator", 0, lambda r: (r["chi_S_minus_m"], r["chi_S_doubleprime"]) == (-1, -2)),
    )),
    ("remark-2.4a non-minimal", (
        ("analyze remark-2.4a", 0, lambda r: not r["minimal"]),
    )),
    ("remark-2.4b polygonal", (
        ("analyze remark-2.4b", 0, lambda r: r["minimal"] and r["diskbusting"]),
        ("witness remark-2.4b --method fourvertex --require-long", 0, None),
        ("surface remark-2.4b --method fourvertex", 0, lambda r: r["chi_S_minus_m"] < 0),
    )),
    ("example-6.1 refuted", (
        ("analyze example-6.1", 0, lambda r: not r["minimal"]),
        ("witness example-6.1 --method lp --require-long", 2, lambda r: r.get("infeasible") is True),
    )),
    ("figure-7 witness", (
        ("witness figure-7 --method fourvertex --require-long", 0, None),
    )),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    """Run each check's commands through :func:`main`, their output captured.
    The checks are explicit, so that ``python -O`` cannot strip them, and an
    exception in a step fails its check."""
    failures = 0
    for name, steps in _SELFTEST:
        try:
            for command, status, test in steps:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(command.split())
                if code != status:
                    reason = f"{command} exited {code}, expected {status}"
                    detail = err.getvalue().strip()
                    raise VerificationError(f"{reason}: {detail}" if detail else reason)
                if test is not None and not test(json.loads(out.getvalue())):
                    raise VerificationError(f"{command} wrote a result that fails the check")
            print(f"ok   {name}")
        except Exception as exc:  # noqa: BLE001 - report and count every failure
            failures += 1
            print(f"FAIL {name}: {exc}")
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

    methods = ("auto", *witness.METHODS)
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
