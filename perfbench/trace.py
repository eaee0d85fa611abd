"""Spans recorded from outside the library, and the per-layer metrics built on them.

:func:`install` replaces every public function of the library modules (also
where another module imported it by name) and a few ``Multigraph`` methods by
a wrapper that records a span: name, parent, start and end in nanoseconds,
plus a few size attributes read from the arguments or the result.  Spans stay
in memory until the run ends.  Self time is a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import time
from fractions import Fraction

MODULES = ("cli", "words", "whitehead", "witness", "simplex", "regular", "fourvertex", "surface")
METHODS = ("local_edge_connectivity", "is_connected", "remove_edges")

# span fields
NAME, PARENT, START, END, ATTRS = range(5)


def _gcd_excess(cycles) -> tuple[int, int]:
    g = 0
    for m in cycles.values():
        g = math.gcd(g, m)
    total = sum(cycles.values())
    return total, total // g


def _cert_bits(result) -> int:
    if isinstance(result, dict):
        return max((m.bit_length() for m in result.values()), default=0)
    values = [Fraction(val) for _, _, val in result.certificate]
    values.append(Fraction(result.normalization_dual))
    return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in values)


def _search_attrs(args, kwargs, result):
    refuted = not isinstance(result, dict)
    return {"refuted": refuted, "support": 0 if refuted else len(result), "bits": _cert_bits(result)}


# span name -> attributes from (args, kwargs, result)
ATTRIBUTES = {
    "simplex.maximize_homogeneous": lambda a, k, r: {"rows": len(a[0]), "cols": len(a[1])},
    "simplex.find_feasible": lambda a, k, r: {"cols": len(a[0][0]) if a[0] else 0},
    "witness.enumerate_cycles": lambda a, k, r: {"cycles": len(r)},
    "witness.search_witness_lp": _search_attrs,
    "regular.enumerate_perfect_matchings": lambda a, k, r: {"matchings": len(r)},
    "fourvertex.inductive_witness": lambda a, k, r: {"levels": len(r.constants_per_level)},
    "surface.build_surface": lambda a, k, r: dict(
        zip(("polygons", "needed"), _gcd_excess(r.witness))
    ),
}


class Tracer:
    """Records spans while ``enabled``; a disabled wrapper only forwards the call."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs = ATTRIBUTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every module in ``MODULES`` and ``METHODS``."""
        wrappers: dict[object, object] = {}
        for short in MODULES:
            module = getattr(package, short)
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or inspect.isgeneratorfunction(fn)
                    or not fn.__module__.startswith(package.__name__ + ".")
                ):
                    continue
                if fn not in wrappers:
                    origin = fn.__module__.rsplit(".", 1)[1]
                    wrappers[fn] = self.wrap(f"{origin}.{fn.__name__}", fn)
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        graph_class = package.whitehead.Multigraph
        for attr in METHODS:
            fn = vars(graph_class)[attr]
            self._patches.append((graph_class, attr, fn))
            setattr(graph_class, attr, self.wrap(f"whitehead.Multigraph.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated lines: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, reach = 0, lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def _outermost(spans: list[list], indices: list[int], names: set[str]) -> list[list]:
    """Spans at ``indices`` that have no ancestor named in ``names``."""
    out = []
    for i in indices:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(spans[i])
    return out


def layer_metrics(spans: list[list], processed: int, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: ``name -> (value, unit)``, times and counts per instance processed.

    Span times are multiplied by ``scale``, the run's factor from wall seconds
    to reference seconds.
    """
    per = max(processed, 1)
    ns = 1e9 / scale
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def named(name):
        return [spans[i] for i in by_name.get(name, ())]

    def seconds(*names):
        indices = sorted(i for n in names for i in by_name.get(n, ()))
        return sum(s[END] - s[START] for s in _outermost(spans, indices, set(names))) / ns / per

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in named(name) if s[ATTRS])

    def ratio(a, b):
        return a / b if b else 0.0

    def self_of(prefix):
        return sum(selfs[i] for n, ix in by_name.items() if n.startswith(prefix) for i in ix) / ns / per

    def calls(name):
        return len(by_name.get(name, ())) / per

    searches = [s[ATTRS] for s in named("witness.search_witness_lp") if s[ATTRS]]
    solves = [s[ATTRS] for s in named("simplex.maximize_homogeneous")]
    feasibles = [s[ATTRS] for s in named("simplex.find_feasible")]
    levels = [s[ATTRS]["levels"] for s in named("fourvertex.inductive_witness") if s[ATTRS]]
    cycles = attr_sum("witness.enumerate_cycles", "cycles")
    glued = attr_sum("surface.build_surface", "polygons")
    T, N, C = "ref_s/instance", "count/instance", "count/call"
    out = {
        "words.parse_s": (seconds("words.parse_word_list"), T),
        "whitehead.build_s": (seconds("whitehead.build_whitehead_graph", "whitehead.graph_from_json"), T),
        "cli.self_s": (self_of("cli."), T),
        "whitehead.maxflow_s": (seconds("whitehead.Multigraph.local_edge_connectivity"), T),
        "whitehead.maxflow_calls": (calls("whitehead.Multigraph.local_edge_connectivity"), N),
        "witness.enumerate_s": (seconds("witness.enumerate_cycles"), T),
        "witness.cycles": (cycles / per, N),
        "witness.search_self_s": (self_of("witness.search_witness_lp"), T),
        "witness.support_ratio": (ratio(sum(a["support"] for a in searches), cycles), "ratio"),
        "witness.refuted": (ratio(sum(a["refuted"] for a in searches), len(searches)), "ratio"),
        "witness.verify_s": (seconds("witness.verify_witness"), T),
        "witness.verify_calls": (calls("witness.verify_witness"), N),
        "simplex.solve_s": (seconds("simplex.maximize_homogeneous"), T),
        "simplex.rows": (ratio(sum(a["rows"] for a in solves), len(solves)), C),
        "simplex.cols": (ratio(sum(a["cols"] for a in solves), len(solves)), C),
        "simplex.cert_bits": (max((a["bits"] for a in searches), default=0), "bits"),
        "simplex.feasible_s": (seconds("simplex.find_feasible"), T),
        "simplex.feasible_cols": (ratio(sum(a["cols"] for a in feasibles), len(feasibles)), C),
        "regular.kgraph_s": (seconds("regular.is_k_graph"), T),
        "regular.kgraph_calls": (calls("regular.is_k_graph"), N),
        "regular.matchings": (attr_sum("regular.enumerate_perfect_matchings", "matchings") / per, N),
        "regular.coloring_s": (seconds("regular.fractional_edge_coloring"), T),
        "regular.coloring_calls": (calls("regular.fractional_edge_coloring"), N),
        "regular.witness_s": (seconds("regular.regular_witness"), T),
        "fourvertex.aux_s": (seconds("fourvertex.build_auxiliary_digraph"), T),
        "fourvertex.completion_s": (seconds("fourvertex.uniform_permutation"), T),
        "fourvertex.inductive_s": (seconds("fourvertex.inductive_witness"), T),
        "fourvertex.levels": (ratio(sum(levels), len(levels)), C),
        "surface.build_s": (seconds("surface.build_surface"), T),
        "surface.report_s": (seconds("surface.surface_report"), T),
        "surface.polygons": (glued / per, N),
        "surface.polygon_excess": (ratio(glued, attr_sum("surface.build_surface", "needed")), "ratio"),
        "trace.spans": (len(spans) / per, N),
    }
    for module in MODULES[1:]:
        out[f"self.{module}_s"] = (self_of(module + "."), T)
    return out
