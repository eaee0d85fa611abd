"""Seeded closed-loop benchmark of the polygonality command line.

One client runs one instance at a time, in process, through
``polygonality.cli.main``: ``witness``, then ``verify`` of the witness just
written, then ``surface`` where the workload asks for it.  Every certificate
is checked outside the timed region.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it report every metric by name and unit.

    python3 perfbench/run.py --workload lp-words --seed 1 --seconds 25 --trace 0

``--trace 1`` reports the per-layer metrics instead, from spans recorded by
wrappers around the library's public functions (see ``trace.py``).
``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    CertificateError,
    check_refutation,
    check_surface,
    check_witness,
    enumerate_cycles,
)
from corpus import WORKLOADS, Instance, make_corpus  # noqa: E402
from stats import summary  # noqa: E402
from trace import Tracer, layer_metrics  # noqa: E402

# Work budget per instance, in counts that do not depend on the speed of the
# host, so that the same code fails the same instances on every run: the
# tableau entries (rows x columns) the simplex pivots of one command may
# update, and the number of polygons ``surface`` may glue (its time and memory
# grow with it).  WALL_CAP_S is only a safety net for a run that would never
# end; the corpora stay far below it.
# Phase one (``regular-graphs``) carries an artificial column per row, so its
# tableaux are wider and it gets a larger budget.
WORK_BUDGET_CELLS = {"lp-words": 1_000_000, "fourvertex-surface": 1_000_000, "regular-graphs": 20_000_000}
POLYGON_BUDGET = 10000
WALL_CAP_S = 60.0
SETUP_SPAWNS = 21
# A command shorter than MIN_SAMPLE_S is repeated, up to MAX_REPEATS times, and
# its sample for the pass is the median of the repeats.
MIN_SAMPLE_S = 0.02
MAX_REPEATS = 5

# Times are scaled to a reference speed at which the calibration probe takes
# CAL_NOMINAL_S seconds ("ref_s"): each run of a command, and each spawn that
# times set-up, is bracketed by two probes and divided by their mean.  This
# cancels most of the drift in CPU speed of a shared host; the report prints
# the measured probe time too.
CAL_NOMINAL_S = 0.003

# End-to-end metrics in the final JSON line (the ones BENCHMARK.json gates);
# the report above it prints every metric.
END_TO_END = ("setup_s", "witness_s.p50", "verify_s.p50", "verify_s.tail", "peak_rss_mb")


class OverBudget(BaseException):
    """Raised inside a command that exhausts its instance's budget."""


def _alarm(signum, frame):
    raise OverBudget(f"over the {WALL_CAP_S:g} s wall-clock cap")


class WorkMeter:
    """Counts the tableau entries each simplex pivot updates and stops the
    command whose count passes the budget.

    It wraps ``simplex._Tableau.pivot``, the one step every simplex entry point
    repeats; when a library change removes that hook, ``available`` is false,
    the report says so, and only the polygon budget and the wall cap apply.
    """

    def __init__(self, simplex, budget: int):
        self.budget = budget
        self.cells = 0
        self.peak = 0  # largest count of one command, for the report
        self._owner = getattr(simplex, "_Tableau", None)
        self._original = getattr(self._owner, "pivot", None)
        self.available = callable(self._original)

    def install(self) -> None:
        if not self.available:
            return
        original, meter = self._original, self

        def pivot(tab, r, col):
            meter.cells += len(tab.rows) * tab.n
            if meter.cells > meter.budget:
                raise OverBudget(f"over the {meter.budget:,} tableau-entry work budget")
            return original(tab, r, col)

        self._owner.pivot = pivot

    def uninstall(self) -> None:
        if self.available:
            self._owner.pivot = self._original

    def start(self) -> None:
        self.cells = 0

    def stop(self) -> None:
        self.peak = max(self.peak, self.cells)


def probe() -> float:
    """Wall seconds of a fixed pure-Python mix of the library's kinds of work."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i % 7, i)
        key = frozenset((i % 13, i % 17, i % 5))
        seen[key] = seen.get(key, 0) + 1
        sorted([(i * 7919) % 101, i % 11, i % 3])
    return time.perf_counter() - start


@dataclass
class Record:
    instance: Instance
    status: str = "ok"  # ok, refuted, timeout, error
    reason: str = ""
    times: dict[str, list[float]] = field(default_factory=dict)  # command -> ref_s samples
    digests: dict[str, str] = field(default_factory=dict)
    method: str | None = None
    untraced: float = 0.0  # ref_s of pass 0, the reference for tracing overhead

    @property
    def live(self) -> bool:
        return self.status in ("ok", "refuted")

    def total(self) -> float:
        return sum(statistics.median(v) for v in self.times.values())


def load_library():
    if not (SRC / "polygonality" / "cli.py").is_file():
        raise SystemExit(f"error: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polygonality
    import polygonality.cli  # noqa: F401 - loads every module the wrappers patch

    return polygonality


def measure_setup() -> float:
    """Median time of a fresh interpreter importing ``polygonality.cli``, in
    seconds at the reference speed (each spawn is bracketed by probes)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import polygonality.cli"
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        before = probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        elapsed = time.perf_counter() - start
        if i:  # the first spawn warms the file cache
            samples.append(elapsed * 2 * CAL_NOMINAL_S / (before + probe()))
    return statistics.median(samples)


class Runner:
    """Runs instances through the CLI under the work budget and checks what they emit."""

    def __init__(self, pg, workdir: Path, meter: WorkMeter, max_repeats: int):
        self.pg = pg
        self.workdir = workdir
        self.meter = meter
        self.max_repeats = max_repeats
        self.probes: list[float] = []
        self.program_ref_s = 0.0  # scaled time spent inside CLI calls

    def _call(self, argv: list[str], left: float) -> tuple[int | None, float, str]:
        """Exit status (None when over budget), wall seconds and standard error
        (the budget's reason when over it) of one command."""
        err = io.StringIO()
        self.meter.start()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))
        try:
            with contextlib.redirect_stderr(err):
                rc = self.pg.cli.main(argv)
        except OverBudget as exc:
            rc = None
            err = io.StringIO(str(exc))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            self.meter.stop()
        return rc, elapsed, err.getvalue().strip()

    def _sample(self, argv: list[str], left: float) -> tuple[int | None, float, float, str]:
        """Like ``_call``, repeating a short command.  Returns the median of the
        repeats in ref_s, each scaled by the probes on either side of it, and the
        wall seconds spent."""
        before = probe()
        scaled, spent = [], 0.0
        while True:
            rc, elapsed, err = self._call(argv, left - spent)
            after = probe()
            self.probes.append(after)
            spent += elapsed
            scaled.append(elapsed * 2 * CAL_NOMINAL_S / (before + after))
            before = after
            if rc not in (0, 2) or spent >= MIN_SAMPLE_S or len(scaled) >= self.max_repeats:
                return rc, statistics.median(scaled), spent, err

    def run(self, rec: Record, check: bool) -> bool:
        """One pass over one instance; returns whether it was fully processed.

        Pass 0 (``check``) sets the instance's outcome and checks its outputs;
        a later pass must reproduce the same bytes.
        """
        gc.collect()  # garbage of the previous instance is not collected on this one's time
        inst = rec.instance
        src = str(self.workdir / inst.filename)
        wit, ver, sur = (str(self.workdir / f"{inst.id}.{x}.json") for x in ("witness", "verify", "surface"))
        long_flag = ["--require-long"] if inst.require_long else []
        steps = [("witness", ["witness", src, "--out", wit, *long_flag])]
        left = WALL_CAP_S
        outputs = {}
        status = None
        while steps and status is None:
            name, argv = steps.pop(0)
            rc, ref_s, spent, err = self._sample(argv, left)
            left -= spent
            rec.times.setdefault(name, []).append(ref_s)
            self.program_ref_s += ref_s
            if rc is None:
                status = ("timeout", f"{name} {err}")
                break
            if rc == 1:
                status = ("error", f"{name}: {err}")
                break
            outputs[name] = (rc, Path(argv[argv.index("--out") + 1]).read_bytes())
            if name == "witness" and rc == 0:
                steps.append(("verify", ["verify", src, wit, "--out", ver, *long_flag]))
                if inst.surface:
                    polygons = sum(c["multiplicity"] for c in json.loads(outputs[name][1])["cycles"])
                    if polygons > POLYGON_BUDGET:
                        status = ("timeout", f"surface would glue {polygons} polygons")
                    else:
                        steps.append(("surface", ["surface", src, "--witness", wit, "--out", sur]))
        digests = {n: hashlib.sha256(b"%d\n" % rc + data).hexdigest() for n, (rc, data) in outputs.items()}
        if check:
            if status is not None:
                rec.status, rec.reason = status
            rec.digests = digests
            self._check(rec, outputs)
        elif status is not None and status[0] == "error":
            raise CertificateError(f"{inst.id}: {status[1]} in a later pass")
        elif any(rec.digests.get(n) != h for n, h in digests.items()):
            raise CertificateError(f"{inst.id}: output bytes changed between passes")
        return status is None

    def _check(self, rec: Record, outputs: dict) -> None:
        inst = rec.instance
        if "witness" not in outputs:
            return
        rc, data = outputs["witness"]
        payload = json.loads(data)
        if rc == 2:
            if not payload.get("infeasible"):
                raise CertificateError(f"{inst.id}: witness exit 2 without a refutation")
            check_refutation(inst.graph, payload, inst.require_long, enumerate_cycles(inst.graph))
            rec.status, rec.method = "refuted", "lp"
            return
        check_witness(inst.graph, payload, inst.require_long)
        rec.method = payload.get("method")
        if "verify" in outputs:
            rc, data = outputs["verify"]
            if rc != 0 or json.loads(data).get("ok") is not True:
                raise CertificateError(f"{inst.id}: verify rejects the witness it was given")
        if "surface" in outputs:
            rc, data = outputs["surface"]
            if rc != 0:
                raise CertificateError(f"{inst.id}: surface exit {rc}")
            check_surface(json.loads(data), [inst.word])


def _fingerprint(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() + b"\0")
    return h.hexdigest()


def run_passes(runner: Runner, records: list[Record], deadline: float, tracer: Tracer | None) -> int:
    """Run every instance once untraced and check it (pass 0), then repeat the live
    ones until the deadline; with a tracer, traced and at least once.  Returns the
    number of instance passes fully processed after pass 0."""
    for rec in records:
        runner.run(rec, check=True)
    live = [r for r in records if r.live]
    if tracer is not None:
        for rec in live:
            rec.untraced = rec.total()
            rec.times = {}
        tracer.install(runner.pg)
        tracer.enabled = True
    processed, passes = 0, 0
    try:
        while live:
            for rec in live:  # a traced run completes at least one traced pass
                if time.perf_counter() >= deadline and (tracer is None or passes):
                    return processed
                processed += runner.run(rec, check=False)
            passes += 1
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    return processed


def run_workload(pg, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    corpus = make_corpus(pg, workload, seed)
    setup_s = None if trace else measure_setup()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=HERE / ".work"))
    records = [Record(inst) for inst in corpus]
    # A traced run does not repeat short commands, so that span counts are per
    # command and pass 0 is measured the same way as the traced passes.
    meter = WorkMeter(pg.simplex, WORK_BUDGET_CELLS[workload])
    runner = Runner(pg, workdir, meter, 1 if trace else MAX_REPEATS)
    tracer = Tracer() if trace else None
    previous = signal.signal(signal.SIGALRM, _alarm)
    meter.install()
    try:
        for inst in corpus:
            (workdir / inst.filename).write_text(inst.text, encoding="utf-8")
        start = time.perf_counter()
        repeats = run_passes(runner, records, start + seconds, tracer)
        measured_s = time.perf_counter() - start
    finally:
        meter.uninstall()
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in records if not r.live]
    processed = len(records) - len(failed) + repeats
    probe_s = statistics.median(runner.probes)
    notes: dict[str, str] = {}
    result = {
        "workload": workload,
        "seed": seed,
        "corpus_sha256": _fingerprint(f"{i.id}\n{i.text}" for i in corpus),
        "output_sha256": _fingerprint(
            f"{r.instance.id}:{r.status}:" + ",".join(f"{n}={h}" for n, h in sorted(r.digests.items()))
            for r in records
        ),
        "attempted": len(records),
        "failed": failed,
        "outcomes": dict(Counter(r.status for r in records)),
        "methods": dict(sorted(Counter(str(r.method) for r in records).items())),
        "slowest": sorted(((r.total(), r.instance.id) for r in records if r.times), reverse=True)[:5],
        "passes": f"{measured_s:.1f} s measured: pass 0 over {len(records)} instances, "
        f"then {repeats} repeated instance passes",
        "calibration": f"probe median {probe_s * 1e3:.3f} ms over {len(runner.probes)} probes, "
        f"so 1 wall s = {CAL_NOMINAL_S / probe_s:.3f} ref_s",
        "budget": f"largest simplex work of one command {meter.peak:,} of {meter.budget:,} tableau entries"
        if meter.available else "simplex work budget unavailable (no simplex._Tableau.pivot to count)",
        "notes": notes,
    }
    if tracer is not None:
        metrics = layer_metrics(tracer.spans, repeats, CAL_NOMINAL_S / probe_s)
        ratios = [r.total() / r.untraced for r in records if r.live and r.times]
        metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1, "ratio")
        notes["trace.overhead_ratio"] = f"median of traced / untraced ref_s over {len(ratios)} instances, minus 1"
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(str(HERE / "out" / f"spans-{workload}.tsv.gz"))
    else:
        metrics = {"setup_s": (setup_s, "s")}
        for name in ("witness", "verify", "surface"):
            per_instance = [statistics.median(r.times[name]) for r in records if r.times.get(name)]
            if not per_instance:
                notes[f"{name}_s"] = "not run on this workload"
                continue
            s = summary(per_instance)
            metrics[f"{name}_s.p50"] = (s["p50"], "ref_s")
            metrics[f"{name}_s.tail"] = (s["tail"], "ref_s")
            notes[f"{name}_s.p50"] = f"n={s['n']} instances, each the median of its passes"
            notes[f"{name}_s.tail"] = f"p{s['tail_p']:g}, {s['beyond']} of n={s['n']} beyond"
        metrics["instances_per_s"] = (processed / runner.program_ref_s, "1/ref_s")
        notes["instances_per_s"] = f"{processed} instance passes in {runner.program_ref_s:.3f} ref_s"
        metrics["fail_ratio"] = (len(failed) / len(records), "ratio")
        notes["fail_ratio"] = f"{len(failed)} of {len(records)} (timeouts and error exits)"
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    result["metrics"] = metrics
    return result


def report(result: dict) -> None:
    print(f"== workload {result['workload']}  seed {result['seed']}")
    print(f"corpus_sha256 {result['corpus_sha256']}")
    print(f"output_sha256 {result['output_sha256']}")
    print(f"attempted {result['attempted']}  outcomes {result['outcomes']}  methods {result['methods']}")
    print(f"passes {result['passes']}")
    print(f"calibration {result['calibration']}")
    print(f"budget {result['budget']}")
    for r in result["failed"]:
        print(f"{r.status} {r.instance.id}: {r.reason}")
    print("slowest " + "  ".join(f"{iid} {t:.3f} ref_s" for t, iid in result["slowest"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:28s} {value:14.6g} {unit:15s} {result['notes'].get(name, '')}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"{name:28s} {'-':>14s} {'':15s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pg = load_library()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(pg, name, args.seed, args.seconds, bool(args.trace))
        except CertificateError as exc:
            print(f"CERTIFICATE CHECK FAILED in {name}: {exc}")
            correct = False
            continue
        report(result)
        attempted += result["attempted"]
        failed += len(result["failed"])
        for metric, (value, unit) in result["metrics"].items():
            if args.trace or metric in END_TO_END:
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
