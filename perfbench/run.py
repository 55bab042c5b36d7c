"""End-to-end and per-layer benchmark of the gaussreal command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Each workload is one closed loop with one caller: ``gaussreal.cli.main`` is
called in this process, with stdout captured, again and again until
``--seconds`` have passed (at least once).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes of
the same call and reports the per-layer metrics (see ``spans.py``).  Every
output is checked; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with run metadata, goes to ``perfbench/out/``.  See README.md for
why each workload exists and which metric should move where.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Per-n totals and realizable counts of the n <= 7 sweep (OEIS A007769 for
# the totals; the realizable counts were recorded from the first run).
SWEEP_MAX_CHORDS = 7
SWEEP_TOTALS = (1, 2, 5, 17, 79, 554, 5283)
SWEEP_REALIZABLE = (1, 1, 3, 5, 15, 43, 172)

# check-batch: every chord count in this range, this many times over.
BATCH_CHORDS = range(10, 61)
BATCH_ROUNDS = 4
# check-cross: every chord count in this range, this many times over.
CROSS_CHORDS = range(10, 15)
CROSS_ROUNDS = 20

# Fresh-interpreter imports timed before each call and after the last.
SETUP_SAMPLES = 3

SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import gaussreal\n"
    "print(time.perf_counter() - t, gaussreal.KERNEL_BACKEND)\n"
)


def _import_program():
    """Import gaussreal from this checkout's sources, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import gaussreal
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import gaussreal from %s: %s" % (SRC, exc))
    if Path(gaussreal.__file__).resolve().parent != SRC / "gaussreal":
        raise SystemExit("perfbench: gaussreal imported from %s" % gaussreal.__file__)
    return gaussreal


# -- workloads ---------------------------------------------------------------


class Sweep:
    """All 5,941 canonical diagrams with <= 7 chords, both deciders each."""

    name = "sweep"

    def __init__(self, seed: int) -> None:
        self.items = sum(SWEEP_TOTALS)
        self.argv = [
            "cross-validate",
            "--max-chords",
            str(SWEEP_MAX_CHORDS),
            "--workers",
            "1",
            "--format",
            "structured",
        ]

    def failures(self, doc: dict, code: int) -> int:
        if code != 0:
            return self.items
        rows = doc["rows"]
        if len(rows) != len(SWEEP_TOTALS):
            return self.items
        failed = 0
        for row, total, realizable in zip(rows, SWEEP_TOTALS, SWEEP_REALIZABLE):
            failed += abs(row["total"] - total) + abs(row["realizable"] - realizable)
            failed += len(row["disagreements"])
        return min(failed, self.items)


class CheckBatch:
    """Polygon words with 10-60 chords and their one-swap mutants."""

    name = "check-batch"
    chords = BATCH_CHORDS
    rounds = BATCH_ROUNDS
    extra_args: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        from polygons import mutate, polygon_words

        rng = random.Random("%s/%d" % (self.name, seed))
        by_size = polygon_words(rng, self.chords, self.rounds)
        words = []  # (tokens, traced from a polygon)
        for k in range(self.rounds):
            for n in self.chords:
                word = by_size[n][k]
                words.append((word, True))
                words.append((mutate(rng, word), False))
        self.words = words
        self.items = len(words)
        OUT.mkdir(exist_ok=True)
        self.path = OUT / ("%s-seed%d.txt" % (self.name, seed))
        lines = ["# %s seed %d: polygon words, each then a mutant" % (self.name, seed)]
        lines.extend(" ".join(tokens) for tokens, _ in words)
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.argv = ["check", "--batch", str(self.path), *self.extra_args]
        self.argv += ["--format", "structured"]

    def failures(self, doc: dict, code: int) -> int:
        from gaussreal import WitnessMismatch, diagram_from_word, verify_witness

        if code not in (0, 1) or len(doc["reports"]) != self.items:
            return self.items
        failed = 0
        for (tokens, polygon), report in zip(self.words, doc["reports"]):
            diagram = diagram_from_word(" ".join(tokens))
            ok = report["word"] == diagram.word.text()
            expected = "realizable" if polygon else "non-realizable"
            ok = ok and report["verdict"] == expected
            ok = ok and self.cross_check_ok(report["cross_check"])
            try:
                ok = ok and verify_witness(diagram, _report_from_document(report))
            except WitnessMismatch:
                ok = False
            failed += not ok
        return failed

    def cross_check_ok(self, check) -> bool:
        return check is None


class CheckCross(CheckBatch):
    """Polygon words with 10-14 chords and mutants, with the oracle too."""

    name = "check-cross"
    chords = CROSS_CHORDS
    rounds = CROSS_ROUNDS
    extra_args = ("--cross-check",)

    def cross_check_ok(self, check) -> bool:
        return check is not None and check["agrees"] is True


WORKLOADS = {w.name: w for w in (Sweep, CheckBatch, CheckCross)}


def _report_from_document(doc: dict):
    """Rebuild a RealizabilityReport from its structured document."""
    from gaussreal import (
        EvenConditionReport,
        EvenConditionViolation,
        GaussWord,
        RealizabilityReport,
        SmoothingViolation,
    )
    from gaussreal.realizability import ChordParityViolation, PairParityViolation

    def word(text):
        return GaussWord.from_tokens(text.split())

    def violation(v):
        if v["kind"] == "chord":
            return ChordParityViolation(
                chord=v["chord"], crossings=tuple(v["crossings"])
            )
        return PairParityViolation(pair=tuple(v["pair"]), shared=tuple(v["shared"]))

    def even(r):
        return EvenConditionReport(
            holds=r["holds"], violations=tuple(violation(v) for v in r["violations"])
        )

    w = doc["witness"]
    if w is None:
        witness = None
    elif w["kind"] == "even-condition":
        witness = EvenConditionViolation(report=even(w["report"]))
    else:
        witness = SmoothingViolation(
            chord=w["chord"],
            smoothed_word=word(w["smoothed_word"]),
            report=even(w["report"]),
        )
    return RealizabilityReport(
        word=word(doc["word"]),
        kink_free_word=word(doc["kink_free_word"]),
        realizable=doc["verdict"] == "realizable",
        witness=witness,
    )


# -- measurement -------------------------------------------------------------


def _call_cli(argv, tracer=None):
    """One ``cli.main`` call: (stdout, exit code, wall seconds, start time)."""
    from gaussreal import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails every item of this call
                traceback.print_exc(file=sys.__stderr__)
                code = None
            wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out.getvalue(), code, wall, start


class Checker:
    """Checks every output: the first in full, the rest against the first."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failed = 0

    def add(self, text: str, code: int) -> None:
        items = self.workload.items
        self.attempted += items
        if self.first is None:
            self.first = (text, code)
            try:
                doc = json.loads(text)
            except ValueError:
                self.failed += items
                return
            self.failed += self.workload.failures(doc, code)
        elif (text, code) != self.first:
            self.failed += items


def _import_seconds() -> float:
    """Time of ``import gaussreal`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.split()[0])


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest of the usual percentiles with at least ten samples beyond it.

    Returns (percentile, value); with fewer than 20 samples, the maximum.
    """
    ordered = sorted(samples)
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1] if ordered else 0.0


def _layer_metrics(tracer, wall: float) -> dict:
    """Per-layer values of one traced pass (times in seconds unless named)."""
    own = tracer.self_seconds
    counts = tracer.counts
    m = {}
    for name in (
        "enumeration.canonical_keys",
        "enumeration.key_to_diagram",
        "oracle.oracle_realizable",
        "oracle.kernel_search",
        "oracle.witness_retrace",
        "realizability.is_realizable",
        "realizability.even_condition",
        "smoothing.smooth_by_word",
        "core.diagram_from_word",
        "core.interlacement",
        "codec.parse_batch",
        "codec.emit",
    ):
        m[name + "_s"] = own.get(name, 0.0)
    matchings = counts["matchings_visited"]
    m["enumeration.matchings_visited"] = matchings
    m["enumeration.orbits_kept"] = counts["orbits_kept"]
    m["enumeration.orbit_yield"] = (
        counts["orbits_kept"] / matchings if matchings else 0.0
    )
    for layer, fn in (
        ("oracle", "oracle_realizable"),
        ("realizability", "is_realizable"),
    ):
        calls = tracer.durations("%s.%s" % (layer, fn))
        pct, tail = _tail(calls)
        m["%s.%s_calls" % (layer, fn)] = len(calls)
        p50 = statistics.median(calls) if calls else 0.0
        m["%s.%s_p50_ms" % (layer, fn)] = 1000 * p50
        m["%s.%s_tail_ms" % (layer, fn)] = 1000 * tail
        m["%s.%s_tail_pct" % (layer, fn)] = pct if calls else 0.0
    masks = counts["masks_scanned"]
    search = own.get("oracle.kernel_search", 0.0)
    m["oracle.masks_scanned"] = masks
    m["oracle.masks_per_s"] = masks / search if search else 0.0
    oracle_calls = counts["oracle_calls"]
    m["oracle.planar_hit_ratio"] = (
        counts["planar_hits"] / oracle_calls if oracle_calls else 0.0
    )
    m["realizability.smoothings_checked"] = counts["smoothings_checked"]
    m["realizability.base_violations"] = counts["base_violations"]
    m["realizability.smoothing_violations"] = counts["smoothing_violations"]
    m["codec.bytes_emitted"] = counts["bytes_emitted"]
    unattributed = wall - sum(own.values())
    m["cli.unattributed_s"] = unattributed
    m["cli.unattributed_share"] = unattributed / wall
    return m


def _units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def run_untraced(workload, seconds: float):
    checker = Checker(workload)
    walls = []
    _import_seconds()  # fills the bytecode cache
    setups = []
    started = perf_counter()
    while not walls or perf_counter() - started < seconds:
        # Set-up samples are spread over the run, so that one burst of
        # machine noise cannot move them all.
        setups.extend(_import_seconds() for _ in range(SETUP_SAMPLES))
        text, code, wall, _ = _call_cli(workload.argv)
        checker.add(text, code)
        walls.append(wall)
    setups.extend(_import_seconds() for _ in range(SETUP_SAMPLES))
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(workload.items / w for w in walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return checker, metrics, {"wall_s": walls, "setup_s": setups}


def run_traced(workload, seconds: float, spans_path: Path):
    from spans import Tracer

    checker = Checker(workload)
    passes = []  # (untraced wall, traced wall, layer metrics)
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        text, code, plain, _ = _call_cli(workload.argv)
        checker.add(text, code)
        tracer = Tracer()
        text, code, traced, origin = _call_cli(workload.argv, tracer)
        checker.add(text, code)
        passes.append((plain, traced, _layer_metrics(tracer, traced)))
    tracer.write(spans_path, origin)
    metrics = {
        name: statistics.median(p[2][name] for p in passes) for name in passes[0][2]
    }
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t, _ in passes)
    metrics["failed_ratio"] = checker.failed / checker.attempted
    samples = {
        "untraced_wall_s": [p for p, _, _ in passes],
        "traced_wall_s": [t for _, t, _ in passes],
    }
    return checker, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gaussreal = _import_program()
    kind = "per_layer" if args.trace else "end_to_end"
    units = _units(kind)
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        spans_path = OUT / (stem + ".spans.tsv")
        checker, values, samples = run_traced(workload, args.seconds, spans_path)
    else:
        checker, values, samples = run_untraced(workload, args.seconds)
    if set(values) != set(units):
        raise SystemExit(
            "perfbench: metrics %s do not match BENCHMARK.json"
            % sorted(set(values) ^ set(units))
        )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": gaussreal.KERNEL_BACKEND,
        "gaussreal": gaussreal.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "items": workload.items,
    }
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as handle:
        full = {"meta": meta, "samples": samples, **result}
        json.dump(full, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
