"""The measuring process: set-up, then the timed calls, each output checked.

    python3 slotbench/measure.py --work DIR --seconds 35 --trace 0 [--setup-only]

Runs from the root of a checkout with ``src`` on ``PYTHONPATH`` and the
corpora and oracle that ``gen.py`` wrote in ``DIR``. It makes every timed
call in one thread and prints one JSON object: the samples (untraced) or the
per-layer metrics and spans (traced), the attempted and failed operation
counts, and the process's peak resident memory.

Nothing from ``slotscore`` is imported before set-up starts, because set-up
time includes the import.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

import checks

# Pairs of untraced and traced rounds in a traced run; the tracing overhead
# is the median of their differences.
OVERHEAD_PAIRS = 2


class Tracer:
    """Spans (name, parent, start, end) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent id, start ns, end ns]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, self._open[-1] if self._open else None,
                  time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._open.pop()

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of the spans called ``name`` (under a span called
        ``parent``, when given)."""
        return [
            (s[4] - s[3]) / 1e9
            for s in self.spans
            if s[1] == name
            and (parent is None or s[2] is not None and self.spans[s[2]][1] == parent)
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its children cover."""
        out = {s[0]: (s[4] - s[3]) / 1e9 for s in self.spans}
        for s in self.spans:
            if s[2] is not None:
                out[s[2]] -= (s[4] - s[3]) / 1e9
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s[1], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (s[4] - s[3]) / 1e9
            row["self_s"] += own[s[0]]
        return out


def no_span(name: str):
    return nullcontext()


class Recorder:
    """Counts timed operations and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, phase, *args):
        """Run one timed operation; return ``(seconds, output)`` when its
        output passes its check, else None."""
        self.attempted += 1
        # Every timed call starts from the same collector state, so a full
        # collection left over from the previous call does not land in it.
        gc.collect()
        try:
            elapsed, problems, output = phase(*args)
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"slotbench: {label}: {problem}", file=sys.stderr)
            return None
        return elapsed, output


def setup(root: Path, work: Path, oracle: dict, span):
    """What every CLI run pays before its first tally: import, schema, load."""
    start = time.perf_counter()
    with span("setup"):
        with span("slotscore.import"):
            import slotscore
            import slotscore.reports
        with span("schema.load"):
            schema = slotscore.shac_schema()
        corpora = {}
        for name in oracle["corpora"]:
            with span("standoff.load_corpus"):
                corpora[name] = slotscore.load_corpus(work / name)
    elapsed = time.perf_counter() - start

    problems = []
    if not Path(slotscore.__file__).resolve().is_relative_to((root / "src").resolve()):
        problems.append(f"imported slotscore from {slotscore.__file__}, not from this checkout")
    for name, corpus in corpora.items():
        if len(corpus) != oracle["inputs"]["notes"]:
            problems.append(f"{name}: loaded {len(corpus)} notes")
    ctx = SimpleNamespace(
        ss=slotscore, reports=slotscore.reports, schema=schema, corpora=corpora, oracle=oracle,
        gold=corpora["gold"], a=corpora["a"], b=corpora.get("b", corpora["gold"]),
    )
    return elapsed, problems, ctx


def score_phase(ctx, span):
    """The rest of `slotscore score`: tally, then the TSV metric report."""
    start = time.perf_counter()
    with span("score"):
        with span("scoring.score_corpus"):
            counts, report = ctx.ss.score_corpus(ctx.gold, ctx.a, ctx.schema)
        with span("scoring.metric_report"):
            rows = ctx.reports.metric_rows(report)
        with span("reports.render"):
            text = ctx.reports.render(rows, ctx.reports.METRIC_COLUMNS, "tsv", {})
    elapsed = time.perf_counter() - start
    return elapsed, checks.check_score(counts, text, ctx.oracle["expected"]["a"]), counts


def analysis_phase(ctx, span):
    """The paper's error-analysis tables plus `stats` and `validate`."""
    ss = ctx.ss
    start = time.perf_counter()
    with span("analysis"):
        with span("analytics.subtype_breakdown"):
            subtypes = ss.subtype_breakdown(ctx.gold, ctx.a, ctx.schema)
        with span("analytics.density_breakdown"):
            density = ss.density_breakdown(ctx.gold, ctx.a, ctx.schema)
        with span("analytics.corpus_stats"):
            stats = ss.corpus_stats(ctx.gold, ctx.schema)
        with span("schema.validate_corpus"):
            violations = ss.validate_corpus(ctx.gold, ctx.schema)
    elapsed = time.perf_counter() - start
    problems = checks.check_analysis(subtypes, density, stats, violations, ctx.oracle, "a")
    return elapsed, problems, violations


def compare_phase(ctx, span):
    """The rest of `slotscore compare` at its defaults (10,000 repetitions,
    seed 0, alpha 0.05). Deltas are kept so every one can be checked."""
    reports = ctx.reports
    start = time.perf_counter()
    with span("compare"):
        with span("significance.paired_bootstrap"):
            result = ctx.ss.paired_bootstrap(
                ctx.gold, ctx.a, ctx.b, ctx.schema, ctx.ss.BootstrapConfig(), keep_deltas=True
            )
        with span("reports.render"):
            header = {"seed": result.seed, "repetitions": result.repetitions}
            text = reports.render(
                reports.bootstrap_rows(result), reports.BOOTSTRAP_COLUMNS, "tsv", header
            )
    elapsed = time.perf_counter() - start
    return elapsed, checks.check_compare(result, text, ctx.oracle["bootstrap"]), result


def one_rep_phase(ctx, span):
    """paired_bootstrap at 1 repetition: everything but the resampling."""
    start = time.perf_counter()
    with span("significance.paired_bootstrap_1rep"):
        result = ctx.ss.paired_bootstrap(
            ctx.gold, ctx.a, ctx.b, ctx.schema, ctx.ss.BootstrapConfig(repetitions=1)
        )
    elapsed = time.perf_counter() - start
    return elapsed, checks.check_one_rep(result, ctx.oracle["bootstrap"]), result


def parse_phase(ctx, work: Path, tracer: Tracer):
    """parse_document on text already read, one span per note."""
    files = []
    for name in ctx.oracle["corpora"]:
        for txt in sorted((work / name).glob("*.txt")):
            ann = txt.with_suffix(".ann").read_text(encoding="utf-8")
            files.append((name, txt.stem, ann, txt.read_text(encoding="utf-8")))
    parsed = []
    start = time.perf_counter()
    with tracer.span("standoff.parse_document"):
        for _, doc_id, ann, text in files:
            with tracer.span("standoff.parse_note"):
                parsed.append(ctx.ss.parse_document(ann, text, doc_id=doc_id))
    elapsed = time.perf_counter() - start
    problems = [
        f"{name}/{doc.doc_id}: parse_document differs from load_corpus"
        for (name, _, _, _), doc in zip(files, parsed)
        if doc != ctx.corpora[name][doc.doc_id]
    ]
    counts = {
        "notes": len(files),
        "ann_lines": sum(ann.count("\n") for _, _, ann, _ in files),
        "ann_bytes": sum(len(ann.encode("utf-8")) for _, _, ann, _ in files),
    }
    return elapsed, problems, counts


def align_phase(ctx, tracer: Tracer):
    """align_events note by note, one span per note."""
    matched = 0
    start = time.perf_counter()
    with tracer.span("scoring.align_events"):
        for doc_id in ctx.gold.doc_ids():
            with tracer.span("scoring.align_note"):
                alignment = ctx.ss.align_events(ctx.gold[doc_id], ctx.a[doc_id])
            matched += len(alignment.matched)
    elapsed = time.perf_counter() - start
    problems = []
    if matched != ctx.oracle["matched_pairs"]:
        problems.append(f"{matched} matched pairs, oracle {ctx.oracle['matched_pairs']}")
    return elapsed, problems, matched


def score_document_phase(ctx, tracer: Tracer):
    """score_document note by note (alignment included), one span per note."""
    per_note = []
    start = time.perf_counter()
    with tracer.span("scoring.score_document"):
        for doc_id in ctx.gold.doc_ids():
            with tracer.span("scoring.score_note"):
                per_note.append(ctx.ss.score_document(ctx.gold[doc_id], ctx.a[doc_id], ctx.schema))
    elapsed = time.perf_counter() - start
    return elapsed, checks.check_note_tallies(per_note, ctx.oracle["expected"]["a"]), None


# The machine is shared: for stretches of seconds to minutes, all code on it
# runs up to twice as slow, on every core at once. A fixed pure-Python
# workload, timed right before and right after each timed call, measures how
# fast the machine is at that moment, and the call's time is scaled to the
# speed at which that workload takes REFERENCE_S. On a shared 2-vCPU Xeon
# host this cut the ten-seed spread of command_s from about 0.3 to about 0.1.
REFERENCE_S = 0.05


class _Item:
    __slots__ = ("key", "group", "pair")

    def __init__(self, key: str, group: int):
        self.key = key
        self.group = group
        self.pair = (key, group)


def reference_work(n: int = 40_000) -> int:
    """Object, string, dict, set and sort work of the kind the scorer does.
    It uses nothing from slotscore, so no change to the package moves it."""
    items = [_Item(f"T{i}", i % 97) for i in range(n)]
    groups: dict[int, list[_Item]] = {}
    for item in items:
        groups.setdefault(item.group, []).append(item)
    seen = set()
    total = 0
    for item in items:
        total += len(groups[item.group]) + len(item.key)
        seen.add(item.pair)
    return total + len(seen) + len(sorted(items, key=lambda item: item.key))


def reference_s() -> float:
    """Seconds the reference workload takes now. Its objects form no cycles,
    so the collector is off while it runs: a full collection would walk the
    program's heap and make the reference depend on the program."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by the machine's speed around the call."""
    return seconds * REFERENCE_S * 2 / (before + after)


def numpy_version() -> str:
    return getattr(sys.modules.get("numpy"), "__version__", "not imported")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)]


def untraced_run(root: Path, work: Path, oracle: dict, seconds: float) -> dict:
    rec = Recorder()
    probes = [reference_s()]
    done = rec.attempt("setup", setup, root, work, oracle, no_span)
    probes.append(reference_s())
    if done is None:
        raise SystemExit("slotbench: set-up failed")
    setup_raw_s, ctx = done
    command = score_phase if oracle["command"] == "score" else compare_phase
    raw: dict[str, list[float]] = {"command_s": [], "analysis_s": []}
    samples: dict[str, list[float]] = {"command_s": [], "analysis_s": []}
    # With a positive --seconds the first round warms up: its outputs are
    # checked, its times are not kept (the process's heap still grows in it).
    warmup = 1 if seconds > 0 else 0
    start = time.perf_counter()
    for round_no in itertools.count():
        for metric, phase in (("command_s", command), ("analysis_s", analysis_phase)):
            done = rec.attempt(metric, phase, ctx, no_span)
            probes.append(reference_s())
            if done is not None and round_no >= warmup:
                raw[metric].append(done[0])
                samples[metric].append(at_reference_speed(done[0], probes[-2], probes[-1]))
        if round_no >= warmup and time.perf_counter() - start >= seconds:
            break
    return {"setup_s": at_reference_speed(setup_raw_s, probes[0], probes[1]),
            "setup_raw_s": setup_raw_s, "samples": samples, "raw_samples": raw,
            "probes": probes, "attempted": rec.attempted, "failed": rec.failed,
            "numpy": numpy_version()}


def traced_run(root: Path, work: Path, oracle: dict) -> dict:
    rec = Recorder()
    tracer = Tracer()
    done = rec.attempt("setup", setup, root, work, oracle, tracer.span)
    if done is None:
        raise SystemExit("slotbench: set-up failed")
    setup_s, ctx = done
    roots = [tracer.spans[0]]  # the spans whose durations are end-to-end times
    command = score_phase if oracle["command"] == "score" else compare_phase
    other = compare_phase if oracle["command"] == "score" else score_phase

    def traced(label, phase, *args):
        first = len(tracer.spans)
        done = rec.attempt(label, phase, *args)
        return done, tracer.spans[first] if len(tracer.spans) > first else None

    # Each call runs untraced and traced, the two in turn first, and the
    # difference is the tracing overhead.
    untraced = {"command_s": [], "analysis_s": []}
    outputs = {}
    overheads = []
    for pair in range(OVERHEAD_PAIRS):
        overhead = 0.0
        for metric, phase in (("command_s", command), ("analysis_s", analysis_phase)):
            if pair % 2:
                done, root = traced(metric, phase, ctx, tracer.span)
                plain = rec.attempt(metric, phase, ctx, no_span)
            else:
                plain = rec.attempt(metric, phase, ctx, no_span)
                done, root = traced(metric, phase, ctx, tracer.span)
            if plain is None or done is None:
                overhead = None
                continue
            untraced[metric].append(plain[0])
            roots.append(root)
            outputs[phase] = done[1]
            if overhead is not None:
                overhead += done[0] - plain[0]
        if overhead is not None:
            overheads.append(overhead)

    # The command the workload does not run is traced once, so every
    # workload reports every layer.
    done, _ = traced("other command", other, ctx, tracer.span)
    if done is not None:
        outputs[other] = done[1]
    rec.attempt("paired_bootstrap_1rep", one_rep_phase, ctx, tracer.span)
    parsed = rec.attempt("parse_document", parse_phase, ctx, work, tracer)
    aligned = rec.attempt("align_events", align_phase, ctx, tracer)
    rec.attempt("score_document", score_document_phase, ctx, tracer)

    own = tracer.self_times()
    remainder = sum(own[s[0]] for s in roots)
    covered = sum((s[4] - s[3]) / 1e9 for s in roots)
    parse_notes = tracer.durations("standoff.parse_note")
    align_notes = tracer.durations("scoring.align_note")
    bootstrap_s = statistics.median(tracer.durations("significance.paired_bootstrap"))
    resample_s = bootstrap_s - tracer.total("significance.paired_bootstrap_1rep")
    render_s = sum(statistics.median(tracer.durations("reports.render", parent))
                   for parent in ("score", "compare"))
    gold_events = sum(len(doc.events) for doc in ctx.gold)
    matched = aligned[1] if aligned else 0
    files = parsed[1] if parsed else {"notes": 0, "ann_lines": 0, "ann_bytes": 0}
    counts = outputs.get(score_phase)
    slots = sum(c.tp + c.fn + c.fp for c in counts.counts.values()) if counts else 0
    violations = outputs.get(analysis_phase)

    def median_of(name: str) -> float:
        return statistics.median(tracer.durations(name))

    per_layer = {
        "standoff.load_corpus_s": tracer.total("standoff.load_corpus"),
        "standoff.parse_document_s": sum(parse_notes),
        "standoff.parse_note_p50_us": percentile(parse_notes, 0.50) * 1e6,
        "standoff.parse_note_p99_us": percentile(parse_notes, 0.99) * 1e6,
        "standoff.notes": files["notes"],
        "standoff.ann_lines": files["ann_lines"],
        "standoff.ann_bytes": files["ann_bytes"],
        "schema.load_s": tracer.total("schema.load"),
        "schema.validate_corpus_s": median_of("schema.validate_corpus"),
        "schema.violations": len(violations) if violations is not None else -1,
        "scoring.align_events_s": sum(align_notes),
        "scoring.align_note_p50_us": percentile(align_notes, 0.50) * 1e6,
        "scoring.align_note_p99_us": percentile(align_notes, 0.99) * 1e6,
        "scoring.score_document_s": tracer.total("scoring.score_note"),
        "scoring.score_corpus_s": median_of("scoring.score_corpus"),
        "scoring.metric_report_s": median_of("scoring.metric_report"),
        "scoring.gold_events": gold_events,
        "scoring.pred_events": sum(len(doc.events) for doc in ctx.a),
        "scoring.matched_pairs": matched,
        "scoring.slots": slots,
        "scoring.match_rate": matched / gold_events if gold_events else 0.0,
        "analytics.subtype_breakdown_s": median_of("analytics.subtype_breakdown"),
        "analytics.density_breakdown_s": median_of("analytics.density_breakdown"),
        "analytics.corpus_stats_s": median_of("analytics.corpus_stats"),
        "significance.paired_bootstrap_s": bootstrap_s,
        "significance.resample_s": resample_s,
        "significance.reps_per_s": (
            oracle["bootstrap"]["repetitions"] / resample_s if resample_s > 0 else 0.0),
        "reports.render_s": render_s,
        "trace.overhead_s": statistics.median(overheads) if overheads else 0.0,
        "trace.remainder_s": remainder,
        "trace.covered_share": 1.0 - remainder / covered if covered else 0.0,
        "trace.spans": len(tracer.spans),
    }
    return {
        "setup_s": setup_s,
        "samples": untraced,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "numpy": numpy_version(),
        "per_layer": per_layer,
        "self_times": tracer.summary(),
        "spans": tracer.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, help="directory gen.py wrote")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up once and exit")
    args = parser.parse_args()
    root = Path.cwd()
    work = Path(args.work)
    oracle = json.loads((work / "oracle.json").read_text(encoding="utf-8"))
    if args.setup_only:
        before = reference_s()
        setup_raw_s, problems, _ = setup(root, work, oracle, no_span)
        after = reference_s()
        out = {"setup_s": at_reference_speed(setup_raw_s, before, after),
               "setup_raw_s": setup_raw_s, "probes": [before, after], "problems": problems}
    elif args.trace:
        out = traced_run(root, work, oracle)
    else:
        out = untraced_run(root, work, oracle, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
