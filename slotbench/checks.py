"""Output checks behind ``fail_rate``.

Each check compares what a timed call returned against the oracle that
``gen.py`` wrote. The checks only read fields of the returned objects and
parse the rendered TSV; they call nothing in ``slotscore``, so a defect in
the scorer cannot cancel itself out. Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

KINDS = ("trigger", "span_only_arg", "labeled_arg")
DELTA_TOLERANCE = 1e-12


def _key(row: list) -> tuple:
    return tuple(row[:4])


def oracle_cells(rows: list) -> dict[tuple, tuple[int, int, int]]:
    """Oracle rows ``[kind, event_type, argument_type, subtype, tp, fn, fp]``
    as a dict, all-zero cells dropped."""
    return {_key(r): tuple(r[4:]) for r in rows if any(r[4:])}


def _sum(cells) -> tuple[int, int, int]:
    tp = fn = fp = 0
    for c_tp, c_fn, c_fp in cells:
        tp, fn, fp = tp + c_tp, fn + c_fn, fp + c_fp
    return tp, fn, fp


def prf(tp: int, fn: int, fp: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _cells(counts) -> dict[tuple, tuple[int, int, int]]:
    """A ``ScoreCounts`` as plain tuples, all-zero cells dropped."""
    return {
        (k.kind, k.event_type, k.argument_type, k.subtype): (c.tp, c.fn, c.fp)
        for k, c in counts.counts.items()
        if c.tp or c.fn or c.fp
    }


def _tally_problems(label: str, got: dict, want: dict) -> list[str]:
    wrong = sorted((k for k in set(got) | set(want) if got.get(k) != want.get(k)), key=repr)
    return [f"{label} {k}: scorer {got.get(k)} != oracle {want.get(k)}" for k in wrong]


def parse_tsv(text: str) -> list[dict[str, str]]:
    """Rows of a rendered TSV report, keyed by column name."""
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split("\t")
    return [dict(zip(columns, line.split("\t"))) for line in lines[1:]]


def _tsv_counts(row: dict) -> tuple[int, int, int]:
    return int(row["tp"]), int(row["fn"]), int(row["fp"])


def check_score(counts, tsv: str, expected: list) -> list[str]:
    """``score_corpus`` tallies against the edit-log oracle, and the rendered
    report's ``overall`` and ``kind`` rows against the oracle totals."""
    want = oracle_cells(expected)
    problems = _tally_problems("tally", _cells(counts), want)
    rows = parse_tsv(tsv)
    total = _sum(want.values())
    overall = [r for r in rows if r.get("section") == "overall"]
    if len(overall) != 1:
        problems.append(f"report has {len(overall)} overall rows")
    else:
        row = overall[0]
        if _tsv_counts(row) != total:
            problems.append(f"overall row {_tsv_counts(row)} != oracle {total}")
        cells = tuple(f"{x:.6f}" for x in prf(*total))
        if (row["precision"], row["recall"], row["f1"]) != cells:
            problems.append(f"overall P/R/F1 {row['precision']}/{row['recall']}/{row['f1']}")
    kinds = {r["kind"]: _tsv_counts(r) for r in rows if r.get("section") == "kind"}
    for kind in KINDS:
        want_kind = _sum(v for k, v in want.items() if k[0] == kind)
        if want_kind != (0, 0, 0) and kinds.get(kind) != want_kind:
            problems.append(f"kind row {kind} {kinds.get(kind)} != oracle {want_kind}")
    return problems


def check_note_tallies(per_note: list, expected: list) -> list[str]:
    """Per-note ``score_document`` tallies, summed here, against the oracle."""
    got: dict[tuple, tuple[int, int, int]] = {}
    for counts in per_note:
        for key, cell in _cells(counts).items():
            got[key] = _sum([got.get(key, (0, 0, 0)), cell])
    return _tally_problems("per-note tally", got, oracle_cells(expected))


def check_analysis(subtypes, density, stats, violations, oracle: dict, system: str) -> list[str]:
    """The error-analysis tables and stats/validate against the oracle."""
    problems = []
    want = oracle_cells(oracle["expected"][system])
    labeled = _sum(v for k, v in want.items() if k[0] == "labeled_arg")
    got = _sum((r.metrics.tp, r.metrics.fn, r.metrics.fp) for r in subtypes)
    if got != labeled:
        problems.append(f"subtype rows sum to {got}, labeled_arg oracle {labeled}")
    total = _sum(want.values())
    got = _sum((r.metrics.tp, r.metrics.fn, r.metrics.fp) for r in density)
    if got != total:
        problems.append(f"density rows sum to {got}, overall oracle {total}")
    gold_events = sum(r.gold_events for r in density)
    if gold_events != oracle["inputs"]["gold_events"]:
        problems.append(f"density rows hold {gold_events} gold events")
    if stats.note_count != oracle["inputs"]["notes"]:
        problems.append(f"stats counts {stats.note_count} notes")
    if dict(stats.events_by_type) != oracle["gold_events_by_type"]:
        problems.append(f"stats events by type {dict(stats.events_by_type)}")
    if violations:
        problems.append(f"{len(violations)} schema violation(s) on gold, first {violations[0]}")
    return problems


def check_compare(result, tsv: str, reference: dict) -> list[str]:
    """``paired_bootstrap`` against the benchmark's reference resampler: the
    p-value exactly, F1 values and every delta within 1e-12."""
    problems = []
    for name in ("f1_a", "f1_b"):
        if abs(getattr(result, name) - reference[name]) > DELTA_TOLERANCE:
            problems.append(f"{name} {getattr(result, name)!r} != oracle {reference[name]!r}")
    if abs(result.observed_delta - (reference["f1_a"] - reference["f1_b"])) > DELTA_TOLERANCE:
        problems.append(f"observed delta {result.observed_delta!r}")
    if result.p_value != reference["p_value"]:
        problems.append(f"p-value {result.p_value!r} != oracle {reference['p_value']!r}")
    if result.repetitions != reference["repetitions"] or result.seed != reference["seed"]:
        problems.append(f"ran {result.repetitions} reps with seed {result.seed}")
    deltas = result.deltas or ()
    if len(deltas) != len(reference["deltas"]):
        problems.append(f"{len(deltas)} deltas, oracle {len(reference['deltas'])}")
    else:
        worst = max((abs(d - r) for d, r in zip(deltas, reference["deltas"])), default=0.0)
        if worst > DELTA_TOLERANCE:
            problems.append(f"deltas differ from the oracle by up to {worst!r}")
    significant = reference["p_value"] < reference["alpha"]
    if result.significant != significant:
        problems.append(f"significant={result.significant}")
    rows = parse_tsv(tsv)
    want_row = {
        "p_value": f"{reference['p_value']:.6f}",
        "f1_a": f"{reference['f1_a']:.6f}",
        "f1_b": f"{reference['f1_b']:.6f}",
        "verdict": "statistically different" if significant else "not statistically different",
    }
    if len(rows) != 1 or any(rows[0].get(k) != v for k, v in want_row.items()):
        problems.append(f"bootstrap report rows {rows} != {want_row}")
    return problems


def check_one_rep(result, reference: dict) -> list[str]:
    """A 1-repetition bootstrap still reports the oracle F1 values."""
    problems = []
    for name in ("f1_a", "f1_b"):
        if abs(getattr(result, name) - reference[name]) > DELTA_TOLERANCE:
            problems.append(f"1-rep {name} {getattr(result, name)!r} != oracle {reference[name]!r}")
    if result.repetitions != 1:
        problems.append(f"1-rep bootstrap ran {result.repetitions} reps")
    return problems
