"""Corpus statistics and error-analysis breakdowns.

Covers note counts per partition, gold events per note, per-subtype
performance, and performance by event density (how many gold events of a
type a note carries: 1, 2, or 3+). The breakdowns have no scoring rules or
document walks of their own: the subtype table is the labeled-argument rows
of ``score_corpus``'s report, and the density table is read from the
scorer's plain cells, with no ``PhenomenonKey`` made. Each view tallies
straight into the table it reports and builds no record or table per note:
the density table hands the scorer's one pass (``scoring._tally_notes``)
two cells per event type that live for the whole call, folds them into its
buckets after each note and zeroes them, and the statistics take the
labeled roles from the schema's role table (``AnnotationSchema._roles``)
once per call, each with counts of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .schema import AnnotationSchema
from .scoring import (
    LABELED_ARG,
    MISSING_SUBTYPE,
    TRIGGER,
    Counts,
    Metrics,
    _Cells,
    _tally_notes,
    score_corpus,
)
from .standoff import Corpus

DENSITY_BUCKETS = ("0", "1", "2", "3+")


def bucket_label(gold_event_count: int) -> str:
    """Event-density bucket for a note: "1", "2", or "3+" gold events of a
    type; "0" is the pseudo-bucket holding spurious predictions on notes
    with no gold events of the type."""
    if gold_event_count >= 3:
        return "3+"
    return str(gold_event_count)


@dataclass(frozen=True)
class CorpusStats:
    note_count: int
    notes_by_partition: dict[tuple[str, str], int]
    events_by_type: dict[str, int]
    avg_events_per_note: dict[str, float]
    subtype_frequencies: dict[tuple[str, str, str], int]


def corpus_stats(corpus: Corpus, schema: AnnotationSchema) -> CorpusStats:
    """Exact counts; averages are event count over note count."""
    # Each labeled role of the schema's role table, with this call's counts:
    # {event type: {role: (spec, {subtype: count})}}. Keyed by event type and
    # role, never by spec alone: specs compare by value, and several event
    # types declare an equal one.
    labeled = {
        event_type: {role: (spec, {}) for role, (spec, key, _) in roles.items() if key is None}
        for event_type, (_, roles, _) in schema._roles.items()
    }
    partitions: Counter = Counter()
    events_by_type: dict[str, int] = {}

    for doc_id in corpus.doc_ids():
        doc = corpus[doc_id]
        partitions[(doc.metadata.source, doc.metadata.split)] += 1
        attrs = doc.attribute_index()
        for event in doc.events.values():
            event_type = event.event_type
            events_by_type[event_type] = events_by_type.get(event_type, 0) + 1
            roles = labeled.get(event_type)
            if not roles:
                continue
            for role, target in event.arguments:
                found = roles.get(role)
                if found is None:
                    continue
                spec, counts = found
                # A missing subtype counts as the sentinel, without a warning:
                # validation reports it.
                attr = attrs.get(schema.subtype_key(event.id, target, spec))
                subtype = MISSING_SUBTYPE if attr is None or attr.value is None else attr.value
                counts[subtype] = counts.get(subtype, 0) + 1

    n = len(corpus)
    averages = {t: c / n for t, c in sorted(events_by_type.items())} if n else {}
    subtypes = {
        (event_type, spec.argument_type, subtype): count
        for event_type, roles in labeled.items()
        for spec, counts in roles.values()
        for subtype, count in counts.items()
    }
    return CorpusStats(
        note_count=n,
        notes_by_partition=dict(sorted(partitions.items())),
        events_by_type=dict(sorted(events_by_type.items())),
        avg_events_per_note=averages,
        subtype_frequencies=dict(sorted(subtypes.items())),
    )


@dataclass(frozen=True)
class SubtypeRow:
    event_type: str
    argument_type: str
    subtype: str
    gold_count: int
    pred_count: int
    avg_gold_per_note: float
    metrics: Metrics


def subtype_breakdown(
    gold: Corpus, pred: Corpus, schema: AnnotationSchema
) -> list[SubtypeRow]:
    """Per-subtype performance rows, ordered by (event type, argument type,
    subtype). Subtypes absent from both gold and pred have no row."""
    _, report = score_corpus(gold, pred, schema)
    n = len(gold)
    return [
        SubtypeRow(
            event_type=key.event_type,
            argument_type=key.argument_type,
            subtype=key.subtype,
            gold_count=m.tp + m.fn,
            pred_count=m.tp + m.fp,
            avg_gold_per_note=(m.tp + m.fn) / n if n else 0.0,
            metrics=m,
        )
        # per_key is in (kind, event type, argument type, subtype) order.
        for key, m in report.per_key.items()
        if key.kind == LABELED_ARG
    ]


@dataclass(frozen=True)
class DensityRow:
    event_type: str
    bucket: str
    note_count: int
    gold_events: int
    metrics: Metrics


def density_breakdown(
    gold: Corpus, pred: Corpus, schema: AnnotationSchema
) -> list[DensityRow]:
    """Performance per (event type, density bucket).

    Each note joins, per event type, the bucket named by its gold event
    count for that type; the bucket accumulates the note's tallies
    restricted to the type, spurious predictions included. Notes with no
    gold events and no predictions of a type contribute nothing to it.

    The call keeps one table of cells (``_Cells``): each key is its event
    type's trigger cell or argument cell, so every note adds straight into
    them. Every tally adds at least 1 to some cell, so a type whose two
    cells are zero after a note did not occur in it, which is exactly the
    rule above. After each note every type met in the call is read, at
    O(event types met) per note, and its cells are zeroed.
    """
    # event type -> (trigger cell, argument cell), each [tp, fn, fp]
    by_type: dict[str, tuple[list[int], list[int]]] = {}

    def cell_of(key: tuple) -> list[int]:
        cells = by_type.get(key[1])
        if cells is None:
            cells = by_type[key[1]] = ([0, 0, 0], [0, 0, 0])
        return cells[0] if key[0] == TRIGGER else cells[1]

    note_cells = _Cells(cell_of)
    # (event type, bucket) -> [notes, gold events, tp, fn, fp]
    table: dict[tuple[str, str], list[int]] = {}

    for _ in _tally_notes(gold, (pred,), schema, (note_cells,)):
        for event_type, (trigger, argument) in by_type.items():
            tp, fn, fp = trigger
            arg_tp, arg_fn, arg_fp = argument
            if not (tp or fn or fp or arg_tp or arg_fn or arg_fp):
                continue
            # Every gold event fills its trigger slot once, as a tp or an fn,
            # trigger-less and undeclared-type events included.
            n = tp + fn
            key = (event_type, bucket_label(n))
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0, 0, 0, 0]
            row[0] += 1
            row[1] += n
            row[2] += tp + arg_tp
            row[3] += fn + arg_fn
            row[4] += fp + arg_fp
            trigger[:] = argument[:] = (0, 0, 0)

    rows = [
        DensityRow(
            event_type=event_type,
            bucket=bucket,
            note_count=notes,
            gold_events=gold_events,
            metrics=Metrics.from_counts(Counts(tp, fn, fp)),
        )
        for (event_type, bucket), (notes, gold_events, tp, fn, fp) in table.items()
    ]
    rows.sort(key=lambda r: (r.event_type, DENSITY_BUCKETS.index(r.bucket)))
    return rows
