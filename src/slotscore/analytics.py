"""Corpus statistics and error-analysis breakdowns.

Covers note counts per partition, gold events per note, per-subtype
performance, and performance by event density (how many gold events of a
type a note carries: 1, 2, or 3+). The breakdowns have no scoring rules or
document walks of their own: the subtype table is the labeled-argument rows
of ``score_corpus``'s report, and the density table is read from the
per-note tallies of ``per_document_counts``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .schema import LABELED, AnnotationSchema
from .scoring import (
    LABELED_ARG,
    TRIGGER,
    Counts,
    Metrics,
    per_document_counts,
    resolve_subtype,
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
    partitions: Counter = Counter()
    events_by_type: Counter = Counter()
    subtypes: Counter = Counter()

    for doc_id in corpus.doc_ids():
        doc = corpus[doc_id]
        partitions[(doc.metadata.source, doc.metadata.split)] += 1
        attrs = doc.attribute_index()
        for event in doc.events.values():
            events_by_type[event.event_type] += 1
            event_spec = schema.event(event.event_type)
            if event_spec is None:
                continue
            for role, target in event.arguments:
                spec = event_spec.roles.get(role)
                if spec is None or spec.kind != LABELED:
                    continue
                subtype = resolve_subtype(doc, event, target, spec, schema, attrs)
                subtypes[(event.event_type, spec.argument_type, subtype)] += 1

    n = len(corpus)
    averages = {t: c / n for t, c in sorted(events_by_type.items())} if n else {}
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


@dataclass
class _DensityCell:
    note_count: int = 0
    gold_events: int = 0
    counts: Counts = field(default_factory=Counts)


def density_breakdown(
    gold: Corpus, pred: Corpus, schema: AnnotationSchema
) -> list[DensityRow]:
    """Performance per (event type, density bucket).

    Each note joins, per event type, the bucket named by its gold event
    count for that type; the bucket accumulates the note's tallies
    restricted to the type, spurious predictions included. Notes with no
    gold events and no predictions of a type contribute nothing to it.
    """
    cells: dict[tuple[str, str], _DensityCell] = {}

    for counts in per_document_counts(gold, pred, schema).values():
        # The note's tallies summed per event type, in one pass over its cells.
        totals: dict[str, Counts] = {}
        gold_count: dict[str, int] = {}
        for key, tally in counts.counts.items():
            totals.setdefault(key.event_type, Counts()).__iadd__(tally)
            # Every gold event fills its trigger slot once, as a tp or an fn,
            # trigger-less and undeclared-type events included.
            if key.kind == TRIGGER:
                gold_count[key.event_type] = tally.tp + tally.fn
        for event_type, total in totals.items():
            n = gold_count.get(event_type, 0)
            cell = cells.setdefault((event_type, bucket_label(n)), _DensityCell())
            cell.note_count += 1
            cell.gold_events += n
            cell.counts += total

    rows = [
        DensityRow(
            event_type=event_type,
            bucket=bucket,
            note_count=cell.note_count,
            gold_events=cell.gold_events,
            metrics=Metrics.from_counts(cell.counts),
        )
        for (event_type, bucket), cell in cells.items()
    ]
    rows.sort(key=lambda r: (r.event_type, DENSITY_BUCKETS.index(r.bucket)))
    return rows
