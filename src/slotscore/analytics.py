"""Corpus statistics and error-analysis breakdowns.

Covers note counts per partition, gold events per note, per-subtype
performance, and performance by event density (how many gold events of a
type a note carries: 1, 2, or 3+). Each breakdown scores the corpus again
through ``per_document_counts``, the same per-note tallies that corpus
scoring uses, and reads its rows from them; none has its own scoring rules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .schema import LABELED, AnnotationSchema
from .scoring import (
    LABELED_ARG,
    Counts,
    Metrics,
    ScoreCounts,
    per_document_counts,
    resolve_subtype,
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
                spec = event_spec.by_role(role)
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
    total = ScoreCounts()
    for counts in per_document_counts(gold, pred, schema).values():
        total.merge(counts)
    n = len(gold)

    rows = []
    for key, cell in total.items():
        if key.kind != LABELED_ARG:
            continue
        gold_count = cell.tp + cell.fn
        rows.append(
            SubtypeRow(
                event_type=key.event_type,
                argument_type=key.argument_type,
                subtype=key.subtype,
                gold_count=gold_count,
                pred_count=cell.tp + cell.fp,
                avg_gold_per_note=gold_count / n if n else 0.0,
                metrics=Metrics.from_counts(cell),
            )
        )
    rows.sort(key=lambda r: (r.event_type, r.argument_type, r.subtype))
    return rows


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
    doc_counts = per_document_counts(gold, pred, schema)

    for doc_id, counts in doc_counts.items():
        doc = gold[doc_id]
        gold_by_type: Counter = Counter(e.event_type for e in doc.events.values())
        # The note's tallies summed per event type, in one pass over its cells.
        totals: dict[str, Counts] = {}
        for key, tally in counts.counts.items():
            totals.setdefault(key.event_type, Counts()).__iadd__(tally)
        for event_type in set(gold_by_type) | set(totals):
            n_gold = gold_by_type.get(event_type, 0)
            cell = cells.setdefault((event_type, bucket_label(n_gold)), _DensityCell())
            cell.note_count += 1
            cell.gold_events += n_gold
            cell.counts += totals.get(event_type, Counts())

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
