"""Slot-filling scoring of predicted events against gold events.

Events are aligned per note by trigger equivalence: same event type and
trigger fragments that share at least one character (``_overlaps``).
Arguments of aligned events are then compared per kind: span-only
arguments must match their span exactly; labeled arguments are
span-agnostic and match on subtype alone. True positives, false
negatives, and false positives are tallied per phenomenon (event type x
argument type x subtype) and micro-averaged.

One function tallies a prediction of a note, ``_tally_note``: it matches
the prediction's events to gold's by the one alignment core that
``align_events`` also wraps, then adds each event's slots (``_note_slots``)
into a table of plain cells, ``(kind, event type, argument type, subtype)
-> [tp, fn, fp]``, that the caller passes. ``score_document`` calls it for
one note, and ``_tally_notes`` for every note of a corpus: one pass over
gold for any number of predictions, which tallies prediction i into the
caller's table i and yields after each note; it prepares each gold note
once for every prediction, so gold's slots and warnings come once. Each
corpus-level view passes the table it reports:
``score_corpus`` (and so the subtype table) one corpus table; the density
table and the bootstrap's per-note totals one table for the call whose keys
share a few cells, which they read and zero after each note, so no view
builds a table per note. Every table is a ``_Cells``. A ``PhenomenonKey``
is made once per key, and only where a ``ScoreCounts`` is returned.

The schema owns the two rules every labeled-argument score rests on: a
role resolves, to its key or its declared subtypes' slots, through the
role table the schema builds once (``AnnotationSchema._roles``), which
statistics and validation read too; and ``AnnotationSchema.subtype_key``
says which attribute carries the subtype. Scoring builds no table of its
own, so every note of every call shares the schema's trigger slots and
declared labeled slots, and most slot comparisons end at an identity test.

Gold and predicted notes must index the same text, or equal offsets would
not mean equal characters: a predicted note whose text differs from gold's
(say, in its line endings) is an error, not a score.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

from .schema import KINDS, LABELED_ARG, SPAN_ONLY_ARG, TRIGGER, AnnotationSchema
from .standoff import (
    Corpus,
    Document,
    EventAnnotation,
    _summary,
    annotation_sort_key,
)

logger = logging.getLogger(__name__)

# Labeled arguments whose subtype attribute is absent score under this
# sentinel so broken prediction files remain scorable; it equals only
# itself, never a real subtype.
MISSING_SUBTYPE = "<missing>"


class ScoringError(Exception):
    """Gold and predicted inputs cannot be scored against each other."""


@dataclass(frozen=True)
class PhenomenonKey:
    """What a tally is about: a trigger, a span-only argument, or one
    subtype of a labeled argument."""

    kind: str
    event_type: str
    argument_type: str | None = None
    subtype: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown phenomenon kind {self.kind!r}")
        if self.kind == TRIGGER and (self.argument_type or self.subtype):
            raise ValueError("trigger keys carry no argument type or subtype")
        if self.kind == SPAN_ONLY_ARG and (not self.argument_type or self.subtype):
            raise ValueError("span-only keys carry an argument type and no subtype")
        if self.kind == LABELED_ARG and (not self.argument_type or not self.subtype):
            raise ValueError("labeled keys carry both argument type and subtype")

    def sort_key(self) -> tuple:
        return (
            KINDS.index(self.kind),
            self.event_type,
            self.argument_type or "",
            self.subtype or "",
        )


@dataclass
class Counts:
    tp: int = 0
    fn: int = 0
    fp: int = 0

    def __iadd__(self, other: "Counts") -> "Counts":
        self.tp += other.tp
        self.fn += other.fn
        self.fp += other.fp
        return self


@dataclass(frozen=True)
class Metrics:
    tp: int
    fn: int
    fp: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, c: Counts) -> "Metrics":
        p, r, f = prf(c.tp, c.fn, c.fp)
        return cls(c.tp, c.fn, c.fp, p, r, f)


def prf(tp: int, fn: int, fp: int) -> tuple[float, float, float]:
    """Precision, recall, F1 with every 0/0 quotient defined as 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class ScoreCounts:
    """tp/fn/fp tallies keyed by phenomenon."""

    counts: dict[PhenomenonKey, Counts] = field(default_factory=dict)

    def tally(self, key: PhenomenonKey, tp: int = 0, fn: int = 0, fp: int = 0) -> None:
        if tp == fn == fp == 0:
            return
        cell = self.counts.get(key)
        if cell is None:
            cell = self.counts[key] = Counts()
        cell.tp += tp
        cell.fn += fn
        cell.fp += fp

    def merge(self, other: "ScoreCounts") -> None:
        for key, cell in other.counts.items():
            self.tally(key, cell.tp, cell.fn, cell.fp)

    def __getitem__(self, key: PhenomenonKey) -> Counts:
        return self.counts.get(key, Counts())

    def items(self) -> list[tuple[PhenomenonKey, Counts]]:
        return sorted(self.counts.items(), key=lambda kv: kv[0].sort_key())

    def total(self) -> Counts:
        out = Counts()
        for cell in self.counts.values():
            out += cell
        return out


@dataclass(frozen=True)
class MetricReport:
    """Micro-averaged metrics per key, per rollup, and overall.

    The overall row sums tp/fn/fp across every key, triggers and arguments
    together.
    """

    per_key: dict[PhenomenonKey, Metrics]
    by_event_type: dict[str, Metrics]
    by_argument_type: dict[str, Metrics]
    by_subtype: dict[str, Metrics]
    by_kind: dict[str, Metrics]
    overall: Metrics

    @classmethod
    def from_counts(cls, counts: ScoreCounts) -> "MetricReport":
        def rollup(group_of) -> dict:
            groups: dict[str, Counts] = {}
            for key, cell in counts.counts.items():
                g = group_of(key)
                if g is None:
                    continue
                groups.setdefault(g, Counts()).__iadd__(cell)
            return {g: Metrics.from_counts(c) for g, c in sorted(groups.items())}

        per_key = {k: Metrics.from_counts(c) for k, c in counts.items()}
        return cls(
            per_key=per_key,
            by_event_type=rollup(lambda k: k.event_type),
            by_argument_type=rollup(lambda k: k.argument_type),
            by_subtype=rollup(lambda k: k.subtype),
            by_kind=rollup(lambda k: k.kind),
            overall=Metrics.from_counts(counts.total()),
        )


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventAlignment:
    """One-to-one trigger-equivalence matching of a note's events."""

    matched: tuple[tuple[EventAnnotation, EventAnnotation], ...]
    unmatched_gold: tuple[EventAnnotation, ...]
    unmatched_pred: tuple[EventAnnotation, ...]


def _overlaps(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]) -> bool:
    """The trigger-overlap rule: whether any fragment of ``a`` shares at
    least one character with any fragment of ``b`` (ends are exclusive)."""
    for a_start, a_end in a:
        for b_start, b_end in b:
            if a_start < b_end and b_start < a_end:
                return True
    return False


def _ordered_rows(doc: Document) -> tuple[list[tuple], list[EventAnnotation]]:
    """A note's events sorted once: rows of plain values (trigger start,
    trigger end, annotation_sort_key(id), event, trigger fragments), then
    the events whose trigger does not resolve, by id; those never match.
    A note with no such event returns its empty tail as it is."""
    rows, tail = [], []
    for event in doc.events.values():
        tb = doc.text_bounds.get(event.trigger)
        if tb is None:
            tail.append((annotation_sort_key(event.id), event))
        else:
            frags = tb.fragments
            rows.append((frags[0][0], frags[-1][1], annotation_sort_key(event.id), event, frags))
    rows.sort()
    if not tail:
        return rows, tail
    tail.sort()
    return rows, [event for _, event in tail]


def _align(gold_rows: list[tuple], gold_tail: list[EventAnnotation],
           pred: Document) -> tuple[list, list, list]:
    """The one alignment core, over gold's ``_ordered_rows``, which it leaves
    as they are for the next prediction: (matched (gold, pred) pairs,
    unmatched gold, unmatched pred), each in document order. See
    ``align_events``."""
    pred_rows, pred_tail = _ordered_rows(pred)
    buckets: dict[str, list[tuple]] = {}
    for row in pred_rows:
        bucket = buckets.get(row[3].event_type)
        if bucket is None:
            buckets[row[3].event_type] = [row]
        else:
            bucket.append(row)

    matched, unmatched_gold = [], []
    for _, g_end, _, g, g_frags in gold_rows:
        bucket = buckets.get(g.event_type, ())
        for i, (p_start, _, _, p, p_frags) in enumerate(bucket):
            if p_start >= g_end:
                unmatched_gold.append(g)
                break
            if _overlaps(g_frags, p_frags):
                matched.append((g, p))
                del bucket[i]
                break
        else:
            unmatched_gold.append(g)
    # The rows left in the buckets are the unmatched pred events.
    left = [row for bucket in buckets.values() for row in bucket]
    left.sort()
    return matched, unmatched_gold + gold_tail, [row[3] for row in left] + pred_tail


def align_events(gold: Document, pred: Document) -> EventAlignment:
    """Greedy one-to-one matching per event type.

    Gold events are visited in document order; each takes the first
    still-unmatched predicted event (same order) with an equivalent
    trigger. Predicted events wait in per-type buckets in document order,
    so the scan for one gold event stops at the first predicted trigger
    that starts at or after the gold trigger's end. ``score_document``
    aligns through the same core; this wraps its result.
    """
    return EventAlignment(*(tuple(part) for part in _align(*_ordered_rows(gold), pred)))


# ---------------------------------------------------------------------------
# Slots
# ---------------------------------------------------------------------------

def _note_slots(doc: Document, schema: AnnotationSchema) -> dict[str, list[tuple]]:
    """The slots every event of a note fills, ``{event id: [(key, match
    value), ...]}``, from one walk over the events in file order: an event's
    trigger (match value None), then in argument order each span-only
    argument (its fragments) and each labeled argument (its subtype). The
    key is a plain (kind, event type, argument type, subtype) tuple. Keys,
    the trigger slots and the slots of declared subtypes come from the
    schema's role table (``AnnotationSchema._roles``); a subtype outside the
    vocabulary gets a slot of its own each time it occurs, so the table
    never grows. A labeled argument's subtype is read from the note's
    attribute index (``doc.attribute_index()``, built here once; a note
    with no events returns before building it) at ``schema.subtype_key``; a
    missing one is scored as ``MISSING_SUBTYPE``, with a warning. Undeclared
    roles are not scorable phenomena: they are skipped with a warning
    (validation reports them), and an undeclared event type fills its
    trigger slot only."""
    if not doc.events:
        return {}
    attrs = doc.attribute_index()
    text_bounds, subtype_key, table = doc.text_bounds, schema.subtype_key, schema._roles
    note = {}
    for event in doc.events.values():
        event_type = event.event_type
        try:
            trigger_slot, roles, _ = table[event_type]
        except KeyError:
            note[event.id] = [((TRIGGER, event_type, None, None), None)]
            continue
        slots = note[event.id] = [trigger_slot]
        for role, target in event.arguments:
            try:
                spec, key, labeled = roles[role]
            except KeyError:
                logger.warning(
                    "%s: role %s on %s is not declared for %s; skipping in scoring",
                    doc.doc_id, role, event.id, event_type,
                )
                continue
            if key is not None:
                slots.append((key, text_bounds[target].fragments))
                continue
            attr = attrs.get(subtype_key(event.id, target, spec))
            subtype = None if attr is None else attr.value
            if subtype is None:
                logger.warning(
                    "%s: labeled argument %s on %s has no %s attribute; scoring as %s",
                    doc.doc_id, spec.argument_type, event.id, spec.attribute_name,
                    MISSING_SUBTYPE,
                )
                subtype = MISSING_SUBTYPE
            slots.append(labeled.get(subtype)
                         or ((LABELED_ARG, event_type, spec.argument_type, subtype), subtype))
    return note


def _check_pair(gold: Document, pred: Document) -> None:
    """Raise ScoringError unless the notes share doc_id and text."""
    if gold.doc_id != pred.doc_id:
        raise ScoringError(f"doc_id mismatch: gold {gold.doc_id!r} vs pred {pred.doc_id!r}")
    if pred.text != gold.text:
        at = len(os.path.commonprefix((gold.text, pred.text)))
        raise ScoringError(
            f"{gold.doc_id}: predicted note text differs from gold at code point {at}; "
            "offsets into different texts cannot be compared"
        )


class _Cells(dict):
    """A table of plain cells, ``{key: [tp, fn, fp]}``: a key met for the
    first time gets the cell ``cell_of(key)`` makes or names. A table of its
    own per key passes ``lambda key: [0, 0, 0]``; a view that keeps a few
    cells for a whole call lets keys share them, passes the same table for
    every note and reads, then zeroes, the cells after each one, so no note
    builds a table of its own."""

    __slots__ = ("cell_of",)

    def __init__(self, cell_of: Callable[[tuple], list[int]]):
        super().__init__()
        self.cell_of = cell_of

    def __missing__(self, key: tuple) -> list[int]:
        cell = self[key] = self.cell_of(key)
        return cell


def _tally_note(rows: list[tuple], tail: list[EventAnnotation], gold_slots: dict,
                pred: Document, pred_slots: dict, cells: dict[tuple, list[int]]) -> None:
    """Tally one prediction of a note into a table of plain cells,
    ``{(kind, event type, argument type, subtype): [tp, fn, fp]}``
    (``_Cells``): align it with gold's ``_ordered_rows``, then add each
    event's slots (``_note_slots``, gold's and the prediction's). Keys the
    table lacks are added in the order first tallied, so a table shared by
    every note of a corpus holds each key where the walk first met it."""
    matched, unmatched_gold, unmatched_pred = _align(rows, tail, pred)
    for g_event, p_event in matched:
        p_slots = pred_slots[p_event.id]
        g_slots = gold_slots[g_event.id]
        if p_slots == g_slots:  # all tp, as the loop below would find
            for key, _ in g_slots:
                cells[key][0] += 1
            continue
        for slot in g_slots:
            if slot in p_slots:
                p_slots.remove(slot)
                cells[slot[0]][0] += 1
            else:
                cells[slot[0]][1] += 1
        for key, _ in p_slots:
            cells[key][2] += 1
    for g_event in unmatched_gold:
        for key, _ in gold_slots[g_event.id]:
            cells[key][1] += 1
    for p_event in unmatched_pred:
        for key, _ in pred_slots[p_event.id]:
            cells[key][2] += 1


def _score_counts(cells: dict[tuple, list[int]]) -> ScoreCounts:
    """Plain cells as ScoreCounts, each key made once, in the cells' order."""
    return ScoreCounts({PhenomenonKey(*key): Counts(*cell) for key, cell in cells.items()})


def score_document(gold: Document, pred: Document, schema: AnnotationSchema) -> ScoreCounts:
    """Tally one note in one walk: align once, then add each event's slots
    to the note's [tp, fn, fp] cells. A matched pair's shared slots are tp
    (min(n, m) for a slot gold fills n times and pred m), its gold-only
    slots fn and its pred-only slots fp. An unmatched gold (pred) event's
    slots are fn (fp) by key, with no comparison. The prediction's warnings
    come first, in its events' file order, then gold's. Raises ScoringError
    when the notes differ in doc_id or in text."""
    _check_pair(gold, pred)
    pred_slots = _note_slots(pred, schema)
    cells = _Cells(lambda key: [0, 0, 0])
    _tally_note(*_ordered_rows(gold), _note_slots(gold, schema), pred, pred_slots, cells)
    return _score_counts(cells)


def _tally_notes(
    gold: Corpus, preds: Sequence[Corpus], schema: AnnotationSchema,
    tables: Sequence[dict[tuple, list[int]]],
) -> Iterator[str]:
    """One pass over gold that tallies prediction i into ``tables[i]`` and
    yields each gold note's doc_id, in sorted doc_id order, once every
    prediction of the note is in its table. The caller reads, folds or
    zeroes its cells between notes.

    Each gold note is prepared once for every prediction: its events are
    sorted, and its slots are built at the first prediction, after that
    prediction's own, and kept. So a note's warnings come as the first
    prediction's, gold's once, then each later prediction's.

    Before any note is scored, each prediction is checked in input order:
    a predicted note absent from gold is an error, then a note whose text
    differs from gold's, in doc_id order. Gold notes absent from a
    prediction score against an empty one.
    """
    doc_ids, gold_docs = gold.doc_ids(), gold.documents
    for pred in preds:
        extra = set(pred.documents) - set(gold.documents)
        if extra:
            raise ScoringError(_summary(extra, "predicted note", "with no gold counterpart"))
        for doc_id in doc_ids:
            pred_doc = pred.documents.get(doc_id)
            if pred_doc is None:
                continue
            _check_pair(gold_docs[doc_id], pred_doc)
    for doc_id in doc_ids:
        gold_doc = gold_docs[doc_id]
        rows, tail = _ordered_rows(gold_doc)
        gold_slots = None
        for pred, cells in zip(preds, tables):
            pred_doc = pred.documents.get(doc_id)
            if pred_doc is None:
                pred_doc = Document(doc_id, gold_doc.text, metadata=gold_doc.metadata)
            pred_slots = _note_slots(pred_doc, schema)
            if gold_slots is None:
                gold_slots = _note_slots(gold_doc, schema)
            _tally_note(rows, tail, gold_slots, pred_doc, pred_slots, cells)
        yield doc_id


def score_corpus(
    gold: Corpus, pred: Corpus, schema: AnnotationSchema
) -> tuple[ScoreCounts, MetricReport]:
    """Corpus tallies (summed over notes) and their micro-averaged report.
    Every note tallies into one table of plain cells, so each key is made
    once and sits where the walk first met it."""
    total = _Cells(lambda key: [0, 0, 0])
    for _ in _tally_notes(gold, (pred,), schema, (total,)):
        pass
    counts = _score_counts(total)
    return counts, MetricReport.from_counts(counts)
