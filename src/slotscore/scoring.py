"""Slot-filling scoring of predicted events against gold events.

Events are aligned per note by trigger equivalence: same event type and
spans overlapping by at least one character. Arguments of aligned events
are then compared per kind: span-only arguments must match their span
exactly; labeled arguments are span-agnostic and match on subtype alone.
True positives, false negatives, and false positives are tallied per
phenomenon (event type x argument type x subtype) and micro-averaged.

``score_document`` tallies a note in one walk: each side's events are
sorted once and matched by the one alignment core that ``align_events``
also wraps. Roles resolve through the role table each ``EventSpec`` builds
once (``_by_role``), so the table lives and dies with its schema.

Gold and predicted notes must index the same text, or equal offsets would
not mean equal characters: a predicted note whose text differs from gold's
(say, in its line endings) is an error, not a score.
"""

from __future__ import annotations

import logging
import os
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .schema import SPAN_ONLY, AnnotationSchema, ArgumentSpec
from .standoff import (
    AttributeAnnotation,
    Corpus,
    Document,
    EventAnnotation,
    annotation_sort_key,
)

logger = logging.getLogger(__name__)

TRIGGER = "trigger"
SPAN_ONLY_ARG = "span_only_arg"
LABELED_ARG = "labeled_arg"
KINDS = (TRIGGER, SPAN_ONLY_ARG, LABELED_ARG)

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
    """tp/fn/fp tallies keyed by phenomenon; additive under concatenation."""

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

    def __add__(self, other: "ScoreCounts") -> "ScoreCounts":
        out = ScoreCounts()
        out.merge(self)
        out.merge(other)
        return out

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


def _ordered_rows(doc: Document) -> tuple[list[tuple], list[EventAnnotation]]:
    """A note's events sorted once: rows of plain values (trigger start,
    trigger end, annotation_sort_key(id), event, trigger span), then the
    events whose trigger does not resolve, by id; those never match."""
    rows, tail = [], []
    for event in doc.events.values():
        tb = doc.text_bounds.get(event.trigger)
        if tb is None:
            tail.append((annotation_sort_key(event.id), event))
        else:
            frags = tb.span.fragments
            rows.append((frags[0][0], frags[-1][1], annotation_sort_key(event.id), event, tb.span))
    rows.sort()
    tail.sort()
    return rows, [event for _, event in tail]


def _align(gold: Document, pred: Document) -> tuple[list, list, list]:
    """The one alignment core: (matched (gold, pred) pairs, unmatched gold,
    unmatched pred), each in document order. See ``align_events``."""
    gold_rows, gold_tail = _ordered_rows(gold)
    pred_rows, pred_tail = _ordered_rows(pred)
    buckets: dict[str, list[tuple]] = {}
    for row in pred_rows:
        buckets.setdefault(row[3].event_type, []).append(row)

    matched, unmatched_gold = [], []
    for _, g_end, _, g, g_span in gold_rows:
        bucket = buckets.get(g.event_type, ())
        for i, (p_start, _, _, p, p_span) in enumerate(bucket):
            if p_start >= g_end:
                unmatched_gold.append(g)
                break
            if g_span.overlaps(p_span):
                matched.append((g, p))
                del bucket[i]
                break
        else:
            unmatched_gold.append(g)
    # The rows left in the buckets are the unmatched pred events.
    left = sorted(row for bucket in buckets.values() for row in bucket)
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
    return EventAlignment(*(tuple(part) for part in _align(gold, pred)))


# ---------------------------------------------------------------------------
# Slots
# ---------------------------------------------------------------------------

def resolve_subtype(
    doc: Document,
    event: EventAnnotation,
    target: str,
    spec: ArgumentSpec,
    schema: AnnotationSchema,
    attrs: dict[tuple[str, str], AttributeAnnotation],
) -> str:
    """The subtype label a labeled argument carries, or the missing
    sentinel when its attribute is absent. ``attrs`` is
    ``doc.attribute_index()``, built once per note by the caller."""
    carrier = event.id if schema.attributes_on_events else target
    attr = attrs.get((carrier, spec.attribute_name))
    if attr is None or attr.value is None:
        logger.warning(
            "%s: labeled argument %s on %s has no %s attribute; scoring as %s",
            doc.doc_id, spec.argument_type, event.id, spec.attribute_name, MISSING_SUBTYPE,
        )
        return MISSING_SUBTYPE
    return attr.value


def _slots(doc: Document, event: EventAnnotation, schema: AnnotationSchema,
           attrs: dict[tuple[str, str], AttributeAnnotation]) -> list[tuple]:
    """The slots one event fills, as a list of (key, match value): its
    trigger (match value None), then in argument order each span-only
    argument (its fragments) and each labeled argument (its subtype). The
    key is a plain (kind, event type, argument type, subtype) tuple.
    Undeclared roles are not scorable phenomena: they are skipped with a
    warning (validation reports them), and an undeclared event type fills
    its trigger slot only."""
    event_type = event.event_type
    slots = [((TRIGGER, event_type, None, None), None)]
    event_spec = schema.event(event_type)
    if event_spec is None:
        return slots
    roles = event_spec._by_role  # the type's role table, read without a call per role
    for role, target in event.arguments:
        spec = roles.get(role)
        if spec is None:
            logger.warning(
                "%s: role %s on %s is not declared for %s; skipping in scoring",
                doc.doc_id, role, event.id, event_type,
            )
            continue
        if spec.kind == SPAN_ONLY:
            span = doc.text_bounds[target].span
            slots.append(((SPAN_ONLY_ARG, event_type, spec.argument_type, None), span.fragments))
            continue
        subtype = resolve_subtype(doc, event, target, spec, schema, attrs)
        slots.append(((LABELED_ARG, event_type, spec.argument_type, subtype), subtype))
    return slots


@lru_cache(maxsize=4096)
def _phenomenon(kind: str, event_type: str, argument_type: str | None,
                subtype: str | None) -> PhenomenonKey:
    return PhenomenonKey(kind, event_type, argument_type, subtype)


def score_document(gold: Document, pred: Document, schema: AnnotationSchema) -> ScoreCounts:
    """Tally one note in one walk: align once, then add each event's slots
    to the note's [tp, fn, fp] cells. A matched pair's shared slots are tp
    (min(n, m) for a slot gold fills n times and pred m), its gold-only
    slots fn and its pred-only slots fp. An unmatched gold (pred) event's
    slots are fn (fp) by key, with no comparison. Warnings come in that
    order, pred before gold within a pair. Raises ScoringError when the
    notes differ in doc_id or in text."""
    if gold.doc_id != pred.doc_id:
        raise ScoringError(f"doc_id mismatch: gold {gold.doc_id!r} vs pred {pred.doc_id!r}")
    if pred.text != gold.text:
        at = len(os.path.commonprefix((gold.text, pred.text)))
        raise ScoringError(
            f"{gold.doc_id}: predicted note text differs from gold at code point {at}; "
            "offsets into different texts cannot be compared"
        )
    matched, unmatched_gold, unmatched_pred = _align(gold, pred)
    gold_attrs, pred_attrs = gold.attribute_index(), pred.attribute_index()
    cells: defaultdict[tuple, list[int]] = defaultdict(partial(list, (0, 0, 0)))

    for g_event, p_event in matched:
        pred_slots = _slots(pred, p_event, schema, pred_attrs)
        for slot in _slots(gold, g_event, schema, gold_attrs):
            if slot in pred_slots:
                pred_slots.remove(slot)
                cells[slot[0]][0] += 1
            else:
                cells[slot[0]][1] += 1
        for key, _ in pred_slots:
            cells[key][2] += 1
    for g_event in unmatched_gold:
        for key, _ in _slots(gold, g_event, schema, gold_attrs):
            cells[key][1] += 1
    for p_event in unmatched_pred:
        for key, _ in _slots(pred, p_event, schema, pred_attrs):
            cells[key][2] += 1

    return ScoreCounts({_phenomenon(*key): Counts(*cell) for key, cell in cells.items()})


def per_document_counts(
    gold: Corpus, pred: Corpus, schema: AnnotationSchema
) -> dict[str, ScoreCounts]:
    """Per-note tallies for every gold note, in sorted doc_id order.

    Predicted notes absent from gold are an error; gold notes absent from
    pred score against an empty prediction.
    """
    extra = set(pred.documents) - set(gold.documents)
    if extra:
        raise ScoringError(f"predicted notes with no gold counterpart: {sorted(extra)}")
    out: dict[str, ScoreCounts] = {}
    for doc_id in gold.doc_ids():
        gold_doc = gold[doc_id]
        pred_doc = pred.documents.get(doc_id)
        if pred_doc is None:
            pred_doc = Document(doc_id, gold_doc.text, metadata=gold_doc.metadata)
        out[doc_id] = score_document(gold_doc, pred_doc, schema)
    return out


def score_corpus(
    gold: Corpus, pred: Corpus, schema: AnnotationSchema
) -> tuple[ScoreCounts, MetricReport]:
    """Corpus tallies (summed over notes) and their micro-averaged report."""
    total = ScoreCounts()
    for counts in per_document_counts(gold, pred, schema).values():
        total.merge(counts)
    return total, MetricReport.from_counts(total)
