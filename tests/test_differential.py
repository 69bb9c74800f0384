"""score_document against the list-scan reference scorer in ``oracles``, on
random small notes built to hold the cases the scorer's fast paths skip:
repeated roles, arguments sharing a span, discontinuous spans, missing and
out-of-vocabulary subtypes, undeclared roles and event types, and events
without a resolvable trigger."""

from collections import Counter

import numpy as np
import pytest

from oracles import reference_align, reference_score
from slotscore.schema import LABELED, AnnotationSchema
from slotscore.scoring import align_events, score_document
from slotscore.standoff import (
    AttributeAnnotation,
    Document,
    EventAnnotation,
    Span,
    TextBound,
)

TEXT = "x" * 24
# Few distinct spans, so that triggers overlap and argument spans repeat
# across notes. The last two are discontinuous, and (2, 4) and (11, 14) sit
# in their gaps: inside their extents, sharing no character.
SPANS = (
    ((0, 3),), ((2, 5),), ((5, 8),), ((9, 12),), ((9, 13),), ((2, 4),), ((11, 14),),
    ((1, 2), (4, 6)), ((9, 10), (14, 16)),
)
EVENT_TYPES = ("Drug", "Drug", "Alcohol", "LivingStatus", "Bogus")
ROLES = ("Status", "Status", "Type", "Duration", "Weird")
SUBTYPES = ("current", "past", "homeless", "none")


def _random_note(rng, schema: AnnotationSchema) -> Document:
    text_bounds, events, attributes = {}, {}, {}

    def text_bound(label):
        tb_id = f"T{len(text_bounds) + 1}"
        span = Span(SPANS[int(rng.integers(len(SPANS)))])
        text_bounds[tb_id] = TextBound(tb_id, label, span)
        return tb_id

    def attribute(carrier, name):
        if (carrier, name) in {(a.target, a.name) for a in attributes.values()}:
            return
        draw = rng.random()
        if draw < 0.2:
            return  # a missing subtype
        value = None if draw < 0.25 else SUBTYPES[int(rng.integers(len(SUBTYPES)))]
        attr_id = f"A{len(attributes) + 1}"
        attributes[attr_id] = AttributeAnnotation(attr_id, name, carrier, value)

    for i in range(1, int(rng.integers(0, 7)) + 1):
        event_id = f"E{i}"
        event_type = EVENT_TYPES[int(rng.integers(len(EVENT_TYPES)))]
        draw = rng.random()
        if draw < 0.08:
            trigger = None
        elif draw < 0.12:
            trigger = "T99"  # names no text-bound
        else:
            trigger = text_bound(event_type)
        spec = schema.event(event_type)
        arguments = []
        for _ in range(int(rng.integers(0, 5))):
            role = ROLES[int(rng.integers(len(ROLES)))]
            if arguments and rng.random() < 0.2:
                target = arguments[int(rng.integers(len(arguments)))][1]  # a shared target
            else:
                target = text_bound(role)
            arguments.append((role, target))
            arg = spec.by_role(role) if spec is not None else None
            if arg is not None and arg.kind == LABELED:
                carrier, other = (target, event_id)
                if schema.attributes_on_events:
                    carrier, other = other, carrier
                attribute(carrier, arg.attribute_name)
                if rng.random() < 0.2:
                    attribute(other, arg.attribute_name)  # read only under the other setting
        events[event_id] = EventAnnotation(event_id, event_type, trigger, tuple(arguments))
    return Document("n1", TEXT, text_bounds, events, attributes)


def _perturbed(rng, doc: Document) -> Document:
    """A prediction edited from ``doc``: events and arguments dropped,
    triggers and arguments moved to another span, subtypes changed or
    dropped."""
    text_bounds, events, attributes = dict(doc.text_bounds), {}, {}

    def moved(tb_id):
        if rng.random() >= 0.15:
            return tb_id
        new_id = f"T{len(text_bounds) + 1}"
        span = Span(SPANS[int(rng.integers(len(SPANS)))])
        text_bounds[new_id] = TextBound(new_id, "Moved", span)
        return new_id

    for event in doc.events.values():
        if rng.random() < 0.15:
            continue
        trigger = moved(event.trigger) if event.trigger in text_bounds else event.trigger
        arguments = tuple(
            (role, moved(target)) for role, target in event.arguments if rng.random() >= 0.15
        )
        events[event.id] = EventAnnotation(event.id, event.event_type, trigger, arguments)
    for attr in doc.attributes.values():
        draw = rng.random()
        if draw < 0.1:
            continue
        value = SUBTYPES[int(rng.integers(len(SUBTYPES)))] if draw < 0.3 else attr.value
        attributes[attr.id] = AttributeAnnotation(attr.id, attr.name, attr.target, value)
    return Document(doc.doc_id, doc.text, text_bounds, events, attributes)


def _scorer_cells(counts) -> dict:
    return {
        (k.kind, k.event_type, k.argument_type, k.subtype): (c.tp, c.fn, c.fp)
        for k, c in counts.counts.items()
    }


def _note_features(gold, pred, schema) -> Counter:
    """Which of the targeted cases a note pair holds, to show the random
    notes reach them."""
    seen = Counter()
    for doc in (gold, pred):
        for event in doc.events.values():
            roles = [role for role, _ in event.arguments]
            targets = [target for _, target in event.arguments]
            seen["repeated role"] += len(set(roles)) < len(roles)
            seen["shared argument span"] += len(set(targets)) < len(targets)
            seen["trigger-less event"] += doc.trigger_of(event) is None
            seen["undeclared event type"] += schema.event(event.event_type) is None
            seen["undeclared role"] += "Weird" in roles
        seen["discontinuous span"] += any(
            len(tb.span.fragments) > 1 for tb in doc.text_bounds.values()
        )
    cells = reference_score(gold, pred, schema)
    seen["labeled tp"] += any(k[0] == "labeled_arg" and c[0] for k, c in cells.items())
    seen["span-only tp"] += any(k[0] == "span_only_arg" and c[0] for k, c in cells.items())
    seen["missing subtype"] += any(k[3] == "<missing>" for k in cells)
    return seen


@pytest.mark.parametrize("attributes_on_events", [False, True])
def test_score_document_agrees_with_reference_scorer(shac, attributes_on_events):
    schema = AnnotationSchema(shac.events, shac.version, attributes_on_events)
    rng = np.random.default_rng(2301 + attributes_on_events)
    seen = Counter()
    for _ in range(600):
        gold = _random_note(rng, schema)
        pred = _perturbed(rng, gold) if rng.random() < 0.5 else _random_note(rng, schema)
        assert _scorer_cells(score_document(gold, pred, schema)) == reference_score(
            gold, pred, schema
        )
        alignment = align_events(gold, pred)
        pairs, gold_left, pred_left = reference_align(gold, pred)
        assert [(g.id, p.id) for g, p in alignment.matched] == [(g.id, p.id) for g, p in pairs]
        assert [e.id for e in alignment.unmatched_gold] == [e.id for e in gold_left]
        assert [e.id for e in alignment.unmatched_pred] == [e.id for e in pred_left]
        seen += _note_features(gold, pred, schema)
    # every targeted case turns up in dozens of note pairs
    assert min(seen.values()) >= 100 and len(seen) == 9, seen
