"""score_document against the list-scan reference scorer in ``oracles``, on
random small notes built to hold the cases the scorer's fast paths skip:
repeated roles, arguments sharing a span, discontinuous spans, missing and
out-of-vocabulary subtypes, undeclared roles and event types, and events
without a resolvable trigger. On corpora of such notes, the corpus-level
views (``score_corpus``, the bootstrap's per-note totals and the density
table) agree with the per-note tallies and with the density oracle,
scoring two systems in one pass over gold equals scoring each on its own,
and the statistics and validation reports equal their oracles'."""

from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from oracles import reference_align, reference_score, reference_stats, reference_validate
from slotscore.analytics import corpus_stats, density_breakdown
from slotscore.schema import LABELED, AnnotationSchema, validate_corpus
from slotscore.scoring import ScoreCounts, align_events, prf, score_corpus, score_document
from slotscore.significance import BootstrapConfig, _note_totals, paired_bootstrap
from slotscore.standoff import (
    SOURCES,
    SPLITS,
    AttributeAnnotation,
    Corpus,
    Document,
    DocumentMetadata,
    EventAnnotation,
    TextBound,
)
from test_analytics import brute_force_density

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
        text_bounds[tb_id] = TextBound(tb_id, label, SPANS[int(rng.integers(len(SPANS)))])
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
            arg = spec.roles.get(role) if spec is not None else None
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
        text_bounds[new_id] = TextBound(new_id, "Moved", SPANS[int(rng.integers(len(SPANS)))])
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
            seen["trigger-less event"] += doc.text_bounds.get(event.trigger) is None
            seen["undeclared event type"] += schema.event(event.event_type) is None
            seen["undeclared role"] += "Weird" in roles
        seen["discontinuous span"] += any(
            len(tb.fragments) > 1 for tb in doc.text_bounds.values()
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


def _random_corpora(rng, schema: AnnotationSchema, notes: int, systems: int = 1) -> tuple:
    """A gold corpus of random notes, then ``systems`` predictions, each of
    which edits some of them, replaces others with random notes and leaves
    one in eight out."""
    gold, preds = Corpus(), [Corpus() for _ in range(systems)]
    for i in range(notes):
        doc = replace(_random_note(rng, schema), doc_id=f"n{i}")
        gold.add(doc)
        for pred in preds:
            draw = rng.random()
            if draw < 0.5:
                pred.add(_perturbed(rng, doc))
            elif draw < 0.875:
                pred.add(replace(_random_note(rng, schema), doc_id=doc.doc_id))
    return (gold, *preds)


def _per_note_counts(gold: Corpus, pred: Corpus, schema: AnnotationSchema) -> dict:
    """score_document note by note, in sorted doc_id order; a gold note the
    prediction lacks scores against an empty note with gold's text."""
    per_note = {}
    for doc_id in gold.doc_ids():
        pred_doc = pred.documents.get(doc_id)
        if pred_doc is None:
            pred_doc = Document(doc_id, gold[doc_id].text)
        per_note[doc_id] = score_document(gold[doc_id], pred_doc, schema)
    return per_note


@pytest.mark.parametrize("attributes_on_events", [False, True])
def test_corpus_views_agree_with_per_note_tallies(shac, attributes_on_events):
    schema = AnnotationSchema(shac.events, shac.version, attributes_on_events)
    rng = np.random.default_rng(2301 + 2 * attributes_on_events)
    seen = Counter()
    for _ in range(5):
        gold, pred = _random_corpora(rng, schema, notes=40)
        assert len(pred) < len(gold)
        for doc in pred:
            seen += _note_features(gold[doc.doc_id], doc, schema)
        per_note = _per_note_counts(gold, pred, schema)
        assert list(per_note) == gold.doc_ids()

        merged = ScoreCounts()
        for counts in per_note.values():
            merged.merge(counts)
        total, report = score_corpus(gold, pred, schema)
        # the same cells, first seen in the same order
        assert list(total.counts.items()) == list(merged.counts.items())
        assert total.total() == merged.total() and report.overall.tp == merged.total().tp

        rows = _note_totals(gold, (pred,), schema)
        assert rows.dtype == np.int64
        assert rows.tolist() == [
            [c.tp, c.fn, c.fp] for c in (counts.total() for counts in per_note.values())
        ]

        density = {(r.event_type, r.bucket): (r.note_count, r.gold_events, r.metrics)
                   for r in density_breakdown(gold, pred, schema)}
        assert density == brute_force_density(gold, pred, schema)
    # the notes reach the cases named in the module docstring
    for feature in ("undeclared role", "undeclared event type", "trigger-less event",
                    "missing subtype"):
        assert seen[feature] >= 10, seen


@pytest.mark.parametrize("attributes_on_events", [False, True])
def test_stats_and_validation_agree_with_reference(shac, attributes_on_events):
    # The random notes hold undeclared event types and roles, missing and
    # out-of-vocabulary subtypes, and attributes on the carrier the schema
    # does not read; StatusTime is declared, equal, on Drug and Alcohol.
    schema = AnnotationSchema(shac.events, shac.version, attributes_on_events)
    rng = np.random.default_rng(1107 + attributes_on_events)
    rules = Counter()
    for _ in range(4):
        for corpus in _random_corpora(rng, schema, notes=40):
            spread = Corpus()
            for doc in corpus:
                metadata = DocumentMetadata(SOURCES[int(rng.integers(len(SOURCES)))],
                                            SPLITS[int(rng.integers(len(SPLITS)))])
                spread.add(replace(doc, metadata=metadata))
            # repr, so that each table's key order counts too
            assert repr(asdict(corpus_stats(spread, schema))) == repr(
                reference_stats(spread, schema)
            )
            violations = validate_corpus(spread, schema)
            assert violations == reference_validate(spread, schema)
            rules.update(v.rule for v in violations)
    assert len(rules) == 8 and min(rules.values()) >= 10, rules


@pytest.mark.parametrize("attributes_on_events", [False, True])
def test_one_pass_over_gold_equals_a_pass_per_system(shac, attributes_on_events):
    # The reference scores each system note by note with score_document,
    # then runs the per-repetition loop on the documented Philox stream with
    # prf on Python ints.
    schema = AnnotationSchema(shac.events, shac.version, attributes_on_events)
    rng = np.random.default_rng(1805 + attributes_on_events)
    reps = 200
    for world in range(4):
        gold, pred_a, pred_b = _random_corpora(rng, schema, notes=30, systems=2)
        one_pass = _note_totals(gold, (pred_a, pred_b), schema)
        per_system = [_note_totals(gold, (pred,), schema) for pred in (pred_a, pred_b)]
        assert one_pass.dtype == np.int64
        assert np.array_equal(one_pass, np.hstack(per_system))

        totals = [
            [[c.tp, c.fn, c.fp] for c in (counts.total() for counts in
                                           _per_note_counts(gold, pred, schema).values())]
            for pred in (pred_a, pred_b)
        ]
        n, seed = len(gold), 1000 + world
        expected = []
        for rep in range(reps):
            draws = np.random.Generator(np.random.Philox(key=seed).advance(rep << 64))
            idx = draws.integers(0, n, size=n).tolist()
            f1 = [prf(*(sum(rows[i][k] for i in idx) for k in range(3)))[2] for rows in totals]
            expected.append(f1[0] - f1[1])
        result = paired_bootstrap(
            gold, pred_a, pred_b, schema, BootstrapConfig(repetitions=reps, seed=seed),
            keep_deltas=True,
        )
        assert [d.hex() for d in result.deltas] == [d.hex() for d in expected]
        assert result.f1_a == score_corpus(gold, pred_a, schema)[1].overall.f1
        assert result.f1_b == score_corpus(gold, pred_b, schema)[1].overall.f1
