import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotscore.reports import METRIC_COLUMNS, metric_rows, render
from slotscore.schema import AnnotationSchema
from slotscore.scoring import (
    LABELED_ARG,
    MISSING_SUBTYPE,
    SPAN_ONLY_ARG,
    TRIGGER,
    MetricReport,
    PhenomenonKey,
    ScoreCounts,
    ScoringError,
    align_events,
    prf,
    score_corpus,
    score_document,
)
from slotscore.standoff import Corpus, Document, annotation_sort_key, parse_document
from slotscore.testkit import (
    GeneratorConfig,
    _triggers_equivalent,
    generate_gold,
    identity_counts,
    oracle_align,
    perturb,
)


def _doc(ann, text, doc_id="n1"):
    return parse_document(ann, text, doc_id)


def _triple(counts, key):
    cell = counts[key]
    return (cell.tp, cell.fn, cell.fp)


# ---------------------------------------------------------------------------
# Trigger equivalence, through the aligner and the oracle
# ---------------------------------------------------------------------------

def _trigger_only_doc(spans, doc_id="n1", event_type="Drug", text_len=40):
    text = "x" * text_len
    lines = []
    for i, (s, e) in enumerate(spans, start=1):
        lines.append(f"T{i}\t{event_type} {s} {e}\t{text[s:e]}")
        lines.append(f"E{i}\t{event_type}:T{i}")
    return _doc("\n".join(lines) + "\n", text, doc_id)


def _matched_count(gold, pred):
    """How many events align; the scorer's aligner and the oracle, which
    has its own trigger rule, must agree."""
    n = len(align_events(gold, pred).matched)
    assert n == len(oracle_align(gold, pred))
    return n


def test_trigger_overlap_equivalence():
    # "cocaine" vs "cocaine use": overlapping spans, same type
    assert _matched_count(_trigger_only_doc([(10, 17)]), _trigger_only_doc([(10, 21)])) == 1


def test_trigger_type_mismatch():
    gold = _trigger_only_doc([(10, 17)], event_type="Drug")
    pred = _trigger_only_doc([(10, 17)], event_type="Alcohol")
    assert _matched_count(gold, pred) == 0


def test_trigger_adjacent_spans_do_not_overlap():
    assert _matched_count(_trigger_only_doc([(10, 17)]), _trigger_only_doc([(17, 21)])) == 0


@settings(max_examples=200, deadline=None)
@given(
    a_start=st.integers(0, 40),
    a_len=st.integers(1, 10),
    b_start=st.integers(0, 40),
    b_len=st.integers(1, 10),
)
def test_trigger_equivalence_is_symmetric(a_start, a_len, b_start, b_len):
    a = _trigger_only_doc([(a_start, a_start + a_len)], text_len=50)
    b = _trigger_only_doc([(b_start, b_start + b_len)], text_len=50)
    overlap = a_start < b_start + b_len and b_start < a_start + a_len
    assert _matched_count(a, b) == _matched_count(b, a) == overlap


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def test_align_identical_documents():
    doc = _trigger_only_doc([(0, 5), (20, 25)])
    alignment = align_events(doc, doc)
    assert len(alignment.matched) == 2
    assert all(g.id == p.id for g, p in alignment.matched)
    assert not alignment.unmatched_gold and not alignment.unmatched_pred


def test_align_single_overlap():
    gold = _trigger_only_doc([(0, 5), (20, 25)])
    pred = _trigger_only_doc([(3, 8)])
    alignment = align_events(gold, pred)
    assert len(alignment.matched) == 1
    assert alignment.matched[0][0].trigger == "T1"
    assert len(alignment.unmatched_gold) == 1
    assert alignment.unmatched_gold[0].trigger == "T2"


def test_align_greedy_takes_first_pred_in_order():
    gold = _trigger_only_doc([(0, 10)])
    pred = _trigger_only_doc([(0, 4), (5, 9)])
    alignment = align_events(gold, pred)
    assert len(alignment.matched) == 1
    assert alignment.matched[0][1].trigger == "T1"  # first by start order
    assert [p.trigger for p in alignment.unmatched_pred] == ["T2"]
    # the oracle agrees greedy is optimal here
    assert len(oracle_align(gold, pred)) == 1


def test_align_respects_event_type_boundaries():
    gold = _trigger_only_doc([(0, 5)], event_type="Drug")
    pred = _trigger_only_doc([(0, 5)], event_type="Alcohol")
    alignment = align_events(gold, pred)
    assert not alignment.matched
    assert len(alignment.unmatched_gold) == len(alignment.unmatched_pred) == 1


def _greedy_scan(gold, pred):
    """The greedy rule with no buckets and no early stop: each gold event in
    document order takes the first still-unmatched pred event that the
    oracle's trigger rule, not the scorer's, calls equivalent."""

    def order(doc):
        def key(event):
            tb = doc.trigger_of(event)
            if tb is None:
                return (1, 0, 0, annotation_sort_key(event.id))
            return (0, tb.span.start, tb.span.end, annotation_sort_key(event.id))

        return sorted(doc.events.values(), key=key)

    matched, taken = [], set()
    for g in order(gold):
        if gold.trigger_of(g) is None:
            continue
        for p in order(pred):
            if p.id in taken or pred.trigger_of(p) is None:
                continue
            if _triggers_equivalent(
                (g.event_type, gold.trigger_of(g).span.fragments),
                (p.event_type, pred.trigger_of(p).span.fragments),
            ):
                matched.append((g.id, p.id))
                taken.add(p.id)
                break
    return matched


def _random_trigger_doc(rng, doc_id):
    """Up to 8 events of two types on a 30-character note: overlapping,
    discontinuous and trigger-less triggers are all common."""
    text = "x" * 30
    lines = []
    for i in range(1, int(rng.integers(0, 9)) + 1):
        event_type = ("Drug", "Alcohol")[int(rng.integers(2))]
        if rng.random() < 0.1:
            lines.append(f"E{i}\t{event_type}:")
            continue
        bounds = sorted(int(b) for b in rng.choice(31, size=2 * int(rng.integers(1, 3)), replace=False))
        offsets = ";".join(f"{s} {e}" for s, e in zip(bounds[0::2], bounds[1::2]))
        covered = " ".join(text[s:e] for s, e in zip(bounds[0::2], bounds[1::2]))
        lines.append(f"T{i}\t{event_type} {offsets}\t{covered}")
        lines.append(f"E{i}\t{event_type}:T{i}")
    return parse_document("".join(line + "\n" for line in lines), text, doc_id)


def test_bucketed_alignment_equals_plain_greedy_scan():
    rng = np.random.default_rng(2301)
    for _ in range(400):
        gold, pred = _random_trigger_doc(rng, "n1"), _random_trigger_doc(rng, "n1")
        alignment = align_events(gold, pred)
        assert [(g.id, p.id) for g, p in alignment.matched] == _greedy_scan(gold, pred)
        matched_gold = {g.id for g, _ in alignment.matched}
        matched_pred = {p.id for _, p in alignment.matched}
        assert {e.id for e in alignment.unmatched_gold} == set(gold.events) - matched_gold
        assert {e.id for e in alignment.unmatched_pred} == set(pred.events) - matched_pred


# ---------------------------------------------------------------------------
# Argument scoring through score_document
# ---------------------------------------------------------------------------

GOLD_TEXT = "drugs current cocaine extra pad"

GOLD_ANN = (
    "T1\tDrug 0 5\tdrugs\n"
    "T2\tStatusTime 6 13\tcurrent\n"
    "T3\tType 14 21\tcocaine\n"
    "E1\tDrug:T1 Status:T2 Type:T3\n"
    "A1\tStatusTime T2 current\n"
)


def test_span_only_exact_match_tp(shac):
    counts = score_document(_doc(GOLD_ANN, GOLD_TEXT), _doc(GOLD_ANN, GOLD_TEXT), shac)
    assert _triple(counts, PhenomenonKey(SPAN_ONLY_ARG, "Drug", "Type")) == (1, 0, 0)


def test_span_only_one_char_difference_fails(shac):
    pred = GOLD_ANN.replace("T3\tType 14 21\tcocaine", "T3\tType 14 22\tcocaine")
    counts = score_document(_doc(GOLD_ANN, GOLD_TEXT), _doc(pred, GOLD_TEXT), shac)
    assert _triple(counts, PhenomenonKey(SPAN_ONLY_ARG, "Drug", "Type")) == (0, 1, 1)
    # trigger and labeled argument are unaffected
    assert _triple(counts, PhenomenonKey(TRIGGER, "Drug")) == (1, 0, 0)
    assert _triple(counts, PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "current")) == (1, 0, 0)


def test_span_only_multiset_semantics(shac):
    text = "drugs current years months pad"
    gold = (
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T3\tDuration 14 19\tyears\n"
        "T4\tDuration 20 26\tmonths\n"
        "E1\tDrug:T1 Status:T2 Duration:T3 Duration2:T4\n"
        "A1\tStatusTime T2 current\n"
    )
    pred = (
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T3\tDuration 14 19\tyears\n"
        "E1\tDrug:T1 Status:T2 Duration:T3\n"
        "A1\tStatusTime T2 current\n"
    )
    counts = score_document(_doc(gold, text), _doc(pred, text), shac)
    assert _triple(counts, PhenomenonKey(SPAN_ONLY_ARG, "Drug", "Duration")) == (1, 1, 0)


def test_labeled_span_agnostic_match(shac):
    # same subtype on a completely different span is still a tp
    pred = GOLD_ANN.replace("T2\tStatusTime 6 13\tcurrent", "T2\tStatusTime 22 27\textra")
    counts = score_document(_doc(GOLD_ANN, GOLD_TEXT), _doc(pred, GOLD_TEXT), shac)
    assert _triple(counts, PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "current")) == (1, 0, 0)


def test_labeled_subtype_mismatch_splits_keys(shac):
    pred = GOLD_ANN.replace("A1\tStatusTime T2 current", "A1\tStatusTime T2 past")
    counts = score_document(_doc(GOLD_ANN, GOLD_TEXT), _doc(pred, GOLD_TEXT), shac)
    assert _triple(counts, PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "current")) == (0, 1, 0)
    assert _triple(counts, PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "past")) == (0, 0, 1)


def test_extra_predicted_labeled_argument_is_fp(shac):
    text = "lives homeless now then pad"
    gold = (
        "T1\tLivingStatus 0 5\tlives\n"
        "T2\tTypeLiving 6 14\thomeless\n"
        "E1\tLivingStatus:T1 Type:T2\n"
        "A1\tTypeLiving T2 homeless\n"
    )
    pred = gold + "T3\tStatusLiving 15 18\tnow\n" + "A2\tStatusLiving T3 current\n"
    pred = pred.replace(
        "E1\tLivingStatus:T1 Type:T2", "E1\tLivingStatus:T1 Type:T2 Status:T3"
    )
    counts = score_document(_doc(gold, text), _doc(pred, text), shac)
    key = PhenomenonKey(LABELED_ARG, "LivingStatus", "StatusLiving", "current")
    assert _triple(counts, key) == (0, 0, 1)


def test_missing_subtype_scores_as_sentinel(shac):
    # both sides missing the attribute: sentinel matches itself (identity)
    ann = GOLD_ANN.replace("A1\tStatusTime T2 current\n", "")
    counts = score_document(_doc(ann, GOLD_TEXT), _doc(ann, GOLD_TEXT), shac)
    key = PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", MISSING_SUBTYPE)
    assert _triple(counts, key) == (1, 0, 0)
    # sentinel never matches a real subtype
    counts = score_document(_doc(GOLD_ANN, GOLD_TEXT), _doc(ann, GOLD_TEXT), shac)
    assert _triple(counts, PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "current")) == (0, 1, 0)
    assert _triple(counts, key) == (0, 0, 1)


def test_subtype_carried_by_the_event_when_attributes_on_events(shac):
    on_events = AnnotationSchema(shac.events, shac.version, attributes_on_events=True)
    gold = _doc(GOLD_ANN.replace("A1\tStatusTime T2 current", "A1\tStatusTime E1 current"),
                GOLD_TEXT)
    status = PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "current")
    assert _triple(score_document(gold, gold, on_events), status) == (1, 0, 0)
    # an attribute on the argument's text-bound is not read under the switch
    counts = score_document(gold, _doc(GOLD_ANN, GOLD_TEXT), on_events)
    assert _triple(counts, status) == (0, 1, 0)
    missing = PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", MISSING_SUBTYPE)
    assert _triple(counts, missing) == (0, 0, 1)
    # the event's attribute decides, whatever the argument's text-bound says
    pred = _doc(GOLD_ANN.replace("A1\tStatusTime T2 current",
                                 "A1\tStatusTime E1 past\nA2\tStatusTime T2 current"), GOLD_TEXT)
    counts = score_document(gold, pred, on_events)
    assert _triple(counts, status) == (0, 1, 0)
    assert _triple(counts, PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "past")) == (0, 0, 1)
    assert _triple(counts, PhenomenonKey(TRIGGER, "Drug")) == (1, 0, 0)
    assert _triple(counts, PhenomenonKey(SPAN_ONLY_ARG, "Drug", "Type")) == (1, 0, 0)
    # the default schema reads the text-bound's attribute instead
    assert _triple(score_document(gold, pred, shac), status) == (0, 0, 1)


WARNING_TEXT = "drugs current cocaine wine past smokes now"


def test_scoring_warnings_text_count_and_order(shac, caplog):
    # gold E1 and pred E1 align; gold E2 and pred E3 stay unmatched; gold E4
    # has an undeclared type, whose arguments are skipped without a word
    gold = _doc(
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T3\tType 14 21\tcocaine\n"
        "T4\tAlcohol 22 26\twine\n"
        "T5\tStatusTime 27 31\tpast\n"
        "E1\tDrug:T1 Status:T2 Weird:T3 Type:T3\n"
        "E2\tAlcohol:T4 Odd:T5 Status:T5\n"
        "T8\tBogus 14 21\tcocaine\n"
        "E4\tBogus:T8 Weird:T2 Status:T2\n",
        WARNING_TEXT,
    )
    pred = _doc(
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T6\tTobacco 32 38\tsmokes\n"
        "T7\tStatusTime 39 42\tnow\n"
        "E1\tDrug:T1 Status:T2 Strange:T2\n"
        "E3\tTobacco:T6 Status:T7 Weird:T7\n",
        WARNING_TEXT,
    )
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="slotscore.scoring"):
        score_document(gold, pred, shac)
    assert [r.getMessage() for r in caplog.records if r.name == "slotscore.scoring"] == [
        "n1: labeled argument StatusTime on E1 has no StatusTime attribute; scoring as <missing>",
        "n1: role Strange on E1 is not declared for Drug; skipping in scoring",
        "n1: labeled argument StatusTime on E1 has no StatusTime attribute; scoring as <missing>",
        "n1: role Weird on E1 is not declared for Drug; skipping in scoring",
        "n1: role Odd on E2 is not declared for Alcohol; skipping in scoring",
        "n1: labeled argument StatusTime on E2 has no StatusTime attribute; scoring as <missing>",
        "n1: labeled argument StatusTime on E3 has no StatusTime attribute; scoring as <missing>",
        "n1: role Weird on E3 is not declared for Tobacco; skipping in scoring",
    ]


def test_doc_id_mismatch_raises(shac):
    with pytest.raises(ScoringError):
        score_document(_doc(GOLD_ANN, GOLD_TEXT, "a"), _doc(GOLD_ANN, GOLD_TEXT, "b"), shac)


CRLF_TEXT = "pt smokes\r\ndaily cocaine\r\n"
COCAINE_ANN = "T1\tDrug {0} {1}\tcocaine\nT2\tType {0} {1}\tcocaine\nE1\tDrug:T1 Type:T2\n"


def test_note_text_mismatch_raises(shac):
    # the same note with LF endings: "cocaine" sits one code point earlier,
    # so equal offsets would name different characters
    gold = _doc(COCAINE_ANN.format(17, 24), CRLF_TEXT)
    pred = _doc(COCAINE_ANN.format(16, 23), CRLF_TEXT.replace("\r\n", "\n"))
    with pytest.raises(ScoringError, match="^n1: predicted note text differs from gold at code point 9;"):
        score_document(gold, pred, shac)
    with pytest.raises(ScoringError, match="at code point 9;"):
        score_corpus(Corpus({"n1": gold}), Corpus({"n1": pred}), shac)
    # a prediction that stops short of gold's text differs where it ends
    with pytest.raises(ScoringError, match="at code point 11;"):
        score_document(gold, Document("n1", CRLF_TEXT[:11]), shac)


def test_identity_has_no_errors(shac):
    doc = _doc(GOLD_ANN, GOLD_TEXT)
    counts = score_document(doc, doc, shac)
    for _key, cell in counts.items():
        assert cell.fn == 0 and cell.fp == 0


def test_empty_prediction_yields_only_fns(shac):
    gold = _doc(GOLD_ANN, GOLD_TEXT)
    pred = Document("n1", GOLD_TEXT)
    counts = score_document(gold, pred, shac)
    assert _triple(counts, PhenomenonKey(TRIGGER, "Drug")) == (0, 1, 0)
    assert _triple(counts, PhenomenonKey(SPAN_ONLY_ARG, "Drug", "Type")) == (0, 1, 0)
    assert _triple(counts, PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "current")) == (0, 1, 0)
    assert counts.total().tp == 0 and counts.total().fp == 0


# ---------------------------------------------------------------------------
# The slot-equivalence scenario: two annotators, same slots
# ---------------------------------------------------------------------------

SLOT_TEXT = "Pt reports past IVDU. Recent cocaine use daily."


def slot_scenario_docs():
    """Annotations A and B of the same sentence: event 1 identical; event 2
    differs in trigger span (overlapping) and status span (same subtype),
    with identical type spans. Slot-equivalent, so A vs B scores perfect."""
    a = (
        "T1\tDrug 16 20\tIVDU\n"
        "T2\tStatusTime 11 15\tpast\n"
        "T3\tType 16 20\tIVDU\n"
        "T4\tDrug 29 36\tcocaine\n"
        "T5\tStatusTime 37 40\tuse\n"
        "T6\tType 29 36\tcocaine\n"
        "E1\tDrug:T1 Status:T2 Type:T3\n"
        "E2\tDrug:T4 Status:T5 Type:T6\n"
        "A1\tStatusTime T2 past\n"
        "A2\tStatusTime T5 current\n"
    )
    b = (
        "T1\tDrug 16 20\tIVDU\n"
        "T2\tStatusTime 11 15\tpast\n"
        "T3\tType 16 20\tIVDU\n"
        "T4\tDrug 29 40\tcocaine use\n"
        "T5\tStatusTime 22 28\tRecent\n"
        "T6\tType 29 36\tcocaine\n"
        "E1\tDrug:T1 Status:T2 Type:T3\n"
        "E2\tDrug:T4 Status:T5 Type:T6\n"
        "A1\tStatusTime T2 past\n"
        "A2\tStatusTime T5 current\n"
    )
    return _doc(a, SLOT_TEXT, "fig"), _doc(b, SLOT_TEXT, "fig")


def test_slot_equivalent_annotations_score_perfect(shac):
    gold, pred = slot_scenario_docs()
    counts = score_document(gold, pred, shac)
    report = MetricReport.from_counts(counts)
    assert report.overall.precision == 1.0
    assert report.overall.recall == 1.0
    assert report.overall.f1 == 1.0
    assert counts.total().tp == 6  # 2 triggers, 2 status labels, 2 type spans


# ---------------------------------------------------------------------------
# Corpus scoring
# ---------------------------------------------------------------------------

def _corpus(*docs):
    corpus = Corpus()
    for doc in docs:
        corpus.add(doc)
    return corpus


def test_score_corpus_hand_enumerated(shac):
    # note1 predicted perfectly (4 slots: trigger, status, type, duration);
    # note2 predicted empty with 4 gold slots
    text = "drugs current cocaine years pad"
    ann = (
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T3\tType 14 21\tcocaine\n"
        "T4\tDuration 22 27\tyears\n"
        "E1\tDrug:T1 Status:T2 Type:T3 Duration:T4\n"
        "A1\tStatusTime T2 current\n"
    )
    gold = _corpus(_doc(ann, text, "note1"), _doc(ann, text, "note2"))
    pred = _corpus(_doc(ann, text, "note1"))  # note2 absent: empty predictions
    counts, report = score_corpus(gold, pred, shac)
    total = counts.total()
    assert (total.tp, total.fn, total.fp) == (4, 4, 0)
    assert report.overall.precision == 1.0
    assert report.overall.recall == 0.5


def test_score_corpus_against_itself_is_perfect(shac):
    gold, pred = slot_scenario_docs()
    corpus = _corpus(gold)
    _, report = score_corpus(corpus, corpus, shac)
    assert (report.overall.precision, report.overall.recall, report.overall.f1) == (1.0, 1.0, 1.0)


def test_swap_exchanges_precision_and_recall(shac):
    gold = generate_gold(GeneratorConfig(seed=21, notes=8), shac)
    pred, _ = perturb(
        gold, GeneratorConfig(seed=21, notes=8, event_drop=0.3, subtype_flip=0.3,
                              span_edit=0.3, event_insert=0.3), shac
    )
    _, forward = score_corpus(gold, pred, shac)
    _, backward = score_corpus(pred, gold, shac)
    assert forward.overall.precision == pytest.approx(backward.overall.recall)
    assert forward.overall.recall == pytest.approx(backward.overall.precision)
    assert forward.overall.f1 == pytest.approx(backward.overall.f1)


def test_pred_doc_without_gold_counterpart_is_error(shac):
    gold = _corpus(_doc(GOLD_ANN, GOLD_TEXT, "a"))
    pred = _corpus(_doc(GOLD_ANN, GOLD_TEXT, "a"), _doc(GOLD_ANN, GOLD_TEXT, "b"))
    with pytest.raises(ScoringError, match="no gold counterpart"):
        score_corpus(gold, pred, shac)


def test_additivity_over_disjoint_corpora(shac):
    gold = generate_gold(GeneratorConfig(seed=31, notes=10), shac)
    pred, _ = perturb(
        gold, GeneratorConfig(seed=31, notes=10, event_drop=0.2, subtype_flip=0.2), shac
    )
    ids = gold.doc_ids()
    first, second = ids[:5], ids[5:]

    def sub(corpus, keep):
        return _corpus(*(corpus[i] for i in keep))

    whole, _ = score_corpus(gold, pred, shac)
    left, _ = score_corpus(sub(gold, first), sub(pred, first), shac)
    right, _ = score_corpus(sub(gold, second), sub(pred, second), shac)
    combined = left + right
    assert {k: (c.tp, c.fn, c.fp) for k, c in whole.items()} == {
        k: (c.tp, c.fn, c.fp) for k, c in combined.items()
    }


def test_deleting_predicted_event_is_monotone(shac):
    gold = generate_gold(GeneratorConfig(seed=41, notes=6), shac)
    pred, _ = perturb(
        gold, GeneratorConfig(seed=41, notes=6, event_insert=0.5, event_drop=0.2), shac
    )
    before, _ = score_corpus(gold, pred, shac)
    # delete every predicted event, one at a time
    for doc_id in pred.doc_ids():
        doc = pred[doc_id]
        for event_id in doc.events:
            events = {k: v for k, v in doc.events.items() if k != event_id}
            smaller = Document(
                doc.doc_id, doc.text, doc.text_bounds, events, doc.attributes, doc.metadata
            )
            pred2 = _corpus(*(smaller if d == doc_id else pred[d] for d in pred.doc_ids()))
            after, _ = score_corpus(gold, pred2, shac)
            keys = set(before.counts) | set(after.counts)
            for key in keys:
                assert after[key].fp <= before[key].fp
                assert after[key].fn >= before[key].fn


# sha256 of the TSV metric report for the corpus below, as rendered by the
# scorer that built argument tallies pair by pair (before the one-slot model).
GOLDEN_REPORT_SHA256 = "ee5b996a9ccdaafc888e1fde8856162a1a01417521a4c29ade5ba7d4f6ee1379"


def test_score_corpus_matches_golden_pin(shac):
    gold = generate_gold(GeneratorConfig(seed=51, notes=10), shac)
    pred, _ = perturb(gold, GeneratorConfig(seed=51, notes=10, event_drop=0.3), shac)
    first, report = score_corpus(gold, pred, shac)
    again, _ = score_corpus(gold, pred, shac)
    assert {k: (c.tp, c.fn, c.fp) for k, c in first.items()} == {
        k: (c.tp, c.fn, c.fp) for k, c in again.items()
    }
    assert (report.overall.tp, report.overall.fn, report.overall.fp) == (130, 43, 0)
    tsv = render(metric_rows(report), METRIC_COLUMNS, "tsv", {})
    assert hashlib.sha256(tsv.encode()).hexdigest() == GOLDEN_REPORT_SHA256


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_prf_zero_over_zero_is_zero():
    assert prf(0, 0, 0) == (0.0, 0.0, 0.0)
    assert prf(0, 5, 0) == (0.0, 0.0, 0.0)
    assert prf(0, 0, 5) == (0.0, 0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(tp=st.integers(0, 50), fn=st.integers(0, 50), fp=st.integers(0, 50))
def test_prf_bounds(tp, fn, fp):
    p, r, f = prf(tp, fn, fp)
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
    if tp == 0:
        assert f == 0.0


def test_rollups_sum_to_overall(shac):
    gold = generate_gold(GeneratorConfig(seed=61, notes=10), shac)
    pred, _ = perturb(
        gold, GeneratorConfig(seed=61, notes=10, subtype_flip=0.4, event_drop=0.2), shac
    )
    counts, report = score_corpus(gold, pred, shac)
    for table in (report.by_event_type, report.by_kind):
        assert sum(m.tp for m in table.values()) == report.overall.tp
        assert sum(m.fn for m in table.values()) == report.overall.fn
        assert sum(m.fp for m in table.values()) == report.overall.fp


def test_phenomenon_key_field_presence():
    with pytest.raises(ValueError):
        PhenomenonKey(TRIGGER, "Drug", argument_type="Type")
    with pytest.raises(ValueError):
        PhenomenonKey(SPAN_ONLY_ARG, "Drug")
    with pytest.raises(ValueError):
        PhenomenonKey(LABELED_ARG, "Drug", "StatusTime")
    with pytest.raises(ValueError):
        PhenomenonKey("other", "Drug")


def test_identity_counts_matches_scoring_identity(shac):
    gold = generate_gold(GeneratorConfig(seed=71, notes=8), shac)
    scored, _ = score_corpus(gold, gold, shac)
    analytic = identity_counts(gold, shac)
    assert {k: (c.tp, c.fn, c.fp) for k, c in scored.items()} == {
        k: (c.tp, c.fn, c.fp) for k, c in analytic.items()
    }
