from collections import Counter
from dataclasses import replace

import pytest

from slotscore.analytics import (
    bucket_label,
    corpus_stats,
    density_breakdown,
    subtype_breakdown,
)
from slotscore.scoring import Metrics, ScoreCounts, score_corpus
from slotscore.standoff import Corpus, Document, parse_document
from slotscore.testkit import GeneratorConfig, generate_gold, perturb


def _corpus(*docs):
    corpus = Corpus()
    for doc in docs:
        corpus.add(doc)
    return corpus


def _drug_note(doc_id, subtype="current", metadata=None):
    text = "drugs current cocaine pad"
    ann = (
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T3\tType 14 21\tcocaine\n"
        "E1\tDrug:T1 Status:T2 Type:T3\n"
        f"A1\tStatusTime T2 {subtype}\n"
    )
    doc = parse_document(ann, text, doc_id)
    if metadata is not None:
        doc = replace(doc, metadata=metadata)
    return doc


def test_bucket_labels():
    assert bucket_label(0) == "0"
    assert bucket_label(1) == "1"
    assert bucket_label(2) == "2"
    assert bucket_label(3) == "3+"
    assert bucket_label(7) == "3+"


def test_corpus_stats_empty(shac):
    stats = corpus_stats(Corpus(), shac)
    assert stats.note_count == 0
    assert stats.notes_by_partition == {}
    assert stats.events_by_type == {}
    assert stats.avg_events_per_note == {}


def test_corpus_stats_known_composition(shac):
    # 10 mimic/train notes, 3 of them carrying one Drug event each
    from slotscore.standoff import DocumentMetadata

    meta = DocumentMetadata(source="mimic", split="train")
    docs = [_drug_note(f"n{i}", metadata=meta) for i in range(3)]
    docs += [Document(f"n{i}", "no findings", metadata=meta) for i in range(3, 10)]
    stats = corpus_stats(_corpus(*docs), shac)
    assert stats.note_count == 10
    assert stats.notes_by_partition == {("mimic", "train"): 10}
    assert stats.events_by_type == {"Drug": 3}
    assert stats.avg_events_per_note == {"Drug": pytest.approx(0.3)}
    assert stats.subtype_frequencies == {("Drug", "StatusTime", "current"): 3}


def test_corpus_stats_totals_equal_partition_sums(shac):
    gold = generate_gold(
        GeneratorConfig(
            seed=9,
            notes=12,
            partitions=(("mimic", "train"), ("uw", "dev"), ("uw", "test")),
        ),
        shac,
    )
    stats = corpus_stats(gold, shac)
    assert sum(stats.notes_by_partition.values()) == stats.note_count
    direct = Counter(e.event_type for doc in gold for e in doc.events.values())
    assert stats.events_by_type == dict(sorted(direct.items()))


def test_corpus_stats_additive_over_disjoint_merge(shac):
    a = generate_gold(GeneratorConfig(seed=1, notes=5), shac)
    b_raw = generate_gold(GeneratorConfig(seed=2, notes=4), shac)
    import dataclasses

    b = _corpus(*(dataclasses.replace(d, doc_id="b" + d.doc_id) for d in b_raw))
    merged = _corpus(*a, *b)
    sa, sb, sm = (corpus_stats(c, shac) for c in (a, b, merged))
    assert sm.note_count == sa.note_count + sb.note_count
    for event_type, count in sm.events_by_type.items():
        assert count == sa.events_by_type.get(event_type, 0) + sb.events_by_type.get(event_type, 0)


# ---------------------------------------------------------------------------
# Subtype breakdown
# ---------------------------------------------------------------------------

def test_subtype_breakdown_perfect_predictions(shac):
    gold = _corpus(_drug_note("a"), _drug_note("b", subtype="past"))
    rows = subtype_breakdown(gold, gold, shac)
    assert [(r.event_type, r.argument_type, r.subtype) for r in rows] == [
        ("Drug", "StatusTime", "current"),
        ("Drug", "StatusTime", "past"),
    ]
    for row in rows:
        assert row.metrics.f1 == 1.0
        assert row.gold_count == row.pred_count == 1
        assert row.avg_gold_per_note == pytest.approx(0.5)


def test_subtype_breakdown_flipped_labels(shac):
    # prediction flips every none to current:
    # none row loses all recall; current row collects the false positives
    gold = _corpus(*(_drug_note(f"n{i}", subtype="none") for i in range(3)),
                   _drug_note("n3", subtype="current"))
    pred = _corpus(*(_drug_note(f"n{i}", subtype="current") for i in range(4)))
    rows = {(r.subtype): r for r in subtype_breakdown(gold, pred, shac)}
    assert rows["none"].metrics.recall == 0.0
    assert rows["none"].gold_count == 3
    assert rows["current"].metrics.tp == 1
    assert rows["current"].metrics.fp == 3
    assert rows["current"].metrics.precision == pytest.approx(0.25)


def test_subtype_breakdown_omits_unattested_rows(shac):
    gold = _corpus(_drug_note("a"))
    rows = subtype_breakdown(gold, gold, shac)
    assert [r.subtype for r in rows] == ["current"]  # no none/past rows


# ---------------------------------------------------------------------------
# Density breakdown
# ---------------------------------------------------------------------------

def _restricted_to_event_type(counts, event_type):
    """The cells of ``counts`` whose key names ``event_type``."""
    out = ScoreCounts()
    for key, cell in counts.counts.items():
        if key.event_type == event_type:
            out.tally(key, cell.tp, cell.fn, cell.fp)
    return out


def brute_force_density(gold, pred, schema):
    """Independent oracle: rescore each bucket's note subset from scratch."""
    event_types = set()
    for doc in gold:
        event_types.update(e.event_type for e in doc.events.values())
    for doc in pred:
        event_types.update(e.event_type for e in doc.events.values())

    rows = {}
    for event_type in sorted(event_types):
        by_bucket = {}
        for doc_id in gold.doc_ids():
            n = sum(1 for e in gold[doc_id].events.values() if e.event_type == event_type)
            by_bucket.setdefault(bucket_label(n), []).append(doc_id)
        for bucket, doc_ids in by_bucket.items():
            sub_gold = _corpus(*(gold[d] for d in doc_ids))
            sub_pred = _corpus(*(pred[d] for d in doc_ids if d in pred.documents))
            counts, _ = score_corpus(sub_gold, sub_pred, schema)
            restricted = _restricted_to_event_type(counts, event_type)
            if not restricted.counts:
                continue
            contributing = 0
            gold_events = 0
            for d in doc_ids:
                n = sum(1 for e in gold[d].events.values() if e.event_type == event_type)
                per_doc, _ = score_corpus(
                    _corpus(gold[d]),
                    _corpus(pred[d]) if d in pred.documents else Corpus(),
                    schema,
                )
                if n > 0 or _restricted_to_event_type(per_doc, event_type).counts:
                    contributing += 1
                    gold_events += n
            rows[(event_type, bucket)] = (
                contributing,
                gold_events,
                Metrics.from_counts(restricted.total()),
            )
    return rows


def test_density_three_events_land_in_three_plus(shac):
    gold = generate_gold(GeneratorConfig(seed=4, notes=5, density={"Drug": {3: 1.0}}), shac)
    rows = density_breakdown(gold, gold, shac)
    assert [(r.event_type, r.bucket) for r in rows] == [("Drug", "3+")]
    assert rows[0].note_count == 5
    assert rows[0].gold_events == 15
    assert rows[0].metrics.f1 == 1.0


def test_density_single_event_notes_leave_other_buckets_empty(shac):
    gold = generate_gold(GeneratorConfig(seed=4, notes=6, density={"Drug": {1: 1.0}}), shac)
    rows = density_breakdown(gold, gold, shac)
    assert {r.bucket for r in rows} == {"1"}


def test_density_zero_bucket_collects_hallucinations(shac):
    gold = _corpus(Document("n1", "drugs current cocaine pad"))
    pred = _corpus(_drug_note("n1"))
    rows = density_breakdown(gold, pred, shac)
    assert [(r.event_type, r.bucket) for r in rows] == [("Drug", "0")]
    assert rows[0].metrics.fp == 3  # trigger, status label, type span
    assert rows[0].metrics.tp == 0 and rows[0].metrics.fn == 0
    assert rows[0].gold_events == 0


def test_density_matches_brute_force_rescoring(shac):
    gold = generate_gold(GeneratorConfig(seed=17, notes=20), shac)
    pred, _ = perturb(
        gold,
        GeneratorConfig(
            seed=17, notes=20, event_drop=0.2, event_insert=0.3, subtype_flip=0.3, span_edit=0.2
        ),
        shac,
    )
    rows = {(r.event_type, r.bucket): (r.note_count, r.gold_events, r.metrics)
            for r in density_breakdown(gold, pred, shac)}
    assert rows == brute_force_density(gold, pred, shac)


def test_density_matches_brute_force_on_lenient_notes(shac):
    # Where a note's gold count could differ from its trigger cell's tp + fn:
    # a trigger-less gold event (n1), a type the schema does not declare
    # (Pet), a type only the prediction has (Drug on n2) and a gold note
    # with no prediction file (n3).
    text = "drugs current cocaine pad cat dog"
    drug = (
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T3\tType 14 21\tcocaine\n"
        "E1\tDrug:T1 Status:T2 Type:T3\n"
        "A1\tStatusTime T2 current\n"
    )
    cat = "T4\tPet 26 29\tcat\nE3\tPet:T4\n"
    dog = "T5\tPet 30 33\tdog\nE4\tPet:T5\n"
    gold = _corpus(
        parse_document(drug + "E2\tDrug: Status:T2\n" + cat, text, "n1"),
        parse_document(cat, text, "n2"),
        parse_document(drug + cat + dog, text, "n3"),
    )
    pred = _corpus(
        parse_document(drug.replace("T2 current", "T2 past") + cat, text, "n1"),
        parse_document(drug, text, "n2"),
    )
    assert gold["n1"].events["E2"].trigger is None and "n3" not in pred
    rows = {(r.event_type, r.bucket): (r.note_count, r.gold_events, r.metrics)
            for r in density_breakdown(gold, pred, shac)}
    assert set(rows) == {("Drug", "0"), ("Drug", "1"), ("Drug", "2"), ("Pet", "1"), ("Pet", "2")}
    assert rows == brute_force_density(gold, pred, shac)


def test_density_buckets_partition_type_counts(shac):
    # buckets 1/2/3+ restricted to an event type sum to the corpus-level
    # counts for notes that carry at least one gold event of the type
    gold = generate_gold(GeneratorConfig(seed=23, notes=15), shac)
    pred, _ = perturb(
        gold, GeneratorConfig(seed=23, notes=15, event_drop=0.3, subtype_flip=0.2), shac
    )
    rows = density_breakdown(gold, pred, shac)
    for event_type in {r.event_type for r in rows}:
        with_gold = [d for d in gold.doc_ids()
                     if any(e.event_type == event_type for e in gold[d].events.values())]
        sub_gold = _corpus(*(gold[d] for d in with_gold))
        sub_pred = _corpus(*(pred[d] for d in with_gold))
        counts, _ = score_corpus(sub_gold, sub_pred, shac)
        expected = _restricted_to_event_type(counts, event_type).total()
        bucket_rows = [r for r in rows if r.event_type == event_type and r.bucket != "0"]
        assert sum(r.metrics.tp for r in bucket_rows) == expected.tp
        assert sum(r.metrics.fn for r in bucket_rows) == expected.fn
