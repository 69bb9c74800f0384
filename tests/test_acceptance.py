"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they execute."""

import hashlib
import logging
import struct
import time
from dataclasses import replace
from fractions import Fraction

from oracles import generate_alignment_case, oracle_align
from test_analytics import brute_force_density

from slotscore.reports import BOOTSTRAP_COLUMNS, bootstrap_rows, render
from slotscore.schema import RULE_REQUIRED, validate_document
from slotscore.scoring import (
    LABELED_ARG,
    SPAN_ONLY_ARG,
    TRIGGER,
    MetricReport,
    PhenomenonKey,
    align_events,
    score_corpus,
    score_document,
)
from slotscore.significance import BootstrapConfig, paired_bootstrap
from slotscore.standoff import Corpus, Document, parse_document, serialize_document
from slotscore.testkit import GeneratorConfig, generate_gold, perturb

logger = logging.getLogger("acceptance")


def _criterion(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def _corpus(*docs):
    corpus = Corpus()
    for doc in docs:
        corpus.add(doc)
    return corpus


def _triple(counts, key):
    cell = counts[key]
    return (cell.tp, cell.fn, cell.fp)


# ---------------------------------------------------------------------------
# 1. Slot equivalence of two annotations that differ only in relaxed ways
# ---------------------------------------------------------------------------

def test_criterion_1_slot_equivalence(shac):
    started = time.perf_counter()
    text = "Pt reports past IVDU. Recent cocaine use daily."
    gold_ann = (
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
    # annotation B: event 1 identical; event 2 trigger "cocaine use"
    # (overlaps), status span "Recent" (same subtype), type span identical
    pred_ann = (
        gold_ann.replace("T4\tDrug 29 36\tcocaine", "T4\tDrug 29 40\tcocaine use")
        .replace("T5\tStatusTime 37 40\tuse", "T5\tStatusTime 22 28\tRecent")
    )
    gold = parse_document(gold_ann, text, "fig")
    pred = parse_document(pred_ann, text, "fig")
    counts = score_document(gold, pred, shac)
    report = MetricReport.from_counts(counts)
    elapsed = time.perf_counter() - started

    exact = (report.overall.precision, report.overall.recall, report.overall.f1) == (1.0, 1.0, 1.0)
    _criterion(1, f"slot-equivalent annotations score P=R=F1=1.0 in {elapsed:.3f}s",
               exact and elapsed < 1.0)


# ---------------------------------------------------------------------------
# 2. The three criteria discriminate exactly as specified
# ---------------------------------------------------------------------------

def test_criterion_2_discrimination_triple(shac):
    text = "drug use now cocaine today."
    gold_ann = (
        "T1\tDrug 0 4\tdrug\n"
        "T2\tStatusTime 9 12\tnow\n"
        "T3\tType 13 20\tcocaine\n"
        "E1\tDrug:T1 Status:T2 Type:T3\n"
        "A1\tStatusTime T2 current\n"
    )
    # (a) span-only argument widened by one character
    pred_a = gold_ann.replace("T3\tType 13 20\tcocaine", "T3\tType 13 21\tcocaine ")
    # (b) labeled argument span widened by one character
    pred_b = gold_ann.replace("T2\tStatusTime 9 12\tnow", "T2\tStatusTime 9 13\tnow ")
    # (c) trigger moved to a non-overlapping span
    pred_c = gold_ann.replace("T1\tDrug 0 4\tdrug", "T1\tDrug 21 26\ttoday")

    gold = _corpus(
        parse_document(gold_ann, text, "a"),
        parse_document(gold_ann, text, "b"),
        parse_document(gold_ann, text, "c"),
    )
    pred = _corpus(
        parse_document(pred_a, text, "a"),
        parse_document(pred_b, text, "b"),
        parse_document(pred_c, text, "c"),
    )
    counts, _ = score_corpus(gold, pred, shac)

    trigger = PhenomenonKey(TRIGGER, "Drug")
    span_only = PhenomenonKey(SPAN_ONLY_ARG, "Drug", "Type")
    labeled = PhenomenonKey(LABELED_ARG, "Drug", "StatusTime", "current")
    # notes a and b keep their trigger tp; note c trades one fn for one fp;
    # the widened span-only argument fails only on note a; the labeled
    # argument is span-agnostic so only note c's unmatched event hits it
    ok = (
        _triple(counts, trigger) == (2, 1, 1)
        and _triple(counts, span_only) == (1, 2, 2)
        and _triple(counts, labeled) == (2, 1, 1)
    )
    _criterion(2, "span widening, labeled-span widening, and trigger shift "
                  "discriminate with exact counts", ok)


# ---------------------------------------------------------------------------
# 3. Greedy alignment against the exhaustive matching oracle
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_alignment():
    started = time.perf_counter()
    documents = 1000
    mismatches = []
    for seed in range(documents):
        gold, pred = generate_alignment_case(seed, max_events=4)
        greedy = len(align_events(gold, pred).matched)
        optimal = len(oracle_align(gold, pred))
        assert greedy <= optimal
        if greedy != optimal:
            mismatches.append((seed, greedy, optimal))
            logger.warning(
                "alignment disagreement on seed %d: greedy=%d oracle=%d", seed, greedy, optimal
            )
    elapsed = time.perf_counter() - started
    agreement = 1 - len(mismatches) / documents
    for seed, greedy, optimal in mismatches:
        print(f"  disagreement: seed={seed} greedy={greedy} oracle={optimal}")
    _criterion(3, f"greedy matches oracle on {agreement:.1%} of {documents} documents "
                  f"({len(mismatches)} logged) in {elapsed:.1f}s",
               agreement >= 0.99 and elapsed < 30.0)
    # the generated cases are pinned: the same seeds disagree on every run
    assert [seed for seed, _, _ in mismatches] == [114, 387, 574, 595, 882]


# ---------------------------------------------------------------------------
# 4. Bootstrap exactness, determinism, and speed
# ---------------------------------------------------------------------------

CRITERION_4_REPORT = (
    b"# seed=99\n# repetitions=10000\n"
    b"f1_a\tf1_b\tdelta\tp_value\trepetitions\tseed\talpha\tsignificant\tverdict\n"
    b"1.000000\t0.887809\t0.112191\t0.000200\t10000\t99\t0.050000\ttrue\t"
    b"statistically different\n"
)
CRITERION_4_DELTAS_SHA256 = "30f32f0e1ba5e0b884e04c36e43d52b474c466227b12a79cf05a0f832d211689"


def test_criterion_4_bootstrap_exactness(shac):
    gold = generate_gold(
        GeneratorConfig(seed=40, notes=20, density={"Drug": {1: 0.5, 2: 0.5}}), shac
    )
    assert all(doc.events for doc in gold)
    empty = _corpus(*(Document(d.doc_id, d.text, metadata=d.metadata) for d in gold))

    reps = 10_000
    result = paired_bootstrap(gold, gold, empty, shac, BootstrapConfig(repetitions=reps, seed=4))
    expected_p = float(Fraction(2, reps + 1))
    exact = result.p_value == expected_p and abs(result.p_value - 1.9998e-4) < 1e-8

    same = paired_bootstrap(gold, empty, empty, shac, BootstrapConfig(repetitions=500, seed=4))
    identical_ok = same.p_value == 1.0

    # byte-identical reports and deltas against a golden pin, recorded from
    # the per-repetition pure-Python resampler
    big = generate_gold(GeneratorConfig(seed=41, notes=500), shac)
    degraded, _ = perturb(
        gold=big,
        cfg=GeneratorConfig(seed=41, notes=500, event_drop=0.15, subtype_flip=0.15),
        schema=shac,
    )
    started = time.perf_counter()
    res = paired_bootstrap(
        big, big, degraded, shac, BootstrapConfig(repetitions=reps, seed=99), keep_deltas=True
    )
    elapsed = time.perf_counter() - started
    blob = render(
        bootstrap_rows(res), BOOTSTRAP_COLUMNS, "tsv",
        header={"seed": res.seed, "repetitions": res.repetitions},
    ).encode()
    deltas_sha256 = hashlib.sha256(struct.pack(f"<{reps}d", *res.deltas)).hexdigest()
    golden_ok = blob == CRITERION_4_REPORT and deltas_sha256 == CRITERION_4_DELTAS_SHA256

    _criterion(4, f"p=2/(reps+1) exactly, identical systems p=1.0, golden-pinned "
                  f"bytes, {elapsed:.1f}s per 10k-rep run on 500 notes",
               exact and identical_ok and golden_ok and elapsed < 10.0)


# ---------------------------------------------------------------------------
# 5. Identity, additivity, swap symmetry, deletion monotonicity
# ---------------------------------------------------------------------------

def test_criterion_5_counting_properties(shac):
    violations = 0
    instances = 100
    for seed in range(instances):
        gold = generate_gold(GeneratorConfig(seed=seed, notes=4), shac)
        pred, _ = perturb(
            gold,
            GeneratorConfig(
                seed=seed, notes=4,
                trigger_shift=0.2, span_edit=0.25, subtype_flip=0.25,
                event_drop=0.2, event_insert=0.25,
            ),
            shac,
        )

        identity, identity_report = score_corpus(gold, gold, shac)
        if any(c.fn or c.fp for _, c in identity.items()):
            violations += 1
        if identity.counts and identity_report.overall.f1 != 1.0:
            violations += 1

        ids = gold.doc_ids()
        half = len(ids) // 2
        left, _ = score_corpus(
            _corpus(*(gold[i] for i in ids[:half])), _corpus(*(pred[i] for i in ids[:half])), shac
        )
        right, _ = score_corpus(
            _corpus(*(gold[i] for i in ids[half:])), _corpus(*(pred[i] for i in ids[half:])), shac
        )
        whole, report = score_corpus(gold, pred, shac)
        left.merge(right)
        if {k: (c.tp, c.fn, c.fp) for k, c in whole.items()} != {
            k: (c.tp, c.fn, c.fp) for k, c in left.items()
        }:
            violations += 1

        _, swapped = score_corpus(pred, gold, shac)
        if (
            abs(report.overall.precision - swapped.overall.recall) > 1e-12
            or abs(report.overall.recall - swapped.overall.precision) > 1e-12
            or abs(report.overall.f1 - swapped.overall.f1) > 1e-12
        ):
            violations += 1

        deleted_one = False
        for doc_id in pred.doc_ids():
            doc = pred[doc_id]
            if not doc.events:
                continue
            victim = sorted(doc.events)[seed % len(doc.events)]
            events = {k: v for k, v in doc.events.items() if k != victim}
            smaller = Document(
                doc.doc_id, doc.text, doc.text_bounds, events, doc.attributes, doc.metadata
            )
            pred2 = _corpus(*(smaller if d == doc_id else pred[d] for d in pred.doc_ids()))
            after, _ = score_corpus(gold, pred2, shac)
            for key in set(whole.counts) | set(after.counts):
                if after[key].fp > whole[key].fp or after[key].fn < whole[key].fn:
                    violations += 1
            deleted_one = True
            break
        assert deleted_one or not any(d.events for d in pred)

    _criterion(5, f"identity, additivity, swap, and deletion monotonicity over "
                  f"{instances} random instances with {violations} violations",
               violations == 0)


# ---------------------------------------------------------------------------
# 6. Serialization round-trip at scale
# ---------------------------------------------------------------------------

def test_criterion_6_round_trip(shac):
    documents = 0
    failures = 0
    saw_discontinuous = saw_multi_argument = False
    for seed in range(50):
        corpus = generate_gold(
            GeneratorConfig(seed=seed, notes=20, discontinuous_rate=0.35), shac
        )
        for doc in corpus:
            documents += 1
            if any(len(tb.fragments) > 1 for tb in doc.text_bounds.values()):
                saw_discontinuous = True
            if any(len(e.arguments) > 1 for e in doc.events.values()):
                saw_multi_argument = True
            reparsed = parse_document(
                serialize_document(doc), doc.text, doc.doc_id, strict=True, metadata=doc.metadata
            )
            if reparsed != doc:
                failures += 1
    _criterion(6, f"{documents} generated documents round-trip structurally "
                  f"unchanged ({failures} failures)",
               documents >= 1000 and failures == 0 and saw_discontinuous and saw_multi_argument)


# ---------------------------------------------------------------------------
# 7. Density buckets equal brute-force per-bucket rescoring
# ---------------------------------------------------------------------------

def test_criterion_7_density_bucketing(shac):
    from slotscore.analytics import density_breakdown

    gold = generate_gold(GeneratorConfig(seed=70, notes=20), shac)
    pred, _ = perturb(
        gold,
        GeneratorConfig(seed=70, notes=20, event_drop=0.25, event_insert=0.3,
                        subtype_flip=0.3, span_edit=0.25),
        shac,
    )
    breakdown = density_breakdown(gold, pred, shac)
    assert {r.bucket for r in breakdown} == {"0", "1", "2", "3+"}, \
        "fixture: the seed-70 corpus must reach every bucket"
    rows = {(r.event_type, r.bucket): (r.note_count, r.gold_events, r.metrics) for r in breakdown}
    brute = brute_force_density(gold, pred, shac)
    match = rows == brute

    # bucket definition: 1, 2, and 3-or-more gold events per note. One note
    # per count, each drawn from a one-point density, so the counts do not
    # depend on the seed.
    dense = _corpus(*(
        replace(
            generate_gold(GeneratorConfig(seed=71, notes=1, density={"Drug": {n: 1.0}}), shac)["note0000"],
            doc_id=f"drug{n}",
        )
        for n in (1, 2, 3, 5)
    ))
    drug_counts = [
        sum(1 for e in dense[doc_id].events.values() if e.event_type == "Drug")
        for doc_id in dense.doc_ids()
    ]
    assert drug_counts == [1, 2, 3, 5], f"fixture: dense Drug counts are {drug_counts}"
    bucket_rows = [
        (r.event_type, r.bucket, r.note_count, r.gold_events, r.metrics.f1)
        for r in density_breakdown(dense, dense, shac)
    ]
    definition_ok = bucket_rows == [
        ("Drug", "1", 1, 1, 1.0),
        ("Drug", "2", 1, 2, 1.0),
        ("Drug", "3+", 2, 8, 1.0),
    ]

    _criterion(7, "density rows equal brute-force bucket rescoring and buckets "
                  "follow the 1 / 2 / 3+ definition", match and definition_ok)


# ---------------------------------------------------------------------------
# 8. Reference schema content and required-argument validation
# ---------------------------------------------------------------------------

def test_criterion_8_reference_schema(shac):
    types_ok = shac.event_types() == ("Alcohol", "Drug", "Tobacco", "Employment", "LivingStatus")
    status_time = shac.event("Drug").roles["Status"]
    employ = shac.event("Employment").roles["Status"]
    living = shac.event("LivingStatus").roles["Type"]
    vocab_ok = (
        {"none", "current", "past"} <= set(status_time.subtypes)
        and {"employed", "unemployed", "retired", "on_disability", "student", "homemaker"}
        <= set(employ.subtypes)
        and "homeless" in living.subtypes
    )
    doc = parse_document("T1\tDrug 0 5\tdrugs\nE1\tDrug:T1\n", "drugs today", "n1")
    flagged = [v.rule for v in validate_document(doc, shac)] == [RULE_REQUIRED]
    _criterion(8, "reference schema carries the attested event types and "
                  "vocabularies; a missing required argument is flagged",
               types_ok and vocab_ok and flagged)
