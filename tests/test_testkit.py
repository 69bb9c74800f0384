import ast
from pathlib import Path

import pytest

from slotscore import testkit
from slotscore.analytics import density_breakdown
from slotscore.schema import validate_document
from slotscore.scoring import LABELED_ARG, align_events, score_corpus
from slotscore.standoff import serialize_document
from slotscore.testkit import (
    Edit,
    GeneratorConfig,
    GeneratorError,
    expected_counts,
    generate_alignment_case,
    generate_gold,
    oracle_align,
    perturb,
)


def _counts_dict(counts):
    return {k: (c.tp, c.fn, c.fp) for k, c in counts.items()}


def test_config_rejects_bad_rates():
    with pytest.raises(GeneratorError):
        GeneratorConfig(event_drop=1.5)
    with pytest.raises(GeneratorError):
        GeneratorConfig(seed=-1)
    with pytest.raises(GeneratorError):
        GeneratorConfig(density={"Drug": {0: 0.5, 1: 0.4}})  # sums to 0.9
    with pytest.raises(GeneratorError):
        GeneratorConfig(subtype_dist={"StatusTime": {}})


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(GeneratorError):
        GeneratorConfig.from_mapping({"notes": 3, "bogus": 1})


def test_generated_corpus_is_schema_valid(shac):
    for seed in (0, 1, 99):
        corpus = generate_gold(GeneratorConfig(seed=seed, notes=6), shac)
        for doc in corpus:
            assert validate_document(doc, shac) == []


def test_same_seed_is_byte_identical(shac):
    cfg = GeneratorConfig(seed=8, notes=6)
    first = generate_gold(cfg, shac)
    second = generate_gold(cfg, shac)
    assert first.doc_ids() == second.doc_ids()
    for doc_id in first.doc_ids():
        assert first[doc_id].text == second[doc_id].text
        assert serialize_document(first[doc_id]) == serialize_document(second[doc_id])


def test_different_seeds_differ(shac):
    a = generate_gold(GeneratorConfig(seed=1, notes=6), shac)
    b = generate_gold(GeneratorConfig(seed=2, notes=6), shac)
    assert any(
        serialize_document(a[d]) != serialize_document(b[d]) for d in a.doc_ids()
    )


def test_density_distribution_is_respected(shac):
    corpus = generate_gold(
        GeneratorConfig(seed=5, notes=8, density={"Drug": {3: 1.0}}), shac
    )
    for doc in corpus:
        assert sum(1 for e in doc.events.values() if e.event_type == "Drug") == 3
        assert all(e.event_type == "Drug" for e in doc.events.values())
    rows = density_breakdown(corpus, corpus, shac)
    assert {r.bucket for r in rows} == {"3+"}


def test_subtype_distribution_support_is_validated(shac):
    cfg = GeneratorConfig(
        seed=5, notes=2, subtype_dist={"StatusTime": {"sometimes": 1.0}}
    )
    with pytest.raises(GeneratorError, match="outside the vocabulary"):
        generate_gold(cfg, shac)


def test_generator_produces_discontinuous_spans_and_duplicates(shac):
    corpus = generate_gold(
        GeneratorConfig(seed=13, notes=30, discontinuous_rate=0.8, duplicate_argument_rate=0.8),
        shac,
    )
    tbs = [tb for doc in corpus for tb in doc.text_bounds.values()]
    assert any(len(tb.span.fragments) > 1 for tb in tbs)
    has_duplicate_role = any(
        len([r for r, _ in e.arguments]) != len({r for r, _ in e.arguments})
        for doc in corpus
        for e in doc.events.values()
    )
    assert has_duplicate_role


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

def test_all_rates_zero_is_identity(shac):
    gold = generate_gold(GeneratorConfig(seed=3, notes=5), shac)
    pred, edits = perturb(gold, GeneratorConfig(seed=3, notes=5), shac)
    assert edits == []
    assert pred.doc_ids() == gold.doc_ids()
    for doc_id in gold.doc_ids():
        assert pred[doc_id] == gold[doc_id]


def test_subtype_flip_everywhere_kills_status_time_tps(shac):
    gold = generate_gold(
        GeneratorConfig(seed=6, notes=10, density={"Drug": {1: 0.5, 2: 0.5}}), shac
    )
    pred, edits = perturb(gold, GeneratorConfig(seed=6, notes=10, subtype_flip=1.0), shac)
    assert any(e.op == "flip" for e in edits)
    counts, _ = score_corpus(gold, pred, shac)
    for key, cell in counts.items():
        if key.kind == LABELED_ARG and key.argument_type == "StatusTime":
            assert cell.tp == 0


def test_trigger_shift_keeps_trigger_tps(shac):
    gold = generate_gold(GeneratorConfig(seed=9, notes=10), shac)
    pred, edits = perturb(gold, GeneratorConfig(seed=9, notes=10, trigger_shift=1.0), shac)
    assert any(e.op == "shift" for e in edits)
    counts, _ = score_corpus(gold, pred, shac)
    got = _counts_dict(counts)
    want = _counts_dict(expected_counts(gold, edits, shac))
    assert got == want  # shifts predict zero impact
    total = counts.total()
    assert total.fn == 0 and total.fp == 0


@pytest.mark.parametrize("seed", range(8))
def test_edit_log_predicts_scores_exactly(shac, seed):
    gold = generate_gold(GeneratorConfig(seed=seed, notes=8), shac)
    cfg = GeneratorConfig(
        seed=seed,
        notes=8,
        trigger_shift=0.25,
        span_edit=0.3,
        subtype_flip=0.3,
        event_drop=0.2,
        event_insert=0.3,
    )
    pred, edits = perturb(gold, cfg, shac)
    counts, _ = score_corpus(gold, pred, shac)
    assert _counts_dict(counts) == _counts_dict(expected_counts(gold, edits, shac))


def test_perturbed_corpus_round_trips_through_files(tmp_path, shac):
    from slotscore.standoff import load_corpus, write_corpus

    gold = generate_gold(
        GeneratorConfig(seed=14, notes=6, partitions=(("other", "unknown"),)), shac
    )
    pred, _ = perturb(
        gold,
        GeneratorConfig(seed=14, notes=6, event_drop=0.3, event_insert=0.4, span_edit=0.3,
                        partitions=(("other", "unknown"),)),
        shac,
    )
    write_corpus(gold, tmp_path / "gold")
    write_corpus(pred, tmp_path / "pred")
    gold2 = load_corpus(tmp_path / "gold", strict=True)
    pred2 = load_corpus(tmp_path / "pred", strict=True)
    before, _ = score_corpus(gold, pred, shac)
    after, _ = score_corpus(gold2, pred2, shac)
    assert _counts_dict(before) == _counts_dict(after)


def test_inserted_events_never_overlap_gold_annotations(shac):
    gold = generate_gold(GeneratorConfig(seed=15, notes=10), shac)
    pred, edits = perturb(gold, GeneratorConfig(seed=15, notes=10, event_insert=1.0), shac)
    inserted = {(e.doc_id, e.event_id) for e in edits if e.op == "insert"}
    assert inserted
    for doc_id, event_id in inserted:
        doc = pred[doc_id]
        span = doc.trigger_of(doc.events[event_id]).span
        for tb in gold[doc_id].text_bounds.values():
            assert not span.overlaps(tb.span)


# ---------------------------------------------------------------------------
# Oracle alignment
# ---------------------------------------------------------------------------

def test_oracle_matches_greedy_on_two_pred_overlap_case(shac):
    gold, pred = generate_alignment_case(0)
    assert isinstance(oracle_align(gold, pred), list)


def test_oracle_cap(shac):
    from slotscore.standoff import Corpus

    big = generate_gold(GeneratorConfig(seed=2, notes=1, density={"Drug": {13: 1.0}}), shac)
    doc = big[big.doc_ids()[0]]
    with pytest.raises(ValueError, match="capped"):
        oracle_align(doc, doc)


def test_greedy_agrees_with_oracle_at_least_99_percent():
    mismatches = 0
    for seed in range(500):
        gold, pred = generate_alignment_case(seed)
        greedy = len(align_events(gold, pred).matched)
        optimal = len(oracle_align(gold, pred))
        assert greedy <= optimal
        if greedy != optimal:
            mismatches += 1
    assert mismatches / 500 < 0.01


# Output vocabulary and containers: what an oracle may take from the scorer.
SCORER_NAMES_ORACLES_MAY_USE = {
    "LABELED_ARG", "MISSING_SUBTYPE", "SPAN_ONLY_ARG", "TRIGGER", "PhenomenonKey", "ScoreCounts",
}


def test_oracles_take_no_rule_from_the_scorer():
    """testkit's oracles import no scoring rule and call no Span.overlaps,
    the test the aligner runs; if they did, the scorer would be checked
    against itself."""
    tree = ast.parse(Path(testkit.__file__).read_text(encoding="utf-8"))
    from_scoring = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("scoring", "slotscore.scoring")
        for alias in node.names
    }
    assert from_scoring <= SCORER_NAMES_ORACLES_MAY_USE
    assert not [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "overlaps"
    ]
