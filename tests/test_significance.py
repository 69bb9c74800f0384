import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from slotscore import scoring, significance
from slotscore.significance import (
    BootstrapConfig,
    BootstrapResult,
    _note_totals,
    _resample_sums,
    paired_bootstrap,
)
from slotscore.standoff import Corpus, Document
from slotscore.scoring import ScoringError, prf, score_corpus
from slotscore.testkit import GeneratorConfig, generate_gold, perturb


def _corpus_of(docs):
    corpus = Corpus()
    for doc in docs:
        corpus.add(doc)
    return corpus


def _stream(seed, rep):
    """The documented stream of repetition ``rep``: Philox4x64 keyed by the
    seed, advanced by ``rep << 64``."""
    return np.random.Generator(np.random.Philox(key=seed).advance(rep << 64))


def _empty_like(gold):
    pred = Corpus()
    for doc in gold:
        pred.add(Document(doc.doc_id, doc.text, metadata=doc.metadata))
    return pred


@pytest.fixture(scope="module")
def small_world(shac):
    gold = generate_gold(GeneratorConfig(seed=100, notes=20, density=None), shac)
    degraded, _ = perturb(
        gold,
        GeneratorConfig(seed=100, notes=20, event_drop=0.3, subtype_flip=0.3, event_insert=0.2),
        shac,
    )
    return gold, degraded


def test_identical_systems_give_p_one(shac, small_world):
    gold, degraded = small_world
    result = paired_bootstrap(
        gold, degraded, degraded, shac, BootstrapConfig(repetitions=200, seed=1)
    )
    assert result.observed_delta == 0.0
    assert result.p_value == 1.0
    assert not result.significant
    assert result.verdict() == "not statistically different"


def test_more_repetitions_keep_identical_p_at_one(shac, small_world):
    gold, degraded = small_world
    for reps in (10, 100, 1000):
        result = paired_bootstrap(
            gold, degraded, degraded, shac, BootstrapConfig(repetitions=reps, seed=1)
        )
        assert result.p_value == 1.0


def test_perfect_vs_empty_gives_minimal_p(shac):
    # every note has at least one gold slot, so every resample scores
    # A at F1=1 and B at F1=0: the p-value is exactly 2/(reps+1)
    gold = generate_gold(
        GeneratorConfig(seed=7, notes=20, density={t: {1: 0.6, 2: 0.4} for t in ("Drug",)}),
        shac,
    )
    assert all(doc.events for doc in gold)
    reps = 999
    result = paired_bootstrap(
        gold, gold, _empty_like(gold), shac, BootstrapConfig(repetitions=reps, seed=5)
    )
    assert result.f1_a == 1.0
    assert result.f1_b == 0.0
    assert result.observed_delta == 1.0
    assert result.p_value == 2 / (reps + 1)
    assert result.significant


def _deltas_sha256(deltas):
    return hashlib.sha256(struct.pack(f"<{len(deltas)}d", *deltas)).hexdigest()


# Output of the per-repetition pure-Python resampler (sum the drawn notes'
# totals, then prf) on the golden corpus below, 500 repetitions, seed 42:
# every delta as little-endian doubles, hashed. Any change to a single bit
# of any delta changes the hash.
GOLDEN = {
    "f1_a": 0.7062600321027288,
    "f1_b": 0.725521669341894,
    "p_value": 0.6866267465069861,
    "first_deltas": (-0.09420102323174007, -0.05931458234016629),
    "deltas_sha256": "15a3cd415cfdd794521cda4d381246db40892e4a6cd4f224bc2c752786dd3d9b",
}


@pytest.fixture(scope="module")
def golden_world(shac):
    gold = generate_gold(GeneratorConfig(seed=100, notes=20, density=None), shac)
    rates = dict(event_drop=0.3, subtype_flip=0.3, event_insert=0.2)
    a, _ = perturb(gold, GeneratorConfig(seed=100, notes=20, **rates), shac)
    b, _ = perturb(gold, GeneratorConfig(seed=101, notes=20, **rates), shac)
    return gold, a, b


def _golden_run(shac, golden_world, reps=500):
    gold, a, b = golden_world
    return paired_bootstrap(
        gold, a, b, shac, BootstrapConfig(repetitions=reps, seed=42), keep_deltas=True
    )


def test_golden_pin(shac, golden_world):
    result = _golden_run(shac, golden_world)
    assert result.f1_a == GOLDEN["f1_a"]
    assert result.f1_b == GOLDEN["f1_b"]
    assert result.p_value == GOLDEN["p_value"]
    assert result.deltas[:2] == GOLDEN["first_deltas"]
    assert _deltas_sha256(result.deltas) == GOLDEN["deltas_sha256"]
    # a tie counts on both sides of the estimator
    assert 0.0 in result.deltas


def test_determinism_against_golden_pin(shac, golden_world):
    first = _golden_run(shac, golden_world)
    again = _golden_run(shac, golden_world)
    assert first == again
    assert _deltas_sha256(again.deltas) == GOLDEN["deltas_sha256"]
    # repetition i depends on (seed, i) only: a shorter run is a prefix
    assert _golden_run(shac, golden_world, reps=120).deltas == first.deltas[:120]


@pytest.mark.parametrize("seed", [11, 2**64 + 5])  # the second fills key word 1
def test_resampler_equals_per_rep_loop(shac, seed):
    # The per-repetition loop the resampler replaced, kept as the reference:
    # sum the drawn notes' totals, then prf on Python ints. Two of three
    # notes are empty and system B predicts nothing, so resamples with no
    # slot at all (every quotient 0/0) and with no prediction are common.
    gold = generate_gold(GeneratorConfig(seed=3, notes=3, density={"Drug": {1: 1.0}}), shac)
    gold = _corpus_of(gold[d] if i == 0 else Document(d, gold[d].text)
                      for i, d in enumerate(gold.doc_ids()))
    pred_a, _ = perturb(gold, GeneratorConfig(seed=3, notes=3, event_insert=0.5), shac)
    pred_b = _empty_like(gold)
    reps = 300
    result = paired_bootstrap(
        gold, pred_a, pred_b, shac, BootstrapConfig(repetitions=reps, seed=seed), keep_deltas=True
    )
    totals_a = _note_totals(gold, (pred_a,), shac)
    totals_b = _note_totals(gold, (pred_b,), shac)
    expected = []
    for rep in range(reps):
        idx = _stream(seed, rep).integers(0, len(gold), size=len(gold))
        f1_a = prf(*(int(x) for x in totals_a[idx].sum(axis=0)))[2]
        f1_b = prf(*(int(x) for x in totals_b[idx].sum(axis=0)))[2]
        expected.append(f1_a - f1_b)
    assert result.deltas == tuple(expected)
    assert 0.0 in result.deltas and any(d > 0.0 for d in result.deltas)


def test_note_totals_builds_each_notes_slots_once(shac, small_world, monkeypatch):
    # Gold's slots are built once per note, at the first prediction, and
    # each prediction's once per note, however many predictions there are.
    gold, degraded = small_world
    other, _ = perturb(gold, GeneratorConfig(seed=101, notes=20, span_edit=0.3), shac)
    preds = (degraded, other, _empty_like(gold))
    corpora = {"gold": gold, "a": preds[0], "b": preds[1], "c": preds[2]}
    builds = []
    note_slots = scoring._note_slots

    def counting(doc, schema):
        which = next(k for k, c in corpora.items() if c.documents[doc.doc_id] is doc)
        builds.append((doc.doc_id, which))
        return note_slots(doc, schema)

    monkeypatch.setattr(scoring, "_note_slots", counting)
    totals = _note_totals(gold, preds, shac)
    monkeypatch.undo()
    assert builds == [
        (doc_id, which) for doc_id in gold.doc_ids() for which in ("a", "gold", "b", "c")
    ]
    assert np.array_equal(
        totals, np.hstack([_note_totals(gold, (pred,), shac) for pred in preds])
    )


def _reference_sums(totals, seed, reps):
    """The per-repetition loop: ``Generator.integers`` on repetition rep's
    documented stream, then the drawn notes' counts times ``totals``."""
    n = len(totals)
    rows = [
        np.bincount(_stream(seed, rep).integers(0, n, size=n), minlength=n) @ totals
        for rep in range(reps)
    ]
    return np.asarray(rows, dtype=np.int64).reshape(reps, totals.shape[1])


def _totals(n):
    return np.random.default_rng(n).integers(0, 50, size=(n, 6))


@pytest.fixture
def mapped_blocks(monkeypatch):
    """Every block the raw path maps, as (indices, rejected repetitions),
    the guard's block for repetition 0 first."""
    seen = []
    lemire = significance._lemire_indices

    def recording(raw, n):
        idx, rejected = lemire(raw, n)
        seen.append((idx.copy(), rejected.any(axis=1)))
        return idx, rejected

    monkeypatch.setattr(significance, "_lemire_indices", recording)
    return seen


@pytest.mark.parametrize("seed", [0, 11, 2**64 + 5, 2**128 - 1])
@pytest.mark.parametrize("n, reps", [
    (1, 20),        # numpy makes no draw
    (7, 300),       # odd: half of each repetition's last raw word goes unused
    (1000, 40),     # blocks of 16 repetitions: two whole blocks, then 8
])
def test_resample_sums_equal_per_rep_loop(mapped_blocks, seed, n, reps):
    block = significance._BLOCK_DRAWS // n
    if n == 1000:
        assert reps > 2 * block and reps % block
    totals = _totals(n)
    sums = _resample_sums(totals, seed, reps)
    assert sums.dtype == np.int64
    assert np.array_equal(sums, _reference_sums(totals, seed, reps))
    # the guard passed: every block took the raw path
    assert len(mapped_blocks) == 1 + -(-reps // block)


def test_rejected_draws_take_the_integers_path(mapped_blocks):
    # At n = 100,000 numpy rejects 3 or 4 draws in each of repetitions 1-3 at
    # seed 3. The raw path's indices are wrong after a rejection, so equal
    # sums show that those repetitions were drawn again.
    n, reps, seed = 100_000, 4, 3
    totals = _totals(n)
    sums = _resample_sums(totals, seed, reps)
    expected = _reference_sums(totals, seed, reps)
    assert np.array_equal(sums, expected)

    # the guard's block, then one block per repetition
    assert len(mapped_blocks) == 1 + reps
    assert [bool(rejected[0]) for _, rejected in mapped_blocks[1:]] == [False, True, True, True]
    for rep in (1, 2, 3):
        raw_path = np.bincount(mapped_blocks[1 + rep][0][0], minlength=n) @ totals
        assert not np.array_equal(raw_path, expected[rep])


def test_guard_falls_back_when_the_raw_mapping_is_wrong(shac, golden_world, monkeypatch):
    calls = []

    def shifted(raw, n):
        calls.append(n)
        idx, rejected = lemire(raw, n)
        return (idx + 1) % n, rejected

    lemire = significance._lemire_indices
    monkeypatch.setattr(significance, "_lemire_indices", shifted)
    result = _golden_run(shac, golden_world)
    # only the guard's call: every repetition then takes numpy's own path
    assert calls == [len(golden_world[0])]
    assert _deltas_sha256(result.deltas) == GOLDEN["deltas_sha256"]


@pytest.mark.parametrize("n, peak, product_dtype", [
    (7, (2**53 - 1) // 7, np.float64),  # n * peak just under 2**53: exact in float64
    (8, 2**53 // 8, np.int64),          # n * peak == 2**53: int64
    (7, 2**53 // 7 + 1000, np.int64),   # above, where float64 would round odd sums
    (7, 0, np.float64),                 # all-zero totals
])
def test_resample_sums_are_exact_at_the_float_bound(n, peak, product_dtype):
    reps = 60
    totals = np.maximum(peak - np.random.default_rng(n).integers(0, 4, size=(n, 6)), 0)
    totals[0, 0] = peak
    assert n * int(totals.max()) < 2**53 or product_dtype is np.int64
    product = significance._count_product(totals, n)
    assert product(np.ones(n, dtype=np.int64)).dtype == product_dtype
    sums = _resample_sums(totals, 5, reps)
    expected = _reference_sums(totals, 5, reps)
    assert sums.dtype == np.int64
    assert np.array_equal(sums, expected)
    if peak > 2**53 // n:
        # sums that float64 cannot hold: an odd integer above 2**53
        assert ((expected > 2**53) & (expected % 2 == 1)).any()


def test_resample_sums_peak_allocation_is_bounded():
    # The kernel's own allocations peak at the sums plus at most 1 MB for
    # shac-compare's shape, so the block size cannot creep up unseen.
    totals = _totals(1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sums = _resample_sums(totals, 1, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= sums.nbytes + 2**20


def test_seed_changes_deltas(shac, small_world):
    gold, degraded = small_world
    a = paired_bootstrap(
        gold, gold, degraded, shac, BootstrapConfig(repetitions=100, seed=1), keep_deltas=True
    )
    b = paired_bootstrap(
        gold, gold, degraded, shac, BootstrapConfig(repetitions=100, seed=2), keep_deltas=True
    )
    assert a.deltas != b.deltas
    # observed statistics do not depend on the seed
    assert a.f1_a == b.f1_a and a.f1_b == b.f1_b


def test_resample_equals_direct_scoring_on_note_multiset(shac, small_world):
    # bootstrap F1 from cached per-note tallies must equal score_corpus run
    # on the resampled note multiset, for both systems
    gold, degraded = small_world
    seed, rep = 13, 3
    result = paired_bootstrap(
        gold, gold, degraded, shac, BootstrapConfig(repetitions=rep + 1, seed=seed),
        keep_deltas=True,
    )
    doc_ids = gold.doc_ids()
    idx = _stream(seed, rep).integers(0, len(doc_ids), size=len(doc_ids))

    def multiset(corpus):
        out = Corpus()
        for copy, i in enumerate(idx):
            doc = corpus.documents.get(doc_ids[i])
            if doc is None:
                doc = Document(doc_ids[i], gold[doc_ids[i]].text)
            out.add(dataclasses.replace(doc, doc_id=f"{doc.doc_id}~{copy}"))
        return out

    _, report_a = score_corpus(multiset(gold), multiset(gold), shac)
    _, report_b = score_corpus(multiset(gold), multiset(degraded), shac)
    assert result.deltas[rep] == report_a.overall.f1 - report_b.overall.f1


def test_empty_gold_rejected(shac):
    with pytest.raises(ValueError, match="empty"):
        paired_bootstrap(Corpus(), Corpus(), Corpus(), shac, BootstrapConfig(repetitions=5))


def test_config_invariants(shac, small_world):
    with pytest.raises(ValueError):
        BootstrapConfig(repetitions=0)
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=0.0)
    with pytest.raises(ValueError, match="seed"):
        BootstrapConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        BootstrapConfig(seed=2**128)
    assert BootstrapConfig(seed=2**128 - 1).seed == 2**128 - 1
    # A non-integer would otherwise run with another seed (numpy keys Philox
    # with 1 for 1.5) or fail only after both systems are scored.
    with pytest.raises(TypeError, match="seed"):
        BootstrapConfig(seed=1.5, repetitions=2)
    with pytest.raises(TypeError, match="repetitions"):
        BootstrapConfig(repetitions=2.5)
    # An integer of another type runs as the int it stands for.
    gold, degraded = small_world
    results = [
        paired_bootstrap(
            gold, gold, degraded, shac, BootstrapConfig(repetitions=50, seed=seed),
            keep_deltas=True,
        )
        for seed in (np.int64(3), 3)
    ]
    assert type(results[0].seed) is int and results[0].seed == 3
    assert struct.pack("<50d", *results[0].deltas) == struct.pack("<50d", *results[1].deltas)


def test_notes_without_gold_slots_are_legal_resamples(shac):
    # one note has no events at all; bootstrap still runs and p stays valid
    gold = generate_gold(
        GeneratorConfig(seed=3, notes=6, density={"Drug": {0: 0.5, 1: 0.5}}), shac
    )
    assert any(not doc.events for doc in gold)
    result = paired_bootstrap(
        gold, gold, _empty_like(gold), shac, BootstrapConfig(repetitions=200, seed=9)
    )
    assert 0.0 < result.p_value <= 1.0


def test_error_precedence_follows_system_order(shac, small_world, caplog):
    # Each system is checked in input order, first for notes with no gold
    # counterpart, then note by note in doc_id order for a text unlike
    # gold's, and before any note is scored: A's text mismatch wins over B's
    # extra note, and over B's mismatch on an earlier note.
    gold, _ = small_world
    first, last = gold.doc_ids()[0], gold.doc_ids()[-1]

    def changed(doc_id):
        pred = _empty_like(gold)
        pred.documents[doc_id] = Document(doc_id, gold[doc_id].text + "x")
        return pred

    with_extra = _empty_like(gold)
    with_extra.add(Document("zz-extra", "text"))
    cfg = BootstrapConfig(repetitions=5)
    for pred_b in (with_extra, changed(first)):
        with pytest.raises(ScoringError, match=f"^{last}: predicted note text differs"):
            paired_bootstrap(gold, changed(last), pred_b, shac, cfg)
    # within one system, an extra note wins over a text mismatch
    with_both = changed(first)
    with_both.add(Document("zz-extra", "text"))
    with pytest.raises(ScoringError, match="no gold counterpart"):
        paired_bootstrap(gold, with_both, _empty_like(gold), shac, cfg)
    # no note is scored before the error: A's first note would warn
    noisy = changed(last)
    event = next(iter(gold[first].events.values()))
    weird = dataclasses.replace(event, arguments=event.arguments + (("Weird", event.trigger),))
    noisy.documents[first] = dataclasses.replace(gold[first], events={event.id: weird})
    caplog.clear()
    with pytest.raises(ScoringError, match=f"^{last}: "):
        paired_bootstrap(gold, noisy, _empty_like(gold), shac, cfg)
    assert not [r for r in caplog.records if r.name == "slotscore.scoring"]
    score_corpus(Corpus({first: gold[first]}), Corpus({first: noisy[first]}), shac)
    assert [r.getMessage() for r in caplog.records if r.name == "slotscore.scoring"] == [
        f"{first}: role Weird on {event.id} is not declared for {event.event_type}; "
        "skipping in scoring"
    ]
