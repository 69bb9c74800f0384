"""Build one workload's corpora and the oracle its outputs are checked against.

Runs in its own process, before the measuring process starts, so corpus
generation, serialization and every oracle computation stay outside all
metrics and outside the measured process's peak memory.

    python3 slotbench/gen.py --workload shac-score --seed 1 --out DIR [--bootstrap]

writes ``DIR/gold``, ``DIR/a`` (and ``DIR/b`` for a compare workload) as BRAT
corpora plus ``DIR/oracle.json``. The oracle comes from ``testkit``'s edit
log, never from a scoring call, and the bootstrap reference below is this
benchmark's own resampler.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

from checks import prf

# Every workload uses the same perturbation rates for system A; system B of
# the compare workload is perturbed at RATES_B with another seed, so the two
# systems differ and the verdict is "statistically different".
RATES_A = 0.2
RATES_B = 0.1
SEED_B_OFFSET = 2**32

BOOTSTRAP_SEED = 0  # the CLI default
BOOTSTRAP_REPS = 10_000
BOOTSTRAP_ALPHA = 0.05

WORKLOADS = {
    # SHAC scale at the generator's default density (about 5 events per
    # note); the cost of scoring is a constant amount per event.
    "shac-score": {"notes": 4500, "events_per_type": None, "command": "score"},
    # The same number of events packed into 1/20 of the notes: per-note
    # pairwise work (alignment scan, attribute scan) grows with density.
    "dense-notes": {"notes": 220, "events_per_type": 20, "command": "score"},
    # Test-split scale; the only workload whose command is `compare`.
    "shac-compare": {"notes": 1000, "events_per_type": None, "command": "compare"},
}


def _rates(rate: float) -> dict:
    return {
        "trigger_shift": rate,
        "span_edit": rate,
        "subtype_flip": rate,
        "event_drop": rate,
        "event_insert": rate,
    }


def reference_bootstrap(totals_a, totals_b, seed: int, reps: int) -> dict:
    """The paired bootstrap recomputed from per-note oracle totals.

    Repetition ``rep`` draws its note indices from the Philox stream keyed by
    ``seed`` and advanced by ``rep << 64``, as ``slotscore.significance``
    documents; the sums are taken as note weights times totals, a different
    route to the same integers.
    """
    import numpy as np

    a = np.asarray(totals_a, dtype=np.int64).reshape(-1, 3)
    b = np.asarray(totals_b, dtype=np.int64).reshape(-1, 3)
    n = len(a)
    f1_a = prf(*(int(x) for x in a.sum(axis=0)))[2]
    f1_b = prf(*(int(x) for x in b.sum(axis=0)))[2]
    deltas = []
    for rep in range(reps):
        rng = np.random.Generator(np.random.Philox(key=seed).advance(rep << 64))
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
        sum_a = [int(x) for x in weights @ a]
        sum_b = [int(x) for x in weights @ b]
        deltas.append(prf(*sum_a)[2] - prf(*sum_b)[2])
    at_most = sum(1 for d in deltas if d <= 0.0)
    at_least = sum(1 for d in deltas if d >= 0.0)
    p_value = min(1.0, 2 * min(at_most + 1, at_least + 1) / (reps + 1))
    return {
        "seed": seed,
        "repetitions": reps,
        "alpha": BOOTSTRAP_ALPHA,
        "f1_a": f1_a,
        "f1_b": f1_b,
        "p_value": p_value,
        "deltas": deltas,
    }


def corpus_digest(out: Path, names: list[str]) -> tuple[str, int]:
    """sha256 over every written file (relative path and bytes), and the
    total size of the .ann files."""
    digest = hashlib.sha256()
    ann_bytes = 0
    for name in names:
        for path in sorted((out / name).iterdir()):
            data = path.read_bytes()
            digest.update(f"{name}/{path.name}\0{len(data)}\0".encode())
            digest.update(data)
            if path.suffix == ".ann":
                ann_bytes += len(data)
    return digest.hexdigest(), ann_bytes


def build(workload: str, seed: int, out: Path, scale: float = 1.0, bootstrap: bool = False) -> dict:
    """Generate, perturb and write the workload's corpora; return the oracle."""
    from slotscore import Corpus, shac_schema, write_corpus
    from slotscore.testkit import GeneratorConfig, expected_counts, generate_gold, perturb

    spec = WORKLOADS[workload]
    schema = shac_schema()
    density = None
    if spec["events_per_type"] is not None:
        density = {t: {spec["events_per_type"]: 1.0} for t in schema.event_types()}
    notes = max(2, round(spec["notes"] * scale))
    cfg = GeneratorConfig(seed=seed, notes=notes, density=density)
    gold = generate_gold(cfg, schema)
    systems = {"a": perturb(gold, dataclasses.replace(cfg, **_rates(RATES_A)), schema)}
    if spec["command"] == "compare":
        cfg_b = dataclasses.replace(cfg, seed=seed + SEED_B_OFFSET, **_rates(RATES_B))
        systems["b"] = perturb(gold, cfg_b, schema)

    out.mkdir(parents=True, exist_ok=True)
    write_corpus(gold, out / "gold")
    for name, (pred, _) in systems.items():
        write_corpus(pred, out / name)
    names = ["gold", *systems]
    sha, ann_bytes = corpus_digest(out, names)

    def rows(counts) -> list:
        return [
            [k.kind, k.event_type, k.argument_type, k.subtype, c.tp, c.fn, c.fp]
            for k, c in counts.items()
        ]

    def per_note_totals(edits) -> list:
        by_doc: dict[str, list] = {}
        for edit in edits:
            by_doc.setdefault(edit.doc_id, []).append(edit)
        totals = []
        for doc_id in gold.doc_ids():
            one = Corpus()
            one.add(gold[doc_id])
            t = expected_counts(one, by_doc.get(doc_id, []), schema).total()
            totals.append([t.tp, t.fn, t.fp])
        return totals

    gold_events = sum(len(doc.events) for doc in gold)
    by_type: dict[str, int] = {}
    for doc in gold:
        for event in doc.events.values():
            by_type[event.event_type] = by_type.get(event.event_type, 0) + 1

    oracle = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "command": spec["command"],
        "corpora": names,
        "inputs": {
            "notes": len(gold),
            "gold_events": gold_events,
            "pred_events": {n: sum(len(d.events) for d in p) for n, (p, _) in systems.items()},
            "events_per_note": gold_events / len(gold),
            "ann_bytes": ann_bytes,
            "corpus_sha256": sha,
        },
        "gold_events_by_type": dict(sorted(by_type.items())),
        # Drops are the only edits that unmatch a gold event; inserted events
        # sit on words no gold span covers.
        "matched_pairs": gold_events - sum(e.op == "drop" for e in systems["a"][1]),
        "expected": {
            name: rows(expected_counts(gold, edits, schema)) for name, (_, edits) in systems.items()
        },
        "bootstrap": None,
    }
    if spec["command"] == "compare" or bootstrap:
        # System B of a score workload is the gold corpus itself: a perfect system.
        totals_b = per_note_totals(systems["b"][1] if "b" in systems else [])
        oracle["bootstrap"] = reference_bootstrap(
            per_note_totals(systems["a"][1]), totals_b, BOOTSTRAP_SEED, BOOTSTRAP_REPS
        )
    (out / "oracle.json").write_text(json.dumps(oracle), encoding="utf-8")
    return oracle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--bootstrap", action="store_true",
                        help="also compute the bootstrap reference for a score workload")
    args = parser.parse_args()
    build(args.workload, args.seed, Path(args.out), args.scale, args.bootstrap)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
