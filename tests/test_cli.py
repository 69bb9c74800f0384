import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import slotscore
from slotscore.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from slotscore.schema import load_schema
from slotscore.standoff import (
    AttributeAnnotation,
    Corpus,
    Span,
    TextBound,
    load_corpus,
    write_corpus,
)
from slotscore.testkit import GeneratorConfig, generate_gold, perturb


@pytest.fixture()
def fixture_dirs(tmp_path, shac):
    cfg = GeneratorConfig(seed=12, notes=6, partitions=(("other", "unknown"),))
    gold = generate_gold(cfg, shac)
    degraded, _ = perturb(
        gold,
        GeneratorConfig(seed=12, notes=6, event_drop=0.3, subtype_flip=0.3,
                        partitions=(("other", "unknown"),)),
        shac,
    )
    gold_dir = tmp_path / "gold"
    pred_dir = tmp_path / "pred"
    write_corpus(gold, gold_dir)
    write_corpus(degraded, pred_dir)
    return gold_dir, pred_dir


def test_score_gold_against_itself(fixture_dirs, capsys):
    gold_dir, _ = fixture_dirs
    assert main(["score", str(gold_dir), str(gold_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "overall P=1.000000 R=1.000000 F1=1.000000" in out


def test_score_empty_pred_dir_zeroes_recall(fixture_dirs, tmp_path, capsys):
    gold_dir, _ = fixture_dirs
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["score", str(gold_dir), str(empty)]) == EXIT_OK
    out = capsys.readouterr().out
    header, *rows = [line for line in out.splitlines() if "\t" in line]
    recall_at = header.split("\t").index("recall")
    assert rows
    for row in rows:
        assert row.split("\t")[recall_at] == "0.000000"


def test_score_strict_reports_offending_file_and_line(fixture_dirs, tmp_path, capsys):
    gold_dir, _ = fixture_dirs
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "note0000.txt").write_text("cocaine", encoding="utf-8")
    (bad / "note0000.ann").write_text("T1\tDrug 0 7\twrong\n", encoding="utf-8")
    assert main(["score", str(gold_dir), str(bad), "--strict"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "note0000:1" in err


def test_score_output_file_is_stable(fixture_dirs, tmp_path, capsys):
    gold_dir, pred_dir = fixture_dirs
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    assert main(["score", str(gold_dir), str(pred_dir), "--output", str(out_a)]) == EXIT_OK
    assert main(["score", str(gold_dir), str(pred_dir), "--output", str(out_b)]) == EXIT_OK
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_score_json_format(fixture_dirs, capsys):
    gold_dir, pred_dir = fixture_dirs
    assert main(["score", str(gold_dir), str(pred_dir), "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    sections = {row["section"] for row in payload["rows"]}
    assert "overall" in sections and "phenomenon" in sections


def test_stamp_adds_header(fixture_dirs, capsys):
    gold_dir, pred_dir = fixture_dirs
    assert main(["score", str(gold_dir), str(pred_dir), "--stamp"]) == EXIT_OK
    assert "# generated=" in capsys.readouterr().out


def test_score_rejects_prediction_on_other_note_text(tmp_path, capsys):
    # gold has CRLF endings, the prediction LF: each file's offsets are
    # right for its own text, but the same offsets name other characters
    gold_text = "pt smokes\r\ndaily cocaine\r\n"
    ann = "T1\tDrug {0} {1}\tcocaine\nT2\tType {0} {1}\tcocaine\nE1\tDrug:T1 Type:T2\n"
    for name, text, offsets in (
        ("gold", gold_text, (17, 24)),
        ("pred", gold_text.replace("\r\n", "\n"), (16, 23)),
    ):
        (tmp_path / name).mkdir()
        (tmp_path / name / "n1.txt").write_text(text, encoding="utf-8", newline="")
        (tmp_path / name / "n1.ann").write_text(ann.format(*offsets), encoding="utf-8")
    code = main(["score", str(tmp_path / "gold"), str(tmp_path / "pred"), "--strict"])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert "n1: predicted note text differs from gold at code point 9" in captured.err
    assert "overall" not in captured.out


def test_compare_identical_systems(fixture_dirs, capsys):
    gold_dir, pred_dir = fixture_dirs
    code = main(["compare", str(gold_dir), str(pred_dir), str(pred_dir), "--reps", "200"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "p-value=1.000000" in out
    assert "not statistically different" in out


def test_compare_defaults_to_10000_repetitions(fixture_dirs, capsys):
    gold_dir, pred_dir = fixture_dirs
    assert main(["compare", str(gold_dir), str(gold_dir), str(pred_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "repetitions=10000" in out


def test_compare_seed_makes_reports_byte_identical(fixture_dirs, tmp_path, capsys):
    gold_dir, pred_dir = fixture_dirs
    reports = []
    for name in ("r1.tsv", "r2.tsv"):
        path = tmp_path / name
        code = main([
            "compare", str(gold_dir), str(gold_dir), str(pred_dir),
            "--reps", "300", "--seed", "77", "--output", str(path),
        ])
        assert code == EXIT_OK
        reports.append(path.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_compare_dump_deltas(fixture_dirs, tmp_path, capsys):
    gold_dir, pred_dir = fixture_dirs
    deltas = tmp_path / "deltas.txt"
    code = main([
        "compare", str(gold_dir), str(gold_dir), str(pred_dir),
        "--reps", "50", "--dump-deltas", str(deltas),
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    assert len(deltas.read_text().splitlines()) == 50


def test_compare_rejects_bad_seed_before_loading(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    for seed in ("-1", str(2**128)):
        assert main(["compare", missing, missing, missing, "--seed", seed]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "seed must be in [0, 2**128)" in err and "missing" not in err


def test_score_stats_and_validate_load_no_numpy(tmp_path):
    # numpy is imported only when a bootstrap or gen runs
    for name in ("gold", "pred"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "n1.txt").write_text("cocaine daily\n", encoding="utf-8")
        (tmp_path / name / "n1.ann").write_text(
            "T1\tDrug 0 7\tcocaine\nT2\tStatusTime 8 13\tdaily\n"
            "E1\tDrug:T1 Status:T2\nA1\tStatusTime T2 current\n",
            encoding="utf-8",
        )
    gold, pred = str(tmp_path / "gold"), str(tmp_path / "pred")
    code = (
        "import sys\n"
        "import slotscore, slotscore.cli, slotscore.reports\n"
        f"assert slotscore.cli.main(['score', {gold!r}, {pred!r}]) == 0\n"
        f"assert slotscore.cli.main(['stats', {gold!r}]) == 0\n"
        f"assert slotscore.cli.main(['validate', {gold!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(slotscore.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_validate_generator_output_is_clean(fixture_dirs, capsys):
    gold_dir, _ = fixture_dirs
    assert main(["validate", str(gold_dir)]) == EXIT_OK
    assert "0 violation(s)" in capsys.readouterr().out


def test_validate_triggerless_event(tmp_path, capsys):
    (tmp_path / "n1.txt").write_text("cocaine use", encoding="utf-8")
    (tmp_path / "n1.ann").write_text("E1\tDrug:\n", encoding="utf-8")
    assert main(["validate", str(tmp_path)]) == EXIT_DATA
    out = capsys.readouterr().out
    assert "exactly one trigger" in out


def test_stats_three_partition_fixture(tmp_path, shac, capsys):
    cfg = GeneratorConfig(
        seed=30,
        notes=9,
        partitions=(("mimic", "train"), ("uw", "dev"), ("uw", "test")),
        density={"Drug": {1: 1.0}},
    )
    corpus = generate_gold(cfg, shac)
    root = tmp_path / "corpus"
    for doc in corpus:
        sub = root / doc.metadata.source / doc.metadata.split
        sub.mkdir(parents=True, exist_ok=True)
        (sub / f"{doc.doc_id}.txt").write_text(doc.text, encoding="utf-8")
        from slotscore.standoff import serialize_document

        (sub / f"{doc.doc_id}.ann").write_text(serialize_document(doc), encoding="utf-8")
    assert main(["stats", str(root)]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "notes\tmimic\ttrain\t\t\t\t3\t" in out
    assert "notes\tuw\tdev\t\t\t\t3\t" in out
    assert "notes\tuw\ttest\t\t\t\t3\t" in out
    assert any(line.startswith("events\tDrug") or "events\t\t\tDrug" in line for line in lines)
    assert "notes=9" in out


def test_stats_manifest_bom_is_dropped(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "n1.txt").write_text("cocaine use", encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"\xef\xbb\xbfn1\tuw\ttrain\n")
    assert main(["stats", str(corpus), "--manifest", str(manifest)]) == EXIT_OK
    assert "notes\tuw\ttrain\t\t\t\t1\t" in capsys.readouterr().out


def test_stats_undecodable_manifest_is_named(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "n1.txt").write_text("cocaine use", encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"n1\tuw\ttr\xe9in\n")
    assert main(["stats", str(corpus), "--manifest", str(manifest)]) == EXIT_DATA
    assert f"cannot read {manifest}: 'utf-8' codec can't decode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        (b"n1\tuw\r", "manifest line 1: expected pattern, source, split"),
        (b"# rules\nn1\tuw\ttrian\n", "manifest line 2: source must be one of"),
    ],
)
def test_stats_manifest_syntax_error_is_named(tmp_path, capsys, rows, message):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "n1.txt").write_text("cocaine use", encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(rows)
    assert main(["stats", str(corpus), "--manifest", str(manifest)]) == EXIT_DATA
    assert f"error: {manifest}: {message}" in capsys.readouterr().err


def test_gen_emits_fixture_directory(tmp_path, capsys):
    config = tmp_path / "gen.yaml"
    config.write_text(
        "notes: 4\nseed: 2\nevent_drop: 0.5\nsubtype_flip: 0.5\n", encoding="utf-8"
    )
    out = tmp_path / "fixture"
    assert main(["gen", str(config), str(out)]) == EXIT_OK
    capsys.readouterr()
    gold = load_corpus(out / "gold", strict=True)
    pred = load_corpus(out / "pred", strict=True)
    assert len(gold) == 4 and len(pred) == 4
    edits = json.loads((out / "edits.json").read_text())
    assert isinstance(edits, list) and edits


def test_gen_seed_override(tmp_path, capsys):
    config = tmp_path / "gen.yaml"
    config.write_text("notes: 2\nseed: 2\n", encoding="utf-8")
    main(["gen", str(config), str(tmp_path / "a")])
    main(["gen", str(config), str(tmp_path / "b"), "--seed", "9"])
    capsys.readouterr()
    a = (tmp_path / "a" / "gold" / "note0000.ann").read_text()
    b = (tmp_path / "b" / "gold" / "note0000.ann").read_text()
    assert a != b


def test_gen_takes_no_report_options(tmp_path, capsys):
    config = tmp_path / "gen.yaml"
    config.write_text("notes: 2\nseed: 2\n", encoding="utf-8")
    out = tmp_path / "fixture"
    assert main(["gen", str(config), str(out), "--format", "json"]) == EXIT_USAGE
    for flag in (["--output", str(tmp_path / "report")], ["--strict"], ["--stamp"]):
        assert main(["gen", str(config), str(out), *flag]) == EXIT_USAGE
    capsys.readouterr()
    assert not out.exists()


def test_usage_errors_exit_one(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["score"]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_directory_is_data_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["validate", str(missing)]) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("suffix", ["txt", "ann"])
def test_undecodable_file_is_named(tmp_path, capsys, suffix):
    (tmp_path / "n1.txt").write_text("cocaine use", encoding="utf-8")
    (tmp_path / "n1.ann").write_text("T1\tDrug 0 7\tcocaine\n", encoding="utf-8")
    bad = tmp_path / f"n1.{suffix}"
    bad.write_bytes(b"caf\xe9 use")
    assert main(["validate", str(tmp_path)]) == EXIT_DATA
    assert f"cannot read {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_custom_schema_via_env(tmp_path, monkeypatch, capsys):
    schema_file = tmp_path / "tiny.yaml"
    schema_file.write_text(
        "events:\n  - type: Pet\n    arguments:\n"
        "      - {type: Species, role: Species, kind: span_only}\n",
        encoding="utf-8",
    )
    (tmp_path / "n1.txt").write_text("cat owner", encoding="utf-8")
    (tmp_path / "n1.ann").write_text(
        "T1\tPet 0 3\tcat\nT2\tSpecies 4 9\towner\nE1\tPet:T1 Species:T2\n", encoding="utf-8"
    )
    monkeypatch.setenv("SLOTSCORE_SCHEMA", str(schema_file))
    assert main(["validate", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()


def _planted_corpus(schema):
    """A generated corpus with three planted violations: a missing subtype
    (note0000: every attribute on the first event and its arguments
    removed), an unknown role (note0001: a Dose argument) and an unexpected
    attribute (note0002: a StatusTime attribute on a trigger)."""
    gold = generate_gold(GeneratorConfig(seed=21, notes=5), schema)
    out = Corpus()
    for doc in gold:
        first = next(iter(doc.events.values()))
        if doc.doc_id == "note0000":
            owned = {first.id, *(target for _, target in first.arguments)}
            doc = replace(doc, attributes={
                a_id: a for a_id, a in doc.attributes.items() if a.target not in owned
            })
        elif doc.doc_id == "note0001":
            dose = TextBound("T900", "Dose", Span.single(0, 3))
            event = replace(first, arguments=(*first.arguments, ("Dose", "T900")))
            doc = replace(
                doc,
                text_bounds={**doc.text_bounds, "T900": dose},
                events={**doc.events, first.id: event},
            )
        elif doc.doc_id == "note0002":
            stray = AttributeAnnotation("A900", "StatusTime", first.trigger, "current")
            doc = replace(doc, attributes={**doc.attributes, "A900": stray})
        out.add(doc)
    return out


# sha256 of the stats and validate TSV reports: (the generator's setting of
# attributes_on_events, the setting of the schema that reads the corpus,
# command). Across settings every subtype reads as missing and every
# attribute as unexpected.
REPORT_PINS = {
    (False, False, "stats"): "f91ed6d7c52cef90eea176efe0597c13c94016919af91e3e25d83254bb8bd42b",
    (False, False, "validate"): "06abff8ebd332b2e292625600d2632881606b74d62e92acd7abbecc6421d545c",
    (False, True, "stats"): "b88132ed75662bed6ce9ec294a3e6125bb99dd454df8da2b663744e9d7418bb0",
    (False, True, "validate"): "f1843f62334b32bfc25222182d36ff65233922578eb35569de587b23c44a821a",
    (True, False, "stats"): "b88132ed75662bed6ce9ec294a3e6125bb99dd454df8da2b663744e9d7418bb0",
    (True, False, "validate"): "92e20fb0b2f1a69916c3b97b1a4b02c98baf00ff4d4cd649166b670235986383",
    (True, True, "stats"): "f91ed6d7c52cef90eea176efe0597c13c94016919af91e3e25d83254bb8bd42b",
    (True, True, "validate"): "06abff8ebd332b2e292625600d2632881606b74d62e92acd7abbecc6421d545c",
}


@pytest.mark.parametrize("written_on_events", [False, True])
def test_stats_and_validate_reports_are_pinned(tmp_path, capsys, written_on_events):
    shac_text = resources.files("slotscore").joinpath("configs/shac.yaml").read_text(
        encoding="utf-8"
    )
    schemas = {}
    for on_events in (False, True):
        schemas[on_events] = tmp_path / f"schema-{on_events}.yaml"
        schemas[on_events].write_text(shac_text.replace(
            "attributes_on_events: false", f"attributes_on_events: {str(on_events).lower()}"
        ), encoding="utf-8")
    schema = load_schema(schemas[written_on_events].read_text(encoding="utf-8"))
    assert schema.attributes_on_events is written_on_events
    write_corpus(_planted_corpus(schema), tmp_path / "corpus")
    digests = {}
    for read_on_events, schema_file in schemas.items():
        for command, code in (("stats", EXIT_OK), ("validate", EXIT_DATA)):
            report = tmp_path / f"{command}.tsv"
            args = [command, str(tmp_path / "corpus"), "--schema", str(schema_file)]
            assert main([*args, "--output", str(report)]) == code
            digest = hashlib.sha256(report.read_bytes()).hexdigest()
            digests[(written_on_events, read_on_events, command)] = digest
    capsys.readouterr()
    assert digests == {k: v for k, v in REPORT_PINS.items() if k[0] == written_on_events}


def test_validate_malformed_schema_is_data_error(tmp_path, capsys):
    schema_file = tmp_path / "bad.yaml"
    schema_file.write_text("events:\n  - type: Pet\n    arguments:\n      - 5\n", encoding="utf-8")
    (tmp_path / "corpus").mkdir()
    assert main(["validate", str(tmp_path / "corpus"), "--schema", str(schema_file)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "slotscore: error: 'arguments' entry in event Pet must be a mapping, got 5\n"


def test_stats_duplicate_doc_id_names_both_files(tmp_path, capsys):
    root = tmp_path / "corpus"
    for source in ("mimic", "uw"):
        (root / source).mkdir(parents=True)
        (root / source / "n1.txt").write_text("cocaine use", encoding="utf-8")
    assert main(["stats", str(root)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"slotscore: error: {root}: duplicate doc_id 'n1': mimic/n1.txt and uw/n1.txt\n"
