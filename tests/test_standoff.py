import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotscore.standoff import (
    Corpus,
    Document,
    DocumentMetadata,
    Span,
    StandoffError,
    TextBound,
    annotation_sort_key,
    load_corpus,
    parse_document,
    parse_manifest,
    serialize_document,
    write_corpus,
)
from slotscore.testkit import GeneratorConfig, generate_gold


def test_span_invariants():
    with pytest.raises(ValueError):
        Span(())
    with pytest.raises(ValueError):
        Span(((5, 5),))
    with pytest.raises(ValueError):
        Span(((-1, 4),))
    with pytest.raises(ValueError):
        Span(((0, 5), (3, 8)))  # overlapping fragments
    s = Span(((0, 4), (6, 9)))
    assert s.start == 0 and s.end == 9


def test_span_overlap_and_extract():
    a = Span.single(10, 17)
    b = Span.single(10, 21)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(Span.single(17, 21))  # exclusive end: no shared char
    disc = Span(((0, 4), (8, 12)))
    assert disc.overlaps(Span.single(9, 10))
    assert not disc.overlaps(Span.single(4, 8))
    assert disc.extract("abcdefghijkl") == "abcd ijkl"


def test_parse_single_text_bound():
    text = "patient w cocaine use"
    doc = parse_document("T1\tDrug 10 17\tcocaine\n", text, "n1")
    tb = doc.text_bounds["T1"]
    assert tb.label == "Drug"
    assert tb.span == Span.single(10, 17)
    assert tb.covered_text == "cocaine"


def test_parse_discontinuous_fragments():
    # chars 4-10 spell "heroin", 15-21 spell "inject"
    text = "xxxxheroinxxxxxinject"
    doc = parse_document("T2\tType 4 10;15 21\theroin inject\n", text, "n1")
    tb = doc.text_bounds["T2"]
    assert tb.span.fragments == ((4, 10), (15, 21))
    assert tb.covered_text == "heroin inject"


def test_parse_event_and_role_suffix():
    text = "cocaine and more words here padding"
    ann = (
        "T1\tDrug 0 7\tcocaine\n"
        "T2\tType 12 16\tmore\n"
        "T3\tStatusTime 17 22\twords\n"
        "T4\tStatusTime 23 27\there\n"
        "E1\tDrug:T1 Status:T3 Type:T2 Status2:T4\n"
    )
    doc = parse_document(ann, text, "n1")
    ev = doc.events["E1"]
    assert ev.event_type == "Drug"
    assert ev.trigger == "T1"
    assert ev.arguments == (("Status", "T3"), ("Type", "T2"), ("Status", "T4"))


def test_parse_attributes():
    text = "cocaine now"
    ann = (
        "T1\tDrug 0 7\tcocaine\n"
        "T2\tStatusTime 8 11\tnow\n"
        "E1\tDrug:T1 Status:T2\n"
        "A1\tStatusTime T2 current\n"
        "A2\tNegated E1\n"
    )
    doc = parse_document(ann, text, "n1")
    assert doc.attributes["A1"].value == "current"
    assert doc.attributes["A2"].value is None
    assert doc.attribute_index()[("T2", "StatusTime")].value == "current"


def test_two_pass_resolution_is_order_insensitive():
    text = "cocaine now"
    lines = [
        "A1\tStatusTime T2 current",
        "E1\tDrug:T1 Status:T2",
        "T2\tStatusTime 8 11\tnow",
        "T1\tDrug 0 7\tcocaine",
    ]
    forward = parse_document("\n".join(lines), text, "n1")
    backward = parse_document("\n".join(reversed(lines)), text, "n1")
    assert forward == backward


@pytest.mark.parametrize(
    "ann",
    [
        "T1\tDrug 0 99\tcocaine\n",  # out of bounds
        "T1\tDrug zero 7\tcocaine\n",  # non-integer offsets
        "T1\tDrug 0 7\tcocaine\nT1\tDrug 0 7\tcocaine\n",  # duplicate id
        "E1\tDrug:T9\n",  # dangling trigger
        "T1\tDrug 0 7\tcocaine\nE1\tDrug:T1 Type:T9\n",  # dangling argument
        "Zebra\n",  # unrecognized line
    ],
)
def test_parse_errors_in_both_modes(ann):
    for strict in (False, True):
        with pytest.raises(StandoffError):
            parse_document(ann, "cocaine use", "n1", strict=strict)


def test_covered_text_mismatch_lenient_repairs_strict_rejects(caplog):
    text = "cocaine use"
    ann = "T1\tDrug 0 7\tcoke\n"
    with caplog.at_level("WARNING"):
        doc = parse_document(ann, text, "n1")
    assert doc.text_bounds["T1"].covered_text == "cocaine"
    assert "mismatch" in caplog.text
    with pytest.raises(StandoffError):
        parse_document(ann, text, "n1", strict=True)


def test_unsupported_kinds_skipped_leniently_rejected_strictly():
    text = "cocaine use"
    ann = "T1\tDrug 0 7\tcocaine\nR1\tPart Arg1:T1 Arg2:T1\n#1\tAnnotatorNotes T1\tcheck\n"
    doc = parse_document(ann, text, "n1")
    assert list(doc.text_bounds) == ["T1"]
    with pytest.raises(StandoffError):
        parse_document(ann, text, "n1", strict=True)


def test_triggerless_event_admitted_leniently():
    doc = parse_document("E1\tDrug:\n", "cocaine use", "n1")
    assert doc.events["E1"].trigger is None
    with pytest.raises(StandoffError):
        parse_document("E1\tDrug:\n", "cocaine use", "n1", strict=True)


def test_event_target_argument_rejected():
    ann = "T1\tDrug 0 7\tcocaine\nE1\tDrug:T1\nE2\tDrug:T1 Type:E1\n"
    with pytest.raises(StandoffError, match="targets an event"):
        parse_document(ann, "cocaine use", "n1")


def test_duplicate_attribute_name_on_target():
    text = "cocaine use"
    ann = "T1\tDrug 0 7\tcocaine\nA1\tStatusTime T1 current\nA2\tStatusTime T1 past\n"
    doc = parse_document(ann, text, "n1")
    assert list(doc.attributes) == ["A1"]  # first one wins leniently
    with pytest.raises(StandoffError):
        parse_document(ann, text, "n1", strict=True)


def test_serialize_empty_document():
    assert serialize_document(Document("n1", "some text")) == ""


def test_serialize_single_text_bound():
    doc = parse_document("T1\tDrug 0 7\tcocaine\n", "cocaine use", "n1")
    assert serialize_document(doc) == "T1\tDrug 0 7\tcocaine\n"


def test_serialize_numbers_repeated_roles():
    text = "cocaine one two xx"
    ann = "T1\tDrug 0 7\tcocaine\nT2\tType 8 11\tone\nT3\tType 12 15\ttwo\nE1\tDrug:T1 Type:T2 Type2:T3\n"
    doc = parse_document(ann, text, "n1")
    out = serialize_document(doc)
    assert "Type:T2 Type2:T3" in out


def test_serialize_flattens_newlines_in_covered_text():
    text = "coca\nine here"
    doc = parse_document("T1\tDrug 0 8\tcoca ine\n", text, "n1", strict=True)
    assert doc.text_bounds["T1"].covered_text == "coca\nine"
    rt = parse_document(serialize_document(doc), text, "n1", strict=True)
    assert rt == doc


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_generated_documents(shac, seed):
    corpus = generate_gold(GeneratorConfig(seed=seed, notes=2), shac)
    for doc in corpus:
        reparsed = parse_document(
            serialize_document(doc), doc.text, doc.doc_id, strict=True, metadata=doc.metadata
        )
        assert reparsed == doc


# Characters str.splitlines() treats as line ends, plus tab and CR.
_LINE_BREAKERS = "\r\n\t\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x85"])
def test_line_separator_in_covered_text_round_trips(sep):
    text = f"coca{sep}ine here"
    doc = parse_document(f"T1\tDrug 0 8\tcoca{sep}ine\n", text, "n1", strict=True)
    assert doc.text_bounds["T1"].covered_text == f"coca{sep}ine"
    assert parse_document(serialize_document(doc), text, "n1", strict=True) == doc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_round_trip_arbitrary_unicode_text(data):
    text = data.draw(
        st.text(st.one_of(st.sampled_from(_LINE_BREAKERS), st.characters()), min_size=1)
    )
    text_bounds = {}
    for i in range(1, data.draw(st.integers(1, 3)) + 1):
        bounds = sorted(data.draw(st.sets(st.integers(0, len(text)), min_size=2, max_size=5)))
        span = Span(tuple(zip(bounds[0::2], bounds[1::2])))
        text_bounds[f"T{i}"] = TextBound(f"T{i}", "Drug", span, span.extract(text))
    doc = Document("n1", text, text_bounds=text_bounds)
    assert parse_document(serialize_document(doc), text, "n1", strict=True) == doc


def test_strict_parse_implies_identical_lenient_parse(shac):
    corpus = generate_gold(GeneratorConfig(seed=5, notes=4), shac)
    for doc in corpus:
        ann = serialize_document(doc)
        strict = parse_document(ann, doc.text, doc.doc_id, strict=True, metadata=doc.metadata)
        lenient = parse_document(ann, doc.text, doc.doc_id, strict=False, metadata=doc.metadata)
        assert strict == lenient


def test_annotation_sort_key_orders_numerically():
    ids = ["T10", "T2", "T1", "E3", "E20"]
    assert sorted(ids, key=annotation_sort_key) == ["E3", "E20", "T1", "T2", "T10"]


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------

def _write_note(directory, doc_id, text, ann=None):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    if ann is not None:
        (directory / f"{doc_id}.ann").write_text(ann, encoding="utf-8")


def test_load_corpus_pairs(tmp_path):
    for i in range(3):
        _write_note(tmp_path, f"n{i}", "cocaine use", "T1\tDrug 0 7\tcocaine\n")
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 3
    assert corpus.doc_ids() == ["n0", "n1", "n2"]


def test_load_corpus_missing_ann_means_no_predictions(tmp_path):
    _write_note(tmp_path, "x", "cocaine use")
    corpus = load_corpus(tmp_path)
    assert corpus["x"].events == {}
    assert corpus["x"].text == "cocaine use"


def test_load_corpus_missing_txt_is_error(tmp_path):
    (tmp_path / "x.ann").write_text("", encoding="utf-8")
    with pytest.raises(StandoffError, match="without note text"):
        load_corpus(tmp_path)


def test_load_corpus_duplicate_doc_id(tmp_path):
    _write_note(tmp_path / "a", "x", "cocaine use", "")
    _write_note(tmp_path / "b", "x", "cocaine use", "")
    with pytest.raises(StandoffError, match="duplicate doc_id"):
        load_corpus(tmp_path)


def test_load_corpus_directory_name_metadata(tmp_path):
    _write_note(tmp_path / "uw" / "train", "n1", "cocaine use", "")
    _write_note(tmp_path / "mimic" / "dev", "n2", "cocaine use", "")
    corpus = load_corpus(tmp_path)
    assert corpus["n1"].metadata == DocumentMetadata(source="uw", split="train")
    assert corpus["n2"].metadata == DocumentMetadata(source="mimic", split="dev")


def test_load_corpus_manifest_prefix_rule(tmp_path):
    _write_note(tmp_path / "uw" / "train", "n1", "cocaine use", "")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("uw/train\tuw\ttrain\n", encoding="utf-8")
    corpus = load_corpus(tmp_path, manifest=manifest)
    assert corpus["n1"].metadata == DocumentMetadata(source="uw", split="train")


def test_parse_manifest_rejects_bad_rows():
    with pytest.raises(StandoffError):
        parse_manifest("just-one-field\n")
    with pytest.raises(StandoffError):
        parse_manifest("x\tnowhere\ttrain\n")


def test_write_then_load_round_trip(tmp_path, shac):
    # flat directory layout carries no metadata, so generate none
    cfg = GeneratorConfig(seed=11, notes=5, partitions=(("other", "unknown"),))
    corpus = generate_gold(cfg, shac)
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path, strict=True)
    assert loaded.doc_ids() == corpus.doc_ids()
    for doc_id in corpus.doc_ids():
        assert loaded[doc_id] == corpus[doc_id]


def test_crlf_note_keeps_offsets(tmp_path, caplog):
    # BRAT offsets count the CR of every CRLF; a correct annotation after
    # the first line break must load strictly and score its own span
    text = "Social history:\r\nPatient smokes daily.\r\n"
    start = text.index("smokes")
    ann = f"T1\tTobacco {start} {start + 6}\tsmokes\r\n"
    (tmp_path / "n1.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "n1.ann").write_bytes(ann.encode("utf-8"))

    strict = load_corpus(tmp_path, strict=True)["n1"]
    assert strict.text == text
    assert strict.text_bounds["T1"].covered_text == "smokes"
    with caplog.at_level("WARNING"):
        lenient = load_corpus(tmp_path)["n1"]
    assert lenient == strict
    assert caplog.text == ""

    out = tmp_path / "out"
    write_corpus(load_corpus(tmp_path, strict=True), out)
    assert (out / "n1.txt").read_bytes() == text.encode("utf-8")
    assert load_corpus(out, strict=True)["n1"] == strict


def test_corpus_rejects_duplicate_add():
    corpus = Corpus()
    corpus.add(Document("n1", "text"))
    with pytest.raises(StandoffError):
        corpus.add(Document("n1", "text"))
