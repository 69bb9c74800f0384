import gc
import hashlib
import logging
import pickle
import random
import re
import sys
from copy import deepcopy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotscore import standoff
from slotscore.standoff import (
    AttributeAnnotation,
    Corpus,
    Document,
    DocumentMetadata,
    EventAnnotation,
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


def test_span_offsets_must_be_integers():
    # A float or string offset is refused, not truncated or parsed into
    # another span; bool and numpy integers are integers.
    for fragment in ((0.5, 3.7), (0.0, 3.0), (1, 4.0), ("1", "4")):
        with pytest.raises(TypeError):
            Span((fragment,))
    for span, fragments in (
        (Span(((np.int64(1), np.int32(4)),)), ((1, 4),)),
        (Span(((False, True),)), ((0, 1),)),
    ):
        assert span.fragments == fragments
        assert {type(offset) for offset in span.fragments[0]} == {int}


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
    assert tb.span.extract(text) == "cocaine"


def test_parse_discontinuous_fragments():
    # chars 4-10 spell "heroin", 15-21 spell "inject"
    text = "xxxxheroinxxxxxinject"
    doc = parse_document("T2\tType 4 10;15 21\theroin inject\n", text, "n1")
    tb = doc.text_bounds["T2"]
    assert tb.span.fragments == ((4, 10), (15, 21))
    assert tb.span.extract(text) == "heroin inject"


def test_parse_event_and_role_suffix():
    text = "cocaine and more words here padding"
    ann = (
        "T1\tDrug 0 7\tcocaine\n"
        "T2\tType 12 16\tmore\n"
        "T3\tStatusTime 17 22\twords\n"
        "T4\tStatusTime 23 27\there\n"
        "T5\tType 28 35\tpadding\n"
        "E1\tDrug:T1 Status:T3 Type:T2 Status2:T4 Type٣:T5\n"
    )
    doc = parse_document(ann, text, "n1")
    ev = doc.events["E1"]
    assert ev.event_type == "Drug"
    assert ev.trigger == "T1"
    assert ev.arguments == (
        ("Status", "T3"), ("Type", "T2"), ("Status", "T4"), ("Type", "T5")
    )


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
    assert doc.text_bounds["T1"].span.extract(doc.text) == "cocaine"
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
    assert doc.text_bounds["T1"].span.extract(doc.text) == "coca\nine"
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
    assert doc.text_bounds["T1"].span.extract(doc.text) == f"coca{sep}ine"
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
        text_bounds[f"T{i}"] = TextBound(f"T{i}", "Drug", span)
    doc = Document("n1", text, text_bounds=text_bounds)
    assert parse_document(serialize_document(doc), text, "n1", strict=True) == doc


def test_strict_parse_implies_identical_lenient_parse(shac):
    corpus = generate_gold(GeneratorConfig(seed=5, notes=4), shac)
    for doc in corpus:
        ann = serialize_document(doc)
        strict = parse_document(ann, doc.text, doc.doc_id, strict=True, metadata=doc.metadata)
        lenient = parse_document(ann, doc.text, doc.doc_id, strict=False, metadata=doc.metadata)
        assert strict == lenient


# ---------------------------------------------------------------------------
# One T line against the public Span and the documented rules
# ---------------------------------------------------------------------------

def _t_line_by_the_rules(offsets, stated, text, strict, ann_id="T1", label="Drug", sep=" "):
    """What the line ``<ann_id><TAB><label><sep><offsets><TAB><stated>`` must
    give, worked out with the public ``Span`` alone: ``("error", message,
    line_no)`` or ``("ok", text_bound, warnings)``."""
    # An .ann line loses one trailing CR. Its id runs to the first tab, its
    # header to the second, and the rest of it is the stated text.
    line = f"{ann_id}\t{label}{sep}{offsets}\t{stated}"
    ann_id, header, stated = (line[:-1] if line.endswith("\r") else line).split("\t", 2)

    def error(message):
        return ("error", f"n1:1: {message}", 1)

    # The label ends at the header's first ASCII space; no other whitespace
    # ends it, and the offsets are all that follows that space.
    if " " not in header:
        return error(f"malformed text-bound header {header!r}")
    cut = header.index(" ")
    label, offsets = header[:cut], header[cut + 1:]
    fragments = []
    for part in offsets.split(";"):
        pieces = part.split()
        if len(pieces) != 2:
            return error(f"malformed span offsets {offsets!r}")
        try:
            fragments.append((int(pieces[0]), int(pieces[1])))
        except ValueError:
            return error(f"non-integer span offsets {offsets!r}")
    try:
        span = Span(tuple(sorted(fragments)))
    except ValueError as exc:
        return error(f"invalid span {offsets!r}: {exc}")
    if span.end > len(text):
        return error(f"span {span.fragments} exceeds text length {len(text)}")
    covered = " ".join(text[s:e] for s, e in span.fragments)
    warnings = []
    flattened = covered.replace("\n", " ").replace("\r", " ").replace("\t", " ")
    # The covered text may also be stated as it is, unless it holds a CR.
    if stated != flattened and (stated != covered or "\r" in covered):
        message = f"covered text mismatch for {ann_id}: file says {stated!r}, text has {covered!r}"
        if strict:
            return error(message)
        warnings.append(f"n1:1: {message}")
    return ("ok", TextBound(ann_id, label, span), warnings)


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _parse_logged(ann, text, strict):
    """``("error", message, line_no)`` or ``("ok", document, warnings)``."""
    logger = logging.getLogger(standoff.__name__)
    handler, level = _Warnings(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        doc = parse_document(ann, text, "n1", strict=strict)
    except StandoffError as exc:
        return ("error", str(exc), exc.line_no)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return ("ok", doc, handler.messages)


def _parse_t_line(offsets, stated, text, strict, ann_id="T1", label="Drug", sep=" "):
    outcome = _parse_logged(f"{ann_id}\t{label}{sep}{offsets}\t{stated}\n", text, strict)
    if outcome[0] == "ok":
        return ("ok", outcome[1].text_bounds[ann_id], outcome[2])
    return outcome


_NOTE = "patient w cocaine use\r\tdaily"


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "offsets, stated, text",
    [
        ("10 17", "cocaine", _NOTE),
        ("10 17", "coke", _NOTE),
        ("0 7;10 17", "patient cocaine", _NOTE),
        ("10 17;0 7", "patient cocaine", _NOTE),  # fragments sorted
        ("0 7;5 9", "x", _NOTE),  # overlapping fragments
        ("+10 17", "cocaine", _NOTE),
        ("10 +17", "cocaine", _NOTE),
        ("١٠ 17", "cocaine", _NOTE),  # Arabic-Indic "10"
        ("10 ١٧", "cocaine", _NOTE),
        ("1_0 17", "cocaine", _NOTE),
        ("10 1⁷", "cocaine", _NOTE),
        ("010 0017", "cocaine", _NOTE),
        ("10 10", "", _NOTE),  # zero-length
        ("17 10", "cocaine", _NOTE),  # reversed
        ("-1 4", "pati", _NOTE),  # negative
        ("10 99", "cocaine", _NOTE),  # end out of bounds
        ("10 28", "cocaine use  daily", _NOTE),  # end at the text's end
        ("23 28", "daily", _NOTE),
        ("000000000000000010 000000000000000017", "cocaine", _NOTE),  # 18 digits
        ("0000000000000000010 0000000000000000017", "cocaine", _NOTE),  # 19 digits
        ("10 999999999999999999", "cocaine", _NOTE),
        ("10 1000000000000000000", "cocaine", _NOTE),
        ("10 29", "cocaine use  daily", _NOTE),
        ("10", "cocaine", _NOTE),
        ("10 17 20", "cocaine", _NOTE),
        ("ten 17", "cocaine", _NOTE),
        ("10 17;", "cocaine", _NOTE),
        ("18 22", "use ", _NOTE),  # CR in the covered text, flattened
        ("18 22", "use\r", _NOTE),  # the line's one trailing CR is stripped
        ("18 22", "use\r\r", _NOTE),
        ("18 23", "use\r\t", _NOTE),  # the tab is stated text, the raw CR never matches
        ("22 28", "\tdaily", _NOTE),  # a tab may be stated as itself
        ("10 17", "cocaine\tjunk", _NOTE),  # fields after a tab are stated text too
        ("18 23", "use  ", _NOTE),
        ("0 5", "ab\rcd", "ab\rcd"),  # a mid-line CR never matches the text
        ("0 5", "ab cd", "ab\rcd"),
        ("0 5", "ab cd", "ab\tcd"),
        ("0 5", "ab\tcd", "ab\tcd"),
        ("0 5", "ab cd", "ab\ncd"),
        # more digits than int() converts
        pytest.param("0 " + "9" * 5000, "x", _NOTE, id="huge-end"),
        pytest.param("9" * 5000 + " 1", "x", _NOTE, id="huge-start"),
    ],
)
def test_t_line_follows_the_rules(offsets, stated, text, strict):
    assert _parse_t_line(offsets, stated, text, strict) == _t_line_by_the_rules(
        offsets, stated, text, strict
    )


# Ids, labels, and what separates the label from the offsets: str.split()
# also splits on NBSP, U+001C and U+0085, but only an ASCII space ends a label.
_T_IDS = ("T1", "T", "T1x", "T1 x")
_T_LABELS = ("Drug", "", "Dr\xa0ug", "Dr\x1cug")
_T_SEPARATORS = (" ", "  ", "\xa0", "\x1c", "\x85")


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "ann_id, label, sep",
    [(ann_id, "Drug", " ") for ann_id in _T_IDS[1:]]
    + [("T1", label, " ") for label in _T_LABELS[1:]]
    + [("T1", "Drug", sep) for sep in _T_SEPARATORS[1:]]
    + [("T1", "Dr\xa0ug", "\xa0"), ("T1", "", "\x85")],
)
@pytest.mark.parametrize("offsets, stated", [("10 17", "cocaine"), ("10 17", "coke")])
def test_t_line_header_follows_the_rules(offsets, stated, ann_id, label, sep, strict):
    assert _parse_t_line(offsets, stated, _NOTE, strict, ann_id, label, sep) == (
        _t_line_by_the_rules(offsets, stated, _NOTE, strict, ann_id, label, sep)
    )


_DIGITS = {
    "ascii": "0123456789",
    "arabic": "٠١٢٣٤٥٦٧٨٩",
    "fullwidth": "０１２３４５６７８９",
    "superscript": "⁰¹²³⁴⁵⁶⁷⁸⁹",  # str.isdigit() holds, int() refuses
}


@st.composite
def _offset_token(draw, text_len):
    n = draw(st.integers(-3, text_len + 3))
    styles = ["plain", "plain", "plus", "zeros", "wide", "underscore", "digits", "word"]
    style = draw(st.sampled_from(styles))
    if style == "plus":
        return f"+{n}"
    if style == "zeros":
        return f"0{n}"
    if style == "wide":  # 18 or 19 characters, padded with zeros
        return str(n).zfill(draw(st.sampled_from([18, 19])))
    if style == "underscore":
        return f"{n // 10}_{n % 10}" if n >= 0 else f"-0_{-n}"
    if style == "digits":
        digits = _DIGITS[draw(st.sampled_from(sorted(_DIGITS)))]
        return str(n).translate(str.maketrans("0123456789", digits))
    if style == "word":
        return draw(st.sampled_from(["x", "", "1.5", "0x1"]))
    return str(n)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_t_line_matches_public_span_on_drawn_offsets(data):
    def pick(*options):
        return data.draw(st.sampled_from(options))

    text = data.draw(st.text(st.sampled_from("ab \t\r\né \U0001f600"), max_size=14))
    # Mostly one fragment of two tokens after one space, as BRAT writes them.
    header = (pick(*_T_IDS), pick(*_T_LABELS), pick(" ", " ", " ", *_T_SEPARATORS))
    fragments = []
    for _ in range(pick(1, 1, 2, 3)):
        tokens = [data.draw(_offset_token(len(text))) for _ in range(pick(2, 2, 1, 3))]
        fragments.append(pick(" ", " ", "  ", "\xa0").join(tokens))
    offsets = ";".join(fragments)
    strict = data.draw(st.booleans())
    expected = _t_line_by_the_rules(offsets, "", text, False, *header)
    covered = expected[1].span.extract(text) if expected[0] == "ok" else ""
    stated = data.draw(
        st.sampled_from([covered, covered.replace("\r", " ").replace("\t", " "), covered + "\r"])
        | st.text(st.sampled_from("ab \t\ré"), max_size=6)
    ).replace("\n", " ")
    assert _parse_t_line(offsets, stated, text, strict, *header) == _t_line_by_the_rules(
        offsets, stated, text, strict, *header
    )


# ---------------------------------------------------------------------------
# One E or A line against the documented rules
# ---------------------------------------------------------------------------

# The drawn line is line 5, after these. T1 and T2 are the only text-bounds,
# E9 the only other event, and A9 already sets Negated on T1.
_EA_NOTE = "cocaine now"
_EA_CONTEXT = "T1\tDrug 0 7\tcocaine\nT2\tStatusTime 8 11\tnow\nE9\tDrug:T1\nA9\tNegated T1\n"
_EA_LABELS = {"T1": "Drug", "T2": "StatusTime"}


class _Rejected(Exception):
    pass


def _event_by_the_rules(body, warn):
    """``E1<TAB>TYPE:TRIGGER ROLE:TARGET ...``: tokens are separated by any
    whitespace. The first token splits at its first colon, and a type is
    required; an empty trigger is a repairable fault (the event has no
    trigger). Every later token splits at its first colon, and trailing
    decimal digits of any script leave its role. One then without a colon,
    role or target is a repairable fault and is dropped. Once every line is
    read, the trigger must name a text-bound, preferably of the event's
    type, and every target must name a text-bound."""
    tokens = body.split()
    if not tokens:
        raise _Rejected("event line needs a trigger field")
    event_type, colon, trigger = tokens[0].partition(":")
    if not colon or not event_type:
        raise _Rejected(f"malformed event trigger {tokens[0]!r}")
    if not trigger:
        warn("event E1 has no trigger reference")
    arguments = []
    for token in tokens[1:]:
        role, colon, target = token.partition(":")
        while role and role[-1].isdecimal():
            role = role[:-1]
        if not (colon and role and target):
            warn(f"malformed event argument {token!r} on E1")
            continue
        arguments.append((role, target))
    if trigger:
        if trigger not in _EA_LABELS:
            raise _Rejected(f"event E1 trigger {trigger} not found")
        if _EA_LABELS[trigger] != event_type:
            warn(f"event E1 type {event_type} != trigger label {_EA_LABELS[trigger]}")
    for role, target in arguments:
        if target in ("E1", "E9"):
            raise _Rejected(
                f"event E1 argument {role} targets an event; only text-bound arguments "
                "are supported"
            )
        if target not in _EA_LABELS:
            raise _Rejected(f"event E1 argument {role} references unknown {target}")
    return EventAnnotation("E1", event_type, trigger or None, tuple(arguments))


def _attribute_by_the_rules(body, warn):
    """``A1<TAB>NAME TARGET [VALUE ...]``: tokens are separated by any
    whitespace, and the value is the remaining tokens joined by one space
    (none when there are none). The target must name a text-bound or an
    event. A second attribute of the same name on the same target is a
    repairable fault and is dropped."""
    tokens = body.split()
    if len(tokens) < 2:
        raise _Rejected(f"malformed attribute {body!r}")
    name, target, *words = tokens
    if target not in _EA_LABELS and target != "E9":
        raise _Rejected(f"attribute A1 references unknown {target}")
    if (name, target) == ("Negated", "T1"):
        warn("attribute A1 duplicates Negated on T1 (first set by A9)")
        return None
    return AttributeAnnotation("A1", name, target, " ".join(words) if words else None)


def _line_by_the_rules(line, strict):
    """What ``line`` (E1 or A1) must give as line 5 after ``_EA_CONTEXT``:
    ``("error", message, line_no)`` or ``("ok", record or None, warnings)``.
    An .ann line loses one trailing CR; its body is all after its first tab.
    A tab inside the body is a repairable fault, and then separates tokens
    as any other whitespace does."""
    if line.endswith("\r"):
        line = line[:-1]
    fields = line.split("\t")
    warnings = []

    def warn(message):
        if strict:
            raise _Rejected(message)
        warnings.append(f"n1:5: {message}")

    try:
        if len(fields) > 2:
            warn(f"tab inside the body of {fields[0]}")
        body = "\t".join(fields[1:])
        if line.startswith("E"):
            record = _event_by_the_rules(body, warn)
        elif len(fields) < 2:
            raise _Rejected("attribute line needs a body")
        else:
            record = _attribute_by_the_rules(body, warn)
    except _Rejected as exc:
        return ("error", f"n1:5: {exc}", 5)
    return ("ok", record, warnings)


def _parse_line(line, strict):
    outcome = _parse_logged(_EA_CONTEXT + line + "\n", _EA_NOTE, strict)
    if outcome[0] == "ok":
        doc = outcome[1]
        record = doc.events.get("E1") if line.startswith("E") else doc.attributes.get("A1")
        return ("ok", record, outcome[2])
    return outcome


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "line",
    [
        "E1\tDrug:T1 Status:T2",
        "E1\tDrug:T1 Status2:T2 Status:T2",  # repeated role
        "E1\tDrug:T1 Status٣:T2",  # Arabic-Indic digit suffix
        "E1\tDrug:T1 12:T2",  # all-digit role: no role once stripped
        "E1\tDrug:T1 ١٢:T2",  # the same in Arabic-Indic digits
        "E1\tDrug:T1\xa0Status:T2",
        "E1\t\u2003Drug:T1  Status:T2 \r",
        "E1\tDrug:T1\tStatus:T2",  # a tab inside the body: a fault, then a space
        "E1\t\tDrug:T1",
        "E1\tDrug:T1\t",
        "E1\tDrug:",  # missing trigger
        "E1\tDrug: Status:T2",
        "E1\tDrug:T1 Status:",  # empty target
        "E1\tDrug:T1 :T2",  # empty role
        "E1\tDrug:T1 Status",
        "E1\tDrug:T1 Status:T2:x",  # extra colon in a target
        "E1\tDrug:T1:x",
        "E1\t:T1",
        "E1\tDrug",
        "E1\t",
        "E1\t \xa0",
        "E1",
        "E1\tAlcohol:T1",  # type differs from the trigger's label
        "E1\tDrug:T9",
        "E1\tDrug:E9",
        "E1\tDrug:T1 Status:T9",
        "E1\tDrug:T1 Status:E9",
        "E1\tDrug:T1 Status:E1",
        "A1\tStatusTime T2 current",
        "A1\tStatusTime T2",
        "A1\tStatusTime T2 past now",
        "A1\tStatusTime T2 past\xa0now",
        "A1\tStatusTime\u2003T2  past \u3000 now \r",
        "A1\tStatusTime T2 past\tnow",  # a tab inside the body
        "A1\tStatusTime\tT2",
        "A1\tStatusTime\t",
        "A1\tNegated E9",
        "A1\tNegated T1",  # Negated is already set on T1
        "A1\tNegated T2:x",
        "A1\tStatusTime T9 current",
        "A1\tStatusTime",
        "A1\t",
        "A1",
    ],
)
def test_event_and_attribute_lines_follow_the_rules(line, strict):
    assert _parse_line(line, strict) == _line_by_the_rules(line, strict)


# ASCII, NBSP and other Unicode whitespace; a tab is a repairable fault.
_SEPARATORS = (" ", " ", "  ", "\xa0", "\u2003", "\u3000", "\x0c", "\x1f", "\t")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_drawn_event_and_attribute_lines_match_the_rules(data):
    def pick(*options):
        return data.draw(st.sampled_from(options))

    targets = ("T1", "T2", "T2", "T9", "E9", "", "T2:x")
    if pick("E", "A") == "E":
        kind = "E1"
        tokens = [pick("Drug", "Alcohol", "") + pick(":", ":", "") + pick(*targets)]
        for _ in range(data.draw(st.integers(0, 3))):
            role = pick("Status", "Type", "") + pick("", "", "2", "12", "٣", "١٢")
            tokens.append(role + pick(":", ":", "") + pick(*targets))
    else:
        kind = "A1"
        values = ("current", "past", "now", "a:b")
        tokens = [pick("StatusTime", "Negated", "Type٣"), pick("T1", *targets)]
        tokens += [pick(*values), pick(*values), pick(*values)]
        del tokens[data.draw(st.integers(0, 5)):]
    body = pick("", "", " ", "\xa0") + tokens[0] if tokens else ""
    for token in tokens[1:]:
        body += pick(*_SEPARATORS) + token
    line = f"{kind}\t{body}" + pick("", "", " ", "\r", "\xa0\r")
    strict = data.draw(st.booleans())
    assert _parse_line(line, strict) == _line_by_the_rules(line, strict)


# ---------------------------------------------------------------------------
# Lines of other kinds among T, E and A lines
# ---------------------------------------------------------------------------

_KINDS_NOTE = "cocaine now"
_KINDS_LINES = ("T1\tDrug 0 7\tcocaine", "E1\tDrug:T1", "A1\tNegated E1")
_KINDS_DOC = Document(
    "n1",
    _KINDS_NOTE,
    {"T1": TextBound("T1", "Drug", Span.single(0, 7))},
    {"E1": EventAnnotation("E1", "Drug", "T1")},
    {"A1": AttributeAnnotation("A1", "Negated", "E1")},
)


_UNSUPPORTED_R = "unsupported annotation kind 'R' (R1)"
_UNSUPPORTED_NOTES = "unsupported annotation kind '#' (#1)"


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "other, lenient, strict_pin",
    [
        # Blank and whitespace-only lines are skipped in both modes.
        ("", [], []),
        (" ", [], []),
        ("\t", [], []),
        ("\xa0", [], []),
        ("\x1c", [], []),
        ("\x85", [], []),
        ("\u2028", [], []),
        # Unsupported kinds are skipped with a warning, or rejected strictly.
        ("R1\tPart Arg1:T1 Arg2:T1", [_UNSUPPORTED_R], _UNSUPPORTED_R),
        ("#1\tAnnotatorNotes T1\tcheck", [_UNSUPPORTED_NOTES], _UNSUPPORTED_NOTES),
        # Rejected in both modes.
        (" T1\tDrug 0 7", *[r"unrecognized annotation line ' T1\tDrug 0 7'"] * 2),
        ("\tDrug 0 7", *[r"unrecognized annotation line '\tDrug 0 7'"] * 2),
        ("E", *["event line needs a trigger field"] * 2),
        ("A", *["attribute line needs a body"] * 2),
    ],
)
def test_line_kinds_keep_their_skips_and_errors(other, lenient, strict_pin, strict):
    """``other`` goes first, in the middle and last among the T, E and A
    lines, in each of their three rotations. A pin is the warnings of a
    parse that succeeds, or the message of the error it raises."""
    pin = strict_pin if strict else lenient
    for turn in range(3):
        lines = list(_KINDS_LINES[turn:] + _KINDS_LINES[:turn])
        for at in (0, 2, 3):
            ann = "\n".join(lines[:at] + [other] + lines[at:]) + "\n"
            where = f"n1:{at + 1}"
            if isinstance(pin, str):
                expected = ("error", f"{where}: {pin}", at + 1)
            else:
                expected = ("ok", _KINDS_DOC, [f"{where}: {message}" for message in pin])
            outcome = _parse_logged(ann, _KINDS_NOTE, strict)
            assert outcome == expected, (turn, at)
            if outcome[0] == "ok":
                assert repr(outcome[1]) == repr(_KINDS_DOC)


def test_annotation_records_are_slotted():
    span = Span(((0, 4), (6, 9)))
    records = [
        span,
        TextBound("T1", "Drug", span),
        EventAnnotation("E1", "Drug", "T1", (("Status", "T2"),)),
        AttributeAnnotation("A1", "StatusTime", "T2", "current"),
    ]
    assert TextBound.__slots__ == ("id", "label", "span")
    for record in records:
        assert not hasattr(record, "__dict__")
        copy = replace(record)
        assert copy == record and hash(copy) == hash(record)
    assert replace(records[1], label="Type") != records[1]
    assert replace(span, fragments=[(6, 9)]) == Span.single(6, 9)
    with pytest.raises(ValueError):
        replace(span, fragments=((4, 4),))
    # A text-bound built from one plain line equals, hashes and prints as the
    # public one.
    ann = "T1\tDrug 10 17\tcocaine\nT2\tDrug 0 7;10 17\tpatient cocaine\nE1\tDrug:T1 Type:T2\n"
    doc = parse_document(ann + "A1\tNegated E1\n", _NOTE, "n1")
    parsed, public = doc.text_bounds["T1"], TextBound("T1", "Drug", Span.single(10, 17))
    for record in (parsed, parsed.span):
        assert not hasattr(record, "__dict__")
    assert parsed == public and hash(parsed) == hash(public) and repr(parsed) == repr(public)
    assert parsed.span == public.span and hash(parsed.span) == hash(public.span)
    assert type(parsed.span.fragments[0][0]) is int
    # A parsed document survives pickling and deep copying unchanged.
    for copy in (pickle.loads(pickle.dumps(doc)), deepcopy(doc)):
        assert copy == doc and repr(copy) == repr(doc)
        assert hash(copy.text_bounds["T1"]) == hash(public)


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


def test_loading_shares_repeated_strings(tmp_path, shac):
    generated = generate_gold(
        GeneratorConfig(seed=3, notes=4, partitions=(("other", "unknown"),)), shac
    )
    write_corpus(generated, tmp_path)
    gold, pred = load_corpus(tmp_path), load_corpus(tmp_path)
    shares_texts = sys.version_info[:2] != (3, 12)  # 3.12 never frees an interned string
    first_seen = {}

    def assert_shared(value):
        assert first_seen.setdefault(value, value) is value, value

    for corpus in (gold, pred):
        for doc in corpus:
            made = generated[doc.doc_id]
            assert doc == made
            assert (doc.text is gold[doc.doc_id].text) is (shares_texts or corpus is gold)
            for tb in doc.text_bounds.values():
                assert_shared(tb.id)
                assert_shared(tb.label)
                assert hash(tb) == hash(made.text_bounds[tb.id])
            for ev in doc.events.values():
                assert_shared(ev.id)
                assert_shared(ev.event_type)
                assert ev.trigger is doc.text_bounds[ev.trigger].id
                for role, target in ev.arguments:
                    assert_shared(role)
                    assert target is doc.text_bounds[target].id
                assert hash(ev) == hash(made.events[ev.id])
            for attr in doc.attributes.values():
                assert_shared(attr.id)
                assert_shared(attr.name)
                assert_shared(attr.value)
                owner = doc.text_bounds.get(attr.target) or doc.events[attr.target]
                assert attr.target is owner.id
                assert hash(attr) == hash(made.attributes[attr.id])
    # Every note repeats the ids of the others, so sharing across notes is checked.
    assert len(gold) == 4 and all("E1" in doc.events for doc in gold)


def test_load_corpus_missing_txt_is_error(tmp_path):
    (tmp_path / "x.ann").write_text("", encoding="utf-8")
    with pytest.raises(StandoffError, match="without note text"):
        load_corpus(tmp_path)


def test_load_corpus_names_every_stray_ann_from_the_root(tmp_path):
    _write_note(tmp_path, "n1", "cocaine use", "")
    (tmp_path / "uw").mkdir()
    (tmp_path / "uw" / "b.ann").write_text("", encoding="utf-8")
    (tmp_path / "a.ann").write_text("", encoding="utf-8")
    with pytest.raises(StandoffError) as raised:
        load_corpus(tmp_path)
    assert str(raised.value) == (
        f"{tmp_path}: 2 annotation files without note text: a.ann, uw/b.ann"
    )
    for name in ("c", "d", "e"):
        (tmp_path / f"{name}.ann").write_text("", encoding="utf-8")
    with pytest.raises(StandoffError) as raised:
        load_corpus(tmp_path)
    assert raised.value.message == (
        "5 annotation files without note text: a.ann, c.ann, d.ann and 2 more"
    )


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
    assert strict.text_bounds["T1"].span.extract(text) == "smokes"
    with caplog.at_level("WARNING"):
        lenient = load_corpus(tmp_path)["n1"]
    assert lenient == strict
    assert caplog.text == ""

    out = tmp_path / "out"
    write_corpus(load_corpus(tmp_path, strict=True), out)
    assert (out / "n1.txt").read_bytes() == text.encode("utf-8")
    assert load_corpus(out, strict=True)["n1"] == strict


def test_bom_counts_as_code_point_zero(tmp_path):
    # A leading U+FEFF stays in the note as its first character, so offsets
    # count it, as BRAT's offsets into the decoded file do.
    text = "\ufeffPatient smokes daily.\n"
    start = text.index("smokes")
    (tmp_path / "n1.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "n1.ann").write_bytes(f"T1\tTobacco {start} {start + 6}\tsmokes\n".encode("utf-8"))

    doc = load_corpus(tmp_path, strict=True)["n1"]
    assert doc.text == text and start == 9
    assert doc.text_bounds["T1"].span.extract(doc.text) == "smokes"
    out = tmp_path / "out"
    write_corpus(load_corpus(tmp_path, strict=True), out)
    for name in ("n1.txt", "n1.ann"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    assert load_corpus(out, strict=True)["n1"] == doc


def test_bom_at_start_of_ann_is_dropped(tmp_path, caplog):
    # Offsets index the note, never the .ann, so one leading U+FEFF there is
    # not part of the first id; the lines keep their numbers.
    text = "Patient smokes daily.\n"
    ann = "T1\tTobacco 8 14\tsmokes\n"
    plain = parse_document(ann, text, "n1", strict=True)
    assert parse_document("\ufeff" + ann, text, "n1", strict=True) == plain
    with caplog.at_level("WARNING"):
        assert parse_document("\ufeff" + ann, text, "n1") == plain
    assert caplog.text == ""
    with pytest.raises(StandoffError, match="duplicate id T1") as err:
        parse_document("\ufeff" + ann + ann, text, "n1", strict=True)
    assert err.value.line_no == 2

    (tmp_path / "n1.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "n1.ann").write_bytes(("\ufeff" + ann).encode("utf-8"))
    assert load_corpus(tmp_path, strict=True)["n1"] == plain


_EXTRA_LINES = (
    "R{n}\tPart Arg1:T1 Arg2:T2",
    "N{n}\tReference T1 Wiki:1\tname",
    "#{n}\tAnnotatorNotes T1\tcheck",
    "M{n}\tNegation E1",
    "*\tAlias T1 T2",
)


def _plant_repairs(text, ann, rng):
    """``(text, ann)`` with lenient faults planted at ``rng``'s choice: stated
    text reversed or holding a CR, a CR or tab in the note under a span (its
    stated text left stale or flattened), R, N, #, M and * lines, malformed
    event arguments, a missing trigger, an event type unlike its trigger's
    label, a duplicate attribute and CRLF line endings."""
    lines = ann.split("\n")[:-1]
    chars = list(text)

    def rows(kind):
        return [k for k, line in enumerate(lines) if line.startswith(kind)]

    if not rows("A"):  # then T and E lines are there too
        return text, ann

    def restate(k, edit):
        head, stated = lines[k].rsplit("\t", 1)
        lines[k] = f"{head}\t{edit(stated)}"

    if rng.random() < 0.5:
        restate(rng.choice(rows("T")), lambda s: s[::-1])
    if rng.random() < 0.5:
        restate(rng.choice(rows("T")), lambda s: s[: len(s) // 2] + "\r" + s[len(s) // 2 :])
    for ch in "\r\t":
        if rng.random() < 0.5:
            k = rng.choice(rows("T"))
            offsets = lines[k].split("\t")[1].split(" ", 1)[1]
            start, end = map(int, offsets.split(";")[0].split())
            pos = rng.randrange(start, end)
            chars[pos] = ch
            if rng.random() < 0.5:  # stated as BRAT flattens it: no fault
                restate(k, lambda s: s[: pos - start] + " " + s[pos - start + 1 :])
    if rng.random() < 0.5:
        k = rng.choice(rows("E"))
        lines[k] += " " + " ".join(rng.sample(["Status", ":T1", "Type:"], rng.randint(1, 3)))
    if rng.random() < 0.3:
        k = rng.choice(rows("E"))
        ann_id, body = lines[k].split("\t")
        trigger, sep, arguments = body.partition(" ")
        lines[k] = f"{ann_id}\t{trigger.split(':', 1)[0]}:{sep}{arguments}"
    if rng.random() < 0.3:
        k = rng.choice(rows("E"))
        ann_id, body = lines[k].split("\t")
        lines[k] = f"{ann_id}\tAlcohol:{body.split(':', 1)[1]}"
    if rng.random() < 0.5:
        _, body = lines[rng.choice(rows("A"))].split("\t")
        name, target = body.split(" ")[:2]
        lines.append(f"A{100 + len(lines)}\t{name} {target} past")
    for n, extra in enumerate(_EXTRA_LINES, start=1):
        if rng.random() < 0.3:
            lines.insert(rng.randrange(len(lines) + 1), extra.format(n=n))
    newline = "\r\n" if rng.random() < 0.5 else "\n"
    return "".join(chars), "".join(line + newline for line in lines)


def test_planted_repairs_keep_their_warnings_errors_and_bytes(tmp_path, shac):
    """Lenient warnings in order, the strict error of each note and the
    serialization of every lenient document, pinned by sha256 on a corpus
    with every lenient fault planted."""
    corpus = generate_gold(
        GeneratorConfig(seed=8, notes=24, partitions=(("other", "unknown"),)), shac
    )
    for doc in corpus:
        rng = random.Random(int(doc.doc_id[4:]))
        text, ann = _plant_repairs(doc.text, serialize_document(doc), rng)
        note_dir = tmp_path / doc.doc_id
        note_dir.mkdir()
        (note_dir / f"{doc.doc_id}.txt").write_bytes(text.encode("utf-8"))
        (note_dir / f"{doc.doc_id}.ann").write_bytes(ann.encode("utf-8"))

    logger = logging.getLogger(standoff.__name__)
    handler = _Warnings()
    logger.addHandler(handler)
    try:
        lenient = load_corpus(tmp_path)
    finally:
        logger.removeHandler(handler)
    errors = []
    for doc_id in lenient.doc_ids():
        try:
            load_corpus(tmp_path / doc_id, strict=True)
            errors.append(f"{doc_id}: ok")
        except StandoffError as exc:
            errors.append(f"{exc} @ {exc.line_no}")
    serialized = [serialize_document(lenient[doc_id]) for doc_id in lenient.doc_ids()]

    planted = "\n".join(handler.messages)
    for fault in (
        "covered text mismatch", "'R'", "'N'", "'#'", "'M'", "'*'", "malformed event argument",
        "has no trigger reference", "!= trigger label", "duplicates StatusTime",
    ):
        assert fault in planted, fault
    assert "\\r" in planted and "\\t" in planted
    assert any(b"\r\n" in p.read_bytes() for p in tmp_path.glob("*/*.ann"))

    def digest(items):
        return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()

    assert (len(handler.messages), digest(handler.messages)) == (
        124, "8f1204d4eb002007224d4571d09f12154c024d3dfa4411f28eb58b3610850a5d"
    )
    assert (sum(not e.endswith(": ok") for e in errors), digest(errors)) == (
        24, "ae9ac223d22e16c5b08d0b6f77261ddf507784078548ee0269bc25acaa4d2c8f"
    )
    assert digest(serialized) == "1f35223c19692f3df9c2a8f19982e2fe21f821768dd186f5378cd473192810e9"


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("layout", ["pairs", "stray_ann", "malformed_line"])
def test_load_corpus_leaves_collector_as_found(tmp_path, monkeypatch, enabled, layout):
    _write_note(tmp_path, "n1", "cocaine use", "T1\tDrug 0 7\tcocaine\n")
    if layout == "stray_ann":
        (tmp_path / "x.ann").write_text("", encoding="utf-8")
    elif layout == "malformed_line":
        _write_note(tmp_path, "n2", "cocaine use", "Zebra\n")
    collecting_during_parse = []

    def parse_and_record(*args, **kwargs):
        collecting_during_parse.append(gc.isenabled())
        return parse_document(*args, **kwargs)

    monkeypatch.setattr(standoff, "parse_document", parse_and_record)
    was_enabled = gc.isenabled()
    _set_collector(enabled)
    try:
        if layout == "pairs":
            assert len(load_corpus(tmp_path)) == 1
        else:
            with pytest.raises(StandoffError):
                load_corpus(tmp_path)
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was_enabled)
    assert not any(collecting_during_parse)
    notes_parsed = {"pairs": 1, "stray_ann": 0, "malformed_line": 2}[layout]
    assert len(collecting_during_parse) == notes_parsed


def test_only_load_corpus_touches_the_collector():
    package = Path(standoff.__file__).parent
    users = [
        p.name
        for p in sorted(package.glob("*.py"))
        if re.search(r"\bgc\.", p.read_text(encoding="utf-8"))
    ]
    assert users == ["standoff.py"]


def test_corpus_rejects_duplicate_add():
    corpus = Corpus()
    corpus.add(Document("n1", "text"))
    with pytest.raises(StandoffError):
        corpus.add(Document("n1", "text"))


# ---------------------------------------------------------------------------
# Strict and lenient parsing of drawn .ann files
# ---------------------------------------------------------------------------

_DRAWN_NOTE = "pt uses cocaine daily; cocaine\r\nno alcohol now"


@st.composite
def _ann_file(draw):
    """An .ann file whose lines are well formed or hold a defect that the
    two modes treat differently: a stated text unlike the note, a
    trigger-less event, a malformed argument, a tab in a body, a duplicate
    attribute or an unsupported kind. A dangling reference or a repeated id
    now and then is an error in both modes."""
    lines = ["T1\tDrug 8 15\tcocaine", "T2\tType 23 30\tcocaine", "T3\tStatusTime 16 21\tdaily"]
    for i in range(4, 4 + draw(st.integers(0, 6))):
        kind = draw(st.sampled_from("TEEAAR#"))
        if kind == "T":
            start = draw(st.integers(0, len(_DRAWN_NOTE) - 1))
            end = draw(st.integers(start + 1, len(_DRAWN_NOTE)))
            covered = _DRAWN_NOTE[start:end].replace("\r", " ").replace("\n", " ")
            stated = draw(st.sampled_from([covered, covered, "cocaine"]))
            lines.append(f"T{i}\tDrug {start} {end}\t{stated}")
        elif kind == "E":
            trigger = draw(st.sampled_from(["T1", "T1", "T4", ""]))
            args = draw(st.lists(st.sampled_from(["Type:T2", "Status2:T3", ":T2", "Type"]),
                                 max_size=2))
            sep = draw(st.sampled_from([" ", " ", "\t"]))
            lines.append(f"E{i}\tDrug:{trigger}" + "".join(sep + a for a in args))
        elif kind == "A":
            target = draw(st.sampled_from(["T3", "T3", "T2", "E9"]))
            lines.append(f"A{draw(st.integers(1, 8))}\tStatusTime {target} current")
        else:
            lines.append(f"{kind}{i}\tPart Arg1:T1 Arg2:T2")
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


@settings(max_examples=400, deadline=None)
@given(ann=_ann_file())
def test_strict_success_means_an_equal_silent_lenient_parse(ann):
    strict = _parse_logged(ann, _DRAWN_NOTE, strict=True)
    lenient = _parse_logged(ann, _DRAWN_NOTE, strict=False)
    if strict[0] == "ok":
        assert lenient == strict
    # and conversely: a lenient parse that warns of nothing is the strict one
    if lenient[0] == "ok" and not lenient[2]:
        assert strict == lenient


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_lenient_covered_text_repair_never_moves_a_span(data):
    # Few letters, so a stated text that differs is often found elsewhere in
    # the note, where a repair that searched for it would move the span.
    text = data.draw(st.text("ab c\r\n", min_size=1, max_size=30))
    bounds = sorted(data.draw(st.sets(st.integers(0, len(text)), min_size=2, max_size=4)))
    fragments = tuple(zip(bounds[0::2], bounds[1::2]))
    offsets = ";".join(f"{s} {e}" for s, e in fragments)
    stated = data.draw(st.text("ab c", max_size=6))
    outcome = _parse_logged(f"T1\tDrug {offsets}\t{stated}\n", text, strict=False)
    assert outcome[0] == "ok"
    _, doc, warnings = outcome
    assert doc.text_bounds["T1"].span.fragments == fragments
    covered = Span(fragments).extract(text)
    if stated != covered.replace("\r", " ").replace("\n", " ") and stated != covered:
        assert len(warnings) == 1 and "covered text mismatch for T1" in warnings[0]
