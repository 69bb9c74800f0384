"""BRAT standoff annotation model and I/O.

Annotations live in a ``.ann`` file next to the ``.txt`` note they index
into. Three line kinds are modeled: text-bounds (``T``), events (``E``),
and attributes (``A``). Relations, normalizations, and comments are
outside the data model; the parser skips them with a warning in lenient
mode and rejects them in strict mode.

All character offsets are Unicode code-point offsets into the note text
as stored, never byte offsets: a CRLF line ending counts as two
characters, and only LF ends an ``.ann`` line. A UTF-8 byte-order mark at
the start of a note is kept as its code point 0 (U+FEFF), so offsets count
it, as BRAT's offsets into the decoded file do; ``write_corpus`` writes it
back. One at the start of an ``.ann`` file is dropped, because no offset
points into the ``.ann``; line numbers do not change. Parsed documents are
immutable by convention and safe to share across threads.

Loading builds each repeated string once per process (``sys.intern``):
annotation ids, labels, event types, roles, attribute names and values,
and, in ``load_corpus``, note texts (except on CPython 3.12). Equal
strings of those kinds may therefore be one shared object, within a
document, across documents and across corpora, and an event's trigger and
argument targets and an attribute's target are the very id objects of the
annotations they name. Callers compare by equality and must not rely on
identity either way. A text-bound stores no copy of the text it covers,
which is ``tb.span.extract(doc.text)``.

A T line of one fragment, written as BRAT writes it, takes a fast path:
``ID<TAB>LABEL START END<TAB>TEXT`` with one space before each offset,
offsets of at most 18 ASCII digits, a span inside the note, an id not seen
before and a stated text that matches the note. Every other T line takes
the general path: one with a sign, non-ASCII digits, ``;``, other or more
whitespace, a stated text that differs, a duplicate id or a span past the
note's end. The fast path keeps only lines that the general path keeps
without a warning, and builds the same record, so the two give the same
documents, warnings and errors.
"""

from __future__ import annotations

import gc
import logging
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from operator import index
from pathlib import Path
from sys import intern

logger = logging.getLogger(__name__)

SOURCES = ("mimic", "uw", "other")
SPLITS = ("train", "dev", "test", "unknown")

_ID_RE = re.compile(r"^([A-Za-z#*]+)(\d*)$")

# An interned string is freed once nothing refers to it, except on CPython
# 3.12, which keeps every one for the life of the process. Ids and
# vocabulary are few, but note texts are not, so 3.12 does not share them.
_SHARE_NOTE_TEXTS = sys.version_info[:2] != (3, 12)


class StandoffError(Exception):
    """A standoff file could not be parsed or is internally inconsistent."""

    def __init__(self, message: str, doc_id: str = "", line_no: int | None = None):
        self.message = message
        self.doc_id = doc_id
        self.line_no = line_no
        where = doc_id or "<input>"
        if line_no is not None:
            where = f"{where}:{line_no}"
        super().__init__(f"{where}: {message}")


@lru_cache(maxsize=4096)  # ids such as E1 or T12 recur in every note
def annotation_sort_key(ann_id: str) -> tuple:
    """Sort key ordering T2 before T10 (numeric suffix, then raw id)."""
    m = _ID_RE.match(ann_id)
    if m and m.group(2):
        return (m.group(1), int(m.group(2)), ann_id)
    return (ann_id, -1, ann_id)


@dataclass(frozen=True, slots=True)
class Span:
    """A (possibly discontinuous) character span: sorted, non-overlapping
    half-open fragments."""

    fragments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # index(), unlike int(), refuses a float or string offset (TypeError).
        frags = tuple((index(s), index(e)) for s, e in self.fragments)
        if not frags:
            raise ValueError("a span needs at least one fragment")
        prev_end = -1
        for start, end in frags:
            if start < 0 or end <= start:
                raise ValueError(f"invalid fragment ({start}, {end})")
            if start < prev_end:
                raise ValueError("fragments must be sorted and non-overlapping")
            prev_end = end
        object.__setattr__(self, "fragments", frags)

    @classmethod
    def single(cls, start: int, end: int) -> "Span":
        return cls(((start, end),))

    @property
    def start(self) -> int:
        return self.fragments[0][0]

    @property
    def end(self) -> int:
        return self.fragments[-1][1]

    def overlaps(self, other: "Span") -> bool:
        """True if any fragment of this span shares >= 1 character with any
        fragment of ``other``."""
        for a_start, a_end in self.fragments:
            for b_start, b_end in other.fragments:
                if a_start < b_end and b_start < a_end:
                    return True
        return False

    def extract(self, text: str) -> str:
        """Fragment substrings of ``text`` joined by a single space."""
        if len(self.fragments) == 1:
            start, end = self.fragments[0]
            return text[start:end]
        return " ".join(text[s:e] for s, e in self.fragments)


@dataclass(frozen=True, slots=True)
class TextBound:
    """An annotated span with a type label; it covers ``span.extract(doc.text)``."""

    id: str
    label: str
    span: Span


@dataclass(frozen=True, slots=True)
class EventAnnotation:
    """A trigger text-bound plus role-labeled argument text-bounds.

    ``trigger`` and argument targets are text-bound ids resolved through
    the owning Document. ``trigger`` is None only for structurally broken
    events admitted by lenient parsing; validation reports those.
    """

    id: str
    event_type: str
    trigger: str | None
    arguments: tuple[tuple[str, str], ...] = ()  # (role, target text-bound id)


@dataclass(frozen=True, slots=True)
class AttributeAnnotation:
    """A named value attached to a text-bound or event (e.g. a subtype label)."""

    id: str
    name: str
    target: str
    value: str | None = None


@dataclass(frozen=True)
class DocumentMetadata:
    source: str = "other"
    split: str = "unknown"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}; expected one of {SOURCES}")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}; expected one of {SPLITS}")


@dataclass(frozen=True)
class Document:
    """One note plus its annotations, keyed by annotation id."""

    doc_id: str
    text: str
    text_bounds: dict[str, TextBound] = field(default_factory=dict)
    events: dict[str, EventAnnotation] = field(default_factory=dict)
    attributes: dict[str, AttributeAnnotation] = field(default_factory=dict)
    metadata: DocumentMetadata = field(default_factory=DocumentMetadata)

    def trigger_of(self, event: EventAnnotation) -> TextBound | None:
        if event.trigger is None:
            return None
        return self.text_bounds.get(event.trigger)

    def attribute_index(self) -> dict[tuple[str, str], AttributeAnnotation]:
        """Every attribute keyed by (target id, attribute name). Built anew on
        each call; a caller that looks up many attributes builds it once."""
        return {(a.target, a.name): a for a in self.attributes.values()}


@dataclass
class Corpus:
    """Documents keyed by doc_id."""

    documents: dict[str, Document] = field(default_factory=dict)

    def add(self, doc: Document) -> None:
        if doc.doc_id in self.documents:
            raise StandoffError(f"duplicate doc_id {doc.doc_id!r}")
        self.documents[doc.doc_id] = doc

    def doc_ids(self) -> list[str]:
        return sorted(self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.documents

    def __getitem__(self, doc_id: str) -> Document:
        return self.documents[doc_id]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Trailing digits on role names (Status, Status2, ...) are annotation-tool
# bookkeeping for repeated roles, not semantics.
_ROLE_SUFFIX_RE = re.compile(r"\d+$")

# BRAT writes covered text with newlines flattened to spaces so the .ann
# file stays line-oriented; comparisons and serialization do the same.
def _flatten_ws(text: str) -> str:
    return text.replace("\n", " ").replace("\r", " ").replace("\t", " ")


def _states(stated: str, covered: str) -> bool:
    """Whether a T line's stated text matches the text its span covers: the
    slice with LF, CR and tab flattened, or the slice itself if it holds no
    CR. A raw CR never stands for itself, and the stated text cannot hold
    LF, which ends the line."""
    return (stated == covered and "\r" not in covered) or stated == _flatten_ws(covered)


def _lines(text: str) -> list[str]:
    """Lines split on LF only, each stripped of one trailing CR. Unlike
    ``str.splitlines``, characters such as U+2028, form feed or NEL inside
    a line (say, in covered text) do not end it."""
    lines = text.split("\n")
    if "\r" not in text:
        return lines
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _read_raw(path: Path) -> str:
    """File text with line endings untouched: BRAT offsets count every code
    point of the file, CR included. A file that cannot be read or decoded
    raises a StandoffError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StandoffError(f"cannot read {path}: {exc}") from exc


def _parse_fragments(offsets: str, doc_id: str, line_no: int) -> Span:
    # int() raises ValueError on a token that is not an integer, and also on
    # one of more digits than the interpreter converts (4,300 by default).
    fragments = []
    try:
        for part in offsets.split(";"):
            pieces = part.split()
            if len(pieces) != 2:
                raise StandoffError(f"malformed span offsets {offsets!r}", doc_id, line_no)
            fragments.append((int(pieces[0]), int(pieces[1])))
    except ValueError:
        raise StandoffError(f"non-integer span offsets {offsets!r}", doc_id, line_no) from None
    fragments.sort()
    try:
        return Span(tuple(fragments))
    except ValueError as exc:
        raise StandoffError(f"invalid span {offsets!r}: {exc}", doc_id, line_no) from None


# A T line of one fragment stated as two runs of ASCII digits, each after one
# space: id, label, start, end and stated text. Everything else that reads as
# a T line takes the general path. At most 18 digits keep int() far from its
# limit on the length of what it converts.
_ONE_FRAGMENT_T = re.compile(r"(T[^\t]*)\t([^\t ]*) ([0-9]{1,18}) ([0-9]{1,18})\t(.*)", re.S)

_new = object.__new__
_set_fragments = Span.fragments.__set__
_set_id = TextBound.id.__set__
_set_label = TextBound.label.__set__
_set_span = TextBound.span.__set__


def _one_fragment_text_bound(ann_id: str, label: str, start: int, end: int) -> TextBound:
    """``TextBound(ann_id, label, Span.single(start, end))`` for offsets
    already known to satisfy ``0 <= start < end``. It sets the slots through
    their descriptors: it skips the frozen ``__init__`` and the span's
    validation, which the caller has done, and builds an equal record."""
    span = _new(Span)
    _set_fragments(span, ((start, end),))
    tb = _new(TextBound)
    _set_id(tb, ann_id)
    _set_label(tb, label)
    _set_span(tb, span)
    return tb


def parse_document(
    ann_text: str,
    doc_text: str,
    doc_id: str = "",
    strict: bool = False,
    metadata: DocumentMetadata | None = None,
) -> Document:
    """Parse one ``.ann`` file against its note text.

    Resolution is two-pass, so event and attribute lines may precede the
    text-bounds they reference. A text-bound keeps no stated text; its
    covered text is ``span.extract(doc_text)``. In lenient mode (the
    default), a stated text unlike the note is a warning, unsupported line
    kinds are skipped, and trigger-less events are admitted for the
    validator to report; strict mode turns all of those into errors.

    Raises StandoffError for malformed syntax, out-of-bounds offsets,
    dangling references, and duplicate ids in either mode.
    """
    if ann_text.startswith("\ufeff"):
        ann_text = ann_text[1:]
    text_bounds: dict[str, TextBound] = {}
    raw_events: list[tuple[int, str, str, str | None, list[tuple[str, str]]]] = []
    raw_attrs: list[tuple[int, str, str, str, str | None]] = []

    def fail_or_warn(message: str, line_no: int) -> None:
        if strict:
            raise StandoffError(message, doc_id, line_no)
        logger.warning("%s:%d: %s", doc_id or "<input>", line_no, message)

    one_fragment_t = _ONE_FRAGMENT_T.fullmatch
    text_len = len(doc_text)
    for line_no, line in enumerate(_lines(ann_text), start=1):
        kind = line[:1]  # no T, E or A line is blank
        if kind == "T":
            match = one_fragment_t(line)
            if match is not None:
                ann_id, label, start, end, stated_text = match.groups()
                start, end = int(start), int(end)
                # An empty span, one past the note's end, a duplicate id or a
                # stated text that differs goes on to the general path.
                if (
                    start < end <= text_len
                    and ann_id not in text_bounds
                    and _states(stated_text, doc_text[start:end])
                ):
                    ann_id = intern(ann_id)
                    text_bounds[ann_id] = _one_fragment_text_bound(
                        ann_id, intern(label), start, end
                    )
                    continue
            parts = line.split("\t")
            ann_id = intern(parts[0])  # T1, E1, ... recur in every note
            if len(parts) < 2:
                raise StandoffError("text-bound line needs type and offsets", doc_id, line_no)
            stated_text = "\t".join(parts[2:])  # the rest of the line, tabs and all
            head = parts[1].split(" ", 1)
            if len(head) != 2:
                raise StandoffError(f"malformed text-bound header {parts[1]!r}", doc_id, line_no)
            label, offsets = head
            span = _parse_fragments(offsets, doc_id, line_no)
            if span.end > text_len:
                raise StandoffError(
                    f"span {span.fragments} exceeds text length {text_len}", doc_id, line_no
                )
            covered = span.extract(doc_text)
            if not _states(stated_text, covered):
                message = (
                    f"covered text mismatch for {ann_id}: file says {stated_text!r}, "
                    f"text has {covered!r}"
                )
                fail_or_warn(message, line_no)
            if ann_id in text_bounds:
                raise StandoffError(f"duplicate id {ann_id}", doc_id, line_no)
            text_bounds[ann_id] = TextBound(ann_id, intern(label), span)

        elif kind == "E":
            ann_id, _, body = line.partition("\t")
            ann_id = intern(ann_id)
            if "\t" in body:  # read leniently as a space
                fail_or_warn(f"tab inside the body of {ann_id}", line_no)
            pairs = body.split()
            if not pairs:
                raise StandoffError("event line needs a trigger field", doc_id, line_no)
            event_type, colon, trigger_ref = pairs[0].partition(":")
            if not (colon and event_type):
                raise StandoffError(f"malformed event trigger {pairs[0]!r}", doc_id, line_no)
            event_type = intern(event_type)
            trigger: str | None = trigger_ref
            if not trigger_ref:
                fail_or_warn(f"event {ann_id} has no trigger reference", line_no)
                trigger = None
            args: list[tuple[str, str]] = []
            for pair in pairs[1:]:
                role, colon, target = pair.partition(":")
                # \d is what str.isdecimal accepts: a role ending in no digit
                # has no suffix, and one of digits alone strips to empty.
                if role[-1:].isdecimal():
                    role = _ROLE_SUFFIX_RE.sub("", role)
                if not (colon and role and target):
                    fail_or_warn(f"malformed event argument {pair!r} on {ann_id}", line_no)
                    continue
                args.append((intern(role), target))
            raw_events.append((line_no, ann_id, event_type, trigger, args))

        elif kind == "A":
            ann_id, tab, body = line.partition("\t")
            ann_id = intern(ann_id)
            if not tab:
                raise StandoffError("attribute line needs a body", doc_id, line_no)
            if "\t" in body:  # read leniently as a space
                fail_or_warn(f"tab inside the body of {ann_id}", line_no)
            tokens = body.split()
            if len(tokens) < 2:
                raise StandoffError(f"malformed attribute {body!r}", doc_id, line_no)
            name, target = intern(tokens[0]), tokens[1]
            value = intern(" ".join(tokens[2:])) if len(tokens) > 2 else None
            raw_attrs.append((line_no, ann_id, name, target, value))

        elif not line.strip():
            continue

        elif kind in ("R", "N", "#", "M", "*"):
            ann_id = line.partition("\t")[0]
            fail_or_warn(f"unsupported annotation kind {kind!r} ({ann_id})", line_no)

        else:
            raise StandoffError(f"unrecognized annotation line {line!r}", doc_id, line_no)

    # Second pass: resolve references now that all text-bounds are known. A
    # resolved reference is the id object of the annotation it names.
    event_ids = {ann_id for _, ann_id, _, _, _ in raw_events}
    events: dict[str, EventAnnotation] = {}
    for line_no, ann_id, event_type, trigger, args in raw_events:
        if ann_id in events:
            raise StandoffError(f"duplicate id {ann_id}", doc_id, line_no)
        if trigger is not None:
            tb = text_bounds.get(trigger)
            if tb is None:
                raise StandoffError(f"event {ann_id} trigger {trigger} not found", doc_id, line_no)
            if tb.label != event_type:
                fail_or_warn(
                    f"event {ann_id} type {event_type} != trigger label {tb.label}", line_no
                )
            trigger = tb.id
        arguments = []
        for role, target in args:
            tb = text_bounds.get(target)
            if tb is not None:
                arguments.append((role, tb.id))
                continue
            if target in event_ids:
                raise StandoffError(
                    f"event {ann_id} argument {role} targets an event; only text-bound "
                    "arguments are supported",
                    doc_id,
                    line_no,
                )
            raise StandoffError(
                f"event {ann_id} argument {role} references unknown {target}", doc_id, line_no
            )
        events[ann_id] = EventAnnotation(ann_id, event_type, trigger, tuple(arguments))

    attributes: dict[str, AttributeAnnotation] = {}
    seen_name_target: dict[tuple[str, str], str] = {}
    for line_no, ann_id, name, target, value in raw_attrs:
        if ann_id in attributes:
            raise StandoffError(f"duplicate id {ann_id}", doc_id, line_no)
        owner = text_bounds.get(target) or events.get(target)
        if owner is None:
            raise StandoffError(
                f"attribute {ann_id} references unknown {target}", doc_id, line_no
            )
        target = owner.id
        if (name, target) in seen_name_target:
            fail_or_warn(
                f"attribute {ann_id} duplicates {name} on {target} "
                f"(first set by {seen_name_target[(name, target)]})",
                line_no,
            )
            continue
        seen_name_target[(name, target)] = ann_id
        attributes[ann_id] = AttributeAnnotation(ann_id, name, target, value)

    return Document(
        doc_id=doc_id,
        text=doc_text,
        text_bounds=text_bounds,
        events=events,
        attributes=attributes,
        metadata=metadata or DocumentMetadata(),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_document(doc: Document) -> str:
    """Render a document back to ``.ann`` text.

    Lines are emitted as a T block, then E, then A, each sorted by numeric
    id, so identical documents always serialize to identical bytes.
    Round-trips: ``parse_document(serialize_document(d), d.text)`` equals
    ``d`` structurally.
    """
    lines: list[str] = []
    for tb in sorted(doc.text_bounds.values(), key=lambda t: annotation_sort_key(t.id)):
        offsets = ";".join(f"{s} {e}" for s, e in tb.span.fragments)
        covered = _flatten_ws(tb.span.extract(doc.text))
        lines.append(f"{tb.id}\t{tb.label} {offsets}\t{covered}")
    for ev in sorted(doc.events.values(), key=lambda e: annotation_sort_key(e.id)):
        body = f"{ev.event_type}:{ev.trigger or ''}"
        role_counts: dict[str, int] = {}
        for role, target in ev.arguments:
            n = role_counts.get(role, 0) + 1
            role_counts[role] = n
            suffix = "" if n == 1 else str(n)
            body += f" {role}{suffix}:{target}"
        lines.append(f"{ev.id}\t{body}")
    for attr in sorted(doc.attributes.values(), key=lambda a: annotation_sort_key(a.id)):
        body = f"{attr.name} {attr.target}"
        if attr.value is not None:
            body += f" {attr.value}"
        lines.append(f"{attr.id}\t{body}")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Corpus I/O
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetadataRule:
    """Assigns (source, split) to documents whose doc_id or relative path
    starts with ``pattern``."""

    pattern: str
    source: str
    split: str


def parse_manifest(text: str) -> list[MetadataRule]:
    """Parse a corpus manifest: one ``pattern<TAB>source<TAB>split`` rule per
    line; ``#`` starts a comment. Commas are accepted in place of tabs. One
    leading U+FEFF (a UTF-8 byte-order mark) is dropped, as for ``.ann``."""
    if text.startswith("\ufeff"):
        text = text[1:]
    rules = []
    for line_no, line in enumerate(_lines(text), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in (line.split("\t") if "\t" in line else line.split(","))]
        if len(fields) != 3:
            raise StandoffError(f"manifest line {line_no}: expected pattern, source, split")
        pattern, source, split = fields
        if source not in SOURCES or split not in SPLITS:
            raise StandoffError(
                f"manifest line {line_no}: source must be one of {SOURCES} and split one of {SPLITS}"
            )
        rules.append(MetadataRule(pattern, source, split))
    return rules


def _metadata_for(rel_path: str, doc_id: str, rules: list[MetadataRule]) -> DocumentMetadata:
    for rule in rules:
        if doc_id == rule.pattern or rel_path.startswith(rule.pattern):
            return DocumentMetadata(source=rule.source, split=rule.split)
    # Fall back to directory-name conventions: any path component naming a
    # source or split assigns it.
    parts = rel_path.split("/")[:-1]
    source = next((p for p in parts if p in SOURCES), "other")
    split = next((p for p in parts if p in SPLITS), "unknown")
    return DocumentMetadata(source=source, split=split)


# Stray .ann files a load_corpus error names before it counts the rest.
_STRAY_NAMES_LISTED = 3


def load_corpus(
    directory: str | Path,
    manifest: str | Path | None = None,
    strict: bool = False,
) -> Corpus:
    """Load every ``<id>.txt`` / ``<id>.ann`` pair under ``directory``.

    A missing ``.ann`` yields a document with no annotations (a system may
    predict nothing for a note); a ``.ann`` without its ``.txt`` is an
    error. Metadata comes from manifest rules when given, else from
    directory-name conventions (path components named mimic/uw or
    train/dev/test).

    Note texts are interned like the parsed ids and vocabulary (see the
    module docstring), except on CPython 3.12, which never frees an
    interned string: equal texts, such as a note in a gold corpus and in a
    prediction loaded in the same process, may be one shared object.
    Callers rely on equality, not identity.
    """
    root = Path(directory)
    if not root.is_dir():
        raise StandoffError(f"corpus directory not found: {root}")
    # A load builds hundreds of thousands of records that form no cycles.
    # Full collections while it runs walk the growing heap and free nothing,
    # so the collector is paused and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        rules = []
        if manifest:
            manifest_text = _read_raw(Path(manifest))
            try:
                rules = parse_manifest(manifest_text)
            except StandoffError as exc:
                raise StandoffError(exc.message, str(manifest)) from None

        txt_files = sorted(root.rglob("*.txt"))
        stray_ann = [
            p for p in sorted(root.rglob("*.ann")) if not p.with_suffix(".txt").exists()
        ]
        if stray_ann:
            names = sorted(p.relative_to(root).as_posix() for p in stray_ann)
            listed = ", ".join(names[:_STRAY_NAMES_LISTED])
            if len(names) > _STRAY_NAMES_LISTED:
                listed += f" and {len(names) - _STRAY_NAMES_LISTED} more"
            raise StandoffError(
                f"{len(names)} annotation file{'s' if len(names) > 1 else ''} "
                f"without note text: {listed}",
                str(root),
            )

        corpus = Corpus()
        paths: dict[str, Path] = {}  # doc_id -> the note file that claimed it
        for txt_path in txt_files:
            doc_id = txt_path.stem
            if doc_id in paths:
                raise StandoffError(
                    f"duplicate doc_id {doc_id!r}: {paths[doc_id].relative_to(root).as_posix()} "
                    f"and {txt_path.relative_to(root).as_posix()}",
                    str(root),
                )
            paths[doc_id] = txt_path
            rel = txt_path.relative_to(root).with_suffix("").as_posix()
            text = _read_raw(txt_path)
            if _SHARE_NOTE_TEXTS:  # a prediction shares gold's text
                text = intern(text)
            metadata = _metadata_for(rel, doc_id, rules)
            ann_path = txt_path.with_suffix(".ann")
            if ann_path.exists():
                doc = parse_document(
                    _read_raw(ann_path), text, doc_id=doc_id, strict=strict, metadata=metadata
                )
            else:
                doc = Document(doc_id, text, metadata=metadata)
            corpus.add(doc)
        return corpus
    finally:
        if collecting:
            gc.enable()


def write_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write ``<id>.txt`` / ``<id>.ann`` pairs through the serializer."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for doc_id in corpus.doc_ids():
        doc = corpus[doc_id]
        (root / f"{doc_id}.txt").write_text(doc.text, encoding="utf-8", newline="")
        (root / f"{doc_id}.ann").write_text(
            serialize_document(doc), encoding="utf-8", newline=""
        )
