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

A load shares repeated values through two tables of its own, which live
only while it runs. One maps each offset token to its int, so the load
holds one int per distinct token. The other maps each repeated string
(annotation ids, labels, event types, roles, attribute names and values)
and each ``(role, target)`` argument pair to the first equal object seen;
one dict holds both, because a tuple never equals a str. Offsets have a
table of their own so that an attribute value ``7`` stays a str. An
event's trigger and argument targets and an attribute's target are the
very id objects of the annotations they name. ``load_corpus`` keeps the
tables for all of its notes and drops them when it returns;
``parse_document`` makes fresh ones per call. So two loads share nothing,
and no load adds to a table the process keeps. Note texts go in no table,
since each is distinct within a load, and fragment tuples are never
shared. Callers compare by equality and must not rely on identity either
way. A text-bound stores no copy of the text it covers, which is
``tb.covered(doc.text)``.

The offset table also gives most T lines a short path. When a line's
offsets are two tokens split by one space and both are keys of the table,
its span is ``((start, end),)`` if ``start < end <= len(text)``. Any other
line goes through the full offsets parser, which words every error. The
path is exact: a key is a token ``str.split()`` made and ``int()`` accepted,
so it holds no whitespace and no ``;``, and the full parser reads the line
the same way. No value in the table is negative, since a negative offset
fails its span and that ends the load. Text-bounds, events and attributes
are built through their slot descriptors (``object.__new__`` and each
field's setter), not the frozen ``__init__``, which would check nothing
more: a text-bound's fragments are checked as they are parsed, and events
and attributes have no ``__post_init__``.
"""

from __future__ import annotations

import gc
import logging
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import index
from pathlib import Path

logger = logging.getLogger(__name__)

SOURCES = ("mimic", "uw", "other")
SPLITS = ("train", "dev", "test", "unknown")

_ID_RE = re.compile(r"^([A-Za-z#*]+)(\d*)$")


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


def _checked(fragments) -> tuple[tuple[int, int], ...]:
    """``fragments`` as a tuple of ``(start, end)`` int pairs. ValueError
    unless there is one at least, each has ``0 <= start < end``, and they
    are sorted and do not overlap."""
    # index(), unlike int(), refuses a float or string offset (TypeError).
    frags = tuple((index(s), index(e)) for s, e in fragments)
    if not frags:
        raise ValueError("a span needs at least one fragment")
    prev_end = -1
    for start, end in frags:
        if start < 0 or end <= start:
            raise ValueError(f"invalid fragment ({start}, {end})")
        if start < prev_end:
            raise ValueError("fragments must be sorted and non-overlapping")
        prev_end = end
    return frags


def _covered(fragments: tuple[tuple[int, int], ...], text: str) -> str:
    if len(fragments) == 1:
        start, end = fragments[0]
        return text[start:end]
    return " ".join(text[s:e] for s, e in fragments)


@dataclass(frozen=True, slots=True)
class TextBound:
    """An annotated span with a type label. Its fragments are sorted,
    non-overlapping, half-open ``(start, end)`` offsets; a discontinuous
    span has more than one."""

    id: str
    label: str
    fragments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "fragments", _checked(self.fragments))

    def covered(self, text: str) -> str:
        """Fragment substrings of ``text`` joined by a single space."""
        return _covered(self.fragments, text)


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


def _read_raw(path: str | Path) -> str:
    """File text with line endings untouched: BRAT offsets count every code
    point of the file, CR included, and a leading U+FEFF. The bytes are read
    unbuffered and decoded in one piece, so a decode error gives its position
    in the file. A file that cannot be read or decoded raises a StandoffError
    naming it."""
    try:
        with open(path, "rb", buffering=0) as f:
            return f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StandoffError(f"cannot read {path}: {exc}") from exc


# Slot descriptors' setters: the parser builds each record through these, as
# the frozen __init__ would, without its per-field object.__setattr__ calls.
_new = object.__new__
_set_id = TextBound.id.__set__
_set_label = TextBound.label.__set__
_set_fragments = TextBound.fragments.__set__
_set_event_id = EventAnnotation.id.__set__
_set_event_type = EventAnnotation.event_type.__set__
_set_trigger = EventAnnotation.trigger.__set__
_set_arguments = EventAnnotation.arguments.__set__
_set_attribute_id = AttributeAnnotation.id.__set__
_set_name = AttributeAnnotation.name.__set__
_set_target = AttributeAnnotation.target.__set__
_set_value = AttributeAnnotation.value.__set__


def _parse_fragments(offsets: str, doc_id: str, line_no: int,
                     ints: dict[str, int]) -> tuple[tuple[int, int], ...]:
    # int() raises ValueError on a token that is not an integer, and also on
    # one of more digits than the interpreter converts (4,300 by default).
    # ``ints`` maps each offset token int() accepted before to its int.
    fragments = []
    try:
        for part in offsets.split(";"):
            pieces = part.split()
            if len(pieces) != 2:
                raise StandoffError(f"malformed span offsets {offsets!r}", doc_id, line_no)
            first, last = pieces
            start = ints.get(first)
            if start is None:
                start = ints[first] = int(first)
            end = ints.get(last)
            if end is None:
                end = ints[last] = int(last)
            fragments.append((start, end))
    except ValueError:
        raise StandoffError(f"non-integer span offsets {offsets!r}", doc_id, line_no) from None
    fragments.sort()
    try:
        return _checked(fragments)
    except ValueError as exc:
        raise StandoffError(f"invalid span {offsets!r}: {exc}", doc_id, line_no) from None


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
    covered text is ``tb.covered(doc_text)``. In lenient mode (the
    default), a stated text unlike the note is a warning, unsupported line
    kinds are skipped, and trigger-less events are admitted for the
    validator to report; strict mode turns all of those into errors.

    Raises StandoffError for malformed syntax, out-of-bounds offsets,
    dangling references, and duplicate ids in either mode.
    """
    return _parse(ann_text, doc_text, doc_id, strict, metadata, {}, {})


def _parse(
    ann_text: str,
    doc_text: str,
    doc_id: str,
    strict: bool,
    metadata: DocumentMetadata | None,
    ints: dict[str, int],
    shared: dict,
) -> Document:
    """``parse_document`` over a load's two tables (see the module
    docstring): ``ints`` maps offset tokens to their ints, and ``shared``
    maps each string and argument pair to the first equal one. ``load_corpus``
    passes the same two for every note it loads."""
    if ann_text.startswith("\ufeff"):
        ann_text = ann_text[1:]
    text_bounds: dict[str, TextBound] = {}
    raw_events: list[tuple[int, str, str, str | None, list[tuple[str, str]]]] = []
    raw_attrs: list[tuple[int, str, str, str, str | None]] = []

    def fail_or_warn(message: str, line_no: int) -> None:
        if strict:
            raise StandoffError(message, doc_id, line_no)
        logger.warning("%s:%d: %s", doc_id or "<input>", line_no, message)

    share = shared.setdefault
    text_len = len(doc_text)
    for line_no, line in enumerate(_lines(ann_text), start=1):
        kind = line[:1]  # no T, E or A line is blank
        if kind == "T":
            ann_id, tab, rest = line.partition("\t")
            ann_id = share(ann_id, ann_id)  # T1, E1, ... recur in every note
            if not tab:
                raise StandoffError("text-bound line needs type and offsets", doc_id, line_no)
            header, _, stated_text = rest.partition("\t")  # the rest keeps its tabs
            label, space, offsets = header.partition(" ")
            if not space:
                raise StandoffError(f"malformed text-bound header {header!r}", doc_id, line_no)
            # The short path of the module docstring: two tokens the load has
            # converted. No value of ``ints`` is negative (a negative offset
            # ends the load), so 0 <= start holds without a test.
            first, _, last = offsets.partition(" ")
            start = ints.get(first)
            end = ints.get(last)
            if start is not None and end is not None and start < end <= text_len:
                fragments = ((start, end),)
                covered = doc_text[start:end]
            else:
                fragments = _parse_fragments(offsets, doc_id, line_no, ints)
                if fragments[-1][1] > text_len:
                    raise StandoffError(
                        f"span {fragments} exceeds text length {text_len}", doc_id, line_no
                    )
                covered = _covered(fragments, doc_text)
            if not _states(stated_text, covered):
                message = (
                    f"covered text mismatch for {ann_id}: file says {stated_text!r}, "
                    f"text has {covered!r}"
                )
                fail_or_warn(message, line_no)
            if ann_id in text_bounds:
                raise StandoffError(f"duplicate id {ann_id}", doc_id, line_no)
            # Equal to TextBound(ann_id, label, fragments), without the frozen
            # __init__ and the check the fragments have passed
            tb = _new(TextBound)
            _set_id(tb, ann_id)
            _set_label(tb, share(label, label))
            _set_fragments(tb, fragments)
            text_bounds[ann_id] = tb

        elif kind == "E":
            ann_id, _, body = line.partition("\t")
            ann_id = share(ann_id, ann_id)
            if "\t" in body:  # read leniently as a space
                fail_or_warn(f"tab inside the body of {ann_id}", line_no)
            pairs = body.split()
            if not pairs:
                raise StandoffError("event line needs a trigger field", doc_id, line_no)
            event_type, colon, trigger_ref = pairs[0].partition(":")
            if not (colon and event_type):
                raise StandoffError(f"malformed event trigger {pairs[0]!r}", doc_id, line_no)
            event_type = share(event_type, event_type)
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
                args.append((share(role, role), target))
            raw_events.append((line_no, ann_id, event_type, trigger, args))

        elif kind == "A":
            ann_id, tab, body = line.partition("\t")
            ann_id = share(ann_id, ann_id)
            if not tab:
                raise StandoffError("attribute line needs a body", doc_id, line_no)
            if "\t" in body:  # read leniently as a space
                fail_or_warn(f"tab inside the body of {ann_id}", line_no)
            tokens = body.split()
            if len(tokens) < 2:
                raise StandoffError(f"malformed attribute {body!r}", doc_id, line_no)
            name, target = share(tokens[0], tokens[0]), tokens[1]
            value = " ".join(tokens[2:])
            value = share(value, value) if len(tokens) > 2 else None
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
                pair = (role, tb.id)
                arguments.append(share(pair, pair))
                continue
            if any(target == raw[1] for raw in raw_events):
                raise StandoffError(
                    f"event {ann_id} argument {role} targets an event; only text-bound "
                    "arguments are supported",
                    doc_id,
                    line_no,
                )
            raise StandoffError(
                f"event {ann_id} argument {role} references unknown {target}", doc_id, line_no
            )
        # Equal to EventAnnotation(ann_id, event_type, trigger, tuple(arguments))
        event = _new(EventAnnotation)
        _set_event_id(event, ann_id)
        _set_event_type(event, event_type)
        _set_trigger(event, trigger)
        _set_arguments(event, tuple(arguments))
        events[ann_id] = event

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
        # Equal to AttributeAnnotation(ann_id, name, target, value)
        attr = _new(AttributeAnnotation)
        _set_attribute_id(attr, ann_id)
        _set_name(attr, name)
        _set_target(attr, target)
        _set_value(attr, value)
        attributes[ann_id] = attr

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
        offsets = ";".join(f"{s} {e}" for s, e in tb.fragments)
        covered = _flatten_ws(tb.covered(doc.text))
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


# One frozen record per valid (source, split), shared by every note that has it.
_shared_metadata = lru_cache(maxsize=len(SOURCES) * len(SPLITS))(DocumentMetadata)


def _metadata_for(rel_path: str, doc_id: str, rules: list[MetadataRule]) -> DocumentMetadata:
    for rule in rules:
        if doc_id == rule.pattern or rel_path.startswith(rule.pattern):
            return _shared_metadata(rule.source, rule.split)
    # Fall back to directory-name conventions: any path component naming a
    # source or split assigns it.
    parts = rel_path.split("/")[:-1]
    source = next((p for p in parts if p in SOURCES), "other")
    split = next((p for p in parts if p in SPLITS), "unknown")
    return _shared_metadata(source, split)


# Names an error lists before it counts the rest.
_NAMES_LISTED = 3


def _summary(names: list[str] | set[str], noun: str, qualifier: str) -> str:
    """One line for an error about many names: ``"5 <noun>s <qualifier>: a,
    b, c and 2 more"``, listing the first names in sorted order."""
    names = sorted(names)
    listed = ", ".join(names[:_NAMES_LISTED])
    if len(names) > _NAMES_LISTED:
        listed += f" and {len(names) - _NAMES_LISTED} more"
    return f"{len(names)} {noun}{'s' if len(names) > 1 else ''} {qualifier}: {listed}"


def _prefix(root: str) -> str:
    """What names a path below ``root`` as pathlib joins it: "./x" is "x"."""
    return "" if root == "." else os.path.join(root, "")


def _note_files(root: str) -> tuple[list[str], set[str]]:
    """The files below ``root`` named ``<id>.txt`` and ``<id>.ann`` with a
    non-empty ``<id>``: ``(notes, annotations)``, each a name relative to
    ``root`` with ``/`` between its parts. ``os.walk`` lists a directory, or
    a symlink to one, among the directories, so it is never a note; it does
    not descend a symlinked directory. A directory it cannot list raises a
    StandoffError that names it, since skipping it would leave its notes out
    of the corpus without a word. ``notes`` is in the order of the names'
    parts, so ``a/b.txt`` comes before ``a-c.txt``.
    """
    def unlistable(exc: OSError) -> None:
        rel = exc.filename[len(root):].lstrip(os.sep)
        shown = _prefix(root) + rel if rel else root
        raise StandoffError(f"cannot list {shown}: [Errno {exc.errno}] {exc.strerror}") from exc

    notes: list[str] = []
    annotations: set[str] = set()
    for dirpath, _, filenames in os.walk(root, onerror=unlistable):
        prefix = dirpath[len(root):].lstrip(os.sep)
        prefix = prefix + "/" if prefix else ""
        for name in filenames:
            if len(name) > 4:  # a name that is only the suffix has no <id>
                if name.endswith(".txt"):
                    notes.append(prefix + name)
                elif name.endswith(".ann"):
                    annotations.add(prefix + name)
    notes.sort(key=lambda rel: rel.split("/"))
    return notes, annotations


def load_corpus(
    directory: str | Path,
    manifest: str | Path | None = None,
    strict: bool = False,
) -> Corpus:
    """Load every ``<id>.txt`` / ``<id>.ann`` pair under ``directory``.

    A file named ``<id>.txt`` below ``directory`` is a note, and ``<id>``,
    which must not be empty, is its doc_id; ``<id>.ann`` beside it holds
    its annotations. Suffixes are matched case-sensitively, and a directory
    is never a note. Subdirectories are searched, but not through symlinks.
    Notes are loaded in the order of their path parts relative to
    ``directory`` (``a/b.txt`` before ``a-c.txt``). Two notes with one
    doc_id, an ``.ann`` without its ``.txt``, a subdirectory that cannot be
    listed, and a listed file that cannot be read, such as a dangling
    symlink, are errors that name them. A note without an ``.ann`` has no
    annotations: a system may predict nothing for a note.

    Metadata comes from manifest rules when given, else from directory-name
    conventions (path components named mimic/uw or train/dev/test); notes
    with equal metadata share one ``DocumentMetadata``.

    What a load shares between its notes, and for how long, is stated in
    the module docstring.
    """
    root = Path(directory)
    if not root.is_dir():
        if root.exists():
            raise StandoffError(f"not a directory: {root}")
        raise StandoffError(f"corpus directory not found: {root}")
    root_name = str(root)
    root_prefix = _prefix(root_name)
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

        notes, annotations = _note_files(root_name)
        present = set(notes)
        stray = [ann for ann in annotations if ann[:-4] + ".txt" not in present]
        if stray:
            raise StandoffError(_summary(stray, "annotation file", "without note text"), root_name)

        corpus = Corpus()
        ints: dict[str, int] = {}  # the load's tables; see the module docstring
        shared: dict = {}
        claimed: dict[str, str] = {}  # doc_id -> the note file that claimed it
        for txt in notes:
            rel = txt[:-4]
            doc_id = rel.rpartition("/")[2]
            if doc_id in claimed:
                raise StandoffError(
                    f"duplicate doc_id {doc_id!r}: {claimed[doc_id]} and {txt}", root_name
                )
            claimed[doc_id] = txt
            text = _read_raw(root_prefix + txt)
            metadata = _metadata_for(rel, doc_id, rules)
            ann = rel + ".ann"
            if ann in annotations:
                ann_text = _read_raw(root_prefix + ann)
                doc = _parse(ann_text, text, doc_id, strict, metadata, ints, shared)
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
