"""Test-only oracles: scoring rules rewritten from the paper, sharing no code
with ``slotscore.scoring``.

``reference_score`` tallies one note pair from the three match rules of the
shared task's scorer (arXiv 2301.05571):

- a predicted event aligns with a gold event when the two have the same
  event type and triggers that share at least one character;
- a span-only argument of an aligned pair matches on its exact span;
- a labeled argument of an aligned pair matches on its subtype, whatever
  its span.

It works with list scans and removals: no slot multiset, no key objects, no
per-type buckets. It is slow on purpose and meant for small notes.

``oracle_align`` is the maximum-cardinality matching on the same trigger
rule, against which the greedy aligner's losses are counted on the random
note pairs of ``generate_alignment_case``.

``reference_stats`` and ``reference_validate`` restate ``corpus_stats`` and
``validate_corpus`` from the schema's declared rules alone: they scan
``schema.events`` and each event type's ``arguments`` lists, and find a
subtype by scanning the note's attributes for the carrier the schema's
``attributes_on_events`` names. They use no role table, no ``subtype_key``,
no attribute index and no walker of the package.

``reference_load_corpus`` finds a corpus's notes with pathlib: an
``iterdir`` walk that finds unlistable directories, two ``rglob`` walks, an
``is_dir()`` per name found and ``Path`` sorting.
``load_corpus``, which walks the directory once with ``os.walk``, must give
the same documents, in the same order, and the same errors.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from slotscore.schema import (
    LABELED,
    RULE_ARG_TYPE,
    RULE_ATTRIBUTE,
    RULE_EVENT_TYPE,
    RULE_REQUIRED,
    RULE_ROLE,
    RULE_SUBTYPE_MISSING,
    RULE_SUBTYPE_VOCAB,
    RULE_TRIGGER,
    AnnotationSchema,
    Violation,
)
from slotscore.standoff import (
    Corpus,
    Document,
    StandoffError,
    _metadata_for,
    annotation_sort_key,
    parse_document,
    parse_manifest,
)

MISSING = "<missing>"


def _trigger_fragments(doc: Document, event) -> tuple | None:
    if event.trigger is None or event.trigger not in doc.text_bounds:
        return None
    return doc.text_bounds[event.trigger].fragments


def _document_order(doc: Document) -> list:
    """Events by trigger start, then trigger end, then id (T2 before T10);
    events without a resolvable trigger come last, by id."""

    def key(event):
        frags = _trigger_fragments(doc, event)
        if frags is None:
            return (1, 0, 0, annotation_sort_key(event.id))
        return (0, frags[0][0], frags[-1][1], annotation_sort_key(event.id))

    return sorted(doc.events.values(), key=key)


def _share_a_character(a: tuple, b: tuple) -> bool:
    return any(s1 < e2 and s2 < e1 for s1, e1 in a for s2, e2 in b)


def reference_align(gold: Document, pred: Document) -> tuple[list, list, list]:
    """Greedy alignment: each gold event, in document order, takes the first
    still-free predicted event (document order) of its type whose trigger
    shares a character with its own. Returns (pairs, gold left, pred left)."""
    free = _document_order(pred)
    pairs, gold_left = [], []
    for g in _document_order(gold):
        g_frags = _trigger_fragments(gold, g)
        partner = None
        if g_frags is not None:
            for p in free:
                p_frags = _trigger_fragments(pred, p)
                if (p.event_type == g.event_type and p_frags is not None
                        and _share_a_character(g_frags, p_frags)):
                    partner = p
                    break
        if partner is None:
            gold_left.append(g)
        else:
            free.remove(partner)
            pairs.append((g, partner))
    return pairs, gold_left, free


def _slots(doc: Document, event, schema: AnnotationSchema) -> list:
    """The event's slots as a list of (key, match value): its trigger, then
    each argument whose role the schema declares for the event's type."""
    slots = [(("trigger", event.event_type, None, None), None)]
    specs = [s for s in schema.events if s.event_type == event.event_type]
    if not specs:
        return slots
    for role, target in event.arguments:
        arg = [a for a in specs[0].arguments if a.role == role]
        if not arg:
            continue
        arg = arg[0]
        if arg.kind == LABELED:
            carrier = event.id if schema.attributes_on_events else target
            values = [a.value for a in doc.attributes.values()
                      if a.target == carrier and a.name == arg.attribute_name]
            # the last attribute written wins, as in the standoff index
            subtype = values[-1] if values and values[-1] is not None else MISSING
            slots.append((("labeled_arg", event.event_type, arg.argument_type, subtype), subtype))
        else:
            span = doc.text_bounds[target].fragments
            slots.append((("span_only_arg", event.event_type, arg.argument_type, None), span))
    return slots


def reference_score(gold: Document, pred: Document, schema: AnnotationSchema) -> dict:
    """{(kind, event type, argument type, subtype): (tp, fn, fp)} for one
    note pair; cells that stay (0, 0, 0) are left out."""
    table: dict = {}

    def bump(key, column):
        cell = table.setdefault(key, [0, 0, 0])
        cell[column] += 1

    pairs, gold_left, pred_left = reference_align(gold, pred)
    for g, p in pairs:
        pred_slots = _slots(pred, p, schema)
        for slot in _slots(gold, g, schema):
            if slot in pred_slots:
                pred_slots.remove(slot)
                bump(slot[0], 0)
            else:
                bump(slot[0], 1)
        for slot in pred_slots:
            bump(slot[0], 2)
    for g in gold_left:
        for slot in _slots(gold, g, schema):
            bump(slot[0], 1)
    for p in pred_left:
        for slot in _slots(pred, p, schema):
            bump(slot[0], 2)
    return {key: tuple(cell) for key, cell in table.items()}


# ---------------------------------------------------------------------------
# Statistics and validation
# ---------------------------------------------------------------------------

def _declared(schema: AnnotationSchema, event_type: str):
    """The declared argument list of ``event_type``, or None if undeclared."""
    for spec in schema.events:
        if spec.event_type == event_type:
            return spec.arguments
    return None


def _carrier_attribute(doc: Document, event, target: str, arg, schema: AnnotationSchema):
    """The attribute naming ``arg``'s subtype: the last one written on the
    carrier (the event or the argument's text-bound), or None."""
    carrier = event.id if schema.attributes_on_events else target
    found = [a for a in doc.attributes.values()
             if a.target == carrier and a.name == arg.attribute_name]
    return found[-1] if found else None


def reference_stats(corpus: Corpus, schema: AnnotationSchema) -> dict:
    """``corpus_stats``'s fields as a dict, each table in sorted key order."""
    notes = [corpus[doc_id] for doc_id in corpus.doc_ids()]
    partitions, events, subtypes = {}, {}, {}

    def count(table, key):
        table[key] = table.get(key, 0) + 1

    for doc in notes:
        count(partitions, (doc.metadata.source, doc.metadata.split))
        for event in doc.events.values():
            count(events, event.event_type)
            for role, target in event.arguments:
                arg = [a for a in _declared(schema, event.event_type) or () if a.role == role]
                if not arg or arg[0].kind != LABELED:
                    continue
                attr = _carrier_attribute(doc, event, target, arg[0], schema)
                subtype = MISSING if attr is None or attr.value is None else attr.value
                count(subtypes, (event.event_type, arg[0].argument_type, subtype))
    return {
        "note_count": len(notes),
        "notes_by_partition": dict(sorted(partitions.items())),
        "events_by_type": dict(sorted(events.items())),
        "avg_events_per_note": {t: c / len(notes) for t, c in sorted(events.items())},
        "subtype_frequencies": dict(sorted(subtypes.items())),
    }


def reference_validate(corpus: Corpus, schema: AnnotationSchema) -> list:
    """Every note's violations in doc_id order, each note's ordered by
    annotation id, then rule, then as found."""
    out = []
    for doc_id in corpus.doc_ids():
        doc = corpus[doc_id]
        found, sanctioned = [], []

        def report(annotation_id, rule, message):
            found.append(Violation(doc_id, annotation_id, rule, message))

        for event in doc.events.values():
            arguments = _declared(schema, event.event_type)
            if arguments is None:
                report(event.id, RULE_EVENT_TYPE,
                       f"event type {event.event_type} is not declared")
                continue
            if event.trigger not in doc.text_bounds:
                report(event.id, RULE_TRIGGER, f"event {event.id} has no resolvable trigger")
            roles = []
            for role, target in event.arguments:
                arg = [a for a in arguments if a.role == role]
                if not arg:
                    report(event.id, RULE_ROLE,
                           f"role {role} is not declared for event type {event.event_type}")
                    continue
                arg = arg[0]
                roles.append(role)
                if target in doc.text_bounds and doc.text_bounds[target].label != arg.argument_type:
                    report(event.id, RULE_ARG_TYPE,
                           f"argument {target} has label {doc.text_bounds[target].label}, "
                           f"expected {arg.argument_type}")
                if arg.kind != LABELED:
                    continue
                carrier = event.id if schema.attributes_on_events else target
                sanctioned.append((carrier, arg.attribute_name))
                attr = _carrier_attribute(doc, event, target, arg, schema)
                if attr is None or attr.value is None:
                    report(event.id, RULE_SUBTYPE_MISSING,
                           f"labeled argument {arg.argument_type} on {event.id} has no "
                           f"{arg.attribute_name} attribute")
                elif attr.value not in arg.subtypes:
                    report(attr.id, RULE_SUBTYPE_VOCAB,
                           f"subtype {attr.value!r} is not in the {arg.argument_type} vocabulary")
            for arg in arguments:
                if arg.required and arg.role not in roles:
                    report(event.id, RULE_REQUIRED,
                           f"event {event.id} is missing required argument {arg.argument_type}")
        for attr in doc.attributes.values():
            if (attr.target, attr.name) not in sanctioned:
                report(attr.id, RULE_ATTRIBUTE,
                       f"attribute {attr.name} on {attr.target} is not sanctioned by the schema")
        out += sorted(found, key=lambda v: (annotation_sort_key(v.annotation_id), v.rule))
    return out


# ---------------------------------------------------------------------------
# Maximum matching
# ---------------------------------------------------------------------------

ORACLE_EVENT_CAP = 12


def oracle_align(gold: Document, pred: Document) -> list:
    """Maximum-cardinality matching on the trigger-equivalence graph, as a
    list of (gold, pred) event pairs. Augmenting-path search per event type,
    capped at 12 events per type per note; events without a resolvable
    trigger match nothing."""
    by_type: dict = {}
    for doc, side in ((gold, 0), (pred, 1)):
        for event in sorted(doc.events.values(), key=lambda e: annotation_sort_key(e.id)):
            frags = _trigger_fragments(doc, event)
            if frags is not None:
                by_type.setdefault(event.event_type, ([], []))[side].append((event, frags))

    pairs = []
    for event_type in sorted(by_type):
        golds, preds = by_type[event_type]
        if len(golds) > ORACLE_EVENT_CAP or len(preds) > ORACLE_EVENT_CAP:
            raise ValueError(
                f"oracle_align capped at {ORACLE_EVENT_CAP} events per type; "
                f"{event_type} has {len(golds)} gold / {len(preds)} predicted"
            )
        adjacency = [
            [j for j, (_, p_frags) in enumerate(preds) if _share_a_character(g_frags, p_frags)]
            for _, g_frags in golds
        ]
        match_to_gold = [-1] * len(preds)

        def try_assign(u: int, seen: set) -> bool:
            for v in adjacency[u]:
                if v in seen:
                    continue
                seen.add(v)
                if match_to_gold[v] == -1 or try_assign(match_to_gold[v], seen):
                    match_to_gold[v] = u
                    return True
            return False

        for u in range(len(golds)):
            try_assign(u, set())
        pairs.extend((golds[u][0], preds[v][0]) for v, u in enumerate(match_to_gold) if u != -1)
    return pairs


def generate_alignment_case(
    seed: int, max_events: int = 4, window: int = 40, event_type: str = "Drug"
) -> tuple[Document, Document]:
    """A random gold/pred note pair of trigger-only events whose spans may
    overlap arbitrarily, for stressing the greedy aligner against the
    oracle. Overlap is common, but configurations where greedy matching is
    suboptimal stay rare."""
    rng = np.random.default_rng([seed, 2])
    text = "x" * window + "\n"

    def build(doc_id: str) -> Document:
        lines = []
        for i in range(1, int(rng.integers(0, max_events + 1)) + 1):
            width = int(rng.integers(3, 11))
            start = int(rng.integers(0, window - width))
            lines.append(f"T{i}\t{event_type} {start} {start + width}\t{'x' * width}\n")
            lines.append(f"E{i}\t{event_type}:T{i}\n")
        return parse_document("".join(lines), text, doc_id, strict=True)

    return build("gold"), build("pred")


# ---------------------------------------------------------------------------
# Note discovery
# ---------------------------------------------------------------------------

def _check_listable(directory: Path) -> None:
    """Raise, naming it, on the first directory at or below ``directory``,
    not through a symlink, that ``Path.iterdir`` cannot list."""
    try:
        children = sorted(directory.iterdir())
    except OSError as exc:
        raise StandoffError(
            f"cannot list {directory}: [Errno {exc.errno}] {exc.strerror}"
        ) from exc
    for child in children:
        if child.is_dir() and not child.is_symlink():
            _check_listable(child)


def reference_note_files(root: Path) -> tuple[list[Path], set[Path]]:
    """Every ``<id>.txt`` below ``root`` in ``Path`` order, and the set of
    every ``<id>.ann``, as ``Path.rglob`` finds them: names matched
    case-sensitively, symlinked directories not descended. A directory that
    cannot be listed is an error, found first by a walk of its own, since
    ``rglob`` skips it. A name that is only the suffix, and a directory or a
    symlink to one, are dropped."""
    _check_listable(root)

    def files(suffix: str) -> list[Path]:
        return [p for p in root.rglob("*" + suffix) if p.name != suffix and not p.is_dir()]

    return sorted(files(".txt")), set(files(".ann"))


def _read_text(path: Path) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StandoffError(f"cannot read {path}: {exc}") from exc


def reference_load_corpus(directory, manifest=None, strict: bool = False) -> Corpus:
    """``load_corpus`` on ``reference_note_files``, reading in text mode,
    without the collector pause or the load's sharing tables."""
    root = Path(directory)
    if not root.is_dir():
        raise StandoffError(f"corpus directory not found: {root}")
    rules = []
    if manifest:
        try:
            rules = parse_manifest(_read_text(Path(manifest)))
        except StandoffError as exc:
            raise StandoffError(exc.message, str(manifest)) from None
    txt_files, ann_files = reference_note_files(root)
    stray_ann = ann_files - {p.with_suffix(".ann") for p in txt_files}
    if stray_ann:
        names = sorted(p.relative_to(root).as_posix() for p in stray_ann)
        listed = ", ".join(names[:3]) + (f" and {len(names) - 3} more" if len(names) > 3 else "")
        raise StandoffError(
            f"{len(names)} annotation file{'s' if len(names) > 1 else ''} "
            f"without note text: {listed}",
            str(root),
        )
    corpus = Corpus()
    paths: dict[str, Path] = {}
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
        text = _read_text(txt_path)
        metadata = _metadata_for(rel, doc_id, rules)
        ann_path = txt_path.with_suffix(".ann")
        if ann_path in ann_files:
            doc = parse_document(
                _read_text(ann_path), text, doc_id=doc_id, strict=strict, metadata=metadata
            )
        else:
            doc = Document(doc_id, text, metadata=metadata)
        corpus.add(doc)
    return corpus
