"""Deterministic synthetic corpora and analytic perturbations for property
tests, acceptance runs and the benchmark.

The generator synthesizes note text event by event so every span indexes a
real substring, and the output validates cleanly against the schema it was
built from. The perturber degrades a gold corpus at configured rates and
returns an edit log from which the expected tp/fn/fp tallies are computable
without running the scorer (``expected_counts``): the one oracle left here,
because the benchmark derives its expected tallies from it. The other test
oracles live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from .schema import LABELED, SPAN_ONLY, AnnotationSchema, ArgumentSpec, EventSpec
from .scoring import (
    LABELED_ARG,
    MISSING_SUBTYPE,
    SPAN_ONLY_ARG,
    TRIGGER,
    PhenomenonKey,
    ScoreCounts,
)
from .standoff import (
    AttributeAnnotation,
    Corpus,
    Document,
    DocumentMetadata,
    EventAnnotation,
    Span,
    TextBound,
    annotation_sort_key,
)

if TYPE_CHECKING:
    import numpy as np


class GeneratorError(Exception):
    """The generator config is invalid or infeasible for the schema."""


_DEFAULT_DENSITY = {0: 0.35, 1: 0.40, 2: 0.15, 3: 0.10}

_TRIGGER_WORDS = {
    "Alcohol": "drinking",
    "Drug": "substances",
    "Tobacco": "smoking",
    "Employment": "working",
    "LivingStatus": "housing",
}

# Inserted spurious events land on this line; it never carries gold spans.
_FILLER_LINE = "Nothing further was reported at the visit today thanks."


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for corpus synthesis and degradation.

    ``density`` maps event type -> {events per note: probability}; types
    not listed get no events (all types get a default mix when the whole
    mapping is omitted). Each note's count is drawn independently from
    ``density``, so a small corpus need not contain every listed count; a
    fixed count per note needs a one-point distribution such as
    ``{n: 1.0}``. ``subtype_dist`` maps argument type -> {subtype:
    probability}, defaulting to uniform over the schema vocabulary. The
    five rate fields are independent per-event / per-argument perturbation
    probabilities used by :func:`perturb`.
    """

    seed: int = 0
    notes: int = 20
    density: dict[str, dict[int, float]] | None = None
    subtype_dist: dict[str, dict[str, float]] | None = None
    trigger_shift: float = 0.0
    span_edit: float = 0.0
    subtype_flip: float = 0.0
    event_drop: float = 0.0
    event_insert: float = 0.0
    optional_argument_rate: float = 0.6
    duplicate_argument_rate: float = 0.15
    discontinuous_rate: float = 0.25
    partitions: tuple[tuple[str, str], ...] = (("mimic", "train"),)

    def __post_init__(self):
        if self.seed < 0:
            raise GeneratorError("seed must be non-negative")
        if self.notes < 0:
            raise GeneratorError("notes must be non-negative")
        for name in (
            "trigger_shift",
            "span_edit",
            "subtype_flip",
            "event_drop",
            "event_insert",
            "optional_argument_rate",
            "duplicate_argument_rate",
            "discontinuous_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise GeneratorError(f"{name} must be a probability, got {rate}")
        for label, dists in (("density", self.density), ("subtype_dist", self.subtype_dist)):
            for key, dist in (dists or {}).items():
                if not dist:
                    raise GeneratorError(f"{label}[{key!r}] is empty")
                total = sum(dist.values())
                if abs(total - 1.0) > 1e-9:
                    raise GeneratorError(f"{label}[{key!r}] probabilities sum to {total}, not 1")
        object.__setattr__(self, "partitions", tuple((s, p) for s, p in self.partitions))

    @classmethod
    def from_mapping(cls, data: dict) -> "GeneratorConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise GeneratorError(f"unknown generator config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "partitions" in kwargs:
            kwargs["partitions"] = tuple((str(s), str(p)) for s, p in kwargs["partitions"])
        if "density" in kwargs and kwargs["density"] is not None:
            kwargs["density"] = {
                str(t): {int(k): float(v) for k, v in d.items()}
                for t, d in kwargs["density"].items()
            }
        return cls(**kwargs)


def _draw(rng: np.random.Generator, dist: dict) -> object:
    import numpy as np

    keys = sorted(dist)
    probs = np.asarray([dist[k] for k in keys], dtype=float)
    return keys[int(rng.choice(len(keys), p=probs / probs.sum()))]


def _trigger_word(event_type: str) -> str:
    word = _TRIGGER_WORDS.get(event_type, event_type.lower())
    return word if len(word) >= 3 else word + "xxx"


class _DocBuilder:
    """Accumulates note text and annotations with offset bookkeeping."""

    def __init__(self, doc_id: str, metadata: DocumentMetadata):
        self.doc_id = doc_id
        self.metadata = metadata
        self.parts: list[str] = []
        self.pos = 0
        self.text_bounds: dict[str, TextBound] = {}
        self.events: dict[str, EventAnnotation] = {}
        self.attributes: dict[str, AttributeAnnotation] = {}
        self._t = self._e = self._a = 0

    def raw(self, text: str) -> None:
        self.parts.append(text)
        self.pos += len(text)

    def word(self, text: str) -> tuple[int, int]:
        start = self.pos
        self.raw(text)
        return (start, self.pos)

    def text_bound(self, label: str, fragments: tuple[tuple[int, int], ...]) -> TextBound:
        self._t += 1
        tb_id = f"T{self._t}"
        tb = TextBound(tb_id, label, Span(fragments))
        self.text_bounds[tb_id] = tb
        return tb

    def event(self, event_type: str, trigger: str, args: list[tuple[str, str]]) -> EventAnnotation:
        self._e += 1
        ev = EventAnnotation(f"E{self._e}", event_type, trigger, tuple(args))
        self.events[ev.id] = ev
        return ev

    def attribute(self, name: str, target: str, value: str) -> AttributeAnnotation:
        self._a += 1
        attr = AttributeAnnotation(f"A{self._a}", name, target, value)
        self.attributes[attr.id] = attr
        return attr

    def build(self) -> Document:
        return Document(
            doc_id=self.doc_id,
            text="".join(self.parts),
            text_bounds=self.text_bounds,
            events=self.events,
            attributes=self.attributes,
            metadata=self.metadata,
        )


def _subtype_dist_for(cfg: GeneratorConfig, spec: ArgumentSpec) -> dict[str, float]:
    dist = (cfg.subtype_dist or {}).get(spec.argument_type)
    if dist is None:
        return {s: 1.0 / len(spec.subtypes) for s in spec.subtypes}
    outside = set(dist) - set(spec.subtypes)
    if outside:
        raise GeneratorError(
            f"subtype_dist for {spec.argument_type} names subtypes outside the "
            f"vocabulary: {sorted(outside)}"
        )
    return dist


def _emit_event(
    builder: _DocBuilder,
    event_spec: EventSpec,
    rng: np.random.Generator,
    cfg: GeneratorConfig,
    schema: AnnotationSchema,
    serial: int,
) -> None:
    trigger_tb = builder.text_bound(
        event_spec.event_type, (builder.word(_trigger_word(event_spec.event_type)),)
    )
    pending: list[tuple[ArgumentSpec, TextBound, str | None]] = []  # with any subtype
    for spec in event_spec.arguments:
        if not spec.required and rng.random() >= cfg.optional_argument_rate:
            continue
        copies = 1
        if spec.kind == SPAN_ONLY and rng.random() < cfg.duplicate_argument_rate:
            copies = 2
        for copy in range(copies):
            builder.raw(" ")
            if spec.kind == LABELED:
                subtype = str(_draw(rng, _subtype_dist_for(cfg, spec)))
                tb = builder.text_bound(spec.argument_type, (builder.word(subtype),))
                pending.append((spec, tb, subtype))
            else:
                token = f"{spec.argument_type.lower()}{serial}{'x' * copy}"
                if rng.random() < cfg.discontinuous_rate:
                    first = builder.word(token)
                    builder.raw(" of ")
                    second = builder.word("span")
                    tb = builder.text_bound(spec.argument_type, (first, second))
                else:
                    tb = builder.text_bound(spec.argument_type, (builder.word(token),))
                pending.append((spec, tb, None))
    builder.raw(".\n")

    event = builder.event(
        event_spec.event_type,
        trigger_tb.id,
        [(spec.role, tb.id) for spec, tb, _ in pending],
    )
    for spec, tb, subtype in pending:
        if spec.kind == LABELED:
            carrier, name = schema.subtype_key(event.id, tb.id, spec)
            builder.attribute(name, carrier, subtype)


def generate_gold(cfg: GeneratorConfig, schema: AnnotationSchema) -> Corpus:
    """Synthesize a schema-valid corpus, reproducibly for a fixed seed."""
    import numpy as np

    rng = np.random.default_rng([cfg.seed, 0])
    corpus = Corpus()
    for i in range(cfg.notes):
        source, split = cfg.partitions[i % len(cfg.partitions)]
        builder = _DocBuilder(f"note{i:04d}", DocumentMetadata(source=source, split=split))
        serial = 0
        for event_spec in schema.events:
            if cfg.density is None:
                dist = _DEFAULT_DENSITY
            else:
                dist = cfg.density.get(event_spec.event_type, {0: 1.0})
            count = int(_draw(rng, dist))
            for _ in range(count):
                serial += 1
                _emit_event(builder, event_spec, rng, cfg, schema, serial)
        builder.raw(_FILLER_LINE + "\n")
        corpus.add(builder.build())
    return corpus


# ---------------------------------------------------------------------------
# Perturbation with an analytic edit log
# ---------------------------------------------------------------------------

OP_DROP = "drop"
OP_INSERT = "insert"
OP_SHIFT = "shift"
OP_SPAN = "span"
OP_FLIP = "flip"


@dataclass(frozen=True)
class Edit:
    """One applied perturbation and the phenomenon keys it touches."""

    doc_id: str
    op: str
    event_id: str
    event_type: str
    slots: tuple[PhenomenonKey, ...] = ()
    argument_kind: str | None = None
    span_key: PhenomenonKey | None = None
    old_key: PhenomenonKey | None = None
    new_key: PhenomenonKey | None = None


def _subtype_of(
    doc: Document, event: EventAnnotation, target: str, spec: ArgumentSpec,
    schema: AnnotationSchema,
) -> str:
    """A labeled argument's subtype by a plain scan of the note's
    attributes (the last one that matches wins), or the missing sentinel.
    The carrier rule is restated here rather than read from
    ``AnnotationSchema.subtype_key``, so a wrong rule cannot check itself."""
    carrier = event.id if schema.attributes_on_events else target
    value = None
    for attr in doc.attributes.values():
        if attr.target == carrier and attr.name == spec.attribute_name:
            value = attr.value
    return MISSING_SUBTYPE if value is None else value


def _slot_keys(
    doc: Document, event: EventAnnotation, schema: AnnotationSchema
) -> list[PhenomenonKey]:
    """Every slot an event fills, one key per occurrence: its trigger, then
    its span-only arguments, then its labeled arguments, each group sorted.
    Undeclared roles fill no slot. Written apart from the scorer, so the
    oracle shares no slot code with what it checks."""
    keys = [PhenomenonKey(TRIGGER, event.event_type)]
    event_spec = schema.event(event.event_type)
    if event_spec is None:
        return keys
    span_only: list[str] = []
    labeled: list[tuple[str, str]] = []
    for role, target in event.arguments:
        spec = event_spec.roles.get(role)
        if spec is None:
            continue
        if spec.kind == SPAN_ONLY:
            span_only.append(spec.argument_type)
        else:
            labeled.append((spec.argument_type, _subtype_of(doc, event, target, spec, schema)))
    keys.extend(PhenomenonKey(SPAN_ONLY_ARG, event.event_type, a) for a in sorted(span_only))
    keys.extend(
        PhenomenonKey(LABELED_ARG, event.event_type, a, subtype) for a, subtype in sorted(labeled)
    )
    return keys


def identity_counts(gold: Corpus, schema: AnnotationSchema) -> ScoreCounts:
    """The tallies a perfect prediction earns: every gold slot a tp."""
    out = ScoreCounts()
    for doc_id in gold.doc_ids():
        doc = gold[doc_id]
        for event in doc.events.values():
            for key in _slot_keys(doc, event, schema):
                out.tally(key, tp=1)
    return out


def expected_counts(gold: Corpus, edits: list[Edit], schema: AnnotationSchema) -> ScoreCounts:
    """Tallies score_corpus must produce for perturb's output, derived from
    the edit log alone."""
    out = identity_counts(gold, schema)
    for edit in edits:
        if edit.op == OP_DROP:
            for key in edit.slots:
                out.tally(key, tp=-1, fn=1)
        elif edit.op == OP_INSERT:
            for key in edit.slots:
                out.tally(key, fp=1)
        elif edit.op == OP_FLIP:
            out.tally(edit.old_key, tp=-1, fn=1)
            out.tally(edit.new_key, fp=1)
        elif edit.op == OP_SPAN and edit.argument_kind == SPAN_ONLY:
            out.tally(edit.span_key, tp=-1, fn=1, fp=1)
        # trigger shifts and labeled-argument span edits change nothing
    return out


def _widen_or_shrink(span: Span, text_len: int) -> Span | None:
    """Move the last fragment's end by one character; None if neither
    direction is possible (single-character fragment at text end)."""
    fragments = list(span.fragments)
    start, end = fragments[-1]
    if end < text_len:
        fragments[-1] = (start, end + 1)
    elif end - start >= 2:
        fragments[-1] = (start, end - 1)
    else:
        return None
    return Span(tuple(fragments))


_WORD_RE = re.compile(r"\S{3,}")


def _free_words(text: str, occupied: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Word spans overlapping no occupied fragment, last words first."""
    out = []
    for m in _WORD_RE.finditer(text):
        s, e = m.span()
        if all(e <= os or oe <= s for os, oe in occupied):
            out.append((s, e))
    out.reverse()
    return out


def _next_id(ids, prefix: str) -> str:
    best = 0
    for ann_id in ids:
        m = re.fullmatch(re.escape(prefix) + r"(\d+)", ann_id)
        if m:
            best = max(best, int(m.group(1)))
    return f"{prefix}{best + 1}"


def perturb(
    gold: Corpus, cfg: GeneratorConfig, schema: AnnotationSchema
) -> tuple[Corpus, list[Edit]]:
    """Degrade a gold corpus at the configured rates.

    Perturbations are applied independently per event / argument; inserted
    events get a fresh trigger on text no gold annotation covers, so every
    edit's effect on the tallies is exactly the one recorded in the log.
    Text-bounds shared between event slots would break that accounting and
    raise ValueError when an edit lands on one. All rates zero returns the
    input unchanged.
    """
    import numpy as np

    rng = np.random.default_rng([cfg.seed, 1])
    edits: list[Edit] = []
    out = Corpus()

    for doc_id in gold.doc_ids():
        doc = gold[doc_id]
        usage = {}
        for event in doc.events.values():
            for tb_id in [event.trigger, *(t for _, t in event.arguments)]:
                if tb_id is not None:
                    usage[tb_id] = usage.get(tb_id, 0) + 1

        def edit_tb(tb_id: str) -> None:
            if usage.get(tb_id, 0) > 1:
                raise ValueError(
                    f"{doc_id}: text-bound {tb_id} is shared between event slots; "
                    "perturbing it would break the edit log"
                )

        text_bounds = dict(doc.text_bounds)
        attributes = dict(doc.attributes)
        kept_events: dict[str, EventAnnotation] = {}
        dropped_events: list[EventAnnotation] = []

        for event in sorted(doc.events.values(), key=lambda e: annotation_sort_key(e.id)):
            if rng.random() < cfg.event_drop:
                dropped_events.append(event)
                edits.append(
                    Edit(
                        doc_id=doc_id,
                        op=OP_DROP,
                        event_id=event.id,
                        event_type=event.event_type,
                        slots=tuple(_slot_keys(doc, event, schema)),
                    )
                )
                continue

            event_spec = schema.event(event.event_type)
            if event.trigger is not None and rng.random() < cfg.trigger_shift:
                edit_tb(event.trigger)
                tb = text_bounds[event.trigger]
                start, end = tb.span.fragments[0]
                if end - start >= 2:
                    shifted = (start + 1, end)
                else:
                    shifted = (start, end + 1) if end < len(doc.text) else (start, end)
                new_span = Span((shifted, *tb.span.fragments[1:]))
                text_bounds[event.trigger] = replace(tb, span=new_span)
                edits.append(
                    Edit(doc_id=doc_id, op=OP_SHIFT, event_id=event.id, event_type=event.event_type)
                )

            for role, target in event.arguments:
                spec = event_spec.roles.get(role) if event_spec else None
                if spec is None:
                    continue
                if rng.random() < cfg.span_edit:
                    edit_tb(target)
                    tb = text_bounds[target]
                    new_span = _widen_or_shrink(tb.span, len(doc.text))
                    if new_span is not None:
                        text_bounds[target] = replace(tb, span=new_span)
                        edits.append(
                            Edit(
                                doc_id=doc_id,
                                op=OP_SPAN,
                                event_id=event.id,
                                event_type=event.event_type,
                                argument_kind=spec.kind,
                                span_key=(
                                    PhenomenonKey(
                                        SPAN_ONLY_ARG, event.event_type, spec.argument_type
                                    )
                                    if spec.kind == SPAN_ONLY
                                    else None
                                ),
                            )
                        )
                if spec.kind == LABELED and rng.random() < cfg.subtype_flip:
                    current = _subtype_of(doc, event, target, spec, schema)
                    alternatives = sorted(set(spec.subtypes) - {current})
                    if current not in spec.subtypes or not alternatives:
                        continue
                    new_subtype = str(alternatives[int(rng.integers(len(alternatives)))])
                    carrier, name = schema.subtype_key(event.id, target, spec)
                    if carrier == target:  # the text-bound carries the subtype
                        edit_tb(target)
                    for attr_id, attr in attributes.items():
                        if attr.target == carrier and attr.name == name:
                            attributes[attr_id] = replace(attr, value=new_subtype)
                            break
                    edits.append(
                        Edit(
                            doc_id=doc_id,
                            op=OP_FLIP,
                            event_id=event.id,
                            event_type=event.event_type,
                            old_key=PhenomenonKey(
                                LABELED_ARG, event.event_type, spec.argument_type, current
                            ),
                            new_key=PhenomenonKey(
                                LABELED_ARG, event.event_type, spec.argument_type, new_subtype
                            ),
                        )
                    )
            kept_events[event.id] = event

        # Inserted spurious events: fresh trigger on unannotated words.
        occupied = [f for tb in doc.text_bounds.values() for f in tb.span.fragments]
        free = _free_words(doc.text, occupied)
        for event_type in schema.event_types():
            if rng.random() < cfg.event_insert and free:
                s, e = free.pop(0)
                tb_id = _next_id(text_bounds, "T")
                text_bounds[tb_id] = TextBound(tb_id, event_type, Span.single(s, e))
                ev_id = _next_id(set(doc.events) | set(kept_events), "E")
                kept_events[ev_id] = EventAnnotation(ev_id, event_type, tb_id, ())
                edits.append(
                    Edit(
                        doc_id=doc_id,
                        op=OP_INSERT,
                        event_id=ev_id,
                        event_type=event_type,
                        slots=(PhenomenonKey(TRIGGER, event_type),),
                    )
                )

        # Remove text-bounds and attributes that only served dropped events.
        kept_refs = {
            tb_id
            for ev in kept_events.values()
            for tb_id in [ev.trigger, *(t for _, t in ev.arguments)]
            if tb_id is not None
        }
        dropped_refs = {
            tb_id
            for ev in dropped_events
            for tb_id in [ev.trigger, *(t for _, t in ev.arguments)]
            if tb_id is not None
        }
        for tb_id in dropped_refs - kept_refs:
            text_bounds.pop(tb_id, None)
        live_targets = set(text_bounds) | set(kept_events)
        attributes = {a_id: a for a_id, a in attributes.items() if a.target in live_targets}

        out.add(
            Document(
                doc_id=doc_id,
                text=doc.text,
                text_bounds=text_bounds,
                events=kept_events,
                attributes=attributes,
                metadata=doc.metadata,
            )
        )
    return out, edits
