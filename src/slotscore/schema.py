"""Event annotation schemes: declaration, loading, and document validation.

A schema declares the event types, the argument each role connects, whether
an argument is scored by span (span_only) or by normalized label (labeled),
the subtype vocabulary of labeled arguments, and which arguments are
required. The social-history scheme ships as the built-in default; any
other scheme loads from a YAML config with the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .standoff import Document, annotation_sort_key

SPAN_ONLY = "span_only"
LABELED = "labeled"


class SchemaError(Exception):
    """The schema config is malformed or self-inconsistent."""


@dataclass(frozen=True)
class ArgumentSpec:
    """One argument slot of an event type.

    ``role`` is the connector written on event lines; ``argument_type`` is
    the label of the argument's text-bound. Labeled arguments carry their
    subtype in a standoff attribute named ``attribute_name`` (defaults to
    the argument type).
    """

    argument_type: str
    role: str
    kind: str
    subtypes: tuple[str, ...] = ()
    required: bool = False
    attribute_name: str | None = None

    def __post_init__(self):
        if self.kind not in (SPAN_ONLY, LABELED):
            raise SchemaError(f"unknown argument kind {self.kind!r} for {self.argument_type}")
        if self.kind == LABELED:
            if not self.subtypes:
                raise SchemaError(f"labeled argument {self.argument_type} needs subtypes")
            if self.attribute_name is None:
                object.__setattr__(self, "attribute_name", self.argument_type)
        else:
            if self.subtypes or self.attribute_name is not None:
                raise SchemaError(
                    f"span-only argument {self.argument_type} cannot carry subtypes "
                    "or an attribute name"
                )
        object.__setattr__(self, "subtypes", tuple(self.subtypes))


@dataclass(frozen=True)
class EventSpec:
    """One event type and its argument slots.

    ``roles`` maps each role to its ``ArgumentSpec``, so an event line's
    ``role:target`` pair resolves with ``roles.get(role)`` (None for an
    undeclared role). It is built once from ``arguments`` and, like a
    ``Document``'s dicts, is read-only by convention.
    """

    event_type: str
    arguments: tuple[ArgumentSpec, ...] = ()
    roles: dict[str, ArgumentSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arguments", tuple(self.arguments))
        roles = [a.role for a in self.arguments]
        if len(set(roles)) != len(roles):
            raise SchemaError(f"duplicate roles in event type {self.event_type}")
        arg_types = [a.argument_type for a in self.arguments]
        if len(set(arg_types)) != len(arg_types):
            raise SchemaError(f"duplicate argument types in event type {self.event_type}")
        object.__setattr__(self, "roles", {a.role: a for a in self.arguments})

    def required_arguments(self) -> tuple[ArgumentSpec, ...]:
        return tuple(a for a in self.arguments if a.required)


@dataclass(frozen=True)
class AnnotationSchema:
    """An immutable, shareable declaration of an event annotation scheme.

    ``attributes_on_events`` says which annotation carries a labeled
    argument's subtype attribute: the argument's text-bound (False) or the
    event (True). ``subtype_key`` is the one statement of that rule.
    """

    events: tuple[EventSpec, ...]
    version: str = ""
    attributes_on_events: bool = False
    _by_type: dict[str, EventSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        types = [e.event_type for e in self.events]
        if len(set(types)) != len(types):
            raise SchemaError("duplicate event types in schema")
        object.__setattr__(self, "_by_type", {e.event_type: e for e in self.events})

    def event(self, event_type: str) -> EventSpec | None:
        return self._by_type.get(event_type)

    def event_types(self) -> tuple[str, ...]:
        return tuple(e.event_type for e in self.events)

    def subtype_key(self, event_id: str, target: str, spec: ArgumentSpec) -> tuple[str, str]:
        """Where the subtype of a labeled argument (``spec``, filled by text-bound
        ``target`` on event ``event_id``) lives: the ``(carrier id, attribute
        name)`` key of ``Document.attribute_index()``."""
        return (event_id if self.attributes_on_events else target, spec.attribute_name)


def canonical_name(name: str) -> str:
    """Strip spaces from display names ("Status Time" -> StatusTime)."""
    return name.replace(" ", "")


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def load_schema(config_text: str) -> AnnotationSchema:
    """Build a schema from YAML config text.

    Expected structure::

        version: my-scheme-1
        attributes_on_events: false        # optional; true or false
        events:
          - type: Drug
            arguments:
              - {type: StatusTime, role: Status, kind: labeled,
                 required: true, subtypes: [none, current, past]}
              - {type: Type, role: Type, kind: span_only}
    """
    try:
        data = yaml.safe_load(config_text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, dict) or "events" not in data:
        raise SchemaError("config must be a mapping with an 'events' list")

    known_top = {"version", "attributes_on_events", "events"}
    unknown = set(data) - known_top
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    attributes_on_events = data.get("attributes_on_events", False)
    if not isinstance(attributes_on_events, bool):
        raise SchemaError(
            f"'attributes_on_events' must be true or false, got {attributes_on_events!r}"
        )
    entries = data["events"] or []
    if not isinstance(entries, list):
        raise SchemaError(f"'events' must be a list, got {entries!r}")

    events = []
    for entry in entries:
        if not isinstance(entry, dict) or "type" not in entry:
            raise SchemaError(f"event entry needs a 'type': {entry!r}")
        event = entry["type"]
        arguments = entry.get("arguments") or []
        if not isinstance(arguments, list):
            raise SchemaError(f"'arguments' of event {event} must be a list, got {arguments!r}")
        args = []
        for arg in arguments:
            if not isinstance(arg, dict):
                raise SchemaError(
                    f"'arguments' entry in event {event} must be a mapping, got {arg!r}"
                )
            known = {"type", "role", "kind", "subtypes", "required", "attribute"}
            unknown = set(arg) - known
            if unknown:
                raise SchemaError(f"unknown argument keys {sorted(unknown)} in event {event}")
            subtypes = arg.get("subtypes") or []
            if not isinstance(subtypes, list) or not all(isinstance(s, str) for s in subtypes):
                raise SchemaError(
                    f"'subtypes' of argument {arg.get('type')} in event {event} must be a "
                    f"list of strings, got {subtypes!r}"
                )
            required = arg.get("required", False)
            if not isinstance(required, bool):
                raise SchemaError(
                    f"'required' of argument {arg.get('type')} in event {event} must be "
                    f"true or false, got {required!r}"
                )
            try:
                args.append(
                    ArgumentSpec(
                        argument_type=canonical_name(str(arg["type"])),
                        role=canonical_name(str(arg.get("role", arg["type"]))),
                        kind=str(arg.get("kind", SPAN_ONLY)),
                        subtypes=tuple(subtypes),
                        required=required,
                        attribute_name=arg.get("attribute"),
                    )
                )
            except KeyError as exc:
                raise SchemaError(f"argument entry missing {exc} in event {event}") from None
        events.append(EventSpec(event_type=canonical_name(str(event)), arguments=tuple(args)))

    return AnnotationSchema(
        events=tuple(events),
        version=str(data.get("version", "")),
        attributes_on_events=attributes_on_events,
    )


def load_schema_file(path: str | Path) -> AnnotationSchema:
    return load_schema(Path(path).read_text(encoding="utf-8"))


def shac_schema() -> AnnotationSchema:
    """The built-in social-history scheme; loads without any user file."""
    text = resources.files("slotscore").joinpath("configs/shac.yaml").read_text(encoding="utf-8")
    return load_schema(text)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

RULE_TRIGGER = "exactly one trigger"
RULE_EVENT_TYPE = "unknown event type"
RULE_ROLE = "unknown role"
RULE_ARG_TYPE = "argument type mismatch"
RULE_REQUIRED = "missing required argument"
RULE_SUBTYPE_MISSING = "missing subtype"
RULE_SUBTYPE_VOCAB = "subtype outside vocabulary"
RULE_ATTRIBUTE = "unexpected attribute"


@dataclass(frozen=True)
class Violation:
    doc_id: str
    annotation_id: str
    rule: str
    message: str


def validate_document(doc: Document, schema: AnnotationSchema) -> list[Violation]:
    """Check a document against the schema; violations are data, not errors.

    Returned violations are stable-ordered by annotation id, then rule.
    The document is never mutated.
    """
    violations: list[Violation] = []

    def report(annotation_id: str, rule: str, message: str) -> None:
        violations.append(Violation(doc.doc_id, annotation_id, rule, message))

    # (target id, attribute name) pairs the schema sanctions.
    sanctioned_attrs: set[tuple[str, str]] = set()
    attrs = doc.attribute_index()

    for event in doc.events.values():
        spec = schema.event(event.event_type)
        if spec is None:
            report(event.id, RULE_EVENT_TYPE, f"event type {event.event_type} is not declared")
            continue
        if event.trigger is None or event.trigger not in doc.text_bounds:
            report(event.id, RULE_TRIGGER, f"event {event.id} has no resolvable trigger")

        seen_roles: set[str] = set()
        for role, target in event.arguments:
            arg_spec = spec.roles.get(role)
            if arg_spec is None:
                report(
                    event.id,
                    RULE_ROLE,
                    f"role {role} is not declared for event type {event.event_type}",
                )
                continue
            seen_roles.add(role)
            tb = doc.text_bounds.get(target)
            if tb is not None and tb.label != arg_spec.argument_type:
                report(
                    event.id,
                    RULE_ARG_TYPE,
                    f"argument {target} has label {tb.label}, expected {arg_spec.argument_type}",
                )
            if arg_spec.kind == LABELED:
                key = schema.subtype_key(event.id, target, arg_spec)
                sanctioned_attrs.add(key)
                attr = attrs.get(key)
                if attr is None or attr.value is None:
                    report(
                        event.id,
                        RULE_SUBTYPE_MISSING,
                        f"labeled argument {arg_spec.argument_type} on {event.id} has no "
                        f"{arg_spec.attribute_name} attribute",
                    )
                elif attr.value not in arg_spec.subtypes:
                    report(
                        attr.id,
                        RULE_SUBTYPE_VOCAB,
                        f"subtype {attr.value!r} is not in the {arg_spec.argument_type} vocabulary",
                    )

        for arg_spec in spec.required_arguments():
            if arg_spec.role not in seen_roles:
                report(
                    event.id,
                    RULE_REQUIRED,
                    f"event {event.id} is missing required argument {arg_spec.argument_type}",
                )

    for attr in doc.attributes.values():
        if (attr.target, attr.name) not in sanctioned_attrs:
            report(
                attr.id,
                RULE_ATTRIBUTE,
                f"attribute {attr.name} on {attr.target} is not sanctioned by the schema",
            )

    violations.sort(key=lambda v: (annotation_sort_key(v.annotation_id), v.rule))
    return violations


def validate_corpus(corpus, schema: AnnotationSchema) -> list[Violation]:
    out: list[Violation] = []
    for doc_id in corpus.doc_ids():
        out.extend(validate_document(corpus[doc_id], schema))
    return out
