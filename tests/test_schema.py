import pytest

from slotscore.schema import (
    RULE_ARG_TYPE,
    RULE_ATTRIBUTE,
    RULE_EVENT_TYPE,
    RULE_REQUIRED,
    RULE_ROLE,
    RULE_SUBTYPE_MISSING,
    RULE_SUBTYPE_VOCAB,
    RULE_TRIGGER,
    SchemaError,
    canonical_name,
    load_schema,
    validate_document,
)
from slotscore.standoff import parse_document, serialize_document


def test_shac_event_types(shac):
    assert shac.event_types() == ("Alcohol", "Drug", "Tobacco", "Employment", "LivingStatus")


def test_shac_status_time_vocabulary(shac):
    for event_type in ("Alcohol", "Drug", "Tobacco"):
        spec = shac.event(event_type).roles["Status"]
        assert spec.argument_type == "StatusTime"
        assert spec.required
        assert {"none", "current", "past"} <= set(spec.subtypes)


def test_shac_status_employ_vocabulary(shac):
    spec = shac.event("Employment").roles["Status"]
    assert spec.argument_type == "StatusEmploy"
    assert {"employed", "unemployed", "retired", "on_disability", "student", "homemaker"} <= set(
        spec.subtypes
    )


def test_shac_type_living_vocabulary(shac):
    spec = shac.event("LivingStatus").roles["Type"]
    assert spec.argument_type == "TypeLiving"
    assert "homeless" in spec.subtypes
    assert spec.required


def test_shac_one_role_per_argument_type(shac):
    for event in shac.events:
        roles = [a.role for a in event.arguments]
        assert len(roles) == len(set(roles))


def test_canonical_name_strips_spaces():
    assert canonical_name("Status Time") == "StatusTime"


def test_load_schema_display_names_are_canonicalized():
    schema = load_schema(
        """
events:
  - type: Living Status
    arguments:
      - {type: Status Time, role: Status, kind: labeled, subtypes: [current]}
"""
    )
    assert schema.event_types() == ("LivingStatus",)
    assert schema.event("LivingStatus").arguments[0].argument_type == "StatusTime"


def test_load_schema_rejects_unknown_kind():
    with pytest.raises(SchemaError, match="unknown argument kind"):
        load_schema(
            "events:\n  - type: X\n    arguments:\n      - {type: A, role: R, kind: fuzzy}\n"
        )


def test_load_schema_rejects_labeled_without_subtypes():
    with pytest.raises(SchemaError, match="needs subtypes"):
        load_schema(
            "events:\n  - type: X\n    arguments:\n      - {type: A, role: R, kind: labeled}\n"
        )


def test_load_schema_rejects_duplicates():
    with pytest.raises(SchemaError, match="duplicate event types"):
        load_schema("events:\n  - type: X\n  - type: X\n")
    with pytest.raises(SchemaError, match="duplicate roles"):
        load_schema(
            "events:\n"
            "  - type: X\n"
            "    arguments:\n"
            "      - {type: A, role: R, kind: span_only}\n"
            "      - {type: B, role: R, kind: span_only}\n"
        )


def test_load_schema_rejects_span_only_with_subtypes():
    with pytest.raises(SchemaError):
        load_schema(
            "events:\n  - type: X\n    arguments:\n"
            "      - {type: A, role: R, kind: span_only, subtypes: [a]}\n"
        )


def test_load_schema_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown config keys"):
        load_schema("events: []\nextra: 1\n")


def test_labeled_attribute_name_defaults_to_argument_type():
    schema = load_schema(
        "events:\n  - type: X\n    arguments:\n"
        "      - {type: A, role: R, kind: labeled, subtypes: [a, b]}\n"
    )
    assert schema.event("X").arguments[0].attribute_name == "A"


# ---------------------------------------------------------------------------
# validate_document
# ---------------------------------------------------------------------------

def _doc(ann, text="drugs current cocaine extra", doc_id="n1"):
    return parse_document(ann, text, doc_id)


WELL_FORMED = (
    "T1\tDrug 0 5\tdrugs\n"
    "T2\tStatusTime 6 13\tcurrent\n"
    "T3\tType 14 21\tcocaine\n"
    "E1\tDrug:T1 Status:T2 Type:T3\n"
    "A1\tStatusTime T2 current\n"
)


def test_validate_well_formed_event(shac):
    assert validate_document(_doc(WELL_FORMED), shac) == []


def test_validate_missing_required_argument(shac):
    doc = _doc("T1\tDrug 0 5\tdrugs\nE1\tDrug:T1\n")
    violations = validate_document(doc, shac)
    assert [v.rule for v in violations] == [RULE_REQUIRED]
    assert violations[0].annotation_id == "E1"


def test_validate_subtype_outside_vocabulary(shac):
    ann = WELL_FORMED.replace("A1\tStatusTime T2 current\n", "A1\tStatusTime T2 sometimes\n")
    violations = validate_document(_doc(ann), shac)
    assert [v.rule for v in violations] == [RULE_SUBTYPE_VOCAB]
    assert violations[0].annotation_id == "A1"


def test_validate_missing_subtype_attribute(shac):
    ann = WELL_FORMED.replace("A1\tStatusTime T2 current\n", "")
    violations = validate_document(_doc(ann), shac)
    assert [v.rule for v in violations] == [RULE_SUBTYPE_MISSING]


def test_validate_unknown_event_type(shac):
    doc = _doc("T1\tGambling 0 5\tdrugs\nE1\tGambling:T1\n")
    assert [v.rule for v in validate_document(doc, shac)] == [RULE_EVENT_TYPE]


def test_validate_unknown_role(shac):
    ann = WELL_FORMED.replace("Status:T2 Type:T3", "Status:T2 Dose:T3")
    assert RULE_ROLE in [v.rule for v in validate_document(_doc(ann), shac)]


def test_validate_argument_type_mismatch(shac):
    # Type role pointing at a StatusTime-labeled span
    ann = (
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "T3\tStatusTime 14 21\tcocaine\n"
        "E1\tDrug:T1 Status:T2 Type:T3\n"
        "A1\tStatusTime T2 current\n"
    )
    assert RULE_ARG_TYPE in [v.rule for v in validate_document(_doc(ann), shac)]


def test_validate_trigger_rule(shac):
    doc = _doc("E1\tDrug:\n")
    rules = [v.rule for v in validate_document(doc, shac)]
    assert RULE_TRIGGER in rules
    assert RULE_REQUIRED in rules


def test_validate_unexpected_attribute(shac):
    ann = WELL_FORMED + "A2\tStatusTime T3 current\n"  # on the Type span, not sanctioned
    violations = validate_document(_doc(ann), shac)
    assert [v.rule for v in violations] == [RULE_ATTRIBUTE]
    assert violations[0].annotation_id == "A2"


def test_validate_never_mutates_and_is_deterministic(shac):
    doc = _doc(WELL_FORMED + "A2\tStatusTime T3 current\n")
    before = serialize_document(doc)
    first = validate_document(doc, shac)
    second = validate_document(doc, shac)
    assert first == second
    assert serialize_document(doc) == before


def test_validate_stable_order_by_annotation_then_rule(shac):
    ann = (
        "T1\tDrug 0 5\tdrugs\n"
        "T2\tStatusTime 6 13\tcurrent\n"
        "E1\tDrug:T1 Status:T2\n"
        "E2\tDrug:\n"
        "A1\tStatusTime T2 sometimes\n"
    )
    violations = validate_document(_doc(ann), shac)
    ids = [v.annotation_id for v in violations]
    assert ids == sorted(ids, key=lambda i: (i[0], int(i[1:])))


def test_validate_identical_after_round_trip(shac):
    doc = _doc(WELL_FORMED + "A2\tStatusTime T3 current\n")
    reparsed = parse_document(serialize_document(doc), doc.text, doc.doc_id)
    assert validate_document(doc, shac) == validate_document(reparsed, shac)


def test_attributes_on_events_switch():
    schema = load_schema(
        """
attributes_on_events: true
events:
  - type: X
    arguments:
      - {type: A, role: R, kind: labeled, subtypes: [a, b]}
"""
    )
    text = "xxx aaa"
    ann = "T1\tX 0 3\txxx\nT2\tA 4 7\taaa\nE1\tX:T1 R:T2\nA1\tA E1 a\n"
    doc = parse_document(ann, text, "n1")
    assert validate_document(doc, schema) == []
    # same attribute on the span instead of the event is now unsanctioned
    ann_span = "T1\tX 0 3\txxx\nT2\tA 4 7\taaa\nE1\tX:T1 R:T2\nA1\tA T2 a\n"
    rules = [v.rule for v in validate_document(parse_document(ann_span, text, "n1"), schema)]
    assert RULE_SUBTYPE_MISSING in rules and RULE_ATTRIBUTE in rules


_ONE_ARGUMENT = "events:\n  - type: X\n    arguments:\n      - {argument}\n"


@pytest.mark.parametrize(
    "config, message",
    [
        (
            _ONE_ARGUMENT.format(argument="{type: A, role: R, kind: labeled, subtypes: current}"),
            "'subtypes' of argument A in event X must be a list of strings, got 'current'",
        ),
        (
            _ONE_ARGUMENT.format(argument="{type: A, role: R, kind: labeled, subtypes: [on, off]}"),
            "'subtypes' of argument A in event X must be a list of strings, got [True, False]",
        ),
        (
            _ONE_ARGUMENT.format(argument="5"),
            "'arguments' entry in event X must be a mapping, got 5",
        ),
        (
            "events:\n  - type: X\n    arguments: 5\n",
            "'arguments' of event X must be a list, got 5",
        ),
        (
            _ONE_ARGUMENT.format(argument='{type: A, role: R, kind: span_only, required: "no"}'),
            "'required' of argument A in event X must be true or false, got 'no'",
        ),
        (
            'attributes_on_events: "false"\nevents: []\n',
            "'attributes_on_events' must be true or false, got 'false'",
        ),
        ("events: {X: 1}\n", "'events' must be a list, got {'X': 1}"),
    ],
    ids=[
        "scalar-subtypes", "boolean-subtypes", "argument-not-mapping", "arguments-not-list",
        "quoted-required", "quoted-attributes-on-events", "events-not-list",
    ],
)
def test_load_schema_rejects_malformed_values(config, message):
    with pytest.raises(SchemaError) as raised:
        load_schema(config)
    assert str(raised.value) == message


def test_load_schema_takes_yaml_booleans():
    schema = load_schema(
        "attributes_on_events: true\nevents:\n  - type: X\n    arguments:\n"
        "      - {type: A, role: R, kind: span_only, required: false}\n"
        "      - {type: B, role: S, kind: labeled, required: true, subtypes: [a]}\n"
    )
    assert schema.attributes_on_events is True
    assert [a.required for a in schema.event("X").arguments] == [False, True]
