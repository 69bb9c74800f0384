"""The public surface of ``slotscore`` may shrink or stay flat; growing it
means changing these sets on purpose."""

import argparse
import pkgutil
from types import ModuleType

import slotscore
from slotscore import scoring, standoff
from slotscore.cli import EXIT_USAGE, build_parser, main

PACKAGE_NAMES = {
    "AnnotationSchema", "ArgumentSpec", "AttributeAnnotation", "BootstrapConfig",
    "BootstrapResult", "Corpus", "CorpusStats", "DensityRow", "Document",
    "DocumentMetadata", "EventAlignment", "EventAnnotation", "EventSpec", "MetricReport",
    "Metrics", "PhenomenonKey", "SchemaError", "ScoreCounts", "ScoringError",
    "StandoffError", "SubtypeRow", "TextBound", "Violation", "align_events",
    "bucket_label", "corpus_stats", "density_breakdown", "load_corpus", "load_schema",
    "load_schema_file", "paired_bootstrap", "parse_document", "score_corpus",
    "score_document", "serialize_document", "shac_schema", "subtype_breakdown",
    "validate_corpus", "validate_document", "write_corpus",
}

PACKAGE_MODULES = {
    "analytics", "cli", "reports", "schema", "scoring", "significance", "standoff", "testkit",
}

SCORING_DEFINITIONS = {
    "Counts", "EventAlignment", "MetricReport", "Metrics", "PhenomenonKey", "ScoreCounts",
    "ScoringError", "align_events", "prf", "score_corpus", "score_document",
}

# The one generator CLI is slotbench/gen.py.
CLI_COMMANDS = {"score", "compare", "stats", "validate"}

# One record per annotation kind: a text-bound holds its own fragments.
STANDOFF_DEFINITIONS = {
    "AttributeAnnotation", "Corpus", "Document", "DocumentMetadata", "EventAnnotation",
    "MetadataRule", "StandoffError", "TextBound", "annotation_sort_key", "load_corpus",
    "parse_document", "parse_manifest", "serialize_document", "write_corpus",
}


def test_package_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # the process has imported so far
    names = {
        name for name in dir(slotscore)
        if not name.startswith("_") and not isinstance(getattr(slotscore, name), ModuleType)
    }
    assert names == PACKAGE_NAMES
    assert {m.name for m in pkgutil.iter_modules(slotscore.__path__)} == PACKAGE_MODULES


def _public_definitions(module: ModuleType) -> set[str]:
    return {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)  # a function, a class or a cached function
        and getattr(obj, "__module__", None) == module.__name__
    }


def test_scoring_defines_no_new_public_function_or_class():
    assert _public_definitions(scoring) == SCORING_DEFINITIONS


def test_standoff_defines_no_new_public_function_or_class():
    assert _public_definitions(standoff) == STANDOFF_DEFINITIONS


def test_cli_commands_are_pinned(capsys):
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == CLI_COMMANDS
    assert main(["gen", "gen.yaml", "out"]) == EXIT_USAGE
    assert "invalid choice: 'gen'" in capsys.readouterr().err
