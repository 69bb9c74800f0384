"""The public surface of ``slotscore`` may shrink or stay flat; growing it
means changing these sets on purpose."""

import inspect
import pkgutil
from types import ModuleType

import slotscore
from slotscore import scoring

PACKAGE_NAMES = {
    "AnnotationSchema", "ArgumentSpec", "AttributeAnnotation", "BootstrapConfig",
    "BootstrapResult", "Corpus", "CorpusStats", "DensityRow", "Document",
    "DocumentMetadata", "EventAlignment", "EventAnnotation", "EventSpec", "MetricReport",
    "Metrics", "PhenomenonKey", "SchemaError", "ScoreCounts", "ScoringError", "Span",
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
    "ScoringError", "align_events", "per_document_counts", "prf", "resolve_subtype",
    "score_corpus", "score_document",
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


def test_scoring_defines_no_new_public_function_or_class():
    defined = {
        name for name, obj in vars(scoring).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == scoring.__name__
    }
    assert defined == SCORING_DEFINITIONS
