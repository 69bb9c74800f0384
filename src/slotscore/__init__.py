"""Slot-filling evaluation toolkit for BRAT standoff event annotations."""

from .analytics import (
    CorpusStats,
    DensityRow,
    SubtypeRow,
    bucket_label,
    corpus_stats,
    density_breakdown,
    subtype_breakdown,
)
from .schema import (
    AnnotationSchema,
    ArgumentSpec,
    EventSpec,
    SchemaError,
    Violation,
    load_schema,
    load_schema_file,
    shac_schema,
    validate_corpus,
    validate_document,
)
from .scoring import (
    EventAlignment,
    MetricReport,
    Metrics,
    PhenomenonKey,
    ScoreCounts,
    ScoringError,
    align_events,
    score_corpus,
    score_document,
)
from .significance import BootstrapConfig, BootstrapResult, paired_bootstrap
from .standoff import (
    AttributeAnnotation,
    Corpus,
    Document,
    DocumentMetadata,
    EventAnnotation,
    StandoffError,
    TextBound,
    load_corpus,
    parse_document,
    serialize_document,
    write_corpus,
)

__version__ = "0.1.0"
