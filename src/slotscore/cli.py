"""Command-line entry point: score, compare, stats and validate.

Corpora are BRAT collections: directories of ``<id>.txt`` / ``<id>.ann``
pairs. Exit codes are stable: 0 success, 1 usage, 2 data error, 3
internal. A reader that closes stdout early (``slotscore score ... | head``)
is no error: the run exits 0 and prints nothing to stderr. All outputs are
byte-identical for identical inputs and flags; ``--stamp`` opts into a
timestamp header.
"""

from __future__ import annotations

import argparse
import datetime
import logging
import os
import sys
import traceback
from pathlib import Path

from . import analytics, reports
from .schema import AnnotationSchema, SchemaError, load_schema_file, shac_schema, validate_corpus
from .scoring import ScoringError, score_corpus
from .significance import BootstrapConfig, paired_bootstrap
from .standoff import StandoffError, load_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

SCHEMA_ENV_VAR = "SLOTSCORE_SCHEMA"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    """Options of every command: each loads corpora and writes a report."""
    parser.add_argument(
        "--schema",
        metavar="PATH",
        default=os.environ.get(SCHEMA_ENV_VAR),
        help="schema config file (default: built-in social-history scheme, "
        f"or ${SCHEMA_ENV_VAR})",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="logging verbosity (default: warning)",
    )
    parser.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument(
        "--format", choices=("tsv", "json"), default="tsv", help="report format (default: tsv)"
    )
    parser.add_argument("--strict", action="store_true", help="reject recoverable .ann defects")
    parser.add_argument("--stamp", action="store_true", help="add a timestamp header to reports")


def build_parser() -> _Parser:
    parser = _Parser(prog="slotscore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_score = sub.add_parser("score", help="score predicted annotations against gold")
    p_score.add_argument("gold", help="gold corpus directory")
    p_score.add_argument("pred", help="predicted corpus directory")
    _add_report_options(p_score)
    p_score.set_defaults(func=cmd_score)

    p_cmp = sub.add_parser("compare", help="paired bootstrap comparison of two systems")
    p_cmp.add_argument("gold", help="gold corpus directory")
    p_cmp.add_argument("pred_a", help="system A corpus directory")
    p_cmp.add_argument("pred_b", help="system B corpus directory")
    p_cmp.add_argument("--reps", type=int, default=10_000, metavar="N",
                       help="bootstrap repetitions (default: 10000)")
    p_cmp.add_argument("--seed", type=int, default=0, help="bootstrap seed (default: 0)")
    p_cmp.add_argument("--alpha", type=float, default=0.05,
                       help="significance level (default: 0.05)")
    p_cmp.add_argument("--dump-deltas", metavar="PATH",
                       help="write every resample F1 delta, one per line")
    _add_report_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare, parser=p_cmp)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("corpus", help="corpus directory")
    p_stats.add_argument("--manifest", metavar="PATH",
                         help="doc_id/prefix -> source, split mapping")
    _add_report_options(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_val = sub.add_parser("validate", help="check a corpus against the schema")
    p_val.add_argument("corpus", help="corpus directory")
    _add_report_options(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def _schema_from(args) -> AnnotationSchema:
    if args.schema:
        return load_schema_file(args.schema)
    return shac_schema()


def _header(args, **extra) -> dict:
    header = dict(extra)
    if args.stamp:
        header["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return header


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_score(args) -> int:
    schema = _schema_from(args)
    gold = load_corpus(args.gold, strict=args.strict)
    pred = load_corpus(args.pred, strict=args.strict)
    _, report = score_corpus(gold, pred, schema)
    _emit(args, reports.render(
        reports.metric_rows(report), reports.METRIC_COLUMNS, args.format, _header(args)
    ))
    o = report.overall
    print(f"overall P={o.precision:.6f} R={o.recall:.6f} F1={o.f1:.6f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    schema = _schema_from(args)
    gold = load_corpus(args.gold, strict=args.strict)
    pred_a = load_corpus(args.pred_a, strict=args.strict)
    pred_b = load_corpus(args.pred_b, strict=args.strict)
    result = paired_bootstrap(
        gold, pred_a, pred_b, schema, args.bootstrap, keep_deltas=bool(args.dump_deltas)
    )
    header = _header(args, seed=result.seed, repetitions=result.repetitions)
    _emit(args, reports.render(
        reports.bootstrap_rows(result), reports.BOOTSTRAP_COLUMNS, args.format, header
    ))
    if args.dump_deltas:
        Path(args.dump_deltas).write_text(
            "".join(f"{d:.6f}\n" for d in result.deltas), encoding="utf-8"
        )
    print(f"F1 A={result.f1_a:.6f} B={result.f1_b:.6f} delta={result.observed_delta:+.6f}")
    print(f"p-value={result.p_value:.6f} (repetitions={result.repetitions}, seed={result.seed})")
    print(f"systems are {result.verdict()} at p < {result.alpha:g}")
    return EXIT_OK


def cmd_stats(args) -> int:
    schema = _schema_from(args)
    corpus = load_corpus(args.corpus, manifest=args.manifest, strict=args.strict)
    stats = analytics.corpus_stats(corpus, schema)
    _emit(args, reports.render(
        reports.stats_rows(stats), reports.STATS_COLUMNS, args.format, _header(args)
    ))
    avg = ", ".join(f"{t}={v:.2f}" for t, v in stats.avg_events_per_note.items())
    print(f"notes={stats.note_count}" + (f" avg events/note: {avg}" if avg else ""))
    return EXIT_OK


def cmd_validate(args) -> int:
    schema = _schema_from(args)
    corpus = load_corpus(args.corpus, strict=args.strict)
    violations = validate_corpus(corpus, schema)
    _emit(args, reports.render(
        reports.violation_rows(violations), reports.VIOLATION_COLUMNS, args.format, _header(args)
    ))
    print(f"{len(violations)} violation(s) in {len(corpus)} note(s)")
    return EXIT_OK if not violations else EXIT_DATA


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "compare":
            # BootstrapConfig owns the rules for these options; a value it
            # refuses is a usage error, found before any corpus is read.
            try:
                args.bootstrap = BootstrapConfig(args.reps, args.seed, args.alpha)
            except (ValueError, TypeError) as exc:
                args.parser.error(str(exc))
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()), stream=sys.stderr)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # Nothing reads the rest; devnull takes what the flush at exit writes.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (StandoffError, SchemaError, ScoringError, ValueError, OSError) as exc:
        print(f"slotscore: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
