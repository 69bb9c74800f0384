"""Mutation checks: each entry breaks one rule of the package in a temporary
copy of ``src/`` and runs the tests that should notice.

    python3 tests/mutants.py            # every entry
    python3 tests/mutants.py NAME ...   # the named entries only

Stdlib only, and not collected by pytest (its name does not start with
``test_``). An entry names a file under ``src/slotscore``, an exact source
text that must occur there once, its replacement, the pytest arguments to
run, and the expected outcome: killed (some test fails), or equivalent, with
the reason no test can tell the mutant from the package. The run fails, and
names the entry, when a source text no longer occurs exactly once (so a
change that moves the code must carry its mutants along), when a mutant
expected to be killed survives, when an equivalent one is killed, or when
pytest cannot run the tests at all. A pytest run that takes longer than
``TIMEOUT_S`` is stopped and reaches no verdict: it does not count as killed,
so its entry fails, named with the timeout, and the run goes on to the next
entry. The tests first run once on an unmutated copy. The summary line gives
the run's total time. Exit code 0 when every entry holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/slotscore
    source: str
    replacement: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root
    equivalent: str | None = None  # why no test can kill it; None: expected killed


MUTANTS = (
    Mutant(
        "equal-slot-shortcut-tallies-fn",
        "scoring.py",
        "        if p_slots == g_slots:  # all tp, as the loop below would find\n"
        "            for key, _ in g_slots:\n"
        "                cells[key][0] += 1\n",
        "        if p_slots == g_slots:  # all tp, as the loop below would find\n"
        "            for key, _ in g_slots:\n"
        "                cells[key][1] += 1\n",
        ("tests/test_differential.py",),
    ),
    Mutant(
        "trigger-overlap-counts-touching-spans",
        "scoring.py",
        "            if a_start < b_end and b_start < a_end:\n",
        "            if a_start <= b_end and b_start <= a_end:\n",
        ("tests/test_scoring.py", "tests/test_differential.py"),
    ),
    Mutant(
        "density-bucket-3-plus-starts-at-4",
        "analytics.py",
        "    if gold_event_count >= 3:\n",
        "    if gold_event_count > 3:\n",
        ("tests/test_analytics.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "density-gold-count-is-tp-only",
        "analytics.py",
        "            n = tp + fn\n",
        "            n = tp\n",
        ("tests/test_differential.py", "tests/test_analytics.py"),
    ),
    Mutant(
        # A type's cells would carry one note's tallies into the next note
        # that holds the type, and that note's bucket.
        "density-cells-kept-into-the-next-note",
        "analytics.py",
        "            trigger[:] = argument[:] = (0, 0, 0)\n",
        "",
        ("tests/test_differential.py", "tests/test_analytics.py"),
    ),
    Mutant(
        # Specs compare by value: Alcohol's, Drug's and Tobacco's StatusTime
        # specs are one key, so their subtype counts would merge.
        "stats-keyed-by-spec-alone",
        "analytics.py",
        "    labeled = {\n"
        "        event_type: {role: (spec, {}) for role, (spec, key, _) in roles.items()"
        " if key is None}\n",
        "    by_spec: dict = {}\n"
        "    labeled = {\n"
        "        event_type: {role: (spec, by_spec.setdefault(spec, {}))\n"
        "                     for role, (spec, key, _) in roles.items() if key is None}\n",
        ("tests/test_differential.py", "tests/test_analytics.py"),
    ),
    Mutant(
        # The same specs, shared the other way: Drug's and Tobacco's Status
        # slots would be Alcohol's, keyed by Alcohol's name.
        "labeled-slots-shared-by-spec",
        "schema.py",
        "        table = {}\n"
        "        for e in self.events:\n"
        "            t = e.event_type\n"
        "            table[t] = (((TRIGGER, t, None, None), None), {\n"
        "                role: (spec, (SPAN_ONLY_ARG, t, spec.argument_type, None), None)\n"
        "                if spec.kind == SPAN_ONLY else (spec, None, {\n"
        "                    s: ((LABELED_ARG, t, spec.argument_type, s), s) for s in spec.subtypes\n"
        "                })\n",
        "        table, by_spec = {}, {}\n"
        "        for e in self.events:\n"
        "            t = e.event_type\n"
        "            table[t] = (((TRIGGER, t, None, None), None), {\n"
        "                role: (spec, (SPAN_ONLY_ARG, t, spec.argument_type, None), None)\n"
        "                if spec.kind == SPAN_ONLY else (spec, None, by_spec.setdefault(spec, {\n"
        "                    s: ((LABELED_ARG, t, spec.argument_type, s), s) for s in spec.subtypes\n"
        "                }))\n",
        ("tests/test_scoring.py", "tests/test_differential.py", "tests/test_schema.py"),
    ),
    Mutant(
        # Every labeled argument's subtype would be looked up on the other
        # annotation: scoring, statistics and validation all read this rule.
        "subtype-carrier-flipped",
        "schema.py",
        "        return (event_id if self.attributes_on_events else target, spec.attribute_name)\n",
        "        return (target if self.attributes_on_events else event_id, spec.attribute_name)\n",
        ("tests/test_scoring.py", "tests/test_analytics.py", "tests/test_schema.py"),
    ),
    Mutant(
        "vocabulary-check-inverted",
        "schema.py",
        "                elif attr.value not in vocabulary:\n",
        "                elif attr.value in vocabulary:\n",
        ("tests/test_schema.py", "tests/test_differential.py"),
    ),
    Mutant(
        "span-only-argument-matches-on-start",
        "scoring.py",
        "                slots.append((key, text_bounds[target].fragments))\n",
        "                slots.append((key, text_bounds[target].fragments[0][0]))\n",
        ("tests/test_scoring.py", "tests/test_differential.py"),
    ),
    Mutant(
        # A labeled argument matches on its subtype alone, whatever its span.
        "labeled-argument-matches-on-span-too",
        "scoring.py",
        "            slots.append(labeled.get(subtype)\n"
        "                         or ((LABELED_ARG, event_type, spec.argument_type, subtype), subtype))\n",
        "            slot = (labeled.get(subtype)\n"
        "                    or ((LABELED_ARG, event_type, spec.argument_type, subtype), subtype))\n"
        "            slots.append((slot[0], (slot[1], text_bounds[target].fragments)))\n",
        ("tests/test_scoring.py", "tests/test_differential.py"),
    ),
    Mutant(
        # Gold fills a slot once and the prediction twice: one tp and one fp,
        # not one tp alone.
        "matched-slot-removes-every-copy",
        "scoring.py",
        "                p_slots.remove(slot)\n",
        "                p_slots = [s for s in p_slots if s != slot]\n",
        ("tests/test_scoring.py", "tests/test_differential.py"),
    ),
    Mutant(
        "unmatched-gold-tallied-as-fp",
        "scoring.py",
        "    for g_event in unmatched_gold:\n"
        "        for key, _ in gold_slots[g_event.id]:\n"
        "            cells[key][1] += 1\n",
        "    for g_event in unmatched_gold:\n"
        "        for key, _ in gold_slots[g_event.id]:\n"
        "            cells[key][2] += 1\n",
        ("tests/test_scoring.py", "tests/test_differential.py"),
    ),
    Mutant(
        "unmatched-prediction-tallied-as-fn",
        "scoring.py",
        "    for p_event in unmatched_pred:\n"
        "        for key, _ in pred_slots[p_event.id]:\n"
        "            cells[key][2] += 1\n",
        "    for p_event in unmatched_pred:\n"
        "        for key, _ in pred_slots[p_event.id]:\n"
        "            cells[key][1] += 1\n",
        ("tests/test_scoring.py", "tests/test_differential.py"),
    ),
    Mutant(
        # Gold's slots would be built again for every prediction, and its
        # warnings printed once per prediction.
        "gold-slots-rebuilt-per-prediction",
        "scoring.py",
        "            if gold_slots is None:\n"
        "                gold_slots = _note_slots(gold_doc, schema)\n",
        "            gold_slots = _note_slots(gold_doc, schema)\n",
        ("tests/test_significance.py", "tests/test_cli.py"),
    ),
    Mutant(
        # Gold's labeled arguments would take the prediction's subtypes, so
        # a flipped subtype would score as a match.
        "gold-slots-read-prediction-attributes",
        "scoring.py",
        "                gold_slots = _note_slots(gold_doc, schema)\n",
        "                gold_slots = _note_slots(\n"
        "                    Document(doc_id, gold_doc.text, gold_doc.text_bounds, gold_doc.events,\n"
        "                             pred_doc.attributes), schema)\n",
        ("tests/test_scoring.py", "tests/test_differential.py"),
    ),
    Mutant(
        # Every system is checked for extra notes before any text: system B's
        # extra note would win over system A's text mismatch.
        "extra-notes-checked-for-every-system-first",
        "scoring.py",
        "            raise ScoringError(_summary(extra, \"predicted note\", \"with no gold counterpart\"))\n"
        "        for doc_id in doc_ids:\n",
        "            raise ScoringError(_summary(extra, \"predicted note\", \"with no gold counterpart\"))\n"
        "    for pred in preds:\n"
        "        for doc_id in doc_ids:\n",
        ("tests/test_significance.py",),
    ),
    Mutant(
        # With two predictions, each one's slots would land in the other's
        # table: the one-pass totals and each system's F1 would swap.
        # test_one_pass_over_gold_equals_a_pass_per_system kills it.
        "prediction-tallied-into-another-predictions-table",
        "scoring.py",
        "        for pred, cells in zip(preds, tables):\n",
        "        for pred, cells in zip(preds, tables[::-1]):\n",
        ("tests/test_differential.py",),
    ),
    Mutant(
        "role-suffix-kept",
        "standoff.py",
        "                    role = _ROLE_SUFFIX_RE.sub(\"\", role)\n",
        "                    role = role\n",
        ("tests/test_standoff.py",),
    ),
    Mutant(
        "role-ending-in-digit-accepted",
        "schema.py",
        "        if not self.role or self.role[-1].isdecimal():\n",
        "        if not self.role:\n",
        ("tests/test_schema.py",),
    ),
    Mutant(
        # A raw CR in the covered text would match a stated text that holds it.
        "stated-text-may-hold-a-raw-cr",
        "standoff.py",
        "    return (stated == covered and \"\\r\" not in covered) or stated == _flatten_ws(covered)\n",
        "    return stated == covered or stated == _flatten_ws(covered)\n",
        ("tests/test_standoff.py",),
    ),
    Mutant(
        # Offsets count code points of the note as stored: a CRLF is two.
        "crlf-read-as-one-character",
        "standoff.py",
        "            return f.read().decode(\"utf-8\")\n",
        "            return f.read().decode(\"utf-8\").replace(\"\\r\\n\", \"\\n\")\n",
        ("tests/test_standoff.py",),
    ),
    Mutant(
        # A table the module keeps would share strings and pairs across loads.
        "load-table-kept-by-the-module",
        "standoff.py",
        "        shared: dict = {}\n",
        "        shared: dict = globals().setdefault(\"_shared\", {})\n",
        ("tests/test_standoff.py",),
    ),
    Mutant(
        # A T line whose tokens an earlier line converted would skip the
        # span check: "7 7" would be an empty span, "7 0" a reversed one.
        "warm-table-span-may-be-empty",
        "standoff.py",
        "            if start is not None and end is not None and start < end <= text_len:\n",
        "            if start is not None and end is not None and end <= text_len:\n",
        ("tests/test_standoff.py",),
    ),
    Mutant(
        # Tokens converted in a longer note would cut a span at the end of a
        # shorter one, not reject it.
        "warm-table-span-may-pass-note-end",
        "standoff.py",
        "            if start is not None and end is not None and start < end <= text_len:\n",
        "            if start is not None and end is not None and start < end:\n",
        ("tests/test_standoff.py",),
    ),
    Mutant(
        # Each note's totals would hold every earlier note's too.
        "bootstrap-cell-kept-into-the-next-note",
        "significance.py",
        "            cell[:] = (0, 0, 0)\n",
        "",
        ("tests/test_differential.py", "tests/test_significance.py"),
    ),
    Mutant(
        # Float64 sums above 2**53 round odd integers (the bound's dtype
        # check fails first; the sums above it differ too).
        "float-product-bound-at-2-54",
        "significance.py",
        "    if n * int(np.abs(totals).max(initial=0)) < 2**53:\n",
        "    if n * int(np.abs(totals).max(initial=0)) < 2**54:\n",
        ("tests/test_significance.py",),
    ),
    Mutant(
        # A repetition with a draw numpy rejects would keep the raw path's
        # indices, which differ from numpy's after that draw.
        "lemire-draw-never-rejected",
        "significance.py",
        "    rejected = scaled.astype(np.uint32) < (2**32 - n) % n\n",
        "    rejected = np.zeros(scaled.shape, dtype=bool)\n",
        ("tests/test_significance.py",),
    ),
    Mutant(
        # Trigger-less events never match; they come last, by id, not in the
        # order the file lists them.
        "trigger-less-events-in-file-order",
        "scoring.py",
        "    tail.sort()\n",
        "",
        ("tests/test_scoring.py",),
    ),
    Mutant(
        "align-early-stop-past-gold-end",
        "scoring.py",
        "            if p_start >= g_end:\n",
        "            if p_start > g_end:\n",
        ("tests/test_scoring.py", "tests/test_differential.py", "tests/test_acceptance.py"),
        equivalent=(
            "a predicted trigger that starts where gold's ends shares no character "
            "with it (ends are exclusive), nor does any later one in the sorted "
            "bucket, so the longer scan matches nothing more; only the scan grows"
        ),
    ),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code on ``tests`` with the package imported from ``src``
    (the ini's ``pythonpath`` is pointed there, and so is PYTHONPATH, which
    child processes of the tests read), and the first failing test's id."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    run = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed[0] if failed else ""


def _check(mutant: Mutant) -> tuple[str | None, str]:
    """(None when the mutant behaves as its entry says, else what went
    wrong; the test that killed it, if one did)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = _copy_src(Path(tmp))
        path = src / "slotscore" / mutant.file
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.source)
        if found != 1:
            return f"its source text occurs {found} times in {mutant.file}, not once", ""
        path.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
        try:
            code, killer = _pytest(src, mutant.tests)
        except subprocess.TimeoutExpired:
            return f"pytest ran past the {TIMEOUT_S} s timeout: no verdict", ""
    if code not in (0, 1):
        return f"pytest exited {code}: the tests did not run to a verdict", ""
    killed = code == 1
    if mutant.equivalent is None and not killed:
        return "survived; a test should kill it", ""
    if mutant.equivalent is not None and killed:
        return "killed, though its entry says it is equivalent", killer
    return None, killer


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    run_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        try:
            code, _ = _pytest(_copy_src(Path(tmp)), tests)
        except subprocess.TimeoutExpired:
            print(f"the tests ran past the {TIMEOUT_S} s timeout on an unmutated copy: "
                  f"{' '.join(tests)}")
            return 1
    if code != 0:
        print(f"the tests fail (pytest exit {code}) on an unmutated copy: {' '.join(tests)}")
        return 1
    failures = 0
    for mutant in chosen:
        start = time.perf_counter()
        problem, killer = _check(mutant)
        seconds = time.perf_counter() - start
        outcome = "equivalent" if mutant.equivalent else f"killed by {killer}"
        if problem is None:
            print(f"ok    {mutant.name}: {outcome} ({seconds:.1f} s)")
        else:
            failures += 1
            detail = f"{problem} {killer}" if killer else problem
            print(f"FAIL  {mutant.name}: {detail} ({seconds:.1f} s)")
    total = time.perf_counter() - run_start
    print(f"{len(chosen) - failures} of {len(chosen)} mutant(s) as expected in {total:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
