"""Tests of the benchmark itself.

    python3 -m pytest slotbench -q

Every workload runs at a tiny size with no failed operation, and planted
faults (an extra predicted event the edit log does not know, a p-value off
in its last digit) count as failures.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = "0.01"


@pytest.fixture
def workdir(request):
    path = ROOT / ".slotbench" / "tests" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(script: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(cwd / "slotbench" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_tiny_workload_has_no_failures(workload, trace):
    done = bench("run.py", "--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", trace, "--scale", TINY)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stderr
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_same_seed_same_inputs(workdir):
    first = gen.build("dense-notes", 7, workdir / "first", scale=float(TINY))
    second = gen.build("dense-notes", 7, workdir / "second", scale=float(TINY))
    other = gen.build("dense-notes", 8, workdir / "other", scale=float(TINY))
    assert first["inputs"] == second["inputs"]
    assert first["inputs"]["corpus_sha256"] != other["inputs"]["corpus_sha256"]


def test_times_are_scaled_to_reference_speed():
    ref = measure.REFERENCE_S
    assert measure.at_reference_speed(2.0, ref, ref) == pytest.approx(2.0)
    # On a machine twice as slow around the call, the call counts half its time.
    assert measure.at_reference_speed(2.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.0)


def test_extra_predicted_event_is_a_failure(workdir):
    gen.build("shac-score", 5, workdir, scale=float(TINY))
    clean = json.loads(bench("measure.py", "--work", str(workdir), "--seconds", "0").stdout)
    assert clean["failed"] == 0

    ann = sorted((workdir / "a").glob("*.ann"))[0]
    text = ann.with_suffix(".txt").read_text(encoding="utf-8")
    with ann.open("a", encoding="utf-8") as f:
        f.write(f"T900\tDrug 0 3\t{text[:3]}\nE900\tDrug:T900\n")
    done = bench("measure.py", "--work", str(workdir), "--seconds", "0")
    planted = json.loads(done.stdout)
    # The score report and the analysis tables both disagree with the oracle.
    assert planted["failed"] == 2 and planted["attempted"] == 3
    assert "tally" in done.stderr


def test_p_value_off_in_last_digit_is_a_failure(workdir):
    import slotscore
    from slotscore import reports

    oracle = gen.build("shac-compare", 5, workdir, scale=float(TINY))
    schema = slotscore.shac_schema()
    gold, a, b = (slotscore.load_corpus(workdir / name) for name in ("gold", "a", "b"))
    result = slotscore.paired_bootstrap(
        gold, a, b, schema, slotscore.BootstrapConfig(), keep_deltas=True
    )

    def rendered(r):
        return reports.render(reports.bootstrap_rows(r), reports.BOOTSTRAP_COLUMNS, "tsv", {})

    assert checks.check_compare(result, rendered(result), oracle["bootstrap"]) == []
    planted = dataclasses.replace(result, p_value=math.nextafter(result.p_value, 1.0))
    problems = checks.check_compare(planted, rendered(planted), oracle["bootstrap"])
    assert any("p-value" in p for p in problems)
    deltas = list(result.deltas)
    deltas[-1] += 1e-9
    planted = dataclasses.replace(result, deltas=tuple(deltas))
    assert checks.check_compare(planted, rendered(planted), oracle["bootstrap"])


def test_fails_without_the_program(workdir):
    (workdir / "slotbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, workdir / "slotbench")
    done = bench("run.py", "--workload", "shac-score", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=workdir)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
