"""slotscore benchmark: one workload at one seed, checked and timed.

    python3 slotbench/run.py --workload dense-notes --seed 1 --seconds 35 --trace 0

Run it from the root of a slotscore checkout. It builds the workload's corpora
from the seed in one process (``gen.py``), measures in a fresh one
(``measure.py``), and with ``--trace 0`` measures set-up twice more in fresh
processes. It prints the machine, the inputs and every metric by name with
its unit, then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). Everything it
writes stays under ``.slotbench/`` in the checkout; the corpora are removed
when the run ends and the run's record (inputs, samples, spans) is kept in
``.slotbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS
from measure import REFERENCE_S

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # every run ends within 180 s
SETUP_SAMPLES = 3  # set-up is measured in this many fresh processes


def machine(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "slotscore").rglob("*")):
        if path.suffix in (".py", ".yaml"):
            source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit(root),
        "source_sha256": source.hexdigest(),
    }


def commit(root: Path) -> str:
    """HEAD of the checkout's own .git, or "none" when it is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def child(args: list[str], root: Path, deadline: float) -> str:
    """Run one benchmark process to completion and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    # One string-hash layout for every process, so dict and set layouts do
    # not differ between runs of the same seed.
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, *args], cwd=root, env=env, stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()), check=True, text=True,
    )
    return done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop runs (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's note count (the benchmark's own tests)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "slotscore" / "__init__.py").is_file():
        print("slotbench: run from the root of a slotscore checkout (src/slotscore not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    state = root / ".slotbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gen_args = [str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
                    "--out", str(work), "--scale", str(args.scale)]
        child(gen_args + (["--bootstrap"] if args.trace else []), root, deadline)
        oracle = json.loads((work / "oracle.json").read_text(encoding="utf-8"))
        measure = [str(HERE / "measure.py"), "--work", str(work)]
        out = json.loads(child(
            measure + ["--seconds", str(args.seconds), "--trace", str(args.trace)], root, deadline
        ))
        setups = [{"setup_s": out["setup_s"], "setup_raw_s": out.get("setup_raw_s"),
                   "problems": []}]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(json.loads(child(measure + ["--seconds", "0", "--setup-only"],
                                               root, deadline)))
    except subprocess.CalledProcessError as exc:
        print(f"slotbench: {Path(exc.cmd[1]).name} exited with {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"slotbench: {Path(exc.cmd[1]).name} ran past the {DEADLINE_S} s limit",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = out["attempted"] + len(setups) - 1
    failed = out["failed"]
    for extra in setups[1:]:
        for problem in extra["problems"]:
            print(f"slotbench: setup: {problem}", file=sys.stderr)
        failed += bool(extra["problems"])

    def median(values: list[float]) -> float | None:
        """None when no sample passed its check; the run is then not correct."""
        return statistics.median(values) if values else None

    e2e = {
        "setup_s": (median([s["setup_s"] for s in setups]), len(setups)),
        "command_s": (median(out["samples"]["command_s"]), len(out["samples"]["command_s"])),
        "analysis_s": (median(out["samples"]["analysis_s"]), len(out["samples"]["analysis_s"])),
        "peak_rss_mb": (out["peak_rss_mb"], 1),
    }
    info = dict(machine(root), numpy=out["numpy"])
    command = oracle["command"]
    probes = out.get("probes", []) + [p for s in setups[1:] for p in s["probes"]]

    print(f"slotbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} scale={args.scale:g}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("inputs: " + " ".join(f"{k}={v}" for k, v in oracle["inputs"].items()))
    print(f"command_s is `slotscore {command}` after set-up on this workload "
          f"({command}_s in the benchmark README)")
    if not args.trace:
        raw = {"setup_s": median([s["setup_raw_s"] for s in setups]),
               **{name: median(values) for name, values in out["raw_samples"].items()}}
        print(f"times at reference speed: reference {REFERENCE_S} s, measured "
              f"{statistics.median(probes):.6f} s (median of {len(probes)}); unscaled medians "
              + " ".join(f"{k}={v:.6f}" for k, v in raw.items() if v is not None))
    print(f"{'metric':34} {'value':>16} {'unit':6} samples")
    for name, (value, n) in e2e.items():
        shown = "no checked sample" if value is None else f"{value:16.6f}"
        print(f"{name:34} {shown:>16} {units[name]:6} {n}")
    print(f"{'fail_rate':34} {failed / attempted:16.6f} {'ratio':6} {failed}/{attempted}")
    if args.trace:
        for name, value in out["per_layer"].items():
            shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
            print(f"{name:34} {shown} {units[name]}")
        print(f"{'span':34} {'count':>7} {'total_s':>12} {'self_s':>12}")
        for name, row in out["self_times"].items():
            print(f"{name:34} {row['count']:7d} {row['total_s']:12.6f} {row['self_s']:12.6f}")

    if args.trace:
        metrics = dict(out["per_layer"])
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = {name: value for name, (value, _) in e2e.items()}
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        print(f"slotbench: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(wanted)}",
              file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale, "machine": info,
        "inputs": oracle["inputs"], "setup_samples": [s["setup_s"] for s in setups],
        "setup_raw_samples": [s["setup_raw_s"] for s in setups], "samples": out["samples"],
        "raw_samples": out.get("raw_samples"), "probes": probes,
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "self_times": out.get("self_times"), "spans": out.get("spans"),
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
