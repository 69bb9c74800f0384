"""The mutation tool's own verdicts (``tests/mutants.py``), with pytest's
subprocess faked so that no test run starts."""

import subprocess
from pathlib import Path

import mutants

BY_NAME = {m.name: m for m in mutants.MUTANTS}


def _fake_run(hangs, killed):
    """A ``subprocess.run`` that times out on the copy ``hangs`` mutated,
    fails one test on the copy ``killed`` mutated and passes otherwise."""

    def run(command, *, env, timeout, **_):
        src = Path(env["PYTHONPATH"]) / "slotscore"

        def mutated(mutant):
            return mutant.replacement in (src / mutant.file).read_text(encoding="utf-8")

        if hangs is not None and mutated(hangs):
            raise subprocess.TimeoutExpired(command, timeout)
        if mutated(killed):
            return subprocess.CompletedProcess(command, 1, "FAILED tests/t.py::test_x - E\n", "")
        return subprocess.CompletedProcess(command, 0, "", "")

    return run


def test_a_timeout_fails_its_entry_by_name_and_the_run_goes_on(monkeypatch, capsys):
    hangs = BY_NAME["equal-slot-shortcut-tallies-fn"]
    killed = BY_NAME["trigger-overlap-counts-touching-spans"]
    monkeypatch.setattr(subprocess, "run", _fake_run(hangs, killed))
    assert mutants.main([hangs.name, killed.name]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(
        f"FAIL  {hangs.name}: pytest ran past the {mutants.TIMEOUT_S} s timeout: no verdict ("
    )
    assert lines[1].startswith(f"ok    {killed.name}: killed by tests/t.py::test_x (")
    assert lines[2].startswith("1 of 2 mutant(s) as expected in ")
    assert lines[2].endswith(" s")


def test_a_timeout_on_the_unmutated_copy_ends_the_run(monkeypatch, capsys):
    def run(command, *, timeout, **_):
        raise subprocess.TimeoutExpired(command, timeout)

    monkeypatch.setattr(subprocess, "run", run)
    name = "trigger-overlap-counts-touching-spans"
    assert mutants.main([name]) == 1
    assert capsys.readouterr().out == (
        f"the tests ran past the {mutants.TIMEOUT_S} s timeout on an unmutated copy: "
        f"{' '.join(BY_NAME[name].tests)}\n"
    )
