"""Named mutants of the source, each with the tests that must kill it.

Run from anywhere as ``python tests/mutants.py``; name mutants after it to
run only those. The script first runs every listed killer test on an
unmutated copy of ``src/``, which must pass. Then, for each mutant, it
copies ``src/`` to a temporary directory, replaces the mutant's snippet
with its replacement there, and runs the mutant's killers against that copy
with ``pytest -x``. A mutant is killed when a killer fails. The script
exits non-zero when a mutant survives, when its snippet no longer occurs
exactly once in its file, or when its killers cannot be run (a killer
id that no longer names a test is such a case).

Pytest collects only ``test_*.py``, so tier-1 never runs this file. When a
change adds a fast path, add its mutants to ``MUTANTS``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/paratrace
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # test ids, relative to the repository root
    guards: str  # the change whose code the mutant undoes


SCANNED_ONCE = ("tests/test_engine.py::test_a_finished_rollout_is_scanned_once[3]",
                "tests/test_engine.py::test_a_finished_rollout_is_scanned_once[2000]")
LAYOUT_INVARIANT = ("tests/test_structure_reference.py::"
                    "test_a_report_carries_the_layout_exactly_when_the_walk_reads_it")

MUTANTS = (
    Mutant("step-span-ends-at-close", "validation.py",
           "top.steps += top.at, i + 1",
           "top.steps += top.at, i",
           ("tests/test_topology.py::TestMask::test_e1_fixture_bit_for_bit",),
           "one tag state machine: the validator lays out the walk"),
    Mutant("no-l-max-update", "validation.py",
           "                    top.l_max = length\n",
           "                    pass\n",
           ("tests/test_topology.py::TestPositions::test_e1_fixture",),
           "one tag state machine: the validator lays out the walk"),
    Mutant("layout-on-a-broken-report", "validation.py",
           "        return ValidationReport(tuple(violations))\n",
           "        return ValidationReport(tuple(violations), _layout=(scanned, bounds))\n",
           (LAYOUT_INVARIANT,),
           "one tag state machine: the validator lays out the walk"),
    Mutant("walk-returns-the-layout-lists", "topology.py",
           "tuple(tuple(zip(f.steps[::2], f.steps[1::2]))",
           "tuple(list(zip(f.steps[::2], f.steps[1::2]))",
           (LAYOUT_INVARIANT,),
           "one tag state machine: the validator lays out the walk"),
    Mutant("walk-scans-twice", "topology.py",
           "validate_structure(key, events=tag_scan(key) if events is None else events)",
           "validate_structure(key, events=tag_scan(key))",
           SCANNED_ONCE,
           "one tag state machine: the validator lays out the walk"),
    Mutant("scan-returns-the-token", "tags.py",
           "list(map(_TAG_BY_TEXT.__getitem__, map(texts.__getitem__, indices)))",
           "list(map(texts.__getitem__, indices))",
           ("tests/test_document.py::TestTags::test_vocabulary",),
           "the one tag scan in compress and map"),
    Mutant("finish-calls-scan-for-themselves", "engine.py",
           "doc=parse_document(tokens, events=events), _log=run.log,\n"
           "                         stats=topology_stats(tokens, events=events)",
           "doc=parse_document(tokens), _log=run.log,\n"
           "                         stats=topology_stats(tokens)",
           SCANNED_ONCE,
           "one scan per finished rollout"),
    Mutant("numpy-scalar-as-a-row", "advantages.py",
           "        if isinstance(adv, Real):\n",
           "        if isinstance(adv, (int, float)):\n",
           ("tests/test_advantages.py::TestScalarAdvantages::test_any_real_scalar_broadcasts",),
           "scalar advantages broadcast as one float"),
)


def run_tests(src: Path, killers, cwd: str) -> int:
    """Pytest's exit code for ``killers`` run with ``-x`` against the
    package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(str(ROOT / k) for k in killers)]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True).returncode


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def verdict(mutant: Mutant) -> str:
    text = (ROOT / "src" / "paratrace" / mutant.path).read_text()
    if text.count(mutant.snippet) != 1:
        return "STALE: the snippet does not occur exactly once"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = copy_src(tmp)
        (src / "paratrace" / mutant.path).write_text(
            text.replace(mutant.snippet, mutant.replacement))
        code = run_tests(src, mutant.killers, tmp)
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {code}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants:", ", ".join(sorted(unknown)))
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    killers = sorted({k for m in mutants for k in m.killers})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = copy_src(tmp)
        where = subprocess.run(
            [sys.executable, "-c", "import paratrace; print(paratrace.__file__)"],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the copy is not what is imported: paratrace is {where or 'missing'}")
            return 2
        code = run_tests(src, killers, tmp)
    if code != 0:
        print(f"the killers do not pass on the unmutated source (pytest exited {code};"
              " 4 means a killer id names no test)")
        return 2
    failed = 0
    for mutant in mutants:
        result = verdict(mutant)
        failed += result != "killed"
        print(f"{mutant.name:36} {result:10}  {mutant.path}: {mutant.guards}")
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
