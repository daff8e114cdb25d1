"""The CI workflow names only things that exist.

The run: lines of .github/workflows/tier1.yml are read as text (the CI
image installs no YAML parser).  Every jflow subcommand and builtin lattice
they name must be the package's, and every config, script and benchmark
path must be a file of the repository.  The traced perfbench guard must run
every workload BENCHMARK.json declares.  A shell loop's words stand in for
its variable, so `for cmd in flow ...; do jflow "$cmd"` checks each word.
"""

import argparse
import json
import re
from pathlib import Path

from jflow.cli import build_parser
from jflow.cone import BUILTIN_LATTICES

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

PATH = re.compile(r"(?<![\w./-])((?:configs|scripts|perfbench)/[\w./-]+)")
LOOP = re.compile(r"for (\w+) in ([^;]+);")


def run_scripts() -> list:
    """The shell text of each run: step; a block scalar (run: |) is its
    lines indented past the key."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    scripts = []
    for i, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not match:
            continue
        indent, text = len(match.group(1)), match.group(2)
        if text in ("|", ">"):
            body = []
            for nxt in lines[i + 1:]:
                if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                    break
                body.append(nxt.strip())
            text = "\n".join(body)
        scripts.append(text)
    return scripts


def expand_loops(text: str) -> list:
    """text once per word of each shell for loop, the word in place of the
    loop variable."""
    texts = [text]
    for var, words in LOOP.findall(text):
        texts = [t.replace(f'"${var}"', word).replace(f"${var}", word)
                 for t in texts for word in words.split()]
    return texts


def named(pattern: str) -> list:
    return [found for script in run_scripts() for text in expand_loops(script)
            for found in re.findall(pattern, text)]


def subcommands() -> set:
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return set(sub.choices)


def test_workflow_has_run_steps():
    scripts = run_scripts()
    assert len(scripts) >= 10
    assert any("pytest" in s for s in scripts)
    assert any(s.startswith("for w in") for s in scripts)


def test_jflow_subcommands_exist():
    used = named(r"\bjflow (\S+)")
    assert used and set(used) <= subcommands(), used


def test_lattices_exist():
    used = named(r"\bjflow cone (\w+)")
    assert used and set(used) <= set(BUILTIN_LATTICES), used


def test_paths_exist():
    used = set(named(PATH.pattern))
    assert {p.split("/")[0] for p in used} == {"configs", "scripts",
                                                "perfbench"}, used
    missing = sorted(p for p in used if not (ROOT / p).is_file())
    assert not missing, missing


def test_benchmark_workloads_exist():
    text = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    used = named(r'--workload (\S+)')
    assert used
    for name in used:
        assert re.search(rf'^\s+"{re.escape(name)}": \(', text, re.M), name


def test_perfbench_guard_runs_every_benchmark_workload():
    # the traced guard is the loop that fails on an ABSENT metric; a
    # workload BENCHMARK.json declares but the loop skips is never guarded
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {w["name"] for w in spec["workloads"]}
    guards = [s for s in run_scripts()
              if "perfbench/run.py" in s and "ABSENT" in s]
    assert guards
    for script in guards:
        guarded = {found for text in expand_loops(script)
                   for found in re.findall(r"--workload (\S+)", text)}
        assert declared <= guarded, sorted(declared - guarded)


def test_loops_expand():
    assert expand_loops('for x in a b; do run "$x" $x; done') == [
        'for x in a b; do run a a; done', 'for x in a b; do run b b; done']
