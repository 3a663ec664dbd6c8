"""Every executable line of src/xsuperint runs under tier-1, or the
allow-list beside this script names it with the reason it cannot.

Run from the repository root, on one CPU so that verify's worker runs
in-process:

    taskset -c 0 python3 .github/line_coverage.py

Each allow-list entry is `module.py: stripped source text  # reason`, once
per unrun line.  Exits 1 when a line never runs and no entry names it, or
when an entry names no unrun line; else with pytest's exit code.
"""
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xsuperint"
FILES = {str(path): path for path in SRC.glob("*.py")}
ran = set()


def trace(frame, event, arg):
    """Record the frame's line at its call and at each line event, for code
    in FILES only."""
    if frame.f_code.co_filename not in FILES:
        return None
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def executable(code):
    """The line numbers `code` and its nested code objects hold code on."""
    yield from (ln for _, _, ln in code.co_lines() if ln)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from executable(const)


sys.path.insert(0, str(SRC.parent))     # before the package is imported
threading.settrace(trace)
sys.settrace(trace)
status = pytest.main(["-q", "--hypothesis-seed=0", "-p", "no:cacheprovider",
                      "tests"])
sys.settrace(None)
threading.settrace(None)
unrun, total = Counter(), 0
for name, path in sorted(FILES.items()):
    text = path.read_text()
    lines = set(executable(compile(text, name, "exec")))
    total += len(lines)
    source = text.splitlines()
    unrun.update(f"{path.name}: {source[ln - 1].strip()}"
                 for ln in lines if (name, ln) not in ran)
allowed = Counter()
for entry in Path(__file__).with_name("line_coverage_allow.txt").open():
    if entry.strip() and not entry.startswith("#"):
        key, _, reason = entry.rstrip("\n").rpartition("  # ")
        allowed[key if key and reason else f"(no reason) {entry.strip()}"] += 1
for entry in (unrun - allowed).elements():
    print(f"never runs, and not allow-listed: {entry}")
for entry in (allowed - unrun).elements():
    print(f"allow-listed, but runs or has no reason: {entry}")
print(f"{total - sum(unrun.values())} of {total} executable lines ran")
sys.exit(1 if unrun != allowed else status)
