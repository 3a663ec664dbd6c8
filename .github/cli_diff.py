"""Compare the CLI output of two source trees on every key of a references
file (each key is one `xsuperint` command line).  Each command runs in a
fresh temporary working directory, once per tree; its stdout, stderr, exit
code and every file it writes are compared.  Prints, as Markdown, how many
keys differ and the first differing line of each, marking a key "floats
only" when it differs in float digits alone, as the benchmark judges
outputs (see `floats_only`).  Always exits 0.

    python3 .github/cli_diff.py BASE_SRC HEAD_SRC benchmarks/references.json
"""
import json
import os
import shlex
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
import run as bench  # noqa: E402  (benchmarks/run.py)


def run(src: str, key: str) -> dict[str, str]:
    """Stdout, stderr, exit code and written files of `xsuperint KEY`."""
    with tempfile.TemporaryDirectory() as cwd:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, "-m", "xsuperint",
                               *shlex.split(key)], cwd=cwd, env=env,
                              capture_output=True, text=True)
        out = {"exit code": str(proc.returncode), "stderr": proc.stderr,
               "stdout": proc.stdout}
        for root, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(root, name)
                with open(path, encoding="utf-8", errors="replace") as fh:
                    out["file " + os.path.relpath(path, cwd)] = fh.read()
    return out


def first_difference(key: str, base: dict, head: dict):
    """'- `key`: part, line i: `base line` -> `head line`' for the first
    part that differs, or None."""
    for part in sorted(base.keys() | head.keys()):
        if base.get(part) != head.get(part):
            old = base.get(part, "<missing>").splitlines() or [""]
            new = head.get(part, "<missing>").splitlines() or [""]
            i = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                     min(len(old), len(new)))
            shown = [lines[i] if i < len(lines) else "<end>"
                     for lines in (old, new)]
            return (f"- `{key}`: {part}, line {i + 1}: `{shown[0]}` -> "
                    f"`{shown[1]}`")
    return None


def verdicts(stdout: str) -> list[str]:
    """The PASS or FAIL of each gate line, in order."""
    return [line[:4] for line in stdout.splitlines()
            if line.startswith(("PASS ", "FAIL "))]


def floats_only(base: dict, head: dict) -> bool:
    """Whether two runs of a key differ in float digits alone: the same
    exit code, stderr and gate verdicts, stdout the same under the
    benchmark's `masked_lines`, and each written file the same under its
    `file_summary` and `same_summary` (CSVs by column sums, to 1e-6)."""
    if base.keys() != head.keys():
        return False
    for part, old in base.items():
        new = head[part]
        if part == "stdout":
            same = (bench.masked_lines(old) == bench.masked_lines(new)
                    and verdicts(old) == verdicts(new))
        elif part.startswith("file "):
            same = bench.same_summary(bench.file_summary(part, old),
                                      bench.file_summary(part, new))
        else:
            same = old == new
        if not same:
            return False
    return True


def main() -> None:
    base_src, head_src, references = sys.argv[1:4]
    with open(references, encoding="utf-8") as fh:
        keys = list(json.load(fh))
    differ, floats = [], 0
    for key in keys:
        base, head = run(base_src, key), run(head_src, key)
        line = first_difference(key, base, head)
        if line is not None:
            if floats_only(base, head):
                floats += 1
                line += " (floats only)"
            differ.append(line)
    print(f"CLI output against the base branch: {len(differ)} of "
          f"{len(keys)} reference keys differ ({floats} in floats only)")
    if differ:
        print()
        print("\n".join(differ))


if __name__ == "__main__":
    main()
