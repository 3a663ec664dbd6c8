"""Compare the CLI output of two source trees on every key of a references
file (each key is one `xsuperint` command line).  Each command runs in a
fresh temporary working directory, once per tree; its stdout, stderr, exit
code and every file it writes are compared.  Prints, as Markdown, how many
keys differ and the first differing line of each.  Always exits 0.

    python3 .github/cli_diff.py BASE_SRC HEAD_SRC benchmarks/references.json
"""
import json
import os
import shlex
import subprocess
import sys
import tempfile


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


def main() -> None:
    base_src, head_src, references = sys.argv[1:4]
    with open(references, encoding="utf-8") as fh:
        keys = list(json.load(fh))
    found = [first_difference(key, run(base_src, key), run(head_src, key))
             for key in keys]
    differ = [line for line in found if line is not None]
    print(f"CLI output against the base branch: {len(differ)} of "
          f"{len(keys)} reference keys differ")
    if differ:
        print()
        print("\n".join(differ))


if __name__ == "__main__":
    main()
