"""Line coverage of ``src/`` by the tier-1 tests, from the standard library.

    python3 tools/linecov.py

Runs pytest in this process (``-q -p no:cacheprovider
--hypothesis-seed=0 tests``, so that the property tests draw the same
examples at every run) with a ``sys.settrace`` tracer that records the
lines run in ``src/``, and prints every executable line that never ran.
A line is executable when the compiled module holds an instruction for
it (``co_lines`` of the module's code objects); the first line of a
function counts as run when the function is called.

Each line that stays uncovered on purpose is named, with its reason, in
``tools/linecov_allow.txt`` as ``path:line  reason``.  Exits 1 when a
line outside that list never ran, or when a listed line ran (the entry
is stale, for example because the code moved); with pytest's own exit
code when a test fails.  Tracing makes the tests run about 2.4 times as
long, so the script is a CI step of its own, not part of tier-1.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
ALLOW = os.path.join(ROOT, "tools", "linecov_allow.txt")
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]


def executable_lines(path: str) -> set[int]:
    """Lines of the module at ``path`` that hold an instruction."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs run in ``src/``."""
    seen: set[tuple[str, int]] = set()
    add = seen.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(call)
    try:
        code = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
    return int(code), seen


def read_allowlist() -> dict[str, str]:
    """``path:line`` -> reason, from the allowlist file."""
    allowed = {}
    with open(ALLOW, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if line and not line.startswith("#"):
                key, _, reason = line.partition(" ")
                allowed[key] = reason.strip()
    return allowed


def main() -> int:
    os.chdir(ROOT)
    code, seen = run_traced()
    if code != 0:
        print(f"linecov: pytest exited {code}; coverage not checked")
        return code
    missed = {}
    total = 0
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                lines = executable_lines(path)
                total += len(lines)
                with open(path, encoding="utf-8") as f:
                    text = f.read().splitlines()
                for n in sorted(lines):
                    if (path, n) not in seen:
                        missed[f"{os.path.relpath(path, ROOT)}:{n}"] = text[n - 1].strip()
    print(f"linecov: {len(missed)} of {total} executable lines in src/ never ran")
    allowed = read_allowlist()
    for key, text in missed.items():
        reason = allowed.get(key)
        print(f"  {key}  {text}" + (f"  (allowed: {reason})" if reason else "  NOT ALLOWED"))
    stale = sorted(set(allowed) - set(missed))
    for key in stale:
        print(f"  {key}  ran, but is on the allowlist: remove or move the entry")
    return 1 if stale or set(missed) - set(allowed) else 0


if __name__ == "__main__":
    sys.exit(main())
