"""List the `raise` statements of src/amfpmc/*.py that no tier-1 test reaches.

    python tools/unreached_raises.py [PYTEST ARGS ...]

Runs tier-1 (`pytest -q --continue-on-collection-errors` over tests/, or the
given pytest arguments) in this process under `sys.settrace` and
`threading.settrace`, recording each line executed in a src/amfpmc frame.
Every `raise` statement found by `ast` is reached when a line it spans ran.
Tests that start subprocesses reach nothing there. Prints each unreached
raise as `file:line  message`, where the message is the raise's first
argument with each f-string field written `{}`.

Exits 1 if a test fails, if an unreached raise is missing from ALLOWED, or
if an ALLOWED entry names no unreached raise; 0 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "amfpmc"

#: (file, message) of each raise that tier-1 may leave unreached, with the reason.
ALLOWED = {
    # an internal invariant: the split's construction rules out an overlap
    ("pipeline.py", "retrospective split produced overlapping train/test pairs"),
}


def message(node: ast.Raise) -> str:
    """The raise's first argument as text, each f-string field written {}."""
    exc = node.exc
    if exc is None:
        return "raise"
    arg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else exc
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in arg.values)
    return ast.unparse(arg)


def raises(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, message) of each raise statement in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((node.lineno, node.end_lineno, message(node))
                  for node in ast.walk(tree) if isinstance(node, ast.Raise))


def traced_run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code, and the (file, line) pairs executed in src/amfpmc frames."""
    import pytest

    src = str(SRC) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    pytest_args = argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                           str(ROOT / "tests")]
    code, ran = traced_run(pytest_args)
    imported = sys.modules.get("amfpmc")
    if imported is None or not str(Path(imported.__file__).resolve()).startswith(str(SRC)):
        print(f"amfpmc was not imported from {SRC}", file=sys.stderr)
        return 1
    unreached = []
    total = 0
    for path in sorted(SRC.glob("*.py")):
        for first, last, text in raises(path):
            total += 1
            if not any((str(path), line) in ran for line in range(first, last + 1)):
                unreached.append((path.name, first, text))
    print(f"{total - len(unreached)} of {total} raise statements reached")
    for name, line, text in unreached:
        note = "  (allowed)" if (name, text) in ALLOWED else ""
        print(f"{name}:{line}  {text}{note}")
    failed = code != 0
    if code != 0:
        print(f"pytest exited {code}", file=sys.stderr)
    missing = [(name, line) for name, line, text in unreached if (name, text) not in ALLOWED]
    if missing:
        print(f"{len(missing)} unreached raise statements are not in ALLOWED", file=sys.stderr)
        failed = True
    stale = ALLOWED - {(name, text) for name, _, text in unreached}
    for name, text in sorted(stale):
        print(f"ALLOWED names no unreached raise: {name}  {text}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
