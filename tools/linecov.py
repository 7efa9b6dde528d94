"""Print the lines of src/phaselab that no Tier-1 test runs.

    python3 tools/linecov.py

Runs the Tier-1 suite (``pytest -q --continue-on-collection-errors`` over
the ``tests`` directory) in this process, under a line tracer set with
``sys.settrace`` and ``threading.settrace``.  The tracer follows only
frames whose code comes from a file under src/phaselab.
The executable lines of a file are the line numbers that ``co_lines``
yields for its module code and every code object nested in it.  Each
executable line that never ran is printed as ``path:line: source``.

The only lines left out are the bodies of ``if TYPE_CHECKING:`` and
``if __name__ == "__main__":`` blocks (EXCLUDED_TESTS): the first runs only
under a type checker, the second only when the module is run as a script.

Exit status: 0 when every executable line ran, 1 when some did not, and
pytest's own status when it could not run the suite (above 1).  The
expected-red checks of Tier-1 fail as usual and do not count.  The suite
runs about 1.5 times slower than without the tracer.

Standard library only, besides pytest itself.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phaselab"
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]
# the source of the tests of the `if` blocks whose bodies are not counted
EXCLUDED_TESTS = ("TYPE_CHECKING", "__name__ == '__main__'")


def excluded_lines(tree: ast.Module) -> set[int]:
    """The body lines of the module's EXCLUDED_TESTS blocks."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in EXCLUDED_TESTS:
            out.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return out


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the instructions of the file's code objects, less
    the excluded blocks."""
    source = path.read_text()
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines - excluded_lines(ast.parse(source))


def trace(package: Path, run: Callable[[], object]):
    """Call run() with line tracing on for the files under ``package``:
    returns run's result and, per file path, the set of lines that ran.
    The tracers in place before are put back after.

    A traced file's hits are a bytearray indexed by line, allocated when
    the file is first seen, so that recording a line allocates nothing:
    tests that measure their own allocations with tracemalloc read the
    same under the tracer."""
    prefix = str(package.resolve()) + os.sep
    hits: dict[str, bytearray | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename][frame.f_lineno] = 1
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in hits:
            path = os.path.realpath(filename)
            hits[filename] = (bytearray(len(Path(path).read_bytes().splitlines()) + 1)
                              if path.startswith(prefix) else None)
        return local if hits[filename] is not None else None

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    ran = {os.path.realpath(name): {line for line, hit in enumerate(lines) if hit}
           for name, lines in hits.items() if lines is not None}
    return result, ran


def never_run(package: Path, ran: dict[str, set[int]]) -> list[tuple[Path, int]]:
    """(file, line) for each executable line under ``package`` not in ``ran``."""
    out = []
    for path in sorted(package.resolve().rglob("*.py")):
        seen = ran.get(str(path), set())
        out.extend((path, line) for line in sorted(executable_lines(path) - seen))
    return out


def main() -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = trace(PACKAGE, lambda: pytest.main(PYTEST_ARGS))
    if status > 1:
        print(f"pytest could not run the suite: exit status {int(status)}", file=sys.stderr)
        return int(status)
    missing = never_run(PACKAGE, ran)
    for path, line in missing:
        source = path.read_text().splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    print(f"{len(missing)} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
