"""Print every line under src/ that no tier-1 test executes.

Runs the tier-1 suite in this process under `sys.settrace` (the standard
library only; `coverage` is not needed) and prints `module:line  source` for
each line of a module under src/ that no test ran, then a total.  A test
that starts a fresh interpreter runs there untraced, so it adds nothing;
the suite still runs whole.  Extra arguments go to pytest, e.g. `-x` or
`-k cli`.  pytest does not collect this file (its name has no `test_`).

Run from the repository root (it puts src/ first on sys.path itself):

    python tests/unexecuted_lines.py
"""
import sys
import types
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

executed = defaultdict(set)


def _local(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(str(SRC)):
        return None
    # a call reports the def line, which runs no line event of its own
    executed[filename].add(frame.f_lineno)
    return _local


def executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main(argv):
    sys.path.insert(0, str(SRC))  # trace the modules under SRC, not an installed copy
    sys.settrace(_global)
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        hit = executed[str(path)]
        for line in sorted(executable_lines(compile(text, str(path), "exec")) - hit):
            print(f"{path.relative_to(SRC).as_posix()}:{line}  {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} unexecuted lines under src/ (pytest exit status {int(status)})")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
