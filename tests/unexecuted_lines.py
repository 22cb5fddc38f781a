"""Check that every line under src/ runs in tier-1 but the kept lines.

Runs the tier-1 suite in this process under `sys.settrace` (the standard
library only; `coverage` is not needed) and prints `module:line  source` for
each line of a module under src/ that no test ran, then a total.  A test
that starts a fresh interpreter runs there untraced, so it adds nothing;
the suite still runs whole.  Extra arguments go to pytest, e.g. `-x` or
`-k cli`.  pytest does not collect this file (its name has no `test_`).

KEPT names the lines left unexecuted on purpose, by module and stripped
source text, since line numbers move.  The exit status is 0 when the suite
passes and the unexecuted lines are exactly the kept ones, and 1 when the
suite fails, another line is unexecuted, or a kept line runs or is gone.

Run from the repository root (it puts src/ first on sys.path itself):

    python tests/unexecuted_lines.py
"""
import sys
import types
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

executed = defaultdict(set)

KEPT = {
    # run only as a script, under `__main__`
    ("bundlecert/cli.py", "sys.exit(main())"),
    # `_search_primitive`: primitive polynomials exist in every degree, so the
    # loop always returns
    ("bundlecert/zeta/field.py",
     'raise RuntimeError("unreachable: primitive polynomials exist in every degree")'),
    # the "unknown" stratum of `quartic_region_run`: QUARTIC_GRAM has no curve
    # class candidate at degrees 1 and 2, and the branch keeps that statement
    # derived rather than asserted
    ("bundlecert/k3lat.py", "ok = False"),
    ("bundlecert/k3lat.py",
     'strata.append({"degrees": str(d), "rule": "unknown", "candidates": raw})'),
}


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
    missed, count = set(), 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        module = path.relative_to(SRC).as_posix()
        hit = executed[str(path)]
        for line in sorted(executable_lines(compile(text, str(path), "exec")) - hit):
            print(f"{module}:{line}  {source[line - 1].strip()}")
            missed.add((module, source[line - 1].strip()))
            count += 1
    print(f"{count} unexecuted lines under src/ (pytest exit status {int(status)})")
    for module, text in sorted(missed - KEPT):
        print(f"not kept: {module}  {text}")
    for module, text in sorted(KEPT - missed):
        print(f"kept but executed or gone: {module}  {text}")
    return 0 if status == 0 and missed == KEPT else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
