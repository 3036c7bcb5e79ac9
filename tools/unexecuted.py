#!/usr/bin/env python3
"""Print every statement of `src/senqse` that no test executes.

The test suite runs in this process under ``sys.settrace`` (and
``threading.settrace``); line events are recorded only in frames whose code
lives under `src/senqse`, so the rest of the run is traced at call level
alone.  A statement counts as executed when a line event fires on one of its
own lines: a simple statement's lines, or a compound statement's header (its
decorators and the lines before its body).  Docstrings and ``try:`` headers
never fire a line event and are not listed.  Code run in worker processes
(``--workers`` tests) is not seen, so it may be listed although a test runs
it there.

Output, one line per unexecuted statement, in file and line order:
``src/senqse/FILE.py:LINE: first source line``, then a count.  The exit
status is 0 once pytest has run, whatever its outcome (the pytest summary
says which tests failed), and pytest's own status if it could not run.

Run from anywhere:  python3 tools/unexecuted.py [PYTEST ARGS]
(the default arguments run the whole suite quietly; about 85 s on a 2-core
host, against about 45 s untraced)
"""

import ast
import os
import sys
import threading

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "senqse")


def statement_lines(source: str) -> dict:
    """Map each statement's first line to the set of its own lines.

    A compound statement owns its decorators and its header, the lines
    before its first body statement; a docstring and a ``try:`` header own
    none and are left out.
    """
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                continue  # a docstring
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[first] = set(range(first, max(last, node.lineno) + 1))
    return out


def traced_run(run, prefix: str) -> set:
    """(filename, line) of every line event of ``run()`` in code under prefix.

    The tracers in place before the call are put back after it.
    """
    hits = set()
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.abspath(name).startswith(prefix)
        return local if inside[name] else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return {(os.path.abspath(name), line) for name, line in hits}


def read_sources(directory: str) -> dict:
    """{path: source} of every ``.py`` file of `directory`, in name order."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path) as fh:
                out[path] = fh.read()
    return out


def unexecuted(path: str, source: str, hits: set) -> list:
    """(line, source line) of each statement of `source`, the text of
    `path` that ran, with no own line hit."""
    lines = source.splitlines()
    seen = {line for name, line in hits if name == path}
    return [
        (first, lines[first - 1].strip())
        for first, own in sorted(statement_lines(source).items())
        if not own & seen
    ]


def main(argv) -> int:
    import pytest

    args = argv or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # read before the run, so a file edited while the suite runs is
    # reported on the text whose lines the events refer to
    sources = read_sources(PACKAGE)
    status = []
    hits = traced_run(lambda: status.append(pytest.main(args)), PACKAGE + os.sep)
    if status[0] not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(status[0])
    total = 0
    for path, source in sources.items():
        for line, text in unexecuted(path, source, hits):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements no test executed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
