"""Line trace of the gengeo sources over a pytest session.

Run from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

While the session runs, ``sys.settrace`` and ``threading.settrace`` record
every line of ``src/gengeo`` that executes, on the calling thread and on the
flow's helper thread alike.  At the end of the session the plugin prints each
statement that never ran and is not in ``ALLOWED``, and each ``ALLOWED``
entry that no longer names a never-run statement; either one makes the exit
status nonzero.  A statement is the first line of an ``ast`` statement that
compiles to bytecode (docstrings and ``global`` lines do not).  Lines that
run only in child processes are not seen, so such a line is listed here.

``ALLOWED`` is keyed by file name and stripped source text, so that line
shifts do not break it; one entry covers every never-run statement of that
file with that text.  Each entry gives its reason.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gengeo"

ALLOWED = {
    ("flow.py", "return os.cpu_count() or 1"):
        "fallback for platforms without os.sched_getaffinity",
    ("cli.py", "sys.exit(main())"):
        "runs only in the child process of tests/test_cli.py::test_console_entry_point",
    # internal errors: each guards an identity that holds for every input
    ("metric.py",
     'raise RuntimeError("internal error: Delta_X Y has a nonvanishing vector part")'):
        "[X-, Y+] and the lift of [X, Y] have the same vector part [X, Y]",
    ("spin55.py", 'raise RuntimeError("internal error: xi_A != -4 i_Y omega")'):
        "the 1-form part of Q(c + omega + i_Y phi), an identity of the 5-d spin algebra",
    ("spin55.py",
     'raise RuntimeError("internal error: i_X phi != -2 omega^2 + 4c i_Y phi")'):
        "the vector part of Q(c + omega + i_Y phi), an identity of the 5-d spin algebra",
    ("spin55.py", 'raise RuntimeError("internal error: generic structure is not critical")'):
        "a validated generic structure is critical by construction",
    # spin55 invariants that no pair can violate
    ("spin55.py", 'raise GramError("triple Gram entry is not a constant multiple of f")'):
        "Q is null, so (Q(rho1 + t rho2), Q(rho1 + t rho2)) = 0 for all t: every Gram "
        "entry is a constant multiple of f",
    ("spin55.py", 'raise StabilityError("annihilation precondition violated: v1.rho1 != 0 '
                  '(non-orbit input)")'):
        "the 10-d Fierz identity gives Q(phi).phi = 0 for every spinor phi",
    ("spin55.py", 'raise StabilityError("annihilation precondition violated: v2.rho2 != 0 '
                  '(non-orbit input)")'):
        "the 10-d Fierz identity gives Q(phi).phi = 0 for every spinor phi",
    ("spin55.py", 'raise NormalizationError("normalization failed: <rho_hat2, rho1> != -phi")'):
        "follows from the first normalization by polarization of Q",
}

_hits = set()
_prefix = str(SRC) + "/"


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_prefix):
        return _local
    return None


def _code_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """First lines of the statements of ``path`` that compile to bytecode."""
    text = path.read_text()
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0].lineno)
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt)} - docstrings
    return starts & _code_lines(compile(text, str(path), "exec"))


def never_run():
    """(file name, line number, stripped text) of each never-run statement."""
    missed = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(_statements(path)):
            if (str(path), line) not in _hits:
                missed.append((path.name, line, source[line - 1].strip()))
    return missed


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    missed = never_run()
    keys = {(name, text) for name, _, text in missed}
    session.config._linetrace = (
        [m for m in missed if (m[0], m[2]) not in ALLOWED],
        sorted(key for key in ALLOWED if key not in keys),
        len(missed))
    if session.config._linetrace[0] or session.config._linetrace[1]:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    unlisted, stale, total = config._linetrace
    write = terminalreporter.write_line
    terminalreporter.section("linetrace")
    for name, line, text in unlisted:
        write(f"never run: src/gengeo/{name}:{line}: {text}")
    for name, text in stale:
        write(f"stale allowlist entry: {name}: {text}")
    write(f"{total} never-run statements, {len(unlisted)} not in the "
          f"allowlist, {len(stale)} stale allowlist entries")
