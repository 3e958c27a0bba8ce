"""Line coverage of the switchnet package with the standard library alone.

Runs a script, or a module given with ``-m``, in this process under
``sys.settrace``, recording the lines it executes in the files under
``src/switchnet/``.  Then it prints to stderr, per module, the executable
lines that never ran.  A line is executable when the compiled module's
code objects list it in ``co_lines()``.

    python3 tools/linecov.py -m pytest -q
    python3 tools/linecov.py tools/fingerprint.py > /dev/null
    python3 tools/linecov.py demos/scheduler_comparison.py

The package is imported from ``src/`` beside this directory.
``SWITCHNET_THREADS`` is set to 1, so the CLI runs its replications in
this process, where they are traced.  Tracing makes the traced code
several times slower.  The exit status is the traced program's.
"""

from __future__ import annotations

import os
import runpy
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PKG = os.path.join(ROOT, "src", "switchnet")

# (file name, line) of every traced line that ran
_hits: set = set()
# file name -> whether it lies in the package, per code file seen
_ours: dict = {}


def _in_package(filename: str) -> bool:
    ours = _ours.get(filename)
    if ours is None:
        ours = _ours[filename] = os.path.dirname(os.path.realpath(filename)) == PKG
    return ours


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    filename = frame.f_code.co_filename
    if not _in_package(filename):
        return None
    _hits.add((filename, frame.f_lineno))
    return _line


def _executable(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines) -> str:
    """Sorted line numbers as runs, e.g. '12-14, 20'."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(stream=sys.stdout) -> None:
    ran: dict = {}
    for filename, line in _hits:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        lines = _executable(path)
        missed = lines - ran.get(path, set())
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}: {len(missed)} of {len(lines)} lines never ran"
              + (f": {_ranges(missed)}" if missed else ""), file=stream)


def main(argv) -> int:
    if not argv or argv[0] in ("-h", "--help") or argv == ["-m"]:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: linecov.py (-m module | script) [args ...]", file=sys.stderr)
        return 2
    os.environ["SWITCHNET_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    module = argv[0] == "-m"
    target = argv[1] if module else argv[0]
    sys.argv = argv[1:] if module else argv
    if not module:
        sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
    code = 0
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        if module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    sys.stdout.flush()
    report(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
