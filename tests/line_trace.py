"""Every line of ``src/tiltrate`` that the Tier-1 suite never runs, found with the standard library.

    PYTHONPATH=src python tests/line_trace.py

Runs the Tier-1 suite (``pytest -q --continue-on-collection-errors`` from the repository root) in
this process under ``--hypothesis-seed=0``, with a ``sys.settrace`` line tracer set before tiltrate is
imported, and records each line that a frame of ``src/tiltrate`` executes.  Then it prints, one a
line, as ``tilting.py:492: <the line>``, every line that holds code (one that some code object
compiled from the file maps an instruction to, ``co_lines``) and never ran.  ``__main__.py`` and the
body of an ``if __name__ == "__main__":`` block are skipped: the command line's entry point runs in a
child process, which the tracer does not follow (the child imports tiltrate from ``src`` too, as
``PYTHONPATH`` here names it).  Hypothesis runs with no deadline, since the tracer slows every test,
and with no example database, so that examples saved by earlier runs do not add draws.  It exits 1
if it printed a line or a test failed, else 0.  pytest does not collect this file: its name does not
start with ``test_``.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltrate"


def code_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code: those of its code objects' ``co_lines``, nested ones
    included, less the body of any ``if __name__ == "__main__":`` block."""
    source = path.read_text()
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on ``args`` and, per file name of ``src/tiltrate``, the lines its frames ran."""
    seen, ours = {}, {}  # code file name -> lines run; code file name -> whether it is in the package

    def lines(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(os.path.realpath(name)).parent == PACKAGE
            if ours[name]:
                seen.setdefault(name, set())
        return lines if ours[name] else None

    import pytest
    from hypothesis import settings

    settings.register_profile("line_trace", deadline=None, database=None)
    settings.load_profile("line_trace")
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {Path(os.path.realpath(name)).name: run for name, run in seen.items()}


def main() -> int:
    sys.path[0] = str(ROOT)  # as ``python -m pytest`` from the root puts it first
    sys.path.insert(1, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    code, ran = traced_run(["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__main__.py":
            text = path.read_text().splitlines()
            missed += [f"{path.name}:{n}: {text[n - 1].strip()}"
                       for n in sorted(code_lines(path) - ran.get(path.name, set()))]
    if missed:
        print("\n".join(missed), flush=True)
    return 1 if missed or code else 0


if __name__ == "__main__":
    sys.exit(main())
