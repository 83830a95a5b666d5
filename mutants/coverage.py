"""List the lines of src/punctual that no test reaches.

Runs pytest in this process under a sys.settrace line tracer that records
every line executed in src/punctual, then prints each executable line that
was never reached (path:line and its text) and their count.  The
executable lines are those in the line tables of each compiled module and
of every code object nested in it.  Code that runs only in a child process
(the CLI tests that start `python -m punctual.cli`) is not seen.  A line in
LISTED, by file and text, is printed with the reason it stays unreached;
any other one wants a test, or deletion if no input can reach it.

    python3 mutants/coverage.py [pytest arguments]    # default: tests/

Standard library and pytest only; the traced run is several times slower
than a plain one.  Exits with pytest's status.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "punctual") + os.sep

# (file, stripped line text) -> why no test in this process reaches it
LISTED = {
    ("src/punctual/cli.py", "sys.exit(main())"):
        "the __main__ entry point, run only by the child processes of the "
        "CLI tests",
}


def executable_lines(path):
    """The line numbers of every instruction compiled from path."""
    with open(path) as f:
        stack = [compile(f.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args):
    import pytest
    reached = set()

    def line_tracer(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            return line_tracer(frame, event, arg)
        return None

    # src in place of this script's directory, which would shadow an
    # installed "coverage" package
    sys.path[0] = os.path.dirname(SRC.rstrip(os.sep))
    sys.settrace(call_tracer)
    try:
        status = pytest.main(args or [os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
    missed = listed = 0
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path) as f:
            text = f.read().splitlines()
        for line in sorted(executable_lines(path)):
            if (path, line) not in reached:
                key = os.path.relpath(path, ROOT), text[line - 1].strip()
                missed += 1
                listed += key in LISTED
                print("%s:%d: %s%s" % (key[0], line, key[1],
                                       "  [listed: %s]" % LISTED[key]
                                       if key in LISTED else ""))
    print("%d src lines not reached, %d of them listed" % (missed, listed))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
