"""Run the seeded mutants of mutants/catalogue.py against their tests.

For each entry (or only those the command line names, by mutant name or
by the src file they edit) this copies src/, tests/, pyproject.toml and
README.md to a temporary directory, replaces the entry's old snippet with
its new one there, runs pytest on the entry's tests only, and prints one
row per mutant, with how many of its listed tests failed:

    killed    at least one listed test failed
    SURVIVED  every listed test passed
    ERROR     the snippet is not in its file exactly once, or pytest could
              not run the tests (a node id that no longer exists, say)
    timeout   the tests ran past the time limit (counted as killed)

    python3 mutants/run.py [name | src/punctual/FILE.py ...]

Selecting by file is a quick check while editing that file; the run of
every entry is the gate.  Standard library and pytest only.  Exits 1 if any
mutant survived or errored, else 0.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600


def load_catalogue():
    """The MUTANTS list of catalogue.py, read as a literal."""
    path = os.path.join(ROOT, "mutants", "catalogue.py")
    with open(path) as f:
        for node in ast.parse(f.read()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "MUTANTS"
                    for t in node.targets):
                return ast.literal_eval(node.value)
    raise SystemExit("%s assigns no MUTANTS" % path)


def run_one(entry):
    """(outcome, failed): killed, SURVIVED, ERROR or timeout, and the
    number of listed tests that failed (a parametrized test counts once)."""
    with tempfile.TemporaryDirectory(prefix="punctual-mutant-") as tmp:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(os.path.join(ROOT, name), tmp)
        path = os.path.join(tmp, entry["file"])
        with open(path) as f:
            text = f.read()
        if text.count(entry["old"]) != 1:
            return "ERROR", 0
        with open(path, "w") as f:
            f.write(text.replace(entry["old"], entry["new"]))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
               "no:cacheprovider", *entry["tests"]]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.path.join(tmp, "src"))
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", 0
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    killers = sum(any(f == t or f.startswith(t + "[") for f in failed)
                  for t in entry["tests"])
    # pytest: 0 all passed, 1 some test failed, else it could not run them
    return {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR"), killers


def main(args):
    entries = load_catalogue()
    unknown = set(args) - {e["name"] for e in entries} - {
        e["file"] for e in entries}
    if unknown:
        raise SystemExit("no mutant is named or edits: %s" %
                         ", ".join(sorted(unknown)))
    bad = 0
    width = max(len(e["name"]) for e in entries)
    for entry in entries:
        if args and entry["name"] not in args and entry["file"] not in args:
            continue
        outcome, killers = run_one(entry)
        bad += outcome in ("SURVIVED", "ERROR")
        print("%-*s  %-8s  %d of %d tests failed  %s" % (
            width, entry["name"], outcome, killers, len(entry["tests"]),
            entry["file"]), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
