"""The seeded mutants of mutants/catalogue.py still apply: each entry's old
snippet occurs exactly once in its src file, and each test it names is a
test function of its file.  Code that moves or changes under an entry fails
here, and the entry is updated with it.  catalogue.py is read, never
imported or executed; the mutants themselves run outside tier-1 (python3
mutants/run.py)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "mutants" / "catalogue.py"


def _mutants():
    if not CATALOGUE.is_file():
        pytest.skip("mutants/catalogue.py is absent")
    for node in ast.parse(CATALOGUE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "MUTANTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("catalogue.py assigns no MUTANTS")


def _test_functions(path):
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


def test_every_old_snippet_occurs_once_in_src():
    entries = _mutants()
    assert len({e["name"] for e in entries}) == len(entries)
    for e in entries:
        assert e["file"].startswith("src/punctual/"), e["name"]
        text = (ROOT / e["file"]).read_text()
        assert text.count(e["old"]) == 1, e["name"]
        assert e["new"] != e["old"] and e["why"], e["name"]


def test_every_listed_test_exists():
    for e in _mutants():
        assert e["tests"], e["name"]
        for node_id in e["tests"]:
            path, _, name = node_id.partition("::")
            assert name.split("[")[0] in _test_functions(ROOT / path), (
                e["name"], node_id)
