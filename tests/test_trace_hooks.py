"""The benchmark tracer (perfbench/spans.py) wraps each method it names from
its class's own __dict__ and each function from its module, and reads the
cache_info() of each hopf cache it names.  A refactor that moves or renames
one of them fails here, not only in the benchmark suite.  spans.py is read,
never imported or executed."""

import ast
import importlib
import pathlib

import pytest

SPANS = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
         / "spans.py")


def _table(name):
    """The literal value assigned to name at the top of spans.py."""
    if not SPANS.is_file():
        pytest.skip("perfbench/spans.py is absent")
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py assigns no %s" % name)


def test_traced_methods_sit_in_their_class_body():
    for span, (module, cls, attrs) in _table("METHODS").items():
        klass = getattr(importlib.import_module("punctual." + module), cls)
        for attr in attrs:
            assert attr in vars(klass), "%s: %s.%s" % (span, cls, attr)


def test_traced_functions_exist():
    for span, (module, attr) in _table("FUNCTIONS").items():
        assert callable(getattr(importlib.import_module("punctual." + module),
                                attr, None)), span


def test_counted_hopf_caches_exist():
    hopf = importlib.import_module("punctual.hopf")
    for attr in _table("HOPF_CACHES"):
        assert callable(getattr(getattr(hopf, attr, None), "cache_info",
                                None)), attr
