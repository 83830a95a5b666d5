import random

import pytest

from punctual import axioms, hopf
from punctual.axioms import (check_antipode, check_bialgebra,
                             check_coassociative, check_cocommutative,
                             check_commutative, check_counit, check_primitive,
                             random_element, run_axiom_suite)
from punctual.hopf import HopfElement, TensorElement


def test_individual_checks():
    x = HopfElement.generator(2, 2, (2, 1))
    y = HopfElement.generator(2, 1, (1, 0)) * HopfElement.generator(2, 1,
                                                                    (1, 1))
    assert check_coassociative(x)
    assert check_counit(x)
    assert check_cocommutative(x)
    assert check_commutative(x, y)
    assert check_bialgebra(x, y)
    assert check_antipode(x)
    assert check_antipode(y)


def test_primitive_check_discriminates():
    assert check_primitive(HopfElement.nonsep_generator(2, (1, 1)))
    assert not check_primitive(HopfElement.generator(1, 2, (2,)))


def test_random_element_deterministic():
    a = random_element(random.Random(99), 2, "sep", 4)
    b = random_element(random.Random(99), 2, "sep", 4)
    assert a == b
    assert a.d == 2 and a.variant == "sep"


def test_suite_counts():
    counts = run_axiom_suite(random.Random(1), dims=(1,), variants=("sep",),
                             count=5, max_cycle_degree=3)
    assert set(counts.values()) == {5}
    assert set(counts) == {"coassociativity", "counit", "cocommutativity",
                           "commutativity", "bialgebra", "antipode"}


def test_suite_names_a_failing_check(monkeypatch):
    monkeypatch.setattr(axioms, "check_counit", lambda x, *rest: False)
    with pytest.raises(AssertionError,
                       match=r"^counit fails for \{.*\} \(d=1, sep\)$"):
        run_axiom_suite(random.Random(1), dims=(1,), variants=("sep",),
                        count=1, max_cycle_degree=2)


# check function names by the name the suite reports
CHECKS = {"coassociativity": "check_coassociative",
          "counit": "check_counit",
          "cocommutativity": "check_cocommutative",
          "commutativity": "check_commutative",
          "bialgebra": "check_bialgebra",
          "antipode": "check_antipode"}


def _wrong_coproduct(coproduct):
    """A coproduct method that returns coproduct(x) with the coefficient of
    1 ox (x's largest monomial) doubled and one term l ox r, l != r both
    non-unit, moved to r ox l."""
    def wrong(x):
        terms = dict(coproduct(x).terms)
        if x.terms:
            terms[(), max(x.terms)] *= 2
        for l, r in sorted(terms):
            if l and r and l != r:
                terms[r, l] = terms.get((r, l), 0) + terms.pop((l, r))
                break
        return TensorElement(x.d, x.variant, x.basis, terms)
    return wrong


@pytest.mark.parametrize("name", ["coassociativity", "counit",
                                  "cocommutativity", "bialgebra",
                                  "antipode"])
def test_checks_fail_on_a_wrong_coproduct(monkeypatch, name):
    x = (HopfElement.generator(2, 2, (2, 1)) +
         HopfElement.generator(2, 1, (1, 0)) ** 2)
    y = HopfElement.generator(2, 1, (1, 1))
    args = (x, y) if name == "bialgebra" else (x,)
    check = getattr(axioms, CHECKS[name])
    assert check(*args)
    monkeypatch.setattr(HopfElement, "coproduct",
                        _wrong_coproduct(HopfElement.coproduct))
    assert not check(*args)
    # every other check passes, so the suite must name this one
    for other, function in CHECKS.items():
        if other != name:
            monkeypatch.setattr(axioms, function, lambda x, *rest: True)
    for variant in ("sep", "nonsep"):
        with pytest.raises(AssertionError, match=r"^%s fails for \{.*\} "
                           r"\(d=1, %s\)$" % (name, variant)):
            run_axiom_suite(random.Random(1), dims=(1,), variants=(variant,),
                            count=10, max_cycle_degree=3)


def test_antipode_check_fails_on_a_wrong_antipode(monkeypatch):
    """S(q_{n,m}) with every sign flipped; the name is patched where the
    check may read it, in hopf and in axioms."""
    right = hopf._antipode_in_q

    def flipped(n, m):
        den, image = right(n, m)
        return den, {mon: -c for mon, c in image.items()}
    x = HopfElement.generator(2, 2, (2, 1))
    assert check_antipode(x)
    monkeypatch.setattr(hopf, "_antipode_in_q", flipped)
    monkeypatch.setattr(axioms, "_antipode_in_q", flipped, raising=False)
    assert not check_antipode(x)
    with pytest.raises(AssertionError,
                       match=r"^antipode fails for \{.*\} \(d=1, sep\)$"):
        run_axiom_suite(random.Random(1), dims=(1,), variants=("sep",),
                        count=10, max_cycle_degree=3)
