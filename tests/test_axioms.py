import random

import pytest

from punctual import axioms
from punctual.axioms import (check_antipode, check_bialgebra,
                             check_coassociative, check_cocommutative,
                             check_commutative, check_counit, check_primitive,
                             random_element, run_axiom_suite)
from punctual.hopf import HopfElement


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
    monkeypatch.setattr(axioms, "check_counit", lambda x: False)
    with pytest.raises(AssertionError,
                       match=r"^counit fails for \{.*\} \(d=1, sep\)$"):
        run_axiom_suite(random.Random(1), dims=(1,), variants=("sep",),
                        count=1, max_cycle_degree=2)
