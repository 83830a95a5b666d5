import json
import operator
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import factorial, lcm

import pytest

from punctual import axioms, hopf
from punctual.axioms import check_primitive, random_element, run_axiom_suite
from punctual.hopf import (ContextMismatchError, HopfElement, TensorElement,
                           element_from_obj, element_pretty, element_to_obj,
                           sep_to_nonsep, tensor, tensor_from_obj,
                           tensor_pretty, tensor_to_obj, vertical_element)
from punctual.symfunc import ChernData

import oracles



def q(d, n, m):
    return HopfElement.generator(d, n, m)


def p(d, n, m):
    return HopfElement.generator(d, n, m, basis="p")


def test_coefficient_reads_the_canonical_monomial():
    x = q(2, 2, (1, 2)) * q(2, 1, (0, 1)) + F(1, 3) * q(2, 1, (0, 1))
    # factor order and lists for tuples name the same monomial
    for mon in (((2, (2, 1)), (1, (1, 0))), [[1, [1, 0]], [2, [2, 1]]]):
        assert x.coefficient(mon) == 1
    assert x.coefficient([(1, (1, 0))]) == F(1, 3)
    assert x.coefficient(()) == 0
    ns = HopfElement.nonsep_generator(2, (1,)) ** 2
    assert ns.coefficient([[1, 0], (1, 0)]) == 1
    # an unsorted m, a zero multiplicity and a wrong length are refused
    for bad in ([(1, (0, 1))], [(0, (1, 0))], [(1, (1, 0, 0))]):
        with pytest.raises(ValueError):
            x.coefficient(bad)
    with pytest.raises(ValueError):
        ns.coefficient([(0, 1)])


def test_generator_conventions():
    assert q(2, 0, (0, 0)) == HopfElement.unit(2)
    assert q(2, 0, (1, 0)).is_zero()
    # exponent vectors are sorted on input
    assert q(2, 1, (0, 2)) == q(2, 1, (2, 0))
    with pytest.raises(ValueError):
        HopfElement.generator(2, -1, (0, 0))
    with pytest.raises(ValueError):
        HopfElement.generator(2, 1, (0, 0, 0))


def test_algebra_ops():
    d = 1
    a, b = q(d, 1, (0,)), q(d, 1, (1,))
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    assert HopfElement.unit(d) * a == a
    assert 3 * a - a == 2 * a
    assert (a - a).is_zero()
    with pytest.raises(ContextMismatchError):
        q(1, 1, (0,)) + q(2, 1, (0, 0))


def test_counit():
    d = 2
    x = 5 * HopfElement.unit(d) + 3 * q(d, 1, (1, 0))
    assert x.counit() == 5
    assert q(d, 2, (0, 0)).counit() == 0


def test_coproduct_q22():
    x = q(1, 2, (2,))
    t = x.coproduct()
    unit = ()
    g = lambda n, m: ((n, m),)
    expected = {
        (unit, g(2, (2,))): F(1),
        (g(2, (2,)), unit): F(1),
        (g(1, (0,)), g(1, (2,))): F(1),
        (g(1, (2,)), g(1, (0,))): F(1),
        (g(1, (1,)), g(1, (1,))): F(1),
    }
    assert t.terms == expected


def test_coproduct_multiplicative():
    x = q(1, 1, (0,))
    y = q(1, 1, (2,))
    assert (x * y).coproduct() == x.coproduct() * y.coproduct()


def test_coproduct_needs_q_basis():
    with pytest.raises(ValueError):
        p(1, 2, (2,)).coproduct()


def test_counit_axiom_via_tensor():
    x = q(2, 2, (2, 1)) + 3 * q(2, 1, (1, 1)) * q(2, 1, (0, 0))
    t = x.coproduct()
    assert t.left_counit() == x
    assert t.right_counit() == x
    assert t.swap().swap() == t


def test_nonsep_generators_primitive():
    x = HopfElement.nonsep_generator(2, (2, 0))
    assert check_primitive(x)
    zero_lam = HopfElement.nonsep_generator(2, (0, 0))
    # the all-zero row is a genuine generator, not the unit
    assert zero_lam != HopfElement.unit(2, variant="nonsep")
    assert check_primitive(zero_lam)


def test_p22_in_q_basis():
    combo = p(1, 2, (2,)).to_q()
    expected = (q(1, 2, (2,)) - q(1, 1, (0,)) * q(1, 1, (2,))
                - F(1, 2) * q(1, 1, (1,)) * q(1, 1, (1,)))
    assert combo == expected


def test_q22_in_p_basis():
    combo = q(1, 2, (2,)).to_p()
    expected = (p(1, 2, (2,)) + p(1, 1, (0,)) * p(1, 1, (2,))
                + F(1, 2) * p(1, 1, (1,)) * p(1, 1, (1,)))
    assert combo == expected


def test_p2_11_in_q_basis_d2():
    combo = p(2, 2, (1, 1)).to_q()
    expected = (q(2, 2, (1, 1)) - q(2, 1, (0, 0)) * q(2, 1, (1, 1))
                - q(2, 1, (1, 0)) * q(2, 1, (1, 0)))
    assert combo == expected


def test_p_generators_are_primitive():
    for d, n, m in ((1, 2, (2,)), (2, 2, (2, 1)), (1, 3, (3,))):
        assert check_primitive(p(d, n, m).to_q())


def test_basis_roundtrip_corpus():
    rng = random.Random(7)
    for variant in ("sep", "nonsep"):
        for d in (0, 1, 2, 3):
            if variant == "nonsep" and d == 0:
                continue
            for _ in range(10):
                x = random_element(rng, d, variant, max_cycle_degree=4,
                                   max_m=3 if d <= 1 else 2)
                assert x.to_p().to_q() == x.to_q()
                assert x.to_q().to_p() == x.to_p()


def test_antipode_q22():
    s = q(1, 2, (2,)).antipode()
    expected = (-q(1, 2, (2,)) + 2 * q(1, 1, (0,)) * q(1, 1, (2,))
                + q(1, 1, (1,)) * q(1, 1, (1,)))
    assert s == expected


def test_antipode_involutive_on_corpus():
    rng = random.Random(13)
    for variant in ("sep", "nonsep"):
        for d in (1, 2):
            for _ in range(6):
                x = random_element(rng, d, variant, max_cycle_degree=3,
                                   max_m=2)
                s = x.antipode()
                assert s.antipode() == x
    assert HopfElement.unit(1).antipode() == HopfElement.unit(1)


# every canonical row with n <= 4, d <= 3 and entries <= 2, and (5, (2, 2))
ORACLE_ROWS = [(n, m) for d in range(4) for n in range(1, 5)
               for m in combinations_with_replacement((2, 1, 0), d)]
ORACLE_ROWS += [(5, (2, 2)), (5, (2, 2, 1))]
# rows with many equal (mostly zero) columns, where one monomial collects
# the compositions of several column orders
ORACLE_ROWS += [(8, (0,)), (7, (0, 0)), (7, (1, 0)), (6, (1, 1, 0))]


@pytest.mark.parametrize("expansion, den, weight", [
    (hopf._q_in_p, factorial, lambda k: F(1, factorial(k))),
    (hopf._p_in_q, lambda n: lcm(*range(1, n + 1)),
     lambda k: F((-1) ** (k + 1), k)),
    (hopf._antipode_in_q, lambda n: 1, lambda k: F((-1) ** k)),
], ids=["q_in_p", "p_in_q", "antipode_in_q"])
def test_generator_expansions_match_the_composition_oracle(expansion, den,
                                                           weight):
    # each expansion is a map of integer numerators over one denominator,
    # read through the decode of its id monomials
    for n, m in ORACLE_ROWS:
        e, nums = expansion(n, m)
        assert e == den(n) and all(type(c) is int for c in nums.values())
        assert {hopf._decode(mon): F(c, e) for mon, c in nums.items()} == \
            oracles.composition_sum(n, m, weight), (n, m)


def test_column_tables_match_the_splitting_oracle():
    # A_k(k, m) counts the ordered splittings of m into k columns by their
    # sorted tuple of sorted columns, for d <= 3, k <= 5 and entries <= 2
    for d in range(4):
        for m in combinations_with_replacement((2, 1, 0), d):
            for k in range(1, 6):
                expected = Counter(
                    tuple(sorted(tuple(sorted(c, reverse=True)) for c in cols))
                    for cols in oracles.vector_splits(m, k))
                assert hopf._columns(k, m) == dict(expected), (k, m)


CACHED_TABLES = ("_q_in_p", "_p_in_q", "_antipode_in_q", "_sep_gen_image",
                 "_columns")


def _clear_hopf_caches():
    for table in vars(hopf).values():
        if hasattr(table, "cache_clear"):
            table.cache_clear()


def test_structure_maps_leave_the_cached_tables_as_computed(monkeypatch):
    # _expand and _sep_gen_image hand out a cached table's own dict, so a
    # caller that wrote to it would change every later read: after the
    # structure maps and the axiom suite, each entry they read still equals
    # a fresh recomputation
    _clear_hopf_caches()
    seen = {name: set() for name in CACHED_TABLES}
    for name in CACHED_TABLES:
        def recorded(*args, table=getattr(hopf, name), keys=seen[name]):
            keys.add(args)
            return table(*args)
        monkeypatch.setattr(hopf, name, recorded)
    monkeypatch.setattr(axioms, "_antipode_in_q", hopf._antipode_in_q)
    rng = random.Random(7)
    for d in (1, 2, 3):
        for _ in range(6):
            x = random_element(rng, d, "sep", max_cycle_degree=5, max_m=2)
            y = x.to_p()
            assert y.to_q() == x
            x.antipode(), y.antipode(), x.coproduct()
            sep_to_nonsep(x), sep_to_nonsep(y)
    run_axiom_suite(random.Random(3), variants=("sep",), count=4)
    monkeypatch.undo()
    assert all(seen.values())
    kept = {(name, args): getattr(hopf, name)(*args)
            for name, keys in seen.items() for args in keys}
    _clear_hopf_caches()
    for (name, args), value in kept.items():
        assert getattr(hopf, name)(*args) == value, (name, args)


# sep monomials of one or two factors over the rows with n <= 3, d <= 2 and
# entries <= 2, and a few with three; nonsep monomials of up to three
# factors over the partitions with d <= 2 and parts <= 2
_SEP_FACTORS = {d: [(n, m) for n in range(1, 4)
                    for m in combinations_with_replacement((2, 1, 0), d)]
                for d in range(3)}
COPRODUCT_MONOMIALS = [("sep", tuple(sorted(mon))) for d in range(3)
                       for k in (1, 2)
                       for mon in combinations_with_replacement(
                           _SEP_FACTORS[d], k)]
COPRODUCT_MONOMIALS += [
    ("sep", ((1, (1,)),) * 3), ("sep", ((1, (1, 0)), (1, (1, 0)), (2, (1, 1)))),
    ("sep", ((1, ()), (2, ()), (3, ())))]
# d = 3 factors with equal entries in m, where splittings merge into classes
COPRODUCT_MONOMIALS += [("sep", mon) for mon in (
    ((2, (1, 1, 0)),), ((3, (1, 1, 1)),), ((3, (2, 1, 1)),),
    ((6, (2, 1, 1)),), ((4, (2, 2, 1)),), ((2, (1, 1, 0)),) * 3,
    ((3, (1, 1, 0)), (3, (2, 1, 1))))]
COPRODUCT_MONOMIALS += [("nonsep", mon) for d in (1, 2) for k in (1, 2, 3)
                        for mon in combinations_with_replacement(
                            sorted(combinations_with_replacement(
                                (2, 1, 0), d)), k)]


def test_monomial_coproducts_match_the_splitting_oracle():
    # the cached coproduct of the id monomial, its pairs decoded
    for variant, mon in COPRODUCT_MONOMIALS:
        pairs = hopf._monomial_coproduct(variant, hopf._ids(mon))
        assert {(hopf._decode(l), hopf._decode(r)): c
                for (l, r), c in pairs.items()} == \
            oracles.monomial_coproduct(variant, mon), (variant, mon)


def test_grades():
    (cyc, hom, tot, comp), = q(2, 2, (3, 1)).grade()
    assert (cyc, hom, tot) == (2, 8, 0)
    (cyc, hom, tot, comp), = q(1, 1, (0,)).grade()
    assert (cyc, hom, tot) == (1, 0, -2)
    # nonsep: cycle degree counts factors
    (cyc, hom, tot, comp), = \
        (HopfElement.nonsep_generator(2, (1, 1)) ** 2).grade()
    assert (cyc, hom, tot) == (2, 8, 0)


def test_grade_splits_components():
    x = q(1, 1, (1,)) + q(1, 2, (2,))
    parts = x.grade()
    assert len(parts) == 2
    assert sum((c for *_ , c in parts), HopfElement.zero(1)) == x


def test_sep_to_nonsep_images():
    img = sep_to_nonsep(q(1, 2, (2,)))
    q0 = HopfElement.nonsep_generator(1, (0,))
    q1 = HopfElement.nonsep_generator(1, (1,))
    q2 = HopfElement.nonsep_generator(1, (2,))
    assert img == q0 * q2 + F(1, 2) * q1 * q1
    # n = 1 generators map to single rows
    assert sep_to_nonsep(q(2, 1, (2, 0))) == \
        HopfElement.nonsep_generator(2, (2, 0))


def test_sep_generator_images_match_the_oracle():
    for n, m in ORACLE_ROWS:
        img = sep_to_nonsep(HopfElement.generator(len(m), n, m))
        assert img.terms == oracles.sep_generator_image(n, m), (n, m)


def test_sep_to_nonsep_kills_higher_primitives():
    assert sep_to_nonsep(p(1, 2, (2,))).is_zero()
    assert sep_to_nonsep(p(2, 3, (3, 2))).is_zero()
    assert sep_to_nonsep(p(1, 1, (2,))) == \
        HopfElement.nonsep_generator(1, (2,))


def test_sep_to_nonsep_refuses_a_nonsep_element():
    with pytest.raises(ContextMismatchError) as err:
        sep_to_nonsep(HopfElement.nonsep_generator(1, (2,)))
    assert type(err.value) is ContextMismatchError
    assert str(err.value) == "sep_to_nonsep expects the sep variant"


@pytest.mark.parametrize("call, message", (
    (lambda: HopfElement(-1, "sep", "q"), "dimension must be >= 0"),
    (lambda: q(1, 1, (1,)) ** -1, "exponent must be a non-negative integer"),
    (lambda: vertical_element(ChernData(1, {(1,): F(2)}), -1),
     "n_max must be >= 0"),
    (lambda: vertical_element(ChernData(1, {(1,): F(2)}), 2, variant="x"),
     "variant must be 'sep' or 'nonsep'"),
), ids=("dimension", "power", "n-max", "variant"))
def test_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize("variant, mon, message", (
    ("sep", ((1, (1.5,)),), "bad exponent vector in (1, (1.5,)) for d=1"),
    ("sep", ((True, (1,)),),
     "sep factor needs multiplicity >= 1, got (True, (1,))"),
    ("nonsep", ((2.0,),), "bad nonsep factor (2.0,) for d=1"),
), ids=("float-entry", "bool-multiplicity", "float-part"))
def test_constructor_refuses_non_integer_factor_entries(variant, mon, message):
    # a stored float entry would print as q_{1,(1.5)} and break the coproduct
    with pytest.raises(ValueError) as err:
        HopfElement(1, variant, "q", {mon: 1})
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_sep_to_nonsep_is_algebra_map():
    rng = random.Random(23)
    for _ in range(8):
        d = rng.choice((1, 2))
        x = random_element(rng, d, "sep", max_cycle_degree=3, max_m=2)
        y = random_element(rng, d, "sep", max_cycle_degree=2, max_m=2)
        assert sep_to_nonsep(x * y) == sep_to_nonsep(x) * sep_to_nonsep(y)


def test_sep_to_nonsep_is_coalgebra_map():
    rng = random.Random(29)
    for _ in range(8):
        d = rng.choice((1, 2))
        x = random_element(rng, d, "sep", max_cycle_degree=3, max_m=2)
        lhs = sep_to_nonsep(x).coproduct()
        t = x.coproduct()
        rhs = None
        for (l, r), c in t.terms.items():
            li = sep_to_nonsep(HopfElement(x.d, "sep", "q", {l: F(1)}))
            ri = sep_to_nonsep(HopfElement(x.d, "sep", "q", {r: F(1)}))
            prod = tensor(li, ri).scaled(c)
            rhs = prod if rhs is None else rhs + prod
        if rhs is None:
            assert lhs.terms == {}
        else:
            assert lhs == rhs


def test_dim0_coproduct_is_binomial_splitting():
    x = HopfElement.generator(0, 3, ())
    t = x.coproduct()
    assert len(t.terms) == 4
    assert all(c == 1 for c in t.terms.values())
    assert x.to_p().to_q() == x


def test_vertical_element_d1():
    chi = F(5)
    zs = vertical_element(ChernData(1, {(1,): chi}), 2)
    assert zs[0] == HopfElement.unit(1, basis="p")
    assert zs[1] == chi * p(1, 1, (1,))
    assert zs[2] == chi * p(1, 2, (2,)) + \
        chi ** 2 / 2 * p(1, 1, (1,)) * p(1, 1, (1,))


def test_vertical_element_nonsep():
    chi = F(3)
    zs = vertical_element(ChernData(1, {(1,): chi}), 2, variant="nonsep")
    c = HopfElement.nonsep_generator(1, (1,))
    assert zs[1] == chi * c
    assert zs[2] == chi ** 2 / 2 * c * c


def test_element_serialization_roundtrip():
    rng = random.Random(31)
    for variant in ("sep", "nonsep"):
        for basis in ("q", "p"):
            for _ in range(6):
                d = rng.choice((1, 2, 3))
                x = random_element(rng, d, variant, max_cycle_degree=3,
                                   max_m=2)
                if basis == "p":
                    x = x.to_p()
                obj = element_to_obj(x)
                assert element_from_obj(json.loads(json.dumps(obj))) == x


def test_element_serialization_shape():
    x = F(1, 2) * q(2, 2, (2, 1))
    obj = element_to_obj(x)
    assert obj == {"d": 2, "variant": "sep", "basis": "q",
                   "terms": [{"monomial": [[2, [2, 1]]], "coeff": "1/2"}]}
    y = HopfElement.nonsep_generator(2, (2, 0))
    assert element_to_obj(y)["terms"][0]["monomial"] == [[1, [2, 0]]]


def test_tensor_serialization_roundtrip():
    t = q(1, 2, (2,)).coproduct()
    obj = tensor_to_obj(t)
    assert tensor_from_obj(json.loads(json.dumps(obj))) == t


def test_tensor_drops_zero_coefficients():
    zero = TensorElement(1, "sep", "q", {((), ()): 0})
    assert zero == TensorElement(1, "sep", "q") and not zero.terms
    assert tensor_pretty(zero) == tensor_pretty(TensorElement(1, "sep", "q"))


def test_tensor_from_obj_names_bad_shape():
    obj = tensor_to_obj(q(1, 2, (2,)).coproduct())
    with pytest.raises(ValueError, match="tensor has no 'basis' key"):
        tensor_from_obj({k: v for k, v in obj.items() if k != "basis"})
    with pytest.raises(ValueError, match="tensor term 1 has no 'right' key"):
        tensor_from_obj(dict(obj, terms=[{"left": [], "coeff": "1"}]))
    with pytest.raises(ValueError, match="tensor must be a JSON object"):
        tensor_from_obj([obj])
    for bad, message in (
            (dict(obj, variant="bogus", basis="z"), "variant must be"),
            (dict(obj, basis="z"), "basis must be"),
            (dict(obj, d=1.5), "tensor: 'd' must be an integer, got 1.5"),
            (dict(obj, terms={}), "tensor: 'terms' must be a list"),
            (dict(obj, terms=[{"left": [[0, [0, 0]]], "right": [],
                               "coeff": "1"}]), "multiplicity >= 1"),
            (dict(obj, terms=[{"left": [[1, [1]]], "right": [[1, [1, 0]]],
                               "coeff": "1"}]), "bad exponent vector"),
            (dict(obj, d=2, terms=[{"left": [], "right": [[1, [0, 1]]],
                                    "coeff": "1"}]), "bad exponent vector"),
            (dict(obj, terms=[{"left": [[True, [1]]], "right": [],
                               "coeff": "1"}]),
             "tensor term 1: left 'n' must be an integer, got True"),
            (dict(obj, terms=[{"left": [], "right": [[1, [1.5]]],
                               "coeff": "1"}]),
             r"tensor term 1: right 'm' must be a list of integers")):
        with pytest.raises(ValueError, match=message):
            tensor_from_obj(bad)


def test_pretty():
    x = q(1, 2, (2,)) + F(1, 2) * q(1, 1, (1,)) * q(1, 1, (1,))
    assert element_pretty(x) == "1/2*q_{1,(1)}^2 + 1/1*q_{2,(2)}"
    assert element_pretty(HopfElement.zero(1)) == "0"
    assert "(x)" in tensor_pretty(x.coproduct())


def test_elements_and_tensors_do_not_mix():
    x = q(1, 2, (2,))
    t = x.coproduct()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ContextMismatchError):
            op(x, t)
        with pytest.raises(ContextMismatchError):
            op(t, x)
    assert x != t and t != x


def test_scalars_add_as_the_unit_monomial():
    # a scalar c adds as c*1 to an element and as c*(1 ox 1) to a tensor,
    # from either side
    x = q(1, 2, (2,))
    t = tensor(x, x)
    g = ((2, (2,)),)
    assert (t + 2).terms == (2 + t).terms == {(g, g): 1, ((), ()): 2}
    assert (x + 2).terms == (2 + x).terms == {g: 1, (): 2}
    assert (t + F(-1, 3)) - t == TensorElement(1, "sep", "q",
                                               {((), ()): F(-1, 3)})
    assert not (x == 3) and x != 3
    assert repr(x + 1) == "HopfElement(d=1, sep, q basis, 2 terms)"
    assert repr(t) == "TensorElement(d=1, sep, 1 terms)"


def test_scalars_subtract_and_multiply_from_either_side():
    x = q(1, 2, (2,))
    t = tensor(x, x)
    g = ((2, (2,)),)
    assert (3 - x).terms == {g: -1, (): 3}
    assert 3 - x == -(x - 3)
    assert (F(1, 2) - t).terms == {(g, g): -1, ((), ()): F(1, 2)}
    assert 1 - t == -(t - 1)
    assert (t * 2).terms == (2 * t).terms == {(g, g): 2}
    assert (t * F(-2, 3)).terms == (F(-2, 3) * t).terms == {(g, g): F(-2, 3)}
    assert t * 0 == 0 * t == TensorElement(1, "sep", "q")
    assert 2 * t == t.scaled(2) and (2 * x).terms == {g: 2}


def test_constructors_cancel_one_monomial_in_two_factor_orders():
    a, b = (1, (1,)), (2, (2,))
    x = HopfElement(1, "sep", "q", {(a, b): F(1, 2), (b, a): F(-1, 2)})
    assert x.terms == {}
    t = TensorElement(1, "sep", "q", {((a, b), ()): 3, ((b, a), ()): -3,
                                      ((), (b,)): 1})
    assert t.terms == {((), (b,)): 1}
    # nonsep factors, coefficients given as a string and a Fraction
    a, b = (2, 0), (1, 1)
    y = HopfElement(2, "nonsep", "q", {(a, b): "2/3", (b, a): F(-2, 3)})
    assert y == HopfElement.zero(2, "nonsep") and y.terms == {}
    y = HopfElement(2, "nonsep", "q", {(a, b): 1, (b, a): "1/2"})
    assert y.terms == {(b, a): F(3, 2)} and type(y.terms[b, a]) is F


def test_zero_sums_and_zero_scalars_store_no_term():
    # sums and scalar multiples, scalars 0 among them, keep no zero
    # coefficient and store Fractions
    x = q(1, 2, (2,))
    t = tensor(x, x)
    g = ((2, (2,)),)
    assert (x + 0).terms == (x + F(0)).terms == {g: 1}
    assert (0 + t).terms == {(g, g): 1}
    assert (x - x).terms == {} and (t - t).terms == {}
    assert x.scaled(0).terms == {} and (0 * t).terms == {}
    assert (3 - (x + 3)).terms == {g: -1}
    for y in (x + 0, 0 + t, 3 - x):
        assert all(type(c) is F for c in y.terms.values())


def _decoded_form(y):
    """y's denominator and numerators, keyed by decoded monomials."""
    return y._den, {y._decoded(key): c for key, c in y._nums.items()}


def test_terms_is_a_read_only_view_of_the_integer_form():
    g = ((1, (1,)),)
    x = HopfElement(1, "sep", "q", {g: F(2, 4), (): F(-3, 6)})
    assert _decoded_form(x) == (2, {g: 1, (): -1})
    assert x.terms == {g: F(1, 2), (): F(-1, 2)} and x.terms is x.terms
    t = tensor(x, x)
    assert _decoded_form(t) == (4, {(g, g): 1, (g, ()): -1, ((), g): -1,
                                    ((), ()): 1})
    for y in (x, t):
        with pytest.raises(AttributeError):
            y.terms = {}
    zero = x - x
    assert _decoded_form(zero) == (1, {}) and zero.terms == {}


def test_each_generator_keeps_one_id_that_decodes_back_to_it():
    # ids are given on first sight and never reused, whatever the context
    gens = [(n, m) for d in range(3) for n in (1, 2, 5)
            for m in combinations_with_replacement((3, 1, 0), d)]
    gens += [lam for d in (1, 2) for lam in
             combinations_with_replacement((4, 2, 0), d)]
    ids = [hopf._IDS[g] for g in gens]
    assert len(set(ids)) == len(gens)
    assert [hopf._GENS[i] for i in ids] == gens
    assert [hopf._IDS[g] for g in reversed(gens)] == ids[::-1]


def test_a_sep_q_1_lam_and_a_nonsep_q_lam_share_one_id():
    # both are interned as the row (1, lam); each element still shows its
    # own form
    lam, mu = (3, 1), (2, 0)
    s, t = q(2, 1, lam), HopfElement.nonsep_generator(2, lam)
    assert s._nums == t._nums == {(hopf._IDS[1, lam],): 1}
    assert s.terms == {((1, lam),): 1} and t.terms == {(lam,): 1}
    assert t.coproduct().terms == {((lam,), ()): 1, ((), (lam,)): 1}
    for x in (s, t):
        assert element_to_obj(x)["terms"] == [
            {"monomial": [[1, [3, 1]]], "coeff": "1/1"}]
        (cyc, hom, tot, part), = x.grade()
        assert (cyc, hom, tot) == (1, 8, 4) and part == x
    assert element_pretty(s) == "1/1*q_{1,(3,1)}"
    assert element_pretty(t) == "1/1*q_{(3,1)}"
    assert s.coefficient([(1, lam)]) == t.coefficient([lam]) == 1
    with pytest.raises(ValueError, match="bad nonsep factor"):
        t.coefficient([(1, lam)])
    assert sep_to_nonsep(p(2, 1, lam) * p(2, 1, mu)) == \
        HopfElement.nonsep_generator(2, lam) * \
        HopfElement.nonsep_generator(2, mu)


def test_coefficient_of_a_generator_never_met_adds_no_id():
    x = q(2, 1, (1, 0)) + HopfElement.unit(2)
    y = HopfElement.nonsep_generator(2, (1, 0))
    size = len(hopf._GENS)
    for k in range(10 ** 6, 10 ** 6 + 1000):
        assert x.coefficient([(1, (k, 0))]) == 0
        assert x.coefficient([(1, (1, 0)), (k, (0, 0))]) == 0
        assert y.coefficient([(k, k)]) == 0
    assert len(hopf._GENS) == size
    # refusals still come first
    with pytest.raises(ValueError, match="multiplicity >= 1"):
        x.coefficient([(0, (10 ** 7, 0))])
    with pytest.raises(ValueError, match="bad nonsep factor"):
        y.coefficient([(10 ** 7, 10 ** 7, 0)])
    assert len(hopf._GENS) == size


def test_terms_decode_to_nested_order_against_the_id_order():
    # generators of a context no other test uses, met one at a time from
    # the highest down, so that their ids run against nested order
    d, gens = 7, [(n, (9,) * 7) for n in (3, 2, 1)]
    for g in gens:
        q(d, *g)
    assert [hopf._IDS[g] for g in gens] == sorted(hopf._IDS[g] for g in gens)
    mon = tuple(sorted(gens))
    x = HopfElement(d, "sep", "q", {tuple(gens): F(1, 2)})
    assert list(x.terms) == [mon] and x.coefficient(gens) == F(1, 2)
    assert list(tensor(x, x).terms) == [(mon, mon)]
    assert element_to_obj(x)["terms"] == [
        {"monomial": [[n, list(m)] for n, m in mon], "coeff": "1/2"}]
    assert element_pretty(x) == "1/2*" + "*".join(
        "q_{%d,(%s)}" % (n, ",".join(map(str, m))) for n, m in mon)
    (*_, part), = x.grade()
    assert list(part.terms) == [mon]


def test_terms_refuses_writes_and_keeps_agreeing_with_the_form():
    g, h = ((1, (1, 0)),), ((2, (1, 1)),)
    y = HopfElement(2, "sep", "q", {g: 1})
    t = tensor(y, y)
    for z, key in ((y, g), (t, (g, g))):
        view = z.terms
        with pytest.raises(TypeError):
            z.terms[key] = 5
        with pytest.raises(TypeError):
            z.terms[h] = 1
        with pytest.raises(TypeError):
            del z.terms[key]
        assert z.terms is view and z.terms == {key: F(1)}
    assert y == HopfElement(2, "sep", "q", {g: 1})
    assert dict(y.terms) == {g: F(1)} and y.terms == {g: 1}


def test_constructors_check_every_key_before_any_coefficient():
    bad, good = ((0, (1,)),), ((1, (1,)),)
    for terms in ({bad: 1, good: "x"}, {good: "x", bad: 1}):
        with pytest.raises(ValueError, match="multiplicity >= 1"):
            HopfElement(1, "sep", "q", terms)
        with pytest.raises(ValueError, match="multiplicity >= 1"):
            TensorElement(1, "sep", "q",
                          {(k, ()): c for k, c in terms.items()})
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        HopfElement(1, "sep", "q", {good: "x"})
