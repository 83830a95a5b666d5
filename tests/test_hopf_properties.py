"""Linearity of the Hopf structure maps and multiplicativity of the
coproduct, involutions of the basis changes and the antipode, and the sep
q-basis antipode against the p-basis sign flip, as Hypothesis properties
over small sep and nonsep elements; elements and tensors built by
distributing, cancelling or scaling back compare equal; the coproduct,
basis changes and antipode of elements with mixed coefficient
denominators equal the Fraction oracles; [Z_n] matches the naive recursion of
oracles.vertical_classes on rational Chern numbers, drawn and at fixed
n_max up to 8, where one generator takes n_max copies, and n! [Z_n] is
integral for integer ones; the nonsep [Z_n] is c^n/n! built from products;
every operation, [Z_n] included, stores only nonzero Fractions under
canonical keys, scalars 0 among its inputs, over an integer form in lowest
terms; the pair route of
vertical_series equals the naive pairing of those classes for theories
with fractional primitive values and for theories that pair every
generator to 0; theory_exp inverts theory_log on random generator
tables, sep and nonsep, and a random primitive table reads its entries, as
values, primitive values and the primitive values of its exp; the element
and tensor printers, text and JSON, give the bytes of oracles' reference
printers, on drawn elements and on the 529- and 520-term outputs of two
benchmark jobs; the product, coproduct, basis changes, antipode and
sep_to_nonsep of drawn products give the terms, printed text and JSON of
references computed on nested-tuple monomials alone."""

import json
import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from math import factorial, gcd
from operator import methodcaller
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from punctual.axioms import random_element
from punctual.combinat import partitions_of
from punctual.genfun import vertical_series
from punctual.hopf import (HopfElement, TensorElement, element_pretty,
                           element_to_obj, sep_to_nonsep,
                           tensor, tensor_pretty, tensor_to_obj,
                           vertical_element)
from punctual.symfunc import ChernData
from punctual.theories import (ck_theory, dt_vertex_theory, ek_theory,
                               table_theory, theory_exp, theory_log)

import oracles

# few small examples, the same ones every run
examples = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)

coeffs = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                   st.integers(1, 3))

# strategies are cached per context: building one costs more than drawing


@lru_cache(maxsize=None)
def rows(d):
    return st.lists(st.integers(0, 2), min_size=d, max_size=d).map(
        lambda m: tuple(sorted(m, reverse=True)))


@lru_cache(maxsize=None)
def monomials(d, variant):
    factor = rows(d) if variant == "nonsep" else st.tuples(st.integers(1, 2),
                                                           rows(d))
    return st.lists(factor, max_size=2).map(lambda mon: tuple(sorted(mon)))


@lru_cache(maxsize=None)
def pairs(d, variant):
    return st.tuples(monomials(d, variant), monomials(d, variant))


@lru_cache(maxsize=None)
def term_maps(keys):
    return st.dictionaries(keys, coeffs, max_size=3)


@st.composite
def contexts(draw, variant=None, basis=None):
    variant = variant or draw(st.sampled_from(("sep", "nonsep")))
    d = draw(st.integers(0 if variant == "sep" else 1, 2))
    return d, variant, basis or draw(st.sampled_from(("q", "p")))


@st.composite
def elements(draw, count=2, variant=None, basis=None):
    """count elements of one random context."""
    d, variant, basis = draw(contexts(variant, basis))
    terms = term_maps(monomials(d, variant))
    return [HopfElement(d, variant, basis, draw(terms)) for _ in range(count)]


@st.composite
def tensors(draw, count=2):
    """count tensor elements of one random context."""
    d, variant, basis = draw(contexts())
    terms = term_maps(pairs(d, variant))
    return [TensorElement(d, variant, basis, draw(terms))
            for _ in range(count)]


def combo(a, x, b, y):
    return x.scaled(a) + y.scaled(b)


@pytest.mark.parametrize("f, variant, basis", [
    (lambda x: x.coproduct(), None, "q"),
    (lambda x: x.to_p(), None, None),
    (lambda x: x.to_q(), None, None),
    (lambda x: x.antipode(), None, None),
    (sep_to_nonsep, "sep", None),
], ids=["coproduct", "to_p", "to_q", "antipode", "sep_to_nonsep"])
@examples
@given(data=st.data())
def test_element_maps_are_linear(f, variant, basis, data):
    x, y = data.draw(elements(variant=variant, basis=basis))
    a, b = data.draw(coeffs), data.draw(coeffs)
    assert f(combo(a, x, b, y)) == combo(a, f(x), b, f(y))


@pytest.mark.parametrize("f", [TensorElement.left_counit,
                               TensorElement.right_counit],
                         ids=["left_counit", "right_counit"])
@examples
@given(tu=tensors(), a=coeffs, b=coeffs)
def test_counits_are_linear(f, tu, a, b):
    t, u = tu
    assert f(combo(a, t, b, u)) == combo(a, f(t), b, f(u))


@examples
@given(xyz=elements(count=3), a=coeffs, b=coeffs)
def test_tensor_is_bilinear(xyz, a, b):
    x, y, z = xyz
    assert tensor(combo(a, x, b, y), z) == combo(a, tensor(x, z),
                                                 b, tensor(y, z))
    assert tensor(z, combo(a, x, b, y)) == combo(a, tensor(z, x),
                                                 b, tensor(z, y))


@examples
@given(xyz=elements(count=3), tuv=tensors(count=3), c=coeffs)
def test_equal_elements_built_by_different_routes_compare_equal(xyz, tuv, c):
    # distributivity, cancellation and a scalar and its inverse must land
    # on one stored form, whatever route built it
    for x, y, z in (xyz, tuv):
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x
        assert x.scaled(Fraction(1, 2)).scaled(2) == x
        assert x.scaled(c).scaled(1 / c) == x
        assert x.scaled(c) + x.scaled(1 - c) == x


@examples
@given(xy=elements(basis="q"))
def test_coproduct_is_multiplicative(xy):
    x, y = xy
    assert (x * y).coproduct() == x.coproduct() * y.coproduct()


@examples
@given(xs=elements(count=1))
def test_basis_changes_and_antipode_are_involutions(xs):
    x, = xs
    # to_q . to_p on a q-basis x, to_p . to_q on a p-basis x
    assert x.to_p().to_q() == x.to_q()
    assert x.to_q().to_p() == x.to_p()
    assert x.antipode().antipode() == x


@examples
@given(xs=elements(count=1, variant="sep", basis="q"))
def test_antipode_matches_the_p_basis_route(xs):
    # S is -1 on primitives and multiplicative: flip the sign of the
    # odd-length p-basis monomials
    x, = xs
    p = x.to_p()
    flipped = HopfElement(p.d, "sep", "p", {mon: (-1) ** len(mon) * c
                                            for mon, c in p.terms.items()})
    assert x.antipode() == flipped.to_q()


# coefficients over several distinct denominators, so that no common
# denominator of an element is one of its coefficients' own
mixed_coeffs = st.sampled_from((Fraction(1, 2), Fraction(2, 3), Fraction(5, 7),
                                Fraction(-3, 4), Fraction(7, 5),
                                Fraction(-11, 6), Fraction(13, 9)))

# map name -> (variant, basis of the argument, the composition weight of
# one sep generator's image, None for the coproduct)
_REFERENCES = {
    "coproduct": (None, "q", None),
    "to_p": ("sep", "q", lambda k: Fraction(1, factorial(k))),
    "to_q": ("sep", "p", lambda k: Fraction((-1) ** (k + 1), k)),
    "antipode": ("sep", "q", lambda k: Fraction((-1) ** k)),
}


@pytest.mark.parametrize("name", sorted(_REFERENCES))
@examples
@given(data=st.data())
def test_structure_maps_match_the_fraction_oracles(name, data):
    variant, basis, weight = _REFERENCES[name]
    d, variant, basis = data.draw(contexts(variant, basis))
    x = HopfElement(d, variant, basis, data.draw(st.dictionaries(
        monomials(d, variant), mixed_coeffs, min_size=2, max_size=4)))
    if weight is None:
        image = partial(oracles.monomial_coproduct, variant)
    else:
        image = partial(oracles.substitute, expansion=lambda n, m:
                        oracles.composition_sum(n, m, weight))
    y = getattr(x, name)()
    assert y.terms == oracles.linear(x.terms, image)
    assert all(type(c) is Fraction for c in y.terms.values())


@st.composite
def chern_data(draw):
    """Integer monomial Chern numbers in -5..5 of a d-fold, d <= 3."""
    d = draw(st.integers(1, 3))
    return ChernData(d, {lam: draw(st.integers(-5, 5))
                         for lam in partitions_of(d, d)})


@examples
@given(chern=chern_data(), n_max=st.integers(0, 5),
       variant=st.sampled_from(("sep", "nonsep")))
def test_vertical_classes_are_integral_after_n_factorial(chern, n_max,
                                                         variant):
    # by the exponential formula, n! [Z_n] has n! prod <m_lam>^k / k! on a
    # monomial with k copies of each generator, an integer as sum k <= n
    # (sep, p basis); it is c^n in the q basis (nonsep)
    for n, z in enumerate(vertical_element(chern, n_max, variant=variant)):
        assert all((factorial(n) * c).denominator == 1
                   for c in z.terms.values()), (n, z.terms)


@st.composite
def rational_chern_data(draw):
    """Rational monomial Chern numbers of a d-fold, d <= 3, over mixed
    denominators, zeros included."""
    d = draw(st.integers(1, 3))
    numbers = st.builds(Fraction, st.integers(-4, 4),
                        st.sampled_from((1, 2, 3, 4, 6, 9)))
    return ChernData(d, {lam: draw(numbers) for lam in partitions_of(d, d)})


@settings(examples, max_examples=30)
@given(chern=rational_chern_data(), n_max=st.integers(0, 6))
def test_vertical_classes_match_the_naive_recursion(chern, n_max):
    expected = oracles.vertical_classes(chern.d, dict(chern.items()), n_max)
    zs = vertical_element(chern, n_max)
    assert [z.terms for z in zs] == expected
    for z in zs:
        assert (z.d, z.variant, z.basis) == (chern.d, "sep", "p")
        assert all(type(c) is Fraction for c in z.terms.values())


@examples
@given(chern=rational_chern_data(), n_max=st.integers(0, 5))
def test_nonsep_vertical_classes_are_the_scaled_powers(chern, n_max):
    _assert_nonsep_classes_are_the_scaled_powers(chern, n_max)


def _assert_nonsep_classes_are_the_scaled_powers(chern, n_max):
    # [Z_n] = c^n / n! with c = sum_lam <m_lam> q_lam
    d = chern.d
    c = HopfElement(d, "nonsep", "q", {(lam + (0,) * (d - len(lam)),): v
                                       for lam, v in chern.items()})
    power = HopfElement.unit(d, "nonsep", "q")
    for n, z in enumerate(vertical_element(chern, n_max, variant="nonsep")):
        assert z == power.scaled(Fraction(1, factorial(n)))
        assert all(type(x) is Fraction for x in z.terms.values())
        power = power * c


def _stored_canonically(x):
    """Every coefficient of x is a nonzero Fraction under a key that x's
    constructor stores unchanged (so canonical, and no two merge)."""
    return (all(type(c) is Fraction and c for c in x.terms.values())
            and type(x)(x.d, x.variant, x.basis, x.terms).terms == x.terms)


def _integer_form_is_canonical(x):
    """x's numerators over its denominator are nonzero with gcd 1 (so zero
    is 1 over nothing), and terms reads each as a Fraction over it, under
    the decoded key."""
    den, nums = x._den, x._nums
    return (type(den) is int and den >= 1 and gcd(den, *nums.values()) == 1
            and all(type(c) is int and c for c in nums.values())
            and x.terms == {x._decoded(k): Fraction(c, den)
                            for k, c in nums.items()})


scalars = st.one_of(coeffs, st.sampled_from((0, Fraction(0), 1, -2)))


@settings(examples, max_examples=40)
@given(data=st.data())
def test_every_operation_stores_nonzero_fractions_under_canonical_keys(data):
    x, y = data.draw(elements())
    c = data.draw(scalars)
    t, u = tensor(x, y), tensor(y, x)
    outs = [x + y, x - y, x - x, x + c, c + x, c - x, x.scaled(c), c * x,
            x * y, x.antipode(), x.to_p(), x.to_q(), t, t + u, t - t,
            c + t, t - c, c - t, t.scaled(c), c * t, t * u, t.swap(),
            t.left_counit(), t.right_counit()]
    outs += [z for *_, z in (x * y).grade()]
    if x.variant == "nonsep" or x.basis == "q":
        outs.append(x.coproduct())
    if x.variant == "sep":
        outs.append(sep_to_nonsep(x))
    chern = data.draw(rational_chern_data())
    outs += vertical_element(chern, data.draw(st.integers(0, 4)),
                             variant=data.draw(st.sampled_from(("sep",
                                                                "nonsep"))))
    for i, out in enumerate(outs):
        assert _integer_form_is_canonical(out), (i, out._den, out._nums)
        assert _stored_canonically(out), (i, out.terms)


@pytest.mark.parametrize("n_max", (3, 4, 7, 8))
@pytest.mark.parametrize("d, numbers", (
    (1, {(1,): Fraction(-3, 2)}),
    (2, {(2,): Fraction(3, 4), (1, 1): Fraction(-5, 6)}),
), ids=("d1", "d2"))
def test_vertical_classes_at_the_field_width_boundary(d, numbers, n_max):
    # at d = 1 the one generator of each variant reaches n_max copies;
    # orders past 8 are checked at a random point by test_point_eval.py
    chern = ChernData(d, numbers)
    expected = oracles.vertical_classes(d, numbers, n_max)
    assert [z.terms for z in vertical_element(chern, n_max)] == expected
    _assert_nonsep_classes_are_the_scaled_powers(chern, n_max)


@lru_cache(maxsize=None)
def _vertical_theory(form, d, n_max):
    """c^2, e^2, an empty table or the DT vertex theory at the caps the
    vertical series reads."""
    m_cap = n_max - 1 + d
    if form == "dt":
        return dt_vertex_theory(n_max, n_max + 2)
    if form == "ek":
        return ek_theory(2, d, n_max, m_cap)
    if form == "empty":
        return table_theory((), d, n_max, m_cap)
    return ck_theory(2, d, n_max, m_cap)


@st.composite
def vertical_theories(draw, d, n_max):
    """c^2, the DT vertex theory (d = 3) or a sparse random table, all with
    primitive values over denominators > 1; or e^2 or an empty table, which
    pair every generator p_{j, lam+j-1} to 0."""
    form = draw(st.sampled_from(("ck", "table", "dt", "ek", "empty") if d == 3
                                else ("ck", "table", "ek", "empty")))
    if form != "table":
        return _vertical_theory(form, d, n_max)
    m_cap = n_max - 1 + d
    keys = st.tuples(st.integers(1, max(n_max, 1)), st.lists(
        st.integers(0, max(m_cap, 0)), min_size=d, max_size=d).map(tuple))
    entries = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=4))
    return table_theory(entries.items(), d, n_max, m_cap)


@settings(examples, max_examples=80)
@given(chern=rational_chern_data(), n_max=st.integers(0, 7),
       data=st.data())
def test_paired_vertical_series_matches_the_naive_pairing(chern, n_max,
                                                          data):
    e = data.draw(vertical_theories(chern.d, n_max))
    series = vertical_series(e, chern, n_max, path="pair")
    value = lambda g: e.primitive_value(*g)
    expected = [oracles.pairing(z, value, False) for z in
                oracles.vertical_classes(chern.d, dict(chern.items()), n_max)]
    assert [series.coefficient((n,)) for n in range(n_max + 1)] == expected


@st.composite
def tables(draw, variant="sep", past_caps=0):
    """A random generator table, its d and its caps; keys reach past_caps
    beyond the caps.  A sep key is (n, m), a nonsep key lam."""
    d, n_cap, m_cap = draw(st.integers(1, 2)), draw(st.integers(1, 3)), \
        draw(st.integers(0, 2))
    keys = st.lists(st.integers(0, m_cap + past_caps), min_size=d,
                    max_size=d).map(tuple)
    if variant == "sep":
        keys = st.tuples(st.integers(1, n_cap + past_caps), keys)
    return draw(st.dictionaries(keys, coeffs, max_size=5)), d, n_cap, m_cap


@examples
@given(table=tables())
def test_theory_exp_inverts_theory_log(table):
    entries, d, n_cap, m_cap = table
    e = table_theory(entries.items(), d, n_cap, m_cap)
    back = theory_exp(theory_log(e))
    for n in range(1, n_cap + 1):
        for m in combinations_with_replacement(range(m_cap, -1, -1), d):
            assert back.value(n, m) == e.value(n, m)


@examples
@given(table=tables("nonsep"))
def test_nonsep_theory_log_and_exp_keep_the_values(table):
    # nonsep generators are primitive, so log e and exp(log e) read e's
    # values
    entries, d, n_cap, m_cap = table
    # n_cap bounds no nonsep lookup, so it runs from -1 to 1
    e = table_theory(entries.items(), d, n_cap - 2, m_cap, variant="nonsep")
    lg = theory_log(e)
    back = theory_exp(lg)
    for lam in combinations_with_replacement(range(m_cap, -1, -1), d):
        assert lg.nonsep_value(lam) == back.nonsep_value(lam) == \
            e.nonsep_value(lam)


@pytest.mark.parametrize("variant", ["sep", "nonsep"])
@examples
@given(data=st.data())
def test_primitive_tables_read_their_entries(variant, data):
    # a primitive theory's values are its primitive values, and exp of it
    # has them as its primitive values; the last entry for an index wins
    # and entries past the caps are dropped
    entries, d, n_cap, m_cap = data.draw(tables(variant, past_caps=1))
    p = table_theory(entries.items(), d, n_cap, m_cap, kind="primitive",
                     variant=variant)
    e = theory_exp(p)
    naive = {}
    for key, v in entries.items():
        n, m = key if variant == "sep" else (1, key)
        naive[n, tuple(sorted(m, reverse=True))] = v
    for n in range(n_cap + 1) if variant == "sep" else (1,):
        for m in product(range(m_cap + 1), repeat=d):
            want = naive.get((n, tuple(sorted(m, reverse=True))), 0)
            if variant == "sep":
                got = (p.value(n, m), p.primitive_value(n, m),
                       e.primitive_value(n, m))
            else:
                got = p.nonsep_value(m), e.nonsep_value(m)
            assert got == (want,) * len(got), (n, m)


@lru_cache(maxsize=None)
def runs(d, variant):
    """Monomials of up to four runs of one factor each, a run up to five
    long, so that f^k and the unit monomial both occur."""
    factor = rows(d) if variant == "nonsep" else st.tuples(st.integers(1, 3),
                                                           rows(d))
    return st.lists(st.tuples(factor, st.integers(1, 5)), max_size=4).map(
        lambda rs: tuple(sorted(g for g, k in rs for _ in range(k))))


# signed coefficients over several denominators, whole numbers among them
printed_coeffs = st.builds(Fraction, st.integers(-7, 7).filter(bool),
                           st.sampled_from((1, 2, 3, 4, 6, 9)))


@pytest.mark.parametrize("kind", ["element", "tensor"])
@settings(examples, max_examples=80)
@given(data=st.data())
def test_printers_match_the_reference_printers(kind, data):
    d, variant, basis = data.draw(contexts())
    mons = runs(d, variant)
    if kind == "element":
        x = HopfElement(d, variant, basis, data.draw(
            st.dictionaries(mons, printed_coeffs, max_size=8)))
        printers = element_pretty, element_to_obj
        references = oracles.element_pretty, oracles.element_to_obj
    else:
        terms = data.draw(st.dictionaries(st.tuples(mons, mons),
                                          printed_coeffs, max_size=8))
        # the unit monomial on the left and on the right
        mon, c = data.draw(mons), data.draw(printed_coeffs)
        terms[(), mon] = terms[mon, ()] = c
        x = TensorElement(d, variant, basis, terms)
        printers = tensor_pretty, tensor_to_obj
        references = oracles.tensor_pretty, oracles.tensor_to_obj
    pretty, to_obj = printers
    ref_pretty, ref_to_obj = references
    assert pretty(x) == ref_pretty(x)
    assert (json.dumps(to_obj(x), indent=2) ==
            json.dumps(ref_to_obj(x), indent=2))


def _hopf_ops_element(d, monomials):
    return HopfElement(d, "sep", "q", {
        mon: c for mon, c in zip(monomials, (Fraction(2, 3), Fraction(-5, 2),
                                             Fraction(7, 3)))})


@pytest.mark.parametrize("kind", ["to_p", "coproduct"])
def test_printers_match_the_reference_printers_on_large_outputs(kind):
    """The elements of the benchmark's to-p and coproduct jobs at d = 2:
    to_p of q_{6,(3,3)} plus two products (529 terms) and the coproduct
    of a sum of two products (520 terms)."""
    if kind == "to_p":
        x = _hopf_ops_element(2, (((6, (3, 3)),),
                                  ((2, (1, 1)), (4, (3, 2))),
                                  ((3, (1, 0)), (3, (2, 1))))).to_p()
        pretty, ref_pretty = element_pretty, oracles.element_pretty
        to_obj, ref_to_obj = element_to_obj, oracles.element_to_obj
    else:
        x = _hopf_ops_element(2, (((3, (2, 1)), (3, (3, 2))),
                                  ((2, (1, 0)), (2, (1, 1)),
                                   (2, (2, 2))))).coproduct()
        pretty, ref_pretty = tensor_pretty, oracles.tensor_pretty
        to_obj, ref_to_obj = tensor_to_obj, oracles.tensor_to_obj
    assert len(x.terms) == {"to_p": 529, "coproduct": 520}[kind]
    assert pretty(x) == ref_pretty(x)
    assert (json.dumps(to_obj(x), indent=2) ==
            json.dumps(ref_to_obj(x), indent=2))


# (map name, argument basis) -> the composition weight of one sep
# generator's image
_WEIGHTS = {("to_p", "q"): lambda k: Fraction(1, factorial(k)),
            ("to_q", "p"): lambda k: Fraction((-1) ** (k + 1), k),
            ("antipode", "q"): lambda k: Fraction((-1) ** k)}


def _nested_reference(name, x):
    """(variant, basis, terms) of the map name applied to x, from x's
    {nested monomial: Fraction} terms alone."""
    variant, basis, terms = x.variant, x.basis, x.terms
    if name == "coproduct":
        return variant, basis, oracles.linear(
            terms, partial(oracles.monomial_coproduct, variant))
    if name == "sep_to_nonsep":
        image = (oracles.sep_generator_image if basis == "q" else
                 lambda n, m: {(m,): Fraction(1)} if n == 1 else {})
        variant, basis = "nonsep", "q"
    else:
        basis = {"to_p": "p", "to_q": "q"}.get(name, basis)
        weight = _WEIGHTS.get((name, x.basis)) if variant == "sep" else None
        if weight is None:  # a relabelling, or -1 on each primitive factor
            sign = -1 if name == "antipode" else 1
            return variant, basis, {mon: sign ** len(mon) * c
                                    for mon, c in terms.items()}
        image = partial(oracles.composition_sum, weight=weight)
    return variant, basis, oracles.linear(
        terms, partial(oracles.substitute, expansion=image))


@pytest.mark.parametrize("variant, basis", [("sep", "q"), ("sep", "p"),
                                            ("nonsep", "q")])
@settings(examples, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3))
def test_maps_of_drawn_products_match_the_nested_references(variant, basis,
                                                            seed, d):
    # axioms.random_element draws each factor of a monomial afresh, with
    # coefficients over mixed denominators; the product of two is checked,
    # then every structure map of that product, on terms, text and JSON
    rng = random.Random(seed)
    x, y = (HopfElement(d, variant, basis, random_element(
        rng, d, variant, cycles, max_terms=k, max_m=3 - d).terms)
            for cycles, k in ((3, 3), (2, 2)))
    xy = x * y
    cases = [(xy, (variant, basis, oracles._dict_mul(x.terms, y.terms)))]
    names = ["to_p", "to_q", "antipode"]
    names += ["coproduct"] * (variant == "nonsep" or basis == "q")
    names += ["sep_to_nonsep"] * (variant == "sep")
    for name in names:
        f = sep_to_nonsep if name == "sep_to_nonsep" else methodcaller(name)
        cases.append((f(xy), _nested_reference(name, xy)))
    for z, (variant, basis, terms) in cases:
        ref = SimpleNamespace(d=d, variant=variant, basis=basis, terms=terms)
        assert z.terms == terms
        if isinstance(z, HopfElement):
            pretty, to_obj = element_pretty, element_to_obj
            ref_pretty, ref_to_obj = (oracles.element_pretty,
                                      oracles.element_to_obj)
        else:
            pretty, to_obj = tensor_pretty, tensor_to_obj
            ref_pretty, ref_to_obj = (oracles.tensor_pretty,
                                      oracles.tensor_to_obj)
        assert pretty(z) == ref_pretty(ref)
        assert (json.dumps(to_obj(z), indent=2) ==
                json.dumps(ref_to_obj(ref), indent=2))
