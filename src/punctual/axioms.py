"""Hopf axiom checks on randomly generated elements.

All checks are exact.  The corpus generator draws sparse elements with small
indices from a seeded random stream, so runs are reproducible.
"""

from fractions import Fraction

from .hopf import (HopfElement, _antipode_in_q, _expand, _linear,
                   _monomial_coproduct, _poly_mul, tensor)

_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
           Fraction(-3, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(5)]


def random_element(rng, d, variant, max_cycle_degree, max_terms=3, max_m=3):
    """A sparse random element of cycle degree at most max_cycle_degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mon = []
        budget = rng.randint(0, max_cycle_degree)
        while budget > 0:
            if variant == "sep":
                n = rng.randint(1, budget)
                m = tuple(sorted((rng.randint(0, max_m) for _ in range(d)),
                                 reverse=True))
                mon.append((n, m))
                budget -= n
            else:
                lam = tuple(sorted((rng.randint(0, max_m) for _ in range(d)),
                                   reverse=True))
                mon.append(lam)
                budget -= 1
        key = tuple(sorted(mon))
        terms[key] = terms.get(key, Fraction(0)) + rng.choice(_COEFFS)
    return HopfElement(d, variant, "q", terms)


def _coproduct_in_slot(t, slot):
    """(coproduct ox id) for slot 0, (id ox coproduct) for slot 1, applied
    to a TensorElement: a map (a, b, c) -> coeff."""
    def image(pair):
        return 1, {pair[:slot] + ab + pair[slot + 1:]: c for ab, c in
                   _monomial_coproduct(pair[slot]).items()}
    return _linear(t._den, t._nums, image)


def check_coassociative(x, dx=None):
    t = x.coproduct() if dx is None else dx
    return _coproduct_in_slot(t, 0) == _coproduct_in_slot(t, 1)


def check_counit(x, dx=None):
    t = x.coproduct() if dx is None else dx
    return t.left_counit() == x and t.right_counit() == x


def check_cocommutative(x, dx=None):
    t = x.coproduct() if dx is None else dx
    return t == t.swap()


def check_commutative(x, y):
    return x * y == y * x


def check_bialgebra(x, y, dx=None):
    """coproduct(x*y) = coproduct(x) * coproduct(y)."""
    t = x.coproduct() if dx is None else dx
    return (x * y).coproduct() == t * y.coproduct()


def check_antipode(x, dx=None):
    """mul (S ox id) coproduct = counit * unit, in one linear pass over
    the coproduct's terms.  S of each distinct left monomial is worked out
    once, as integer numerators: the product of _antipode_in_q over its
    factors (sep q basis), else its sign (-1)^(number of factors)."""
    t = x.coproduct() if dx is None else dx
    sep_q = x.variant == "sep" and x.basis == "q"
    images = {left: _expand(left, _antipode_in_q) if sep_q
              else (1, {left: -1 if len(left) % 2 else 1})
              for left in {left for left, _ in t._nums}}

    def image(pair):
        den, s = images[pair[0]]
        return den, _poly_mul(s, {pair[1]: 1})
    acc = x._like(_linear(t._den, t._nums, image))
    return acc == HopfElement.unit(x.d, x.variant, x.basis).scaled(x.counit())


def check_primitive(x):
    """coproduct(x) = x ox 1 + 1 ox x, for x in the q basis."""
    one = HopfElement.unit(x.d, x.variant, x.basis)
    return x.coproduct() == tensor(x, one) + tensor(one, x)


def run_axiom_suite(rng, dims=(1, 2, 3), variants=("sep", "nonsep"),
                    count=60, max_cycle_degree=4):
    """Run every axiom check over a corpus; returns {check name: #elements}.

    Raises AssertionError naming the failing check and element.
    """
    counts = {"coassociativity": 0, "counit": 0, "cocommutativity": 0,
              "commutativity": 0, "bialgebra": 0, "antipode": 0}
    for variant in variants:
        for d in dims:
            max_m = 3 if d == 1 else 2
            for _ in range(count):
                x = random_element(rng, d, variant, max_cycle_degree,
                                   max_m=max_m)
                y = random_element(rng, d, variant, max_cycle_degree=2,
                                   max_terms=2, max_m=2)
                dx = x.coproduct()
                for name, ok in (
                        ("coassociativity", check_coassociative(x, dx)),
                        ("counit", check_counit(x, dx)),
                        ("cocommutativity", check_cocommutative(x, dx)),
                        ("commutativity", check_commutative(x, y)),
                        ("bialgebra", check_bialgebra(x, y, dx)),
                        ("antipode", check_antipode(x, dx))):
                    if not ok:
                        raise AssertionError("%s fails for %r (d=%d, %s)" %
                                             (name, dict(x.terms), d, variant))
                    counts[name] += 1
    return counts
