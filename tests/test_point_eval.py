"""The Hopf layer at a seeded random point mod p = 2^61 - 1, at sizes the
enumerating oracles cannot reach: [Z_n] of P^3 to order 12 against the
T-derivative recurrence of its exponential, sep and nonsep; to_p and the
antipode of q_{10,(4,4)} and q_{8,(3,3,2)} against exp of the p series and
the inverse of the q series over the box of rows (n' <= n, v <= m).  The
rows with n = 10 are past n = 8, where the enumerating oracles stop, so a
composition layer that drops first rows of multiplicity 9 fails here."""

from fractions import Fraction

import pytest

from punctual.hopf import HopfElement, vertical_element
from punctual.symfunc import chern_data_from_classes

import oracles

P3 = chern_data_from_classes(3, {(1, 1, 1): Fraction(64),
                                 (2, 1): Fraction(24), (3,): Fraction(4)})


@pytest.mark.parametrize("variant", ("sep", "nonsep"))
def test_vertical_classes_at_a_point(variant):
    # W_j = sum_lam <m_lam> p_{j, lam+j-1} (sep), W_1 = sum_lam <m_lam> q_lam
    # (nonsep); then n E_n = sum_j j W_j E_(n-j) with E_n the value of [Z_n]
    n_max = 12
    at, ev = oracles.point_eval(("vertical", variant))
    w = [0] * (n_max + 1)
    for lam, val in P3.items():
        row = lam + (0,) * (3 - len(lam))
        for j in range(1, 2 if variant == "nonsep" else n_max + 1):
            g = row if variant == "nonsep" else (j, tuple(x + j - 1
                                                          for x in row))
            w[j] += oracles.residue(val) * at(g)
    layers = [{(): x % oracles.PRIME} for x in w]
    expected = [e.get((), 0) for e in oracles.t_exp(layers, ())]
    zs = vertical_element(P3, n_max, variant=variant)
    assert [ev(z.terms) for z in zs] == expected


@pytest.mark.parametrize("n, m", ((10, (4, 4)), (8, (3, 3, 2))),
                         ids=("q10,44", "q8,332"))
@pytest.mark.parametrize("map_name", ("to_p", "antipode"))
def test_structure_maps_at_a_point(map_name, n, m):
    # to_p(q_{n,m}) = [T^n U^m] exp(P), P = sum p_{n', sort v} T^n' U^v, and
    # S(q_{n,m}) = [T^n U^m] Q^-1, Q = 1 + sum q_{n', sort v} T^n' U^v
    at, ev = oracles.point_eval((map_name, n, m))
    layers = [{}] + [{v: at((k, tuple(sorted(v, reverse=True))))
                      for v in oracles.u_box(m)} for k in range(1, n + 1)]
    series = oracles.t_exp if map_name == "to_p" else oracles.t_inverse
    expected = series(layers, m)[n].get(m, 0)
    x = getattr(HopfElement.generator(len(m), n, m), map_name)()
    assert ev(x.terms) == expected
