"""The Hopf layer at a seeded random point mod p = 2^61 - 1, at sizes the
enumerating oracles cannot reach: [Z_n] of P^3 to order 12 against the
T-derivative recurrence of its exponential, sep and nonsep; to_p, to_q and
the antipode of q_{10,(4,4)} and q_{8,(3,3,2)} against exp of the p series,
log and inverse of the q series over the box of rows (n' <= n, v <= m); the
coproduct at two points against the product of the two q series;
sep_to_nonsep against exp(T sum_v q_{sort v} U^v); and products, sums and
scalar multiples of those large elements against the same operations on
their values.  The rows with n = 10 are past n = 8, where the enumerating
oracles stop, so a composition layer that drops first rows of multiplicity
9 fails here."""

from fractions import Fraction

import pytest

from punctual.hopf import HopfElement, sep_to_nonsep, vertical_element
from punctual.symfunc import chern_data_from_classes

import oracles

P3 = chern_data_from_classes(3, {(1, 1, 1): Fraction(64),
                                 (2, 1): Fraction(24), (3,): Fraction(4)})

ROWS = pytest.mark.parametrize("n, m", ((10, (4, 4)), (8, (3, 3, 2))),
                               ids=("q10,44", "q8,332"))


def _layers(at, n, m):
    """[{}, G_1, .., G_n], G_k = sum over v <= m of at((k, sort v)) U^v: the
    T^k part of 1 + sum_(k, v) g_{k, sort v} T^k U^v at the point at."""
    return [{}] + [{v: at((k, tuple(sorted(v, reverse=True))))
                    for v in oracles.u_box(m)} for k in range(1, n + 1)]


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


@ROWS
@pytest.mark.parametrize("map_name", ("to_p", "to_q", "antipode"))
def test_structure_maps_at_a_point(map_name, n, m):
    # to_p(q_{n,m}) = [T^n U^m] exp(P), P = sum p_{n', sort v} T^n' U^v,
    # to_q(p_{n,m}) = [T^n U^m] log(Q) and S(q_{n,m}) = [T^n U^m] Q^-1,
    # Q = 1 + sum q_{n', sort v} T^n' U^v
    at, ev = oracles.point_eval((map_name, n, m))
    series = {"to_p": oracles.t_exp, "to_q": oracles.t_log,
              "antipode": oracles.t_inverse}[map_name]
    expected = series(_layers(at, n, m), m)[n].get(m, 0)
    basis = "p" if map_name == "to_q" else "q"
    x = getattr(HopfElement.generator(len(m), n, m, basis), map_name)()
    assert ev(x.terms) == expected


@ROWS
def test_coproduct_at_two_points(n, m):
    # Q is group-like, so ev_x (x) ev_y of Delta(q_{n,m}) is
    # [T^n U^m] Q(x) Q(y)
    x_at, x_ev = oracles.point_eval(("coproduct-left", n, m))
    y_at, y_ev = oracles.point_eval(("coproduct-right", n, m))
    t = HopfElement.generator(len(m), n, m).coproduct()
    got = sum(x_ev({left: c}) * y_ev({right: 1})
              for (left, right), c in t.terms.items()) % oracles.PRIME
    product = oracles.t_product(_layers(x_at, n, m), _layers(y_at, n, m), m)
    assert got == product.get(m, 0)


@ROWS
def test_sep_to_nonsep_at_a_point(n, m):
    # q_{k,v} goes to [T^k U^v] exp(T W), W = sum_v q_{sort v} U^v, so
    # q_{n,m} goes to [T^n U^m] exp(T W) and, the map being an algebra map,
    # S(q_{k,v}) to [T^k U^v] exp(-T W); S is checked on a smaller row
    at, ev = oracles.point_eval(("sep_to_nonsep", n, m))
    w = {v: at(tuple(sorted(v, reverse=True))) for v in oracles.u_box(m)}
    x = sep_to_nonsep(HopfElement.generator(len(m), n, m))
    assert ev(x.terms) == oracles.t_exp([{}, w] + [{}] * (n - 1),
                                        m)[n].get(m, 0)
    k, v = n // 2, tuple(x // 2 for x in m)
    s = sep_to_nonsep(HopfElement.generator(len(m), k, v).antipode())
    minus_w = {u: -x % oracles.PRIME for u, x in w.items()}
    assert ev(s.terms) == oracles.t_exp([{}, minus_w] + [{}] * (k - 1),
                                        v)[k].get(v, 0)


@ROWS
def test_products_sums_and_scalars_at_a_point(n, m):
    # ev is a ring map, Q-linear: ev(a b) = ev(a) ev(b) and
    # ev(a - c b) = ev(a) - c ev(b), here on the large outputs of the
    # antipode and to_q, which share their monomials, and on products of
    # mid-size elements with many cross terms
    p = oracles.PRIME
    at, ev = oracles.point_eval(("algebra", n, m))
    d = len(m)
    a = HopfElement.generator(d, n, m).antipode()
    b = HopfElement.generator(d, n, m, "p").to_q()
    c = Fraction(-7, 3)
    small = HopfElement.generator(d, 2, (1,) + (0,) * (d - 1)) * c + 5
    u = HopfElement.generator(d, 5, tuple(max(x - 2, 0) for x in m)).antipode()
    w = HopfElement.generator(d, 4, tuple(max(x - 1, 0) for x in m),
                              "p").to_q()
    ea, eb = ev(a.terms), ev(b.terms)
    assert ev((a - b.scaled(c)).terms) == (ea - oracles.residue(c) * eb) % p
    eu, ew = ev(u.terms), ev(w.terms)
    assert ev((u * w).terms) == eu * ew % p
    assert ev((u * small).terms) == eu * ev(small.terms) % p
