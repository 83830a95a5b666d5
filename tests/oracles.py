"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: direct enumeration and schoolbook
series manipulation, sharing no code with the package.  Slow is fine; these
only run at test scale.
"""

from fractions import Fraction
from math import comb, factorial
import itertools
import random


# -- plane partitions ------------------------------------------------------

def _partitions_at_most(total_cap, bound):
    """All partitions with sum <= total_cap and parts entrywise <= bound
    (a weakly decreasing tuple), including the empty one."""
    out = [()]
    stack = [((), total_cap)]
    while stack:
        prefix, room = stack.pop()
        prev = prefix[-1] if prefix else (bound[0] if bound else 0)
        width = len(bound)
        if len(prefix) >= width:
            continue
        limit = min(prev, bound[len(prefix)], room)
        for part in range(1, limit + 1):
            new = prefix + (part,)
            out.append(new)
            stack.append((new, room - part))
    return out


def count_plane_partitions(n):
    """Brute-force count of plane partitions of n (weakly decreasing along
    rows and down columns)."""
    if n == 0:
        return 1
    total = 0
    top_rows = [lam for lam in _partitions_at_most(n, (n,) * n) if sum(lam)]

    def extend(prev_row, remaining):
        if remaining == 0:
            return 1
        acc = 0
        for row in _partitions_at_most(remaining, prev_row):
            if row and sum(row) <= remaining:
                acc += extend(row, remaining - sum(row))
        return acc

    for top in top_rows:
        total += extend(top, n - sum(top))
    return total


def sigma2(n):
    return sum(d * d for d in range(1, n + 1) if n % d == 0)


def macmahon_neg_power(a, order):
    """Coefficients [T^0 .. T^order] of M(-T)^a, M the MacMahon series.

    M comes from its logarithmic derivative, n M_n = sum_k sigma2(k)
    M_(n-k), since log M = sum_k sigma2(k)/k T^k.  The power then follows
    J.C.P. Miller's recurrence for g = f^a with f_0 = 1:
    n g_n = sum_{k=1..n} ((a+1) k - n) f_k g_(n-k).
    """
    a = Fraction(a)
    m = [Fraction(1)]
    for n in range(1, order + 1):
        m.append(Fraction(sum(sigma2(k) * m[n - k] for k in range(1, n + 1)),
                          n))
    f = [(-1) ** n * c for n, c in enumerate(m)]
    g = [Fraction(1)]
    for n in range(1, order + 1):
        g.append(sum(((a + 1) * k - n) * f[k] * g[n - k]
                     for k in range(1, n + 1)) / n)
    return g


# -- naive truncated series ------------------------------------------------

def poly_mul(a, b, caps):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x > c for x, c in zip(e, caps)):
                continue
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_exp(f, caps):
    """sum f^k / k!, f with zero constant term."""
    nvars = len(caps)
    assert not f.get((0,) * nvars)
    out = {(0,) * nvars: Fraction(1)}
    power = {(0,) * nvars: Fraction(1)}
    for k in range(1, sum(caps) + 1):
        power = poly_mul(power, f, caps)
        if not power:
            break
        for e, c in power.items():
            out[e] = out.get(e, Fraction(0)) + c / factorial(k)
    return {e: c for e, c in out.items() if c}


def poly_log(f, caps):
    """sum (-1)^(k+1) (f-1)^k / k, f with constant term 1."""
    nvars = len(caps)
    assert f.get((0,) * nvars) == 1
    g = dict(f)
    g[(0,) * nvars] = g[(0,) * nvars] - 1
    g = {e: c for e, c in g.items() if c}
    out = {}
    power = {(0,) * nvars: Fraction(1)}
    for k in range(1, sum(caps) + 1):
        power = poly_mul(power, g, caps)
        if not power:
            break
        sign = Fraction(1 if k % 2 else -1, k)
        for e, c in power.items():
            out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


# -- symmetric polynomials by direct expansion -----------------------------

def monomial_poly(lam, d):
    """m_lam as {ordered exponent vector: 1} in d variables."""
    lam = tuple(lam) + (0,) * (d - len(lam))
    return {perm: Fraction(1) for perm in set(itertools.permutations(lam))}


def elementary_poly(k, d):
    out = {}
    for picks in itertools.combinations(range(d), k):
        e = tuple(1 if i in picks else 0 for i in range(d))
        out[e] = Fraction(1)
    return out


def eval_poly(p, point):
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for x, ex in zip(point, e):
            v *= x ** ex
        total += v
    return total


# -- vertex values from the plane-partition side ---------------------------

def vertex_log_coeff(n):
    """(-1)^n [T^n] log M(T) = (-1)^n sigma2(n)/n."""
    return Fraction((-1) ** n * sigma2(n), n)


def macmahon_product(cap):
    """Coefficients [T^0 .. T^cap] of prod_{n>=1} (1-T^n)^(-n) as integers,
    multiplying out (1-T^n)^(-n) = sum_k C(n+k-1, k) T^(nk) factor by
    factor."""
    out = [1] + [0] * cap
    for n in range(1, cap + 1):
        factor = [0] * (cap + 1)
        for k in range(cap // n + 1):
            factor[n * k] = comb(n + k - 1, k)
        out = [sum(out[i] * factor[j - i] for i in range(j + 1))
               for j in range(cap + 1)]
    return out


def dt_vertex_primitive(n_cap, m_cap):
    """The primitive values of the DT vertex theory as {(n, m1, m2, m3):
    value}: -E'(U) sum_n a_n (U1 U2 U3 T)^n divided by U1 U2 U3, with
    E'(U) = (U1+U2)(U2+U3)(U3+U1) and a_n = [T^n] log M(-T), cells beyond
    the caps dropped.  M(-T) comes from macmahon_product and its log from
    poly_log, never from sigma2."""
    neg = {(n,): Fraction((-1) ** n * c)
           for n, c in enumerate(macmahon_product(n_cap))}
    log_m = poly_log(neg, (n_cap,))
    # wide enough U caps that nothing below m_cap is lost before dividing
    caps = (n_cap,) + (n_cap + 2,) * 3
    a = {(n,) * 4: c for (n,), c in log_m.items()}
    e = {(0,) * 4: Fraction(1)}
    for pair in ((1, 2), (2, 3), (3, 1)):
        e = poly_mul(e, {tuple(int(i == j) for i in range(4)): Fraction(1)
                         for j in pair}, caps)
    out = {}
    for cell, c in poly_mul(e, a, caps).items():
        assert min(cell[1:]) >= 1, "not divisible by U1 U2 U3"
        cell = (cell[0],) + tuple(x - 1 for x in cell[1:])
        if max(cell[1:]) <= m_cap:
            out[cell] = -c
    return out


# -- closed-form theory sides and Chern conversion, as first written ------

def class_side(P, d, caps, first):
    """first * P(U1) ... P(Ud) within caps, one schoolbook product per
    factor: P maps (j,) to the coefficient of x^j, first maps exponents
    (n,) + m in T, U1..Ud to coefficients."""
    one = (0,) * (d + 1)
    side = poly_mul({one: Fraction(1)}, first, caps)
    for i in range(1, d + 1):
        side = poly_mul(side, {one[:i] + (j,) + one[i + 1:]: Fraction(c)
                               for (j,), c in P.items()}, caps)
    return side


def chern_from_classes(rows, numbers):
    """{lam: sum_mu rows[lam][mu] * numbers[mu]}, summed as Fractions with
    lam and mu in the order of rows; the first mu met that numbers lacks
    raises ValueError naming it."""
    out = {}
    for lam, row in rows.items():
        total = Fraction(0)
        for mu, coeff in row.items():
            if mu not in numbers:
                raise ValueError("missing Chern class number for c_%s" %
                                 "".join(str(i) for i in mu))
            total += coeff * numbers[mu]
        out[lam] = total
    return out


# -- the gamma integral from the generator table ---------------------------

def gamma_route(value, d, numbers, n_max):
    """The gamma integral computed from the raw generator table.

    value(n, m) is read for 1 <= n <= n_max and every weakly decreasing m
    in {0..cap}^d, cap = n_max - 1 + d: n outer, m in graded order (total,
    then the vector), so a lookup past a theory's caps fails at the first
    index that tabulating would reach.  The log of 1 + the table (every
    ordering of m) comes from poly_log at caps (n_max, cap, ..., cap), and
    its coefficient at (n; lam + n - 1) is paired against numbers
    {lam: <m_lam>}.

    Returns (offenders, series, (n_max, cap, terms checked)): offenders are
    the log terms (exponent, coefficient) with some m_i < n - 1, in graded
    order, and series is {(n,): coefficient}.
    """
    cap = n_max - 1 + d
    rows = sorted((m for m in itertools.product(range(cap + 1), repeat=d)
                   if list(m) == sorted(m, reverse=True)),
                  key=lambda m: (sum(m), m))
    table = {(0,) * (d + 1): Fraction(1)}
    for n in range(1, n_max + 1):
        for m in rows:
            v = Fraction(value(n, m))
            if v:
                for p in set(itertools.permutations(m)):
                    table[(n,) + p] = v
    log = poly_log(table, (n_max,) + (cap,) * d)
    offenders = [(e, c) for e, c in
                 sorted(log.items(), key=lambda ec: (sum(ec[0]), ec[0]))
                 if min(e[1:]) < e[0] - 1]
    series = {}
    for n in range(1, n_max + 1):
        total = Fraction(0)
        for lam, w in numbers.items():
            row = tuple(lam) + (0,) * (d - len(lam))
            total += w * log.get((n,) + tuple(x + n - 1 for x in row), 0)
        if total:
            series[n,] = total
    return offenders, series, (n_max, cap, len(log))


# -- Chern integrals, as first written -------------------------------------

def class_integral(t, numbers):
    """sum_lam <m_lam> prod_i t(lam_i) over numbers {lam: <m_lam>}, one
    Fraction product per nonzero number, stopping at a zero factor."""
    total = Fraction(0)
    for lam, w in numbers.items():
        if not w:
            continue
        v = w
        for part in lam:
            v *= t(part)
            if not v:
                break
        total += v
    return total


def nonsep_vertical(value, d, numbers, n_max):
    """{(n,): a^n / n!} for n <= n_max, with a = sum_lam <m_lam> value(lam)
    over numbers {lam: <m_lam>} and each lam padded to length d."""
    a = Fraction(0)
    for lam, w in numbers.items():
        a += w * value(tuple(lam) + (0,) * (d - len(lam)))
    return {(n,): a ** n / factorial(n) for n in range(n_max + 1)}


# -- exhaustive theory values ----------------------------------------------

def compositions(n, k):
    """Ordered k-tuples of positive integers summing to n."""
    if k == 0:
        return [()] if n == 0 else []
    out = []
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            out.append((first,) + rest)
    return out


def vector_splits(v, k):
    """Ordered k-tuples of nonnegative vectors summing to v."""
    if k == 1:
        return [(tuple(v),)]
    out = []
    ranges = [range(x + 1) for x in v]
    for head in itertools.product(*ranges):
        tail_v = tuple(x - y for x, y in zip(v, head))
        for rest in vector_splits(tail_v, k - 1):
            out.append((tuple(head),) + rest)
    return out


def primitive_from_table(value_fn, n, m):
    """p_{n,m} value by the alternating-sum definition: sum over k of
    (-1)^(k+1)/k times the sum over ordered splittings into k generator
    blocks of the product of table values."""
    total = Fraction(0)
    for k in range(1, n + 1):
        block = Fraction(0)
        for ns in compositions(n, k):
            for ms in vector_splits(tuple(m), k):
                prod = Fraction(1)
                for ni, mi in zip(ns, ms):
                    prod *= value_fn(ni, tuple(sorted(mi, reverse=True)))
                    if not prod:
                        break
                block += prod
        total += Fraction((-1) ** (k + 1), k) * block
    return total


# -- sep basis changes and the antipode ------------------------------------

def composition_sum(n, m, weight):
    """sum_k weight(k) times the sum, over ordered compositions of the row
    (n, m) into k rows with positive multiplicities, of their monomial: a
    sorted tuple of (n_i, m_i sorted decreasingly) factors.

    With weight (-1)^(k+1)/k this is p_{n,m} in the q basis, with 1/k! it
    is q_{n,m} in the p basis, and with (-1)^k it is the antipode of
    q_{n,m} in the q basis.
    """
    acc = {}
    for k in range(1, n + 1):
        for ns in compositions(n, k):
            for ms in vector_splits(tuple(m), k):
                mon = tuple(sorted((ni, tuple(sorted(mi, reverse=True)))
                                   for ni, mi in zip(ns, ms)))
                acc[mon] = acc.get(mon, Fraction(0)) + weight(k)
    return {mon: c for mon, c in acc.items() if c}


def monomial_coproduct(variant, mon):
    """The coproduct of a monomial as {(left, right): count}, multiplied
    out factor by factor.  A sep factor (n, m) splits as the ordered pairs
    of rows summing to the row (n, m) (vector_splits into two), where a
    row (0, 0) is the unit and a row (0, m) with m nonzero is zero; a
    nonsep factor goes to one side or the other."""
    options = []
    for g in mon:
        if variant == "nonsep":
            options.append([((g,), ()), ((), (g,))])
            continue
        splits = []
        for rows in vector_splits((g[0],) + tuple(g[1]), 2):
            if any(row[0] == 0 and any(row[1:]) for row in rows):
                continue
            splits.append(tuple(
                () if row[0] == 0 else
                ((row[0], tuple(sorted(row[1:], reverse=True))),)
                for row in rows))
        options.append(splits)
    acc = {}
    for choice in itertools.product(*options):
        key = tuple(tuple(sorted(f for sides in choice for f in sides[i]))
                    for i in (0, 1))
        acc[key] = acc.get(key, 0) + 1
    return acc


def linear(terms, image):
    """sum coeff * image(key) over the items of terms, in Fractions."""
    out = {}
    for key, coeff in terms.items():
        for k, c in image(key).items():
            out[k] = out.get(k, Fraction(0)) + Fraction(coeff) * c
    return {k: c for k, c in out.items() if c}


def substitute(mon, expansion):
    """The product over the factors g of mon of expansion(*g), each a
    {monomial: Fraction} map."""
    out = {(): Fraction(1)}
    for g in mon:
        out = _dict_mul(out, expansion(*g))
    return out


def sep_generator_image(n, m):
    """The nonsep image of q_{n,m}: 1/n! times the sum, over ordered
    splittings of m into n nonnegative columns, of the product of the
    nonsep generators q_(column sorted decreasingly)."""
    acc = {}
    for cols in vector_splits(tuple(m), n):
        mon = tuple(sorted(tuple(sorted(c, reverse=True)) for c in cols))
        acc[mon] = acc.get(mon, Fraction(0)) + Fraction(1, factorial(n))
    return acc


# -- vertical classes and the pairing --------------------------------------

def _dict_mul(a, b):
    """Product of two {sorted tuple of generators: Fraction} maps."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mon = tuple(sorted(m1 + m2))
            out[mon] = out.get(mon, Fraction(0)) + c1 * c2
    return {mon: c for mon, c in out.items() if c}


def vertical_classes(d, numbers, n_max):
    """[Z_0] .. [Z_n_max] in the sep p basis as {monomial: Fraction} maps,
    from numbers {partition of d: <m_lam>}.

    With the layer L_j = sum_lam <m_lam> p_{j, lam+j-1} (lam padded with
    zeros to length d), n [Z_n] = sum_{j=1..n} j L_j [Z_(n-j)]: the T
    derivative of [Z] = exp(sum_j L_j T^j).
    """
    layers = {}
    for j in range(1, n_max + 1):
        layers[j] = {}
        for lam, v in numbers.items():
            row = tuple(lam) + (0,) * (d - len(lam))
            if v:
                layers[j][((j, tuple(x + j - 1 for x in row)),)] = Fraction(v)
    zs = [{(): Fraction(1)}]
    for n in range(1, n_max + 1):
        acc = {}
        for j in range(1, n + 1):
            for mon, c in _dict_mul(layers[j], zs[n - j]).items():
                acc[mon] = acc.get(mon, Fraction(0)) + j * c
        zs.append({mon: c / n for mon, c in acc.items() if c})
    return zs


def pairing(terms, value, primitive):
    """sum over terms of coeff * prod value(g) over the factors g of the
    monomial; a primitive functional keeps only monomials of one factor."""
    total = Fraction(0)
    for mon, coeff in terms.items():
        if primitive and len(mon) != 1:
            continue
        v = Fraction(coeff)
        for g in mon:
            v *= value(g)
        total += v
    return total


# -- evaluation at a random point mod a prime -------------------------------
# Every structure map is an identity of generating series, so a ring map to
# F_p checks it at any scale: a wrong polynomial of degree <= n in the
# residues agrees at a random point with probability at most n/p (Schwartz,
# J. ACM 1980).

PRIME = 2 ** 61 - 1


def residue(x):
    """The Fraction x mod PRIME."""
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def point_eval(seed):
    """(at, ev): a ring map to F_p, p = PRIME.  at(g) is the residue of the
    canonical factor g (a sep (n, m) or a nonsep partition), drawn by
    random.Random seeded with (seed, g), so a failure reproduces; ev sends
    a {monomial: Fraction} map to the sum of its coefficients times the
    products of their factors' residues, inverting each distinct
    denominator once."""
    residues = {}

    def at(g):
        if g not in residues:
            residues[g] = random.Random(repr((seed, g))).randrange(PRIME)
        return residues[g]

    def ev(terms):
        total, inverses = 0, {}
        for mon, c in terms.items():
            den = c.denominator
            if den not in inverses:
                inverses[den] = pow(den, -1, PRIME)
            v = c.numerator * inverses[den]
            for g in mon:
                v = v * (residues[g] if g in residues else at(g)) % PRIME
            total += v
        return total % PRIME

    return at, ev


def u_box(m):
    """Every exponent vector v <= m entrywise."""
    return list(itertools.product(*(range(x + 1) for x in m)))


def _box_mul(a, b, m):
    """Product of two {v: residue} polynomials in U, cut to the box of m."""
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            w = tuple(s + t for s, t in zip(u, v))
            if all(s <= c for s, c in zip(w, m)):
                out[w] = (out.get(w, 0) + x * y) % PRIME
    return out


def _box_add(acc, a, k):
    for v, x in a.items():
        acc[v] = (acc.get(v, 0) + k * x) % PRIME


def t_exp(layers, m):
    """E_0 .. E_N of exp(sum_j layers[j] T^j) mod PRIME, layers[0] unused
    and each a {v: residue} polynomial in U cut to the box of m, from the
    T derivative: n E_n = sum_j j layers[j] E_(n-j)."""
    es = [{(0,) * len(m): 1}]
    for n in range(1, len(layers)):
        acc = {}
        for j in range(1, n + 1):
            _box_add(acc, _box_mul(layers[j], es[n - j], m), j)
        inv = pow(n, -1, PRIME)
        es.append({v: x * inv % PRIME for v, x in acc.items()})
    return es


def t_inverse(layers, m):
    """R_0 .. R_N of (1 + sum_j layers[j] T^j)^-1 mod PRIME, from
    R_n = -sum_j layers[j] R_(n-j)."""
    rs = [{(0,) * len(m): 1}]
    for n in range(1, len(layers)):
        acc = {}
        for j in range(1, n + 1):
            _box_add(acc, _box_mul(layers[j], rs[n - j], m), -1)
        rs.append(acc)
    return rs


def t_log(layers, m):
    """L_0 .. L_N of log(1 + sum_j layers[j] T^j) mod PRIME, from the same
    T derivative read the other way:
    n L_n = n Q_n - sum_(j<n) j L_j Q_(n-j)."""
    ls = [{}]
    for n in range(1, len(layers)):
        acc = {}
        _box_add(acc, layers[n], n)
        for j in range(1, n):
            _box_add(acc, _box_mul(ls[j], layers[n - j], m), -j)
        inv = pow(n, -1, PRIME)
        ls.append({v: x * inv % PRIME for v, x in acc.items()})
    return ls


def t_product(a, b, m):
    """The T^N part of (1 + sum_j a[j] T^j)(1 + sum_j b[j] T^j) mod PRIME,
    N = len(a) - 1 = len(b) - 1, cut to the box of m."""
    one = {(0,) * len(m): 1}
    a, b = [one] + a[1:], [one] + b[1:]
    acc = {}
    for j in range(len(a)):
        _box_add(acc, _box_mul(a[j], b[-1 - j], m), 1)
    return acc


# -- printers --------------------------------------------------------------
# The element and tensor printers as they stood before their one-pass
# rewrite: every term formats its coefficient, factors and sort key afresh.

def _format_rational(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _monomial_key(mon, variant):
    if variant == "sep":
        return (sum(g[0] for g in mon), 2 * sum(sum(g[1]) for g in mon), mon)
    return (len(mon), 2 * sum(sum(g) for g in mon), mon)


def _monomial_to_obj(mon, variant):
    if variant == "sep":
        return [[g[0], list(g[1])] for g in mon]
    return [[1, list(g)] for g in mon]


def _factor_pretty(g, variant, basis):
    letter = "p" if basis == "p" else "q"
    if variant == "sep":
        return "%s_{%d,(%s)}" % (letter, g[0], ",".join(str(x) for x in g[1]))
    return "q_{(%s)}" % ",".join(str(x) for x in g)


def _factors_pretty(mon, variant, basis):
    out = []
    i = 0
    while i < len(mon):
        j = i
        while j < len(mon) and mon[j] == mon[i]:
            j += 1
        f = _factor_pretty(mon[i], variant, basis)
        out.append(f if j - i == 1 else "%s^%d" % (f, j - i))
        i = j
    return out


def element_to_obj(x):
    """The JSON object of a HopfElement x, terms in (cycle degree,
    homological degree, monomial) order."""
    mons = sorted(x.terms, key=lambda mon: _monomial_key(mon, x.variant))
    return {
        "d": x.d,
        "variant": x.variant,
        "basis": x.basis,
        "terms": [{"monomial": _monomial_to_obj(mon, x.variant),
                   "coeff": _format_rational(x.terms[mon])} for mon in mons],
    }


def tensor_to_obj(t):
    """The JSON object of a TensorElement t, terms ordered by the left
    then the right monomial's key."""
    keys = sorted(t.terms, key=lambda p: (_monomial_key(p[0], t.variant),
                                          _monomial_key(p[1], t.variant)))
    return {
        "d": t.d,
        "variant": t.variant,
        "basis": t.basis,
        "terms": [{"left": _monomial_to_obj(l, t.variant),
                   "right": _monomial_to_obj(r, t.variant),
                   "coeff": _format_rational(t.terms[(l, r)])}
                  for (l, r) in keys],
    }


def element_pretty(x):
    """x as "c*f*g^k + ..." in key order, "0" when empty."""
    if not x.terms:
        return "0"
    return " + ".join(
        "*".join([_format_rational(x.terms[mon])] +
                 _factors_pretty(mon, x.variant, x.basis))
        for mon in sorted(x.terms, key=lambda m: _monomial_key(m, x.variant)))


def tensor_pretty(t):
    """t as "c*left(x)right + ...", the unit monomial written 1."""
    if not t.terms:
        return "0"

    def side(mon):
        return "*".join(_factors_pretty(mon, t.variant, t.basis)) or "1"

    keys = sorted(t.terms, key=lambda p: (_monomial_key(p[0], t.variant),
                                          _monomial_key(p[1], t.variant)))
    return " + ".join("%s*%s(x)%s" % (_format_rational(t.terms[(l, r)]),
                                      side(l), side(r)) for (l, r) in keys)
