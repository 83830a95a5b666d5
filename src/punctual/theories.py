"""Enumerative theories: multiplicative or primitive functionals on the
Hopf algebras, given by a rational table on generators.

A multiplicative theory e sends a product of generators to the product of
the table values (and the unit to 1); a primitive theory vanishes on the
unit and on every monomial with two or more factors.  The two kinds are
exchanged by theory_log / theory_exp: writing the table as a generating
function F(T, U) = sum <e, q_{n,m}> T^n U^m over ordered exponent vectors,
the primitive values of log e are the coefficients of log F, because the
formal sum of all q_{n,m} is group-like and its coefficientwise logarithm
is the primitive family p_{n,m}.  In particular a multiplicative e pairs
with a p-basis monomial as the product of its primitive values.

Both tables sit behind one cached lookup over keys (n, m) with declared
caps n <= n_cap, m_i <= m_cap; evaluating outside the caps raises CapError
rather than truncating silently.  A side given by a function is computed
key by key; the other side is derived whole, once, by log or exp of the
generating series of the given one.
"""

import itertools
from fractions import Fraction
from functools import partial
from math import factorial

from .hopf import (UNIT, ZERO, ContextMismatchError, _canonical_nonsep,
                   _fields, canonical_generator)
from .rational import parse_rational
from .series import MultiSeries, _macmahon_neg

_ZERO = Fraction(0)


class CapError(ValueError):
    pass


def _series_frame(d, n_cap, m_cap):
    variables = ("T",) + tuple("U%d" % (i + 1) for i in range(d))
    return variables, (n_cap,) + (m_cap,) * d


def _table_series(value, variables, n_cap, m_cap, unit=True):
    """sum value(n, m) T^n U^m over 1 <= n <= n_cap and m in {0..m_cap}^d,
    plus 1 when unit is set; variables are T and then the d U's."""
    d = len(variables) - 1
    terms = {(0,) * (d + 1): Fraction(1)} if unit else {}
    for n in range(1, n_cap + 1):
        for m in itertools.product(range(m_cap + 1), repeat=d):
            v = value(n, m)
            if v:
                terms[(n,) + m] = v
    return MultiSeries(variables, (n_cap,) + (m_cap,) * d, terms)


def _series_table(series, shift=0):
    """{(n, m sorted decreasingly): c} for the terms c T^n U^(m + shift) of
    a table series with n >= 1."""
    return {(e[0], tuple(sorted((x - shift for x in e[1:]), reverse=True))): c
            for e, c in series.terms.items() if e[0]}


class Theory:
    """A functional determined by generator values, with one cached lookup.

    Exactly one of gen_fn / prim_fn may be omitted.  The table of a side
    with a function starts empty and is filled key by key; the table of
    the other side starts as None and is derived whole, through the exp/log
    generating series, on its first lookup.  For the nonsep variant gen_fn
    takes a padded partition.
    """

    __slots__ = ("d", "variant", "kind", "label", "n_cap", "m_cap",
                 "_gen_fn", "_prim_fn", "_gen", "_prim")

    def __init__(self, d, kind, label, n_cap, m_cap, variant="sep",
                 gen_fn=None, prim_fn=None):
        if kind not in ("multiplicative", "primitive"):
            raise ValueError("kind must be multiplicative or primitive")
        if variant not in ("sep", "nonsep"):
            raise ValueError("variant must be 'sep' or 'nonsep'")
        if gen_fn is None and prim_fn is None:
            raise ValueError("need a generator table or a primitive table")
        self.d = int(d)
        self.variant = variant
        self.kind = kind
        self.label = label or kind
        self.n_cap = int(n_cap)
        self.m_cap = int(m_cap)
        self._gen_fn = gen_fn
        self._prim_fn = prim_fn
        self._gen = None if gen_fn is None else {}
        self._prim = None if prim_fn is None else {}

    def __repr__(self):
        return "Theory(%s, d=%d, %s, %s)" % (self.label, self.d, self.kind,
                                             self.variant)

    # -- keyed access ------------------------------------------------------

    def _key(self, n, m):
        """canonical_generator(n, m) checked against d and the caps: the key
        (n, m sorted decreasingly), or UNIT / ZERO when n = 0."""
        if self.variant != "sep":
            raise ContextMismatchError("%s is a nonsep theory" % self.label)
        m = tuple(m)
        if len(m) != self.d:
            raise ValueError("exponent vector of length %d, expected %d" %
                             (len(m), self.d))
        key = canonical_generator(n, m)
        # n = 0 rows are checked against the m cap too
        n, m = (0, tuple(map(int, m))) if key is UNIT or key is ZERO else key
        if n > self.n_cap or max(m, default=0) > self.m_cap:
            raise CapError("index (%d, %r) outside caps (%d, %d) of %s" %
                           (n, tuple(sorted(m, reverse=True)), self.n_cap,
                            self.m_cap, self.label))
        return key

    def _lookup(self, prim, key):
        """The value at key on the primitive side when prim is set, else on
        the generator side.  Keys are the argument tuples of the side's
        function: (n, m) for sep, (lam,) for nonsep."""
        table = self._prim if prim else self._gen
        if table is None:
            table = self._derive(prim)
        v = table.get(key)
        if v is None:
            fn = self._prim_fn if prim else self._gen_fn
            if fn is None:          # derived side: absent keys are zero
                return _ZERO
            v = table[key] = Fraction(fn(*key))
        return v

    def _derive(self, prim):
        """Fill the whole table of the side without a function."""
        variables, _ = _series_frame(self.d, self.n_cap, self.m_cap)
        if prim:
            self._prim = _series_table(_table_series(
                self.value, variables, self.n_cap, self.m_cap).log())
            return self._prim
        self._gen = _series_table(_table_series(
            self.primitive_value, variables, self.n_cap, self.m_cap,
            unit=False).exp())
        return self._gen

    def value(self, n, m):
        """Table value on the sep generator q_{n,m}.  n = 0 rows follow the
        unit/zero convention; the unit pairs to 1 with a multiplicative
        theory and to 0 with a primitive one."""
        key = self._key(n, m)
        if key is UNIT:
            return Fraction(1) if self.kind == "multiplicative" else _ZERO
        return _ZERO if key is ZERO else self._lookup(False, key)

    def nonsep_value(self, lam):
        if self.variant != "nonsep":
            raise ContextMismatchError("%s is a sep theory" % self.label)
        lam = _canonical_nonsep(lam, self.d)
        if max(lam, default=0) > self.m_cap:
            raise CapError("partition %r outside cap %d of %s" %
                           (lam, self.m_cap, self.label))
        return self._lookup(False, (lam,))

    def primitive_value(self, n, m):
        """Value on the primitive p_{n,m}; for a multiplicative theory this
        is also the value of its logarithm."""
        if self.kind == "primitive":
            return self.value(n, m)
        key = self._key(n, m)
        return _ZERO if key is UNIT or key is ZERO else self._lookup(True, key)

    # -- pairing -----------------------------------------------------------

    def pair(self, x):
        """<self, x> for a HopfElement x, linear over terms.  A primitive
        theory vanishes on the unit and on products in either basis."""
        if x.d != self.d or x.variant != self.variant:
            raise ContextMismatchError("element context (%d, %s) does not "
                                       "match theory (%d, %s)" %
                                       (x.d, x.variant, self.d, self.variant))
        if self.variant == "nonsep":
            # a nonsep factor is its partition: gather the parts back
            get = lambda *lam: self.nonsep_value(lam)
        else:
            get = self.primitive_value if x.basis == "p" else self.value
        primitive = self.kind == "primitive"
        total = _ZERO
        for mon, coeff in x.terms.items():
            if primitive and len(mon) != 1:
                continue
            v = coeff
            for g in mon:
                v *= get(*g)
                if not v:
                    break
            total += v
        return total


def eval_theory(e, x):
    """The natural pairing <e, x>."""
    return e.pair(x)


def theory_log(e):
    """The primitive theory with the same values on primitives as e."""
    if e.kind != "multiplicative":
        raise ValueError("theory_log expects a multiplicative theory")
    fn = e.nonsep_value if e.variant == "nonsep" else e.primitive_value
    return Theory(e.d, "primitive", "log(%s)" % e.label, e.n_cap, e.m_cap,
                  variant=e.variant, gen_fn=fn)


def theory_exp(p):
    """The multiplicative theory whose primitive values are p's table."""
    if p.kind != "primitive":
        raise ValueError("theory_exp expects a primitive theory")
    if p.variant == "nonsep":
        return Theory(p.d, "multiplicative", "exp(%s)" % p.label, p.n_cap,
                      p.m_cap, variant="nonsep", gen_fn=p.nonsep_value)
    return Theory(p.d, "multiplicative", "exp(%s)" % p.label, p.n_cap, p.m_cap,
                  prim_fn=p.value)


# -- constructions ---------------------------------------------------------

def _one_var_coeffs(P, m_cap):
    """Coefficient list of a 1-variable series, zero-extended to m_cap."""
    if len(P.variables) != 1:
        raise ValueError("expected a series in one variable")
    return [P.coefficient((j,)) for j in range(m_cap + 1)]


def mult_class_theory(P, d, n_cap, m_cap, label=None, variant="sep"):
    """The multiplicative class theory of P: on q_{n,m} the value is
    1/n! times prod_i [x^(m_i)] P(x)^n.  Requires P(0) = 1."""
    if P.constant_term() != 1:
        raise ValueError("multiplicative class needs P(0) = 1")
    base = MultiSeries(("x",), (m_cap,),
                       {e: c for e, c in P.terms.items() if e[0] <= m_cap})
    powers = [MultiSeries.one(("x",), (m_cap,))]

    def coeff(n, j):
        while len(powers) <= n:
            powers.append(powers[-1] * base)
        return powers[n].coefficient((j,))

    def gen_fn(n, m):
        v = Fraction(1, factorial(n))
        for x in m:
            v *= coeff(n, x)
            if not v:
                break
        return v

    # a nonsep generator q_lam takes the sep rule at n = 1
    return Theory(d, "multiplicative", label or "class(%s)" % P.pretty(),
                  n_cap, m_cap, variant=variant,
                  gen_fn=gen_fn if variant == "sep" else partial(gen_fn, 1))


def ck_theory(k, d, n_cap, m_cap, variant="sep"):
    """The k-th Chern class theory, P = (1+x)^k: values
    1/n! prod binom(k n, m_i)."""
    k = int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    one = MultiSeries.one(("x",), (m_cap,))
    x = MultiSeries.var(("x",), (m_cap,), "x")
    return mult_class_theory((one + x) ** k, d, n_cap, m_cap,
                             label="c^%d" % k, variant=variant)


def ek_theory(k, d, n_cap, m_cap):
    """The k-th Euler power theory, class x^k: the value on q_{n,m} is 1/n!
    if every m_i = k n and zero otherwise.  (Not a unit class, so this does
    not factor through mult_class_theory.)"""
    k = int(k)

    def gen_fn(n, m):
        return Fraction(1, factorial(n)) if all(x == k * n for x in m) else _ZERO

    return Theory(d, "multiplicative", "e^%d" % k, n_cap, m_cap, gen_fn=gen_fn)


def coarse_curve_theory(k, kind, n_cap, m_cap):
    """Coarse curve-counting theories, d = 1 only.

    kind "chern":  <e, q_{n,m}> = 1/n! [T^m] prod_{i=1..n} (1+iT)^k
    kind "euler":  <e, q_{n,m}> = (n!)^(k-1) if m = nk else 0
    """
    k = int(k)
    if kind == "chern":
        if k < 0:
            raise ValueError("k must be >= 0")
        one = MultiSeries.one(("x",), (m_cap,))
        x = MultiSeries.var(("x",), (m_cap,), "x")
        rows = [one]

        def gen_fn(n, m):
            while len(rows) <= n:
                rows.append(rows[-1] * (one + len(rows) * x) ** k)
            return rows[n].coefficient(m) / factorial(n)

        return Theory(1, "multiplicative", "coarse-c^%d" % k, n_cap, m_cap,
                      gen_fn=gen_fn)
    if kind == "euler":
        def gen_fn(n, m):
            if m[0] == n * k:
                return Fraction(factorial(n)) ** (k - 1)
            return _ZERO

        return Theory(1, "multiplicative", "coarse-e^%d" % k, n_cap, m_cap,
                      gen_fn=gen_fn)
    raise ValueError("kind must be 'chern' or 'euler'")


def inertial_theory(P, d, n_cap, m_cap, label=None):
    """The inertial theory of a unit class P = 1 + t_1 U + t_2 U^2 + ...

    It is multiplicative and determined by its primitive values

        <P_, p_{n,m}> = 1/n [U^(m - (n-1))] P(U_1) ... P(U_d)
                      = 1/n t_{m_1-n+1} ... t_{m_d-n+1}

    with t_0 = 1, zero whenever some m_i < n - 1.
    """
    if P.constant_term() != 1:
        raise ValueError("inertial theory needs P(0) = 1")
    t = _one_var_coeffs(P, m_cap)

    def prim_fn(n, m):
        v = Fraction(1, n)
        for x in m:
            j = x - (n - 1)
            if j < 0:
                return _ZERO
            v *= t[j] if j < len(t) else _ZERO
            if not v:
                break
        return v

    return Theory(d, "multiplicative", label or "inertial(%s)" % P.pretty(),
                  n_cap, m_cap, prim_fn=prim_fn)


def dt_vertex_theory(n_cap, m_cap):
    """The degree zero Donaldson-Thomas vertex theory, d = 3.

    The generator table is read off from

        sum <e, q_{n,m}> T^n U^m = exp(-E(U) log M(-U1 U2 U3 T)),
        E(U) = (U1+U2)(U2+U3)(U3+U1) / (U1 U2 U3),

    with M the MacMahon series.  The division by U1 U2 U3 is exact because
    the T^n coefficient of log M(-sT) is divisible by s^n; this is asserted
    term by term, never approximated.
    """
    n_cap = int(n_cap)
    m_cap = int(m_cap)
    if m_cap < n_cap - 1:
        raise ValueError("m_cap must be at least n_cap - 1 to hold the "
                         "vertex support")
    log_m_neg = _macmahon_neg(n_cap).log()
    variables, caps = _series_frame(3, n_cap, m_cap + 1)
    # log M(-U1 U2 U3 T), truncated
    a_terms = {}
    for e, c in log_m_neg.terms.items():
        n = e[0]
        if n <= m_cap + 1:
            a_terms[(n, n, n, n)] = c
    a_series = MultiSeries(variables, caps, a_terms)
    factors = []
    for i, j in ((1, 2), (2, 3), (3, 1)):
        factors.append(MultiSeries.var(variables, caps, "U%d" % i) +
                       MultiSeries.var(variables, caps, "U%d" % j))
    e_poly = factors[0] * factors[1] * factors[2]
    b_series = -(e_poly * a_series)
    for e in b_series.terms:
        if min(e[1:]) < 1:
            raise ArithmeticError("vertex exponent series is not divisible "
                                  "by U1 U2 U3 at %r" % (e,))
    prim_table = _series_table(b_series, shift=1)
    return Theory(3, "multiplicative", "e_DT", n_cap, m_cap,
                  prim_fn=lambda n, m: prim_table.get((n, m), _ZERO))


def table_theory(entries, d, n_cap, m_cap, kind="multiplicative",
                 label="table", variant="sep"):
    """A theory from an explicit generator-value list; absent entries are
    zero, entries beyond the caps are never read.  Entries are tuples
    ((n, m), value) or, for nonsep, (lam, value)."""
    table = {}
    for key, v in entries:
        if variant == "sep":
            n, m = key
            if len(m) != d:
                raise ValueError("table entry %r: exponent vector of length "
                                 "%d, expected %d" % (key, len(m), d))
            g = canonical_generator(n, m)
            if g is UNIT or g is ZERO:
                raise ValueError("table entry %r: multiplicity n must be >= 1"
                                 % (key,))
            key = g
        else:
            key = (_canonical_nonsep(key, d),)
        table[key] = Fraction(v)
    return Theory(d, kind, label, n_cap, m_cap, variant=variant,
                  gen_fn=lambda *key: table.get(key, _ZERO))


def _spec_rational(v, where):
    """A rational read from a theory description: an int, a Fraction or a
    num/den string, never a float, whose binary value the user did not
    write."""
    if type(v) is int or isinstance(v, Fraction):
        return Fraction(v)
    try:
        return parse_rational(v)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


def theory_from_spec(spec, d, n_cap, m_cap, variant="sep"):
    """Build a theory from a structured description.

    Accepted forms: {"builtin": name, "k": int} with name one of ck, ek,
    coarse-ck, coarse-ek, dt; {"mult_class": [coefficients of P]};
    {"table": [{"n": int, "m": [int..], "value": "num/den"}, ...]}.
    """
    if "builtin" in spec:
        name = spec["builtin"]
        k = spec.get("k", 1)
        if type(k) is not int:
            raise ValueError("builtin theory %r: option 'k' must be an "
                             "integer, got %r" % (name, k))
        if name == "ck":
            return ck_theory(k, d, n_cap, m_cap, variant=variant)
        if name == "ek":
            return ek_theory(k, d, n_cap, m_cap)
        if name in ("coarse-ck", "coarse-ek"):
            if d != 1:
                raise ValueError("coarse theories need d = 1")
            kind = "chern" if name == "coarse-ck" else "euler"
            return coarse_curve_theory(k, kind, n_cap, m_cap)
        if name == "dt":
            if d != 3:
                raise ValueError("the vertex theory needs d = 3")
            return dt_vertex_theory(n_cap, m_cap)
        raise ValueError("unknown builtin theory %r" % name)
    if "mult_class" in spec:
        coeffs = [_spec_rational(c, "mult_class coefficient %d" % i)
                  for i, c in enumerate(spec["mult_class"], 1)]
        cap = max(len(coeffs) - 1, 1)
        P = MultiSeries(("x",), (cap,),
                        {(j,): c for j, c in enumerate(coeffs)})
        return mult_class_theory(P, d, n_cap, m_cap, variant=variant)
    if "table" in spec:
        entries = []
        for i, row in enumerate(spec["table"], 1):
            n, m, v = _fields(row, "table row %d" % i, "n", "m", "value")
            if type(n) is not int:
                raise ValueError("table row %d: 'n' must be an integer, got %r"
                                 % (i, n))
            if type(m) is not list or any(type(x) is not int for x in m):
                raise ValueError("table row %d: 'm' must be a list of "
                                 "integers, got %r" % (i, m))
            v = _spec_rational(v, "table row %d: 'value'" % i)
            entries.append(((n, tuple(m)), v))
        return table_theory(entries, d, n_cap, m_cap)
    raise ValueError("unrecognized theory description %r" % (spec,))
