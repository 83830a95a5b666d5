"""Monomial-to-elementary symmetric transitions and Chern number data.

Only degree-d identities in d variables are ever needed, so transitions are
computed by counting 0-1 matrices and one back-substitution over the
integers, then cached per d.
An elementary monomial e_mu = e_{mu_1} e_{mu_2} ... is keyed by the
partition mu of its indices, e.g. (2, 1) stands for e_2*e_1.

A proper d-fold enters the model only through its Chern numbers
<m_lam(T_X), [X]> for lam a partition of d.  They can be supplied directly
in the monomial basis or converted from Chern class monomial numbers
<c_mu, [X]> via e_i -> c_i.
"""

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from operator import index

from .combinat import canonical_partition, pad_partition, partitions_of
from .rational import _numerators, format_rational, parse_rational


def _partition_of(lam, d):
    """lam sorted and stripped of zeros, if its parts are non-negative
    ints summing to d; otherwise ValueError."""
    if not all(isinstance(x, int) and x >= 0 for x in lam) or sum(lam) != d:
        raise ValueError("%r is not a partition of %d" % (lam, d))
    return canonical_partition(lam)


@lru_cache(maxsize=None)
def _m_to_e_table(d):
    """For every lam |- d the expansion of m_lam in the e_mu, exact.

    With lam' the conjugate of lam, e_lam' = m_lam + sum_nu [x^nu]e_lam' m_nu
    over nu strictly below lam in dominance order, all of which come after
    lam in partitions_of.  Walking that list backwards, m_lam is e_lam'
    minus already expanded m_nu, in ints, and the rows stay ints.
    [x^nu]e_mu counts the 0-1 matrices with row sums mu and column sums nu
    (row i picks the variables of e_(mu_i)), a row at a time, the column
    sums still owed kept sorted so that every column order shares a count.
    """
    lams = partitions_of(d, d)
    counts = {}

    def count(mu, nu):
        if not mu:
            return 1  # |mu| = |nu| and no column went below 0: nu is used up
        if (mu, nu) not in counts:
            counts[mu, nu] = sum(
                count(mu[1:], tuple(sorted((x - (i in cols) for i, x
                                            in enumerate(nu)), reverse=True)))
                for cols in itertools.combinations(range(d), mu[0])
                if all(nu[i] for i in cols))
        return counts[mu, nu]

    rows = {}
    for lam in reversed(lams):
        conj = tuple(sum(part > i for part in lam) for i in range(lam[0]))
        row = {conj: 1}
        for nu, nu_row in rows.items():
            c = count(conj, pad_partition(nu, d))
            for mu, x in nu_row.items():
                row[mu] = row.get(mu, 0) - c * x
        rows[lam] = row
    return {lam: {mu: rows[lam][mu] for mu in lams if rows[lam].get(mu)}
            for lam in lams}


def monomial_to_elementary(lam, d):
    """Expand m_lam(x_1..x_d) in elementary symmetric polynomials.

    Returns a map from elementary monomials (partitions of d, keyed by their
    index multiset) to rational coefficients.

    >>> monomial_to_elementary((1, 1), 2)
    {(2,): Fraction(1, 1)}
    >>> monomial_to_elementary((2,), 2) == {(1, 1): Fraction(1), (2,): Fraction(-2)}
    True
    """
    return {mu: Fraction(c)
            for mu, c in _m_to_e_table(d)[_partition_of(lam, d)].items()}


class ChernData:
    """The monomial Chern numbers <m_lam(T_X), [X]>, lam |- d."""

    __slots__ = ("d", "monomial_numbers")

    def __init__(self, d, monomial_numbers):
        d = index(d)
        if d < 1:
            raise ValueError("dimension must be positive")
        values = dict.fromkeys(partitions_of(d, d), Fraction(0))
        for lam, v in monomial_numbers.items():  # two spellings add up
            values[_partition_of(lam, d)] += Fraction(v)
        self.d = d
        self.monomial_numbers = values

    def value(self, lam):
        return self.monomial_numbers[canonical_partition(lam)]

    def items(self):
        return list(self.monomial_numbers.items())

    def __eq__(self, other):
        if not isinstance(other, ChernData):
            return NotImplemented
        return self.d == other.d and self.monomial_numbers == other.monomial_numbers

    __hash__ = None

    def __repr__(self):
        return "ChernData(d=%d, %r)" % (self.d, self.monomial_numbers)

    def to_obj(self):
        return {
            "d": self.d,
            "monomial_numbers": [{"lambda": list(lam), "value": format_rational(v)}
                                 for lam, v in self.items()],
        }

    @classmethod
    def from_obj(cls, obj):
        values = {tuple(row["lambda"]): parse_rational(row["value"])
                  for row in obj["monomial_numbers"]}
        return cls(obj["d"], values)


def chern_data_from_classes(d, class_numbers):
    """Build ChernData from Chern class monomial numbers <c_mu, [X]>.

    class_numbers maps partitions mu of d (index multisets, e.g. (2, 1) for
    c_2 c_1) to rationals and must contain every monomial of total degree d
    that occurs in some m_lam expansion; two spellings of one mu add up.
    """
    numbers = {}
    for mu, v in class_numbers.items():
        mu = _partition_of(mu, d)
        numbers[mu] = numbers.get(mu, Fraction(0)) + Fraction(v)
    return _from_class_ints(d, *_numerators(numbers))


def _from_class_ints(d, den, numbers):
    """ChernData of the class numbers numbers[mu] / den, mu canonical: each
    <m_lam> is one int sum over its m->e row, one Fraction, stored in the
    table's order unchecked; the first mu in row order missing raises."""
    d, values = index(d), {}
    for lam, row in _m_to_e_table(d).items():
        try:
            values[lam] = Fraction(sum(c * numbers[mu]
                                       for mu, c in row.items()), den)
        except KeyError as exc:
            raise ValueError("missing Chern class number for c_%s" %
                             "".join(map(str, exc.args[0]))) from None
    out = object.__new__(ChernData)
    out.d, out.monomial_numbers = d, values
    return out


_CLASS_FACTOR_RE = re.compile(r"c(\d+)(?:\^(\d+))?")
_CHERN_KEY_RE = re.compile(r"m(\d+)|(?:c\d+(?:\^\d+)?)+")


def parse_chern_arg(d, text):
    """Parse command-line Chern data like "c3=4,c1c2=24" or "m21=12,m111=4".

    Keys are either monomial-basis ("m" followed by the parts of lam, one
    digit each) or Chern class monomials ("c1c2", "c1^3").  The two families
    cannot be mixed.  Monomials that are not mentioned default to zero.
    """
    entries = {}
    family = None
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError("malformed Chern entry %r, expected key=value" % piece)
        key, _, val = piece.partition("=")
        key = key.strip()
        value = parse_rational(val)
        match = _CHERN_KEY_RE.fullmatch(key)
        if match is None:
            raise ValueError("malformed Chern key %r" % key)
        if match[1]:
            kind, lam = "m", canonical_partition(tuple(map(int, match[1])))
        else:
            kind, idx = "c", []
            for i, power in _CLASS_FACTOR_RE.findall(key):
                idx.extend([int(i)] * (int(power) if power else 1))
            lam = canonical_partition(idx)
        if family is None:
            family = kind
        elif family != kind:
            raise ValueError("cannot mix m- and c-style Chern keys")
        if sum(lam) != d:
            raise ValueError("Chern key %r has total degree %d, expected %d" %
                             (key, sum(lam), d))
        entries[lam] = entries[lam] + value if lam in entries else value
    if family == "m":
        return ChernData(d, entries)
    den, numbers = _numerators(entries)
    return _from_class_ints(d, den, dict.fromkeys(
        _m_to_e_table(index(d)), 0) | numbers)
