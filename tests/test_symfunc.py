import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from punctual.combinat import num_orderings, pad_partition, partitions_of
from punctual.symfunc import (ChernData, chern_data_from_classes,
                              monomial_to_elementary, parse_chern_arg)

import oracles


def test_frozen_tables_d2():
    assert monomial_to_elementary((1, 1), 2) == {(2,): F(1)}
    assert monomial_to_elementary((2,), 2) == {(1, 1): F(1), (2,): F(-2)}


def test_frozen_tables_d3():
    assert monomial_to_elementary((1, 1, 1), 3) == {(3,): F(1)}
    assert monomial_to_elementary((2, 1), 3) == {(2, 1): F(1), (3,): F(-3)}
    assert monomial_to_elementary((3,), 3) == \
        {(1, 1, 1): F(1), (2, 1): F(-3), (3,): F(3)}


def test_transition_by_random_evaluation():
    rng = random.Random(3)
    for d in range(1, 7):
        point = tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(d))
        for lam in partitions_of(d, d):
            direct = oracles.eval_poly(oracles.monomial_poly(lam, d), point)
            elem = [oracles.eval_poly(oracles.elementary_poly(k, d), point)
                    for k in range(d + 1)]
            total = F(0)
            for mu, coeff in monomial_to_elementary(lam, d).items():
                v = coeff
                for k in mu:
                    v *= elem[k]
                total += v
            assert total == direct


def test_all_ones_specialization():
    # at x_i = 1: m_lam -> #orderings, e_k -> binom(d, k)
    from math import comb
    for d in range(1, 5):
        for lam in partitions_of(d, d):
            total = F(0)
            for mu, coeff in monomial_to_elementary(lam, d).items():
                v = coeff
                for k in mu:
                    v *= comb(d, k)
                total += v
            assert total == num_orderings(pad_partition(lam, d))


def test_bad_partition_rejected():
    with pytest.raises(ValueError):
        monomial_to_elementary((1, 1, 1), 2)
    with pytest.raises(ValueError):
        monomial_to_elementary((1,), 2)


@pytest.mark.parametrize("lam, d", [((4, -1), 3), ((1.5, 0.5), 2),
                                    ((2, 0.0), 2), ((1, 1, 1), 2)],
                         ids=("negative", "non-integer", "float-zero",
                              "wrong-total"))
def test_non_partitions_refused_everywhere(lam, d):
    # negative, non-integer and wrong-total parts: one ValueError each time
    for call in (lambda: ChernData(d, {lam: 5}),
                 lambda: monomial_to_elementary(lam, d),
                 lambda: chern_data_from_classes(
                     d, {**dict.fromkeys(partitions_of(d, d), 1), lam: 5})):
        with pytest.raises(ValueError, match="is not a partition of %d" % d):
            call()


def test_chern_data_refuses_dimension_zero():
    with pytest.raises(ValueError) as err:
        ChernData(0, {})
    assert type(err.value) is ValueError
    assert str(err.value) == "dimension must be positive"


def test_chern_data_basics():
    ch = ChernData(2, {(0, 2): F(7)})  # canonicalized to (2,)
    assert ch.value((2,)) == 7
    assert ch.value((1, 1)) == 0      # zero-filled
    assert [lam for lam, _ in ch.items()] == [(2,), (1, 1)]
    with pytest.raises(ValueError):
        ChernData(2, {(1,): F(1)})
    with pytest.raises(KeyError):
        ch.value((3,))


def test_chern_data_roundtrip():
    ch = ChernData(3, {(1, 1, 1): F(4), (2, 1): F(12), (3,): F(4)})
    obj = ch.to_obj()
    assert obj["monomial_numbers"][0] == {"lambda": [3], "value": "4/1"}
    assert ChernData.from_obj(json.loads(json.dumps(obj))) == ch


def test_classes_to_monomials_projective_3_space():
    ch = chern_data_from_classes(3, {(1, 1, 1): F(64), (2, 1): F(24),
                                     (3,): F(4)})
    assert ch.value((1, 1, 1)) == 4
    assert ch.value((2, 1)) == 12
    assert ch.value((3,)) == 4


def test_classes_to_monomials_d2():
    a, b = F(9), F(3)
    ch = chern_data_from_classes(2, {(1, 1): a, (2,): b})
    assert ch.value((1, 1)) == b
    assert ch.value((2,)) == a - 2 * b


def test_class_numbers_round_trip():
    # <c_mu> = sum_lam [x^lam](e_mu1 e_mu2 ...) <m_lam>, e_k -> c_k
    rng = random.Random(5)
    for d in range(1, 6):
        classes = {mu: F(rng.randint(-9, 9), rng.randint(1, 6))
                   for mu in partitions_of(d, d)}
        ch = chern_data_from_classes(d, classes)
        for mu, want in classes.items():
            poly = {(0,) * d: F(1)}
            for k in mu:
                poly = oracles.poly_mul(poly, oracles.elementary_poly(k, d),
                                        (d,) * d)
            assert sum(poly.get(pad_partition(lam, d), 0) * w
                       for lam, w in ch.items()) == want, (d, mu)


def test_classes_missing_key():
    with pytest.raises(ValueError, match="missing Chern class number"):
        chern_data_from_classes(2, {(2,): F(5)})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(1, 5))
def test_classes_to_monomials_match_the_fraction_loop(data, d):
    # fractional class numbers, some of them missing: the same numbers, or
    # the same first missing c_mu in row order, as the loop over Fractions
    lams = partitions_of(d, d)
    rows = {lam: {mu: row[mu] for mu in lams if mu in row} for lam in lams
            for row in (monomial_to_elementary(lam, d),)}
    value = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
    numbers = data.draw(st.dictionaries(st.sampled_from(lams), value,
                                        min_size=max(len(lams) - 2, 0)))
    try:
        want = oracles.chern_from_classes(rows, numbers)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            chern_data_from_classes(d, numbers)
        assert str(got.value) == str(exc)
    else:
        assert chern_data_from_classes(d, numbers).monomial_numbers == want


@pytest.mark.parametrize("d, numbers, named", [
    (3, {(3,): 1}, "c_21"), (3, {(1, 1, 1): 1}, "c_3"),
    (4, {(4,): 1, (3, 1): 2}, "c_22"), (4, {(1, 1, 1, 1): 1}, "c_4")])
def test_several_missing_classes_name_the_first_in_row_order(d, numbers,
                                                             named):
    with pytest.raises(ValueError) as got:
        chern_data_from_classes(d, numbers)
    assert str(got.value) == "missing Chern class number for " + named


def test_parse_chern_m_keys():
    ch = parse_chern_arg(3, "m21=12,m111=4")
    assert ch.value((2, 1)) == 12
    assert ch.value((1, 1, 1)) == 4
    assert ch.value((3,)) == 0


def test_parse_chern_c_keys():
    ch = parse_chern_arg(3, "c1^3=64,c1c2=24,c3=4")
    assert ch == ChernData(3, {(1, 1, 1): F(4), (2, 1): F(12), (3,): F(4)})
    # omitted class monomials default to zero
    ch2 = parse_chern_arg(3, "c3=4,c1c2=24")
    assert ch2.value((1, 1, 1)) == 4
    assert ch2.value((2, 1)) == 12
    assert ch2.value((3,)) == F(0) - 72 + 12
    # an empty piece between commas is skipped
    assert parse_chern_arg(3, "c3=4,,c1c2=24") == ch2


def test_chern_data_compares_and_prints():
    ch = ChernData(2, {(2,): 3})
    assert not (ch == 3) and ch != "ch"
    assert repr(ch) == ("ChernData(d=2, {(2,): Fraction(3, 1), "
                        "(1, 1): Fraction(0, 1)})")
    # stored in partitions_of order, whatever the input order
    assert repr(ChernData(2, {(1, 1): 2})) == (
        "ChernData(d=2, {(2,): Fraction(0, 1), (1, 1): Fraction(2, 1)})")


def test_parse_chern_rejects():
    with pytest.raises(ValueError, match="mix"):
        parse_chern_arg(3, "m3=1,c3=1")
    with pytest.raises(ValueError):
        parse_chern_arg(3, "x3=1")
    with pytest.raises(ValueError):
        parse_chern_arg(3, "c2=1")       # degree 2, need 3
    with pytest.raises(ValueError):
        parse_chern_arg(3, "m21")        # no value
    with pytest.raises(ValueError):
        parse_chern_arg(2, "m2=1/0")


def test_every_key_outside_the_grammar_is_malformed():
    # each key is matched once against m<digits> | (c<digits>[^<digits>])+,
    # so a digit that str.isdigit takes but int() does not ('²'), a bare m
    # and a key mixing the two families all get the one message
    for key in ("m²", "m", "m2x", "mc2", "m2^1", "c2m1", "x3"):
        with pytest.raises(ValueError) as err:
            parse_chern_arg(2, key + "=1")
        assert str(err.value) == "malformed Chern key %r" % key


def test_parse_chern_accumulates_duplicates():
    ch = parse_chern_arg(1, "m1=2,m1=3")
    assert ch.value((1,)) == 5


def test_constructors_sum_two_spellings_of_one_partition():
    # (2, 1), (1, 2) and (2, 1, 0) all name lam = (2, 1): their numbers add
    for spellings in ({(2, 1): 5, (1, 2): 3}, {(2, 1): 5, (2, 1, 0): 3}):
        assert ChernData(3, spellings) == ChernData(3, {(2, 1): 8})
        classes = {(3,): F(1, 2), (1, 1, 1): 2, **spellings}
        assert chern_data_from_classes(3, classes) == chern_data_from_classes(
            3, {(3,): F(1, 2), (1, 1, 1): 2, (2, 1): 8})
    assert ChernData(2, {(2,): F(1, 3), (2, 0): F(-1, 3)}).value((2,)) == 0


def _spelled(draw, mu):
    """A c-key for the class monomial c_mu: its factors in a drawn order,
    a run of equal ones sometimes written as a power."""
    parts = draw(st.permutations(mu))
    out, i = [], 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        if j - i > 1 and draw(st.booleans()):
            out.append("c%d^%d" % (parts[i], j - i))
        else:
            out.extend("c%d" % parts[i] for _ in range(i, j))
        i = j
    return "".join(out)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(1, 4))
def test_parse_chern_c_keys_match_the_fraction_loop(data, d):
    # fractional values, omitted classes (read as 0), repeated classes
    # under other spellings (summed) and empty text: the monomial numbers
    # of the loop over Fractions, in partitions_of order
    lams = partitions_of(d, d)
    value = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
    entries = data.draw(st.lists(st.tuples(st.sampled_from(lams), value),
                                 max_size=2 * len(lams)))
    text = ",".join("%s=%s" % (_spelled(data.draw, mu), v)
                    for mu, v in entries)
    numbers = dict.fromkeys(lams, F(0))
    for mu, v in entries:
        numbers[mu] += v
    rows = {lam: monomial_to_elementary(lam, d) for lam in lams}
    ch = parse_chern_arg(d, text)
    assert ch.d == d
    assert list(ch.monomial_numbers) == lams
    assert ch.monomial_numbers == oracles.chern_from_classes(rows, numbers)
    assert all(type(v) is F for v in ch.monomial_numbers.values())
    assert parse_chern_arg(d, " ") == ChernData(d, {})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(key=st.text(alphabet="c^12x", max_size=8))
def test_malformed_chern_keys_are_those_no_factor_string_matches(key):
    # a c-key is refused as malformed exactly when it is not a string of
    # factors c<digits> or c<digits>^<digits>; a key that is one goes on to
    # the degree check
    try:
        parse_chern_arg(3, key + "=1")
    except ValueError as err:
        malformed = str(err) == "malformed Chern key %r" % key
    else:
        malformed = False
    assert malformed == (re.fullmatch(r"(c\d+(\^\d+)?)+", key) is None)
