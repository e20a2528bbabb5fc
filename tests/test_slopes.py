import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twobridge.slopes import (
    INFINITY,
    ONE,
    ZERO,
    ContinuedFraction,
    ParityClass,
    Slope,
    cf_expand,
    cf_value,
    farey_interval,
    fundamental_endpoints,
    in_fundamental_intervals,
    mediant,
    parse_slope,
    schubert_equivalent,
    slope_parity_class,
)
from twobridge.verification import triangle_orbit_closure


def test_slope_normalization():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-2, -4) == Slope(1, 2)
    assert Slope(2, -4) == Slope(-1, 2)
    assert Slope(-1, 0) == INFINITY
    assert Slope(5, 0) == INFINITY
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_slope_overflow_guard():
    with pytest.raises(OverflowError):
        Slope(2**64, 3)


def test_slope_ordering():
    assert ZERO < Slope(1, 3) < Slope(1, 2) < ONE < Slope(7, 3) < INFINITY
    assert Slope(-1, 2) < ZERO
    assert not (INFINITY < INFINITY)
    assert sorted([INFINITY, ONE, ZERO]) == [ZERO, ONE, INFINITY]


def test_slope_arithmetic():
    assert Slope(1, 3) + 1 == Slope(4, 3)
    assert Slope(1, 3) - 2 == Slope(-5, 3)
    assert INFINITY + 1 == INFINITY
    assert -Slope(2, 5) == Slope(-2, 5)


def test_parse_and_format():
    assert parse_slope("4/7") == Slope(4, 7)
    assert parse_slope("inf") == INFINITY
    assert parse_slope("-inf") == INFINITY
    assert parse_slope("-1/5") == Slope(-1, 5)
    assert parse_slope("−1/5") == Slope(-1, 5)  # unicode minus
    assert parse_slope("3") == Slope(3)
    assert str(Slope(-1, 5)) == "-1/5"
    assert str(INFINITY) == "inf"
    with pytest.raises(ValueError):
        parse_slope("3/4/5")
    with pytest.raises(ValueError):
        parse_slope("x")
    # The 64-bit bound applies to the slope in lowest terms.
    assert parse_slope(f"{2**64}/{2**65}") == Slope(1, 2)
    with pytest.raises(ValueError):
        parse_slope("1/99999999999999999999")


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_parse_round_trip(num, den):
    s = Slope(num, den)
    assert parse_slope(str(s)) == s


def test_cf_expand_examples():
    assert cf_expand(Slope(5, 17)).terms == (3, 2, 2)
    assert cf_expand(Slope(10, 37)).terms == (3, 1, 2, 3)
    assert cf_expand(Slope(1, 2)).terms == (2,)
    assert cf_expand(ONE).terms == (1,)
    assert cf_expand(Slope(10, 7)).terms == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        cf_expand(ZERO)
    with pytest.raises(ValueError):
        cf_expand(INFINITY)
    with pytest.raises(ValueError):
        cf_expand(Slope(-1, 2))


def test_cf_value_examples():
    assert cf_value((3, 2, 2)) == Slope(5, 17)
    assert cf_value(()) == ZERO
    assert cf_value((3, 2, 1)) == Slope(3, 10)
    assert cf_value((3, 3)) == Slope(3, 10)
    assert cf_value((0, 2)) == Slope(2)
    with pytest.raises(ValueError):
        cf_value((3, -2, 2))


def test_continued_fraction_type_invariants():
    with pytest.raises(ValueError):
        ContinuedFraction((3, 2, 1))  # trailing 1 with k > 1
    with pytest.raises(ValueError):
        ContinuedFraction((0, 1))  # denotes 1, not canonical
    with pytest.raises(ValueError):
        ContinuedFraction(())
    assert ContinuedFraction((0, 2)).value() == Slope(2)
    assert str(ContinuedFraction((3, 1, 2, 3))) == "[3,1,2,3]"


def test_cf_round_trip_exhaustive():
    for p in range(1, 501):
        for q in range(1, p + 1):
            if math.gcd(q, p) == 1:
                r = Slope(q, p)
                cf = cf_expand(r)
                assert cf.value() == r
                terms = cf.terms
                assert all(m >= 1 for m in terms)
                assert len(terms) == 1 or terms[-1] >= 2


def test_cf_reciprocal_identities_exhaustive():
    # With p = m1*q + c: q/c = [0,m2,...,mk], c/q = [m2,...,mk],
    # c/(q-c) = [m2-1,m3,...,mk] when m2 >= 2, (q-c)/c = [m3,...,mk]
    # when m2 = 1.
    for p in range(2, 501):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            terms = cf_expand(Slope(q, p)).terms
            if len(terms) < 2:
                continue
            c = p - terms[0] * q
            assert cf_expand(Slope(q, c)).terms == (0,) + terms[1:]
            assert cf_expand(Slope(c, q)).terms == terms[1:]
            if terms[1] >= 2:
                assert cf_expand(Slope(c, q - c)).terms == (terms[1] - 1,) + terms[2:]
            else:
                assert cf_expand(Slope(q - c, c)).terms == terms[2:]


def test_schubert_examples():
    assert schubert_equivalent(Slope(1, 3), Slope(2, 3))
    assert schubert_equivalent(Slope(3, 7), Slope(5, 7))
    assert not schubert_equivalent(Slope(1, 3), Slope(1, 5))
    assert schubert_equivalent(INFINITY, INFINITY)
    assert not schubert_equivalent(INFINITY, Slope(1, 3))
    assert schubert_equivalent(Slope(2), Slope(5))  # all integer slopes


def test_schubert_is_equivalence_relation():
    for p in range(1, 61):
        slopes = [Slope(q, p) for q in range(1, p + 1) if math.gcd(q, p) == 1]
        for a in slopes:
            assert schubert_equivalent(a, a)
            for b in slopes:
                assert schubert_equivalent(a, b) == schubert_equivalent(b, a)
        classes = {}
        for a in slopes:
            for b in slopes:
                if schubert_equivalent(a, b):
                    classes.setdefault(a, set()).add(b)
        for a in slopes:
            for b in classes[a]:
                assert classes[b] == classes[a]  # transitivity


def test_fundamental_endpoints_examples():
    assert fundamental_endpoints(Slope(5, 17)) == (Slope(2, 7), Slope(3, 10))
    assert fundamental_endpoints(Slope(1, 3)) == (ZERO, Slope(1, 2))
    assert fundamental_endpoints(Slope(10, 37)) == (Slope(7, 26), Slope(3, 11))
    with pytest.raises(ValueError):
        fundamental_endpoints(ONE)
    with pytest.raises(ValueError):
        fundamental_endpoints(Slope(3, 2))


def test_fundamental_endpoints_mediant():
    for p in range(2, 120):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                r = Slope(q, p)
                r1, r2 = fundamental_endpoints(r)
                assert r1 < r < r2
                assert mediant(r1, r2) == r


def test_in_fundamental_intervals():
    assert in_fundamental_intervals(Slope(1, 2), Slope(1, 3))
    assert not in_fundamental_intervals(Slope(1, 3), Slope(1, 3))
    assert not in_fundamental_intervals(Slope(-1, 5), Slope(1, 3))
    assert not in_fundamental_intervals(INFINITY, Slope(1, 3))


def test_parity_examples():
    assert slope_parity_class(Slope(2, 5)) is ParityClass.ZERO
    assert slope_parity_class(ONE) is ParityClass.ONE
    assert slope_parity_class(INFINITY) is ParityClass.INFINITY
    assert slope_parity_class(Slope(-3, 5)) is ParityClass.ONE


def test_farey_interval_matches_sorted_fractions():
    for n in range(1, 61):
        expected = sorted({Fraction(q, p) for p in range(1, n + 1)
                           for q in range(p + 1)})
        got = farey_interval(n)
        assert [(s.num, s.den) for s in got] == [
            (x.numerator, x.denominator) for x in expected], n
    with pytest.raises(ValueError):
        farey_interval(0)


def test_parity_matches_triangle_orbits():
    bound = 12
    orbits = {
        ParityClass.ZERO: triangle_orbit_closure({ZERO}, bound),
        ParityClass.ONE: triangle_orbit_closure({ONE}, bound),
        ParityClass.INFINITY: triangle_orbit_closure({INFINITY}, bound),
    }
    for s in farey_interval(bound) + [INFINITY, Slope(-2, 5), Slope(7, 3)]:
        cls = slope_parity_class(s)
        for other, orbit in orbits.items():
            assert (s in orbit) == (other is cls)


@given(st.integers(-10**4, 10**4), st.integers(1, 10**4),
       st.integers(-10**4, 10**4), st.integers(1, 10**4))
def test_ordering_matches_fractions(a, b, c, d):
    assert (Slope(a, b) < Slope(c, d)) == (Fraction(a, b) < Fraction(c, d))
