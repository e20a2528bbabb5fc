import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twobridge.slopes import (
    INFINITY,
    ONE,
    ZERO,
    Slope,
    cf_expand,
    cf_value,
    farey_interval,
    fundamental_endpoints,
    parse_slope,
    parity_vertex,
    schubert_equivalent,
)
from twobridge.verification import in_fundamental_intervals, mediant, triangle_orbit_closure


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
    assert ONE != 1  # slopes compare only with slopes
    with pytest.raises(TypeError):
        Slope(1, 2) < 1


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
    assert cf_expand(Slope(5, 17)) == (3, 2, 2)
    assert cf_expand(Slope(10, 37)) == (3, 1, 2, 3)
    assert cf_expand(Slope(1, 2)) == (2,)
    assert cf_expand(ONE) == (1,)
    assert cf_expand(Slope(10, 7)) == (0, 1, 2, 3)
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


def test_cf_round_trip_exhaustive():
    for p in range(1, 501):
        for q in range(1, p + 1):
            if math.gcd(q, p) == 1:
                r = Slope(q, p)
                terms = cf_expand(r)
                assert cf_value(terms) == r
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
            terms = cf_expand(Slope(q, p))
            if len(terms) < 2:
                continue
            c = p - terms[0] * q
            assert cf_expand(Slope(q, c)) == (0,) + terms[1:]
            assert cf_expand(Slope(c, q)) == terms[1:]
            if terms[1] >= 2:
                assert cf_expand(Slope(c, q - c)) == (terms[1] - 1,) + terms[2:]
            else:
                assert cf_expand(Slope(q - c, c)) == terms[2:]


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
    assert parity_vertex(Slope(2, 5)) == ZERO
    assert parity_vertex(ONE) == ONE
    assert parity_vertex(INFINITY) == INFINITY
    assert parity_vertex(Slope(-3, 5)) == ONE


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
    orbits = {v: triangle_orbit_closure({v}, bound) for v in (ZERO, ONE, INFINITY)}
    for s in farey_interval(bound) + [INFINITY, Slope(-2, 5), Slope(7, 3)]:
        v = parity_vertex(s)
        for other, orbit in orbits.items():
            assert (s in orbit) == (other == v)


@given(st.integers(-10**4, 10**4), st.integers(1, 10**4),
       st.integers(-10**4, 10**4), st.integers(1, 10**4))
def test_ordering_matches_fractions(a, b, c, d):
    assert (Slope(a, b) < Slope(c, d)) == (Fraction(a, b) < Fraction(c, d))
