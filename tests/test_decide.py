import math

import pytest

from twobridge.slopes import INFINITY, ONE, ZERO, Slope, cf_value, farey_interval
from twobridge.decide import (
    ScanMode,
    has_umpp_epimorphism,
    is_null_homotopic,
    scan,
)
from twobridge.pieces import satisfies_necessary_condition
from twobridge.reflections import Reflection, Route, reduce_to_fundamental
from twobridge.verification import connection_criterion


def test_null_homotopy_examples():
    v = is_null_homotopic(Slope(1, 6), Slope(1, 3))
    assert v.answer and v.route is Route.GENERIC
    assert v.canonical_representative == INFINITY

    v = is_null_homotopic(ONE, ZERO)
    assert not v.answer and v.route is Route.R_INTEGER
    assert v.canonical_representative == ONE

    v = is_null_homotopic(Slope(1, 2), Slope(1, 3))
    assert not v.answer
    assert v.canonical_representative == Slope(1, 2)

    v = is_null_homotopic(INFINITY, INFINITY)
    assert v.answer and v.route is Route.R_INFINITY

    assert is_null_homotopic(Slope(1, 3), Slope(1, 3)).answer
    assert not is_null_homotopic(ZERO, INFINITY).answer


def test_verdict_json_shape():
    obj = is_null_homotopic(Slope(1, 6), Slope(1, 3)).to_json_obj()
    assert obj == {
        "s": "1/6",
        "r": "1/3",
        "answer": True,
        "representative": "inf",
        "route": "GENERIC",
        "trace": {"start": "1/6",
                  "steps": [{"matrix": [1, 0, 6, -1], "image": "inf"}],
                  "result": "inf"},
    }


def test_epimorphism_examples():
    assert has_umpp_epimorphism(Slope(1, 3), Slope(1, 3))
    assert has_umpp_epimorphism(Slope(1, 6), Slope(1, 3))
    assert not has_umpp_epimorphism(Slope(1, 2), Slope(1, 3))
    # s + 1 route: 1/3 + 1 = 4/3 folds back onto 1/3's orbit data.
    assert has_umpp_epimorphism(Slope(4, 3), Slope(1, 3))


def test_epimorphism_reflexive_and_translation_invariant():
    for p in range(1, 15):
        for q in range(0, p + 1):
            if math.gcd(q, p) == 1:
                r = Slope(q, p)
                assert has_umpp_epimorphism(r, r)
    for s_num, s_den in ((1, 5), (2, 7), (3, 4)):
        s = Slope(s_num, s_den)
        r = Slope(2, 5)
        assert (has_umpp_epimorphism(s, r)
                == has_umpp_epimorphism(s + 2, r)
                == has_umpp_epimorphism(-s + 2, r))


def test_homotopy_representative_examples():
    def representative(s, r):
        return reduce_to_fundamental(s, r).result

    assert representative(Slope(7, 3), Slope(1, 3)) == Slope(1, 3)
    assert representative(INFINITY, Slope(2, 5)) == INFINITY
    assert representative(Slope(1, 2), Slope(1, 3)) == Slope(1, 2)
    with pytest.raises(ValueError):
        representative(Slope(1, 2), Slope(3, 2))


def test_connection_criterion_examples():
    r = Slope(10, 37)  # [3,1,2,3]
    assert connection_criterion(cf_value((3, 1, 2, 3, 5)), r)
    assert not connection_criterion(Slope(7, 26), r)  # [3,1,2,2]
    assert connection_criterion(r, r)
    assert not connection_criterion(ONE, r)


def test_scan_examples():
    hits = scan(Slope(1, 3), 6)
    assert Slope(1, 6) in hits and Slope(1, 3) in hits
    assert scan(INFINITY, 10) == [INFINITY]
    assert Slope(1, 2) not in scan(Slope(1, 3), 2)
    assert hits == sorted(hits)
    with pytest.raises(ValueError):
        scan(Slope(1, 3), 0)


def test_scan_modes_nest():
    null_hits = set(scan(Slope(2, 5), 12, ScanMode.NULLHOMOTOPY))
    epi_hits = set(scan(Slope(2, 5), 12, ScanMode.EPIMORPHISM))
    assert null_hits <= epi_hits


def test_epi_scan_matches_per_candidate_decision():
    # The epimorphism scan reads s - 1 off the null hit 1 - s; the
    # reference decides every candidate on its own.
    proper = [Slope(q, p) for p in range(2, 31) for q in range(1, p)
              if math.gcd(q, p) == 1]
    shifted = [Slope(3, 2), Slope(-1, 2), Slope(5, 2), Slope(-10, 37), Slope(47, 37)]
    integers = [ZERO, ONE, Slope(3), Slope(-2)]
    candidates = farey_interval(20) + [INFINITY]
    for r in proper + shifted + integers + [INFINITY]:
        expected = [s for s in candidates if has_umpp_epimorphism(s, r)]
        assert scan(r, 20, ScanMode.EPIMORPHISM) == expected, r


def test_scan_transport_under_link_symmetry():
    # x -> 1 - x is an automorphism of the tessellation fixing ∞ and
    # carrying 1/3 to 2/3, so the scans correspond slope for slope.
    mirror = Reflection(-1, 1, 0, 1)
    for mode in (ScanMode.NULLHOMOTOPY, ScanMode.EPIMORPHISM):
        left = scan(Slope(1, 3), 12, mode)
        right = scan(Slope(2, 3), 12, mode)
        assert sorted(mirror.apply(s) for s in left) == right


def test_abelianized_oracle_for_slope_half():
    # The relator group of slope 1/2 is free abelian on the meridians, so
    # the loop of slope s bounds exactly when both exponent sums of its
    # relator word vanish.  This checks the whole decision pipeline
    # against plain linear algebra.
    from twobridge.words import relator
    r = Slope(1, 2)
    for p in range(1, 61):
        for q in range(0, p + 1):
            if math.gcd(q, p) != 1:
                continue
            s = Slope(q, p)
            u = relator(s)
            abelian_trivial = (u.count("a") == u.count("A")
                               and u.count("b") == u.count("B"))
            assert is_null_homotopic(s, r).answer == abelian_trivial


def test_infinite_cyclic_oracle_for_slope_zero():
    # The relator group of slope 0 is infinite cyclic with b = a⁻¹, so
    # the loop of slope s bounds exactly when the total exponent sum of
    # its relator word (counting b as a⁻¹) vanishes.
    from twobridge.words import relator
    for p in range(1, 61):
        for q in range(0, p + 1):
            if math.gcd(q, p) != 1:
                continue
            s = Slope(q, p)
            u = relator(s)
            image_exponent = (u.count("a") - u.count("A")
                              - u.count("b") + u.count("B"))
            assert is_null_homotopic(s, ZERO).answer == (image_exponent == 0)


def test_null_homotopy_implies_necessary_condition_multiterm():
    for p in range(2, 16):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            r = Slope(q, p)
            from twobridge.slopes import cf_expand
            if len(cf_expand(r)) < 2:
                continue
            for sp in range(1, 25):
                for sq in range(1, sp + 1):
                    if math.gcd(sq, sp) != 1:
                        continue
                    s = Slope(sq, sp)
                    if is_null_homotopic(s, r).answer:
                        assert satisfies_necessary_condition(s, r)
