import math

import pytest
from hypothesis import given, settings, strategies as st

from twobridge.slopes import ONE, Slope, cf_expand
from twobridge.seqs import (
    CyclicSequence,
    count_cyclic_factor,
    cyclic_s_sequence,
    decompose,
    format_sequence,
    s_sequence,
    s_sequence_of_word,
    t_sequence,
)
from twobridge.verification import (
    relator_by_floor,
    relator_by_line_walk,
    s_sequence_by_ceiling_count,
    s_sequence_by_strip_count,
    t_sequence_by_runs,
)
from twobridge.words import half_relator, relator


def test_s_sequence_of_word_examples():
    assert s_sequence_of_word(relator(Slope(4, 7))) == (2, 2, 2, 1, 2, 2, 2, 1)
    assert s_sequence_of_word("ab") == (2,)
    assert s_sequence_of_word("") == ()
    with pytest.raises(ValueError):
        s_sequence_of_word("abBa")


def test_s_sequence_of_relator_matches_slope():
    assert s_sequence_of_word(relator(Slope(10, 37))) == s_sequence(Slope(10, 37))


def test_s_sequence_examples():
    assert s_sequence(Slope(10, 37)) == (
        4, 4, 4, 3, 4, 4, 3, 4, 4, 3, 4, 4, 4, 3, 4, 4, 3, 4, 4, 3)
    assert s_sequence(Slope(8, 35)) == (
        5, 4, 5, 4, 4, 5, 4, 4, 5, 4, 5, 4, 4, 5, 4, 4)
    assert s_sequence(Slope(10, 7)) == (
        1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0)
    assert s_sequence(ONE) == (1, 1)
    with pytest.raises(ValueError):
        s_sequence(Slope(0, 1))


def test_s_sequence_formulas_agree():
    small = [Slope(q, p) for p in range(1, 80) for q in range(1, 3 * p)
             if math.gcd(q, p) == 1]
    large = [Slope(30001, 100000), Slope(3001, 10007), Slope(99999, 100000),
             Slope(10007, 3001)]
    for r in small + large:
        assert (s_sequence(r)
                == s_sequence_by_ceiling_count(r)
                == s_sequence_by_strip_count(r)), r


def test_t_sequence_examples():
    assert t_sequence(Slope(10, 37)) == (3, 2, 2, 3, 2, 2)
    assert t_sequence(Slope(8, 35)) == (1, 2, 2, 1, 2, 2)
    with pytest.raises(ValueError):
        t_sequence(Slope(1, 3))  # single-term expansion


def test_t_sequence_recursion():
    small = [Slope(q, p) for p in range(2, 80) for q in range(1, p)
             if math.gcd(q, p) == 1 and len(cf_expand(Slope(q, p))) > 1]
    large = [Slope(30001, 100000), Slope(49999, 100000), Slope(3001, 10007)]
    for r in small + large:
        assert t_sequence(r) == t_sequence_by_runs(r), r


def test_decompose_examples():
    d = decompose(Slope(10, 37))
    assert (d.s1, d.s2) == ((4, 4, 4), (3, 4, 4, 3, 4, 4, 3))
    d = decompose(Slope(8, 35))
    assert (d.s1, d.s2) == ((5, 4, 5), (4, 4, 5, 4, 4))
    d = decompose(Slope(1, 3))
    assert (d.s1, d.s2) == ((), (3,))
    with pytest.raises(ValueError):
        decompose(ONE)
    with pytest.raises(ValueError):
        decompose(Slope(3, 2))


def test_decompose_occurrence_counts():
    for p in range(2, 60):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                r = Slope(q, p)
                d = decompose(r)
                cs = cyclic_s_sequence(r).terms
                if d.s1:
                    assert count_cyclic_factor(cs, d.s1) == 2
                assert count_cyclic_factor(cs, d.s2) == 2


def split_passes_post_conditions(s, m, single_term, k):
    # decompose's post-conditions, for the split of S(r)[:q] after k terms.
    q = len(s) // 2
    s1, s2 = s[:k], s[k:q]
    if s1 + s2 + s1 + s2 != s or s1 != s1[::-1] or s2 != s2[::-1]:
        return False
    if single_term != (not s1) or (s1 and not s1[0] == s1[-1] == m + 1):
        return False
    if not s2[0] == s2[-1] == m:
        return False
    return all(count_cyclic_factor(s, part) == 2 for part in (s1, s2) if part)


def test_decompose_is_the_only_split_passing_its_post_conditions():
    for p in range(2, 101):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            r = Slope(q, p)
            terms = cf_expand(r)
            s = s_sequence(r)
            splits = [k for k in range(q)
                      if split_passes_post_conditions(s, terms[0], len(terms) == 1, k)]
            assert splits == [len(decompose(r).s1)], r


def test_contains_cyclic_factor_examples():
    d = decompose(Slope(10, 37))
    cs = cyclic_s_sequence(Slope(10, 37)).terms
    assert count_cyclic_factor(cs, d.s1 + d.s2) == 2
    assert count_cyclic_factor(s_sequence(Slope(2, 7)), (3, 3)) == 0
    assert count_cyclic_factor((1, 2, 3), (3, 1)) == 1
    # Terms beyond any character code; a needle term absent from the
    # haystack means no occurrence.
    assert count_cyclic_factor((2000000, 2000000), (2000000,)) == 2
    assert count_cyclic_factor((2000000, 2000001), (2000001, 2000000)) == 1
    assert count_cyclic_factor((4, 4, 3), (5,)) == 0
    assert count_cyclic_factor((4, 4, 3), (4, 5)) == 0
    # A needle longer than the haystack occurs nowhere; an empty one is
    # refused.
    assert count_cyclic_factor((1, 2), (1, 2, 1)) == 0
    with pytest.raises(ValueError):
        count_cyclic_factor((1, 2), ())


def test_cyclic_sequence_semantics():
    assert CyclicSequence((4, 3, 4, 3)) == CyclicSequence((3, 4, 3, 4))
    assert CyclicSequence((1, 2, 3)) != CyclicSequence((3, 2, 1))
    assert CyclicSequence((1, 2, 1, 2)) == CyclicSequence((2, 1, 2, 1))
    assert str(CyclicSequence((4, 4, 3))) == "((3,4,4))"
    assert format_sequence((4, 4, 3)) == "(4,4,3)"


def test_half_period_and_palindrome():
    for p in range(2, 60):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                r = Slope(q, p)
                s = s_sequence(r)
                assert len(s) == 2 * q
                assert s[:q] == s[q:]
                assert cyclic_s_sequence(r) == CyclicSequence(s[::-1])


def test_shift_and_exchange_identities():
    for p in range(2, 60):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            terms = cf_expand(Slope(q, p))
            if len(terms) < 2:
                continue
            m = terms[0]
            c = p - m * q
            s = s_sequence(Slope(q, p))
            s_qc = s_sequence(Slope(q, c))
            assert s == tuple(x + m for x in s_qc)
            assert s_qc[0] == 1 and s_qc[-1] == 0
            s_rev = s_sequence(Slope(q, q - c))
            n = 2 * q
            assert all(s_rev[i] + s_qc[(q - i - 1) % n] == 1 for i in range(n))
            if terms[1] == 1:
                assert t_sequence(Slope(q, c)) == s_sequence(Slope(q - c, c))


def test_block_lengths_match_endpoint_denominators():
    # The two halves of the splitting measure the fundamental-domain
    # endpoints: sum(S1) = p2 + 1 and sum(S2) = p1 - 1 where r1 = q1/p1
    # and r2 = q2/p2 (multi-term expansions; S1 is empty otherwise).
    from twobridge.slopes import fundamental_endpoints
    for p in range(2, 80):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            r = Slope(q, p)
            if len(cf_expand(r)) < 2:
                continue
            d = decompose(r)
            r1, r2 = fundamental_endpoints(r)
            assert sum(d.s1) == r2.den + 1
            assert sum(d.s2) == r1.den - 1


@given(st.lists(st.integers(0, 30), min_size=1, max_size=20),
       st.integers(0, 19))
def test_cyclic_sequence_rotation_invariant(terms, k):
    terms = tuple(terms)
    k %= len(terms)
    assert CyclicSequence(terms) == CyclicSequence(terms[k:] + terms[:k])


@st.composite
def coprime_pairs(draw):
    """(q, p) coprime with 0 < q <= p <= 10^5: q = 1, q = p - 1, q near p/2
    or anywhere."""
    p = draw(st.integers(1, 10 ** 5))
    q = draw(st.sampled_from([1, max(1, p - 1), max(1, p // 2), None]))
    if q is None:
        q = draw(st.integers(1, p))
    while math.gcd(q, p) != 1:
        q -= 1
    return q, p


@settings(derandomize=True, max_examples=50, deadline=None)
@given(coprime_pairs(), st.booleans())
def test_structure_kernels_match_oracles_at_scale(pair, above_one):
    # The run-by-run relator, the half-period S(r) and the Christoffel
    # closed form of CS(r) against the per-letter and per-term oracles and
    # the generic least-rotation search; r = p/q > 1 for the sequences.
    # About 1 s on a 2-core machine.
    q, p = pair
    r = Slope(q, p)
    u = relator(r)
    assert u == relator_by_floor(r) == relator_by_line_walk(r), r
    assert half_relator(r) == u[1:p], r
    if above_one:
        r = Slope(p, q)
    s = s_sequence(r)
    assert s == s_sequence_by_ceiling_count(r), r
    assert cyclic_s_sequence(r).terms == CyclicSequence(s).terms, r
