import math
import random

import pytest
from hypothesis import given, strategies as st

from twobridge.slopes import INFINITY, ONE, ZERO, Slope
from twobridge.words import (
    apply_automorphism,
    canonical_rotation,
    cyclic_equal,
    format_word,
    half_relator,
    inverse_word,
    is_alternating,
    is_cyclically_alternating,
    relator,
)
from twobridge.words import _least_rotation_start
from twobridge.seqs import cyclic_s_sequence, s_sequence, s_sequence_of_word
from twobridge.verification import relator_by_floor, relator_by_line_walk

words = st.text(alphabet="aAbB", max_size=40)


def test_half_relator_examples():
    assert half_relator(Slope(4, 7)) == "bABabA"
    assert half_relator(ONE) == ""
    with pytest.raises(ValueError):
        half_relator(Slope(3, 2))
    with pytest.raises(ValueError):
        half_relator(ZERO)


def test_half_relator_runs_palindromic():
    runs = s_sequence_of_word(half_relator(Slope(5, 17)))
    assert runs == runs[::-1]


def test_relator_examples():
    assert relator(Slope(4, 7)) == "abABabAbaBAbaB"
    assert relator(ZERO) == "ab"
    assert relator(INFINITY) == ""
    assert relator(ONE) == "aB"
    with pytest.raises(ValueError):
        relator(Slope(3, 2))
    with pytest.raises(ValueError):
        relator(Slope(-1, 3))


def test_relator_generators_agree():
    small = [Slope(q, p) for p in range(1, 61) for q in range(1, p + 1)
             if math.gcd(q, p) == 1]
    for r in small + [Slope(3001, 10007)]:
        u = relator(r)
        assert u == relator_by_floor(r), r
        assert u == relator_by_line_walk(r), r
        assert len(u) == 2 * r.den
        assert is_cyclically_alternating(u)


def test_relator_never_cyclically_equal_to_inverse():
    for p in range(2, 40):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                u = relator(Slope(q, p))
                assert not cyclic_equal(u, inverse_word(u))
                assert cyclic_equal(u, inverse_word(u), allow_inverse=True)


def test_canonical_rotation_examples():
    assert canonical_rotation("ba") == canonical_rotation("ab") == "ab"
    assert canonical_rotation("BA") == "AB"  # a < A < b < B
    assert canonical_rotation("bA") == "Ab"
    assert canonical_rotation("") == ""


def test_cyclic_equal():
    assert cyclic_equal("ab", "ba")
    assert not cyclic_equal("ab", "aB")
    assert cyclic_equal("", "")
    assert cyclic_equal("ab", "BA", allow_inverse=True)


def test_apply_automorphism_examples():
    assert apply_automorphism("ab", "a", "b") == "ab"
    assert apply_automorphism(relator(ZERO), "a", "B") == relator(ONE)
    u = relator(Slope(4, 7))
    swapped = apply_automorphism(u, "b", "a")
    assert cyclic_equal(u, swapped, allow_inverse=True)
    with pytest.raises(ValueError):
        apply_automorphism("ab", "a", "A")
    with pytest.raises(ValueError):
        apply_automorphism("ab", "ab", "b")


def test_automorphism_shift_small():
    for p in range(1, 25):
        for q in range(1, p + 1):
            if math.gcd(q, p) == 1:
                s = Slope(q, p)
                shifted = apply_automorphism(relator(s), "a", "B")
                assert cyclic_equal(shifted, relator_by_line_walk(s + 1),
                                    allow_inverse=True)


def test_word_text_format():
    assert format_word("") == "1"
    assert format_word("abA") == "abA"


@given(words)
def test_inverse_word_involution(w):
    assert inverse_word(inverse_word(w)) == w


@given(words, st.integers(0, 39))
def test_canonical_rotation_is_rotation_invariant(w, k):
    if w:
        rotated = w[k % len(w):] + w[:k % len(w)]
        assert canonical_rotation(rotated) == canonical_rotation(w)


@given(words)
def test_alternation_is_rotation_safe(w):
    if is_cyclically_alternating(w) and len(w) >= 2:
        assert all(is_alternating(rot)
                   for rot in (w[i:] + w[:i] for i in range(len(w))))


def least_rotation_start_by_slices(t) -> int:
    """Quadratic reference: the first index of the least of all rotations."""
    n = len(t)
    return min(range(n), key=lambda i: (t[i:] + t[:i], i)) if n else 0


def test_least_rotation_start_matches_quadratic_reference():
    rng = random.Random(20261018)
    cases = [(), (5,), (2, 2), "abab", "baba", "aAbB"]
    for _ in range(3000):
        n = rng.randint(1, 24)
        alphabet = rng.randint(1, 4)
        if rng.random() < 0.4:
            period = [rng.randrange(alphabet) for _ in range(rng.randint(1, 6))]
            cases.append(tuple(period * (n // len(period) + 1)))
        else:
            cases.append(tuple(rng.randrange(alphabet) for _ in range(n)))
    slopes = [Slope(q, p) for p in (7, 100, 1013, 10000)
              for q in (1, 3, p // 3 + 1, p - 1) if math.gcd(q, p) == 1]
    cases += [s_sequence(r) for r in slopes if r.den < 10000]
    for t in cases:
        assert _least_rotation_start(t) == least_rotation_start_by_slices(t), t
    # S(r) is its primitive first half twice, so its least rotation starts
    # at two places, the first inside that half.  At p = 10000 (up to 19,998
    # terms) the linear Christoffel closed form of that rotation stands in
    # for the quadratic reference; the two agree at p = 1013.
    t = s_sequence(Slope(338, 1013))
    i = least_rotation_start_by_slices(t)
    assert t[i:] + t[:i] == cyclic_s_sequence(Slope(338, 1013)).terms
    for r in slopes:
        if r.den == 10000:
            t = s_sequence(r)
            i = _least_rotation_start(t)
            assert i < r.num and t[i:] + t[:i] == cyclic_s_sequence(r).terms, r
