"""Run-length sequences of relator words and their slope-level formulas.

The S-sequence of a reduced word lists the lengths of its maximal blocks
of constant exponent sign.  For the relator of slope q/p it is given by a
floor-difference formula; the verification suites compare that formula
with two independent oracles (a ceiling count and a lattice strip count).

The splitting S(r) = (S1, S2, S1, S2) and the T-sequence are read off
the slope: S1 and S2 are the first half of S(r) cut after q2 terms, for
the right gap endpoint r2 = q2/p2, and T(r) is the S-sequence of a slope
derived from the continued fraction of r.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import floordiv, sub
from typing import Callable, Sequence

from .slopes import (
    ONE,
    ZERO,
    Slope,
    _positive_pair,
    cf_expand,
    cf_value,
    fundamental_endpoints,
)
from .words import _least_rotation_start, is_reduced

Seq = tuple[int, ...]

_RUNS = re.compile(r"[ab]+|[AB]+")


def s_sequence_of_word(v: str) -> Seq:
    """Sign run lengths of a reduced word.

    >>> s_sequence_of_word("abABabAbaBAbaB")
    (2, 2, 2, 1, 2, 2, 2, 1)
    """
    if not is_reduced(v):
        raise ValueError(f"word is not reduced: {v!r}")
    return tuple(map(len, _RUNS.findall(v)))


@dataclass(frozen=True)
class CyclicSequence:
    """An integer sequence up to rotation, stored as its least rotation."""

    terms: Seq

    def __post_init__(self):
        terms = tuple(self.terms)
        i = _least_rotation_start(terms)
        object.__setattr__(self, "terms", terms[i:] + terms[:i])

    def __str__(self) -> str:
        return "((" + ",".join(str(t) for t in self.terms) + "))"


def format_sequence(seq: Sequence[int]) -> str:
    return "(" + ",".join(str(t) for t in seq) + ")"


def _floor_steps(q: int, p: int, shift: int) -> Seq:
    """(⌊(jp − shift)/q⌋ − ⌊((j−1)p − shift)/q⌋ for j = 1..q)."""
    fs = list(map(floordiv, range(-shift, q * p - shift + 1, p), repeat(q)))
    return tuple(map(sub, islice(fs, 1, None), fs))


def s_sequence(r: Slope) -> Seq:
    """S-sequence of a positive rational slope q/p (length 2q): the j-th
    term is ⌊jp/q⌋* − ⌊(j−1)p/q⌋*, j = 1..2q, where ⌊x⌋* = ⌈x⌉ − 1.  The
    (j+q)-th term equals the j-th, so it is its first q terms twice.

    For 0 < r <= 1 this equals the S-sequence of the relator word of r;
    for r > 1 zero terms may appear.

    >>> s_sequence(Slope(10, 37))
    (4, 4, 4, 3, 4, 4, 3, 4, 4, 3, 4, 4, 4, 3, 4, 4, 3, 4, 4, 3)
    """
    q, p = _positive_pair(r)
    half = _floor_steps(q, p, 1)  # ⌊n/q⌋* = (n − 1)//q for integer n
    return half + half


def cyclic_s_sequence(r: Slope) -> CyclicSequence:
    """CS(r), the cyclic S-sequence, in closed form: its least rotation is
    C + C for the lower Christoffel word C_j = ⌊jp/q⌋ − ⌊(j−1)p/q⌋,
    j = 1..q, because a Christoffel word is the least of its rotations
    (Berstel, Lauve, Reutenauer, Saliola, "Combinatorics on Words:
    Christoffel Words and Repetitions in Words", 2008).

    >>> cyclic_s_sequence(Slope(10, 37)).terms[:10]
    (3, 4, 4, 3, 4, 4, 3, 4, 4, 4)
    """
    q, p = _positive_pair(r)
    c = _floor_steps(q, p, 0)
    cs = object.__new__(CyclicSequence)  # already least: skip the search
    object.__setattr__(cs, "terms", c + c)
    return cs


def t_sequence(r: Slope) -> Seq:
    """T-sequence of a slope r = [m,m2,m3,...] whose expansion has at least
    two terms: the S-sequence of [m3,...] when m2 = 1, and the reversed
    S-sequence of [m2-1,m3,...] when m2 >= 2.  It counts the runs of the
    majority term of S(r), as ``verification.t_sequence_by_runs`` does.

    >>> t_sequence(Slope(10, 37))
    (3, 2, 2, 3, 2, 2)
    """
    terms = cf_expand(r)
    if len(terms) < 2:
        raise ValueError(f"T-sequence needs an expansion of length >= 2, got {r}")
    if terms[1] == 1:
        return s_sequence(cf_value(terms[2:]))
    return s_sequence(cf_value((terms[1] - 1,) + terms[2:]))[::-1]


@dataclass(frozen=True)
class Decomposition:
    """The (S1, S2, S1, S2) splitting of an S-sequence.

    Both halves are palindromic; S1 starts and ends with m+1 (and is empty
    exactly when the expansion has a single term), S2 starts and ends
    with m, and each occurs exactly twice as a cyclic factor.
    """

    s1: Seq
    s2: Seq


# Bounded: a decomposition holds O(q) terms, and callers reuse it only
# while they work on one r (the suites and the piece catalogs).
@lru_cache(maxsize=128)
def decompose(r: Slope) -> Decomposition:
    """Split S(r) = (S1, S2, S1, S2) for 0 < r < 1.

    S1 is the first q2 terms of S(r), where r2 = q2/p2 is the right
    endpoint of the gap around r, and S2 is the rest of the first half;
    S1 is empty when r = 1/m.  The split is verified outright:
    reassembly, palindromicity, boundary terms, and the exactly-twice
    occurrence counts.  A failure here is a bug, not a property of the
    input.

    >>> decompose(Slope(10, 37))
    Decomposition(s1=(4, 4, 4), s2=(3, 4, 4, 3, 4, 4, 3))
    """
    if not (ZERO < r < ONE):
        raise ValueError(f"decomposition needs 0 < r < 1, got {r}")
    terms = cf_expand(r)
    s = s_sequence(r)
    k = fundamental_endpoints(r)[1].num if len(terms) > 1 else 0
    s1, s2 = s[:k], s[k:r.num]
    m = terms[0]
    if s1 + s2 + s1 + s2 != s:
        raise AssertionError(f"decomposition does not reassemble S({r})")
    if s1 != s1[::-1] or s2 != s2[::-1]:
        raise AssertionError(f"decomposition halves of {r} are not palindromic")
    if len(terms) == 1:
        if s1 != ():
            raise AssertionError(f"S1 must be empty for {r}")
    elif not (s1[0] == s1[-1] == m + 1):
        raise AssertionError(f"S1 must start and end with m+1 for {r}")
    if not (s2[0] == s2[-1] == m):
        raise AssertionError(f"S2 must start and end with m for {r}")
    count = _cyclic_factor_counter(s)
    for part in (s1, s2):
        if part and count(part) != 2:
            raise AssertionError(f"decomposition half occurs != 2 times for {r}")
    return Decomposition(s1, s2)


def _cyclic_factor_counter(haystack: Sequence[int]) -> Callable[[Seq], int]:
    """``count_cyclic_factor(haystack, needle)`` as a function of needle,
    with the haystack encoded once for every needle."""
    # Terms of any size coded as characters of their rank, so the search
    # runs on C string primitives.
    codes = {v: chr(i) for i, v in enumerate(sorted(set(haystack)))}
    n = len(haystack)
    hay = "".join(map(codes.__getitem__, haystack)) * 2  # matches may wrap

    def count(needle: Seq) -> int:
        if not needle:
            raise ValueError("needle must be non-empty")
        if len(needle) > n or not codes.keys() >= set(needle):
            return 0
        pat = "".join(map(codes.__getitem__, needle))
        end = n + len(pat) - 1  # a match starts at one of the first n places
        found = 0
        pos = hay.find(pat, 0, end)
        while pos != -1:
            found += 1
            pos = hay.find(pat, pos + 1, end)
        return found

    return count


def count_cyclic_factor(haystack: Sequence[int], needle: Seq) -> int:
    """Number of start positions in haystack, read cyclically, at which
    needle occurs (contiguous, wrapping around the end).  The haystack is
    a plain sequence: any one rotation of the cyclic sequence.

    >>> count_cyclic_factor((1, 2, 3), (3, 1))
    1
    """
    return _cyclic_factor_counter(haystack)(needle)
