"""Run-length sequences of relator words and their slope-level formulas.

The S-sequence of a reduced word lists the lengths of its maximal blocks
of constant exponent sign.  For the relator of slope q/p it is given by a
floor-difference formula; the verification suites compare that formula
with two independent oracles (a ceiling count and a lattice strip count).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .slopes import ONE, ZERO, Slope, _positive_pair, cf_expand
from .words import CyclicWord, _least_rotation_start, is_reduced

Seq = tuple[int, ...]

_RUNS = re.compile(r"[ab]+|[AB]+")


def floor_star(x) -> int:
    """Greatest integer strictly below x (so floor_star(2) == 1).

    Accepts int, Fraction or finite Slope.
    """
    n, d = x.numerator, x.denominator
    if d == 0:
        raise ValueError("floor_star needs a finite rational")
    return (n - 1) // d


def ceil_star(x) -> int:
    """Smallest integer strictly above x (so ceil_star(3) == 4)."""
    n, d = x.numerator, x.denominator
    if d == 0:
        raise ValueError("ceil_star needs a finite rational")
    return n // d + 1


def s_sequence_of_word(v: str) -> Seq:
    """Sign run lengths of a reduced word.

    >>> s_sequence_of_word("abABabAbaBAbaB")
    (2, 2, 2, 1, 2, 2, 2, 1)
    """
    if not is_reduced(v):
        raise ValueError(f"word is not reduced: {v!r}")
    return tuple(len(run) for run in _RUNS.findall(v))


def _rank_codes(terms: Sequence[int]) -> dict[int, str]:
    # Terms of any size coded as characters of their rank, so the factor
    # searches run on C string primitives.
    return {v: chr(i) for i, v in enumerate(sorted(set(terms)))}


def _encode(seq: Sequence[int], codes: dict[int, str]) -> str:
    return "".join(map(codes.__getitem__, seq))


def _coded_search(haystack: Sequence[int], needle: Seq) -> tuple[str, str] | None:
    """The coded haystack, wrapped by len(needle) - 1 terms, and the coded
    needle; None when a needle term is absent from the haystack."""
    codes = _rank_codes(haystack)
    if not codes.keys() >= set(needle):
        return None
    hay = _encode(haystack, codes)
    return hay + hay[:len(needle) - 1], _encode(needle, codes)


def _canonical_rotation(terms: Seq) -> Seq:
    i = _least_rotation_start(terms)
    return terms[i:] + terms[:i]


@dataclass(frozen=True)
class CyclicSequence:
    """An integer sequence up to rotation, stored as its least rotation."""

    terms: Seq

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_rotation(tuple(self.terms)))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def reversed(self) -> "CyclicSequence":
        return CyclicSequence(tuple(reversed(self.terms)))

    def is_palindromic(self) -> bool:
        return self == self.reversed()

    def __str__(self) -> str:
        return "((" + ",".join(str(t) for t in self.terms) + "))"


def format_sequence(seq: Sequence[int]) -> str:
    return "(" + ",".join(str(t) for t in seq) + ")"


def cyclic_s_sequence_of_word(v: CyclicWord) -> CyclicSequence:
    """Sign run lengths of a cyclic word, wrap-around runs merged."""
    w = v.letters
    if len(w) < 2:
        raise ValueError("cyclic S-sequence needs length >= 2")
    lens = [len(run) for run in _RUNS.findall(w)]
    if len(lens) >= 2 and w[0].islower() == w[-1].islower():
        lens = [lens[-1] + lens[0]] + lens[1:-1]
    return CyclicSequence(tuple(lens))


def s_sequence(r: Slope) -> Seq:
    """S-sequence of a positive rational slope q/p (length 2q): the j-th
    term is ⌊jp/q⌋* − ⌊(j−1)p/q⌋*, j = 1..2q.

    For 0 < r <= 1 this equals the S-sequence of the relator word of r;
    for r > 1 zero terms may appear.

    >>> s_sequence(Slope(10, 37))
    (4, 4, 4, 3, 4, 4, 3, 4, 4, 3, 4, 4, 4, 3, 4, 4, 3, 4, 4, 3)
    """
    q, p = _positive_pair(r)
    fs = [(j * p - 1) // q for j in range(2 * q + 1)]  # ⌊jp/q⌋* via (n-1)//q
    return tuple(fs[j] - fs[j - 1] for j in range(1, 2 * q + 1))


def cyclic_s_sequence(r: Slope) -> CyclicSequence:
    return CyclicSequence(s_sequence(r))


def t_sequence(r: Slope) -> Seq:
    """Run counts of the majority term of the S-sequence between its
    isolated minority terms.

    With r = [m,m2,...]: for m2 = 1 the terms m are isolated and the
    sequence counts the runs of m+1; for m2 >= 2 the terms m+1 are
    isolated and it counts the runs of m.  Undefined when the expansion
    has a single term.

    >>> t_sequence(Slope(10, 37))
    (3, 2, 2, 3, 2, 2)
    """
    terms = cf_expand(r).terms
    if len(terms) < 2:
        raise ValueError(f"T-sequence needs an expansion of length >= 2, got {r}")
    m, m2 = terms[0], terms[1]
    s = s_sequence(r)
    out: list[int] = []
    i, n = 0, len(s)
    if m2 == 1:
        # (t1<m+1>, m, t2<m+1>, m, ..., ts<m+1>, m)
        while i < n:
            j = i
            while j < n and s[j] == m + 1:
                j += 1
            if j == i or j >= n or s[j] != m:
                raise AssertionError(f"malformed S-sequence for {r}: {s}")
            out.append(j - i)
            i = j + 1
    else:
        # (m+1, t1<m>, m+1, t2<m>, ..., m+1, ts<m>)
        while i < n:
            if s[i] != m + 1:
                raise AssertionError(f"malformed S-sequence for {r}: {s}")
            i += 1
            j = i
            while j < n and s[j] == m:
                j += 1
            if j == i:
                raise AssertionError(f"malformed S-sequence for {r}: {s}")
            out.append(j - i)
            i = j
    return tuple(out)


def cyclic_t_sequence(r: Slope) -> CyclicSequence:
    return CyclicSequence(t_sequence(r))


@dataclass(frozen=True)
class Decomposition:
    """The (S1, S2, S1, S2) splitting of an S-sequence.

    Both halves are palindromic; S1 starts and ends with m+1 (and is empty
    exactly when the expansion has a single term), S2 starts and ends
    with m, and each occurs exactly twice as a cyclic factor.
    """

    s1: Seq
    s2: Seq


def _interleave(counts: Seq, run: int, sep: int) -> Seq:
    # (c1<run>, sep, c2<run>, sep, ..., sep, cLast<run>)
    out: list[int] = []
    for idx, c in enumerate(counts):
        if idx:
            out.append(sep)
        out.extend([run] * c)
    return tuple(out)


def _decompose_terms(terms: Seq) -> tuple[Seq, Seq]:
    k = len(terms)
    m = terms[0]
    if k == 1:
        return (), (m,)
    m2 = terms[1]
    if m2 == 1 and k == 3:
        return (m + 1,) * terms[2], (m,)
    if m2 >= 2 and k == 2:
        return (m + 1,), (m,) * (m2 - 1)
    if m2 == 1:  # k >= 4
        t1, t2 = _decompose_terms(terms[2:])
        s1 = _interleave(t1, m + 1, m)
        s2_parts: list[int] = [m]
        for c in t2:
            s2_parts.extend([m + 1] * c)
            s2_parts.append(m)
        return s1, tuple(s2_parts)
    # m2 >= 2 and k >= 3
    t1, t2 = _decompose_terms((m2 - 1,) + terms[2:])
    s1_parts: list[int] = [m + 1]
    for c in t2:
        s1_parts.extend([m] * c)
        s1_parts.append(m + 1)
    s2 = _interleave(t1, m, m + 1)
    return tuple(s1_parts), s2


# Bounded: a decomposition holds O(q) terms, and callers reuse it only
# while they work on one r (the suites and the piece catalogs).
@lru_cache(maxsize=128)
def decompose(r: Slope) -> Decomposition:
    """Split S(r) = (S1, S2, S1, S2) for 0 < r < 1.

    Built by the recursion on the continued fraction expansion, then
    verified outright: palindromicity, boundary terms, reassembly, and
    the exactly-twice occurrence counts.  A failure here is a bug, not a
    property of the input.

    >>> decompose(Slope(10, 37))
    Decomposition(s1=(4, 4, 4), s2=(3, 4, 4, 3, 4, 4, 3))
    """
    if not (ZERO < r < ONE):
        raise ValueError(f"decomposition needs 0 < r < 1, got {r}")
    terms = cf_expand(r).terms
    s1, s2 = _decompose_terms(terms)
    s = s_sequence(r)
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
    for part in (s1, s2):
        if part and count_cyclic_factor(s, part) != 2:
            raise AssertionError(f"decomposition half occurs != 2 times for {r}")
    return Decomposition(s1, s2)


def contains_cyclic_factor(haystack: Sequence[int], needle: Seq) -> bool:
    """Whether some rotation of the cyclic sequence starts with needle
    (contiguous, wrap-around allowed).  The haystack is any one rotation:
    a CyclicSequence or a plain sequence.

    >>> contains_cyclic_factor((1, 2, 3), (3, 1))
    True
    """
    if not needle:
        raise ValueError("needle must be non-empty")
    if len(needle) > len(haystack):
        raise ValueError("needle longer than haystack")
    coded = _coded_search(haystack, needle)
    return coded is not None and coded[1] in coded[0]


def count_cyclic_factor(haystack: Sequence[int], needle: Seq) -> int:
    """Number of rotations of the cyclic sequence that start with needle;
    the haystack is any one rotation, as for contains_cyclic_factor."""
    if not needle:
        raise ValueError("needle must be non-empty")
    if len(needle) > len(haystack):
        return 0
    coded = _coded_search(haystack, needle)
    if coded is None:
        return 0
    dd, pat = coded
    count = 0
    pos = dd.find(pat)
    while pos != -1:
        count += 1
        pos = dd.find(pat, pos + 1)
    return count
