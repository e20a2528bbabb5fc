"""Exhaustive verification suites shared by the test suite and the CLI.

Each check sweeps every slope inside an explicit denominator bound and
validates a family of exact identities; the defaults are the bounds used
by the acceptance tests.  Checks return a CheckResult rather than
raising, so the CLI can print one pass/fail line per suite.

The independent oracles live here and nowhere on the library's hot path:
the floor-formula and line-walk relator words, the ceiling and strip
counts of the S-sequence, the run count of the T-sequence, the mediant
and fundamental-interval tests, the continued-fraction criterion and the
(S1,S2)-factor search of the gap, exhaustive orbit closures, the
symmetrized set and the brute-force piece scan over it (longest piece
prefixes, the piece length table and the n-piece enumeration), the
initial-letter spread, and the calls to the cubic T(4) triple check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

from .decide import has_umpp_epimorphism, is_null_homotopic, scan
from .pieces import (
    Span,
    min_piece_factorization,
    piece_product_catalog,
    satisfies_necessary_condition,
    small_cancellation_report,
    t4_by_triples,
)
from .reflections import Reflection, Step, reduce_to_fundamental, reflection_in_edge
from .seqs import (
    CyclicSequence,
    Seq,
    count_cyclic_factor,
    decompose,
    s_sequence,
    s_sequence_of_word,
    t_sequence,
)
from .slopes import (
    INFINITY,
    ONE,
    ZERO,
    Slope,
    _positive_pair,
    cf_expand,
    cf_value,
    farey_interval,
    fundamental_endpoints,
    parity_vertex,
)
from .words import (
    apply_automorphism,
    canonical_rotation,
    cyclic_equal,
    half_relator,
    inverse_word,
    is_cyclically_alternating,
    relator,
)


#: Pruning factors of the orbit closures, which stop once
#: max(|numerator|, denominator) exceeds factor * max_den: oracle
#: completeness parameters, to be raised if the oracle ever disagrees with
#: the exact decision or the parity vertices.  A closure marks its visited
#: pairs in (2·cap+1)(cap+1) bytes, cap = factor * max_den, so raising a
#: factor costs memory quadratic in it, whatever the number of pairs
#: visited (ORBIT_EXPANSION at max_den 40: 13 MB).
ORBIT_EXPANSION = 64
TRIANGLE_EXPANSION = 4
#: Denominator bounds of the cubic T(4) triple check and of the exhaustive
#: piece subword-closure check in the small-cancellation suite; beyond
#: them the structural argument and the closed-form catalog stand alone.
T4_TRIPLE_BOUND = 12
CLOSURE_BOUND = 20
#: Failures a suite lists in its detail line; the count covers the rest.
FAILURE_LIMIT = 5


# --- Oracles: independent re-derivations that the suites compare against.

def relator_by_floor(r: Slope) -> str:
    """Relator word of a slope in (0,1] by the whole-word floor formula:
    letter i (0-based) is a/b as i is even/odd, negated when ⌊iq/p⌋ is
    odd."""
    q, p = _positive_pair(r)
    out = []
    for i in range(2 * p):
        gen = "b" if i & 1 else "a"
        out.append(gen.upper() if (i * q) // p & 1 else gen)
    return "".join(out)


def relator_by_line_walk(r: Slope) -> str:
    """Relator word read directly off the lattice line walk.

    Walks the segment of slope q/p from x = 0 to x = 2p, emitting a letter
    at each vertical lattice line and toggling the sign at each horizontal
    one.  Uses only comparisons and additions, making it an independent
    cross-check of the closed-form relator.  Accepts any positive
    rational slope.
    """
    q, p = _positive_pair(r)
    out = []
    crossed = 0  # horizontal lattice lines y = 1.. passed so far
    negative = False
    bound = 0  # (crossed + 1) * p, kept incrementally
    height = 0  # i * q
    for i in range(2 * p):
        while bound + p <= height:
            bound += p
            crossed += 1
            negative = not negative
        if i & 1:
            out.append("B" if negative else "b")
        else:
            out.append("A" if negative else "a")
        height += q
    return "".join(out)


def s_sequence_by_ceiling_count(r: Slope) -> Seq:
    """j-th term as the number of i in 0..2p−1 with ⌈iq/p⌉* = j."""
    q, p = _positive_pair(r)
    counts = [0] * (2 * q)
    for i in range(2 * p):
        counts[(i * q) // p] += 1  # ⌈iq/p⌉* − 1 == ⌊iq/p⌋
    return tuple(counts)


def s_sequence_by_strip_count(r: Slope) -> Seq:
    """j-th term as the number of steps of the lattice line walk inside the
    horizontal strip j−1 < y < j.  Uses only additions and comparisons."""
    q, p = _positive_pair(r)
    counts = [0] * (2 * q)
    strip = 0  # current strip index - 1
    bound = p  # (strip + 1) * p, kept incrementally
    height = 0  # i * q
    for _ in range(2 * p):
        while bound <= height:
            bound += p
            strip += 1
        counts[strip] += 1
        height += q
    return tuple(counts)


def t_sequence_by_runs(r: Slope) -> Seq:
    """T-sequence as the run lengths of the majority term of S(r), for
    r = [m,m2,...]: runs of m+1 when m2 = 1 and runs of m otherwise.  S(r)
    starts with m+1 and ends with m, so no run wraps around."""
    terms = cf_expand(r)
    if len(terms) < 2:
        raise ValueError(f"T-sequence needs an expansion of length >= 2, got {r}")
    majority = terms[0] + 1 if terms[1] == 1 else terms[0]
    return tuple(sum(1 for _ in run) for term, run in groupby(s_sequence(r))
                 if term == majority)


def mediant(a: Slope, b: Slope) -> Slope:
    return Slope(a.num + b.num, a.den + b.den)


def in_fundamental_intervals(s: Slope, r: Slope) -> bool:
    """Whether s lies in I1 ∪ I2 = [0, r1] ∪ [r2, 1] for the given r."""
    r1, r2 = fundamental_endpoints(r)
    return (ZERO <= s <= r1) or (r2 <= s <= ONE)  # ∞ exceeds every rational


def connection_criterion(s: Slope, r: Slope) -> bool:
    """Continued-fraction test for s = [l1..lt] against r = [m1..mk]:
    t >= k, the first k-1 terms agree, and lk >= mk or (lk = mk - 1 with
    t > k).  For s in (0,1] this holds exactly when r1 < s < r2."""
    ls = cf_expand(s)
    ms = cf_expand(r)
    k, t = len(ms), len(ls)
    if t < k or ls[:k - 1] != ms[:k - 1]:
        return False
    lk, mk = ls[k - 1], ms[k - 1]
    return lk >= mk or (lk == mk - 1 and t > k)


def factor_condition_by_search(s_terms: Seq, r: Slope) -> bool:
    """Whether CS(s), given by the rotation s_terms = S(s), contains (S1,S2)
    or (S2,S1) of r as a cyclic factor, by string search: the oracle for
    ``pieces.satisfies_necessary_condition``."""
    d = decompose(r)
    return (count_cyclic_factor(s_terms, d.s1 + d.s2) > 0
            or count_cyclic_factor(s_terms, d.s2 + d.s1) > 0)


def _closure(generators: Iterable[Reflection], seeds: Iterable[Slope],
             max_den: int, expansion: int) -> set[Slope]:
    """Closure of the seeds over (num, den) pairs, pruning beyond
    max(|num|, den) <= cap = expansion * max_den; returns the slopes of
    denominator <= max_den.

    Visited pairs are marked in one bytearray of (2·cap+1)(cap+1) bytes,
    indexed by (num + cap)(cap + 1) + den, with ∞ stored as (1, 0).  The
    memory cost thus depends on cap alone, not on how many pairs are
    visited, and a slope joins the result when it is first visited.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    cap = expansion * max_den
    width = cap + 1
    gens = [g.entries() for g in generators]
    seen = bytearray((2 * cap + 1) * width)
    stack: list[tuple[int, int]] = []
    found: set[Slope] = set()
    for s in seeds:
        x, y = s.num, s.den
        i = (x + cap) * width + y
        if max(abs(x), y) <= cap and not seen[i]:
            seen[i] = 1
            stack.append((x, y))
            if y <= max_den:
                found.add(s)
    while stack:
        x, y = stack.pop()
        for a, b, c, d in gens:
            nx = a * x + b * y
            ny = c * x + d * y
            if ny < 0:
                nx, ny = -nx, -ny
            elif ny == 0:
                nx = 1
            # Unimodular maps preserve coprimality, so no gcd reduction.
            if nx > cap or nx < -cap or ny > cap:
                continue
            i = (nx + cap) * width + ny
            if not seen[i]:
                seen[i] = 1
                stack.append((nx, ny))
                if ny <= max_den:
                    found.add(Slope(nx, ny))
    return found


def orbit_closure(r: Slope, seeds: Iterable[Slope], max_den: int) -> set[Slope]:
    """All slopes of denominator <= max_den reachable from the seeds under
    the four reflections in the edges (∞,0), (∞,1), (r,r1), (r,r2), with
    exploration pruned at ORBIT_EXPANSION * max_den."""
    r1, r2 = fundamental_endpoints(r)
    gens = [
        reflection_in_edge(INFINITY, ZERO),
        reflection_in_edge(INFINITY, ONE),
        reflection_in_edge(r, r1),
        reflection_in_edge(r, r2),
    ]
    return _closure(gens, seeds, max_den, ORBIT_EXPANSION)


def triangle_orbit_closure(seeds: Iterable[Slope], max_den: int) -> set[Slope]:
    """Orbit closure under the full edge-reflection group of the
    tessellation (generated by the reflections in the sides of the
    triangle 0, 1, ∞), pruned at TRIANGLE_EXPANSION * max_den.

    This is the oracle for the parity vertex of a slope.
    """
    gens = [
        reflection_in_edge(INFINITY, ZERO),
        reflection_in_edge(INFINITY, ONE),
        reflection_in_edge(ZERO, ONE),
    ]
    return _closure(gens, seeds, max_den, TRIANGLE_EXPANSION)


def symmetrize(r: Slope) -> tuple[str, ...]:
    """All rotations of the relator of a slope in (0,1) and of its inverse,
    sorted: the symmetrized set, whose 4p elements are pairwise distinct
    words of length 2p.  The brute-force piece scan runs over it; the
    report in ``pieces`` reads its piece lengths from the closed-form
    catalog instead."""
    if not (ZERO < r < ONE):
        raise ValueError(f"symmetrized set needs 0 < r < 1, got {r}")
    u = relator(r)
    n = len(u)
    elements: set[str] = set()
    for base in (u, inverse_word(u)):
        dd = base + base
        for i in range(n):
            elements.add(dd[i:i + n])
    if len(elements) != 2 * n:
        raise AssertionError(f"symmetrized set of {r} is degenerate")
    return tuple(sorted(elements))


def _lcp(a: str, b: str) -> int:
    n = min(len(a), len(b))
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def longest_piece_prefix(relators: tuple[str, ...], x: str) -> int:
    """Length of the longest prefix of x that is a piece (0 if none), for
    the sorted symmetrized set.

    Sorted-neighbor scan: the elements sharing a given prefix form a
    contiguous run, so only the nearest elements on each side of the
    insertion point matter.
    """
    pos = bisect_left(relators, x)
    # A piece prefix needs two distinct elements sharing it (x itself is
    # one when x is in R): the second-largest common-prefix length, taken
    # over the two elements on each side of the insertion point.
    lcps = sorted(_lcp(x, e) for e in relators[max(pos - 2, 0):pos + 2])
    return lcps[-2] if len(lcps) > 1 else 0


def piece_length_table(w: str, relators: tuple[str, ...]) -> list[int]:
    """Longest piece starting at each letter of the cyclic word w, by brute
    force: the oracle for the lengths of the closed-form 1-piece catalog."""
    dd = w + w
    n = len(w)
    return [longest_piece_prefix(relators, dd[i:i + n]) for i in range(n)]


def is_piece(w: str, relators: tuple[str, ...]) -> bool:
    """Exhaustive prefix scan: w is a piece iff at least two distinct
    elements of the symmetrized set start with it."""
    if not w:
        raise ValueError("pieces are nonempty")
    hits = 0
    for element in relators:
        if element.startswith(w):
            hits += 1
            if hits == 2:
                return True
    return False


def maximal_piece_products(table: list[int], n_pieces: int) -> list[Span]:
    """All maximal n-piece subwords of a cyclic word, by enumeration over
    its piece length table: the oracle for the closed-form catalog.  One
    span per start, the longest product of n pieces beginning there,
    capped at one full turn of the cyclic word."""
    if n_pieces < 1:
        raise ValueError("n_pieces must be >= 1")
    n = len(table)
    best = table[:]
    for _ in range(n_pieces - 1):
        best = [
            min(n, table[i] + best[(i + table[i]) % n]) if table[i] else 0
            for i in range(n)
        ]
    return list(enumerate(best))


def initial_letter_spread(u: str, relators: tuple[str, ...]) -> bool:
    """Whether, for every rotation w of the relator u, the words in its
    symmetrized set sharing the S-sequence of w start with all four
    letters."""
    runs = {w: s_sequence_of_word(w) for w in relators}
    initials: dict[Seq, set[str]] = {}
    for w, seq in runs.items():
        initials.setdefault(seq, set()).add(w[0])
    dd = u + u
    n = len(u)
    return all(initials[runs[dd[i:i + n]]] == {"a", "A", "b", "B"}
               for i in range(n))


# --- Suites.


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Failures:
    """Collects the first few failures and a count of items checked."""

    def __init__(self):
        self.items = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.items += 1
        if not ok and len(self.failures) < FAILURE_LIMIT:
            self.failures.append(message)
        return ok

    def result(self, name: str) -> CheckResult:
        if self.failures:
            return CheckResult(name, False,
                               f"{self.items} checks; first failures: "
                               + "; ".join(self.failures))
        return CheckResult(name, True, f"{self.items} checks")


def _proper_fractions(max_den: int) -> Iterable[Slope]:
    """All q/p with 0 < q/p < 1 and p <= max_den."""
    for p in range(2, max_den + 1):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                yield Slope(q, p)


def check_worked_examples() -> CheckResult:
    """Fixed-value checks for the documented worked examples."""
    f = _Failures()
    f.expect(cf_expand(Slope(5, 17)) == (3, 2, 2), "cf(5/17)")
    f.expect(cf_expand(Slope(10, 37)) == (3, 1, 2, 3), "cf(10/37)")
    f.expect(cf_expand(Slope(8, 35)) == (4, 2, 1, 2), "cf(8/35)")
    f.expect(half_relator(Slope(4, 7)) == "bABabA", "half relator 4/7")
    f.expect(relator(Slope(4, 7)) == "abABabAbaBAbaB", "relator 4/7")
    f.expect(
        s_sequence(Slope(10, 37))
        == (4, 4, 4, 3, 4, 4, 3, 4, 4, 3, 4, 4, 4, 3, 4, 4, 3, 4, 4, 3),
        "S(10/37)")
    f.expect(
        s_sequence_of_word(half_relator(Slope(10, 37)))
        == (3, 4, 4, 3, 4, 4, 3, 4, 4, 3), "S of half relator 10/37")
    f.expect(t_sequence(Slope(10, 37)) == (3, 2, 2, 3, 2, 2), "T(10/37)")
    d = decompose(Slope(10, 37))
    f.expect(d.s1 == (4, 4, 4) and d.s2 == (3, 4, 4, 3, 4, 4, 3), "split 10/37")
    f.expect(
        s_sequence(Slope(8, 35))
        == (5, 4, 5, 4, 4, 5, 4, 4, 5, 4, 5, 4, 4, 5, 4, 4), "S(8/35)")
    f.expect(
        s_sequence_of_word(half_relator(Slope(8, 35)))
        == (4, 4, 5, 4, 4, 5, 4, 4), "S of half relator 8/35")
    f.expect(t_sequence(Slope(8, 35)) == (1, 2, 2, 1, 2, 2), "T(8/35)")
    d = decompose(Slope(8, 35))
    f.expect(d.s1 == (5, 4, 5) and d.s2 == (4, 4, 5, 4, 4), "split 8/35")
    f.expect(relator(ZERO) == "ab", "relator of 0")
    f.expect(relator(INFINITY) == "", "relator of ∞")
    f.expect(relator(ONE) == "aB", "relator of 1")
    return f.result("worked-examples")


def check_word_generators(max_p: int = 300) -> CheckResult:
    """The relator word and the S-sequence formula agree with their two
    oracles each; relators are alternating, cyclically reduced, never
    cyclically equal to their own inverse, and S(relator) = S(slope) on
    (0,1]."""
    f = _Failures()
    for r in farey_interval(max_p)[1:]:
        u = relator(r)
        u_floor = relator_by_floor(r)
        u_walk = relator_by_line_walk(r)
        if not f.expect(u == u_floor == u_walk, f"relator generators at {r}"):
            continue
        ok = (len(u) == 2 * r.den and is_cyclically_alternating(u)
              and not cyclic_equal(u, inverse_word(u)))
        f.expect(ok, f"relator structure at {r}")
        s_floor = s_sequence(r)
        s_count = s_sequence_by_ceiling_count(r)
        s_strip = s_sequence_by_strip_count(r)
        f.expect(s_floor == s_count == s_strip, f"S-sequence formulas at {r}")
        f.expect(s_sequence_of_word(u) == s_floor, f"S(word) vs S(slope) at {r}")
        q = r.num
        f.expect(len(s_floor) == 2 * q and s_floor[:q] == s_floor[q:],
                 f"length and half-period at {r}")
        hat = half_relator(r)
        if hat:
            runs = s_sequence_of_word(hat)
            f.expect(runs == runs[::-1], f"half-relator palindrome at {r}")
    return f.result("word-generators-agree")


def _check_sequence_theorems_for(f: _Failures, r: Slope) -> None:
    q, p = r.num, r.den
    terms = cf_expand(r)
    k = len(terms)
    m = terms[0]
    s = s_sequence(r)
    # Length and half-period.
    f.expect(len(s) == 2 * q, f"length 2q at {r}")
    f.expect(all(s[j] == s[(j + q) % (2 * q)] for j in range(2 * q)),
             f"half-period at {r}")
    f.expect(CyclicSequence(s) == CyclicSequence(s[::-1]), f"cyclic palindrome at {r}")
    if k == 1:
        f.expect(s == (m, m), f"single-term S at {r}")
    else:
        m2 = terms[1]
        structure = (set(s) <= {m, m + 1} and s[0] == m + 1 and s[-1] == m)
        f.expect(structure, f"m/m+1 structure at {r}")
        pairs = set(zip(s, s[1:] + s[:1]))
        forbidden = (m, m) if m2 == 1 else (m + 1, m + 1)
        f.expect(forbidden not in pairs, f"forbidden pair at {r}")
        # T-recursion, against the run count of S(r).
        r_next = cf_value(terms[2:] if m2 == 1 else (m2 - 1,) + terms[2:])
        t = t_sequence(r)
        f.expect(t == t_sequence_by_runs(r), f"T-recursion at {r}")
        f.expect(CyclicSequence(t) == CyclicSequence(s_sequence(r_next)),
                 f"cyclic T = cyclic S at {r}")
    # Splitting into (S1, S2, S1, S2): decompose() hard-verifies shape
    # and palindromes internally; re-check the occurrence counts here.
    if r < ONE:
        d = decompose(r)
        if d.s1:
            f.expect(count_cyclic_factor(s, d.s1) == 2, f"S1 twice at {r}")
        f.expect(count_cyclic_factor(s, d.s2) == 2, f"S2 twice at {r}")
        r1, r2 = fundamental_endpoints(r)
        f.expect(mediant(r1, r2) == r and r1 < r < r2, f"mediant at {r}")
    if k >= 2:
        c = p - m * q
        q_over_c = Slope(q, c)
        s_qc = s_sequence(q_over_c)
        # Shift: S(q/p) = S(q/c) + (m,...,m).
        f.expect(s == tuple(x + m for x in s_qc), f"shift identity at {r}")
        # 0/1 structure of S(q/c).
        ok = (set(s_qc) <= {0, 1} and s_qc[0] == 1 and s_qc[-1] == 0)
        f.expect(ok, f"0/1 structure at {r}")
        m2 = terms[1]
        pairs = set(zip(s_qc, s_qc[1:] + s_qc[:1]))
        forbidden = (0, 0) if m2 == 1 else (1, 1)
        f.expect(forbidden not in pairs, f"0/1 forbidden pair at {r}")
        if m2 == 1:
            # T(q/c) = S((q-c)/c), realized by interleaving runs of 1.
            f.expect(t_sequence(q_over_c) == s_sequence(Slope(q - c, c)),
                     f"interleave identity at {r}")
        # Reading backwards with 0 and 1 exchanged.
        s_rev = s_sequence(Slope(q, q - c))
        n = 2 * q
        f.expect(all(s_rev[i] + s_qc[(q - i - 1) % n] == 1 for i in range(n)),
                 f"0-1 exchange at {r}")
    f.expect(sum(s) == 2 * p, f"term sum 2p at {r}")


def check_sequence_theorems(max_p: int = 200) -> CheckResult:
    """Exhaustive sequence identities for all slopes q/p with p <= max_p."""
    f = _Failures()
    for r in farey_interval(max_p)[1:]:
        _check_sequence_theorems_for(f, r)
    return f.result("sequence-theorems")


def check_small_cancellation(max_p: int = 50) -> CheckResult:
    """C(4)/T(4), piece catalogs, initial-letter spread, and the
    subword-closure property of pieces, for all relators with p <= max_p.

    Per r, one symmetrized set and one brute-force piece length table of
    the canonical cyclic word serve every check."""
    f = _Failures()
    for r in _proper_fractions(max_p):
        p = r.den
        relators = symmetrize(r)
        f.expect(len(relators) == 4 * p, f"symmetrized size at {r}")
        report = small_cancellation_report(r)
        f.expect(report.c4, f"C(4) at {r}")
        f.expect(report.t4 and (p > T4_TRIPLE_BOUND or t4_by_triples(relators)),
                 f"T(4) at {r}")
        u = relator(r)
        w = canonical_rotation(u)
        table = piece_length_table(w, relators)
        f.expect(report.min_cyclic_pieces >= 4 and report.min_cyclic_pieces
                 == min_piece_factorization(table)
                 == min_piece_factorization(
                     piece_length_table(canonical_rotation(inverse_word(u)), relators)),
                 f"min pieces at {r}")
        f.expect(initial_letter_spread(u, relators), f"initial letters at {r}")
        families = piece_product_catalog(r)
        for n in (1, 2, 3):
            brute = maximal_piece_products(table, n)
            f.expect(brute == list(report.maximal_piece_catalog[n]),
                     f"catalog n={n} at {r}")
            f.expect(all(length < 2 * p for _, length in brute),
                     f"no full-word {n}-piece product at {r}")
            expected = 4 if len(cf_expand(r)) == 1 else 8
            f.expect(len(families[n]) == expected, f"family count n={n} at {r}")
        if p <= CLOSURE_BOUND:
            # Subword closure: every subword of a maximal piece is a piece,
            # cross-validated against the exhaustive prefix scan.
            dd = w * 2
            ok = True
            for i, length in enumerate(table):
                if length and not is_piece(dd[i:i + length], relators):
                    ok = False
                if length < 2 * p and is_piece(dd[i:i + length + 1], relators):
                    ok = False
                for d in range(1, length):
                    if table[(i + d) % (2 * p)] < length - d:
                        ok = False
            f.expect(ok, f"piece subword closure at {r}")
    return f.result("small-cancellation")


def _replays(s: Slope, r: Slope, steps: Iterable[Step], result: Slope) -> bool:
    """Whether the steps carry s to result, replayed with plain integer
    products (unimodular, so cross-multiplying compares slopes exactly),
    every step fixing ∞ or r as the generators of Γ̂_r do."""
    x, y = s.num, s.den
    for refl, image in steps:
        a, b, c, d = refl.entries()
        x, y = a * x + b * y, c * x + d * y
        if c and (a * r.num + b * r.den) * r.den != (c * r.num + d * r.den) * r.num:
            return False
        if image.num * y != image.den * x:
            return False
    return result.num * y == result.den * x


def check_decision_oracle(max_r_den: int = 20, max_s_den: int = 40) -> CheckResult:
    """The exact decision agrees with the exhaustive orbit closure; the
    fundamental representative is idempotent and certified by its trace;
    scans match the closure; folding by 2 or negating changes nothing."""
    f = _Failures()
    test_slopes = farey_interval(max_s_den) + [INFINITY]
    for r in _proper_fractions(max_r_den):
        orbit = orbit_closure(r, {r, INFINITY}, max_s_den)
        for s in test_slopes:
            verdict = is_null_homotopic(s, r)
            f.expect(verdict.answer == (s in orbit), f"oracle at s={s} r={r}")
            rep = verdict.canonical_representative
            ok = (rep.is_infinite or rep == r or in_fundamental_intervals(rep, r))
            f.expect(ok, f"representative range at s={s} r={r}")
            f.expect(reduce_to_fundamental(rep, r).result == rep,
                     f"idempotence at s={s} r={r}")
            f.expect(verdict.trace.result == rep and _replays(s, r, verdict.trace.steps, rep),
                     f"trace certificate s={s} r={r}")
        expected_scan = sorted(s for s in orbit if s.is_infinite or ZERO <= s <= ONE)
        f.expect(scan(r, max_s_den) == expected_scan, f"scan vs closure at {r}")
        f.expect(has_umpp_epimorphism(r, r), f"epimorphism reflexivity at {r}")
    # Translation and negation invariance on a thinner sweep.
    for r in _proper_fractions(min(max_r_den, 10)):
        for s in farey_interval(min(max_s_den, 12)) + [INFINITY]:
            base = is_null_homotopic(s, r).answer
            f.expect(is_null_homotopic(s + 2, r).answer == base,
                     f"translation invariance s={s} r={r}")
            f.expect(is_null_homotopic(-s, r).answer == base,
                     f"negation invariance s={s} r={r}")
            f.expect(has_umpp_epimorphism(s, r)
                     == has_umpp_epimorphism(s + 2, r),
                     f"epimorphism translation s={s} r={r}")
    return f.result("decision-oracle")


def check_criterion_equivalences(max_r_den: int = 30, max_s_den: int = 60) -> CheckResult:
    """Equivalences among the three gap tests, for r with p <= max_r_den
    and s in (0,1] with denominator <= max_s_den.

    The continued-fraction criterion always matches membership in the
    open gap (r1, r2), and a null-homotopic s always lies in the gap.
    When r has a multi-term expansion, the (S1,S2)-factor condition is
    equivalent to both and is implied by null-homotopy.

    For a single-term r = 1/m the factor condition is strictly stronger
    than the gap test and null-homotopy does not imply it: the relator
    group of 1/2 is free abelian, so the loop of slope 1/4 bounds, yet
    ((4,4)) has no factor (2).  The exact characterization there is
    "inside the gap with leading partial quotient at most m", which is
    what this suite checks.  The factor condition is the search over CS(s),
    with S(s) built once per s; the library's slope formula must equal it.
    """
    f = _Failures()
    s_pool = [(s, cf_expand(s)[0], s_sequence(s)) for s in farey_interval(max_s_den)[1:]]
    for r in _proper_fractions(max_r_den):
        r1, r2 = fundamental_endpoints(r)
        terms = cf_expand(r)
        for s, s_lead, s_terms in s_pool:
            snc = factor_condition_by_search(s_terms, r)
            formula = satisfies_necessary_condition(s, r)
            conn = connection_criterion(s, r)
            gap = r1 < s < r2
            f.expect(conn == gap, f"criterion vs gap at s={s} r={r}")
            null = is_null_homotopic(s, r).answer
            if null:
                f.expect(gap, f"null-homotopic outside gap at s={s} r={r}")
            if len(terms) > 1:
                f.expect(formula == snc == conn, f"factor condition vs criterion at s={s} r={r}")
                if null:
                    f.expect(snc, f"necessary-condition soundness at s={s} r={r}")
            else:
                f.expect(formula == snc == (gap and s_lead <= terms[0]),
                         f"single-term factor characterization at s={s} r={r}")
    return f.result("criterion-equivalences")


def check_special_slopes(max_s_den: int = 40) -> CheckResult:
    """Slope ∞ and the integer slopes: the ∞ orbit is the singleton {∞};
    the parity vertex of a slope picks its full-reflection-group orbit;
    the loop of slope 1 does not bound for the link of slope 0."""
    f = _Failures()
    test_slopes = farey_interval(max_s_den) + [INFINITY]
    f.expect(scan(INFINITY, 10) == [INFINITY], "scan at ∞")
    for s in test_slopes:
        f.expect(is_null_homotopic(s, INFINITY).answer == s.is_infinite,
                 f"∞ decision at {s}")
    orbits = {v: triangle_orbit_closure({v}, max_s_den) for v in (ZERO, ONE, INFINITY)}
    for s in test_slopes:
        v = parity_vertex(s)
        for other, orbit in orbits.items():
            f.expect((s in orbit) == (other == v), f"parity orbit of {s} vs {other}")
    for r_int, r_vertex in ((ZERO, ZERO), (ONE, ONE), (Slope(2), ZERO), (Slope(-1), ONE)):
        for s in test_slopes:
            expected = parity_vertex(s) in (r_vertex, INFINITY)
            f.expect(is_null_homotopic(s, r_int).answer == expected,
                     f"integer decision at s={s} r={r_int}")
    f.expect(relator(ZERO) == "ab", "relator of 0")
    f.expect(not is_null_homotopic(ONE, ZERO).answer, "slope 1 against link 0")
    return f.result("special-slopes")


def check_automorphism_shift(max_s_den: int = 100) -> CheckResult:
    """Sending b to its inverse turns the relator of s into a cyclic
    representative of the relator of s+1 or its inverse (the relator of
    s+1 being read off the lattice line walk)."""
    f = _Failures()
    for s in farey_interval(max_s_den)[1:]:
        shifted = apply_automorphism(relator(s), "a", "B")
        target = relator_by_line_walk(s + 1)
        f.expect(cyclic_equal(shifted, target, allow_inverse=True),
                 f"shift at {s}")
        if s.den <= 30:
            # The four half-twist automorphisms land in the same cyclic
            # class up to inversion.
            others = [apply_automorphism(relator(s), a, b)
                      for a, b in (("A", "b"), ("B", "a"), ("b", "A"))]
            f.expect(all(cyclic_equal(shifted, w, allow_inverse=True)
                         for w in others), f"shift variants at {s}")
    f.expect(apply_automorphism(relator(ZERO), "a", "B") == relator(ONE),
             "shift at 0")
    return f.result("automorphism-shift")


def run_all(max_den: int = 20) -> list[CheckResult]:
    """Run every suite with its bounds capped at max_den."""
    return [
        check_worked_examples(),
        check_word_generators(max_p=min(300, max_den)),
        check_sequence_theorems(max_p=min(200, max_den)),
        check_small_cancellation(max_p=min(50, max_den)),
        check_decision_oracle(max_r_den=min(20, max_den), max_s_den=min(40, max_den)),
        check_criterion_equivalences(max_r_den=min(30, max_den),
                                     max_s_den=min(60, max_den)),
        check_special_slopes(max_s_den=min(40, max_den)),
        check_automorphism_shift(max_s_den=min(100, max_den)),
    ]
