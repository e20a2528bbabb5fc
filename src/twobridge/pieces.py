"""Pieces of the symmetrized relator set and small cancellation checks.

A *piece* is a nonempty word that is a common prefix of two distinct
elements of the symmetrized set R (all rotations of the relator and of
its inverse).  Because R is rotation-closed, every nonempty subword of a
piece is again a piece, which makes greedy longest-piece factorization
optimal and keeps all of the checks here elementary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .slopes import ONE, ZERO, Slope
from .seqs import (
    contains_cyclic_factor,
    decompose,
    s_sequence,
    s_sequence_of_word,
)
from .words import (
    CyclicWord,
    canonical_rotation,
    cyclic_reduce,
    inverse_word,
    is_cyclically_alternating,
    relator,
)

#: A positioned subword of a cyclic word: (start index, length), indices
#: taken in the canonical rotation.
Span = tuple[int, int]


class SymmetrizedRelators:
    """All rotations of the relator of a slope in (0,1) and of its inverse.

    The 4p elements are pairwise distinct words of length 2p.
    """

    def __init__(self, slope: Slope):
        if not (ZERO < slope < ONE):
            raise ValueError(f"symmetrized set needs 0 < r < 1, got {slope}")
        self.slope = slope
        self.relator = relator(slope)
        n = len(self.relator)
        elements: set[str] = set()
        for base in (self.relator, inverse_word(self.relator)):
            dd = base + base
            for i in range(n):
                elements.add(dd[i:i + n])
        if len(elements) != 2 * n:
            raise AssertionError(f"symmetrized set of {slope} is degenerate")
        self._set = frozenset(elements)
        self._sorted = sorted(elements)

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self) -> Iterator[str]:
        return iter(self._sorted)

    def __contains__(self, w: str) -> bool:
        return w in self._set

    def longest_piece_prefix(self, x: str) -> int:
        """Length of the longest prefix of x that is a piece (0 if none).

        Sorted-neighbor scan: the elements sharing a given prefix form a
        contiguous run, so only the nearest neighbors on each side of the
        insertion point matter.
        """
        elems = self._sorted
        pos = bisect_left(elems, x)
        exact = pos < len(elems) and elems[pos] == x
        if exact:
            # x itself supplies one of the two required elements.
            best = 0
            for j in (pos - 1, pos + 1):
                if 0 <= j < len(elems):
                    best = max(best, _lcp(x, elems[j]))
            return best
        left = [_lcp(x, elems[j]) for j in (pos - 1, pos - 2) if j >= 0]
        right = [_lcp(x, elems[j]) for j in (pos, pos + 1) if j < len(elems)]
        l1 = left[0] if left else 0
        l2 = left[1] if len(left) > 1 else 0
        r1 = right[0] if right else 0
        r2 = right[1] if len(right) > 1 else 0
        # Second-largest common-prefix length over all of R.
        return max(l2, r1) if l1 >= r1 else max(r2, l1)


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


def symmetrize(r: Slope) -> SymmetrizedRelators:
    return SymmetrizedRelators(r)


def _piece_length_table(cw: CyclicWord, relators: SymmetrizedRelators) -> list[int]:
    w = cw.letters
    dd = w + w
    n = len(w)
    return [relators.longest_piece_prefix(dd[i:i + n]) for i in range(n)]


def min_piece_factorization(cw: CyclicWord, relators: SymmetrizedRelators) -> int:
    """Minimal n such that some rotation of cw is a product of n pieces.

    Greedy longest-piece-first is optimal because every nonempty subword
    of a piece is a piece.
    """
    if len(cw) == 0:
        raise ValueError("empty cyclic word")
    table = _piece_length_table(cw, relators)
    n = len(table)
    best: float = float("inf")
    for start in range(n):
        covered = 0
        count = 0
        while covered < n:
            step = min(table[(start + covered) % n], n - covered)
            if step == 0:
                count = -1
                break
            covered += step
            count += 1
            if count >= best:
                break
        if count != -1 and covered >= n:
            best = min(best, count)
    if best == float("inf"):
        raise ValueError("cyclic word is not a product of pieces")
    return int(best)


@dataclass(frozen=True)
class CatalogItem:
    """One family of the closed-form maximal n-piece catalog."""

    label: str
    spans: tuple[Span, ...]


def _relator_block_lengths(r: Slope) -> tuple[int, int]:
    """Lengths (|v1|, |v2|) of the v1 v2 v3 v4 splitting of the relator,
    where v1, v3 carry the palindromic half S1 and v2, v4 carry S2."""
    d = decompose(r)
    return sum(d.s1), sum(d.s2)


def piece_product_catalog(r: Slope, n_pieces: int) -> list[CatalogItem]:
    """Closed-form catalog of the maximal n-piece subwords (n = 1, 2, 3),
    phrased through the v1 v2 v3 v4 splitting of the relator.

    Families are listed by the position of their initial letter; spans are
    reported in the canonical rotation of the relator's cyclic word.
    Expanding all families reproduces exactly the spans found by the
    brute-force enumeration (``verification.maximal_piece_products``).
    """
    if n_pieces not in (1, 2, 3):
        raise ValueError("catalog covers n = 1, 2, 3 only")
    n1, n2 = _relator_block_lengths(r)
    u = relator(r)
    total = len(u)
    # Offset of the canonical rotation inside the relator.
    delta = (u + u).index(canonical_rotation(u))

    def span(start: int, length: int) -> Span:
        return ((start - delta) % total, length)

    def family(label: str, base: int, head: int, fixed: int) -> CatalogItem:
        # Starts strictly inside a block of length `head`; the piece takes
        # the rest of the block plus `fixed` more letters.
        spans = tuple(span(base + j, head - j + fixed) for j in range(1, head))
        return CatalogItem(label, spans)

    items: list[CatalogItem]
    if n1 == 0:  # single-term expansion: u = v2 v4, both of length n2
        b2, b4 = 0, n2
        m = n2
        if n_pieces == 1:
            items = [
                CatalogItem("v2b*", (span(b2, m - 1),)),
                family("v2e", b2, m, 0),
                CatalogItem("v4b*", (span(b4, m - 1),)),
                family("v4e", b4, m, 0),
            ]
        elif n_pieces == 2:
            items = [
                CatalogItem("v2", (span(b2, m),)),
                family("v2e v4b*", b2, m, m - 1),
                CatalogItem("v4", (span(b4, m),)),
                family("v4e v2b*", b4, m, m - 1),
            ]
        else:
            items = [
                CatalogItem("v2 v4b*", (span(b2, 2 * m - 1),)),
                family("v2e v4", b2, m, m),
                CatalogItem("v4 v2b*", (span(b4, 2 * m - 1),)),
                family("v4e v2", b4, m, m),
            ]
    else:
        b1, b2, b3, b4 = 0, n1, n1 + n2, 2 * n1 + n2
        if n_pieces == 1:
            items = [
                CatalogItem("v1b*", (span(b1, n1 - 1),)),
                family("v1e v2", b1, n1, n2),
                CatalogItem("v2 v3b*", (span(b2, n2 + n1 - 1),)),
                family("v2e v3b*", b2, n2, n1 - 1),
                CatalogItem("v3b*", (span(b3, n1 - 1),)),
                family("v3e v4", b3, n1, n2),
                CatalogItem("v4 v1b*", (span(b4, n2 + n1 - 1),)),
                family("v4e v1b*", b4, n2, n1 - 1),
            ]
        elif n_pieces == 2:
            items = [
                CatalogItem("v1 v2", (span(b1, n1 + n2),)),
                family("v1e v2 v3b*", b1, n1, n2 + n1 - 1),
                CatalogItem("v2 v3 v4", (span(b2, n2 + n1 + n2),)),
                family("v2e v3 v4", b2, n2, n1 + n2),
                CatalogItem("v3 v4", (span(b3, n1 + n2),)),
                family("v3e v4 v1b*", b3, n1, n2 + n1 - 1),
                CatalogItem("v4 v1 v2", (span(b4, n2 + n1 + n2),)),
                family("v4e v1 v2", b4, n2, n1 + n2),
            ]
        else:
            items = [
                CatalogItem("v1 v2 v3b*", (span(b1, n1 + n2 + n1 - 1),)),
                family("v1e v2 v3 v4", b1, n1, n2 + n1 + n2),
                CatalogItem("v2 v3 v4 v1b*", (span(b2, n2 + n1 + n2 + n1 - 1),)),
                family("v2e v3 v4 v1b*", b2, n2, n1 + n2 + n1 - 1),
                CatalogItem("v3 v4 v1b*", (span(b3, n1 + n2 + n1 - 1),)),
                family("v3e v4 v1 v2", b3, n1, n2 + n1 + n2),
                CatalogItem("v4 v1 v2 v3b*", (span(b4, n2 + n1 + n2 + n1 - 1),)),
                family("v4e v1 v2 v3b*", b4, n2, n1 + n2 + n1 - 1),
            ]
    return items


def catalog_spans(r: Slope, n_pieces: int) -> list[Span]:
    """All spans of the closed-form catalog, sorted by start position."""
    out: list[Span] = []
    for item in piece_product_catalog(r, n_pieces):
        out.extend(item.spans)
    out.sort()
    return out


def t4_structural(r: Slope) -> bool:
    """T(4) via the structure of the relators: a triple w1, w2, w3 with all
    three products w1w2, w2w3, w3w1 reducible would force a generator
    repetition in some wi, impossible for cyclically alternating words."""
    u = relator(r)
    return is_cyclically_alternating(u) and is_cyclically_alternating(inverse_word(u))


def t4_by_triples(relators: SymmetrizedRelators) -> bool:
    """Direct T(4) check: for every triple w1, w2, w3 with no successive
    inverse pair (indices mod 3), at least one of w1w2, w2w3, w3w1 must be
    freely reduced without cancellation.  (T(4) constrains the cycle
    lengths 3 <= n < 4, so triples are the whole condition.)

    Cubic in |R|: the brute-force oracle for t4_structural, run by the
    verification suites for small denominators only.
    """
    elems = relators._sorted
    inv = {w: inverse_word(w) for w in elems}
    first = {w: w[0] for w in elems}
    last = {w: w[-1] for w in elems}
    for w1 in elems:
        for w2 in elems:
            if w2 == inv[w1] or last[w1] != first[w2].swapcase():
                continue
            for w3 in elems:
                if w3 == inv[w2] or w1 == inv[w3]:
                    continue
                if last[w2] != first[w3].swapcase():
                    continue
                if last[w3] == first[w1].swapcase():
                    return False
    return True


@dataclass(frozen=True)
class PieceReport:
    """Small cancellation findings for one relator."""

    relator_slope: Slope
    c4: bool
    t4: bool
    min_cyclic_pieces: int
    maximal_piece_catalog: dict[int, tuple[Span, ...]]

    def to_json_obj(self) -> dict:
        return {
            "relator_slope": str(self.relator_slope),
            "c4": self.c4,
            "t4": self.t4,
            "min_cyclic_pieces": self.min_cyclic_pieces,
            "maximal_piece_catalog": {
                str(n): [list(span) for span in spans]
                for n, spans in sorted(self.maximal_piece_catalog.items())
            },
        }


def small_cancellation_report(r: Slope) -> PieceReport:
    """Verify C(4) and T(4) for the symmetrized relator set of r.

    C(4) is checked by minimal piece factorization of the relator's
    cyclic word (its inverse has the same minimum, since the inverse of a
    piece is a piece); T(4) by the structural criterion.  The maximal
    n-piece subwords come from the closed-form catalog.
    """
    relators = symmetrize(r)
    min_pieces = min_piece_factorization(cyclic_reduce(relators.relator), relators)
    catalog = {n: tuple(catalog_spans(r, n)) for n in (1, 2, 3)}
    return PieceReport(
        relator_slope=r,
        c4=min_pieces >= 4,
        t4=t4_structural(r),
        min_cyclic_pieces=min_pieces,
        maximal_piece_catalog=catalog,
    )


def initial_letter_spread(r: Slope) -> bool:
    """Whether, for every rotation w of the relator, the words in the
    symmetrized set sharing the S-sequence of w start with all four
    letters."""
    relators = symmetrize(r)
    by_runs: dict[tuple[int, ...], set[str]] = {}
    for element in relators:
        by_runs.setdefault(s_sequence_of_word(element), set()).add(element[0])
    u = relators.relator
    dd = u + u
    n = len(u)
    for i in range(n):
        rotation = dd[i:i + n]
        if by_runs[s_sequence_of_word(rotation)] != {"a", "A", "b", "B"}:
            return False
    return True


def satisfies_necessary_condition(s: Slope, r: Slope) -> bool:
    """Whether the cyclic S-sequence of s contains (S1,S2) or (S2,S1) of r
    as a contiguous cyclic factor: a necessary condition for the loop of
    slope s to be null-homotopic in the link complement of slope r.
    """
    if not (ZERO < s <= ONE):
        raise ValueError(f"condition applies to s in (0,1], got {s}")
    d = decompose(r)
    needle_a = d.s1 + d.s2
    needle_b = d.s2 + d.s1
    haystack = s_sequence(s)  # one rotation of CS(s) is enough to search
    if len(needle_a) > len(haystack):
        return False
    return (contains_cyclic_factor(haystack, needle_a)
            or contains_cyclic_factor(haystack, needle_b))
