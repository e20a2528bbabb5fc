"""Pieces of the symmetrized relator set and small cancellation checks.

A *piece* is a nonempty word that is a common prefix of two distinct
elements of the symmetrized set R (all rotations of the relator and of
its inverse).  Because R is rotation-closed, every nonempty subword of a
piece is again a piece, which makes greedy longest-piece factorization
optimal and keeps all of the checks here elementary.

Piece lengths have one source: the closed-form catalog of maximal
n-piece subwords, phrased through the v1 v2 v3 v4 splitting of the
relator.  Nothing here builds R: the symmetrized set and the brute-force
piece scan the catalog is checked against live in ``verification``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .slopes import ONE, ZERO, Slope, fundamental_endpoints
from .seqs import decompose
from .words import (
    canonical_rotation,
    inverse_word,
    is_cyclically_alternating,
    relator,
)

#: A positioned subword of a cyclic word: (start index, length), indices
#: taken in the canonical rotation.
Span = tuple[int, int]


def min_piece_factorization(table: Sequence[int]) -> int:
    """Minimal n such that some rotation of a cyclic word is a product of
    n pieces, given the length of the longest piece at each start.

    Greedy longest-piece-first is optimal because every nonempty subword
    of a piece is a piece.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty cyclic word")
    best = n + 1  # more pieces than letters: no cover found yet
    for start in range(n):
        covered = 0
        count = 0
        while covered < n and count < best:
            step = table[(start + covered) % n]
            if step == 0:
                break
            covered += step
            count += 1
        if covered >= n:
            best = count
    if best > n:
        raise ValueError("cyclic word is not a product of pieces")
    return best


@dataclass(frozen=True)
class CatalogItem:
    """One family of the closed-form maximal n-piece catalog."""

    label: str
    spans: tuple[Span, ...]


def piece_product_catalog(r: Slope) -> dict[int, list[CatalogItem]]:
    """Closed-form catalog of the maximal n-piece subwords for n = 1, 2, 3,
    phrased through the v1 v2 v3 v4 splitting of the relator, where v1, v3
    carry the palindromic half S1 and v2, v4 carry S2.

    Families are listed by the position of their initial letter; spans are
    reported in the canonical rotation of the relator's cyclic word.
    Expanding all families reproduces exactly the spans found by the
    brute-force enumeration (``verification.maximal_piece_products``).
    """
    d = decompose(r)
    n1, n2 = sum(d.s1), sum(d.s2)
    u = relator(r)
    total = len(u)
    # Offset of the canonical rotation inside the relator.
    delta = (u + u).index(canonical_rotation(u))
    # Blocks v1..v4 of lengths (n1, n2, n1, n2).  A single-term expansion
    # has n1 = 0 and u = v2 v4, so its runs step over the empty v1, v3.
    lengths = (n1, n2, n1, n2)
    bases = (0, n1, n1 + n2, 2 * n1 + n2)
    step, firsts = (1, range(4)) if n1 else (2, (1, 3))

    def run(prefix: list[str], k: int, skip: int, count: int, short: bool) -> tuple[str, int]:
        # `count` whole blocks from the `skip`-th block after v_k, one
        # letter short when `short`.
        blocks = [(k + step * i) % 4 for i in range(skip, skip + count)]
        label = " ".join(prefix + [f"v{b + 1}" for b in blocks]) + ("b*" if short else "")
        return label, sum(lengths[b] for b in blocks) - short

    catalog: dict[int, list[CatalogItem]] = {}
    for n in (1, 2, 3):
        items = catalog[n] = []
        for k in firsts:
            if n1:
                # From the start of v_k through n blocks (n + 1 from v2 or
                # v4), and from inside v_k to its end, then through n
                # blocks; a run ending in v1 or v3 stops one letter short.
                whole, rest = n + k % 2, n
                whole_short = (k + whole - 1) % 2 == 0
                rest_short = (k + rest) % 2 == 0
            else:
                # From the start of v2 or v4 through ⌈n/2⌉ blocks, short for
                # odd n; from inside to its end plus ⌊n/2⌋ blocks, short for
                # even n.
                whole, rest = (n + 1) // 2, n // 2
                whole_short, rest_short = n % 2 == 1, n % 2 == 0
            label, length = run([], k, 0, whole, whole_short)
            items.append(CatalogItem(label, (((bases[k] - delta) % total, length),)))
            label, length = run([f"v{k + 1}e"], k, 1, rest, rest_short)
            head = lengths[k]
            items.append(CatalogItem(label, tuple(
                ((bases[k] + j - delta) % total, head - j + length)
                for j in range(1, head))))
    return catalog


def t4_structural(r: Slope) -> bool:
    """T(4) via the structure of the relators: a triple w1, w2, w3 with all
    three products w1w2, w2w3, w3w1 reducible would force a generator
    repetition in some wi, impossible for cyclically alternating words.
    (The inverse of a cyclically alternating word is one too.)"""
    return is_cyclically_alternating(relator(r))


def t4_by_triples(relators: Sequence[str]) -> bool:
    """Direct T(4) check: for every triple w1, w2, w3 with no successive
    inverse pair (indices mod 3), at least one of w1w2, w2w3, w3w1 must be
    freely reduced without cancellation.  (T(4) constrains the cycle
    lengths 3 <= n < 4, so triples are the whole condition.)

    Cubic in |R|: the brute-force oracle for t4_structural, run by the
    verification suites for small denominators only.
    """
    inv = {w: inverse_word(w) for w in relators}
    first = {w: w[0] for w in relators}
    last = {w: w[-1] for w in relators}
    for w1 in relators:
        for w2 in relators:
            if w2 == inv[w1] or last[w1] != first[w2].swapcase():
                continue
            for w3 in relators:
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

    The piece lengths come from the closed-form catalog of the maximal
    n-piece subwords: its n = 1 spans give the longest piece at each start
    of the relator's cyclic word, and C(4) is the minimal piece
    factorization over that table (the inverse has the same minimum, since
    the inverse of a piece is a piece).  T(4) is the structural criterion.
    """
    catalog = {n: tuple(sorted(span for item in items for span in item.spans))
               for n, items in piece_product_catalog(r).items()}
    if [start for start, _ in catalog[1]] != list(range(2 * r.den)):
        raise AssertionError(f"1-piece catalog of {r} is not one span per start")
    min_pieces = min_piece_factorization([length for _, length in catalog[1]])
    return PieceReport(
        relator_slope=r,
        c4=min_pieces >= 4,
        t4=t4_structural(r),
        min_cyclic_pieces=min_pieces,
        maximal_piece_catalog=catalog,
    )


def satisfies_necessary_condition(s: Slope, r: Slope) -> bool:
    """Whether the cyclic S-sequence of s contains (S1,S2) or (S2,S1) of r
    as a contiguous cyclic factor: a necessary condition for the loop of
    slope s to be null-homotopic in the link complement of slope r.

    Read off the slopes: exactly when r1 < s < r2 and, if r = 1/m, ⌊1/s⌋ <= m;
    the criterion-equivalences suite checks this against the factor search.
    """
    if not (ZERO < s <= ONE):
        raise ValueError(f"condition applies to s in (0,1], got {s}")
    r1, r2 = fundamental_endpoints(r)
    return r1 < s < r2 and (r.num != 1 or s.den // s.num <= r.den)
