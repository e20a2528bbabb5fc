"""Exact slopes (rationals together with infinity) and continued fractions.

A *slope* is an element of Q ∪ {∞}: it indexes the essential simple loops
on the 4-punctured sphere and the rational tangles they bound.  ∞ is the
slope 1/0.  Everything here is exact integer arithmetic; there is no
floating point anywhere in this package.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

#: Hard bound on every stored integer (numerators, denominators, matrix
#: entries).  Python integers never wrap, so this is purely a loud sanity
#: limit: a value this large means a computation has run away.
INT_BOUND = 2**63 - 1


def _guard(*values: int) -> None:
    for v in values:
        if v > INT_BOUND or v < -INT_BOUND:
            raise OverflowError(f"integer {v} exceeds the 64-bit working bound")


class Slope:
    """A reduced rational number q/p, or the slope ∞ stored as 1/0.

    Immutable, hashable and totally ordered, with ∞ greater than every
    rational.  A slope compares only with slopes: an int is not coerced.
    Denominators are never negative; -1/0 normalizes to 1/0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a slope")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            if g != 1:
                num //= g
                den //= g
        _guard(num, den)
        self.num = num
        self.den = den

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def __add__(self, n: int) -> "Slope":
        if not isinstance(n, int):
            return NotImplemented
        return Slope(self.num + n * self.den, self.den)

    def __sub__(self, n: int) -> "Slope":
        if not isinstance(n, int):
            return NotImplemented
        return Slope(self.num - n * self.den, self.den)

    def __neg__(self) -> "Slope":
        return Slope(-self.num, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # Cross multiplication is sign-safe because denominators are >= 0,
    # and puts ∞ = 1/0 above every rational.
    def __lt__(self, other) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __le__(self, other) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.num * other.den > other.num * self.den

    def __ge__(self, other) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.num * other.den >= other.num * self.den

    def __str__(self) -> str:
        return "inf" if self.den == 0 else f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Slope({self.num}, {self.den})"


ZERO = Slope(0)
ONE = Slope(1)
INFINITY = Slope(1, 0)


def _positive_pair(r: Slope) -> tuple[int, int]:
    if r.is_infinite or r <= ZERO:
        raise ValueError(f"positive rational slope required, got {r}")
    return r.num, r.den


def parse_slope(text: str) -> Slope:
    """Parse "q/p", a bare integer, or "inf" (optional leading minus).

    Malformed text, and a slope whose lowest-terms numerator or
    denominator exceeds INT_BOUND, raise ValueError.
    """
    t = text.strip().replace("−", "-")
    if t.lstrip("+-") == "inf":
        return INFINITY
    try:
        if "/" in t:
            a, b = t.split("/", 1)
            return Slope(int(a), int(b))
        return Slope(int(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed slope {t!r}") from exc
    except OverflowError as exc:
        raise ValueError(f"slope {t!r} exceeds the 64-bit working bound") from exc


# Bounded above the ~1,400 distinct slopes that the criterion-6 suite
# cycles through at its full bound, so its sweep keeps its hits.
@lru_cache(maxsize=2048)
def cf_expand(r: Slope) -> tuple[int, ...]:
    """Terms (m1,...,mk) of the canonical continued fraction of a positive
    rational slope, whose value is 1/(m1 + 1/(m2 + ... + 1/mk)).

    For a slope in (0,1] all terms are positive and the last is >= 2
    unless k = 1; for a slope > 1 the leading term is 0 and the rest
    expand its reciprocal.

    >>> cf_expand(Slope(5, 17))
    (3, 2, 2)
    """
    if r.is_infinite or r <= ZERO:
        raise ValueError(f"no canonical expansion for {r}")
    q, p = r.num, r.den
    terms = []
    if q > p:  # slope > 1: expand the reciprocal behind a leading 0
        terms.append(0)
        q, p = p, q
    while True:
        if q == 1:
            terms.append(p)
            return tuple(terms)
        m, c = divmod(p, q)
        terms.append(m)
        p, q = q, c


def cf_value(terms: Sequence[int]) -> Slope:
    """Exact value of [m1,...,mk]; the empty sequence evaluates to 0.

    Accepts non-canonical term lists (e.g. a trailing 1) and evaluates
    them projectively, so intermediate ∞ is handled.
    """
    if any(m < 0 for m in terms):
        raise ValueError(f"negative continued fraction term in {list(terms)}")
    num, den = 0, 1  # value of the empty tail
    for m in reversed(terms):
        num, den = den, m * den + num  # prepend: 1 / (m + num/den)
        _guard(num, den)
    return Slope(num, den)


def schubert_equivalent(r: Slope, r2: Slope) -> bool:
    """Whether q/p and q'/p' present the same 2-bridge link.

    True iff p = p' and q ≡ ±q' (mod p) or q·q' ≡ ±1 (mod p); ∞ is
    equivalent only to ∞.
    """
    if r.is_infinite or r2.is_infinite:
        return r.is_infinite and r2.is_infinite
    if r.den != r2.den:
        return False
    p = r.den
    q, q2 = r.num, r2.num
    return (q - q2) % p == 0 or (q + q2) % p == 0 \
        or (q * q2 - 1) % p == 0 or (q * q2 + 1) % p == 0


@lru_cache(maxsize=2048)  # bounded as cf_expand is
def fundamental_endpoints(r: Slope) -> tuple[Slope, Slope]:
    """Endpoints r1 < r < r2 of the gap around r in its fundamental domain.

    For r = [m1,...,mk] in (0,1) these are the values of [m1,...,m_{k-1}]
    and [m1,...,m_{k-1},mk - 1], ordered by the parity of k; r is their
    mediant.  For r = 1/p the left endpoint degenerates to 0.
    """
    if not (ZERO < r < ONE):
        raise ValueError(f"fundamental endpoints need 0 < r < 1, got {r}")
    terms = cf_expand(r)
    parent = cf_value(terms[:-1])
    sibling = cf_value(terms[:-1] + (terms[-1] - 1,))
    if len(terms) % 2:
        r1, r2 = parent, sibling
    else:
        r1, r2 = sibling, parent
    if not (r1 < r < r2):
        raise AssertionError(f"endpoint ordering failed for {r}")
    return r1, r2


def parity_vertex(s: Slope) -> Slope:
    """The vertex 0, 1 or ∞ in the orbit of s under the full reflection
    group of the tessellation.

    Every automorphism of the Farey tessellation reduces to the identity
    mod 2, so the pair (p mod 2, q mod 2) of s = q/p is a complete
    invariant of that orbit: 0 is (1, 0), 1 is (1, 1) and ∞ is (0, 1).
    """
    if s.den % 2 == 0:
        return INFINITY
    return ONE if s.num % 2 else ZERO


def farey_interval(max_den: int) -> list[Slope]:
    """All slopes q/p with 0 <= q/p <= 1 and p <= max_den, sorted.

    Generated in order by the next-term recurrence of the Farey sequence:
    after neighbors a/b < c/d the next term is (kc − a)/(kd − b) with
    k = ⌊(max_den + b)/d⌋.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    out = [ZERO]
    a, b, c, d = 0, 1, 1, max_den
    while c <= max_den:
        out.append(Slope(c, d))
        k = (max_den + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out
