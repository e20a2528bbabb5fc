"""Words in the two meridian generators, and the 2-bridge relator words.

A word is a plain string over the alphabet "aAbB", uppercase marking the
inverse of a generator (so "abAB" is a b a⁻¹ b⁻¹).  The empty string is
the identity and prints as "1".  Since the alphabet is exactly two
generators, ``str.swapcase`` is formal inversion of a letter.

No free reduction is needed: the relator words are cyclically
alternating, hence cyclically reduced, and every other word formed from
them (a rotation, the inverse, a letter-automorphism image) is too.
"""

from __future__ import annotations

from itertools import cycle, islice, repeat
from operator import floordiv
from typing import Sequence

from .slopes import ONE, ZERO, Slope, _positive_pair

#: Letter comparison order a < a⁻¹ < b < b⁻¹ used for canonical rotations.
_ORDER = str.maketrans("aAbB", "\x00\x01\x02\x03")

_REDUCIBLE_PAIRS = ("aA", "Aa", "bB", "Bb")


def inverse_word(w: str) -> str:
    return w[::-1].swapcase()


def is_reduced(w: str) -> bool:
    return not any(pair in w for pair in _REDUCIBLE_PAIRS)


def is_alternating(w: str) -> bool:
    """No a^{±2} or b^{±2}: the generators strictly alternate."""
    g = w.lower()
    return "aa" not in g and "bb" not in g


def is_cyclically_alternating(w: str) -> bool:
    return is_alternating(w) and (len(w) < 2 or w[0].lower() != w[-1].lower())


def _least_rotation_start(t: Sequence) -> int:
    """Index at which the least rotation of t begins (the first such index).

    Two-pointer scan in linear time: candidates i < j are compared along
    their common prefix, and at the first difference the larger one skips
    the compared stretch, none of whose starts can begin a least rotation.
    """
    n = len(t)
    dd = [*t, *t]
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = dd[i + k], dd[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return i


def canonical_rotation(w: str) -> str:
    """The rotation of w that is least in the order a < a⁻¹ < b < b⁻¹."""
    i = _least_rotation_start(w.translate(_ORDER))
    return w[i:] + w[:i]


def cyclic_equal(w1: str, w2: str, allow_inverse: bool = False) -> bool:
    """Whether w2 is a rotation of w1 (or of w1⁻¹ when allowed)."""
    if len(w1) != len(w2):
        return False
    if not w1:
        return True
    if w2 in w1 + w1:
        return True
    if allow_inverse:
        inv = inverse_word(w1)
        return w2 in inv + inv
    return False


_SWAP_GENERATORS = str.maketrans("abAB", "baBA")


def _first_half(q: int, p: int) -> str:
    """Letters 0..p−1 of the relator of q/p, coprime with 0 < q <= p.

    Letter i is a or b as i is even or odd, negated when ⌊iq/p⌋ is odd.
    The k-th sign run holds the letters with ⌊iq/p⌋ = k, from ⌈kp/q⌉ to
    ⌈(k+1)p/q⌉, so the word is q slices taken in turn from "abab…" and
    "ABAB…".
    """
    pos = "ab" * ((p + 1) // 2)
    # ⌈kp/q⌉ = (kp + q − 1)//q for k = 0..q; the last is p.
    starts = list(map(floordiv, range(q - 1, q * p + q, p), repeat(q)))
    return "".join(map(str.__getitem__, cycle((pos, pos.upper())),
                       map(slice, starts, islice(starts, 1, None))))


def half_relator(r: Slope) -> str:
    """Word read off the open segment from (0,0) to (p,q), 0 < q/p <= 1.

    The segment of slope q/p crosses the vertical lattice lines
    x = 1, ..., p-1; the i-th crossing contributes b or a (i odd/even)
    with sign (-1)^⌊iq/p⌋.  Empty when p = 1.  These are letters 1..p−1
    of the relator.

    >>> half_relator(Slope(4, 7))
    'bABabA'
    """
    q, p = _positive_pair(r)
    if q > p:
        raise ValueError(f"half relator needs a slope in (0,1], got {r}")
    return _first_half(q, p)[1:]


def relator(r: Slope) -> str:
    """The relator word of slope r: the single relator presenting the
    2-bridge link group of slope r on the upper meridian pair.

    Defined for r in (0,1] (an alternating, cyclically reduced word of
    length 2p) plus the degenerate slopes: relator(0) = "ab" and
    relator(∞) = "" (the empty word).  It is Riley's form a · û · x · û⁻¹,
    with û the half relator and x = b^(±1) for odd p and a⁻¹ for even p;
    letter i (0-based) is a/b as i is even/odd, negated when ⌊iq/p⌋ is
    odd.  The second half is the first under one letter substitution.

    >>> relator(Slope(4, 7))
    'abABabAbaBAbaB'
    """
    if r.is_infinite:
        return ""
    if r == ZERO:
        return "ab"
    q, p = _positive_pair(r)
    if r > ONE:
        raise ValueError(f"relator is generated only for slopes in (0,1], got {r}")
    first = _first_half(q, p)
    # Letter i + p is on the other generator when p is odd and has the
    # other sign when q is odd, since ⌊(i + p)q/p⌋ = ⌊iq/p⌋ + q.
    second = first.translate(_SWAP_GENERATORS) if p & 1 else first
    return first + (second.swapcase() if q & 1 else second)


_AUTOMORPHISM_NAMES = {
    ("a", "b"), ("A", "B"), ("b", "a"), ("B", "A"),
    ("a", "B"), ("A", "b"), ("B", "a"), ("b", "A"),
}


def apply_automorphism(w: str, image_of_a: str, image_of_b: str) -> str:
    """Apply the free-group automorphism a ↦ image_of_a, b ↦ image_of_b.

    Only the eight letter-to-letter automorphisms are allowed (images must
    be single letters on distinct generators); these are the symmetries of
    the upper tangle together with the half-twist.  Substitution is
    letterwise: these maps send inverse pairs to inverse pairs, so w must
    be reduced (as every word the library forms is) and its image is.
    """
    if (image_of_a, image_of_b) not in _AUTOMORPHISM_NAMES:
        raise ValueError(
            f"({image_of_a!r}, {image_of_b!r}) does not define one of the "
            "eight letter automorphisms")
    table = str.maketrans({
        "a": image_of_a,
        "A": image_of_a.swapcase(),
        "b": image_of_b,
        "B": image_of_b.swapcase(),
    })
    return w.translate(table)


def format_word(w: str) -> str:
    """External text form: letter tokens, with the empty word printed as 1."""
    return w or "1"

