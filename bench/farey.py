"""Plain integer Farey arithmetic for the benchmark's generators and checkers.

Slopes are (num, den) pairs in lowest terms with den >= 0; infinity is
(1, 0).  Matrices are (a, b, c, d) tuples acting by x -> (ax + b)/(cx + d).
Nothing here imports twobridge: the checkers must not share code with the
reducer they check.
"""

from __future__ import annotations

from math import gcd

INF = (1, 0)


def slope(num: int, den: int) -> tuple[int, int]:
    """Normalize num/den to lowest terms with a non-negative denominator."""
    if den == 0:
        if num == 0:
            raise ValueError("0/0 is not a slope")
        return INF
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def text(s: tuple[int, int]) -> str:
    """The library's text form: "inf" or "q/p"."""
    return "inf" if s[1] == 0 else f"{s[0]}/{s[1]}"


def parse(t: str) -> tuple[int, int]:
    if t == "inf":
        return INF
    a, _, b = t.partition("/")
    return slope(int(a), int(b or 1))


def apply(m: tuple[int, int, int, int], s: tuple[int, int]) -> tuple[int, int]:
    a, b, c, d = m
    return slope(a * s[0] + b * s[1], c * s[0] + d * s[1])


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def power(m, n: int):
    out = (1, 0, 0, 1)
    while n:
        if n & 1:
            out = mul(out, m)
        m = mul(m, m)
        n >>= 1
    return out


def edge_reflection(x: tuple[int, int], y: tuple[int, int]):
    """The integer involution of determinant -1 fixing the Farey neighbours x, y."""
    (q, p), (q2, p2) = x, y
    if abs(q * p2 - q2 * p) != 1:
        raise ValueError(f"{text(x)} and {text(y)} are not Farey neighbours")
    t = q * p2 + q2 * p
    return (t, -2 * q * q2, 2 * p * p2, -t)


def less(x: tuple[int, int], y: tuple[int, int]) -> bool:
    return x[0] * y[1] < y[0] * x[1]


def less_eq(x: tuple[int, int], y: tuple[int, int]) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def parents(r: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two Farey parents r1 < r2 of r = q/p in (0, 1): the neighbours of r
    with smaller denominators, found by the extended Euclidean algorithm."""
    q, p = r
    if not 0 < q < p:
        raise ValueError(f"parents need 0 < r < 1, got {text(r)}")
    # Solve q*b - a*p = 1 for the neighbour a/b with 0 < b < p.
    old_r, cur_r, old_s, cur_s = q, p, 1, 0
    while cur_r:
        k = old_r // cur_r
        old_r, cur_r = cur_r, old_r - k * cur_r
        old_s, cur_s = cur_s, old_s - k * cur_s
    b = old_s % p  # q * b ≡ 1 (mod p)
    a = (q * b - 1) // p
    left = (a, b)
    right = (q - a, p - b)
    return (left, right) if less(left, right) else (right, left)


def fold_into_unit(s: tuple[int, int]) -> tuple[tuple[int, int], tuple]:
    """Fold s into [0, 1] with x -> -x and x -> 2n - x; return the image and
    the composed map (identity for infinity)."""
    m = (1, 0, 0, 1)
    if s[1] == 0:
        return s, m
    num, den = s
    n = (num + den) // (2 * den)  # nearest even shift: s - 2n in [-1, 1)
    m = (1, -2 * n, 0, 1)
    num -= 2 * n * den
    if num < 0:
        m = mul((-1, 0, 0, 1), m)
        num = -num
    return (num, den), m


def parity(s: tuple[int, int]) -> tuple[int, int]:
    """(den mod 2, num mod 2): the class of s under the full edge-reflection
    group of the tessellation, which is trivial mod 2."""
    return s[1] % 2, s[0] % 2
