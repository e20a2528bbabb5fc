"""Output checkers.  Each returns None when the output is right and a short
reason when it is not.  They use only plain integer arithmetic from
``farey`` and share no code with the library they check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import gcd

from farey import INF, apply, fold_into_unit, less_eq, parents, parity, text


def _fixes_farey_edge_at(m, r_unit) -> bool:
    """Whether m is the reflection in a Farey edge ending at ∞ or at r_unit."""
    a, b, c, d = m
    if c == 0:  # x -> -x - b/a fixes ∞ and -b/(2a); a Farey edge needs an integer
        return b % 2 == 0
    x1 = (a + 1, c)
    x2 = (a - 1, c)
    g1, g2 = gcd(*x1), gcd(*x2)
    x1 = (x1[0] // g1, x1[1] // g1)
    x2 = (x2[0] // g2, x2[1] // g2)
    if x1[1] < 0:
        x1 = (-x1[0], -x1[1])
    if x2[1] < 0:
        x2 = (-x2[0], -x2[1])
    if abs(x1[0] * x2[1] - x2[0] * x1[1]) != 1:
        return False
    return r_unit in (x1, x2)


def replay(s, r_unit, steps) -> tuple[object, str | None]:
    """Replay a reflection trace with 2x2 integer products.

    Every step must be a determinant -1 integer involution in a Farey edge
    at ∞ or at r_unit (the image of r in [0, 1]), and each recorded image
    must be the image of the one before.  Returns the landing point and a
    failure reason (None when the trace is sound).
    """
    cur = s
    for i, (m, image) in enumerate(steps):
        a, b, c, d = m
        if a * d - b * c != -1:
            return cur, f"step {i} has determinant {a * d - b * c}"
        if a + d != 0:
            return cur, f"step {i} is not an involution"
        if not _fixes_farey_edge_at(m, r_unit):
            return cur, f"step {i} fixes neither ∞ nor {text(r_unit)}"
        cur = apply(m, cur)
        if cur != image:
            return cur, f"step {i} records {text(image)}, replay gives {text(cur)}"
    return cur, None


def in_fundamental_set(x, r_unit) -> bool:
    """x in I1 ∪ I2 ∪ {r, ∞}, I1 = [0, r1], I2 = [r2, 1], for 0 < r < 1."""
    if x == INF or x == r_unit:
        return True
    r1, r2 = parents(r_unit)
    return (less_eq((0, 1), x) and less_eq(x, r1)) or (less_eq(r2, x) and less_eq(x, (1, 1)))


def check_decision(s, r, member, representative, route, start, steps, result,
                   expect=None) -> str | None:
    """Check a null-homotopy verdict and its certificate.

    route is "GENERIC", "R_INTEGER" or "R_INFINITY"; (start, steps, result)
    is the trace.  expect = (member, landing) when s was built as g·x.
    """
    if start != s:
        return f"trace starts at {text(start)}, not at s = {text(s)}"
    r_unit, _ = fold_into_unit(r)
    landing, why = replay(s, r_unit, steps)
    if why:
        return why
    if landing != result:
        return f"trace lands on {text(landing)} but reports {text(result)}"
    if r == INF:
        want_route, want = "R_INFINITY", s == INF
        if representative != landing:
            return "infinity route: representative is not the folded slope"
    elif r_unit in ((0, 1), (1, 1)):
        want_route = "R_INTEGER"
        want = parity(s) in (parity(r_unit), parity(INF))
        if parity(representative) != parity(s):
            return "integer route: representative is in another parity class"
    else:
        want_route = "GENERIC"
        if not in_fundamental_set(landing, r_unit):
            return f"landing point {text(landing)} is outside I1 ∪ I2 ∪ {{r, ∞}}"
        if representative != landing:
            return "representative differs from the landing point"
        want = landing in (INF, r_unit)
    if route != want_route:
        return f"route {route}, expected {want_route}"
    if member != want:
        return f"answer {member} contradicts the certificate"
    return check_expectation(member, landing, want_route, expect)


def check_reduction(s, r, start, steps, result, expect=None) -> str | None:
    """Check reduce_to_fundamental(s, r): a sound trace that lands in the
    fundamental set of the image of r in [0, 1]."""
    if start != s:
        return "trace does not start at s"
    r_unit, _ = fold_into_unit(r)
    landing, why = replay(s, r_unit, steps)
    if why:
        return why
    if landing != result:
        return "trace result differs from the replay"
    if r_unit == INF or r_unit in ((0, 1), (1, 1)):
        return None  # no gap to leave: the trace itself is the whole claim
    if not in_fundamental_set(landing, r_unit):
        return f"landing point {text(landing)} is outside I1 ∪ I2 ∪ {{r, ∞}}"
    return check_expectation(landing in (INF, r_unit), landing, "GENERIC", expect)


def check_expectation(member, landing, route, expect) -> str | None:
    if expect is None:
        return None
    want_member, want_landing = expect
    if member != want_member:
        return f"answer {member}, but s was built {'in' if want_member else 'outside'} the orbit"
    if want_landing is not None and route != "R_INTEGER" and landing != want_landing:
        return f"landed on {text(landing)}, built from {text(want_landing)}"
    return None


def check_epimorphism(answer, null_s, null_s_plus_1) -> str | None:
    """answer must equal null(s) or null(s+1), both already certified."""
    if answer != (null_s or null_s_plus_1):
        return f"epi = {answer}, certified null(s) or null(s+1) = {null_s or null_s_plus_1}"
    return None


def sign_runs(word: str) -> tuple[int, ...]:
    return tuple(len(list(run)) for _, run in groupby(word, str.islower))


def _encode(seq) -> str:
    return "".join(map(chr, seq))


def check_structure(q: int, p: int, out: dict) -> str | None:
    """The theorems for r = q/p in (0, 1): |u| = 2p, |û| = p - 1, the
    S-sequence is the sign-run sequence of u and sums to 2p, CS is a
    rotation of S, T counts the runs of S, r1 < r < r2 are the Farey
    parents, S = (S1, S2, S1, S2) with palindromic halves, the necessary
    condition holds for s = r, and C(4) and T(4) hold with >= 4 pieces."""
    u = out["u"]
    if len(u) != 2 * p or u[0::2].strip("aA") or u[1::2].strip("bB"):
        return "relator is not an alternating word of length 2p"
    if out["hat"] != u[1:p]:
        return "half relator is not u[1:p]"
    S = out["S"]
    if sum(S) != 2 * p or len(S) != 2 * q:
        return "S-sequence does not sum to 2p over 2q terms"
    if S != sign_runs(u):
        return "S-sequence is not the sign-run sequence of u"
    cs = out["CS"]
    if len(cs) != len(S) or _encode(cs) not in _encode(S) * 2:
        return "cyclic S-sequence is not a rotation of S"
    T = out["T"]
    if T is not None and (sum(T) + len(T) != len(S) or min(T) < 1):
        return "T-sequence does not count the runs of S"
    if (out["r1"], out["r2"]) != parents((q, p)):
        return "fundamental endpoints are not the Farey parents"
    s1, s2 = out["S1"], out["S2"]
    if s1 + s2 + s1 + s2 != S:
        return "(S1, S2, S1, S2) does not reassemble S"
    if s1 != s1[::-1] or s2 != s2[::-1]:
        return "S1 or S2 is not a palindrome"
    if out["necessary"] is not True:
        return "necessary condition fails for s = r"
    report = out.get("report")
    if report is not None:
        c4, t4, pieces = report
        if not (c4 and t4 and pieces >= 4):
            return f"C(4)/T(4) report failed: c4={c4} t4={t4} pieces={pieces}"
    return None


@lru_cache(maxsize=None)
def farey_candidates(max_den: int) -> tuple:
    """Every slope in [0, 1] with den <= max_den, ascending, then ∞."""
    out = [(q, p) for p in range(1, max_den + 1) for q in range(p + 1) if gcd(q, p) == 1]
    out.sort(key=lambda x: Fraction(*x))
    return tuple(out) + (INF,)


def check_scan(hits, certified: dict) -> str | None:
    """hits must list, in order, exactly the candidates certified true."""
    want = [s for s, ok in certified.items() if ok]
    if list(hits) != want:
        extra = sorted(set(hits) - set(want))[:3]
        missing = sorted(set(want) - set(hits))[:3]
        return f"scan differs from certified decisions: extra {extra}, missing {missing}"
    return None


def check_verify(results, text_a: str, text_b: str) -> str | None:
    failed = [name for name, passed, _ in results if not passed]
    if failed:
        return f"verify suites failed: {failed}"
    if text_a != text_b:
        return "verify text differs between runs"
    return None
