"""Integer reflections of the Farey tessellation and orbit reduction.

Edges of the tessellation join slopes q/p and q'/p' with |qp' - q'p| = 1.
The reflection in such an edge is the unique determinant -1 integer
involution fixing both endpoints; its matrix is
(qp' + q'p, -2qq'; 2pp', -(qp' + q'p)).  The group generated by the edge
reflections at ∞ is infinite dihedral (folding the line into [0,1]), and
for a pivot slope r the edge reflections at r fold the gap (r1, r2)
around r onto its complement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .slopes import (
    INFINITY,
    ONE,
    ZERO,
    ParityClass,
    Slope,
    fundamental_endpoints,
    parity_vertex,
    slope_parity_class,
)

#: Defensive iteration bound for the fundamental-domain reduction; the
#: alternating fold provably terminates, so hitting this is a bug.
MAX_FOLD_ROUNDS = 10000


class CapExceededError(RuntimeError):
    """Internal iteration cap exceeded (indicates an implementation bug)."""


@dataclass(frozen=True)
class Reflection:
    """Integer Möbius involution x ↦ (a·x + b)/(c·x + d) with det = -1.

    Normalized so the first nonzero entry of (a, c) is positive; ∞ is
    handled projectively.  Entries are unbounded (near 2·p² for a fold at
    a pivot of denominator p); the slopes they produce keep Slope's bound.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if a * d - b * c != -1:
            raise ValueError(f"reflection must have determinant -1: {(a, b, c, d)}")
        if a + d != 0:
            raise ValueError(f"reflection must be an involution: {(a, b, c, d)}")
        if (a if a != 0 else c) < 0:
            a, b, c, d = -a, -b, -c, -d
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "c", c)
            object.__setattr__(self, "d", d)

    def apply(self, s: Slope) -> Slope:
        """Exact projective action; c·s + d = 0 maps to ∞."""
        x, y = s.num, s.den
        return Slope(self.a * x + self.b * y, self.c * x + self.d * y)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"({self.a},{self.b};{self.c},{self.d})"


def reflection_in_edge(alpha: Slope, beta: Slope) -> Reflection:
    """Reflection in the tessellation edge joining two Farey neighbors."""
    q, p = alpha.num, alpha.den
    q2, p2 = beta.num, beta.den
    if abs(q * p2 - q2 * p) != 1:
        raise ValueError(f"{alpha} and {beta} are not Farey neighbors")
    t = q * p2 + q2 * p
    return Reflection(t, -2 * q * q2, 2 * p * p2, -t)


#: One step of a reduction: a reflection and the image it produced.
Step = tuple[Reflection, Slope]


def _mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def fold_to_unit_interval(s: Slope) -> tuple[Slope, list[Step]]:
    """Fold a rational slope into [0, 1] by reflections fixing ∞.

    Returns the image and the steps realizing it, in application order,
    each a reflection with the image it produced.  ∞ is returned
    unchanged with no steps.
    """
    if s.is_infinite:
        return s, []
    steps: list[Step] = []
    cur = s
    while cur < ZERO or cur > ONE:
        if cur < ZERO:
            refl = reflection_in_edge(INFINITY, ZERO)  # x ↦ -x
        else:
            n = (cur.num + cur.den) // (2 * cur.den)  # ⌊(s+1)/2⌋
            refl = reflection_in_edge(INFINITY, Slope(n))  # x ↦ 2n - x
        cur = refl.apply(cur)
        steps.append((refl, cur))
    return cur, steps


def fold_at_pivot(s: Slope, r: Slope) -> tuple[Slope, list[Step]]:
    """Push s out of the open gap (r1, r2) by reflections fixing r.

    Conjugates r to ∞ by the unimodular map with columns (q, p), (q1, p1);
    the gap becomes the complement of a unit strip, where the fold is
    plain integer arithmetic.  Needs s in (r1, r2) with s != r; the image
    lies outside the open gap (possibly at an endpoint or at ∞).  Returns
    the image and the steps, as fold_to_unit_interval does.
    """
    r1, r2 = fundamental_endpoints(r)
    if s.is_infinite or s == r or not (r1 < s < r2):
        raise ValueError(f"{s} is not in the open gap ({r1}, {r2}) around {r}")
    q, p = r.num, r.den
    q1, p1 = r1.num, r1.den
    co = (q, q1, p, p1)  # maps ∞ ↦ r, 0 ↦ r1, -1 ↦ r2; determinant ±1
    adj = (p1, -q1, -p, q)
    # t = conjugated image of s (the overall ±det factor cancels).
    tx = p1 * s.num - q1 * s.den
    ty = -p * s.num + q * s.den
    if ty < 0:
        tx, ty = -tx, -ty
    # Fold t into [-1, 0] with reflections about integer axes.
    k, rem = divmod(tx, 2 * ty)
    axes = [k] if rem <= ty else [k + 1, 0]
    steps: list[Step] = []
    cur = s
    for m in axes:
        refl = Reflection(*_mat_mul(_mat_mul(co, (-1, 2 * m, 0, 1)), adj))
        cur = refl.apply(cur)
        steps.append((refl, cur))
    if not cur.is_infinite and r1 < cur < r2:
        raise AssertionError(f"pivot fold failed to leave the gap: {s} -> {cur}")
    return cur, steps


@dataclass(frozen=True)
class ReductionTrace:
    """A slope, the reflections applied to it, and where it landed."""

    start: Slope
    steps: tuple[Step, ...]
    result: Slope

    def to_json_obj(self) -> dict:
        return {
            "start": str(self.start),
            "steps": [
                {"matrix": list(refl.entries()), "image": str(image)}
                for refl, image in self.steps
            ],
            "result": str(self.result),
        }


def reduce_to_fundamental(s: Slope, r: Slope) -> ReductionTrace:
    """Carry s into I1 ∪ I2 ∪ {∞, r} for 0 < r < 1.

    Alternates folding into [0,1] (reflections fixing ∞) with folding out
    of the gap (r1, r2) (reflections fixing r).  The landing point is the
    unique representative of the orbit of s in the fundamental set, so it
    does not depend on the fold order.
    """
    if not (ZERO < r < ONE):
        raise ValueError(f"reduction needs 0 < r < 1, got {r}")
    r1, r2 = fundamental_endpoints(r)
    steps: list[Step] = []
    cur = s
    for _ in range(MAX_FOLD_ROUNDS):
        if cur.is_infinite or cur == r or (ZERO <= cur <= r1) or (r2 <= cur <= ONE):
            return ReductionTrace(s, tuple(steps), cur)
        if cur < ZERO or cur > ONE:
            cur, more = fold_to_unit_interval(cur)
        else:
            cur, more = fold_at_pivot(cur, r)
        steps.extend(more)
    raise CapExceededError(f"reduction of {s} at {r} exceeded {MAX_FOLD_ROUNDS} rounds")


class Route(enum.Enum):
    """Which branch of the decision applied."""

    GENERIC = "GENERIC"
    R_INTEGER = "R_INTEGER"
    R_INFINITY = "R_INFINITY"


class Verdict(NamedTuple):
    """Outcome of a null-homotopy decision: whether s lies in Γ̂_r · {r, ∞},
    the orbit representative, the certifying reduction and the branch
    that decided it."""

    s: Slope
    r: Slope
    answer: bool
    canonical_representative: Slope
    trace: ReductionTrace
    route: Route

    def to_json_obj(self) -> dict:
        return {
            "s": str(self.s),
            "r": str(self.r),
            "answer": self.answer,
            "representative": str(self.canonical_representative),
            "route": self.route.value,
            "trace": self.trace.to_json_obj(),
        }


def classify_orbit(s: Slope, r: Slope) -> Verdict:
    """Decide s ∈ Γ̂_r · {r, ∞} together with the certifying reduction.

    r is first folded into [0, 1] by reflections fixing ∞ (legitimate:
    they lie in Γ̂_r and fix ∞), transporting s by the same reflections.
    Then: r = ∞ compares canonical forms under the ∞-stabilizer; integer
    r uses the parity classes (the reflection group is then the full
    edge-reflection group); otherwise s is reduced to the fundamental set
    of Γ̂_r and compared against {r, ∞}.
    """
    r_img, fold = fold_to_unit_interval(r)
    steps: list[Step] = []
    cur = s
    for refl, _ in fold:  # the images are those of r; s is carried along
        cur = refl.apply(cur)
        steps.append((refl, cur))
    if r.is_infinite:
        rep, more = fold_to_unit_interval(cur)
        steps.extend(more)
        trace = ReductionTrace(s, tuple(steps), rep)
        return Verdict(s, r, rep.is_infinite, rep, trace, Route.R_INFINITY)
    if r_img == ZERO or r_img == ONE:
        cls = slope_parity_class(cur)
        member = cls in (slope_parity_class(r_img), ParityClass.INFINITY)
        trace = ReductionTrace(s, tuple(steps), cur)
        return Verdict(s, r, member, parity_vertex(cls), trace, Route.R_INTEGER)
    inner = reduce_to_fundamental(cur, r_img)
    steps.extend(inner.steps)
    rep = inner.result
    trace = ReductionTrace(s, tuple(steps), rep)
    return Verdict(s, r, rep.is_infinite or rep == r_img, rep, trace, Route.GENERIC)
