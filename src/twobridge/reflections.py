"""Integer reflections of the Farey tessellation and orbit reduction.

Edges of the tessellation join slopes q/p and q'/p' with |qp' - q'p| = 1.
The reflection in such an edge is the unique determinant -1 integer
involution fixing both endpoints; its matrix is
(qp' + q'p, -2qq'; 2pp', -(qp' + q'p)).  The edge reflections at a vertex
v (∞, or a slope in (0, 1)) form an infinite dihedral group.  A frame, a
unimodular map taking ∞ to v, turns them into t ↦ 2m - t, and one fold
in that frame carries any slope onto the frame's image of [-1, 0]: [0, 1]
at ∞, the complement of the gap (r1, r2) at r.  Alternating the folds at
∞ and at r reduces a slope into the fundamental set of Γ̂_r.

When r = 1/m or (m-1)/m, r shares the cusp 0 or 1 with ∞, and the two
folds there compose to a parabolic that moves a slope near the cusp one
step per pair of folds.  The reduction emits such a run in closed form:
one division gives its length, and the steps it records are the ones the
alternating folds would record, a single reflection each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .slopes import (
    INFINITY,
    ONE,
    ZERO,
    Slope,
    fundamental_endpoints,
    parity_vertex,
)

#: Bound on the folds that move s in one fundamental-domain reduction.  The
#: alternating fold terminates, but near the cusps 0 and 1 it takes one
#: fold per step of a parabolic, so long cusp reductions hit this bound.
#: A cusp run is emitted in closed form yet counts every fold it stands
#: for, and raises before building any step if it would reach the bound.
MAX_FOLD_ROUNDS = 2 ** 16


class CapExceededError(RuntimeError):
    """A reduction reached MAX_FOLD_ROUNDS folds without landing."""


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


#: A vertex frame: a unimodular matrix (a, b; c, d) taking ∞ to the
#: vertex and [-1, 0] onto the closed arc that a fold at the vertex lands in.
Frame = tuple[int, int, int, int]


def vertex_frame(v: Slope) -> Frame:
    """The frame of the vertex v, which must be ∞ or lie in (0, 1).

    At ∞ it is x ↦ -x, taking [-1, 0] onto [0, 1].  At v = q/p with
    fundamental endpoints v1 = q1/p1 < v < v2 its columns are (q, p) and
    (q1, p1), so ∞ ↦ v, 0 ↦ v1 and -1 ↦ v2, and [-1, 0] goes onto the
    complement of the gap (v1, v2).  Any other v raises ValueError.
    """
    if v.is_infinite:
        return (-1, 0, 0, 1)
    v1, _ = fundamental_endpoints(v)
    return (v.num, v1.num, v.den, v1.den)


def _pull(s: Slope, frame: Frame) -> tuple[int, int]:
    """frame⁻¹·s as a pair (x, y) with y >= 0; y = 0 exactly at the vertex.

    Uses the adjugate, whose overall ±det factor cancels in x/y.
    """
    a, b, c, d = frame
    x = d * s.num - b * s.den
    y = a * s.den - c * s.num
    return (-x, -y) if y < 0 else (x, y)


def fold(s: Slope, frame: Frame) -> tuple[Slope, list[Step]]:
    """Fold s about the vertex frame·∞ onto frame·[-1, 0].

    In the frame's coordinate t = frame⁻¹·s the reflections fixing the
    vertex are t ↦ 2m - t, and one divmod picks the axes that carry t into
    [-1, 0]: m = k, or m = k + 1 and then 0.  Returns the image and the
    steps in application order, each a reflection with the image it
    produced.  s comes back with no steps when it is the vertex or already
    lies on the arc.
    """
    tx, ty = _pull(s, frame)
    if ty == 0 or -ty <= tx <= 0:
        return s, []
    k, rem = divmod(tx, 2 * ty)
    a, b, c, d = frame
    steps: list[Step] = []
    cur = s
    for m in ([k] if rem <= ty else [k + 1, 0]):
        # frame · (t ↦ 2m - t) · adj(frame), written out.
        u = a * d + b * c + 2 * m * a * c
        refl = Reflection(-u, 2 * a * (b + m * a), -2 * c * (d + m * c), u)
        cur = refl.apply(cur)
        steps.append((refl, cur))
    tx, ty = _pull(cur, frame)
    if not -ty <= tx <= 0:
        raise AssertionError(f"fold about {frame} failed to reach its arc: {s} -> {cur}")
    return cur, steps


#: The frame at ∞, x ↦ -x.
_AT_INFINITY = vertex_frame(INFINITY)


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

    Alternates the folds about ∞ and about r until neither moves s: the
    points both leave in place are exactly I1 ∪ I2 ∪ {∞, r}.  The landing
    point is the unique representative of the orbit of s in that
    fundamental set, so it does not depend on the fold order.
    """
    if not (ZERO < r < ONE):
        raise ValueError(f"reduction needs 0 < r < 1, got {r}")
    return _reduce(s, r, vertex_frame(r))


def _reduce(s: Slope, r: Slope, frame: Frame) -> ReductionTrace:
    """reduce_to_fundamental for a checked r and its frame."""
    cur, steps = fold(s, _AT_INFINITY)
    rounds = 1 if steps else 0  # folds that moved s
    cusp = r.num == 1 or r.den - r.num == 1  # r1 = 0 or r2 = 1
    frames = (frame, _AT_INFINITY)
    while True:
        if cusp:
            cur, rounds = _cusp_run(s, r, cur, steps, rounds)
        for f in frames:
            cur, more = fold(cur, f)
            if not more:  # the other frame leaves cur in place too
                return ReductionTrace(s, tuple(steps), cur)
            steps.extend(more)
            rounds += 1
            if rounds == MAX_FOLD_ROUNDS:
                raise _cap_exceeded(s, r)


def _cusp_run(s: Slope, r: Slope, cur: Slope, steps: list[Step],
              rounds: int) -> tuple[Slope, int]:
    """Append the run of folds that cur starts at a cusp r shares with ∞.

    Called before a fold at r = 1/m.  For cur = a/b with b >= (2m+1)·a > 0
    the next 2j folds, j = ⌊(b - (2m+1)·a)/(2m·a)⌋ + 1, each use one
    reflection: in the edge (0, r), then x ↦ -x.  Their product is a
    parabolic fixing 0, and the i-th pair lands on -a/d and a/d with
    d = b - 2m·i·a.  At r = (m-1)/m the same holds in the coordinate 1 - x,
    with the edge (r, 1) and x ↦ 2 - x.  Returns the new point and round
    count, or cur and rounds unchanged when no run starts at cur.
    """
    m2 = 2 * r.den
    num, b = cur.num, cur.den
    if r.num == 1 and 0 < (m2 + 1) * num <= b:
        a, c, cusp = num, 0, ZERO
    elif r.den - r.num == 1 and 0 < (m2 + 1) * (b - num) <= b:
        a, c, cusp = b - num, 1, ONE
    else:
        return cur, rounds
    j = (b - (m2 + 1) * a) // (m2 * a) + 1
    if rounds + 2 * j >= MAX_FOLD_ROUNDS:
        raise _cap_exceeded(s, r)
    at_r = reflection_in_edge(r, cusp)
    at_infinity = reflection_in_edge(INFINITY, cusp)
    sa = a if c == 0 else -a  # cur = c + sa/b, the cusp plus a signed offset
    step = m2 * a
    for d in range(b - step, b - (j + 1) * step, -step):
        steps.append((at_r, Slope(c * d - sa, d)))
        cur = Slope(c * d + sa, d)
        steps.append((at_infinity, cur))
    tx, ty = _pull(cur, _AT_INFINITY)
    if not -ty <= tx <= 0:
        raise AssertionError(f"cusp run of {s} at {r} failed to reach [0, 1]: {cur}")
    return cur, rounds + 2 * j


def _cap_exceeded(s: Slope, r: Slope) -> CapExceededError:
    return CapExceededError(f"reduction of {s} at {r} exceeded {MAX_FOLD_ROUNDS} rounds")


@lru_cache(maxsize=128)
def _folded_frame(r: Slope) -> tuple[Slope, Frame]:
    """A non-integer r folded into (0, 1) about ∞, and the frame there.

    Cached so that a scan or an epimorphism test, which decide many s
    against one r, fold r and build its frame once."""
    r_img, _ = fold(r, _AT_INFINITY)
    return r_img, vertex_frame(r_img)


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

    r = ∞: s is folded into [0, 1] about ∞ and is a member only at ∞.
    Integer r: Γ̂_r is the full edge-reflection group, whose orbits are
    fixed by the parity vertex 0, 1 or ∞, so the vertex of s decides, with
    an empty trace.  Any other r alone is folded into (0, 1) about ∞, by
    some g that fixes ∞ and lies in Γ̂_r; then Γ̂_{g·r} = Γ̂_r, so s itself
    is reduced to the fundamental set of Γ̂_{g·r} and compared against
    {g·r, ∞}.
    """
    if r.is_infinite:
        rep, steps = fold(s, _AT_INFINITY)
        trace = ReductionTrace(s, tuple(steps), rep)
        return Verdict(s, r, rep.is_infinite, rep, trace, Route.R_INFINITY)
    if r.den == 1:
        v = parity_vertex(s)
        member = v in (parity_vertex(r), INFINITY)
        trace = ReductionTrace(s, (), s)
        return Verdict(s, r, member, v, trace, Route.R_INTEGER)
    r_img, frame = _folded_frame(r)
    trace = _reduce(s, r_img, frame)
    rep = trace.result
    return Verdict(s, r, rep.is_infinite or rep == r_img, rep, trace, Route.GENERIC)
