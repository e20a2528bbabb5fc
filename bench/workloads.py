"""Seeded input generators for the three workloads.

Each generator is an endless, deterministic stream of rounds (lists of
inputs): the same seed gives the same inputs, and a run always finishes the
round it has started.  Sizes and kinds are spread so that every run gets
nearly the workload's nominal mix, which keeps medians and tail percentiles
steady from one seed to the next while every individual input still changes
with the seed:

* queries: one request per round; each property that sets a request's cost
  (regime, kind, class of r, word length, cusp depth and slope,
  denominator) comes from its own Kronecker sequence frac(offset + i·alpha)
  with a seeded offset and rationally independent alphas;
* structure and sweep: every round is the same fixed design of shapes
  (sizes, ratios, slope classes), jittered and shuffled by the seed.

Where an answer is known by construction it travels with the input, as
``expect = (member, landing)``: s = g·x for a word g in the generators of
the group Γ̂_r and x in {r, ∞} (a member) or in the fundamental intervals
I1 ∪ I2 (not a member, and x is the unique landing point).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from farey import (
    INF,
    apply,
    edge_reflection,
    fold_into_unit,
    mul,
    parents,
    power,
    slope,
    text,
)

#: Tail percentile per workload: a percentile that keeps at least ten
#: samples beyond it at the operation counts a 20 s run reaches, and that
#: falls inside a cluster of costs rather than between two: the `cusp`
#: regime on queries, and on sweep the middle of the costliest twelfth of
#: each round (the scans of 1/2 in epi mode).
TAIL_PERCENTILE = {"queries": 99.0, "structure": 90.0, "sweep": 96.0}

#: Fractional parts of square roots of distinct primes: rationally independent.
ALPHAS = [math.sqrt(n) % 1.0 for n in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]

#: Largest numerator or denominator a gap word may build.
GAP_LIMIT = 2 ** 40
#: Every slope stays below this so it fits the library's 64-bit guard.
SLOPE_LIMIT = 2 ** 62
#: Powers of the cusp parabolic in `deep` requests.  Reducing P^n·x takes
#: about 2n fold rounds, so n <= 4000 stays inside the library's cap of
#: 10^4 rounds (MAX_FOLD_ROUNDS) with a margin of a fifth.
DEEP_DEPTH = (1200, 4000)


class Kronecker:
    """u_i = frac(offset + i * alpha): a seeded low-discrepancy stream."""

    def __init__(self, rng: random.Random, alpha: float):
        self.u = rng.random()
        self.alpha = alpha

    def __call__(self) -> float:
        self.u = (self.u + self.alpha) % 1.0
        return self.u


def pick(u: float, table: list[tuple[str, float]]) -> str:
    """The label whose cumulative share first exceeds u."""
    acc = 0.0
    for label, share in table:
        acc += share
        if u < acc:
            return label
    return table[-1][0]


def log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def coprime_numerator(rng: random.Random, p: int, lo: int = 1) -> int:
    while True:
        q = rng.randint(lo, p - 1)
        if math.gcd(q, p) == 1:
            return q


def near_coprime(q: int, p: int) -> int:
    """The numerator in [1, p - 1] closest to q that is coprime to p."""
    for d in range(p):
        for cand in (q - d, q + d):
            if 0 < cand < p and math.gcd(cand, p) == 1:
                return cand
    raise ValueError(f"no numerator coprime to {p}")


def random_fraction(rng: random.Random, lo, hi, max_den: int):
    """A random slope in the closed interval [lo, hi] with den <= max_den."""
    while True:
        b = rng.randint(1, max_den)
        a_lo = -((-lo[0] * b) // lo[1])  # ceil(lo * b)
        a_hi = (hi[0] * b) // hi[1]
        if a_lo <= a_hi:
            return slope(rng.randint(a_lo, a_hi), b)


# --- the group Γ̂_r and its fundamental set, for r already folded into [0, 1] or ∞


@dataclass(frozen=True)
class Group:
    """Generators of Γ̂_r for r in [0, 1] ∪ {∞}, and where orbits land."""

    r: tuple[int, int]
    gens: tuple[tuple[int, int, int, int], ...]
    route: str  # "generic" | "integer" | "infinity"


REFLECT_0 = edge_reflection(INF, (0, 1))  # x -> -x
REFLECT_1 = edge_reflection(INF, (1, 1))  # x -> 2 - x


def group_of(r_unit: tuple[int, int]) -> Group:
    if r_unit == INF:
        return Group(r_unit, (REFLECT_0, REFLECT_1), "infinity")
    if r_unit in ((0, 1), (1, 1)):
        return Group(r_unit, (REFLECT_0, REFLECT_1, edge_reflection((0, 1), (1, 1))),
                     "integer")
    r1, r2 = parents(r_unit)
    return Group(r_unit, (REFLECT_0, REFLECT_1, edge_reflection(r_unit, r1),
                          edge_reflection(r_unit, r2)), "generic")


def fundamental_point(rng: random.Random, g: Group, member: bool, cusp=None):
    """A point x of the fundamental set with a known answer (never the cusp,
    if one is given)."""
    if member:
        return g.r if g.route == "integer" or rng.random() < 0.5 else INF
    if g.route == "integer":
        return (1, 1) if g.r == (0, 1) else (0, 1)
    if g.route == "infinity":
        return random_fraction(rng, (0, 1), (1, 1), 1000)
    r1, r2 = parents(g.r)
    sides = [((0, 1), r1), (r2, (1, 1))]
    if cusp is not None:
        sides = [side for side in sides if cusp not in side]
    lo, hi = rng.choice(sides)
    return random_fraction(rng, lo, hi, 1000 if cusp is None else 12)


def word_image(rng: random.Random, g: Group, x, length: int, limit: int):
    """g_1 ... g_length · x for random generators, no generator twice in a
    row, stopping before any entry would pass the limit."""
    last = None
    for _ in range(length):
        choices = [m for m in g.gens if m is not last]
        m = rng.choice(choices)
        y = apply(m, x)
        if max(abs(y[0]), y[1]) > limit:
            break
        x, last = y, m
    return x


def cusp_parabolic(g: Group):
    """The product of the two generators that share a cusp at 0 or 1, and
    that cusp."""
    r1, r2 = parents(g.r)
    if r1 == (0, 1):
        return mul(REFLECT_0, edge_reflection(g.r, r1)), (0, 1)
    if r2 == (1, 1):
        return mul(REFLECT_1, edge_reflection(g.r, r2)), (1, 1)
    raise ValueError(f"{text(g.r)} shares no cusp with infinity")


def cusp_image(g: Group, x, n: int, limit: int):
    """P^n · x for the cusp parabolic P, halving n until every entry is
    within the limit."""
    P, _ = cusp_parabolic(g)
    while True:
        y = apply(power(P, n), x)
        if max(abs(y[0]), y[1]) <= limit or n == 1:
            return y
        n //= 2


# --- r drawn from all of Q ∪ {∞}


def draw_generic(rng: random.Random, max_p: int) -> tuple[int, int]:
    """A slope q/p in (0, 1) whose continued fraction is neither [m] nor [1, q]."""
    while True:
        p = log_uniform(rng.random(), 5, max_p)
        q = coprime_numerator(rng, p)
        if 1 < q < p - 1:
            return (q, p)


def draw_r_unit(rng: random.Random, cls: str) -> tuple[int, int]:
    if cls == "generic":
        return draw_generic(rng, 2000)
    if cls == "unit":
        return (1, rng.randint(2, 60))
    if cls == "pred":
        q = rng.randint(1, 60)
        return (q, q + 1)
    if cls == "integer":
        return (rng.randint(0, 1), 1)
    return INF


def transport(rng: random.Random, shifted: bool):
    """A map x -> ±x + 2n of the ∞-dihedral group (identity if not shifted).

    It lies in Γ̂_r for every r, so (h·s, h·r) has the answer of (s, r)."""
    if not shifted:
        return (1, 0, 0, 1)
    eps = rng.choice((1, -1))
    n = rng.randint(-3, 3)
    return (eps, 2 * n, 0, 1)


R_CLASSES = [("generic", 0.45), ("unit", 0.15), ("pred", 0.15),
             ("integer", 0.15), ("infinity", 0.10)]
#: reduce_to_fundamental takes r in (0, 1) only, so reduce requests draw r
#: from the classes inside it and move s alone (see `queries`).
REDUCE_R_CLASSES = [("generic", 0.6), ("unit", 0.2), ("pred", 0.2)]
REGIMES = [("outside", 0.45), ("gap", 0.398), ("cusp", 0.15), ("deep", 0.002)]
KINDS = [("null", 0.65), ("epi", 0.10), ("reduce", 0.10), ("cli", 0.15)]
CLI_VERBS = ["null", "epi", "reduce"]


@dataclass(frozen=True)
class Query:
    kind: str  # null | epi | reduce | cli
    verb: str  # the decision asked for (cli requests carry one of null/epi/reduce)
    regime: str
    s: tuple[int, int]
    r: tuple[int, int]
    expect: tuple | None  # (member, landing or None) for s = g·x
    separator: bool = True  # cli: put "--" before the slopes, so negatives parse

    def argv(self) -> list[str]:
        argv = ["--json", self.verb]
        if self.verb == "null":
            argv.append("--trace")
        if self.separator:
            argv.append("--")
        return argv + [text(self.s), text(self.r)]


def cusp_request(rng: random.Random, depth: int, limit: int, u_m: float, u_side: float):
    """(r, s, expect) for s = P^depth·x at the cusp 0 of r = 1/m or the cusp
    1 of r = (m - 1)/m, with m = 2..8 and the side set by u_m and u_side in
    [0, 1); small m keeps the parabolic slow, so the reduction takes about
    2·depth rounds."""
    m = 2 + int(7 * u_m)
    r_unit = (1, m) if u_side < 0.5 else (m - 1, m)
    g = group_of(r_unit)
    member = rng.random() < 0.5
    x = fundamental_point(rng, g, member, cusp_parabolic(g)[1])
    return r_unit, cusp_image(g, x, depth, limit), (member, None if member else x)


def queries(seed: int) -> Iterator[list[Query]]:
    """Single decision requests; no request is outside the library's domain.

    r ranges over all of Q ∪ {∞} except on reduce requests, whose r lies in
    (0, 1): there a map h = ±x + 2n moves s alone, which keeps the landing
    point because h lies in Γ̂_r.  Elsewhere h moves s and r together.
    """
    rng = random.Random(seed)
    streams = [Kronecker(rng, alpha) for alpha in ALPHAS]
    regime_u, class_u, depth_u, length_u, den_u, deep_u, m_u, side_u = streams[:8]
    # Each regime draws its kinds from its own stream, so that the rare
    # costly regimes get the nominal mix of kinds too.
    kind_u = dict(zip((name for name, _ in REGIMES), streams[8:]))
    while True:
        regime = pick(regime_u(), REGIMES)
        kind = pick(kind_u[regime](), KINDS)
        verb = rng.choice(CLI_VERBS) if kind == "cli" else kind
        classes = REDUCE_R_CLASSES if verb == "reduce" else R_CLASSES
        expect = None
        if regime == "cusp":
            r_unit, s_unit, expect = cusp_request(
                rng, log_uniform(depth_u(), 30, 1000), 10 ** 6, m_u(), side_u())
        elif regime == "deep":
            r_unit, s_unit, expect = cusp_request(
                rng, log_uniform(deep_u(), *DEEP_DEPTH), SLOPE_LIMIT, m_u(), side_u())
        else:
            r_unit = draw_r_unit(rng, pick(class_u(), classes))
            if regime == "outside":
                den = log_uniform(den_u(), 1, 2 ** 40)
                s_unit = slope(rng.randint(-3 * den, 3 * den), den)
            else:
                g = group_of(r_unit)
                member = rng.random() < 0.5
                x = fundamental_point(rng, g, member)
                s_unit = word_image(rng, g, x, 1 + int(60 * length_u()), GAP_LIMIT)
                expect = (member, None if member else x)
        h = transport(rng, rng.random() < 0.5)
        s = apply(h, s_unit)
        r = r_unit if verb == "reduce" or r_unit == INF else apply(h, r_unit)
        if max(abs(s[0]), s[1]) > SLOPE_LIMIT:
            s, r = s_unit, r_unit  # keep the slope inside the 64-bit domain
        yield [Query(kind, verb, regime, s, r, expect)]


def known_defect_probes(seed: int) -> list[tuple[str, Query]]:
    """Requests that the library refuses at the time of writing, each under
    the name of its defect.  They are not part of any timed workload.

    * cap_exceeded: cusp slopes P^n·x with 16n from 10^5 to 2^62, whose
      reduction needs 2n >= 12500 rounds, more than the library's cap;
    * reduce_refuses_r: reduce_to_fundamental with r outside (0, 1);
    * cli_negative_slope: a negative slope given to the CLI without "--".
    """
    rng = random.Random(seed ^ 0xDEF)
    probes = []
    for lo, hi in ((10 ** 5, 10 ** 7), (10 ** 7, 2 ** 40), (2 ** 40, SLOPE_LIMIT)):
        depth = log_uniform(rng.random(), lo, hi) // 16
        r, s, expect = cusp_request(rng, depth, SLOPE_LIMIT, rng.random(), rng.random())
        probes.append(("cap_exceeded", Query("null", "null", "probe", s, r, expect)))
    r_unit = draw_generic(rng, 2000)
    g = group_of(r_unit)
    x = fundamental_point(rng, g, False)
    s = word_image(rng, g, x, rng.randint(1, 60), GAP_LIMIT)
    h = (-1, 2 * rng.randint(-3, 3), 0, 1)  # x -> 2n - x, so h·r is outside (0, 1)
    probes.append(("reduce_refuses_r",
                   Query("reduce", "reduce", "probe", apply(h, s), apply(h, r_unit),
                         (False, x))))
    s = (-abs(s[0]) or -1, s[1])
    probes.append(("cli_negative_slope",
                   Query("cli", "null", "probe", s, r_unit, None, separator=False)))
    return probes


#: Slopes per structure round: one per log-spaced stratum of p in [10, 10^5].
#: A round's costs form one cluster per stratum.  With 25 strata the median
#: and the 90th percentile fall mid-cluster (ranks 12.5 and 22.5 of 25), not
#: on the gap between two clusters, where timing noise makes them jump.
STRUCTURE_ROUND = 25


def structure(seed: int) -> Iterator[list[tuple[int, int]]]:
    """Rounds of slopes q/p, p log-uniform over [10, 10^5] by strata.

    Stratum i holds p near 10^(1 + 4(i + 1/2)/K), jittered by a tenth of a
    stratum, with q/p near a fixed ratio in (0, 1/2]; that covers every link
    up to mirror image, since q/p and (p - q)/p present mirror images.  The
    cost of an analysis grows with p and with q, so fixing the pair
    (stratum, ratio) fixes the cost profile of every round.
    """
    rng = random.Random(seed)
    k = STRUCTURE_ROUND
    ratios = [0.5 * ((0.5 + i * ALPHAS[2]) % 1.0) for i in range(k)]
    while True:
        round_ = []
        for i in range(k):
            u = (i + 0.5 + rng.uniform(-0.1, 0.1)) / k
            p = log_uniform(u, 10, 100_000)
            q = near_coprime(max(1, round(ratios[i] * p)), p)
            round_.append((q, p))
        rng.shuffle(round_)
        yield round_


@dataclass(frozen=True)
class ScanJob:
    r: tuple[int, int]
    max_den: int
    mode: str  # null | epi


#: The ∞-translations x -> ±x + 2n given to the six slopes of a sweep round;
#: folding a translated r costs every candidate a little, and the translated
#: 1/2 is the costliest scan, so each round gets the same multiset.
SWEEP_TRANSPORTS = [(1, 0, 0, 1)] * 3 + [(-1, 0, 0, 1), (1, 2, 0, 1), (-1, 2, 0, 1)]


def sweep(seed: int) -> Iterator[list[ScanJob]]:
    """Rounds of scan jobs in both modes for the same six shapes of slope:
    the dense 1/2, 1/3, a seeded 1/m, a seeded q/(q+1) and two generic
    slopes, each moved by one of SWEEP_TRANSPORTS, at N in [38, 42].

    Shape i takes transport (i + k) mod 6 and N = 38 + (2i + k) mod 5 in
    round k, from a seeded k: over 30 rounds every shape meets every pair
    of transport and N once, so the mix of costs (a scan costs about N²)
    is the same on every seed and the order of jobs is seeded."""
    rng = random.Random(seed)
    k = rng.randrange(30)
    while True:
        q = rng.randint(2, 12)
        shapes = [(1, 2), (1, 3), (1, rng.randint(4, 12)), (q, q + 1),
                  draw_generic(rng, 200), draw_generic(rng, 200)]
        round_ = []
        for i, r_unit in enumerate(shapes):
            r = apply(SWEEP_TRANSPORTS[(i + k) % 6], r_unit)
            n = 38 + (2 * i + k) % 5
            round_ += [ScanJob(r, n, "null"), ScanJob(r, n, "epi")]
        rng.shuffle(round_)
        k += 1
        yield round_


def setup_argv(workload: str, seed: int) -> list[str]:
    """The CLI form of a typical first request: a gap query, the structure
    of a slope at the median size, or a scan of a generic slope."""
    rng = random.Random(seed ^ 0x5E7)
    if workload == "queries":
        r_unit = draw_r_unit(rng, "generic")
        g = group_of(r_unit)
        x = fundamental_point(rng, g, rng.random() < 0.5)
        s = word_image(rng, g, x, rng.randint(1, 60), GAP_LIMIT)
        s, _ = fold_into_unit(s)
        return ["null", text(s), text(r_unit), "--trace"]
    if workload == "structure":
        p = log_uniform(rng.random(), 500, 2000)
        return ["seq", text((coprime_numerator(rng, p), p))]
    return ["scan", text(draw_generic(rng, 200)), "--max-den", "40"]
