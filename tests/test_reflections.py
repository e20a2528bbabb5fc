import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from itertools import cycle

import pytest
from hypothesis import given, strategies as st

from twobridge.slopes import INFINITY, ONE, ZERO, Slope, farey_interval, fundamental_endpoints
from twobridge import reflections, verification
from twobridge.decide import ScanMode, scan
from twobridge.reflections import (
    MAX_FOLD_ROUNDS,
    CapExceededError,
    Reflection,
    ReductionTrace,
    classify_orbit,
    fold,
    reduce_to_fundamental,
    reflection_in_edge,
    vertex_frame,
)
from twobridge.verification import orbit_closure, triangle_orbit_closure


def test_reflection_examples():
    m = reflection_in_edge(INFINITY, ZERO)
    assert m.entries() == (1, 0, 0, -1)  # x -> -x
    assert m.apply(Slope(2, 5)) == Slope(-2, 5)

    m = reflection_in_edge(Slope(1, 3), ZERO)
    assert m.entries() == (1, 0, 6, -1)
    assert m.apply(INFINITY) == Slope(1, 6)
    assert m.apply(Slope(1, 3)) == Slope(1, 3)
    assert m.apply(ZERO) == ZERO

    m = reflection_in_edge(INFINITY, ONE)
    assert m.apply(Slope(0, 1)) == Slope(2)  # x -> 2 - x
    assert m.apply(INFINITY) == INFINITY


def test_reflection_validation():
    with pytest.raises(ValueError):
        reflection_in_edge(Slope(1, 3), Slope(1, 5))  # not neighbors
    with pytest.raises(ValueError):
        Reflection(1, 0, 0, 1)  # determinant +1
    with pytest.raises(ValueError):
        Reflection(2, 1, 3, 1)  # not an involution


def test_reflection_sign_normalization():
    assert Reflection(-1, 0, -6, 1) == Reflection(1, 0, 6, -1)


# Stern-Brocot descent gives arbitrary Farey neighbor pairs.
@given(st.lists(st.booleans(), max_size=12))
def test_edge_reflections_are_involutions(path):
    a, b = (Slope(0, 1), Slope(1, 0))
    for left in path:
        med = Slope(a.num + b.num, a.den + b.den)
        a, b = (a, med) if left else (med, b)
    m = reflection_in_edge(a, b)
    assert m.apply(a) == a
    assert m.apply(b) == b
    probe = Slope(5, 7)
    assert m.apply(m.apply(probe)) == probe


def _replays(s, img, steps):
    cur = s
    for refl, image in steps:
        cur = refl.apply(cur)
        assert image == cur
    return cur == img


def test_fold_to_unit_interval():
    at_infinity = vertex_frame(INFINITY)
    img, steps = fold(Slope(7, 3), at_infinity)
    assert img == Slope(1, 3)
    assert _replays(Slope(7, 3), img, steps)

    assert fold(Slope(-2, 5), at_infinity)[0] == Slope(2, 5)
    assert fold(Slope(1, 2), at_infinity) == (Slope(1, 2), [])
    assert fold(INFINITY, at_infinity) == (INFINITY, [])
    for k in range(-20, 21):
        s = Slope(3 * k + 1, 3)
        img, steps = fold(s, at_infinity)
        assert ZERO <= img <= ONE and len(steps) <= 2
        assert all(refl.apply(INFINITY) == INFINITY for refl, _ in steps)
        assert _replays(s, img, steps)


def test_fold_at_pivot():
    frame = vertex_frame(Slope(1, 3))
    assert frame == (1, 0, 3, 1)  # ∞ ↦ 1/3, 0 ↦ 0, -1 ↦ 1/2
    img, steps = fold(Slope(1, 6), frame)
    assert img == INFINITY
    assert [(refl.entries(), image) for refl, image in steps] == [
        ((1, 0, 6, -1), INFINITY)]
    # The vertex and the points off the open gap (0, 1/2) stay in place.
    for s in (Slope(1, 3), Slope(1, 2), ZERO, Slope(3, 4), INFINITY, Slope(-5)):
        assert fold(s, frame) == (s, [])
    for v in (ZERO, ONE, Slope(3, 2), Slope(-1, 3)):
        with pytest.raises(ValueError):
            vertex_frame(v)


def test_fold_at_pivot_leaves_gap():
    for p in range(2, 30):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            r = Slope(q, p)
            r1, r2 = fundamental_endpoints(r)
            frame = vertex_frame(r)
            for s_den in range(2, 25):
                for s_num in range(1, s_den):
                    if math.gcd(s_num, s_den) != 1:
                        continue
                    s = Slope(s_num, s_den)
                    if s == r or not (r1 < s < r2):
                        continue
                    img, steps = fold(s, frame)
                    assert img.is_infinite or not (r1 < img < r2)
                    assert 1 <= len(steps) <= 2
                    assert all(refl.apply(r) == r for refl, _ in steps)
                    assert _replays(s, img, steps)


def test_reduce_to_fundamental_examples():
    tr = reduce_to_fundamental(INFINITY, Slope(1, 3))
    assert tr.result == INFINITY and tr.steps == ()

    tr = reduce_to_fundamental(Slope(1, 6), Slope(1, 3))
    assert tr.result == INFINITY
    assert [refl.entries() for refl, _ in tr.steps] == [(1, 0, 6, -1)]

    tr = reduce_to_fundamental(Slope(1, 2), Slope(1, 3))
    assert tr.result == Slope(1, 2) and tr.steps == ()


def test_reduce_trace_json():
    tr = reduce_to_fundamental(Slope(1, 6), Slope(1, 3))
    assert tr.to_json_obj() == {
        "start": "1/6",
        "steps": [{"matrix": [1, 0, 6, -1], "image": "inf"}],
        "result": "inf",
    }


def test_reduce_round_cap_boundary():
    # At the cusp 0 of r = 1/2 each fold moves 1/n by one step of a
    # parabolic: 1/131071 needs 65,535 folds, one below the cap of 2^16;
    # 1/131075 needs more.
    tr = reduce_to_fundamental(Slope(1, 131071), Slope(1, 2))
    assert len(tr.steps) == MAX_FOLD_ROUNDS - 1 and tr.result == ONE
    with pytest.raises(CapExceededError):
        reduce_to_fundamental(Slope(1, 131075), Slope(1, 2))


def _alternating_reference(s, r):
    # The plain alternation of the folds at ∞ and at r, one fold per
    # round, with the round cap: the reference for the cusp runs.
    at_infinity = vertex_frame(INFINITY)
    cur, steps = fold(s, at_infinity)
    rounds = 1 if steps else 0
    for frame in cycle((vertex_frame(r), at_infinity)):
        cur, more = fold(cur, frame)
        if not more:
            break
        steps.extend(more)
        rounds += 1
        if rounds == reflections.MAX_FOLD_ROUNDS:
            raise CapExceededError(
                f"reduction of {s} at {r} exceeded {reflections.MAX_FOLD_ROUNDS} rounds")
    return ReductionTrace(s, tuple(steps), cur)


def _outcome(reduce, s, r):
    try:
        trace = reduce(s, r)
    except CapExceededError as exc:
        return str(exc)
    return trace.start, [(refl.entries(), image) for refl, image in trace.steps], trace.result


def _cusp_slopes(m, rng):
    # s = P^n·x near each cusp of r = 1/m or (m-1)/m: P moves a/b to
    # a/(b + 2m·a) in the cusp coordinate (x near 0, 1 - x near 1).  Small
    # n come on both sides of each cusp; deep n, whose reference takes
    # 2n folds, on one side drawn at random.  n = 4999 puts 2n rounds just
    # below the cap, so some of these land and some raise.
    for n in (0, 1, 2, 3, 7, 60, rng.randrange(100, 4999), 4999):
        for a, b in ((1, 1), (1, 2), (2, 3), (3, 7)) if n < 100 else ((1, 2),):
            d = b + 2 * m * n * a
            near_0, near_1 = (Slope(a, d), Slope(-a, d)), (Slope(d - a, d), Slope(d + a, d))
            if n < 100:
                yield near_0 + near_1
            else:
                yield rng.choice(near_0), rng.choice(near_1)


def test_cusp_runs_match_alternating_reference(monkeypatch):
    # At a cap of 10^4 the deep cases sit just below and just above it
    # while the one-fold-per-round reference stays fast.
    monkeypatch.setattr(reflections, "MAX_FOLD_ROUNDS", 10000)
    rng = random.Random(20261019)
    for m in range(2, 13):
        for r, cusps in ((Slope(1, m), (ZERO,)), (Slope(m - 1, m), (ONE,))):
            if m == 2:
                cusps = (ZERO, ONE)
            for s_pair in _cusp_slopes(m, rng):
                for s in s_pair:
                    if (s.num < s.den // 2) == (cusps == (ONE,)):
                        continue  # near the other cusp, which r does not have
                    assert _outcome(reduce_to_fundamental, s, r) == _outcome(
                        _alternating_reference, s, r), (s, r)
            for _ in range(40):
                p = rng.randint(1, 10 ** 6)
                q = rng.choice((rng.randint(-p, 2 * p), p // rng.randint(1, 60) or 1,
                                p - p // rng.randint(1, 60)))
                s = Slope(q, p)
                assert _outcome(reduce_to_fundamental, s, r) == _outcome(
                    _alternating_reference, s, r), (s, r)


def test_deep_cusp_slope_raises_before_building_steps():
    # 2^58 rounds deep: the cap is found from the run length alone.
    for s, r in ((Slope(1, 2 ** 58 + 1), Slope(1, 2)), (Slope(2 ** 58, 2 ** 58 + 1), Slope(4, 5)),
                 (Slope(-1, 2 ** 58 + 3), Slope(1, 7))):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                reduce_to_fundamental(s, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (s, r, peak)


def test_scan_folds_r_once(monkeypatch):
    # A scan decides every candidate against one r: r is folded and its
    # frame built once, not once per candidate.
    calls = []
    frame_of = reflections.vertex_frame
    monkeypatch.setattr(reflections, "vertex_frame", lambda v: calls.append(v) or frame_of(v))
    reflections._folded_frame.cache_clear()
    for mode in ScanMode:
        assert scan(Slope(47, 37), 30, mode)
    assert calls == [Slope(27, 37)]  # 47/37 folds onto 2 - 47/37


def test_reduce_is_idempotent():
    r = Slope(2, 7)
    for den in range(1, 25):
        for num in range(-den, 2 * den + 1):
            if math.gcd(num, den) == 1:
                res = reduce_to_fundamental(Slope(num, den), r).result
                again = reduce_to_fundamental(res, r)
                assert again.result == res and again.steps == ()


def test_orbit_closure_examples():
    orb = orbit_closure(Slope(1, 3), {INFINITY, Slope(1, 3)}, 6)
    assert Slope(1, 6) in orb
    assert INFINITY in orbit_closure(Slope(1, 3), {INFINITY}, 10)
    half_orbit = orbit_closure(Slope(1, 3), {Slope(1, 2)}, 40)
    main_orbit = orbit_closure(Slope(1, 3), {INFINITY, Slope(1, 3)}, 40)
    assert not (half_orbit & main_orbit)
    with pytest.raises(ValueError):
        orbit_closure(Slope(1, 3), {INFINITY}, 0)
    with pytest.raises(ValueError):
        triangle_orbit_closure({ZERO}, 0)


def test_decision_oracle_rejects_steps_outside_the_group(monkeypatch):
    # The reflection in the edge (0, 1) fixes neither ∞ nor any r in
    # (0, 1), so it is no step of the group; the detour (g, g·s), (g, s)
    # still lands back on s, so only a membership check can catch it.
    g = reflection_in_edge(ZERO, ONE)
    decide = verification.is_null_homotopic

    def detoured(s, r):
        verdict = decide(s, r)
        steps = ((g, g.apply(s)), (g, s)) + verdict.trace.steps
        return verdict._replace(trace=dataclasses.replace(verdict.trace, steps=steps))

    assert verification.check_decision_oracle(3, 5).passed
    monkeypatch.setattr(verification, "is_null_homotopic", detoured)
    result = verification.check_decision_oracle(3, 5)
    assert not result.passed and "trace certificate" in result.detail


def test_orbit_closure_complete_at_every_bound():
    # The pruning cap scales with the queried bound, so completeness has
    # to hold per bound, not just at the largest one.
    for r in (Slope(1, 2), Slope(1, 3), Slope(2, 5), Slope(3, 7), Slope(5, 8)):
        for bound in (4, 9, 17, 25):
            orbit = orbit_closure(r, {r, INFINITY}, bound)
            for s in farey_interval(bound) + [INFINITY]:
                assert (s in orbit) == classify_orbit(s, r).answer, (s, r, bound)


def _tuple_set_closure(generators, seeds, max_den, expansion):
    """Reference closure: breadth-first over a set of (num, den) tuples,
    with the pruning of the library oracle.  Returns the slopes of
    denominator <= max_den and the set of visited pairs."""
    cap = expansion * max_den
    gens = [g.entries() for g in generators]
    seen = {(s.num, s.den) for s in seeds if max(abs(s.num), s.den) <= cap}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for a, b, c, d in gens:
            nx, ny = a * x + b * y, c * x + d * y
            if ny < 0:
                nx, ny = -nx, -ny
            elif ny == 0:
                nx = 1
            if max(abs(nx), ny) <= cap and (nx, ny) not in seen:
                seen.add((nx, ny))
                queue.append((nx, ny))
    return {Slope(x, y) for x, y in seen if y <= max_den}, seen


def test_orbit_closures_match_tuple_set_reference():
    # The library marks visited pairs in a flat array indexed by
    # (num + cap, den); the edges of that array (num = ±cap, den = cap,
    # and ∞ stored as (1, 0)) must all be reached by some closure below.
    half = Slope(1, 2)
    triangle = [reflection_in_edge(INFINITY, ZERO), reflection_in_edge(INFINITY, ONE),
                reflection_in_edge(ZERO, ONE)]
    edges = set()
    for max_den in (1, 2, 5, 20):
        cases = []
        for r in (half, Slope(1, 3), Slope(2, 3), Slope(2, 5), Slope(3, 7), Slope(5, 13)):
            r1, r2 = fundamental_endpoints(r)
            gens = triangle[:2] + [reflection_in_edge(r, r1), reflection_in_edge(r, r2)]
            for seeds in ({r, INFINITY}, {half}):
                cases.append((orbit_closure(r, seeds, max_den), gens, seeds,
                              verification.ORBIT_EXPANSION))
        for seeds in ({ZERO}, {ONE}, {INFINITY}, {half}):
            cases.append((triangle_orbit_closure(seeds, max_den), triangle, seeds,
                          verification.TRIANGLE_EXPANSION))
        for got, gens, seeds, expansion in cases:
            expected, seen = _tuple_set_closure(gens, seeds, max_den, expansion)
            assert got == expected, (seeds, max_den, expansion)
            cap = expansion * max_den
            if len(edges) < 4:
                edges.update(name for name, hit in (
                    ("num=cap", any(x == cap for x, _ in seen)),
                    ("num=-cap", any(x == -cap for x, _ in seen)),
                    ("den=cap", any(y == cap for _, y in seen)),
                    ("inf", (1, 0) in seen)) if hit)
    assert edges == {"num=cap", "num=-cap", "den=cap", "inf"}


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_decision_oracle_peak_memory_stays_flat():
    """check_decision_oracle(20, 20) in a fresh interpreter raises the
    peak RSS by under 40 MiB.  On a 2-core x86-64 machine with Python
    3.11.7 it raised it by 120 MiB (14.5 → 134.3 MiB) while the closure
    kept a set of visited tuples, and by 5 MiB (14.5 → 19.5 MiB) with the
    flat visited array."""
    src = os.path.dirname(os.path.dirname(verification.__file__))
    code = (f"import resource, sys; sys.path.insert(0, {src!r})\n"
            "from twobridge.verification import check_decision_oracle\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert check_decision_oracle(20, 20).passed\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(after - before)\n")
    run = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 40 * 1024, f"peak RSS grew by {run.stdout.strip()} KiB"


def test_classification_partitions_like_orbits():
    r = Slope(1, 3)
    bound = 12
    slopes = [Slope(q, p) for p in range(1, bound + 1)
              for q in range(0, p + 1) if math.gcd(q, p) == 1] + [INFINITY]
    by_rep = {}
    for s in slopes:
        by_rep.setdefault(classify_orbit(s, r).canonical_representative, set()).add(s)
    for rep, members in by_rep.items():
        orbit = orbit_closure(r, {rep}, bound)
        assert members <= orbit
        for other_rep, other_members in by_rep.items():
            if other_rep != rep:
                assert not (other_members & orbit)


def test_is_orbit_member_examples():
    def member(s, r):
        return classify_orbit(s, r).answer

    assert member(INFINITY, INFINITY)
    assert not member(ZERO, INFINITY)
    assert not member(ONE, ZERO)
    assert member(Slope(1, 6), Slope(1, 3))
    assert member(Slope(2), ZERO)
    assert member(INFINITY, Slope(5))


def test_orbit_membership_for_unnormalized_r():
    # -1/3 and 7/3 fold onto 1/3 by ∞-fixing reflections of Γ̂_r, which
    # leave Γ̂_r unchanged: s itself is reduced against 1/3.
    for num, den in ((1, 6), (1, 2), (2, 7), (5, 3)):
        s = Slope(num, den)
        base = classify_orbit(s, Slope(1, 3))
        assert classify_orbit(-s, Slope(-1, 3)).answer == base.answer
        assert classify_orbit(s + 2, Slope(7, 3)).answer == base.answer
        moved = classify_orbit(s, Slope(7, 3))
        assert (moved.trace, moved.answer, moved.canonical_representative) == (
            base.trace, base.answer, base.canonical_representative)


def test_triangle_orbit_contains_vertex_translates():
    orbit = triangle_orbit_closure({ZERO}, 10)
    assert Slope(2) in orbit and Slope(-4) in orbit and Slope(2, 5) in orbit
    assert ONE not in orbit and INFINITY not in orbit


@given(st.integers(-60, 60), st.integers(1, 25), st.integers(2, 12),
       st.integers(1, 11))
def test_reduce_lands_in_fundamental_set(num, den, rp, rq):
    if math.gcd(rq, rp) != 1 or rq >= rp:
        return
    r = Slope(rq, rp)
    s = Slope(num, den)
    r1, r2 = fundamental_endpoints(r)
    res = reduce_to_fundamental(s, r).result
    assert (res.is_infinite or res == r
            or (ZERO <= res <= r1) or (r2 <= res <= ONE))
