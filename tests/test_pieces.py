import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from twobridge import pieces, seqs, verification
from twobridge.seqs import decompose, s_sequence
from twobridge.slopes import ONE, Slope, ZERO, cf_expand, cf_value
from twobridge.pieces import (
    min_piece_factorization,
    piece_product_catalog,
    satisfies_necessary_condition,
    small_cancellation_report,
    t4_by_triples,
    t4_structural,
)
from twobridge.verification import (
    check_small_cancellation,
    factor_condition_by_search,
    initial_letter_spread,
    is_piece,
    longest_piece_prefix,
    maximal_piece_products,
    piece_length_table,
    symmetrize,
)
from twobridge.words import canonical_rotation, half_relator, inverse_word, relator


def test_symmetrize_sizes():
    assert len(symmetrize(Slope(1, 2))) == 8
    assert len(symmetrize(Slope(4, 7))) == 28
    with pytest.raises(ValueError):
        symmetrize(ZERO)
    with pytest.raises(ValueError):
        symmetrize(ONE)


def test_symmetrize_closure():
    relators = symmetrize(Slope(3, 5))
    for w in relators:
        assert inverse_word(w) in relators
        assert w[1:] + w[0] in relators


def test_is_piece_examples():
    relators = symmetrize(Slope(4, 7))
    assert is_piece(half_relator(Slope(4, 7)), relators)
    assert not is_piece("abABab", relators)  # the v1 block
    assert is_piece("a", relators)
    with pytest.raises(ValueError):
        is_piece("", relators)


def test_ab_is_a_piece_of_4_7():
    # Two distinct rotations of the relator begin with "ab" (offsets 0
    # and 4), so "ab" is a common prefix of distinct elements.
    relators = symmetrize(Slope(4, 7))
    u = relator(Slope(4, 7))
    assert u.startswith("ab") and (u[4:] + u[:4]).startswith("ab")
    assert is_piece("ab", relators)
    assert min_piece_factorization(piece_length_table(canonical_rotation("ab"), relators)) == 1


def test_longest_piece_prefix_matches_exhaustive_scan():
    for r in (Slope(1, 2), Slope(2, 5), Slope(4, 7), Slope(3, 8)):
        relators = symmetrize(r)
        u = relator(r)
        dd = u + u
        n = len(u)
        for i in range(n):
            x = dd[i:i + n]
            best = longest_piece_prefix(relators, x)
            if best:
                assert is_piece(x[:best], relators)
            if best < n:
                assert not is_piece(x[:best + 1], relators)


def test_min_piece_factorization_examples():
    relators = symmetrize(Slope(4, 7))
    u = relator(Slope(4, 7))
    w = canonical_rotation(u)
    assert min_piece_factorization(piece_length_table(w, relators)) == 4
    w_inv = canonical_rotation(inverse_word(u))
    assert min_piece_factorization(piece_length_table(w_inv, relators)) == 4
    assert min_piece_factorization([3, 0, 0, 2]) == 2
    with pytest.raises(ValueError):
        min_piece_factorization([])
    with pytest.raises(ValueError):
        min_piece_factorization([1, 0, 0])


#: sha256 of each report's JSON, as computed with the brute-force piece
#: scan over the symmetrized set: the closed form must reproduce it.
REPORT_DIGESTS = {
    Slope(4, 7): "f87790e4c59f1542dfd720f6f738bed51635207d1d007bb2cc6e63bd7cbe4698",
    Slope(1, 3): "9e718ac7453f9a99bc24063601044ed9eb1c043a7ecef6c76920d6ad40130659",
    Slope(101, 300): "36400e1456b601c02838cac04024dc5107fbe10e7351b1ca4e84b70a46a2e13f",
}


def test_report_builds_no_symmetrized_set(monkeypatch):
    def refuse(r):
        raise AssertionError(f"symmetrized set of {r} built by the report")

    assert "symmetrize" not in vars(pieces)
    monkeypatch.setattr(verification, "symmetrize", refuse)
    for r, digest in REPORT_DIGESTS.items():
        obj = small_cancellation_report(r).to_json_obj()
        assert obj["c4"] and obj["t4"] and obj["min_cyclic_pieces"] == 4
        assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest


def brute_products(r, n_pieces):
    table = piece_length_table(canonical_rotation(relator(r)), symmetrize(r))
    return maximal_piece_products(table, n_pieces)


def test_maximal_piece_products_match_catalog():
    # The report takes its catalog from the closed form, so the closed form
    # is also checked beyond the suites' p <= 50.
    slopes = [Slope(q, p) for p in range(2, 26) for q in range(1, p)
              if math.gcd(q, p) == 1]
    for r in slopes + [Slope(1, 60), Slope(1, 299), Slope(55, 89), Slope(7, 300),
                       Slope(101, 300)]:
        catalog = small_cancellation_report(r).maximal_piece_catalog
        for n in (1, 2, 3):
            assert brute_products(r, n) == list(catalog[n]), (r, n)


def test_catalog_family_counts():
    catalog = piece_product_catalog(Slope(4, 7))
    assert sorted(catalog) == [1, 2, 3]
    assert [item.label for item in catalog[1]] == [
        "v1b*", "v1e v2", "v2 v3b*", "v2e v3b*",
        "v3b*", "v3e v4", "v4 v1b*", "v4e v1b*"]
    labels = {n: [item.label for item in items]
              for n, items in piece_product_catalog(Slope(1, 3)).items()}
    assert labels == {1: ["v2b*", "v2e", "v4b*", "v4e"],
                      2: ["v2", "v2e v4b*", "v4", "v4e v2b*"],
                      3: ["v2 v4b*", "v2e v4", "v4 v2b*", "v4e v2"]}
    for r in (Slope(4, 7), Slope(10, 37)):
        catalog = piece_product_catalog(r)
        assert [item.label for item in catalog[2]] == [
            "v1 v2", "v1e v2 v3b*", "v2 v3 v4", "v2e v3 v4",
            "v3 v4", "v3e v4 v1b*", "v4 v1 v2", "v4e v1 v2"], r
        assert [item.label for item in catalog[3]] == [
            "v1 v2 v3b*", "v1e v2 v3 v4", "v2 v3 v4 v1b*",
            "v2e v3 v4 v1b*", "v3 v4 v1b*", "v3e v4 v1 v2",
            "v4 v1 v2 v3b*", "v4e v1 v2 v3b*"], r


def test_report_builds_the_catalog_once(monkeypatch):
    calls = []
    build = pieces.piece_product_catalog
    monkeypatch.setattr(pieces, "piece_product_catalog",
                        lambda r: calls.append(r) or build(r))
    for r in (Slope(4, 7), Slope(1, 3)):
        calls.clear()
        small_cancellation_report(r)
        assert calls == [r]


def test_no_three_piece_product_covers_relator():
    for r in (Slope(4, 7), Slope(1, 2), Slope(5, 12)):
        spans = brute_products(r, 3)
        assert all(length < 2 * r.den for _, length in spans)


def test_small_cancellation_report_examples():
    for r in (Slope(4, 7), Slope(1, 2), Slope(10, 37)):
        report = small_cancellation_report(r)
        assert report.c4 and report.t4
        assert report.min_cyclic_pieces >= 4
    obj = small_cancellation_report(Slope(1, 2)).to_json_obj()
    assert obj["relator_slope"] == "1/2"
    assert set(obj["maximal_piece_catalog"]) == {"1", "2", "3"}


def test_t4_paths_agree():
    for p in range(2, 11):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                r = Slope(q, p)
                assert t4_structural(r)
                assert t4_by_triples(symmetrize(r))


def test_initial_letter_spread_examples():
    for r in (Slope(4, 7), Slope(10, 37), Slope(1, 2)):
        assert initial_letter_spread(relator(r), symmetrize(r))


def test_small_cancellation_suite_builds_one_symmetrized_set_per_r(monkeypatch):
    calls = []

    def counting(r):
        calls.append(r)
        return symmetrize(r)

    monkeypatch.setattr(verification, "symmetrize", counting)
    assert check_small_cancellation(max_p=12).passed
    slopes = [Slope(q, p) for p in range(2, 13) for q in range(1, p)
              if math.gcd(q, p) == 1]
    assert calls == slopes


def test_necessary_condition_examples():
    assert satisfies_necessary_condition(Slope(10, 37), Slope(10, 37))
    assert not satisfies_necessary_condition(Slope(2, 7), Slope(5, 17))
    with pytest.raises(ValueError):
        satisfies_necessary_condition(ZERO, Slope(1, 3))
    with pytest.raises(ValueError):
        satisfies_necessary_condition(Slope(3, 2), Slope(1, 3))


def test_necessary_condition_fails_on_fundamental_intervals():
    from twobridge.slopes import fundamental_endpoints
    for p in range(2, 20):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            r = Slope(q, p)
            r1, r2 = fundamental_endpoints(r)
            for sp in range(1, 20):
                for sq in range(1, sp + 1):
                    if math.gcd(sq, sp) != 1:
                        continue
                    s = Slope(sq, sp)
                    if s <= r1 or s >= r2:
                        assert not satisfies_necessary_condition(s, r)


@st.composite
def factor_condition_cases(draw):
    """r = q/p with p <= 10^4, single-term (1/m) or multi-term, and s in
    (0,1] with denominator <= 2*10^4: anywhere, or near the ends of the
    gap, by moving one term of r's expansion by at most 1 and extending
    it.  Without the extension the moved prefix has denominator <= 2p."""
    if draw(st.booleans()):
        r = Slope(1, draw(st.integers(2, 10 ** 4)))
    else:
        p = draw(st.integers(3, 10 ** 4))
        r = Slope(draw(st.integers(2, p - 1)), p)
        if r.num == 1:  # q and p shared a factor
            r = Slope(p - 1, p)
    if draw(st.booleans()):
        terms = cf_expand(r)
        j = draw(st.integers(1, len(terms)))
        head = terms[:j - 1] + (max(1, terms[j - 1] + draw(st.integers(-1, 1))),)
        s = cf_value(head + tuple(draw(st.lists(st.integers(1, 4), max_size=2))))
        if s.den > 2 * 10 ** 4:
            s = cf_value(head)
    else:
        p = draw(st.integers(1, 2 * 10 ** 4))
        s = Slope(draw(st.integers(1, p)), p)
    return r, s


@settings(derandomize=True, max_examples=300, deadline=None)
@given(factor_condition_cases())
def test_factor_condition_matches_search(case):
    # The slope formula equals the factor search over CS(s), and builds no
    # S-sequence on the way.  About 0.5 s on a 2-core machine.
    r, s = case

    def refuse(x):
        raise AssertionError(f"S({x}) built by the factor condition")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqs, "s_sequence", refuse)
        decompose.cache_clear()
        answer = satisfies_necessary_condition(s, r)
    assert answer == factor_condition_by_search(s_sequence(s), r), (s, r)
