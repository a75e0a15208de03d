"""Progression predicate, windowed search, families and certificates."""

from collections import defaultdict
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import family_instances, term
from lucasaps import apsearch
from lucasaps.apsearch import (
    APFamily,
    APTriple,
    CertificateFailureError,
    canonical_indices,
    detect_families,
    doubled_at,
    find_aps,
    is_ap,
    verify_family,
)
from lucasaps.core import Kind, degeneracy_order, new_params, terms
from lucasaps.smallcase import CaseEquation


class TestIsAP:
    def test_examples(self):
        assert is_ap(0, 1, 2)
        assert is_ap(1, 0, -1)
        assert not is_ap(1, 1, 1)
        assert not is_ap(0, 0, 0)

    @given(st.integers(), st.integers(), st.integers())
    def test_symmetry(self, x, y, z):
        assert is_ap(x, y, z) == is_ap(z, y, x)

    @given(st.integers(), st.integers())
    def test_trivial_rejected(self, x, y):
        assert not is_ap(x, x, x)
        # equal outer values force equal middle, hence trivial
        assert not is_ap(x, y, x) or False


class TestCanonical:
    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_idempotent(self, k, l, m):
        once = canonical_indices(k, l, m)
        assert canonical_indices(*once) == once

    def test_collapses_reversal(self):
        assert canonical_indices(5, 3, 1) == (1, 3, 5)
        assert canonical_indices(1, 3, 5) == (1, 3, 5)


def _exponents_to_triple(n1, n2, n3, minus_two_at):
    """The gap engine's former roles map, for exponents n1 > n2 > n3."""
    exps = (n1, n2, n3)
    l = exps[minus_two_at]
    outer = sorted(e for i, e in enumerate(exps) if i != minus_two_at)
    return (outer[0], l, outer[1])


def _variant_roles(triple, variant):
    """The small-index solver's former roles map, for k < l < m."""
    k, l, m = triple
    if variant == 1:
        return (k, l, m)
    if variant == 2:
        return (l, k, m)
    return (k, m, l)


class TestDoubledAt:
    def test_matches_gap_engine_encoding(self):
        for exps in permutations(range(10), 3):
            for pos in range(3):
                assert doubled_at(exps, pos) == _exponents_to_triple(*exps, pos), (exps, pos)

    def test_matches_case_equation_encoding(self):
        for triple in combinations(range(10), 3):
            for variant in (1, 2, 3):
                roles = CaseEquation(Kind.FIRST, triple, variant).ap_roles()
                assert roles == _variant_roles(triple, variant), (triple, variant)


class TestAPTriple:
    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            APTriple(0, 1, 2, (3, 3, 3))

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            APTriple(2, 1, 0, (0, 1, 2))

    def test_rejects_non_progression(self):
        with pytest.raises(ValueError):
            APTriple(0, 1, 2, (0, 1, 5))


class TestFindAPs:
    def test_fibonacci_window(self):
        aps = {t.indices for t in find_aps(new_params(1, 1), Kind.FIRST, 5)}
        assert (0, 1, 3) in aps
        assert (2, 3, 4) in aps

    def test_no_row_pair_empty(self):
        assert find_aps(new_params(5, 1), Kind.FIRST, 50) == []

    def test_second_kind_exact(self):
        aps = [t.indices for t in find_aps(new_params(1, 3), Kind.SECOND, 20)]
        assert aps == [(1, 4, 5)]

    def test_sorted_by_m_k_l(self):
        aps = find_aps(new_params(1, 1), Kind.FIRST, 12)
        keys = [(t.m, t.k, t.l) for t in aps]
        assert keys == sorted(keys)

    def test_no_reversal_duplicates(self):
        for pair in [(1, 1), (-1, 2), (1, -2)]:
            aps = {t.indices for t in find_aps(new_params(*pair), Kind.FIRST, 40)}
            for k, l, m in aps:
                assert (m, l, k) not in aps or k == m

    def test_revalidates_on_fresh_terms(self):
        p = new_params(-1, 2)
        for t in find_aps(p, Kind.FIRST, 60):
            fresh = [term(p, Kind.FIRST, i) for i in t.indices]
            assert is_ap(*fresh)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            find_aps(new_params(1, 1), Kind.FIRST, 1)

    def test_matches_quadratic_oracle(self):
        # the value-window scan returns the same triples, in the same order,
        # as the n^2 loop over every middle/outer pair
        for A in range(-10, 11):
            for B in range(-10, 11):
                if not A or not B or degeneracy_order(A, B) is not None:
                    continue
                p = new_params(A, B)
                for kind in Kind:
                    for n in (2, 3, 5, 12, 80):
                        got = [t.indices for t in find_aps(p, kind, n)]
                        want = _quadratic_aps(terms(p, kind, n + 1))
                        assert got == want, (A, B, kind, n)

    @given(st.lists(st.integers(-64, 64), min_size=3, max_size=40))
    def test_exact_on_any_sequence(self, vals):
        # the lemma needs no growth: repeats, zeros and sign changes included
        with mock.patch("lucasaps.apsearch.terms", lambda *_: vals):
            got = [t.indices for t in find_aps(new_params(1, 1), Kind.FIRST, len(vals) - 1)]
        assert got == _quadratic_aps(vals)

    @given(st.data())
    def test_exact_across_signed_buckets(self, data):
        # values sit next to the powers of two +-2^b or anywhere up to 2^80,
        # and planted progressions mix their signs and bit lengths
        edge = st.builds(
            lambda sign, b, e: sign * ((1 << b) + e),
            st.sampled_from((1, -1)), st.integers(0, 80), st.integers(-2, 2),
        )
        value = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80), edge)
        vals = data.draw(st.lists(value, max_size=20))
        for _ in range(data.draw(st.integers(1, 4))):
            outer = data.draw(value)
            other = data.draw(value)
            other += (outer - other) & 1
            for v in (outer, (outer + other) // 2, other):
                vals.insert(data.draw(st.integers(0, len(vals))), v)
        with mock.patch("lucasaps.apsearch.terms", lambda *_: vals):
            got = [t.indices for t in find_aps(new_params(1, 1), Kind.FIRST, len(vals) - 1)]
        assert got == _quadratic_aps(vals)

    @given(st.data())
    def test_exact_at_ratio_edges(self, data):
        # planted pairs sit at the window edges |w| = 2|u| and 4|u|, or one
        # off them, of either sign, as the two outers or as middle and outer,
        # and the planted values may repeat
        vals = data.draw(st.lists(st.integers(-40, 40), max_size=12))
        for _ in range(data.draw(st.integers(1, 4))):
            size = data.draw(st.one_of(st.integers(1, 40), st.integers(1, 2**70)))
            u = size * data.draw(st.sampled_from((1, -1)))
            w = data.draw(st.sampled_from((2, 4))) * size + data.draw(st.integers(-1, 1))
            w *= data.draw(st.sampled_from((1, -1)))
            if (u + w) % 2 == 0 and data.draw(st.booleans()):
                planted = (u, (u + w) // 2, w)
            else:
                planted = (2 * u - w, u, w)
            for v in planted * data.draw(st.integers(1, 2)):
                vals.insert(data.draw(st.integers(0, len(vals))), v)
        with mock.patch("lucasaps.apsearch.terms", lambda *_: vals):
            got = [t.indices for t in find_aps(new_params(1, 1), Kind.FIRST, len(vals) - 1)]
        assert got == _quadratic_aps(vals)

    @pytest.mark.parametrize("vals", [
        [64, 1, -62],   # route 1: opposite-sign outers, far above x_l
        [-62, 1, 64],
        [7, 0, -7],     # route 1: x_l = 0
        [16, 5, -6],    # route 2: opposite-sign outers, |x_j| > 2|x_i|
        [-16, -5, 6],
        [0, 3, 6],      # route 2: a zero outer
        [0, -3, -6],
        [4, 1, -2],     # route 1: |x_j| = 2|x_i| exactly, so |x_j| = 4|x_l|
        [-4, -1, 2],
        [19, 5, -9],    # route 2: |x_j| = 4|x_l| - 1, so |x_j| = 2|x_i| + 1
        [-19, -5, 9],
    ])
    def test_each_route(self, vals):
        # each triple is found by one route only
        with mock.patch("lucasaps.apsearch.terms", lambda *_: vals):
            got = [t.indices for t in find_aps(new_params(1, 1), Kind.FIRST, 2)]
        assert got == [(0, 1, 2)]


def _quadratic_aps(vals):
    """Canonical progression indices of vals, sorted by (m, k, l).

    The n^2 loop: every middle l and outer k probe a value -> indices map
    for the other outer 2*x_l - x_k.
    """
    where = defaultdict(list)
    for i, v in enumerate(vals):
        where[v].append(i)
    out = []
    for l, vl in enumerate(vals):
        for k, vk in enumerate(vals):
            if k == l:
                continue
            for m in where.get(2 * vl - vk, ()):
                if m <= k or m == l:
                    continue
                if vk == vl or vl == vals[m] or vk == vals[m]:
                    continue
                out.append((k, l, m))
    out.sort(key=lambda t: (t[2], t[0], t[1]))
    return out


class TestDetectFamilies:
    def test_complex_pair_both_kinds(self):
        p = new_params(-1, -2)
        for kind in Kind:
            fams = detect_families(p, kind, 10)
            assert [(f.k_form, f.l_form, f.m_form) for f in fams] == [
                ((1, 1), (0, 1), (3, 1))
            ]

    def test_fibonacci_family(self):
        fams = detect_families(new_params(1, 1), Kind.FIRST, 10)
        assert [(f.k_form, f.l_form, f.m_form) for f in fams] == [
            ((0, 1), (2, 1), (3, 1))
        ]

    def test_no_family(self):
        assert detect_families(new_params(5, 1), Kind.FIRST, 10) == []

    def test_every_family_passes_verify_family(self, monkeypatch):
        # each hit goes to verify_family, with the pair and kind, before it is kept
        calls = []

        def recorder(family, params, kind):
            calls.append((family, params, kind))
            return verify_family(family, params, kind)

        monkeypatch.setattr(apsearch, "verify_family", recorder)
        for pair in ((1, 1), (-1, 1), (-1, 2), (-1, -2)):
            p = new_params(*pair)
            for kind in Kind:
                calls.clear()
                fams = detect_families(p, kind, 50)
                assert fams, (pair, kind)
                assert sorted(calls, key=repr) == sorted(((f, p, kind) for f in fams), key=repr)

    def test_failed_certificate_propagates(self, monkeypatch):
        def refuse(family, params, kind):
            raise CertificateFailureError(f"refused {family.describe()}")

        monkeypatch.setattr(apsearch, "verify_family", refuse)
        with pytest.raises(CertificateFailureError, match="refused"):
            detect_families(new_params(1, 1), Kind.FIRST, 10)
        assert detect_families(new_params(5, 1), Kind.FIRST, 10) == []

    @pytest.mark.parametrize("pair", [(3, 1), (-3, 1), (4, 2), (-4, -2)])
    def test_no_terms_past_the_a_bound(self, monkeypatch, pair):
        # |A| > 1 + |B|: X^2 - AX - B divides no trinomial of a family
        def refuse(*args):
            raise AssertionError(f"terms built for {pair}")

        monkeypatch.setattr(apsearch, "linear_terms", refuse)
        for kind in Kind:
            assert detect_families(new_params(*pair), kind, 50) == []

    def test_divisibility_iff_identity(self):
        # remainder test against two consecutive identity instances,
        # exhaustively over a small coefficient box
        for A in range(-8, 9):
            for B in range(-8, 9):
                if not A or not B or degeneracy_order(A, B) is not None:
                    continue
                p = new_params(A, B)
                ts = terms(p, Kind.FIRST, 15)
                for a1, a2, a3 in _zero_min_offsets(12):
                    divides = _trinomial_remainder(A, B, (a1, a2, a3)) == [0, 0]
                    s0 = ts[a1] - 2 * ts[a2] + ts[a3]
                    s1 = ts[a1 + 1] - 2 * ts[a2 + 1] + ts[a3 + 1]
                    assert divides == (s0 == 0 and s1 == 0), (A, B, a1, a2, a3)

    def test_matches_long_division_walk(self):
        # the remainder lookup finds exactly the families the dense
        # division finds over every offset triple, for every e_max <= 20
        for A in range(-10, 11):
            for B in range(-10, 11):
                if not A or not B or degeneracy_order(A, B) is not None:
                    continue
                p = new_params(A, B)
                found = [
                    (a1, a2, a3)
                    for a1, a2, a3 in _zero_min_offsets(20)
                    if _trinomial_remainder(A, B, (a1, a2, a3)) == [0, 0]
                ]
                for e_max in range(3, 21):
                    expected = sorted(
                        (APFamily((a1, 1), (a2, 1), (a3, 1), 0)
                         for a1, a2, a3 in found if a3 <= e_max and a2 <= e_max),
                        key=lambda f: (f.l_form, f.k_form, f.m_form),
                    )
                    for kind in Kind:
                        assert detect_families(p, kind, e_max) == expected, (A, B, kind, e_max)


def _trinomial_remainder(A, B, offsets):
    """Remainder of X^a1 - 2*X^a2 + X^a3 modulo X^2 - A*X - B, as [c0, c1].

    Plain synthetic long division on the dense coefficient vector.
    """
    a1, a2, a3 = offsets
    coeffs = [0] * (max(offsets) + 1)
    coeffs[a1] += 1
    coeffs[a2] -= 2
    coeffs[a3] += 1
    for i in range(len(coeffs) - 1, 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            coeffs[i - 1] += A * c
            coeffs[i - 2] += B * c
    return coeffs[:2]


def _zero_min_offsets(e_max):
    """Every (a1, a2, a3) in [0, e_max]^3, pairwise distinct, a1 < a3, min 0."""
    return [
        (a1, a2, a3)
        for a1 in range(e_max + 1)
        for a2 in range(e_max + 1)
        for a3 in range(a1 + 1, e_max + 1)
        if a2 not in (a1, a3) and min(a1, a2, a3) == 0
    ]


class TestVerifyFamily:
    def test_mixed_step_family_order_three(self):
        fam = APFamily((1, 0), (1, 2), (2, 2), 1)
        p = new_params(1, 2)
        assert fam.order() == 3
        assert verify_family(fam, p, Kind.FIRST) is None
        # no instance t = 1..50 is degenerate: instance t ends at index 2t + 2
        assert len(family_instances(fam, p, Kind.FIRST, 102)) == 50

    def test_decreasing_family(self):
        fam = APFamily((2, 1), (0, 1), (1, 1), 0)
        p = new_params(-1, 2)
        assert verify_family(fam, p, Kind.FIRST) is None
        assert [term(p, Kind.FIRST, i) for i in fam.instantiate(0)] == [-1, 0, 1]
        assert family_instances(fam, p, Kind.FIRST, 52)

    def test_terms_only_to_window_end(self, monkeypatch):
        # (t, t+2, t+3) has order 2, so the window t = 0, 1 ends at index 4
        counts = []

        def recorder(params, kind, count):
            counts.append(count)
            return terms(params, kind, count)

        monkeypatch.setattr(apsearch, "terms", recorder)
        verify_family(APFamily((0, 1), (2, 1), (3, 1), 0), new_params(1, 1), Kind.FIRST)
        assert counts == [5]

    def test_negative_step_is_refused(self):
        # every index is >= 0 for t <= 60, but not for every t >= t_min
        fam = APFamily((60, -1), (61, -1), (62, -1))
        with pytest.raises(ValueError, match="negative index"):
            verify_family(fam, new_params(1, 1), Kind.FIRST)

    def test_certificate_failure(self):
        fam = APFamily((0, 1), (1, 1), (3, 1), 0)
        with pytest.raises(CertificateFailureError):
            verify_family(fam, new_params(1, 1), Kind.FIRST)

    def test_soundness_to_500(self):
        cases = [
            (APFamily((0, 1), (2, 1), (3, 1), 0), (1, 1), Kind.FIRST),
            (APFamily((0, 1), (1, 1), (3, 1), 0), (-1, 1), Kind.FIRST),
            (APFamily((1, 0), (1, 2), (2, 2), 1), (1, 2), Kind.FIRST),
            (APFamily((2, 0), (1, 2), (2, 2), 1), (1, 2), Kind.FIRST),
            (APFamily((2, 1), (0, 1), (1, 1), 0), (-1, 2), Kind.FIRST),
            (APFamily((1, 1), (0, 1), (3, 1), 0), (-1, -2), Kind.FIRST),
            (APFamily((1, 1), (0, 1), (3, 1), 0), (-1, -2), Kind.SECOND),
            (APFamily((0, 1), (2, 1), (3, 1), 0), (1, 1), Kind.SECOND),
        ]
        for fam, pair, kind in cases:
            p = new_params(*pair)
            verify_family(fam, p, kind)  # raises on failure
            for t in range(fam.t_min, 501):
                k, l, m = fam.instantiate(t)
                s = term(p, kind, k) - 2 * term(p, kind, l) + term(p, kind, m)
                assert s == 0, (pair, kind, t)

    def test_degenerate_instance_is_not_fatal(self):
        fam = APFamily((1, 1), (0, 1), (3, 1), 0)
        p = new_params(-1, -2)
        assert verify_family(fam, p, Kind.FIRST) is None
        assert fam.instantiate(2) == (3, 2, 5)  # all three carry value -1
        assert [term(p, Kind.FIRST, i) for i in (3, 2, 5)] == [-1, -1, -1]


class TestFamilyNormalization:
    def test_rebase_and_orient(self):
        fam = APFamily((0, 1), (-1, 1), (1, 1), 1)
        norm = fam.normalized()
        assert norm == APFamily((1, 1), (0, 1), (2, 1), 0)

    def test_instances_respect_window(self):
        p = new_params(1, 2)
        fam = APFamily((1, 0), (1, 2), (2, 2), 1)
        inst = family_instances(fam, p, Kind.FIRST, 20)
        assert all(t.max_index <= 20 for t in inst)
        assert {t.indices for t in inst} == {
            (1, 3, 4), (1, 5, 6), (1, 7, 8), (1, 9, 10), (1, 11, 12),
            (1, 13, 14), (1, 15, 16), (1, 17, 18), (1, 19, 20),
        }
