"""Growth criterion, gap pattern engine, and completeness certificates."""

import hashlib
import json
from importlib import resources as importlib_resources
from math import isqrt

import pytest

from helpers import family_instances, gap_oracle_box, node_key, surd_pattern_bound
from lucasaps import certify
from lucasaps.apsearch import find_aps, is_ap
from lucasaps.certify import (
    CompletenessCertificate,
    Gap,
    GapPattern,
    GROWTH_WINDOW,
    _cell_solutions,
    _decoupled_cell,
    certificate_from_json,
    certified_enumerate,
    check_certificate,
    growth_exception,
    pattern_bound,
)
from lucasaps.cli import main
from lucasaps.core import EngineMismatchError, Kind, Surd, degeneracy_order, new_params, terms


def dominant_pairs(box):
    out = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            if a and b and degeneracy_order(a, b) is None and a * a + 4 * b > 0:
                out.append((a, b))
    return out


def listed_pairs():
    """(params, kind) for the 158 growth-lemma exceptional pair/kinds with D > 0."""
    out = []
    for A in range(-7, 8):
        for B in range(-14, 15):
            if A == 0 or B == 0 or degeneracy_order(A, B) is not None:
                continue
            if A * A + 4 * B <= 0:
                continue
            params = new_params(A, B)
            out += [(params, kind) for kind in Kind if growth_exception(params, kind)]
    return out


class TestGrowthException:
    @pytest.mark.parametrize(
        "pair,kind,expected",
        [
            ((1, 9), Kind.FIRST, True),
            ((1, 10), Kind.FIRST, False),
            ((1, 14), Kind.SECOND, True),
            ((1, 15), Kind.SECOND, False),
            ((2, 3), Kind.FIRST, True),
            ((2, 4), Kind.FIRST, False),
            ((-6, -1), Kind.FIRST, True),
            ((-7, -1), Kind.FIRST, False),
            ((-7, -1), Kind.SECOND, True),
            ((5, 1), Kind.FIRST, False),
        ],
    )
    def test_exception_list(self, pair, kind, expected):
        assert growth_exception(new_params(*pair), kind) is expected

    def test_boundary_witnesses_exact(self):
        # |x_8 / x_7| straddles 3 between B = 9 and B = 10 at |A| = 1
        u9 = terms(new_params(1, 9), Kind.FIRST, 9)
        assert (u9[7], u9[8]) == (1261, 3781)
        assert abs(u9[8]) < 3 * abs(u9[7])
        u10 = terms(new_params(1, 10), Kind.FIRST, 9)
        assert (u10[7], u10[8]) == (1651, 5061)
        assert abs(u10[8]) > 3 * abs(u10[7])

    def test_ratio_window_excludes_high_aps(self, rng):
        # testable form of the cutoff argument: when every term beyond n0
        # exceeds three times every earlier term, no progression can reach
        # past n0.  The box |A| <= 12, -A^2/4 < B <= 40 holds every listed
        # pair with D > 0 and reaches the second-kind boundary (1, 14/15)
        checked, listed = 0, {kind: 0 for kind in Kind}
        for A in range(-12, 13):
            for B in range(-(A * A) // 4 + 1, 41):
                if A == 0 or B == 0 or degeneracy_order(A, B) is not None:
                    continue
                params = new_params(A, B)
                for kind in Kind:
                    if growth_exception(params, kind):
                        listed[kind] += 1
                        continue
                    n0 = GROWTH_WINDOW[kind]
                    ts = [abs(x) for x in terms(params, kind, 41)]
                    top = max(ts[: n0 + 1])
                    for n in range(n0 + 1, 41):
                        assert ts[n] > 3 * top, ((A, B), kind, n)
                        top = ts[n]
                    checked += 1
        assert checked == 2540 - 158
        assert listed == {Kind.FIRST: 62, Kind.SECOND: 96}
        pairs = [p for p in dominant_pairs(10)]
        rng.shuffle(pairs)
        picked = 0
        for pair in pairs:
            params = new_params(*pair)
            for kind in Kind:
                if growth_exception(params, kind):
                    continue
                n0 = GROWTH_WINDOW[kind]
                ts = terms(params, kind, n0 + 51)
                for n in range(n0 + 1, n0 + 51):
                    for np_ in range(n):
                        assert abs(ts[n]) > 3 * abs(ts[np_]), (pair, kind, n, np_)
                aps = find_aps(params, kind, n0 + 50)
                assert all(t.max_index <= n0 for t in aps), (pair, kind)
                picked += 1
            if picked >= 20:
                break
        assert picked >= 20


class TestPatternBound:
    def test_family_cell(self):
        # fixed gaps (1, 2) with the doubled middle term: whole-cell family
        pat = GapPattern(1, Gap(True, 1), Gap(True, 2))
        res = pattern_bound(pat, new_params(1, 1), Kind.FIRST)
        assert res.status == "family"
        fams = [f.normalized() for f in res.families]
        assert fams[0].k_form == (0, 1) and fams[0].l_form == (2, 1)

    def test_worked_margin(self):
        # sorted exponents with both gaps >= (2, 1): margin 4 + 3*sqrt(2)
        pat = GapPattern(1, Gap(False, 2), Gap(False, 1))
        res = pattern_bound(pat, new_params(2, 1), Kind.FIRST)
        assert res.status == "bounded"
        assert res.margin == Surd(8, 3, 8)
        assert res.top_bound == 2  # largest exponent below 3

    def test_single_candidate_checked(self):
        # fixed gaps (1, 1) with the doubled largest term: one candidate,
        # exactly refuted
        pat = GapPattern(0, Gap(True, 1), Gap(True, 1))
        res = pattern_bound(pat, new_params(1, 1), Kind.FIRST)
        assert res.status == "resolved"
        assert res.solutions == ()

    def test_fixed_cell_solution(self):
        pat = GapPattern(1, Gap(True, 1), Gap(True, 1))
        res = pattern_bound(pat, new_params(2, 1), Kind.FIRST)
        assert res.status == "resolved"
        assert res.solutions == ((0, 1, 2),)

    def test_fixed_second_gap_free_first_gap(self):
        # not produced by the engine's own recursion, but a legal pattern
        pat = GapPattern(1, Gap(False, 2), Gap(True, 1))
        res = pattern_bound(pat, new_params(2, 1), Kind.FIRST)
        assert res.status == "bounded"
        assert res.margin == Surd(8, 3, 8)

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_matches_surd_oracle(self, kind):
        # every node of the box, on pairs, equals the boxed-Surd computation
        # node by node, the margin's (p, q, d) included: every dominant pair
        # with |A| <= 7 and |B| <= 14, each placement, gaps 1-3 fixed or free;
        # the box holds perfect-square D and the decoupled cells of (3, -2)
        # (roots 2, 1) and (1, 2) (roots 2, -1)
        square, decoupled = set(), set()
        for pat, params, k in gap_oracle_box(7, 14, 3):
            if k is not kind:
                continue
            res = pattern_bound(pat, params, kind)
            assert node_key(res) == node_key(surd_pattern_bound(pat, params, kind)), (pat, params)
            if "decoupled" in res.note:
                decoupled.add((params.A, params.B))
            if isqrt(params.D) ** 2 == params.D:
                square.add((params.A, params.B))
        assert {(3, -2), (1, 2), (2, 3)} <= square
        assert decoupled == {(3, -2), (1, 2)}

    def test_decoupled_cell_needs_a_square_discriminant(self):
        # D = 13: isqrt gives 3 and the roots 2 and -1 would pass the root
        # test, but (1, 3) has no integer roots
        pat = GapPattern(1, Gap(True, 1), Gap(False, 1))
        with pytest.raises(EngineMismatchError, match="not a square"):
            _decoupled_cell(pat, new_params(1, 3), 1)
        assert _decoupled_cell(pat, new_params(1, 2), 1).status == "family"


class TestCertifiedEnumerate:
    def test_worked_pair(self):
        r = certified_enumerate(new_params(2, 1), Kind.FIRST)
        assert r.status == "complete"
        assert [t.indices for t in r.aps] == [(0, 1, 2)]
        assert r.certificate.method == "gap_pattern"
        margins = [e.margin for e in r.evidence if e.margin is not None]
        assert Surd(8, 3, 8) in margins

    def test_growth_pair(self):
        r = certified_enumerate(new_params(5, 1), Kind.FIRST)
        assert r.status == "complete"
        assert r.aps == ()
        assert r.certificate.method == "growth_lemma"
        assert r.certificate.n0 == 7

    def test_second_kind_growth_pair(self):
        # the second-kind growth window is one index shorter than the first kind's
        r = certified_enumerate(new_params(3, 1), Kind.SECOND)
        assert r.status == "complete"
        assert r.aps == ()
        assert r.certificate.method == "growth_lemma"
        assert r.certificate.n0 == 6

    def test_second_kind_exception(self):
        r = certified_enumerate(new_params(1, 3), Kind.SECOND)
        assert r.status == "complete"
        assert [t.indices for t in r.aps] == [(1, 4, 5)]
        assert r.certificate.method == "gap_pattern"

    def test_family_pair_routes_families_separately(self):
        r = certified_enumerate(new_params(1, 1), Kind.FIRST)
        assert r.status == "has_families"
        assert r.certificate is None
        assert [f.describe() for f in r.families] == ["(t, t+2, t+3), t>=0"]
        assert {t.indices for t in r.aps} == {(0, 1, 3), (2, 3, 4), (1, 4, 5)}

    def test_mixed_step_families_discovered(self):
        r = certified_enumerate(new_params(1, 2), Kind.FIRST)
        assert r.status == "has_families"
        assert sorted(f.describe() for f in r.families) == [
            "(1, 2t+3, 2t+4), t>=0",
            "(2, 2t+3, 2t+4), t>=0",
        ]
        assert r.aps == ()

    def test_complex_pair_inconclusive(self):
        r = certified_enumerate(new_params(-1, -2), Kind.FIRST)
        assert r.status == "inconclusive"
        assert r.diagnostics

    def test_exhausted_gap_cap_is_inconclusive_not_wrong(self, monkeypatch):
        # an unusable cap must surface as a first-class inconclusive result
        monkeypatch.setattr(certify, "GAP_CAP", 0)
        r = certified_enumerate(new_params(2, 1), Kind.FIRST)
        assert r.status == "inconclusive"
        assert any("gap cap" in d for d in r.diagnostics)

    def test_top_bound_search_cap_is_inconclusive(self, monkeypatch, capsys):
        # a margin search that runs out of steps proves nothing, and the
        # certify command says so with exit 2
        monkeypatch.setattr(certify, "SEARCH_CAP", 1)
        r = certified_enumerate(new_params(2, 1), Kind.FIRST)
        assert r.status == "inconclusive"
        assert "-2@n1 g1>=1 g2>=1: top bound search cap hit" in r.diagnostics
        assert main(["certify", "--A", "2", "--B", "1", "--kind", "first"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert (doc["status"], doc["diagnostics"]) == ("inconclusive", list(r.diagnostics))

    def test_exhausted_gap_cap_keeps_every_analyzed_node(self, monkeypatch):
        # with cap 1 the middle placement runs out twice, once per free gap;
        # the evidence still lists every node analyzed, in recursion order
        monkeypatch.setattr(certify, "GAP_CAP", 1)
        r = certified_enumerate(new_params(1, 1), Kind.FIRST)
        assert r.status == "inconclusive"
        assert r.diagnostics == (
            "gap cap exhausted at -2@n2 g1=1 g2>=1",
            "gap cap exhausted at -2@n2 g1>=1 g2>=1",
        )
        assert [(e.pattern.describe(), e.status) for e in r.evidence] == [
            ("-2@n1 g1>=1 g2>=1", "bounded"),
            ("-2@n2 g1=1 g2=1", "resolved"),
            ("-2@n3 g1=1 g2>=1", "bounded"),
            ("-2@n3 g1>=2 g2>=1", "bounded"),
        ]

    def test_monotone_search_cap_is_inconclusive(self, monkeypatch):
        # a fixed cell whose moduli never cross within the cap proves nothing
        monkeypatch.setattr(certify, "SEARCH_CAP", 1)
        r = certified_enumerate(new_params(1, 1), Kind.FIRST)
        assert r.status == "inconclusive"
        assert "-2@n2 g1=1 g2=1: monotone search cap hit" in r.diagnostics

    @pytest.mark.parametrize(
        "gap_cap,status,diagnostics,evidence",
        [
            (0, "inconclusive",
             ("gap cap exhausted at -2@n2 g1>=1 g2>=1",
              "gap cap exhausted at -2@n3 g1>=1 g2>=1"),
             ["-2@n1 g1>=1 g2>=1 bounded"]),
        ] + [
            (cap, "has_families", (),
             ["-2@n1 g1>=1 g2>=1 bounded", "-2@n2 g1=1 g2=1 resolved",
              "-2@n2 g1=1 g2=2 family", "-2@n2 g1=1 g2>=3 bounded",
              "-2@n2 g1=2 g2=1 resolved", "-2@n2 g1=2 g2>=2 bounded",
              "-2@n2 g1>=3 g2>=1 bounded", "-2@n3 g1=1 g2>=1 bounded",
              "-2@n3 g1>=2 g2>=1 bounded"])
            for cap in (2, 3)
        ],
        ids=["cap-0", "cap-2", "cap-3"],
    )
    def test_gap_cap_splits_are_pinned(self, monkeypatch, gap_cap, status, diagnostics, evidence):
        # each split analyzes the fixed cell, then the raised free gap, and
        # a cap runs out once per free pattern, named as it was first seen;
        # test_exhausted_gap_cap_keeps_every_analyzed_node pins cap 1
        monkeypatch.setattr(certify, "GAP_CAP", gap_cap)
        r = certified_enumerate(new_params(1, 1), Kind.FIRST)
        assert (r.status, r.diagnostics) == (status, diagnostics)
        assert [f"{e.pattern.describe()} {e.status}" for e in r.evidence] == evidence

    def test_every_cap_from_two_gives_the_default_result(self, monkeypatch):
        # GAP_CAP is a termination guard: no exceptional pair/kind fixes a
        # free gap above 2, so caps 2 and 3 give the result of the default 12
        assert certify.GAP_CAP == 12
        pairs = listed_pairs()
        default = [certified_enumerate(params, kind) for params, kind in pairs]
        assert len(default) == 158
        for cap in (2, 3):
            monkeypatch.setattr(certify, "GAP_CAP", cap)
            assert [certified_enumerate(params, kind) for params, kind in pairs] == default, cap

    def test_every_exception_pair_resolves(self):
        # the finite exception lists of the ratio criterion, in full
        def exception_pairs(kind):
            a_neg, extra = (6, 9) if kind is Kind.FIRST else (7, 14)
            for a in range(-a_neg, a_neg + 1):
                for b in range(-12, 0):
                    if a and degeneracy_order(a, b) is None and a * a + 4 * b > 0:
                        yield (a, b)
            for sa in (1, -1):
                for b in range(1, extra + 1):
                    if degeneracy_order(sa, b) is None:
                        yield (sa, b)
                for b in range(1, 4):
                    if degeneracy_order(2 * sa, b) is None:
                        yield (2 * sa, b)

        for kind in Kind:
            for pair in exception_pairs(kind):
                params = new_params(*pair)
                if not growth_exception(params, kind):
                    continue
                r = certified_enumerate(params, kind)
                assert r.status != "inconclusive", (pair, kind)
                described = {t.indices for t in r.aps}
                for f in r.families:
                    described |= {
                        t.indices for t in family_instances(f, params, kind, 100)
                    }
                assert described == {t.indices for t in find_aps(params, kind, 100)}, (
                    pair,
                    kind,
                )

    def test_matches_brute_on_grid(self):
        for pair in dominant_pairs(6):
            params = new_params(*pair)
            for kind in Kind:
                r = certified_enumerate(params, kind)
                assert r.status != "inconclusive", (pair, kind)
                described = {t.indices for t in r.aps}
                for f in r.families:
                    described |= {
                        t.indices for t in family_instances(f, params, kind, 100)
                    }
                brute = {t.indices for t in find_aps(params, kind, 100)}
                assert described == brute, (pair, kind)

    def test_bounded_cells_have_no_overflow_solutions(self):
        # re-check every bound: widening the cell by 10 finds nothing new
        for pair in [(2, 1), (1, 3), (-3, -1), (2, 2), (-2, 1)]:
            params = new_params(*pair)
            for kind in Kind:
                if not growth_exception(params, kind):
                    continue
                r = certified_enumerate(params, kind)
                for ev in r.evidence:
                    if ev.status != "bounded":
                        continue
                    widened = _cell_solutions(
                        ev.pattern, params, kind, ev.top_bound + 10
                    )
                    assert set(widened) == set(ev.solutions), (pair, kind, ev.pattern)

    def test_solutions_validate_as_aps(self):
        for pair in [(2, 1), (1, 3), (1, 5)]:
            params = new_params(*pair)
            r = certified_enumerate(params, Kind.FIRST)
            for t in r.aps:
                assert is_ap(*t.values)

    def test_certificates_never_coexist_with_families(self):
        from lucasaps.apsearch import detect_families

        for pair in dominant_pairs(10):
            params = new_params(*pair)
            for kind in Kind:
                r = certified_enumerate(params, kind)
                if r.certificate is not None:
                    assert detect_families(params, kind, 12) == [], (pair, kind)
                    assert not r.families

    def test_engine_families_hold_their_certificates(self):
        from lucasaps.apsearch import verify_family

        for pair in [(1, 1), (-1, 1), (1, 2), (-1, 2)]:
            params = new_params(*pair)
            for kind in Kind:
                r = certified_enumerate(params, kind)
                for fam in r.families:
                    verify_family(fam, params, kind)  # raises on failure


class TestCheckCertificate:
    def test_worked_pair_probe(self):
        params = new_params(2, 1)
        r = certified_enumerate(params, Kind.FIRST)
        assert check_certificate(r.certificate, params, Kind.FIRST)

    def test_family_pair_never_certifies(self):
        # a forged certificate for a family pair must be rejected
        params = new_params(1, 1)
        fake = CompletenessCertificate(
            "gap_pattern", 7, (), tuple(find_aps(params, Kind.FIRST, 7))
        )
        assert not check_certificate(fake, params, Kind.FIRST)

    def test_second_kind_pair(self):
        params = new_params(-3, -1)
        r = certified_enumerate(params, Kind.SECOND)
        assert [t.indices for t in r.aps] == [(1, 0, 2)]
        assert check_certificate(r.certificate, params, Kind.SECOND)

    def test_tampered_certificate_is_rejected(self):
        params = new_params(1, 3)
        r = certified_enumerate(params, Kind.SECOND)
        assert check_certificate(r.certificate, params, Kind.SECOND)
        emptied = CompletenessCertificate(
            r.certificate.method, r.certificate.n0, (), ()
        )
        assert not check_certificate(emptied, params, Kind.SECOND)

    def test_unreachable_n0_is_refused_before_any_search(self, monkeypatch):
        # no engine run issues n0 >= SEARCH_CAP + 2 * GAP_CAP, so a forged
        # document asking for one costs no search
        params = new_params(2, 1)
        doc = certified_enumerate(params, Kind.FIRST).certificate.to_json_dict()

        def no_search(*args):
            raise AssertionError("check_certificate searched")

        monkeypatch.setattr(certify, "find_aps", no_search)
        for n0 in (certify.SEARCH_CAP + 2 * certify.GAP_CAP, 10**6):
            forged = certificate_from_json(json.loads(json.dumps({**doc, "n0": n0})))
            assert not check_certificate(forged, params, Kind.FIRST)

    def test_listed_triple_beyond_n0_is_rejected(self):
        # the brute window still reproduces the list, but n0 = 2 claims no
        # progression reaches index 5
        params = new_params(1, 3)
        doc = certified_enumerate(params, Kind.SECOND).certificate.to_json_dict()
        assert [(t["k"], t["l"], t["m"]) for t in doc["aps"]] == [(1, 4, 5)]
        forged = certificate_from_json({**doc, "n0": 2})
        assert not check_certificate(forged, params, Kind.SECOND)

    def test_triple_at_n0_is_accepted(self):
        # the one listed triple ends exactly at n0 = 2, which is within n0
        params = new_params(2, 3)
        cert = certified_enumerate(params, Kind.FIRST).certificate
        assert (cert.method, cert.n0) == ("gap_pattern", 2)
        assert [t.indices for t in cert.aps] == [(0, 1, 2)]
        assert check_certificate(cert, params, Kind.FIRST)

    def test_repeated_triple_is_rejected(self):
        # listing a brute-window triple twice leaves the set of triples
        # unchanged, but a certificate names each progression once
        params = new_params(2, 1)
        doc = certified_enumerate(params, Kind.FIRST).certificate.to_json_dict()
        assert doc["aps"]
        forged = certificate_from_json({**doc, "aps": doc["aps"] + [doc["aps"][0]]})
        assert not check_certificate(forged, params, Kind.FIRST)

    def test_wrong_values_are_rejected(self):
        params = new_params(1, 3)
        doc = certified_enumerate(params, Kind.SECOND).certificate.to_json_dict()
        aps = [{**doc["aps"][0], "values": ["1", "2", "3"]}]
        forged = certificate_from_json({**doc, "aps": aps})
        assert not check_certificate(forged, params, Kind.SECOND)

    @pytest.mark.parametrize("pair, kind", [
        ((1, 1), Kind.FIRST), ((-1, -2), Kind.FIRST), ((-1, -2), Kind.SECOND),
    ])
    @pytest.mark.parametrize("n0", [30, 200])
    def test_family_pair_listing_every_triple_within_n0_is_rejected(self, pair, kind, n0):
        # a family has instances beyond any n0 inside the brute window
        params = new_params(*pair)
        fake = CompletenessCertificate(
            "gap_pattern", n0, (), tuple(find_aps(params, kind, n0))
        )
        assert not check_certificate(fake, params, kind)


class TestCertificateJson:
    def test_round_trip(self):
        params = new_params(2, 1)
        r = certified_enumerate(params, Kind.FIRST)
        doc = r.certificate.to_json_dict()
        again = certificate_from_json(json.loads(json.dumps(doc)))
        assert again.n0 == r.certificate.n0
        assert again.method == r.certificate.method
        assert {t.indices for t in again.aps} == {t.indices for t in r.certificate.aps}
        assert check_certificate(again, params, Kind.FIRST)

    def test_read_back_certificate_writes_the_same_document(self):
        # every certificate of the listed pairs, pattern nodes included,
        # read back from JSON text and written out again
        results = [certified_enumerate(params, kind) for params, kind in listed_pairs()]
        docs = [r.certificate.to_json_dict() for r in results if r.certificate is not None]
        assert len(docs) == 151
        for doc in docs:
            assert certificate_from_json(json.loads(json.dumps(doc))).to_json_dict() == doc

    @pytest.mark.parametrize("key", ["patterns", "toolVersion"])
    def test_required_key_missing_raises(self, key):
        # the schema requires both; a default would turn a truncated
        # gap-pattern document into a certificate with no nodes
        doc = certified_enumerate(new_params(2, 1), Kind.FIRST).certificate.to_json_dict()
        del doc[key]
        with pytest.raises(KeyError):
            certificate_from_json(doc)

    @pytest.mark.parametrize("n0", [7.5, True, -3, 1, "7", None])
    def test_malformed_n0_raises(self, n0):
        # cli_schema.json requires an integer n0 >= 2
        doc = certified_enumerate(new_params(2, 1), Kind.FIRST).certificate.to_json_dict()
        with pytest.raises(ValueError, match="n0"):
            certificate_from_json({**doc, "n0": n0})

    @pytest.mark.parametrize(
        "key,value",
        [("aps", {}), ("aps", ""), ("aps", "abc"), ("aps", [[1, 4, 5]]),
         ("patterns", "abc"), ("patterns", {"a": 1}), ("patterns", [1, 2]),
         ("toolVersion", 5), ("note", None)],
        ids=["aps-object", "aps-empty-string", "aps-string", "aps-nested-array",
             "patterns-string", "patterns-object", "patterns-integers",
             "tool-version-integer", "note-null"],
    )
    def test_malformed_array_or_string_raises(self, key, value):
        # cli_schema.json requires aps and patterns to be arrays of objects
        # and toolVersion and note to be strings; each of these read back,
        # and a string or an object of patterns wrote back as another array
        doc = certified_enumerate(new_params(5, 1), Kind.FIRST).certificate.to_json_dict()
        with pytest.raises(ValueError, match=key):
            certificate_from_json({**doc, key: value})

    @pytest.mark.parametrize("complete", ["x", None, [], 0, 1],
                             ids=["string", "null", "array", "zero", "one"])
    def test_non_boolean_complete_raises(self, complete):
        # cli_schema.json types the optional key as boolean, and
        # check_certificate never reads it, so no later step would notice
        doc = certified_enumerate(new_params(2, 1), Kind.FIRST).certificate.to_json_dict()
        assert "complete" not in doc
        assert certificate_from_json({**doc, "complete": True}).to_json_dict() == doc
        with pytest.raises(ValueError, match="complete"):
            certificate_from_json({**doc, "complete": complete})

    @pytest.mark.parametrize("values", ["123", {"1": 0, "2": 0, "3": 0}],
                             ids=["string", "object"])
    def test_triple_values_not_an_array_raises(self, values):
        # each would read back as the progression (1, 2, 3)
        doc = certified_enumerate(new_params(1, 3), Kind.SECOND).certificate.to_json_dict()
        triple = {**doc["aps"][0], "values": values}
        with pytest.raises(ValueError, match="values"):
            certificate_from_json({**doc, "aps": [triple]})

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_triple_values_not_three_raises(self, count):
        # cli_schema.json holds values to exactly 3 items (minItems, maxItems)
        doc = certified_enumerate(new_params(1, 3), Kind.SECOND).certificate.to_json_dict()
        triple = {**doc["aps"][0], "values": (doc["aps"][0]["values"] * 2)[:count]}
        with pytest.raises(ValueError, match="exactly 3"):
            certificate_from_json({**doc, "aps": [triple]})

    @pytest.mark.parametrize("doc", [[], "x", None, 7], ids=["array", "string", "null", "int"])
    def test_non_object_document_raises(self, doc):
        # cli_schema.json types a certificate as an object
        with pytest.raises(ValueError, match="JSON object"):
            certificate_from_json(doc)

    @pytest.mark.parametrize("index", [True, 1.0, "1", -1, None],
                             ids=["bool", "float", "string", "negative", "null"])
    def test_malformed_triple_index_raises(self, index):
        # cli_schema.json requires k, l and m to be integers >= 0; a bool
        # or a float would read back and check True
        doc = certified_enumerate(new_params(1, 3), Kind.SECOND).certificate.to_json_dict()
        triple = {**doc["aps"][0], "k": index}
        with pytest.raises(ValueError, match="indices"):
            certificate_from_json({**doc, "aps": [triple]})

    @pytest.mark.parametrize(
        "value", ["3_1", " 1", "+61", "\u0666\u0661", "61\n", "1.0", "", 61, None],
        ids=["underscore", "space", "plus", "arabic-indic", "newline", "point", "empty",
             "int", "null"],
    )
    def test_malformed_triple_value_raises(self, value):
        # each value is a decimalString, ^-?[0-9]+$ in cli_schema.json; int()
        # alone accepts underscores, spaces, a sign and non-ASCII digits
        doc = certified_enumerate(new_params(1, 3), Kind.SECOND).certificate.to_json_dict()
        triple = {**doc["aps"][0], "values": [value, *doc["aps"][0]["values"][1:]]}
        with pytest.raises(ValueError, match="values"):
            certificate_from_json({**doc, "aps": [triple]})

    @pytest.mark.parametrize("method", ["brute_force", "", None])
    def test_unknown_method_raises(self, method):
        doc = certified_enumerate(new_params(2, 1), Kind.FIRST).certificate.to_json_dict()
        with pytest.raises(ValueError, match="method"):
            certificate_from_json({**doc, "method": method})

    def test_schema_validates(self):
        import jsonschema

        schema_doc = json.loads(
            importlib_resources.files("lucasaps.resources")
            .joinpath("cli_schema.json")
            .read_text()
        )
        schema = dict(schema_doc["$defs"]["certificate"])
        schema["$defs"] = schema_doc["$defs"]
        for pair, kind in [((2, 1), Kind.FIRST), ((5, 1), Kind.FIRST), ((1, 3), Kind.SECOND)]:
            r = certified_enumerate(new_params(*pair), kind)
            jsonschema.validate(r.certificate.to_json_dict(), schema)

    def test_values_are_decimal_strings(self):
        r = certified_enumerate(new_params(1, 9), Kind.FIRST)
        doc = r.certificate.to_json_dict()
        for t in doc["aps"]:
            assert all(isinstance(v, str) for v in t["values"])

    def test_exceptional_pair_documents_are_pinned(self):
        # every certificate and evidence node of the 158 growth-lemma
        # exceptional pairs with D > 0, serialized once; any change to the
        # bytes of a pattern node or certificate moves the digest
        docs = []
        for params, kind in listed_pairs():
            r = certified_enumerate(params, kind)
            docs.append({
                "pair": [params.A, params.B, kind.value],
                "status": r.status,
                "certificate": r.certificate and r.certificate.to_json_dict(),
                "evidence": [e.to_json_dict() for e in r.evidence],
            })
        assert len(docs) == 158
        text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "20030e8ca4e0ef34e6eef95f40fecabe6e224e95481affc5d85056ab8422ddba"
        )
