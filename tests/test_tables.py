"""Catalog integrity and the end-to-end verification report."""

import json
from dataclasses import replace
from importlib import resources as importlib_resources

import pytest

from helpers import pair_in_tables, term
from lucasaps.apsearch import APFamily, detect_families, is_ap, verify_family
from lucasaps.certify import EnumerationResult, certified_enumerate, growth_exception
from lucasaps.core import Kind, degeneracy_order, new_params
from lucasaps.smallcase import DomainFilter
from lucasaps import tables
from lucasaps.tables import (
    infinite_family_pairs,
    load_table_entries,
    verify_tables,
)


def family_for_pair(A, B, kind, e_max=12):
    """Some verified family witnessing infinitely many progressions.

    Uses divisibility detection first and falls back to catalog patterns
    (the step-two families are not unit-step and are catalog-supplied).
    """
    fams = detect_families(new_params(A, B), kind, e_max)
    if fams:
        return fams[0]
    for entry in load_table_entries():
        if entry.kind is kind and not entry.is_b_row and (entry.a, entry.b) == (A, B):
            if entry.families:
                return entry.families[0]
    return None


def expected_checked_pairs(b_cap: int) -> int:
    """The catalog's pairs up to b_cap, then the admitted pairs of the
    off-grid box that the pair_in_tables oracle says the catalog lacks."""
    catalog = sum(
        len(range(e.b_min, b_cap + 1)) if e.is_b_row else 1 for e in load_table_entries()
    )
    box = range(-tables.OFF_GRID, tables.OFF_GRID + 1)
    absent = sum(
        1
        for kind in Kind
        for A in box
        for B in box
        if DomainFilter().admits(A, B) and not pair_in_tables(A, B, kind)
    )
    return catalog + absent


def describe_pair(entry) -> str:
    if entry.is_b_row:
        return f"({entry.a}, B), B>={entry.b_min}"
    return f"({entry.a}, {entry.b})"


class TestCatalogData:
    def test_round_trip(self):
        raw = json.loads(
            importlib_resources.files("lucasaps.resources")
            .joinpath("tables.json")
            .read_text()
        )
        assert json.loads(json.dumps(raw)) == raw

    def test_row_counts(self):
        entries = load_table_entries()
        assert sum(1 for e in entries if e.kind is Kind.FIRST) == 7
        assert sum(1 for e in entries if e.kind is Kind.SECOND) == 6

    def test_every_listed_triple_is_a_progression(self):
        for entry in load_table_entries():
            b_values = [entry.b] if not entry.is_b_row else list(
                range(entry.b_min, entry.b_min + 6)
            )
            for b in b_values:
                params = new_params(entry.a, b)
                for trip in entry.all_triples():
                    vals = [term(params, entry.kind, i) for i in trip]
                    assert is_ap(*vals), (describe_pair(entry), trip)

    def test_every_family_certifies(self):
        for entry in load_table_entries():
            if entry.is_b_row:
                continue
            params = new_params(entry.a, entry.b)
            for fam in entry.families:
                verify_family(fam, params, entry.kind)

    def test_pair_lookup(self):
        assert pair_in_tables(2, 7, Kind.FIRST)
        assert pair_in_tables(1, 1, Kind.FIRST)
        assert not pair_in_tables(5, 1, Kind.FIRST)
        assert not pair_in_tables(2, 7, Kind.SECOND)
        assert not pair_in_tables(1, 2, Kind.SECOND)


class TestVerifyTables:
    def test_clean_report(self):
        report = verify_tables(12)
        assert report.ok, report.mismatches
        assert report.checked_pairs == 642
        assert len(report.completions_used) == 2

    def test_inconclusive_catalog_pair_is_a_mismatch(self, monkeypatch):
        # a catalog pair the engine cannot settle is reported, not compared
        real = tables.certified_enumerate

        def stalled(params, kind):
            if (params.A, params.B, kind) == (1, 1, Kind.FIRST):
                return EnumerationResult("inconclusive", diagnostics=("guard tripped",))
            return real(params, kind)

        monkeypatch.setattr(tables, "certified_enumerate", stalled)
        report = verify_tables()
        assert report.mismatches == ["first (1, 1): enumeration inconclusive: ('guard tripped',)"]

    def test_inconclusive_absent_pair_is_a_mismatch(self, monkeypatch):
        # a pair absent from the catalog is an empty row under the same rule
        real = tables.certified_enumerate

        def stalled(params, kind):
            if (params.A, params.B, kind) == (5, 1, Kind.FIRST):
                return EnumerationResult("inconclusive", diagnostics=("guard tripped",))
            return real(params, kind)

        monkeypatch.setattr(tables, "certified_enumerate", stalled)
        assert not pair_in_tables(5, 1, Kind.FIRST)
        report = verify_tables()
        assert report.mismatches == ["first (5, 1): enumeration inconclusive: ('guard tripped',)"]

    @pytest.mark.parametrize("b_cap", [10, 25])
    def test_checked_pairs_match_the_oracle(self, b_cap):
        assert verify_tables(b_cap).checked_pairs == expected_checked_pairs(b_cap)

    def test_rejects_small_cap(self):
        with pytest.raises(ValueError):
            verify_tables(5)

    def test_json_shape(self):
        doc = verify_tables(10).to_json_dict()
        assert doc["ok"] is True
        assert doc["checkedPairs"] == 636
        assert doc["mismatches"] == []


def _first_one_one(entry) -> bool:
    return entry.kind is Kind.FIRST and not entry.is_b_row and (entry.a, entry.b) == (1, 1)


def _first_b_row(a):
    return lambda entry: entry.kind is Kind.FIRST and entry.is_b_row and entry.a == a


def _mutant(pick, change):
    """The catalog with change applied to the rows that pick selects
    (change None drops them)."""
    rows = tables._table_entries()
    if change is None:
        return tuple(e for e in rows if not pick(e))
    return tuple(change(e) if pick(e) else e for e in rows)


class TestVerifyTablesDetectsBrokenCatalogs:
    @pytest.mark.parametrize(
        "pick,change,first_mismatch",
        [
            (_first_one_one, lambda e: replace(e, triples=e.triples[1:]),
             "first (1, 1): triples differ: catalog-only [] engine-only [(0, 1, 3)]"),
            (_first_b_row(2), lambda e: replace(e, b_min=2),
             "first (2, 1): triples differ: catalog-only [] engine-only [(0, 1, 2)]"),
            (_first_b_row(1), lambda e: replace(e, b_min=2),
             "first (1, 2): families differ"),
            (_first_one_one, None,
             "first (1, 1): families differ: catalog [] vs engine ['(t, t+2, t+3), t>=0']"),
            (_first_one_one, lambda e: replace(e, families=()),
             "first (1, 1): families differ"),
            (_first_one_one, lambda e: replace(e, completions=()),
             "first (1, 1): triples differ: catalog-only [] engine-only [(1, 4, 5)]"),
            (_first_one_one,
             lambda e: replace(e, families=(APFamily((0, 1), (2, 1), (4, 1), 0),)),
             "first (1, 1): families differ: catalog ['(t, t+2, t+4), t>=0'] "
             "vs engine ['(t, t+2, t+3), t>=0']"),
            (_first_one_one, lambda e: replace(e, triples=((0, 1, 2),) + e.triples[1:]),
             "first (1, 1): triples differ: catalog-only [(0, 1, 2)] engine-only [(0, 1, 3)]"),
            # B = -1 is degenerate at A = 2 and B = 0 is no pair at all
            (_first_b_row(2), lambda e: replace(e, b_min=-1),
             "first (2, -1): inadmissible pair"),
            # a family instance listed as a sporadic triple, above the window
            (_first_one_one, lambda e: replace(e, triples=e.triples + ((70, 72, 73),)),
             "first (1, 1): triples differ: catalog-only [(70, 72, 73)] engine-only []"),
        ],
        ids=["drop-triple", "raise-bmin", "lower-bmin", "drop-entry",
             "drop-family", "drop-completion", "shift-family", "non-progression-triple",
             "inadmissible-pair", "triple-above-window"],
    )
    def test_mutant_fails(self, monkeypatch, pick, change, first_mismatch):
        mutant = _mutant(pick, change)
        assert mutant != tables._table_entries()
        monkeypatch.setattr(tables, "_table_entries", lambda: mutant)
        report = verify_tables()
        assert report.ok is False
        assert report.mismatches[0].startswith(first_mismatch), report.mismatches

    @pytest.mark.parametrize(
        "pick,change",
        [(_first_one_one, None), (_first_b_row(2), lambda e: replace(e, b_min=2))],
        ids=["drop-entry", "raise-bmin"],
    )
    def test_checked_pairs_match_the_oracle(self, monkeypatch, pick, change):
        mutant = _mutant(pick, change)
        monkeypatch.setattr(tables, "_table_entries", lambda: mutant)
        assert verify_tables().checked_pairs == expected_checked_pairs(25)


class TestExceptionalPairs:
    def test_every_exceptional_pair_agrees_with_the_catalog(self):
        # the growth-lemma exception set with D > 0 is finite: |A| <= 7 and
        # -A^2/4 < B <= 14; (+-1, 11..14) and (+-7, -11), (+-7, -12) lie
        # outside the box that verify_tables sweeps
        counts = {}
        for kind in Kind:
            counts[kind] = 0
            for A in range(-7, 8):
                for B in range(-(A * A) // 4, 15):
                    if A == 0 or B == 0 or A * A + 4 * B <= 0:
                        continue
                    if degeneracy_order(A, B) is not None:
                        continue
                    params = new_params(A, B)
                    if not growth_exception(params, kind):
                        continue
                    counts[kind] += 1
                    result = certified_enumerate(params, kind)
                    assert result.status != "inconclusive", (kind, A, B)
                    found = bool(result.families or result.aps)
                    assert pair_in_tables(A, B, kind) == found, (kind, A, B)
        assert counts == {Kind.FIRST: 62, Kind.SECOND: 96}


class TestInfiniteFamilyPairs:
    def test_listed_pairs(self):
        assert infinite_family_pairs() == (
            ((1, 1), (-1, 1), (1, 2), (-1, 2), (-1, -2)),
            ((1, 1), (-1, 1), (-1, 2), (-1, -2)),
        )
        first, second = infinite_family_pairs()
        assert (-1, -2) in first and (-1, -2) in second
        assert (1, 2) in first and (1, 2) not in second
        assert (5, 1) not in first and (5, 1) not in second

    def test_each_pair_has_many_distinct_instances(self):
        first, second = infinite_family_pairs()
        for pairs, kind in ((first, Kind.FIRST), (second, Kind.SECOND)):
            for A, B in pairs:
                fam = family_for_pair(A, B, kind)
                assert fam is not None, (A, B, kind)
                params = new_params(A, B)
                verify_family(fam, params, kind)
                distinct = 0
                for t in range(fam.t_min, 201):
                    k, l, m = fam.instantiate(t)
                    vals = [term(params, kind, i) for i in (k, l, m)]
                    if is_ap(*vals):
                        distinct += 1
                assert distinct >= 50, (A, B, kind, distinct)

    def test_degenerate_family_instance_is_not_fatal(self):
        # value -1 repeats, so one family instance collapses to equal terms,
        # and the family still passes its certificate
        params = new_params(-1, -2)
        fam = family_for_pair(-1, -2, Kind.FIRST)
        assert verify_family(fam, params, Kind.FIRST) is None
        degenerate = [
            t for t in range(fam.t_min, 51)
            if not is_ap(*(term(params, Kind.FIRST, i) for i in fam.instantiate(t)))
        ]
        assert degenerate
        k, l, m = fam.instantiate(degenerate[0])
        vals = {term(params, Kind.FIRST, i) for i in (k, l, m)}
        assert len(vals) < 3
