"""Built-in progression catalog and end-to-end cross-verification.

The catalog (resources/tables.json) lists, for each kind, every
positive-discriminant pair admitting a three-term progression: fixed pairs
with their sporadic triples and parametric families, and one-parameter rows
where B is free above a threshold.  Rows keep their source orientation;
comparisons canonicalize first.

Two rows carry a "completion": a certified progression the compact row
omits (one is an index twin through a repeated term value, one a plain
sporadic).  Completions are never trusted silently; every verification run
re-proves them with the enumeration engine and lists them in the report.

Verification compares one description per pair: the normalized families
must equal the certified enumeration's, and the canonical index triples of
the full row (verbatim plus completions), all of them, must equal the
enumeration's up to index WINDOW as plain sets, with no allowance for
family instances: a catalog triple above WINDOW is a mismatch.  A
wrong catalog family or triple is a reported mismatch.  The same rule
checks every in-range pair absent from the catalog, as a row with no
families and no triples.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources as importlib_resources

from .apsearch import APFamily, canonical_indices
from .certify import certified_enumerate
from .core import Kind, new_params
from .smallcase import DomainFilter
from .special import companion_candidates_complex


@dataclass(frozen=True)
class TableEntry:
    """One catalog row: a fixed pair or a B-free row with its progressions."""

    kind: Kind
    a: int
    b: int | None          # None for B-free rows
    b_min: int | None      # set for B-free rows
    triples: tuple         # source orientation
    families: tuple        # APFamily in source orientation
    completions: tuple = ()  # (triple, note) pairs beyond the compact row

    @property
    def is_b_row(self) -> bool:
        return self.b is None

    def all_triples(self) -> tuple:
        return self.triples + tuple(t for t, _ in self.completions)


@functools.cache
def _table_entries() -> tuple:
    """The catalog rows, parsed from tables.json once per process."""
    path = importlib_resources.files("lucasaps.resources").joinpath("tables.json")
    raw = json.loads(path.read_text())
    out = []
    for key, kind in (("first", Kind.FIRST), ("second", Kind.SECOND)):
        for row in raw[key]:
            fams = tuple(
                APFamily(tuple(f["k"]), tuple(f["l"]), tuple(f["m"]), f["tMin"])
                for f in row["families"]
            )
            completions = tuple(
                (tuple(c["triple"]), c["note"]) for c in row.get("completions", ())
            )
            out.append(
                TableEntry(
                    kind,
                    row["pair"]["A"],
                    row["pair"].get("B"),
                    row["pair"].get("bMin"),
                    tuple(tuple(t) for t in row["triples"]),
                    fams,
                    completions,
                )
            )
    return tuple(out)


def load_table_entries() -> list:
    return list(_table_entries())


@dataclass
class TablesReport:
    b_cap: int
    checked_pairs: int = 0
    mismatches: list = field(default_factory=list)
    completions_used: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "bCap": self.b_cap,
            "window": WINDOW,
            "offGrid": OFF_GRID,
            "checkedPairs": self.checked_pairs,
            "mismatches": list(self.mismatches),
            "completionsUsed": list(self.completions_used),
        }


def _check_fixed_pair(entry: TableEntry, B: int, report: TablesReport):
    params = new_params(entry.a, B)
    kind = entry.kind
    label = f"{kind.value} ({entry.a}, {B})"
    result = certified_enumerate(params, kind)
    if result.status == "inconclusive":
        report.mismatches.append(f"{label}: enumeration inconclusive: {result.diagnostics}")
        return

    table_fams = {f.normalized() for f in entry.families}
    engine_fams = {f.normalized() for f in result.families}
    if table_fams != engine_fams:
        report.mismatches.append(
            f"{label}: families differ: catalog {sorted(f.describe() for f in table_fams)} "
            f"vs engine {sorted(f.describe() for f in engine_fams)}"
        )
        return

    catalog_triples = {canonical_indices(*t) for t in entry.all_triples()}
    engine_triples = {t.indices for t in result.aps if t.max_index <= WINDOW}
    if catalog_triples != engine_triples:
        report.mismatches.append(
            f"{label}: triples differ: catalog-only {sorted(catalog_triples - engine_triples)} "
            f"engine-only {sorted(engine_triples - catalog_triples)}"
        )
        return
    for trip, note in entry.completions:
        report.completions_used.append(f"{label}: {trip} ({note})")


# Smallest b_cap that verify_tables accepts: each B-free row is checked from
# its bMin through at least B = 10.
MIN_B_CAP = 10
# The engine's triples are compared up to index WINDOW and the catalog's all;
# pairs absent from the catalog are swept over |A|, |B| <= OFF_GRID.
# OFF_GRID <= MIN_B_CAP, so every B-free row's pairs in that box are among
# those the catalog pass checks.
WINDOW = 60
OFF_GRID = 10


def verify_tables(b_cap: int = 25) -> TablesReport:
    """Cross-verify the catalog against the certified enumeration.

    Checks every fixed pair and every B-free row up to b_cap, then every
    admitted pair inside the OFF_GRID box that the catalog pass did not
    check, as an empty row: one rule for every pair.  A catalog pair that
    DomainFilter does not admit is a mismatch.
    """
    if b_cap < MIN_B_CAP:
        raise ValueError(f"b_cap must be at least {MIN_B_CAP}")
    report = TablesReport(b_cap)

    checked = set()
    for entry in _table_entries():
        for B in range(entry.b_min, b_cap + 1) if entry.is_b_row else (entry.b,):
            checked.add((entry.kind, entry.a, B))
            report.checked_pairs += 1
            if not DomainFilter().admits(entry.a, B):
                report.mismatches.append(f"{entry.kind.value} ({entry.a}, {B}): inadmissible pair")
                continue
            _check_fixed_pair(entry, B, report)

    for kind in (Kind.FIRST, Kind.SECOND):
        for A in range(-OFF_GRID, OFF_GRID + 1):
            for B in range(-OFF_GRID, OFF_GRID + 1):
                if not DomainFilter().admits(A, B) or (kind, A, B) in checked:
                    continue
                report.checked_pairs += 1
                _check_fixed_pair(TableEntry(kind, A, B, None, (), ()), B, report)
    return report


def infinite_family_pairs() -> tuple:
    """Coefficient pairs whose sequences contain infinitely many progressions,
    per kind: the catalog rows with families, in catalog order, then the
    negative-discriminant companion pairs.  Every other pair admits at most
    finitely many."""
    extra = tuple((p.A, p.B) for p in companion_candidates_complex())
    return tuple(
        tuple((e.a, e.b) for e in _table_entries() if e.kind is kind and e.families) + extra
        for kind in (Kind.FIRST, Kind.SECOND)
    )
