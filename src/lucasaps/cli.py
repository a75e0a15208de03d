"""Command-line interface.

Subcommands cover classification, windowed enumeration, certified
enumeration, family detection, the symbolic small-index solver, catalog
verification, batch grid scans, trinomial factoring and the counting
bound.  All JSON output renders sequence values and other big integers as
decimal strings.  Exit codes: 0 success, 1 invalid input, 2 inconclusive
certification, 3 internal verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .core import (
    CertificateFailureError, DegenerateError, EngineMismatchError, Kind, SqueezeUnresolvedError,
    ZeroCoefficientError, classify, new_params,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_MISMATCH = 3

# detect_families keeps O(e) integers of O(e) bits, so memory grows as e^2:
# `families --A 1 --B 1 --kind first` peaked at 21 MB at this cap (process
# peak RSS on a 2-vCPU Xeon VM), and memory reaches gigabytes near 10^5.
MAX_EXPONENT = 10_000

# The output bounds this cap, not the search: a pair with a family has O(n)
# triples of O(n)-bit values in the window, so O(n^2) bytes.  Every format goes
# out one triple at a time, each term converted once: (1, 1) first kind writes
# 7.9-8.5 MB at this cap in 0.14 s and 21 MB peak in json, csv or text (one
# process, import included, stdout to a pipe, best of 9 on a 2-vCPU Xeon VM).
MAX_INDEX = 5000

# A scan row costs about 0.012 ms at --max-index 30 and 210 bytes of peak
# memory above the interpreter's 17 MB: a csv box of 249 218 rows took
# 3.0-3.5 s and 68 MB peak RSS on one worker, json (its whole text held)
# 524 MB.  A certified row counts from its certificate at any --max-index,
# but a D < 0, family or inconclusive row searches the window (41 ms at 5000
# with |A| + |B| of 8 bits), so rows times max(--max-index, 30) is capped at
# MAX_SCAN_ROWS * 30: 1500 such rows take about a minute on a 2-vCPU Xeon VM.
MAX_SCAN_ROWS = 250_000

# verify-tables checks O(b_cap) pairs in constant memory: a run at this cap
# took 97 s and 18 MB peak on a 2-vCPU Xeon VM.
MAX_B_CAP = 350_000

# |gamma| <= |A| + |B|, so a term of index n has at most about
# n * bitlen(|A| + |B|) bits; the caps above were sized on (1, 1).  At this
# bound `enumerate --A 254 --B 1 --max-index 5000` peaked at 30 MB; families
# builds terms only for |A| <= 1 + |B|, and its largest such call, (3, 2) first
# kind at --max-exponent 10000, peaked at 29 MB in 0.15 s (process peak RSS).
MAX_TERM_BITS = 40_000

# A grid check runs find_aps on all (2N + 1)^2 pairs of the box: at this cap
# and --max-index 7 it took 88 s (first kind) and 19 MB peak.
MAX_GRID_CHECK = 850


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _kind_arg(value: str) -> Kind:
    try:
        return Kind(value)
    except ValueError:
        raise argparse.ArgumentTypeError("kind must be 'first' or 'second'")


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return n


def _worker_count(jobs: int) -> int:
    """Requested scan workers, clamped to the CPU count."""
    return min(jobs, os.cpu_count() or 1)


def _range_arg(value: str):
    try:
        lo, hi = map(int, value.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError("range must look like LO..HI")
    if lo > hi:
        raise argparse.ArgumentTypeError("empty range")
    return lo, hi


def _check_bounds(option: str, n: int, lo: int, hi: int) -> None:
    """Usage error unless lo <= n <= hi."""
    if not lo <= n <= hi:
        raise _UsageError(f"{option} must be between {lo} and {hi}")


def _check_term_bits(option: str, n: int, coeff_sum: int) -> None:
    """Usage error when n times the bit length of |A| + |B| exceeds MAX_TERM_BITS."""
    bits = coeff_sum.bit_length()
    if n * bits > MAX_TERM_BITS:
        raise _UsageError(
            f"{option} {n} with |A| + |B| of {bits} bits allows terms of {n * bits} bits; "
            f"at most {MAX_TERM_BITS} are allowed"
        )


def _family_doc(f) -> dict:
    return {
        "k": list(f.k_form),
        "l": list(f.l_form),
        "m": list(f.m_form),
        "tMin": f.t_min,
        "pattern": f.describe(),
    }


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


# enumerate's (opening, row, separator, close) per format.  A row takes the
# separator before it, k, l, m and three decimal strings.  The json row is
# json.dumps(indent=2) of APTriple.to_json_dict() in a top-level aps array; the
# csv row is csv.writer's, whose excel dialect quotes no integer or decimal string.
_ENUMERATE_LAYOUTS = {
    "json": ("[\n", '{}    {{\n      "k": {},\n      "l": {},\n      "m": {},\n      "values": [\n'
             '        "{}",\n        "{}",\n        "{}"\n      ]\n    }}', ",\n", "\n  ]\n}\n"),
    "csv": ("k,l,m,value_k,value_l,value_m\n", "{}{},{},{},{},{},{}\n", "", ""),
    "text": ("", "{}({}, {}, {}) -> ({}, {}, {})\n", "", ""),
}


@functools.cache
def _build_parser() -> _Parser:
    # built on the first call, not at import, and shared by every later one;
    # each subcommand names its handler, which main runs as args.run(args).
    # A handler imports the modules it runs, so import lucasaps.cli loads only
    # core; the parser itself loads special for the --shape choices
    from .special import TrinomialShape

    parser = _Parser(prog="lucasaps", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lucasaps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--A", type=int, required=True)
    pair.add_argument("--B", type=int, required=True)
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("--kind", type=_kind_arg, required=True)

    p = sub.add_parser("classify", parents=[pair],
                       help="validate a pair and classify its discriminant")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("enumerate", parents=[pair, kind],
                       help="all progressions with indices below a window")
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("certify", parents=[pair, kind],
                       help="certified complete enumeration (positive discriminant)")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("families", parents=[pair, kind],
                       help="unit-step families by companion divisibility")
    p.add_argument("--max-exponent", type=int, required=True)
    p.set_defaults(run=_cmd_families)

    p = sub.add_parser("smallcases", parents=[kind],
                       help="symbolic solver for small largest index")
    p.add_argument("--max-index", type=int, default=6)
    p.add_argument("--no-dominant-filter", action="store_true")
    p.add_argument("--grid-check", type=_positive_int, metavar="N",
                   help="cross-check against brute enumeration on the |A|,|B| <= N grid")
    p.set_defaults(run=_cmd_smallcases)

    p = sub.add_parser("verify-tables", help="cross-verify the progression catalog")
    p.add_argument("--b-cap", type=int, default=25)
    p.set_defaults(run=_cmd_verify_tables)

    p = sub.add_parser("scan", help="batch scan over a coefficient grid")
    p.add_argument("--a-range", type=_range_arg, required=True)
    p.add_argument("--b-range", type=_range_arg, required=True)
    p.add_argument("--kind", choices=("first", "second", "both"), default="both")
    p.add_argument("--max-index", type=int, default=30)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(run=_cmd_scan)

    p = sub.add_parser("factor-trinomial", help="monic quadratic factors of a gap trinomial")
    p.add_argument("--shape", choices=[s.value for s in TrinomialShape], required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(run=_cmd_factor_trinomial)

    p = sub.add_parser("sunit-bound", help="exact progression-count bound")
    p.set_defaults(run=_cmd_sunit_bound)
    return parser


def _cmd_classify(args) -> int:
    params = new_params(args.A, args.B)
    _emit(
        {
            "A": params.A,
            "B": params.B,
            "discriminant": str(params.D),
            "classification": classify(params).value,
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .apsearch import find_aps

    _check_bounds("--max-index", args.max_index, 2, MAX_INDEX)
    _check_term_bits("--max-index", args.max_index, abs(args.A) + abs(args.B))
    params = new_params(args.A, args.B)
    aps = find_aps(params, args.kind, args.max_index)
    opening, row, separator, close = _ENUMERATE_LAYOUTS[args.format]
    out = sys.stdout
    if args.format == "json":
        # json.dumps(indent=2) runs the pure-Python encoder, which cost more than
        # the search on a family pair; the head keeps its rendering minus "\n}"
        doc = {"A": params.A, "B": params.B, "kind": args.kind.value, "maxIndex": args.max_index}
        out.write(f'{json.dumps(doc, indent=2)[:-2]},\n  "aps": ')
        if not aps:
            opening, close = "[]", "\n}\n"
    out.write(opening)
    # one triple at a time, so the output is never held whole; a value depends
    # on its index alone, and a family pair repeats each index in about three
    # triples, so each term's decimal string is built once
    digits = {}
    sep = ""
    for t in aps:
        for i, v in zip(t.indices, t.values):
            if i not in digits:
                digits[i] = str(v)
        out.write(row.format(sep, t.k, t.l, t.m, digits[t.k], digits[t.l], digits[t.m]))
        sep = separator
    out.write(close)
    if args.format == "text":
        out.write(f"{len(aps)} progression(s) with indices <= {args.max_index}\n")
    return EXIT_OK


def _cmd_certify(args) -> int:
    from .certify import certified_enumerate

    params = new_params(args.A, args.B)
    result = certified_enumerate(params, args.kind)
    doc = {
        "A": params.A,
        "B": params.B,
        "kind": args.kind.value,
        "status": result.status,
        "aps": [t.to_json_dict() for t in result.aps],
        "families": [_family_doc(f) for f in result.families],
        "certificate": None,
    }
    if result.certificate is not None:
        cert = result.certificate.to_json_dict()
        cert["complete"] = True
        doc["certificate"] = cert
    code = EXIT_OK
    if result.status == "inconclusive":
        doc["diagnostics"] = list(result.diagnostics)
        code = EXIT_INCONCLUSIVE
    _emit(doc)
    return code


def _cmd_families(args) -> int:
    from .apsearch import detect_families

    _check_bounds("--max-exponent", args.max_exponent, 3, MAX_EXPONENT)
    _check_term_bits("--max-exponent", args.max_exponent, abs(args.A) + abs(args.B))
    params = new_params(args.A, args.B)
    fams = detect_families(params, args.kind, args.max_exponent)
    _emit(
        {
            "A": params.A,
            "B": params.B,
            "kind": args.kind.value,
            "maxExponent": args.max_exponent,
            "families": [_family_doc(f) for f in fams],
        }
    )
    return EXIT_OK


def _cmd_smallcases(args) -> int:
    from .apsearch import find_aps
    from .smallcase import MAX_CASE_INDEX, DomainFilter, solve_all

    _check_bounds("--max-index", args.max_index, 2, MAX_CASE_INDEX)
    if args.grid_check and args.grid_check > MAX_GRID_CHECK:
        raise _UsageError(f"--grid-check must be at most {MAX_GRID_CHECK}")
    filt = DomainFilter(dominant=not args.no_dominant_filter)
    solset = solve_all(args.kind, args.max_index, filt)
    doc = solset.to_json_dict()
    code = EXIT_OK
    if args.grid_check:
        n = args.grid_check
        sym = solset.grid_instances(-n, n, -n, n)
        brute = set()
        for A in range(-n, n + 1):
            for B in range(-n, n + 1):
                if not filt.admits(A, B):
                    continue
                params = new_params(A, B)
                for t in find_aps(params, args.kind, args.max_index):
                    brute.add((A, B, t.indices))
        doc["gridCheck"] = {
            "box": n,
            "symbolic": len(sym),
            "bruteForce": len(brute),
            "equal": sym == brute,
        }
        if sym != brute:
            code = EXIT_MISMATCH
    _emit(doc)
    return code


def _cmd_verify_tables(args) -> int:
    from .tables import MIN_B_CAP, verify_tables

    _check_bounds("--b-cap", args.b_cap, MIN_B_CAP, MAX_B_CAP)
    report = verify_tables(args.b_cap)
    _emit(report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_MISMATCH


_SCAN_COLUMNS = [
    "A", "B", "kind", "classification", "ap_count_window",
    "family_count", "certified", "n0",
]
# detect_families' exponent for a scan row: over |A|, |B| <= 25, both kinds,
# e = 12 and e = 60 return the same families, and none has an offset above 3
SCAN_FAMILY_EXPONENT = 12


def _scan_pair(certified_enumerate, find_aps, detect_families, job):
    # the engine functions come bound by _cmd_scan, once per call: an import
    # statement here would run once per row.  A row is a tuple in _SCAN_COLUMNS order
    A, B, kind, max_index = job
    try:
        params = new_params(A, B)
    except ZeroCoefficientError:
        return A, B, kind.value, "zero_coefficient", "", "", "", ""
    except DegenerateError as exc:
        return A, B, kind.value, f"degenerate_order_{exc.order}", "", "", "", ""
    classification = classify(params).value
    result = certified_enumerate(params, kind)
    if result.status == "complete":
        # the certificate lists every progression, so no family and no search
        count = sum(t.max_index <= max_index for t in result.aps)
        return A, B, kind.value, classification, count, 0, "true", result.certificate.n0
    count = len(find_aps(params, kind, max_index))
    families = len(detect_families(params, kind, SCAN_FAMILY_EXPONENT))
    return A, B, kind.value, classification, count, families, "false", ""


def _cmd_scan(args) -> int:
    import csv

    from .apsearch import detect_families, find_aps
    from .certify import certified_enumerate

    _check_bounds("--max-index", args.max_index, 2, MAX_INDEX)
    kinds = tuple(Kind) if args.kind == "both" else (Kind(args.kind),)
    (a_lo, a_hi), (b_lo, b_hi) = args.a_range, args.b_range
    count = (a_hi - a_lo + 1) * (b_hi - b_lo + 1) * len(kinds)
    limit = MAX_SCAN_ROWS * 30 // max(args.max_index, 30)
    if count > limit:
        raise _UsageError(f"the scan box has {count} rows; at most {limit} are allowed")
    _check_term_bits(
        "--max-index", args.max_index,
        max(abs(a_lo), abs(a_hi)) + max(abs(b_lo), abs(b_hi)),
    )
    jobs = [
        (A, B, kind, args.max_index)
        for A in range(a_lo, a_hi + 1)
        for B in range(b_lo, b_hi + 1)
        for kind in kinds
    ]
    scan_pair = functools.partial(_scan_pair, certified_enumerate, find_aps, detect_families)
    workers = _worker_count(args.jobs)
    # opened after every other check, so a refused run leaves no file, and
    # before the first row, so an unusable --out costs no work
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise _UsageError(f"cannot open --out {args.out!r}: {exc.strerror}") from None
    with fh:
        if workers > 1:
            # imported here: every other command starts without multiprocessing
            from multiprocessing import get_context

            with get_context("fork").Pool(workers) as pool:
                rows = pool.map(scan_pair, jobs)
        else:
            rows = [scan_pair(job) for job in jobs]

        # a full disk shows at a write or at the closing flush; either is one
        # error line, and the partial file stays
        try:
            if args.format == "csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_SCAN_COLUMNS)
                writer.writerows(rows)
            elif args.format == "json":
                # the row tuples are freed before json.dumps builds its text
                rows = [dict(zip(_SCAN_COLUMNS, r)) for r in rows]
                fh.write(json.dumps({"rows": rows}, indent=2) + "\n")
            else:
                widths = [max(map(len, map(str, column))) for column in zip(_SCAN_COLUMNS, *rows)]
                for r in [_SCAN_COLUMNS, *rows]:
                    fh.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)) + "\n")
            fh.close()
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_factor_trinomial(args) -> int:
    from .special import EXPONENT_CAP, TrinomialShape, TrinomialSpec, quad_factors

    _check_bounds("--b", args.b, 1, EXPONENT_CAP - 1)
    _check_bounds("--a", args.a, args.b + 1, EXPONENT_CAP)
    spec = TrinomialSpec(TrinomialShape(args.shape), args.a, args.b)
    factors = quad_factors(spec)
    _emit(
        {
            "trinomial": spec.describe(),
            "factors": [
                {
                    "p": p,
                    "q": q,
                    "poly": f"X^2{p:+d}X{q:+d}".replace("+0X", "").replace("1X", "X"),
                    "discriminant": p * p - 4 * q,
                }
                for p, q in factors
            ],
        }
    )
    return EXIT_OK


def _cmd_sunit_bound(args) -> int:
    from .special import sunit_constant

    bound = sunit_constant()
    stated_text, stated = "6.45e2340", 645 * 10**2338  # the paper's constant
    _emit(
        {
            "digitCount": bound.digit_count,
            "leadingDigits": bound.leading_digits,
            "exponent10": bound.exponent10,
            "belowStatedBound": bound.value < stated,
            "statedBound": stated_text,
            "decimal": bound.decimal_string(),
        }
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SqueezeUnresolvedError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (EngineMismatchError, CertificateFailureError) as exc:
        print(f"internal verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
