#!/usr/bin/env python3
"""End-to-end reproduction of the headline results.

Verifies the progression catalog against the certification engine, walks
through the (2, 1) worked example with its exact margins and re-checks its
certificate as read back from JSON text, checks the ratio boundary
witnesses, reduces the negative-discriminant family question to the single
pair (-1, -2), and prints the exact counting constant.
"""

import json

from lucasaps.certify import certificate_from_json, certified_enumerate, check_certificate
from lucasaps.core import Kind, Surd, new_params, terms
from lucasaps.special import companion_candidates_complex, sunit_constant
from lucasaps.tables import infinite_family_pairs, verify_tables


def main():
    print("== catalog verification ==")
    report = verify_tables(25)
    print(f"checked pairs: {report.checked_pairs}")
    print(f"mismatches:    {len(report.mismatches)}")
    for line in report.mismatches:
        print("  !!", line)
    for line in report.completions_used:
        print("  completion:", line)

    print("\n== worked example (A, B) = (2, 1), first kind ==")
    params = new_params(2, 1)
    result = certified_enumerate(params, Kind.FIRST)
    print("progressions:", [t.indices for t in result.aps])
    print("certificate:", result.certificate.method, "n0 =", result.certificate.n0)
    for ev in result.evidence:
        if ev.margin is not None:
            print(f"  sub-case {ev.pattern.describe():28s} margin {str(ev.margin):12s} "
                  f"top index <= {ev.top_bound}")
    assert Surd(8, 3, 8) in [e.margin for e in result.evidence if e.margin]
    text = json.dumps(result.certificate.to_json_dict())
    accepted = check_certificate(certificate_from_json(json.loads(text)), params, Kind.FIRST)
    print("certificate read back from JSON checks:", accepted)
    assert accepted

    print("\n== ratio boundary witnesses at |A| = 1 ==")
    for b in (9, 10):
        ts = terms(new_params(1, b), Kind.FIRST, 9)
        print(f"B = {b}: |x_8| = {abs(ts[8])} {'<' if abs(ts[8]) < 3*abs(ts[7]) else '>'} "
              f"3|x_7| = {3 * abs(ts[7])}")

    print("\n== negative discriminant reduction ==")
    pairs = companion_candidates_complex()
    print("surviving companion pairs:", [(p.A, p.B) for p in pairs])
    first, second = infinite_family_pairs()
    print("infinitely many progressions (first kind): ", list(first))
    print("infinitely many progressions (second kind):", list(second))

    print("\n== counting bound ==")
    bound = sunit_constant()
    print(f"exact value has {bound.digit_count} digits; "
          f"~ {bound.leading_digits[0]}.{bound.leading_digits[1:]}e{bound.exponent10}; "
          f"below 6.45e2340: {bound.value < 645 * 10**2338}")

    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
