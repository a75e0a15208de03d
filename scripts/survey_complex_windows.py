#!/usr/bin/env python3
"""Survey sporadic progressions for negative-discriminant pairs.

No effective completeness certification exists when A^2 + 4B < 0, so this
script does the next best thing: brute windows plus divisibility-family
scans over a coefficient box.  Defaults reproduce the numbers frozen into
the test suite: (-1, -2) carries a family for both kinds, and the other 126
pair/kind combinations have no families and 240 sporadic progressions over
78 of them, none past index 26.
"""

import argparse
from collections import Counter

from lucasaps.apsearch import detect_families, find_aps
from lucasaps.core import Kind, new_params
from lucasaps.smallcase import DomainFilter


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--box", type=int, default=10, help="coefficient box |A|,|B| <= box")
    ap.add_argument("--window", type=int, default=200, help="index window for brute search")
    ap.add_argument("--family-exponent", type=int, default=50)
    ap.add_argument("--show-all", action="store_true")
    args = ap.parse_args()

    stats = Counter()
    worst = 0
    for A in range(-args.box, args.box + 1):
        for B in range(-args.box, args.box + 1):
            if not DomainFilter(dominant=False).admits(A, B) or A * A + 4 * B >= 0:
                continue
            params = new_params(A, B)
            for kind in Kind:
                fams = detect_families(params, kind, args.family_exponent)
                aps = find_aps(params, kind, args.window)
                stats["pairs"] += 1
                stats["with_families"] += bool(fams)
                if aps and not fams:
                    stats["aps"] += len(aps)
                    stats["with_aps"] += 1
                    worst = max(worst, max(t.max_index for t in aps))
                if fams or (aps and args.show_all):
                    tag = " FAMILY" if fams else ""
                    print(f"({A:3d},{B:4d}) {kind.value:6s}{tag} "
                          f"{sorted(t.indices for t in aps)}")

    print(f"\npair/kind combinations: {stats['pairs']}")
    print(f"with families:          {stats['with_families']}"
          f"  (expected: only (-1,-2) twice inside the default box)")
    print(f"sporadic progressions over the "
          f"{stats['pairs'] - stats['with_families']} without families:")
    print(f"  with progressions:    {stats['with_aps']}")
    print(f"  total progressions:   {stats['aps']}")
    print(f"  largest index seen:   {worst}")


if __name__ == "__main__":
    raise SystemExit(main())
