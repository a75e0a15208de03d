"""Three-term progression predicate, windowed enumeration, and index families.

A triple of indices (k, l, m) denotes the progression (x_k, x_l, x_m) with
2*x_l = x_k + x_m and pairwise distinct values.  Both monotone directions are
admitted; (k, l, m) and (m, l, k) name the same progression and the canonical
representative has k < m.

Families are affine index patterns (a + b*t) certified by an annihilator
argument: s_t = x_{k(t)} - 2*x_{l(t)} + x_{m(t)} is a fixed linear
combination of geometric sequences in t, so vanishing on enough consecutive
t forces s_t = 0 identically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .core import Kind, SeqParams, linear_terms, terms


class CertificateFailureError(AssertionError):
    """An identity certificate window contained a nonzero value."""


@dataclass(frozen=True)
class APTriple:
    """Canonical progression witness: indices (k, l, m) plus their values."""

    k: int
    l: int
    m: int
    values: tuple

    def __post_init__(self):
        vk, vl, vm = self.values
        if len({self.k, self.l, self.m}) != 3:
            raise ValueError(f"indices must be distinct: {self.indices}")
        if self.k >= self.m:
            raise ValueError(f"canonical form requires k < m: {self.indices}")
        if 2 * vl != vk + vm:
            raise ValueError(f"not a progression: {self.values}")
        if vk == vl or vl == vm or vk == vm:
            raise ValueError(f"trivial progression: {self.values}")

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.k, self.l, self.m)

    @property
    def max_index(self) -> int:
        return max(self.k, self.l, self.m)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "l": self.l, "m": self.m, "values": [str(v) for v in self.values]}


def is_ap(x, y, z) -> bool:
    """True iff 2y = x + z with x, y, z pairwise distinct."""
    return 2 * y == x + z and x != y and y != z and x != z


def canonical_indices(k: int, l: int, m: int) -> tuple[int, int, int]:
    """Collapse (k, l, m) and its reversal to the representative with k < m."""
    return (k, l, m) if k < m else (m, l, k)


def doubled_at(indices, pos: int) -> tuple[int, int, int]:
    """Canonical (k, l, m) for three distinct indices whose term at pos is doubled."""
    k, m = (n for i, n in enumerate(indices) if i != pos)
    return canonical_indices(k, indices[pos], m)


def find_aps(params: SeqParams, kind: Kind, n_max: int) -> list[APTriple]:
    """All canonical progressions with indices <= n_max, sorted by (m, k, l).

    Write b(x) for the bit length of |x|, b_i = b(x_i), and
    key(x) = sign(x)*b(x) for the signed bit length.  If
    2*x_l = x_k + x_m with distinct values, then

    (R1) x_k and x_m have strictly opposite signs and |b_k - b_m| <= 1, or
    (R2) the outer of larger |x| has the sign of x_l != 0 and its bit
         length lies in [b_l, b_l + 2].

    Proof.  If x_k*x_m >= 0, say |x_k| >= |x_m|, then 2*|x_l| =
    |x_k| + |x_m| lies in [|x_k|, 2*|x_k|], so |x_k| lies in
    [|x_l|, 2*|x_l|] and x_k has the sign of x_l (x_l = 0 would force
    x_k = x_m = 0): R2 with b_k <= b_l + 1.  A zero outer is this case.
    If the signs are strictly opposite and b_k >= b_m + 2, then
    2^(b_k - 2) < |x_k + x_m| < 2^b_k, so b(2*x_l) = b_l + 1 lies in
    [b_k - 1, b_k] and x_l has the sign of x_k: R2.  Otherwise R1 holds;
    it covers x_l = 0, where x_k = -x_m.  So two routes over signed
    bit-length buckets find every triple:

    1. each positive outer k and each negative outer m with key(x_m) in
       {-b_k - 1, -b_k, -b_k + 1} probe the value map for the middle,
       (x_k + x_m) / 2, when the sum is even;
    2. each middle l with x_l != 0 and each j with key(x_j) in
       {c, c + s, c + 2s}, c = key(x_l), s = sign(x_l), and x_j != x_l
       probe the value map for the other outer, 2*x_l - x_j
       (x_j = x_l could only find x_i = x_l, never distinct).

    Both routes yield pairwise distinct values, so no filter follows: in
    route 1 the middle lies strictly between a positive and a negative
    outer, and in route 2 x_j != x_l makes 2*x_l - x_j differ from both.
    Distinct values imply distinct indices.

    The result is exact on any sequence; only the speed depends on its
    growth.  On a geometrically growing sequence each bucket holds O(1)
    indices, so both routes make O(n_max) probes instead of n_max^2; on a
    sequence of one sign route 1 makes none.  A repeated value fans out
    over its index list, whatever its length.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    vals = terms(params, kind, n_max + 1)
    where = defaultdict(list)
    bucket = defaultdict(list)
    for i, v in enumerate(vals):
        where[v].append(i)
        bucket[v.bit_length() if v >= 0 else -v.bit_length()].append(i)

    found = set()
    get, add = where.get, found.add
    for c, same in bucket.items():
        if c > 0:
            others = bucket.get(-c, []) + bucket.get(-c - 1, [])
            if c > 1:
                others += bucket.get(1 - c, [])
            for k in same:
                vk = vals[k]
                for m in others:
                    s = vk + vals[m]
                    if not s & 1:
                        for l in get(s >> 1, ()):
                            add(canonical_indices(k, l, m))
        if c:
            step = 1 if c > 0 else -1
            outers = same + bucket.get(c + step, []) + bucket.get(c + 2 * step, [])
            for l in same:
                v = vals[l]
                for j in outers:
                    w = vals[j]
                    if w != v:
                        for i in get(2 * v - w, ()):
                            add(canonical_indices(i, l, j))

    out = [APTriple(k, l, m, (vals[k], vals[l], vals[m])) for k, l, m in found]
    out.sort(key=lambda t: (t.m, t.k, t.l))
    return out


@dataclass(frozen=True)
class APFamily:
    """Affine index pattern t -> (k, l, m) valid for every t >= t_min.

    Each form is (offset, step) with non-negative entries; l is the middle
    (doubled) position.
    """

    k_form: tuple[int, int]
    l_form: tuple[int, int]
    m_form: tuple[int, int]
    t_min: int = 0

    def instantiate(self, t: int) -> tuple[int, int, int]:
        if t < self.t_min:
            raise ValueError(f"t={t} below t_min={self.t_min}")
        (ak, bk), (al, bl), (am, bm) = self.k_form, self.l_form, self.m_form
        return (ak + bk * t, al + bl * t, am + bm * t)

    def order(self) -> int:
        """Certificate window length: a structural upper bound for the number
        of distinct geometric bases appearing in s_t (two roots per distinct
        nonzero step, plus the constant base when a step is zero).  An
        over-count only lengthens the window, never weakens the argument."""
        steps = {b for _, b in (self.k_form, self.l_form, self.m_form)}
        n = 2 * len(steps - {0})
        if 0 in steps:
            n += 1
        return n

    def normalized(self) -> APFamily:
        """Rebase to t_min = 0 and order the outer forms canonically."""
        shift = self.t_min
        forms = []
        for a, b in (self.k_form, self.l_form, self.m_form):
            forms.append((a + b * shift, b))
        kf, lf, mf = forms
        if kf > mf:
            kf, mf = mf, kf
        return APFamily(kf, lf, mf, 0)

    def describe(self) -> str:
        def one(form):
            a, b = form
            if b == 0:
                return str(a)
            t = "t" if b == 1 else f"{b}t"
            return f"{t}+{a}" if a else t

        return f"({one(self.k_form)}, {one(self.l_form)}, {one(self.m_form)}), t>={self.t_min}"


def detect_families(params: SeqParams, kind: Kind, e_max: int) -> list[APFamily]:
    """All unit-step families with offsets in [0, e_max].

    A shift pattern (a1 + t, a2 + t, a3 + t) with the doubled term at a2 is
    valid for every t exactly when the companion polynomial divides
    X^a1 - 2*X^a2 + X^a3.  With U the first-kind sequence,
    X^n = U_n*X + B*U_{n-1} modulo X^2 - A*X - B, so divisibility reads
    r_a1 + r_a3 = 2*r_a2 on the remainders r_n = (B*U_{n-1}, U_n), with
    r_0 = (1, 0).  n -> r_n is injective because the pair is
    non-degenerate, so a dict from r_n back to n finds a3 in one lookup.
    One offset must be 0 and a3 > a1 >= 0, hence a1 = 0 or a2 = 0: one
    pass over the other offset for each case, O(e_max) lookups in all.
    The search does not depend on the kind: a unit-step family annihilates
    every sequence with this companion polynomial.  Only the certificate,
    verify_family, reads the kind's terms, and a hit is kept once it passes.
    """
    if e_max < 3:
        raise ValueError("e_max must be at least 3")
    u = linear_terms(params.A, params.B, 0, 1, e_max + 1)
    rem = [(1, 0)] + [(params.B * u[n - 1], u[n]) for n in range(1, e_max + 1)]
    index_of = {r: n for n, r in enumerate(rem)}
    out = []
    offsets = range(1, e_max + 1)
    for a1, a2 in [(a, 0) for a in offsets] + [(0, a) for a in offsets]:
        (p0, p1), (q0, q1) = rem[a1], rem[a2]
        a3 = index_of.get((2 * q0 - p0, 2 * q1 - p1))
        if a3 is None or a3 <= a1 or a3 == a2:
            continue
        family = APFamily((a1, 1), (a2, 1), (a3, 1), 0)
        verify_family(family, params, kind)
        out.append(family)
    out.sort(key=lambda f: (f.l_form, f.k_form, f.m_form))
    return out


@dataclass
class FamilyReport:
    """Result of a passed certificate check; construction implies validity."""

    family: APFamily
    order: int
    window: tuple[int, ...]
    degenerate_ts: tuple[int, ...] = field(default=())
    ap_count: int = 0


SURVEY_T = 50


def verify_family(family: APFamily, params: SeqParams, kind: Kind) -> FamilyReport:
    """Check the identity certificate and survey instances t_min <= t <= SURVEY_T.

    The certificate checks s_t = 0 for `order` consecutive t starting at
    t_min; since s_t is a linear combination of at most `order` geometric
    sequences, that forces s_t = 0 for every t >= t_min (Vandermonde).
    Instances with repeated values are legal but counted as degenerate.

    Raises CertificateFailureError when a window value is nonzero.
    """
    order = family.order()
    window = tuple(range(family.t_min, family.t_min + order))
    t_last = max(window[-1], SURVEY_T)
    # each index is affine in t, so its extremes sit at the two ends
    ends = family.instantiate(family.t_min) + family.instantiate(t_last)
    if min(ends) < 0:
        raise ValueError(f"negative index for t in [{family.t_min}, {t_last}]")
    ts = terms(params, kind, max(ends) + 1)
    for t in window:
        k, l, m = family.instantiate(t)
        s = ts[k] - 2 * ts[l] + ts[m]
        if s != 0:
            raise CertificateFailureError(
                f"certificate window broken at t={t}: s_t={s} for {family.describe()}"
            )
    degenerate = []
    ap_count = 0
    for t in range(family.t_min, max(SURVEY_T, family.t_min) + 1):
        k, l, m = family.instantiate(t)
        if is_ap(ts[k], ts[l], ts[m]):
            ap_count += 1
        else:
            degenerate.append(t)
    return FamilyReport(family, order, window, tuple(degenerate), ap_count)
