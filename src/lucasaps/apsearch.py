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

from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import lt, rshift

from .core import CertificateFailureError, Kind, SeqParams, linear_terms, terms


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
        if vk == vl:  # with 2 * vl == vk + vm, any two equal values force the third
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

    Write x_j for the outer of larger |x| and x_i for the other.  If
    2*x_l = x_k + x_m with distinct values, then

    (R1) x_i and x_j have strictly opposite signs and |x_j| <= 2*|x_i|, or
    (R2) x_j has the sign of x_l != 0 and |x_l| < |x_j| < 4*|x_l|.

    Proof.  If x_i*x_j >= 0, then |x_i| < |x_j| (equal magnitudes of one
    sign are equal values) and 2*|x_l| = |x_i| + |x_j|, so |x_j| <=
    2*|x_l| < 2*|x_j|, and x_l has the sign of x_j (x_l = 0 would force
    x_i = x_j = 0): R2.  A zero outer is this case.  If the signs are
    strictly opposite and |x_j| > 2*|x_i|, then 2*|x_l| = |x_j| - |x_i|
    lies strictly between |x_j|/2 and |x_j|, and x_l has the sign of x_j:
    R2.  Otherwise R1 holds; it covers x_l = 0, where x_i = -x_j.  No
    triple meets both: under R2 an outer of the other sign has magnitude
    |x_j| - 2*|x_l| < |x_j|/2.

    So one scan finds every triple.  Sort the distinct nonzero values by
    |x| and take each pair (u, w), |u| <= |w|, at lag d = 1, 2, ... in
    that order.  A pair within a factor 4, |w| < 4*|u|, probes the value
    map

    1. for the other outer 2*u - w when u and w have one sign (R2, u the
       middle);
    2. for the middle (u + w) / 2 when the signs differ, |w| <= 2*|u|
       and the sum is even (R1).

    Every pair of either route is within a factor 4, and when no pair at
    lag d is, none at a larger lag is, since |x| grows along the order:
    the scan stops at that lag.  Each triple meets one route with one
    pair, so no hit repeats, and its values are pairwise distinct: in
    route 1 the middle lies strictly between outers of opposite signs,
    and in route 2 w != u makes 2*u - w differ from both.  Distinct
    values imply distinct indices.  A hit fans out over the indices of a
    repeated value.

    The result is exact on any sequence; only the speed depends on its
    growth.  On a geometrically growing sequence each value has O(1)
    neighbours within a factor 4, so the scan makes O(n_max) probes
    instead of n_max^2.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    vals = terms(params, kind, n_max + 1)
    at = {v: i for i, v in enumerate(vals)}
    get = at.get
    order = sorted(at, key=abs)
    if not order[0]:
        del order[0]
    size = list(map(abs, order))

    hits = []
    add = hits.append
    d = 1
    # |w| < 4*|u| is tested as |w| >> 2 < |u|: a list of 4*|u| would copy every term
    while any(map(lt, map(rshift, size[d:], repeat(2)), size)):
        for u, a, w, b in zip(order, size, order[d:], size[d:]):
            if b >> 2 >= a:
                continue
            if (u > 0) == (w > 0):
                i = get(2 * u - w)
                if i is not None:
                    add((i, at[u], at[w]))
            elif b <= 2 * a:
                s = u + w
                if not s & 1:
                    l = get(s >> 1)
                    if l is not None:
                        add((at[u], l, at[w]))
        d += 1

    # `at` holds each value's last index; the others of a repeated value
    # are listed under it
    more = {}
    if len(at) < len(vals):
        for i, v in enumerate(vals):
            last = at[v]
            if last != i:
                more.setdefault(last, [last]).append(i)
    # keys are (m, k, l) with k < m, sorted as plain tuples
    keys = []
    for i, l, j in hits:
        if i in more or l in more or j in more:
            keys += [(j, i, l) if i < j else (i, j, l)
                     for i, l, j in product(more.get(i, (i,)), more.get(l, (l,)), more.get(j, (j,)))]
        else:
            keys.append((j, i, l) if i < j else (i, j, l))
    keys.sort()
    return [APTriple(k, l, m, (vals[k], vals[l], vals[m])) for m, k, l in keys]


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

    def sort_key(self) -> tuple:
        """The order of every family list: the doubled form, then the outer forms."""
        return (self.l_form, self.k_form, self.m_form)

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
    pass over the other offset a for each case, O(e_max) lookups in all.
    The dict is keyed by r_n with its first coordinate divided by B,
    (U_{n-1}, U_n), so it holds no B-scaled copy of a term; r_0 needs no
    key, since a3 >= 1.  The target 2*r_a2 - r_a1 has first coordinate
    2 - B*U_{a-1} when a2 = 0 and 2*B*U_{a-1} - 1 when a1 = 0, which
    leave the remainders 2 and -1 modulo B whatever a is: the first pass
    runs only when B divides 2, and the second only when B = +-1, where
    1/B = B.  So |B| >= 3 has no unit-step family, and no term is built.
    Up to sign X^a1 - 2*X^a2 + X^a3 is special's X^a3 + X^a1 - 2 (a2 = 0)
    or X^a3 - 2X^a2 + 1 (a1 = 0; -(2X^a2 - X^a3 - 1) when a2 > a3), and
    a monic factor X^2 + pX + q of those has |p| <= 1 + |q| (special's
    docstring): with (p, q) = (-A, -B), no term is built when |A| > 1 + |B|.
    The search does not depend on the kind: a unit-step family annihilates
    every sequence with this companion polynomial.  Only the certificate,
    verify_family, reads the kind's terms, and a hit is kept once it passes.
    """
    if e_max < 3:
        raise ValueError("e_max must be at least 3")
    B = params.B
    offsets = range(1, e_max + 1)
    firsts = offsets if 2 % B == 0 else ()
    seconds = offsets if 1 % B == 0 else ()
    if not (firsts or seconds) or abs(params.A) > 1 + abs(B):
        return []
    u = linear_terms(params.A, B, 0, 1, e_max + 1)
    index_of = {r: n for n, r in enumerate(zip(u, u[1:]), 1)}
    out = []
    for a1, a2, key in chain(((a, 0, (2 // B - u[a - 1], -u[a])) for a in firsts),
                             ((0, a, (2 * u[a - 1] - B, 2 * u[a])) for a in seconds)):
        a3 = index_of.get(key)
        if a3 is None or a3 <= a1 or a3 == a2:
            continue
        family = APFamily((a1, 1), (a2, 1), (a3, 1), 0)
        verify_family(family, params, kind)
        out.append(family)
    out.sort(key=APFamily.sort_key)
    return out


def verify_family(family: APFamily, params: SeqParams, kind: Kind) -> None:
    """Check the identity certificate: s_t = 0 for every t >= t_min.

    The certificate checks s_t = 0 for `order` consecutive t starting at
    t_min; since s_t is a linear combination of at most `order` geometric
    sequences, that forces s_t = 0 for every t >= t_min (Vandermonde).
    Only terms up to the window's largest index are built.

    Raises ValueError when an index is negative for some t >= t_min, and
    CertificateFailureError when a window value is nonzero.
    """
    # an affine index stays >= 0 for every t >= t_min exactly when it is
    # >= 0 at t_min and its step is >= 0
    forms = (family.k_form, family.l_form, family.m_form)
    if min(family.instantiate(family.t_min)) < 0 or min(b for _, b in forms) < 0:
        raise ValueError(f"negative index for some t >= {family.t_min}: {family.describe()}")
    t_last = family.t_min + family.order() - 1
    ts = terms(params, kind, max(family.instantiate(t_last)) + 1)
    for t in range(family.t_min, t_last + 1):
        k, l, m = family.instantiate(t)
        s = ts[k] - 2 * ts[l] + ts[m]
        if s != 0:
            raise CertificateFailureError(
                f"certificate window broken at t={t}: s_t={s} for {family.describe()}"
            )
