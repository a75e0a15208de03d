"""Test-only helpers shared by several test modules."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from lucasaps import core
from lucasaps.apsearch import APFamily, APTriple, canonical_indices, doubled_at, is_ap
from lucasaps.certify import (
    SEARCH_CAP,
    Gap,
    GapPattern,
    PatternAnalysis,
    _cell_solutions,
    _decoupled_cell,
    _shift_family,
)
from lucasaps.core import (
    Kind,
    SeqParams,
    _pair_pow,
    _pair_sign,
    _product,
    _sign,
    degeneracy_order,
    linear_terms,
    new_params,
    terms,
)
from lucasaps.poly import integer_roots, p_add, p_eval, p_mul, p_scale, trim
from lucasaps.smallcase import BFamilySolution, DomainFilter, SporadicSolution
from lucasaps.special import _SHAPE_COEFFICIENTS, TrinomialSpec
from lucasaps.tables import load_table_entries


class Surd(core.Surd):
    """core.Surd with the ring operations of Q(sqrt(d)), the test oracles'
    arithmetic.  Products, powers and signs are core's pair rules, so each
    rule has one copy.  Dataclass equality compares classes, so a value of
    this ring never equals a core.Surd: an engine margin is compared with
    core.Surd."""

    @classmethod
    def integer(cls, n: int, d: int) -> Surd:
        return cls(2 * n, 0, d)

    def _check(self, other: Surd):
        if self.d != other.d:
            raise ValueError("mixed discriminants")

    def __add__(self, other: Surd) -> Surd:
        self._check(other)
        return Surd(self.p + other.p, self.q + other.q, self.d)

    def __sub__(self, other: Surd) -> Surd:
        self._check(other)
        return Surd(self.p - other.p, self.q - other.q, self.d)

    def __neg__(self) -> Surd:
        return Surd(-self.p, -self.q, self.d)

    def __mul__(self, other: Surd) -> Surd:
        self._check(other)
        return Surd(*_product(self.p, self.q, other.p, other.q, self.d), self.d)

    def times_int(self, n: int) -> Surd:
        return Surd(self.p * n, self.q * n, self.d)

    def __pow__(self, n: int) -> Surd:
        if n < 0:
            raise ValueError("negative powers are not representable in this ring")
        return Surd(*_pair_pow(self.p, self.q, self.d, n), self.d)

    def norm(self):
        """Field norm (p^2 - q^2 d)/4 as a Fraction; equals |x|^2 when d < 0."""
        return Fraction(self.p * self.p - self.q * self.q * self.d, 4)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_integer(self) -> bool:
        return self.q == 0 and self.p % 2 == 0

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.p // 2

    def sign(self) -> int:
        """Exact sign; requires d >= 0 (real value)."""
        if self.d < 0:
            raise ValueError("sign of a complex surd is undefined")
        return _pair_sign(self.p, self.q, self.d)

    def __abs__(self) -> Surd:
        if self.d < 0:
            raise ValueError("use norm() for complex absolute values")
        return self if self.sign() >= 0 else -self


def surd_cmp_abs(x: Surd, y: Surd) -> int:
    """Exact comparison of |x| and |y|: -1, 0 or +1.

    For real discriminants the sign of x^2 - y^2 decides; for negative
    discriminants |x|^2 equals the field norm (p^2 - q^2 d)/4, and the
    integers p^2 - q^2 d compare the same way.
    """
    if x.d != y.d:
        raise ValueError("mixed discriminants")
    if x.d >= 0:
        return (x * x - y * y).sign()
    return _sign(x.p * x.p - x.q * x.q * x.d - (y.p * y.p - y.q * y.q * y.d))


def roots_of(A: int, B: int) -> tuple:
    """Companion polynomial roots (A +- sqrt(A^2+4B))/2 without validation,
    so degeneracy oracles can inspect rejected pairs."""
    d = A * A + 4 * B
    return Surd(A, 1, d), Surd(A, -1, d)


def dominant_root(params: SeqParams) -> tuple:
    """(gamma, delta) with |gamma| > |delta|; requires D > 0.

    Since alpha - beta = sqrt(D) > 0, the dominant root is alpha exactly
    when A > 0.
    """
    if params.D <= 0:
        raise ValueError("dominant root requires positive discriminant")
    a, b = roots_of(params.A, params.B)
    return (a, b) if params.A > 0 else (b, a)


def term(params: SeqParams, kind: Kind, n: int) -> int:
    """n-th term, exact."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return terms(params, kind, n + 1)[n]


@dataclass(frozen=True)
class ClosedFormReport:
    ok: bool
    checked: int


def closed_form_check(params: SeqParams, kind: Kind, n_max: int) -> ClosedFormReport:
    """Verify the root power formulas against the recurrence up to n_max.

    First kind: alpha^n - beta^n == term(n) * (alpha - beta).
    Second kind: alpha^n + beta^n == term(n).
    """
    a, b = roots_of(params.A, params.B)
    diff = a - b
    pa = Surd.integer(1, params.D)
    pb = Surd.integer(1, params.D)
    for n, t in enumerate(terms(params, kind, n_max + 1)):
        if kind is Kind.FIRST:
            ok = (pa - pb) == diff.times_int(t)
        else:
            ok = (pa + pb) == Surd.integer(t, params.D)
        if not ok:
            return ClosedFormReport(False, n)
        pa = pa * a
        pb = pb * b
    return ClosedFormReport(True, n_max + 1)


def family_instances(
    family: APFamily, params: SeqParams, kind: Kind, n_max: int
) -> list[APTriple]:
    """Non-degenerate instances with all indices <= n_max, canonicalized."""
    ts = terms(params, kind, n_max + 1)
    out = []
    t = family.t_min
    while True:
        k, l, m = family.instantiate(t)
        if min(k, l, m) > n_max:
            break
        if max(k, l, m) <= n_max:
            if min(k, l, m) < 0:
                raise ValueError(f"negative index at t={t}")
            if is_ap(ts[k], ts[l], ts[m]):
                ck, cl, cm = canonical_indices(k, l, m)
                out.append(APTriple(ck, cl, cm, (ts[ck], ts[cl], ts[cm])))
        t += 1
        if t > family.t_min + 4 * n_max + 8:
            break
    return out


def pair_in_tables(A: int, B: int, kind: Kind) -> bool:
    """Whether the catalog lists (A, B): a fixed pair, or a B-free row with
    B >= bMin.  An oracle for the pairs verify_tables checks as catalog
    pairs."""
    for entry in load_table_entries():
        if entry.kind is not kind or entry.a != A:
            continue
        if entry.is_b_row and B >= entry.b_min:
            return True
        if not entry.is_b_row and entry.b == B:
            return True
    return False


def full_window_solutions(eq, cut: int) -> tuple:
    """(sporadics, B-families) of a case equation under the dominant filter,
    solved in B at every A with |A| <= cut: the whole root-location window,
    with no value of A skipped by its coefficient signs.  An oracle for
    solve_case on an equation with no curve family."""
    filt = DomainFilter()
    triple = eq.ap_roles()
    sporadics, b_families = [], []
    for a in range(-cut, cut + 1):
        coeffs = trim([p_eval(bc, a) for bc in eq.poly])
        if not coeffs:
            if a:
                b_families.append(BFamilySolution(a, triple))
            continue
        sporadics += [
            SporadicSolution(a, B, triple) for B in integer_roots(coeffs) if filt.admits(a, B)
        ]
    return sporadics, b_families


def x_coefficients_by_expansion(bcs) -> list:
    """The x-coefficients of P(1 + x) = 4^d * E(A, (x + 1 - A^2)/4), by
    expanding each (x + 1 - A^2)^j binomially.  An oracle for the Taylor
    shift of smallcase._x_coefficients."""
    d = len(bcs) - 1
    q = [[] for _ in bcs]
    for j, ej in enumerate(bcs):
        # (x + 1 - A^2)^j puts comb(j, r) * (1 - A^2)^(j-r) on x^r
        piece = p_scale(ej, 4 ** (d - j))
        for r in range(j, -1, -1):
            q[r] = p_add(q[r], piece, comb(j, r))
            piece = p_mul(piece, [1, 0, -1])
    return q


def _surd_fixed_cell(pattern: GapPattern, gamma: Surd, delta: Surd, eps: int) -> PatternAnalysis:
    c1, c2, c3 = pattern.coefficients()
    g1, g2 = pattern.g1.value, pattern.g2.value
    one = Surd.integer(1, gamma.d)

    def q_at(x: Surd) -> Surd:
        return (x ** (g1 + g2)).times_int(c1) + (x ** g2).times_int(c2) + one.times_int(c3)

    qg, qd = q_at(gamma), q_at(delta)
    if qg.is_zero() and qd.is_zero():
        fam = _shift_family(pattern.minus_two_at, g1, g2)
        return PatternAnalysis(pattern, "family", families=(fam,),
                               note="companion divides the gap trinomial")
    if qg.is_zero() or qd.is_zero():
        return PatternAnalysis(pattern, "resolved",
                               note="exactly one root kills Q; no solution")

    # |gamma/delta| > 1, so |gamma^n3 Q(gamma)| / |delta^n3 Q(delta)| is
    # strictly increasing in n3: at most one candidate where the moduli agree.
    lhs, rhs = qg, qd
    sols = []
    for n3 in range(SEARCH_CAP):
        cmp = surd_cmp_abs(lhs, rhs)
        if cmp == 0:
            if (lhs - rhs.times_int(eps)).is_zero():
                sols.append(doubled_at((n3 + g1 + g2, n3 + g2, n3), pattern.minus_two_at))
            break
        if cmp > 0:
            break
        lhs = lhs * gamma
        rhs = rhs * delta
    else:
        return PatternAnalysis(pattern, "inconclusive", note="monotone search cap hit")
    return PatternAnalysis(pattern, "resolved", solutions=tuple(sols))


def surd_pattern_bound(
    pattern: GapPattern,
    params: SeqParams,
    kind: Kind,
) -> PatternAnalysis:
    """Analyze one gap pattern exactly, in boxed Surd arithmetic: the gap
    engine's node before it computed on integer pairs, kept as an oracle for
    certify.pattern_bound.

    Fixed gaps resolve outright (family / no solution / single verified
    candidate).  A free gap either certifies a positive margin W, in which
    case W * |gamma|^n1 <= 4 * |gamma|^(a+b) * max(1,|delta|)^n1 bounds the
    top exponent and the cell is exhausted up to it, or requests a split.
    """
    eps = 1 if kind is Kind.FIRST else -1
    gamma, delta = dominant_root(params)
    if pattern.g1.fixed and pattern.g2.fixed:
        return _surd_fixed_cell(pattern, gamma, delta, eps)

    c1, c2, c3 = pattern.coefficients()
    ag, ad = abs(gamma), abs(delta)
    one = Surd.integer(1, params.D)
    a, b = pattern.g1.value, pattern.g2.value
    grown = ag ** (a + b)

    if pattern.g1.fixed:
        t_gamma = (gamma ** a).times_int(c1) + one.times_int(c2)
        if t_gamma.is_zero():
            return _decoupled_cell(pattern, params, eps)
        margin = abs(t_gamma) * ag ** b - one.times_int(abs(c3))
    else:
        margin = (
            grown.times_int(abs(c1))
            - (ag ** b).times_int(abs(c2))
            - one.times_int(abs(c3))
        )

    if margin.sign() <= 0:
        return PatternAnalysis(pattern, "fix_next_gap", margin=margin)

    eta = ad if surd_cmp_abs(ad, one) > 0 else one
    lhs = margin
    rhs = grown.times_int(4)
    top = -1
    for n1 in range(SEARCH_CAP):
        if (rhs - lhs).sign() < 0:
            break
        top = n1
        lhs = lhs * ag
        rhs = rhs * eta
    else:
        return PatternAnalysis(pattern, "inconclusive", margin=margin,
                               note="top bound search cap hit")
    return PatternAnalysis(pattern, "bounded", _cell_solutions(pattern, params, kind, top),
                           margin=margin, top_bound=top)


def gap_oracle_box(a_max: int, b_max: int, gap_max: int):
    """(pattern, params, kind) for every dominant non-degenerate pair with
    |A| <= a_max and |B| <= b_max, both kinds, each -2 placement and each
    pair of gaps, fixed or free, with values 1 to gap_max."""
    gaps = [Gap(fixed, v) for fixed in (True, False) for v in range(1, gap_max + 1)]
    for A in range(-a_max, a_max + 1):
        for B in range(-b_max, b_max + 1):
            if not A or not B or A * A + 4 * B <= 0 or degeneracy_order(A, B) is not None:
                continue
            params = new_params(A, B)
            for kind in Kind:
                for placement in (0, 1, 2):
                    for g1 in gaps:
                        for g2 in gaps:
                            yield GapPattern(placement, g1, g2), params, kind


def node_key(res: PatternAnalysis) -> tuple:
    """What the gap-engine oracle comparison reads of a node: its document,
    solutions, families and the margin's (p, q, d)."""
    m = res.margin
    return res.to_json_dict(), res.solutions, res.families, m and (m.p, m.q, m.d)


def trinomial_coefficients(spec: TrinomialSpec) -> list:
    """Dense coefficients of the trinomial, index = degree."""
    c = [0] * (spec.a + 1)
    c[spec.a], c[spec.b], c[0] = _SHAPE_COEFFICIENTS[spec.shape]
    return c


@dataclass
class MultiplicityReport:
    """Exact value -> indices map over a term window."""

    window_end: int
    value_to_indices: dict
    max_multiplicity: int
    witnesses: tuple

    def indices_of_abs(self, value: int) -> tuple:
        """Sorted indices at which the term is value or -value."""
        idx = set(self.value_to_indices.get(value, ()))
        idx |= set(self.value_to_indices.get(-value, ()))
        return tuple(sorted(idx))


def _report_for(values: list) -> MultiplicityReport:
    where = {}
    for i, v in enumerate(values):
        where.setdefault(v, []).append(i)
    best = max(len(ix) for ix in where.values())
    witnesses = tuple(sorted(v for v, ix in where.items() if len(ix) == best))
    return MultiplicityReport(len(values) - 1, {v: tuple(ix) for v, ix in where.items()}, best, witnesses)


def multiplicity(params, kind, window_end):
    """Exact value -> indices map over indices 0..window_end."""
    return _report_for(terms(params, kind, window_end + 1))


def multiplicity_with_initials(A, B, x0, x1, window_end):
    """Multiplicity over a window for arbitrary initial values (used to check
    recurrences written in other sign conventions)."""
    return _report_for(linear_terms(A, B, x0, x1, window_end + 1))


def from_subtraction_convention(a, b):
    """Map coefficients of x_n = a*x_{n-1} - b*x_{n-2} to this library's
    (A, B) convention x_n = A*x_{n-1} + B*x_{n-2}."""
    return (a, -b)
