"""Symbolic case analysis for progressions with small largest index.

Writing terms as integer polynomials in (A, B) turns each index triple
k < l < m and each placement of the doubled term into one Diophantine
equation E(A, B) = 0.  A closure chosen by the degree of E in B proves that
every solution off a curve family has A in a finite window; E(a, B) = 0 is
then solved exactly in B at each a of the window.  The closures:

  degree 0   the integer roots of E in A (at a root B is free).
  degree 1   B = -e0(A)/e1(A), e1 constant or linear.  A constant divides
             e0 over Q; for a linear e1 the resultant of e1 and e0 decides:
             at zero, synthetic division gives the curve B = w(A), else A is
             pinned to its divisors.  The roots of e1 join the window.
  degree 2   B is integral only when Delta(A) = e1^2 - 4 e2 e0 is a perfect
             square.  With G/t the polynomial root of Delta, either R =
             t^2 Delta - G^2 is zero and B splits into two degree-1 branches,
             or t^2 Delta lies strictly between (G + j)^2 and (G + j + 1)^2
             beyond a cutoff on each side of A, j = 0 if R is eventually
             positive there and j = -1 if not; the window is the A below
             the cutoff at which Delta is a square.  Delta(-A) has the same
             degree and leading coefficient, so the squeeze exists on both
             sides or on neither.

Every other equation -- a quadratic whose discriminant has no polynomial
square root, and the cubic B-degrees at the largest indices -- has one
closure, under the dominant filter only:

  root location     the one substitution B = (x + 1 - A^2)/4, i.e.
                    C = A^2 + 4B = 1 + x, gives a polynomial in x with no
                    root x >= 0 for |A| beyond an explicit cutoff on either
                    side, so C >= 1 only happens in a finite window.  Its
                    x-coefficients are the Taylor shift of F(y) =
                    sum(4^(d-j) * e_j(A) * y^j) by y = 1 - A^2.  Below
                    the cutoff the window keeps only the A at which the
                    x-coefficients are not all nonzero and of one sign:
                    elsewhere Descartes' rule of signs leaves no root x >= 0.

With the dominant filter the solver is complete for every equation
case_equations can produce.  Without it, an equation past the square-root
analysis raises SqueezeUnresolvedError rather than guessing; the first one
has largest index 5 (first kind) or 4 (second kind), so its reach is index
4 resp. 3.  solve_case re-substitutes every sporadic and three points of
each family it reports; solve_all is its reports for every equation, which
case_equations builds from one term table made for that call.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import combinations
from math import isqrt

from .apsearch import doubled_at
from .core import (
    _UNITY_ORDER, EngineMismatchError, Kind, SqueezeUnresolvedError, degeneracy_order,
)
from .poly import (
    b_add, b_eval, divisors, frac_to_int, integer_roots, p_add, p_content, p_deg, p_eval,
    p_mul, p_scale, p_str, poly_sqrt, positive_cut, root_bound, trim,
)


def poly_terms(kind: Kind, count: int) -> list:
    """The first count terms as exact polynomials in (A, B)."""
    seq = [(), ((1,),)] if kind is Kind.FIRST else [((2,),), ((0, 1),)]
    while len(seq) < count:
        times_a = tuple((0, *e) if e else () for e in seq[-1])
        seq.append(b_add(times_a, ((),) + seq[-2]))
    return seq[:count]


@dataclass(frozen=True)
class CaseEquation:
    """One equation E(A, B) = 0 for a sorted index triple k < l < m.

    variant 1 doubles the middle term, variant 2 the smallest, variant 3 the
    largest.
    """

    kind: Kind
    triple: tuple
    variant: int
    poly: tuple = field(init=False)  # B-coefficients of E, as poly_terms returns them
    # poly_terms(kind, n) for some n > max(triple), shared by case_equations;
    # built here when not given
    terms: InitVar[list | None] = None

    def __post_init__(self, terms):
        k, l, m = self.ap_roles()
        u = terms or poly_terms(self.kind, max(self.triple) + 1)
        object.__setattr__(self, "poly", b_add(b_add(u[k], u[l], -2), u[m]))

    def ap_roles(self) -> tuple:
        """Canonical progression-index triple (outer, doubled, outer)."""
        return doubled_at(self.triple, (1, 0, 2)[self.variant - 1])


# The largest index of a case equation: up to it no two equations agree up
# to sign, so none is redundant.
MAX_CASE_INDEX = 7


def case_equations(kind: Kind, m_cap: int) -> list:
    """All equations for triples k < l < m <= m_cap <= MAX_CASE_INDEX, built
    from one term table."""
    if m_cap > MAX_CASE_INDEX:
        raise ValueError(f"index cap is {MAX_CASE_INDEX}")
    u = poly_terms(kind, m_cap + 1)
    return [
        CaseEquation(kind, (k, l, m), variant, u)
        for k, l, m in combinations(range(m_cap + 1), 3)
        for variant in (1, 2, 3)
    ]


# ---------------------------------------------------------------------------
# Domain filter and solution containers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainFilter:
    """Always requires A*B != 0 and non-degeneracy; optionally D > 0."""

    dominant: bool = True

    def admits(self, A: int, B: int) -> bool:
        if A == 0 or B == 0 or degeneracy_order(A, B) is not None:
            return False
        if self.dominant and A * A + 4 * B <= 0:
            return False
        return True

    def b_condition(self, A: int):
        """(b_min, exclusions) for B free at fixed A; b_min None if unbounded."""
        if self.dominant:
            b_min = -(A * A) // 4 + 1 or 1  # least nonzero B with A^2 + 4B > 0
            return b_min, (0,) if b_min < 0 else ()
        excl = {0}
        for kk in _UNITY_ORDER:
            if (A * A) % kk == 0:
                excl.add(-(A * A) // kk)
        return None, tuple(sorted(excl))


@dataclass(frozen=True)
class SporadicSolution:
    A: int
    B: int
    triple: tuple  # canonical progression roles (outer, doubled, outer)


@dataclass(frozen=True)
class BFamilySolution:
    """A fixed, B free where the filter admits (A, B)."""

    A: int
    triple: tuple


@dataclass(frozen=True)
class CurveFamilySolution:
    """B = num(A)/den on residue classes of A mod den, where the filter admits (A, B)."""

    num: tuple
    den: int
    residues: tuple
    triple: tuple

    def admits_a(self, a: int) -> bool:
        return a % self.den in self.residues

    def b_at(self, a: int) -> int:
        val = p_eval(self.num, a)
        if val % self.den:
            raise EngineMismatchError(f"curve value {val}/{self.den} at A = {a} is not integral")
        return val // self.den


@dataclass
class EquationReport:
    """The one record of a case equation: closure evidence and checked solutions."""

    equation: CaseEquation
    strategy: str
    candidates: tuple = ()
    delta: tuple = ()
    delta_square_root: tuple = ()  # (coeffs, denominator) when exact
    branches: list = field(default_factory=list)
    squeeze: list = field(default_factory=list)
    square_hits: tuple = ()
    sporadics: list = field(default_factory=list)
    b_families: list = field(default_factory=list)
    curves: list = field(default_factory=list)


@dataclass
class SolutionSet:
    """The report of every case equation up to m_cap, in equation order; the
    solutions are read from them."""

    kind: Kind
    m_cap: int
    dominant: bool
    reports: tuple

    @property
    def sporadics(self) -> tuple:
        found = [s for r in self.reports for s in r.sporadics]
        return tuple(sorted(found, key=lambda s: (s.A, s.B, s.triple)))

    @property
    def b_families(self) -> tuple:
        found = [f for r in self.reports for f in r.b_families]
        return tuple(sorted(found, key=lambda f: (f.A, f.triple)))

    @property
    def curves(self) -> tuple:
        return tuple(c for r in self.reports for c in r.curves)

    def grid_instances(self, a_lo, a_hi, b_lo, b_hi):
        """All (A, B, triple) asserted inside the grid box."""
        filt = DomainFilter(self.dominant)
        out = set()
        for s in self.sporadics:
            if a_lo <= s.A <= a_hi and b_lo <= s.B <= b_hi:
                out.add((s.A, s.B, s.triple))
        for f in self.b_families:
            if not a_lo <= f.A <= a_hi:
                continue
            for B in range(b_lo, b_hi + 1):
                if filt.admits(f.A, B):
                    out.add((f.A, B, f.triple))
        for c in self.curves:
            for a in range(a_lo, a_hi + 1):
                if not c.admits_a(a):
                    continue
                B = c.b_at(a)
                if b_lo <= B <= b_hi and filt.admits(a, B):
                    out.add((a, B, c.triple))
        return out

    def to_json_dict(self):
        b_families = self.b_families
        b_conditions = [DomainFilter(self.dominant).b_condition(f.A) for f in b_families]
        return {
            "kind": self.kind.value,
            "maxIndex": self.m_cap,
            "dominantFilter": self.dominant,
            "sporadic": [
                {"A": s.A, "B": s.B, "triple": list(s.triple)} for s in self.sporadics
            ],
            "bFamilies": [
                {"A": f.A, "bMin": b_min, "bExclusions": list(excl), "triple": list(f.triple)}
                for f, (b_min, excl) in zip(b_families, b_conditions)
            ],
            "curveFamilies": [
                {
                    "bNumerator": p_str(list(c.num)),
                    "denominator": c.den,
                    "residues": list(c.residues),
                    "triple": list(c.triple),
                }
                for c in self.curves
            ],
            "equationCount": len(self.reports),
        }


# ---------------------------------------------------------------------------
# Divisibility machinery: integer a with den(a) | num(a).
# ---------------------------------------------------------------------------

def divisibility_candidates(den, num) -> tuple:
    """Complete candidate analysis for den(A) | num(A) at integers.

    Returns (num/den as Fraction coefficients, ()) when den divides num over
    Q, else (None, the sorted A at which den(A) | num(A) can hold).

    Every case equation yields a constant or linear denominator; a higher
    degree raises SqueezeUnresolvedError.  A constant divides num over Q.
    For den = c1*A + c0 the resultant Res(den, num) = sum(n_i * (-c0)^i *
    c1^(d-i)) = c1^d * num(-c0/c1) decides: when it is zero den divides num
    over Q and synthetic division at -c0/c1 gives the quotient, which
    settles every A.  Otherwise den(a) divides it, so |den(a)| runs over the
    divisors of content(num) * Res(den, num).  When den has no constant term
    but num does, a | num(0) is sharper; both candidate sets are complete so
    they are intersected.  Callers re-verify every candidate, so returning a
    superset is safe.
    """
    den = trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if p_deg(den) == 0:
        return [Fraction(c, den[0]) for c in num], ()
    if p_deg(den) != 1:
        raise SqueezeUnresolvedError(
            f"denominator {p_str(den)} has degree {p_deg(den)}; only linear ones are resolved"
        )
    c0, c1 = den
    d = p_deg(num)
    res = sum(n * (-c0) ** i * c1 ** (d - i) for i, n in enumerate(num))
    if res == 0:
        root, acc, quotient = Fraction(-c0, c1), Fraction(0), []
        for n in reversed(num[1:]):
            acc = acc * root + n
            quotient.append(acc / c1)
        return quotient[::-1], ()
    cands = set()
    for div in divisors(p_content(num) * res):
        for target in (div, -div):
            cands.update(integer_roots(p_add(den, [target], -1)))
    if c0 == 0 and num[0] != 0:
        sharp = set()
        for div in divisors(num[0]):
            sharp.update((div, -div))
        cands &= sharp
    return None, tuple(sorted(cands))


def _curve_members(w_frac, filt: DomainFilter, report) -> set:
    """Resolve B = w(A) (w with rational coefficients) under the filter.

    Returns the window of A it proves.  Under the dominant filter the
    admissible A region is finite whenever t*A^2 + 4*num has negative
    leading coefficient, and that region is the window; otherwise the curve
    is appended to report.curves as an infinite family.
    """
    wn, t = frac_to_int(w_frac)
    label = p_str(wn) + (f"/{t}" if t > 1 else "")
    if not wn:
        report.branches.append({"b": "0", "outcome": "rejected: B = 0"})
        return set()
    residues = tuple(r for r in range(t) if p_eval(wn, r) % t == 0)
    if not residues:
        report.branches.append({"b": label, "outcome": "rejected: never an integer"})
        return set()
    # t * (A^2 + k*B) for each degeneracy k: degenerate pairs lie on their roots
    degenerate = {kk: p_add([0, 0, t], wn, kk) for kk in _UNITY_ORDER}
    if not all(degenerate.values()):
        report.branches.append({"b": label, "outcome": "rejected: degenerate for every A"})
        return set()
    if filt.dominant:
        dnum = degenerate[4]  # t * (A^2 + 4B)
        # a finite admissible window needs even degree: an odd-degree
        # discriminant polynomial is positive toward one infinity
        if dnum and dnum[-1] < 0 and p_deg(dnum) % 2 == 0:
            cut = positive_cut(p_scale(dnum, -1))
            window = {
                a for a in range(-cut, cut + 1) if a % t in residues and p_eval(dnum, a) > 0
            }
            report.branches.append({"b": label, "outcome": "finite window", "window": sorted(window)})
            return window
        report.branches.append({"b": label, "outcome": "infinite curve family"})
    else:
        report.branches.append({"b": label, "outcome": "curve family"})
    report.curves.append(CurveFamilySolution(tuple(wn), t, residues, report.equation.ap_roles()))
    return set()


def _linear_branch(den, num, filt, report) -> set:
    """Window for B = num(A)/den(A), den a nonzero polynomial.

    The window holds the roots of den, where the exact solve finds B free or
    nothing, and the A at which den(A) | num(A) can hold, which are merged
    into report.candidates.  When den divides num over Q, B = num/den is a
    curve instead.
    """
    window = set(integer_roots(den))
    quotient, candidates = divisibility_candidates(den, num)
    if quotient is not None:
        return window | _curve_members(quotient, filt, report)
    report.candidates = tuple(sorted({*report.candidates, *candidates}))
    return window | set(candidates)


def _substitute_side(poly, side):
    return trim([c * (side ** i) for i, c in enumerate(poly)])


def _squeeze_side(R, G, t, side, report):
    """Exhaustion cutoff for one sign side of A.

    G/t is the polynomial root of delta (poly_sqrt, denominators cleared),
    R = t^2 * delta - G^2 is nonzero and deg R < deg G = h >= 1.  On the
    side, delta(side * x) has root side^h * G(side * x)/t and t^2 * delta
    lies strictly between (G + j)^2 and (G + j + 1)^2 once both differences
    are positive; G + j >= 0 then holds too, since for an integer n <= -1,
    (n + 1)^2 <= n^2 leaves no room strictly between them.  As lc(G) > 0
    and deg R < h, only j = 0 (for lc(R) > 0) or j = -1 (for lc(R) < 0)
    makes both leading coefficients positive.  Beyond the cutoff
    delta(side * x) is never a perfect square.
    """
    G = _substitute_side(p_scale(G, side ** p_deg(G)), side)
    R = _substitute_side(R, side)
    j = 0 if R[-1] > 0 else -1
    low = p_add(R, p_add([j * j], G, 2 * j), -1)
    high = p_add(p_add([(j + 1) ** 2], G, 2 * (j + 1)), R, -1)
    cut = max(positive_cut(low), positive_cut(high))
    report.squeeze.append(
        {"side": side, "cut": cut, "shift": j,
         "squareRoot": p_str(G) + (f"/{t}" if t > 1 else "")}
    )
    return cut


def _may_vanish(values) -> bool:
    """False when sum(values[r] * x^r) has no root x >= 0 because every
    value is nonzero and all share one sign (Descartes' rule of signs).
    True otherwise: all values zero is the zero polynomial, and a zero
    constant is the root x = 0."""
    return not (all(v > 0 for v in values) or all(v < 0 for v in values))


def _x_coefficients(bcs) -> list:
    """The x-coefficients q_0..q_d of P(1 + x) = 4^d * E(A, (x + 1 - A^2)/4).

    With F(y) = sum(4^(d-j) * e_j(A) * y^j), P(1 + x) = F(x + 1 - A^2), so
    the q_r are the Taylor shift of F by 1 - A^2: synthetic division, d(d+1)/2
    steps c_j += (1 - A^2) * c_(j+1), each one pass adding g = c_(j+1) to
    c_j and subtracting g shifted up by two powers of A.
    """
    d = len(bcs) - 1
    c = [p_scale(ej, 4 ** (d - j)) for j, ej in enumerate(bcs)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            f, g = c[j], c[j + 1]
            step = f + [0] * (len(g) + 2 - len(f))
            for n, gn in enumerate(g):
                step[n] += gn
                step[n + 2] -= gn
            c[j] = trim(step)
    return c


def _root_location(bcs, report) -> set:
    """Dominant-filter window of A from the C = A^2 + 4B substitution.

    The dominant domain is C >= 1.  Substituting B = (x + 1 - A^2)/4 turns
    4^d * E into P(1 + x), P the polynomial in C, with x >= 0 on the domain;
    its x-coefficients q_r are the Taylor shift of F by 1 - A^2
    (_x_coefficients).
    It suffices that on a side of A every x-coefficient of s * P(1 + x) (s
    the eventual sign of e_d there) is eventually positive; the root bound of
    each coefficient (root_bound) makes "eventually" an explicit cutoff.
    root_bound reads only |coefficients|, so one cut serves both sides.  A
    coefficient that is zero (C = 1 solves the equation for every A when it
    is the constant one) or eventually negative leaves the proof open.  No
    case equation does that under the dominant filter, so it raises
    EngineMismatchError.  The window is the A with |A| <= cut at which
    P(1 + x) may vanish for some x >= 0 (_may_vanish): at any other A the
    x-coefficients are nonzero and of one sign, so E(A, B) = 0 has no
    admitted B there.
    """
    d = len(bcs) - 1
    q = _x_coefficients(bcs)
    cut = max(root_bound(qr) for qr in q if qr)  # a zero q_r fails on side 1
    for side in (1, -1):
        s = 1 if _substitute_side(bcs[d], side)[-1] > 0 else -1
        for r, qr in enumerate(q):
            # the leading coefficient of s * q_r(side * x)
            if not qr or s * side ** p_deg(qr) * qr[-1] <= 0:
                raise EngineMismatchError(
                    f"root location fails on side {side}: coefficient {r} of P(1 + x) is {p_str(qr)}"
                )
        report.squeeze.append(
            {"side": side, "cut": cut, "why": "discriminant-variable roots below 1"}
        )
    return {a for a in range(-cut, cut + 1) if _may_vanish([p_eval(qr, a) for qr in q])}


def _closure(eq: CaseEquation, filt: DomainFilter, report) -> set:
    """The finite window of A that holds every admitted solution off
    report.curves.  Fills the report's strategy, evidence and curves."""
    bcs = eq.poly
    deg_b = len(bcs) - 1
    if deg_b < 0:
        raise ValueError("identically zero case equation")

    if deg_b == 0:
        report.strategy = "constant_in_b"
        report.candidates = tuple(integer_roots(bcs[0]))
        return set(report.candidates)

    if deg_b == 1:
        report.strategy = "linear_in_b"
        return _linear_branch(bcs[1], p_scale(bcs[0], -1), filt, report)

    if deg_b == 2:
        # where e_d vanishes the equation drops in B-degree; every window
        # below keeps those A: the branch denominators vanish there, Delta =
        # e1^2 is a square there so the squeeze counts them as square hits,
        # and e_d is the top x-coefficient that root location proves
        # positive beyond its cut
        report.strategy = "quadratic_in_b"
        e2, e1, e0 = bcs[2], bcs[1], bcs[0]
        delta = p_add(p_mul(e1, e1), p_mul(e2, e0), -4)
        report.delta = tuple(delta)
        if not delta:
            raise SqueezeUnresolvedError("identically zero discriminant reached the squeeze")
        q = poly_sqrt(delta)
        if q is not None:
            G, t = frac_to_int(q)
            R = p_add(p_scale(delta, t * t), p_mul(G, G), -1)
            if not R:
                # B = (-t*e1 +- G) / (2*t*e2): two linear branches
                report.delta_square_root = (tuple(G), t)
                window = set()
                for sign_branch in (1, -1):
                    num = p_add(p_scale(G, sign_branch), e1, -t)
                    window |= _linear_branch(p_scale(e2, 2 * t), num, filt, report)
                return window
            cuts = {side: _squeeze_side(R, G, t, side, report) for side in (1, -1)}
            report.square_hits = tuple(
                a for a in range(-cuts[-1], cuts[1] + 1)
                if (da := p_eval(delta, a)) >= 0 and isqrt(da) ** 2 == da
            )
            return set(report.square_hits)
    else:
        report.strategy = "cubic_in_b"
    if not filt.dominant:
        raise SqueezeUnresolvedError(
            f"triple {eq.triple} variant {eq.variant}: B-degree {deg_b} past the "
            "square-root analysis has no closure without the dominant filter"
        )
    report.strategy += "_root_location"
    return _root_location(bcs, report)


def solve_case(eq: CaseEquation, filt: DomainFilter | None = None) -> EquationReport:
    """Complete integer solutions of one case equation under the filter,
    returned in its report with the closure evidence.

    The closure for the equation's B-degree bounds A: it records any curve
    families in the report and returns a finite window, the A values at
    which it has not proved E(A, B) = 0 free of admitted solutions (root
    location keeps only those below its cutoff where Descartes' rule leaves
    a root).  E(a, B) = 0 is then solved exactly in B at each a of the
    window.  A root that lies on a returned curve is left to the curve.
    integer_roots stops at degree 3, which is all the solver needs: every
    polynomial in A it factors has degree at most 2 and every fixed-A solve
    for B has degree at most 3 for the equations case_equations produces.
    Every sporadic solution and three witnesses per family re-substitute to
    zero before the report is returned; one that does not raises
    EngineMismatchError.

    Raises SqueezeUnresolvedError when no closure applies.  Under the
    dominant filter that never happens for an equation case_equations
    produces (root location covers every equation past the square-root
    analysis).  Without it, first kind raises from largest index 5 (first
    at triple (0, 1, 5)) and second kind from 4 (at (0, 1, 4)).
    """
    filt = filt or DomainFilter()
    report = EquationReport(eq, "")
    window = _closure(eq, filt, report)
    triple = eq.ap_roles()
    for a in sorted(window):
        coeffs = trim([p_eval(bc, a) for bc in eq.poly])
        if not coeffs:
            if a:
                report.b_families.append(BFamilySolution(a, triple))
            continue
        report.sporadics += [
            SporadicSolution(a, B, triple)
            for B in integer_roots(coeffs)
            if filt.admits(a, B)
            and not any(c.admits_a(a) and c.b_at(a) == B for c in report.curves)
        ]

    def check(a, b):
        if b_eval(eq.poly, a, b):
            raise EngineMismatchError(
                f"({a}, {b}) does not solve triple {eq.triple} variant {eq.variant}"
            )

    for s in report.sporadics:
        check(s.A, s.B)
    for f in report.b_families:
        witnesses = []
        b = filt.b_condition(f.A)[0]
        b = -3 if b is None else b
        while len(witnesses) < 3:
            if filt.admits(f.A, b):
                witnesses.append(b)
            b += 1
        for b in witnesses:
            check(f.A, b)
    for c in report.curves:
        witnesses = []
        a = 1
        while len(witnesses) < 3 and a < 1000:
            for cand in (a, -a):
                if c.admits_a(cand):
                    witnesses.append(cand)
            a += 1
        for cand in witnesses:
            check(cand, c.b_at(cand))
    return report


def solve_all(kind: Kind, m_cap: int, filt: DomainFilter | None = None) -> SolutionSet:
    """The checked report of every case equation up to m_cap."""
    filt = filt or DomainFilter()
    reports = tuple(solve_case(eq, filt) for eq in case_equations(kind, m_cap))
    return SolutionSet(kind, m_cap, filt.dominant, reports)
