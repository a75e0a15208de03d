"""Completeness certification for the positive-discriminant case.

Two routes prove that an enumeration window catches every progression.

Ratio route.  When |x_n / x_{n'}| > 3 for all n > n0 >= n' the three
equations x_k - 2*x_l + x_m = 0 (with the doubled term in each position)
are unsolvable above n0, because the largest term outweighs the other two.
For non-exceptional pairs the ratio condition holds above n0 = 7 (first
kind) resp. n0 = 6 (second kind); the finitely many exceptional pairs are
listed in :func:`growth_exception`.

Gap route.  For an exceptional pair, write a candidate solution with sorted
exponents n1 > n2 > n3 and gaps g1 = n1 - n2, g2 = n2 - n3.  Pulling out
the smallest exponent turns the progression equation into

    gamma^n3 * Q(gamma) = eps * delta^n3 * Q(delta),
    Q(X) = c1*X^(g1+g2) + c2*X^(g2) + c3,

where gamma is the dominant root, eps is +1 (first kind) or -1 (second
kind) and (c1, c2, c3) places the coefficient -2.  With both gaps fixed
there is at most one solution exponent n3, found by exact monotone search;
when Q kills both roots the whole cell is a shift family.  With a free gap,
a certified-positive lower bound W for |Q(gamma)| (an exact surd) yields an
explicit bound on n1, since the dominant side grows strictly faster than
4 * max(1, |delta|)^n1.  When the margin cannot be certified the engine
fixes the smallest free gap to successive values and recurses, which
terminates because the margin becomes positive once the gap lower bound is
large enough.

Every comparison is exact arithmetic on integer pairs (p, q), the value
(p + q*sqrt(D))/2.  The root powers are the Lucas sequences V, U of
(|A|, B): gamma^n = (sgn A)^n * (V_n + U_n*sqrt(D))/2 and
delta^n = (sgn A)^n * (V_n - U_n*sqrt(D))/2, and since delta is gamma's
conjugate, delta^n3 * Q(delta) is the conjugate (p, -q) of gamma^n3 * Q(gamma).
Every other product is core's checked pair product and every sign core's
pair sign; a node builds a Surd only for the margin it stores, and a
decoupled cell, whose roots are integers, takes them from isqrt(D).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from math import isqrt

from . import __version__
from .apsearch import APFamily, APTriple, doubled_at, find_aps, is_ap, verify_family
from .core import (
    Classification,
    EngineMismatchError,
    Kind,
    SeqParams,
    Surd,
    _pair_sign,
    _product,
    classify,
    linear_terms,
    terms,
)


def growth_exception(params: SeqParams, kind: Kind) -> bool:
    """True iff the pair is excluded from the ratio growth criterion.

    First kind: the ratio |x_n / x_{n'}| > 3 holds for n odd or n >= 8
    unless B < 0 and |A| <= 6, or |A| = 1 and 0 < B <= 9, or |A| = 2 and
    0 < B <= 3.  Second kind: holds for n even or n >= 7 unless B < 0 and
    |A| <= 7, or |A| = 1 and 0 < B <= 14, or |A| = 2 and 0 < B <= 3.
    """
    A, B = abs(params.A), params.B
    if kind is Kind.FIRST:
        return (B < 0 and A <= 6) or (A == 1 and 0 < B <= 9) or (A == 2 and 0 < B <= 3)
    return (B < 0 and A <= 7) or (A == 1 and 0 < B <= 14) or (A == 2 and 0 < B <= 3)


GROWTH_WINDOW = {Kind.FIRST: 7, Kind.SECOND: 6}


@dataclass(frozen=True)
class Gap:
    """Either an exact gap value or a free gap with a lower bound."""

    fixed: bool
    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("gaps are at least 1")

    def describe(self) -> str:
        return f"={self.value}" if self.fixed else f">={self.value}"


@dataclass(frozen=True)
class GapPattern:
    """One sub-case of the progression equation.

    minus_two_at places the -2 coefficient on the largest (0), middle (1)
    or smallest (2) exponent.  The side sign eps comes from the kind.
    """

    minus_two_at: int
    g1: Gap
    g2: Gap

    def coefficients(self) -> tuple[int, int, int]:
        c = [1, 1, 1]
        c[self.minus_two_at] = -2
        return tuple(c)

    def describe(self) -> str:
        return (
            f"-2@n{self.minus_two_at + 1} g1{self.g1.describe()} g2{self.g2.describe()}"
        )


@dataclass
class PatternAnalysis:
    """One analyzed gap pattern, a node of the certificate.

    status is one of:
      family        -- the cell is an infinite family (plus any decoupled ones)
      resolved      -- fixed gaps, at most one candidate checked exactly
      bounded       -- certified margin; every solution has n1 <= top_bound
      fix_next_gap  -- margin not certifiable, split on the first free gap
      inconclusive  -- a search guard tripped
    solutions are canonical (k, l, m) triples; a bounded cell lists all of its.
    """

    pattern: GapPattern
    status: str
    solutions: tuple = ()
    families: tuple = ()
    margin: Surd | None = None
    top_bound: int | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        doc = {
            "minusTwoAt": self.pattern.minus_two_at,
            "g1": self.pattern.g1.describe(),
            "g2": self.pattern.g2.describe(),
            "outcome": self.status,
        }
        if self.margin is not None:
            doc["margin"] = {
                "p": str(self.margin.p),
                "q": str(self.margin.q),
                "disc": self.margin.d,
                "text": str(self.margin),
            }
        if self.top_bound is not None:
            doc["topBound"] = self.top_bound
        if self.solutions:
            doc["solutions"] = [list(s) for s in self.solutions]
        if self.families:
            doc["families"] = [f.describe() for f in self.families]
        if self.note:
            doc["note"] = self.note
        return doc


# Steps of the exact monotone searches for a fixed-cell exponent and a top bound.
# A termination guard, not a tuned size: over the 158 growth-exception pair/kinds
# the largest top bound is 8 and a fixed-cell search takes at most 3 steps.
SEARCH_CAP = 2000

# Largest value at which the gap engine fixes a free gap before it reports
# the pattern inconclusive.  Also a termination guard: over the same 158
# pair/kinds the engine fixes a free gap at most at 2 (the largest gap in any
# node is 3), so every cap from 2 up gives the same result.
GAP_CAP = 12


def _shift_family(minus_two_at: int, g1: int, g2: int) -> APFamily:
    k, l, m = doubled_at((g1 + g2, g2, 0), minus_two_at)
    return APFamily((k, 1), (l, 1), (m, 1), 0)


def _gamma_power(v: list, u: list, sgn_a: int, k: int) -> tuple[int, int]:
    """gamma^k = (sgn A)^k * |gamma|^k as a pair, from |gamma|^k = (v_k + u_k*sqrt(D))/2."""
    if sgn_a < 0 and k & 1:
        return -v[k], -u[k]
    return v[k], u[k]


def _fixed_cell(pattern: GapPattern, v: list, u: list, sgn_a: int, d: int,
                eps: int) -> PatternAnalysis:
    c1, c2, c3 = pattern.coefficients()
    g1, g2 = pattern.g1.value, pattern.g2.value
    # Q(gamma) as the pair (p, q), Q(delta) its conjugate (p, -q): both vanish
    # iff p = q = 0, one iff the norm Q(gamma)*Q(delta) = (p^2 - q^2*D)/4 does
    p1, q1 = _gamma_power(v, u, sgn_a, g1 + g2)
    p2, q2 = _gamma_power(v, u, sgn_a, g2)
    p, q = c1 * p1 + c2 * p2 + 2 * c3, c1 * q1 + c2 * q2
    if not (p or q):
        fam = _shift_family(pattern.minus_two_at, g1, g2)
        return PatternAnalysis(pattern, "family", families=(fam,),
                               note="companion divides the gap trinomial")
    if p * p == q * q * d:
        return PatternAnalysis(pattern, "resolved",
                               note="exactly one root kills Q; no solution")

    # lhs = gamma^n3 Q(gamma) = (p + q*sqrt(D))/2 and rhs = delta^n3 Q(delta) is
    # its conjugate, so lhs^2 - rhs^2 = p*q*sqrt(D): |lhs| > |rhs| iff p*q > 0,
    # and lhs = eps*rhs iff q = 0 (eps = 1) or p = 0 (eps = -1).  |gamma/delta| > 1,
    # so |lhs| / |rhs| is strictly increasing in n3: at most one candidate where
    # the moduli agree.
    gp, gq = _gamma_power(v, u, sgn_a, 1)
    sols = []
    for n3 in range(SEARCH_CAP):
        if p == 0 or q == 0:
            if (q if eps == 1 else p) == 0:
                sols.append(doubled_at((n3 + g1 + g2, n3 + g2, n3), pattern.minus_two_at))
            break
        if (p > 0) == (q > 0):
            break
        p, q = _product(p, q, gp, gq, d)
    else:
        return PatternAnalysis(pattern, "inconclusive", note="monotone search cap hit")
    return PatternAnalysis(pattern, "resolved", solutions=tuple(sols))


def _decoupled_cell(pattern: GapPattern, params: SeqParams, eps: int) -> PatternAnalysis:
    """g1 fixed with c1*gamma^g1 + c2 = 0.

    Only gamma = 2 with g1 = 1 and the -2 coefficient in the middle can
    reach this branch (gamma^g1 = 2 has no other solution of degree <= 2
    with nonzero trace), and then the other root is +-1.  The roots are
    the integers gamma, delta = sgn(A)*(|A| +- r)/2 with r^2 = D.  The equation
    collapses to 2^n3 * c3 = eps * delta^n3 * (delta^g2 * T(delta) + c3),
    so n3 is bounded outright and each residue class of g2 either fails or
    yields a whole family.
    """
    c1, c2, c3 = pattern.coefficients()
    a, b = pattern.g1.value, pattern.g2.value
    r, absa = isqrt(params.D), abs(params.A)
    if r * r != params.D:
        raise EngineMismatchError(f"decoupled cell reached with D = {params.D} not a square")
    sgn_a = 1 if params.A > 0 else -1
    gi, di = sgn_a * (absa + r) // 2, sgn_a * (absa - r) // 2
    if gi != 2 or abs(di) != 1 or pattern.minus_two_at != 1:
        raise EngineMismatchError(f"decoupled cell reached with roots {gi}, {di}")

    td = c1 * di ** a + c2
    limit = abs(td) + abs(c3)
    families = []
    n3 = 0
    while (gi ** n3) * abs(c3) <= limit:
        for e in ((1,) if di == 1 else (1, -1)):
            rhs = eps * (di ** n3) * (e * td + c3)
            if (gi ** n3) * c3 != rhs:
                continue
            step = 1 if di == 1 else 2
            g0 = b
            while di ** g0 != e:
                g0 += 1
            k, l, m = (n3, 0), (n3 + g0, step), (n3 + g0 + a, step)
            families.append(APFamily(k, l, m, 0))
        n3 += 1
    status = "family" if families else "resolved"
    return PatternAnalysis(pattern, status, families=tuple(families),
                           note="decoupled: dominant root power is constant")


def pattern_bound(
    pattern: GapPattern,
    params: SeqParams,
    kind: Kind,
) -> PatternAnalysis:
    """Analyze one gap pattern exactly.

    Fixed gaps resolve outright (family / no solution / single verified
    candidate).  A free gap either certifies a positive margin W, in which
    case W * |gamma|^n1 <= 4 * |gamma|^(a+b) * max(1,|delta|)^n1 bounds the
    top exponent and the cell is exhausted up to it, or requests a split.
    """
    eps = 1 if kind is Kind.FIRST else -1
    d, sgn_a = params.D, (1 if params.A > 0 else -1)
    a, b = pattern.g1.value, pattern.g2.value
    # the Lucas pair of (|A|, B): |gamma|^k = (v_k + u_k*sqrt(D))/2
    absa = abs(params.A)
    v = linear_terms(absa, params.B, 2, absa, a + b + 1)
    u = linear_terms(absa, params.B, 0, 1, a + b + 1)
    if pattern.g1.fixed and pattern.g2.fixed:
        return _fixed_cell(pattern, v, u, sgn_a, d, eps)

    c1, c2, c3 = pattern.coefficients()
    # W = |c1*gamma^a + c2| * |gamma|^b - |c3| with g1 fixed, else
    # W = |c1| * |gamma|^(a+b) - |c2| * |gamma|^b - |c3|
    if pattern.g1.fixed:
        gp, gq = _gamma_power(v, u, sgn_a, a)
        tp, tq = c1 * gp + 2 * c2, c1 * gq
        t_sign = _pair_sign(tp, tq, d)
        if t_sign == 0:
            return _decoupled_cell(pattern, params, eps)
        mp, mq = _product(t_sign * tp, t_sign * tq, v[b], u[b], d)
        mp -= 2 * abs(c3)
    else:
        mp = abs(c1) * v[a + b] - abs(c2) * v[b] - 2 * abs(c3)
        mq = abs(c1) * u[a + b] - abs(c2) * u[b]
    margin = Surd(mp, mq, d)
    if _pair_sign(mp, mq, d) <= 0:
        return PatternAnalysis(pattern, "fix_next_gap", margin=margin)

    # eta = max(1, |delta|), with |delta| = +-(v_1 - u_1*sqrt(D))/2
    ep, eq = v[1], -u[1]
    if _pair_sign(ep, eq, d) < 0:
        ep, eq = -ep, -eq
    if _pair_sign(ep - 2, eq, d) <= 0:
        ep, eq = 2, 0
    lp, lq = mp, mq
    rp, rq = 4 * v[a + b], 4 * u[a + b]
    top = -1
    for n1 in range(SEARCH_CAP):
        if _pair_sign(rp - lp, rq - lq, d) < 0:
            break
        top = n1
        lp, lq = _product(lp, lq, v[1], u[1], d)
        rp, rq = _product(rp, rq, ep, eq, d)
    else:
        return PatternAnalysis(pattern, "inconclusive", margin=margin,
                               note="top bound search cap hit")
    return PatternAnalysis(pattern, "bounded", _cell_solutions(pattern, params, kind, top),
                           margin=margin, top_bound=top)


def _cell_solutions(pattern: GapPattern, params: SeqParams, kind: Kind, top: int):
    """Exhaust a bounded cell: the canonical triples of exponents meeting the
    gap constraints with n1 <= top, checked against the recurrence terms."""
    c1, c2, c3 = pattern.coefficients()
    ts = terms(params, kind, top + 1)
    g1s = (pattern.g1.value,) if pattern.g1.fixed else range(pattern.g1.value, top + 1)
    out = []
    for g1 in g1s:
        g2s = (pattern.g2.value,) if pattern.g2.fixed else range(pattern.g2.value, top - g1 + 1)
        for g2 in g2s:
            for n3 in range(0, top - g1 - g2 + 1):
                n2 = n3 + g2
                n1 = n2 + g1
                if c1 * ts[n1] + c2 * ts[n2] + c3 * ts[n3] == 0:
                    out.append(doubled_at((n1, n2, n3), pattern.minus_two_at))
    return tuple(out)


@dataclass
class CompletenessCertificate:
    """Machine-checkable evidence that every progression has index <= n0;
    patterns holds the node documents of PatternAnalysis.to_json_dict."""

    method: str
    n0: int
    patterns: tuple
    aps: tuple
    tool_version: str = __version__
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "n0": self.n0,
            "patterns": list(self.patterns),
            "aps": [t.to_json_dict() for t in self.aps],
            "toolVersion": self.tool_version,
            "note": self.note,
        }


def certificate_from_json(doc: dict) -> CompletenessCertificate:
    """Rebuild a certificate from its JSON document; the exact inverse of
    CompletenessCertificate.to_json_dict.  A missing required key raises
    KeyError and a value that cli_schema.json forbids raises ValueError; a
    pattern node is kept as its JSON document, its inside unchecked."""
    if type(doc) is not dict:
        raise ValueError(f"a certificate must be a JSON object: {doc!r}")
    if type(doc["n0"]) is not int or doc["n0"] < 2:
        raise ValueError(f"n0 must be an integer >= 2: {doc['n0']!r}")
    if doc["method"] not in ("growth_lemma", "gap_pattern"):
        raise ValueError(f"unknown method: {doc['method']!r}")
    patterns, aps = doc["patterns"], doc["aps"]
    for key, nodes in (("patterns", patterns), ("aps", aps)):
        if type(nodes) is not list or any(type(n) is not dict for n in nodes):
            raise ValueError(f"{key} must be an array of objects: {nodes!r}")
    version, note = doc["toolVersion"], doc.get("note", "")
    if type(version) is not str or type(note) is not str:
        raise ValueError(f"toolVersion and note must be strings: {version!r}, {note!r}")
    if type(doc.get("complete", True)) is not bool:
        raise ValueError(f"complete must be a boolean: {doc['complete']!r}")
    for t in aps:
        if any(type(t[i]) is not int or t[i] < 0 for i in "klm"):
            raise ValueError(f"triple indices must be integers >= 0: {t!r}")
        values = t["values"]
        if type(values) is not list or not all(
            type(v) is str and re.fullmatch("-?[0-9]+", v) for v in values
        ):
            raise ValueError(f"triple values must be an array of decimal strings: {t!r}")
        if len(values) != 3:
            raise ValueError(f"triple values must hold exactly 3 strings: {t!r}")
    return CompletenessCertificate(
        doc["method"], doc["n0"], tuple(patterns),
        tuple(APTriple(t["k"], t["l"], t["m"], tuple(map(int, t["values"]))) for t in aps),
        version, note,
    )


@dataclass
class EnumerationResult:
    """Outcome of :func:`certified_enumerate`.

    complete      -- aps is exhaustive and certificate says why
    has_families  -- families plus aps (the sporadic part) describe every
                     progression; no finite certificate is issued
    inconclusive  -- diagnostics explain which guard tripped
    """

    status: str
    aps: tuple = ()
    families: tuple = ()
    certificate: CompletenessCertificate | None = None
    diagnostics: tuple = ()
    evidence: tuple = ()


def _gap_engine(params: SeqParams, kind: Kind):
    """Run the gap patterns of every -2 placement; returns (evidence, problems).

    The evidence is every analysis that is not a split, as pattern_bound
    returned it; problems lists every guard that tripped.
    """
    evidence, problems = [], []

    def analyze(pat: GapPattern):
        # a split fixes the free gap at v, then raises it to >= v + 1; each
        # recursion fixes one more gap and a pattern with both gaps fixed
        # never asks for a split, so the recursion is at most 2 deep
        free = pat
        while (res := pattern_bound(free, params, kind)).status == "fix_next_gap":
            which = "g1" if not free.g1.fixed else "g2"
            v = getattr(free, which).value
            if v > GAP_CAP:
                problems.append(f"gap cap exhausted at {pat.describe()}")
                return
            analyze(replace(free, **{which: Gap(True, v)}))
            free = replace(free, **{which: Gap(False, v + 1)})
        if res.status == "inconclusive":
            problems.append(f"{res.pattern.describe()}: {res.note}")
        evidence.append(res)

    for placement in (0, 1, 2):
        analyze(GapPattern(placement, Gap(False, 1), Gap(False, 1)))
    return tuple(evidence), problems


def certified_enumerate(params: SeqParams, kind: Kind) -> EnumerationResult:
    """Enumerate every progression of the sequence with proof of completeness.

    Non-exceptional dominant pairs use the ratio growth criterion with
    n0 = 7 (first kind) or 6 (second kind).  Exceptional pairs run the gap
    pattern engine, which is inconclusive when it would fix a free gap above
    GAP_CAP.  Negative discriminants are inconclusive by design: no
    effective completeness method is implemented there.  Each reported
    family has passed verify_family, which raises CertificateFailureError
    on a family that fails.
    """
    if classify(params) is not Classification.REAL_DOMINANT:
        return EnumerationResult(
            "inconclusive",
            diagnostics=("no effective completeness method for negative discriminant",),
        )
    if not growth_exception(params, kind):
        n0 = GROWTH_WINDOW[kind]
        aps = tuple(find_aps(params, kind, n0))
        cert = CompletenessCertificate(
            "growth_lemma", n0, (), aps,
            note="ratio |x_n/x_n'| > 3 above n0; pair is not in the exception list",
        )
        return EnumerationResult("complete", aps, (), cert)

    evidence, problems = _gap_engine(params, kind)
    if problems:
        return EnumerationResult(
            "inconclusive", diagnostics=tuple(problems), evidence=evidence
        )

    # evidence solutions are canonical index triples (k < m)
    solutions = {s for e in evidence for s in e.solutions}
    ts = terms(params, kind, max(map(max, solutions), default=-1) + 1)
    sporadic = [
        APTriple(k, l, m, (ts[k], ts[l], ts[m]))
        for k, l, m in sorted(solutions, key=lambda s: (max(s), s))
        if is_ap(ts[k], ts[l], ts[m])
    ]

    fams = sorted({f.normalized() for e in evidence for f in e.families}, key=APFamily.sort_key)
    for f in fams:
        verify_family(f, params, kind)
    if fams:
        return EnumerationResult(
            "has_families", tuple(sporadic), tuple(fams), None, (), evidence
        )

    n0 = max(
        [2]
        + [e.top_bound for e in evidence if e.top_bound is not None]
        + [max(s) for s in solutions]
    )
    aps = tuple(find_aps(params, kind, n0))
    if {t.indices for t in aps} != {t.indices for t in sporadic}:
        raise EngineMismatchError(
            f"gap engine and brute enumeration disagree for ({params.A}, {params.B})"
        )
    nodes = tuple(e.to_json_dict() for e in evidence)
    cert = CompletenessCertificate("gap_pattern", n0, nodes, aps)
    return EnumerationResult("complete", aps, (), cert, (), evidence)


def check_certificate(cert: CompletenessCertificate, params: SeqParams, kind: Kind) -> bool:
    """Independently re-validate a certificate by brute enumeration.

    Listed triples must be distinct, lie within n0 and equal, indices and
    values, the brute window up to W = max(4*n0, 100); a repeated triple or
    an unreachable n0 is refused unsearched.
    A unit-step family, offsets <= max(12, n0 + 3), fails: its instances ending
    at W - 1 and W don't both repeat a value (else x is periodic: degenerate).
    """
    # a top bound or a fixed cell's smallest exponent is below SEARCH_CAP and
    # each of its two fixed gaps at most GAP_CAP, so no engine run issues this
    if cert.n0 >= SEARCH_CAP + 2 * GAP_CAP:
        return False
    listed = {t.indices: t.values for t in cert.aps}
    if len(listed) != len(cert.aps):
        return False
    brute = {t.indices: t.values for t in find_aps(params, kind, max(4 * cert.n0, 100))}
    return all(max(i) <= cert.n0 for i in listed) and listed == brute
