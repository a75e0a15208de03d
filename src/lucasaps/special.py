"""Trinomial factor classification and the counting bound.

The negative-discriminant analysis reduces infinite-family detection to
finding quadratic factors of trinomials X^a - 2X^b + 1, X^a + X^b - 2 and
2X^a - X^b - 1.  Let r > 1 be the modulus of a root.  Since a - b >= 1
and b >= 1, r <= r^(a-b) and r^(-b) <= 1/r, so
  X^a - 2X^b + 1:  r^(a-b) <= 2 + r^(-b)  gives r^2 - 2r - 1 <= 0, r <= 1 + sqrt(2);
  X^a + X^b - 2:   r^(a-b) <= 1 + 2r^(-b) gives r^2 - r - 2 <= 0,  r <= 2;
  2X^a - X^b - 1:  2r^(a-b) <= 1 + r^(-b) < 2 is impossible,        r <= 1.
A factor X^2 + p*X + q is monic, so by Gauss's lemma its cofactor has
integer coefficients and q divides the constant term c_0 in {1, -2, -1}:
q is +-1, or +-2 for X^a + X^b - 2.  With R the root bound of the shape,
|p| <= R + |q|/R when the roots are real and |p| <= 2*sqrt(|q|) when they
are complex, so |p| <= 2 at q = +-1 and |p| <= 3 at q = +-2, that is
|p| <= 1 + |q|: a box of 10 candidates, or 24 for X^a + X^b - 2.  A factor
g divides f in Z[X], so g(m) divides f(m) for every integer m; a candidate
failing that at some m in {2, 3, -2, -3} with g(m) != 0 is dropped.  Each
survivor is decided by the remainders of X^n modulo it, and every factor
found is cross-checked by one exact evaluation at the root (-p + w)/2 in
Z[w]/(w^2 - d), d = p^2 - 4q: f's pair (P, Q) there must be (0, 0).  By
w -> -w that is both roots, and at d = 0 (w^2 = 0) Q is f' at the double root.

The headline constant counts progressions via solution bounds for weighted
unit equations in the roots' quadratic field: with A(k, s) <= 2^(35*b^3) * 2^(6*b^2)
and b = max(k+1, s), the total A(5,2) + 3*A(3,2) + 18*A(2,2) + 39 is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    DegenerateError,
    EngineMismatchError,
    ZeroCoefficientError,
    _pair_pow,
    linear_terms,
    new_params,
)


class TrinomialShape(Enum):
    UNIT_CONSTANT = "x^a-2x^b+1"
    MINUS_TWO_CONSTANT = "x^a+x^b-2"
    DOUBLED_LEAD = "2x^a-x^b-1"


# (c_a, c_b, c_0) of c_a*X^a + c_b*X^b + c_0 for each shape
_SHAPE_COEFFICIENTS = {
    TrinomialShape.UNIT_CONSTANT: (1, -2, 1),
    TrinomialShape.MINUS_TWO_CONSTANT: (1, 1, -2),
    TrinomialShape.DOUBLED_LEAD: (2, -1, -1),
}


@dataclass(frozen=True)
class TrinomialSpec:
    """One of the three normalized trinomial shapes with exponents a > b >= 1."""

    shape: TrinomialShape
    a: int
    b: int

    def __post_init__(self):
        if not self.a > self.b >= 1:
            raise ValueError("exponents must satisfy a > b >= 1")

    def describe(self) -> str:
        xa = f"X^{self.a}" if self.a > 1 else "X"
        xb = f"X^{self.b}" if self.b > 1 else "X"
        return self.shape.value.replace("x^a", xa).replace("x^b", xb)


# Largest trinomial exponent quad_factors accepts.
EXPONENT_CAP = 64

# (p, q, g(2), g(3), g(-2), g(-3)) for each candidate g = X^2 + p*X + q with
# q | 2 and |p| <= 1 + |q|, p outer and q inner: the order of quad_factors' list
_CANDIDATES = tuple(
    (p, q, *(m * m + p * m + q for m in (2, 3, -2, -3)))
    for p in range(-3, 4)
    for q in (-2, -1, 1, 2)
    if abs(p) <= 1 + abs(q)
)


def _remainder_vanishes(p: int, q: int, a: int, b: int, ca: int, cb: int, c0: int) -> bool:
    """True when X^2 + p*X + q divides c_a*X^a + c_b*X^b + c_0.

    With U the first-kind sequence of (A, B) = (-p, -q), X^n = U_n*X + B*U_{n-1}
    modulo X^2 + p*X + q for n >= 1 (the identity detect_families uses), so
    it divides exactly when both coefficients of the combined remainder vanish.
    """
    u = linear_terms(-p, -q, 0, 1, a + 1)
    return not (ca * u[a] + cb * u[b] or c0 - q * (ca * u[a - 1] + cb * u[b - 1]))


def quad_factors(spec: TrinomialSpec) -> list:
    """All monic quadratic integer factors X^2 + p*X + q of the trinomial.

    The candidates have q | c_0 and |p| <= 1 + |q|, from the proven root
    moduli in the module docstring (1 + sqrt(2), 2 and 1 for the three
    shapes).  A monic factor leaves an integer cofactor (Gauss's lemma), so
    g(m) | f(m) at every integer m; candidates failing that at some
    m in {2, 3, -2, -3} with g(m) != 0 are skipped before any recurrence.
    A survivor is decided by its remainders (_remainder_vanishes).  Every
    hit is cross-checked independently, by square-and-multiply at the root
    (-p + w)/2 in Z[w]/(w^2 - d): the trinomial's pair there must be (0, 0),
    which says both roots vanish and, at d = 0, the double root's derivative.
    """
    if spec.a > EXPONENT_CAP:
        raise ValueError(f"exponent {spec.a} exceeds cap {EXPONENT_CAP}")
    a, b = spec.a, spec.b
    ca, cb, c0 = _SHAPE_COEFFICIENTS[spec.shape]
    f2, f3, fm2, fm3 = (ca * m**a + cb * m**b + c0 for m in (2, 3, -2, -3))
    found = []
    for p, q, g2, g3, gm2, gm3 in _CANDIDATES:
        if c0 % q:
            continue
        if (g2 and f2 % g2) or (g3 and f3 % g3) or (gm2 and fm2 % gm2) or (gm3 and fm3 % gm3):
            continue
        if not _remainder_vanishes(p, q, a, b, ca, cb, c0):
            continue
        # f at (-p + w)/2, w^2 = d; w -> -w is the other root, at d = 0 the w-part is f'(-p/2)
        d = p * p - 4 * q
        pa, qa = _pair_pow(-p, 1, d, a)
        pb, qb = _pair_pow(-p, 1, d, b)
        if ca * pa + cb * pb + 2 * c0 or ca * qa + cb * qb:
            raise EngineMismatchError(
                "remainder and root evaluation disagree (at d = 0, the double-root derivative)"
            )
        found.append((p, q))
    return found


def companion_candidates_complex() -> list:
    """Coefficient pairs whose companion polynomial can divide a gap trinomial
    while having a negative discriminant.

    Scans the four exponent pairs left after reducing X^a + X^b - 2 by its
    cyclotomic part, maps each negative-discriminant quadratic factor
    X^2 + p*X + q to (A, B) = (-p, -q) and keeps the pairs that survive
    validation.
    """
    out = []
    for a, b in ((3, 2), (3, 1), (2, 1), (4, 2)):
        spec = TrinomialSpec(TrinomialShape.MINUS_TWO_CONSTANT, a, b)
        for p, q in quad_factors(spec):
            if p * p - 4 * q >= 0:
                continue
            try:
                params = new_params(-p, -q)
            except (ZeroCoefficientError, DegenerateError):
                continue
            if params not in out:
                out.append(params)
    return sorted(out, key=lambda s: (s.A, s.B))


@dataclass(frozen=True)
class SUnitBound:
    value: int
    digit_count: int
    leading_digits: str
    exponent10: int

    def decimal_string(self) -> str:
        return str(self.value)


def unit_equation_solution_bound(k: int, s: int) -> int:
    """Upper bound 2^(35*b^3) * 2^(6*b^2) with b = max(k+1, s) for the number
    of non-degenerate projective solutions of a weighted unit equation in k+1
    unknowns over a rank-s group in a quadratic field, where every pair's roots lie."""
    b = max(k + 1, s)
    return 2 ** (35 * b**3 + 6 * b**2)


def sunit_constant() -> SUnitBound:
    """The exact progression-count bound A(5,2) + 3*A(3,2) + 18*A(2,2) + 39.

    This is 2^7776 + 3*2^2336 + 18*2^999 + 39; the decimal data is
    derived from the exact integer, not hard-coded.
    """
    value = (
        unit_equation_solution_bound(5, 2)
        + 3 * unit_equation_solution_bound(3, 2)
        + 18 * unit_equation_solution_bound(2, 2)
        + 39
    )
    digits = str(value)
    return SUnitBound(value, len(digits), digits[:3], len(digits) - 1)
