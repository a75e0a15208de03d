"""Sequence parameters, exact arithmetic in Q(sqrt(D)), and term generation.

A parameter pair (A, B) of nonzero integers defines two integer sequences by
the recurrence x_{n+2} = A*x_{n+1} + B*x_n: the first kind starts (0, 1), the
second kind starts (2, A).  The companion polynomial is X^2 - A*X - B with
roots alpha = (A + sqrt(D))/2 and beta = (A - sqrt(D))/2, D = A^2 + 4B.

Pairs whose root ratio alpha/beta is a root of unity are rejected at
construction.  Since the ratio lives in a quadratic field, the only possible
orders are 1, 2, 3, 4, 6, and the degenerate pairs are exactly those with
A^2 in {-B, -2B, -3B, -4B} (order 2 would force A = 0).  Everything built on
top of :func:`new_params` may therefore assume non-degeneracy.

Exact arithmetic acts on integer pairs (p, q), the value (p + q*sqrt(D))/2
with p = q*D (mod 2): the smallest ring containing alpha and beta that is
closed under addition, multiplication and conjugation.  Products, powers and
signs of pairs (_product, _pair_pow, _pair_sign) keep every comparison of
the certification engine in integer arithmetic; :class:`Surd` is such a
value kept as a gap node's margin, with its text.  No floating point appears
in any correctness-critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt


class ZeroCoefficientError(ValueError):
    """A or B is zero."""


class EngineMismatchError(RuntimeError):
    """Two independent computations of the same exact fact disagree (engine bug)."""


class CertificateFailureError(AssertionError):
    """An identity certificate window contained a nonzero value."""


class SqueezeUnresolvedError(ArithmeticError):
    """The discriminant could not be squeezed or solved for this equation."""


class DegenerateError(ValueError):
    """The root ratio alpha/beta is a root of unity."""

    def __init__(self, A: int, B: int, order: int):
        self.A = A
        self.B = B
        self.order = order
        super().__init__(
            f"degenerate pair ({A}, {B}); the root ratio alpha/beta has order {order}"
        )


# A^2 == -k*B  maps to the order of alpha/beta as a root of unity; the keys
# are the one list of degenerate k that every module reads.
_UNITY_ORDER = {1: 3, 2: 4, 3: 6, 4: 1}


def degeneracy_order(A: int, B: int):
    """Order of alpha/beta as a root of unity, or None if non-degenerate."""
    for k, order in _UNITY_ORDER.items():
        if A * A == -k * B:
            return order
    return None


class Kind(Enum):
    FIRST = "first"
    SECOND = "second"

    def initial_values(self, A: int) -> tuple[int, int]:
        if self is Kind.FIRST:
            return (0, 1)
        return (2, A)


class Classification(Enum):
    REAL_DOMINANT = "real_dominant"
    COMPLEX_CONJUGATE = "complex_conjugate"


@dataclass(frozen=True)
class SeqParams:
    """Validated coefficient pair with discriminant D = A^2 + 4B."""

    A: int
    B: int
    D: int = field(init=False)

    def __post_init__(self):
        if self.A == 0 or self.B == 0:
            raise ZeroCoefficientError(f"A and B must be nonzero, got ({self.A}, {self.B})")
        order = degeneracy_order(self.A, self.B)
        if order is not None:
            raise DegenerateError(self.A, self.B, order)
        object.__setattr__(self, "D", self.A * self.A + 4 * self.B)


def new_params(A: int, B: int) -> SeqParams:
    """Validate (A, B); the pair derives its discriminant.

    Raises ZeroCoefficientError or DegenerateError on bad input.
    """
    return SeqParams(A, B)


def classify(params: SeqParams) -> Classification:
    # D = 0 would mean A^2 = -4B, already rejected as degenerate, so there
    # is no third branch here.
    if params.D > 0:
        return Classification.REAL_DOMINANT
    return Classification.COMPLEX_CONJUGATE


def _sign(n) -> int:
    return (n > 0) - (n < 0)


@dataclass(frozen=True)
class Surd:
    """Exact value (p + q*sqrt(d))/2 with the parity invariant p = q*d (mod 2).

    When d is a perfect square the representation is normalized to q = 0, so
    dataclass equality and hashing agree with equality of values.
    """

    p: int
    q: int
    d: int

    def __post_init__(self):
        if self.q != 0 and self.d >= 0:
            r = isqrt(self.d)
            if r * r == self.d:
                object.__setattr__(self, "p", self.p + self.q * r)
                object.__setattr__(self, "q", 0)
        if (self.p - self.q * self.d) % 2 != 0:
            raise ValueError(f"parity invariant violated: ({self.p}, {self.q}, {self.d})")

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p // 2) if self.p % 2 == 0 else f"{self.p}/2"
        f, d0 = _square_split(self.d)
        p, qf = self.p, self.q * f
        if p % 2 == 0 and qf % 2 == 0:
            p, qf = p // 2, qf // 2
            den = ""
        else:
            den = "/2"
        head = str(p) if p else ""
        op = "+" if qf > 0 else "-"
        tail = f"{abs(qf)}*sqrt({d0})" if abs(qf) != 1 else f"sqrt({d0})"
        body = f"{head}{op}{tail}" if head else (f"-{tail}" if qf < 0 else tail)
        return f"({body}){den}" if den else body


def _product(p1: int, q1: int, p2: int, q2: int, d: int) -> tuple[int, int]:
    """(p, q) of the product of (p1 + q1*sqrt(d))/2 and (p2 + q2*sqrt(d))/2.

    Raises EngineMismatchError when the product leaves the half-integer ring
    and the ValueError of Surd when it breaks the parity invariant.
    """
    p, rem1 = divmod(p1 * p2 + q1 * q2 * d, 2)
    q, rem2 = divmod(p1 * q2 + q1 * p2, 2)
    if rem1 or rem2:
        raise EngineMismatchError("product left the half-integer ring")
    if (p - q * d) % 2:
        raise ValueError(f"parity invariant violated: ({p}, {q}, {d})")
    return p, q


def _pair_pow(p: int, q: int, d: int, n: int) -> tuple[int, int]:
    """(p, q) of ((p + q*sqrt(d))/2)^n for n >= 0 by square-and-multiply;
    every step is a _product, with its checks."""
    rp, rq = 2, 0
    while n > 0:
        if n & 1:
            rp, rq = _product(rp, rq, p, q, d)
        n >>= 1
        if n:
            p, q = _product(p, q, p, q, d)
    return rp, rq


def _pair_sign(p: int, q: int, d: int) -> int:
    """Exact sign of (p + q*sqrt(d))/2 for d > 0, or for q = 0.

    The pair need not be normalized: a perfect square d with q != 0 is fine.
    """
    sp, sq = _sign(p), _sign(q)
    if sp == -sq != 0:
        # p and q*sqrt(d) have opposite signs: the larger of p^2 and q^2*d decides
        return sp * _sign(p * p - q * q * d)
    return sp or sq


def _square_split(d: int) -> tuple[int, int]:
    """d = f^2 * d0 with d0 squarefree (sign kept on d0)."""
    sign, n = _sign(d), abs(d)
    f = 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            f *= k
        k += 1
    return f, sign * n


def terms(params: SeqParams, kind: Kind, count: int) -> list:
    """The first `count` terms as a fresh list."""
    if count <= 0:
        return []
    return linear_terms(params.A, params.B, *kind.initial_values(params.A), count)


def linear_terms(A: int, B: int, x0: int, x1: int, count: int) -> list:
    """Terms of x_{n+2} = A*x_{n+1} + B*x_n from arbitrary initial values."""
    out = [x0, x1]
    append = out.append
    for _ in range(count - 2):
        x0, x1 = x1, A * x1 + B * x0
        append(x1)
    return out[:count]

