"""Exact polynomial arithmetic over the integers: sums, products, root
bounds, polynomial square roots and integer roots.

A polynomial in A is a dense list of coefficients, index = degree, with no
trailing zero; the zero polynomial is [].  A polynomial in (A, B) is the
tuple of its B-coefficients e_j(A) for j = 0..deg_B, each a dense
A-polynomial; the top one is nonzero, the zero polynomial is ().
This module imports only the standard library.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm


def trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def p_add(f, g, c: int = 1) -> list:
    """f + c * g."""
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + c * (g[i] if i < len(g) else 0) for i in range(n)])


def p_scale(f, c):
    return trim([x * c for x in f]) if c else []


def p_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def p_eval(f, x):
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def p_deg(f) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def p_content(f) -> int:
    g = 0
    for c in f:
        g = gcd(g, c)
    return g or 1


def divisors(n: int) -> list:
    n = abs(n)
    if n == 0:
        raise ValueError("zero has no divisor list")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _ceil_root(n: int, k: int) -> int:
    """Least integer r >= 0 with r**k >= n, for n >= 0 (exact search)."""
    lo, hi = 0, 1 << -(-n.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


def root_bound(f) -> int:
    """N >= 0 with every real root of the nonzero polynomial f in [-N, N].

    The lesser of two classical bounds on the root modulus, each rounded up
    exactly: Cauchy's 1 + max|c_i| / |lc| and Fujiwara's
    2 * max_k (|c_(d-k)| / |lc|)^(1/k), whose last entry |c_0 / (2 lc)| is
    loosened to |c_0 / lc|.
    """
    lc = abs(f[-1])
    lower = [abs(c) for c in reversed(f[:-1])]  # lower[k - 1] = |c_(d-k)|
    if not lower:
        return 0
    cauchy = 1 + -(-max(lower) // lc)
    fujiwara = 2 * max(_ceil_root(-(-c // lc), k) for k, c in enumerate(lower, 1))
    return min(cauchy, fujiwara)


def positive_cut(f) -> int:
    """N >= 0 with f(x) > 0 for every integer x > N (requires lc > 0)."""
    if not f or f[-1] <= 0:
        raise ValueError("leading coefficient must be positive")
    return root_bound(f)


def frac_to_int(poly):
    """Clear denominators: returns (int_poly, t) with int_poly = t * poly."""
    t = 1
    for c in poly:
        t = lcm(t, Fraction(c).denominator)
    return [int(Fraction(c) * t) for c in poly], t


def p_str(f) -> str:
    return b_str((f,))


def b_add(f, g, c: int = 1) -> tuple:
    """f + c * g."""
    rows = [
        p_add(f[j] if j < len(f) else [], g[j] if j < len(g) else [], c)
        for j in range(max(len(f), len(g)))
    ]
    return tuple(tuple(row) for row in trim(rows))


def b_eval(f, a: int, b: int) -> int:
    out = 0
    for e in reversed(f):
        out = out * b + p_eval(e, a)
    return out


def b_str(f) -> str:
    """Terms by descending B-degree, then descending A-degree."""
    out = ""
    for j in reversed(range(len(f))):
        for i in reversed(range(len(f[j]))):
            c = f[j][i]
            if not c:
                continue
            mono = "*".join(
                ([f"A^{i}" if i > 1 else "A"] if i else [])
                + ([f"B^{j}" if j > 1 else "B"] if j else [])
            )
            body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
            out += ("-" if c < 0 else "+" if out else "") + body
    return out or "0"


def poly_sqrt(delta):
    """Fraction polynomial q with deg(delta - q^2) < deg(q), or None.

    Needs even degree and a positive perfect-square leading coefficient;
    the top half of the coefficients is matched greedily.
    """
    d = p_deg(delta)
    if d < 0 or d % 2:
        return None
    lc = delta[-1]
    if lc <= 0 or isqrt(lc) ** 2 != lc:
        return None
    h = d // 2
    q = [Fraction(0)] * (h + 1)
    q[h] = Fraction(isqrt(lc))
    for j in range(1, h + 1):
        target = Fraction(delta[2 * h - j])
        acc = Fraction(0)
        for u in range(h - j + 1, h + 1):
            v = 2 * h - j - u
            if h - j < v <= h:
                acc += q[u] * q[v]
        q[h - j] = (target - acc) / (2 * q[h])
    return q


def _bisect_int_roots(f, lo, hi):
    """Integer roots of f on [lo, hi] where f is monotone there (exact)."""
    roots = []
    flo, fhi = p_eval(f, lo), p_eval(f, hi)
    if flo == 0:
        roots.append(lo)
    if fhi == 0 and hi != lo:
        roots.append(hi)
    if flo * fhi >= 0:
        return roots
    sign_lo = 1 if flo > 0 else -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fm = p_eval(f, mid)
        if fm == 0:
            return roots + [mid]
        if (1 if fm > 0 else -1) == sign_lo:
            lo = mid
        else:
            hi = mid
    return roots


def integer_roots(coeffs):
    """Exact integer roots of a nonzero polynomial of degree at most 3.

    Coefficients may be astronomically large, so divisor enumeration is
    avoided: roots are isolated between the critical points and found by
    integer bisection.  The zero polynomial and degrees above 3 raise
    ValueError.
    """
    f = trim(list(coeffs))
    d = p_deg(f)
    if d < 0:
        raise ValueError("zero polynomial has every root")
    if d > 3:
        raise ValueError(f"degree {d} exceeds the supported degree 3")
    if d == 0:
        return []
    if d == 1:
        c0, c1 = f[0], f[1]
        return [-c0 // c1] if c0 % c1 == 0 else []
    if d == 2:
        c0, c1, c2 = f
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return []
        w = isqrt(disc)
        out = set()
        for pm in (w, -w):
            if (-c1 + pm) % (2 * c2) == 0:
                out.add((-c1 + pm) // (2 * c2))
        return sorted(out)
    bound = max(root_bound(f), 1)  # two distinct ends even for c3 * x^3
    # critical points: roots of f' = 3*c3*x^2 + 2*c2*x + c1
    c1, c2, c3 = f[1], f[2], f[3]
    disc = 4 * c2 * c2 - 12 * c3 * c1
    breaks = [-bound, bound]
    if disc > 0:
        w = isqrt(disc)
        for pm in (w, -w):
            # floor of (-2*c2 + pm) / (6*c3), exactly
            numer, denom = -2 * c2 + pm, 6 * c3
            if denom < 0:
                numer, denom = -numer, -denom
            breaks.append(numer // denom)
            breaks.append(numer // denom + 1)
    breaks = sorted({b for b in breaks if -bound <= b <= bound})
    roots = set()
    for lo, hi in zip(breaks, breaks[1:]):
        roots.update(_bisect_int_roots(f, lo, hi))
    return sorted(roots)
