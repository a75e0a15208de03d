"""Test-only helpers shared by several test modules."""

from dataclasses import dataclass

from lucasaps.apsearch import APFamily, APTriple, canonical_indices, is_ap
from lucasaps.core import Kind, SeqParams, Surd, linear_terms, roots_of, terms
from lucasaps.poly import integer_roots, p_eval, trim
from lucasaps.smallcase import BFamilySolution, DomainFilter, SporadicSolution
from lucasaps.special import _SHAPE_COEFFICIENTS, TrinomialSpec
from lucasaps.tables import load_table_entries


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
