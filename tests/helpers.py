"""Test-only helpers shared by several test modules."""

from lucasaps.apsearch import APFamily, APTriple, canonical_indices, is_ap
from lucasaps.core import Kind, SeqParams, terms
from lucasaps.special import _SHAPE_COEFFICIENTS, TrinomialSpec
from lucasaps.tables import load_table_entries


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


def trinomial_coefficients(spec: TrinomialSpec) -> list:
    """Dense coefficients of the trinomial, index = degree."""
    c = [0] * (spec.a + 1)
    c[spec.a], c[spec.b], c[0] = _SHAPE_COEFFICIENTS[spec.shape]
    return c
