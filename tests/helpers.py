"""Test-only helpers shared by several test modules."""

from lucasaps.apsearch import APFamily, APTriple, canonical_indices, is_ap
from lucasaps.core import Kind, SeqParams, terms


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
