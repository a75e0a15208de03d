"""Parameter validation, exact surd arithmetic, and term generation."""

import ast
import dataclasses
import gc
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import Surd, closed_form_check, dominant_root, roots_of, surd_cmp_abs, term
import lucasaps
from lucasaps import certify
from lucasaps.apsearch import APFamily, APTriple, detect_families, find_aps, verify_family
from lucasaps.certify import Gap
from lucasaps.core import (
    Classification,
    DegenerateError,
    EngineMismatchError,
    Kind,
    ZeroCoefficientError,
    classify,
    degeneracy_order,
    linear_terms,
    new_params,
    terms,
)
from lucasaps.poly import divisors


def valid_pairs(max_abs=12):
    return [
        (a, b)
        for a in range(-max_abs, max_abs + 1)
        for b in range(-max_abs, max_abs + 1)
        if a and b and degeneracy_order(a, b) is None
    ]


pair_strategy = st.sampled_from(valid_pairs())


def conjugate(s: Surd) -> Surd:
    return Surd(s.p, -s.q, s.d)


class TestNewParams:
    def test_table_pair(self):
        p = new_params(1, 1)
        assert p.D == 5

    def test_discriminant_is_derived(self):
        for A, B in valid_pairs(6):
            assert new_params(A, B).D == A * A + 4 * B
        # replace builds from (A, B) alone, so D follows and B is re-validated
        p = dataclasses.replace(new_params(1, 1), B=3)
        assert (p.A, p.B, p.D) == (1, 3, 13)
        with pytest.raises(DegenerateError):
            dataclasses.replace(new_params(1, 1), B=-1)

    def test_degenerate_order_three(self):
        with pytest.raises(DegenerateError) as exc:
            new_params(1, -1)
        assert exc.value.order == 3

    def test_zero_coefficient(self):
        with pytest.raises(ZeroCoefficientError):
            new_params(0, 5)
        with pytest.raises(ZeroCoefficientError):
            new_params(3, 0)

    def test_degenerate_order_four(self):
        with pytest.raises(DegenerateError) as exc:
            new_params(2, -2)
        assert exc.value.order == 4

    def test_degeneracy_oracle_equivalence(self):
        # closed predicate A^2 in {-B,...,-4B} versus the root-power oracle
        for A in range(-30, 31):
            for B in range(-30, 31):
                if A == 0 or B == 0:
                    continue
                a, b = roots_of(A, B)
                pa, pb = a, b
                oracle = False
                for _ in range(6):
                    if (pa - pb).is_zero():
                        oracle = True
                        break
                    pa, pb = pa * a, pb * b
                assert oracle == (degeneracy_order(A, B) is not None), (A, B)


class TestClassify:
    def test_real_dominant(self):
        assert classify(new_params(1, 1)) is Classification.REAL_DOMINANT

    def test_complex(self):
        assert classify(new_params(-1, -2)) is Classification.COMPLEX_CONJUGATE

    def test_zero_discriminant_unreachable(self):
        # A^2 = -4B is degenerate, so classify never sees D = 0
        with pytest.raises(DegenerateError):
            new_params(2, -1)


class TestTerms:
    def test_fibonacci(self):
        p = new_params(1, 1)
        assert term(p, Kind.FIRST, 7) == 13
        assert terms(p, Kind.FIRST, 8) == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_second_kind_example(self):
        p = new_params(1, 3)
        assert terms(p, Kind.SECOND, 6) == [2, 1, 7, 10, 31, 61]

    def test_negative_pair(self):
        p = new_params(-1, -2)
        assert term(p, Kind.FIRST, 6) == -5

    def test_deep_index_satisfies_recurrence(self):
        p = new_params(3, 2)
        term(p, Kind.FIRST, 250)
        assert term(p, Kind.FIRST, 249) == 3 * term(p, Kind.FIRST, 248) + 2 * term(
            p, Kind.FIRST, 247
        )

    def test_custom_initials(self):
        assert linear_terms(1, -2, 1, 1, 5) == [1, 1, -1, -3, -1]

    def test_linear_terms_matches_growing_list_oracle(self, rng):
        def oracle(A, B, x0, x1, count):
            out = [x0, x1]
            while len(out) < count:
                out.append(A * out[-1] + B * out[-2])
            return out[:count]

        starts = [(0, 0, 0, 0), (0, 1, 0, 1), (1, -2, 1, 1), (-3, 0, 2, -5)]
        starts += [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(40)]
        for A, B, x0, x1 in starts:
            for count in range(-2, 61):
                args = (A, B, x0, x1, count)
                assert linear_terms(*args) == oracle(*args), args

    def test_terms_is_the_one_recurrence(self):
        for a, b in valid_pairs(6):
            p = new_params(a, b)
            for kind in Kind:
                ts = terms(p, kind, 30)
                assert ts == linear_terms(a, b, *kind.initial_values(a), 30)
                assert all(term(p, kind, n) == terms(p, kind, n + 1)[n] for n in range(30))
        for count in (-3, 0):
            assert terms(new_params(1, 1), Kind.FIRST, count) == []
        assert terms(new_params(1, 1), Kind.SECOND, 1) == [2]
        with pytest.raises(ValueError):
            term(new_params(1, 1), Kind.FIRST, -1)

    def test_returned_list_is_fresh(self):
        p = new_params(2, 3)
        ts = terms(p, Kind.FIRST, 10)
        ts[3] = -1
        ts.append(0)
        del ts[:2]
        assert terms(p, Kind.FIRST, 10) == [0, 1, 2, 7, 20, 61, 182, 547, 1640, 4921]
        assert term(p, Kind.FIRST, 3) == 7

    def test_no_terms_retained_across_calls(self):
        # No process-wide memo: a scan keeps no terms alive.  Counting live
        # allocator blocks is cheap, where tracemalloc would slow the scan
        # fivefold; a memo of these terms would hold some 70 000 blocks.
        grid = [new_params(a, b) for a, b in valid_pairs(10)]
        gc.collect()
        before = sys.getallocatedblocks()
        for p in grid:
            for kind in Kind:
                find_aps(p, kind, 100)
        gc.collect()
        assert sys.getallocatedblocks() - before < 1000


class TestSurd:
    def test_alpha_beta_basic_identities(self):
        for a, b in valid_pairs(8):
            p = new_params(a, b)
            al, be = roots_of(p.A, p.B)
            assert al + be == Surd.integer(a, p.D)
            assert al * be == Surd.integer(-b, p.D)

    def test_alpha_beta_examples(self):
        p = new_params(2, 1)
        al, be = roots_of(p.A, p.B)
        assert (al.p, al.q, al.d) == (2, 1, 8)  # 1 + sqrt(2)
        assert (be.p, be.q) == (2, -1)
        p2 = new_params(-1, -2)
        al2, _ = roots_of(p2.A, p2.B)
        assert (al2.p, al2.q, al2.d) == (-1, 1, -7)

    def test_square_discriminant_normalizes(self):
        p = new_params(1, 2)  # D = 9
        al, be = roots_of(p.A, p.B)
        assert al.as_integer() == 2
        assert be.as_integer() == -1

    @given(pair_strategy, st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-9, 9))
    def test_norm_multiplicative(self, pair, x1, y1, x2, y2):
        d = pair[0] ** 2 + 4 * pair[1]
        # p = q*d + 2x keeps the parity invariant for any x, q
        s1 = Surd(y1 * d + 2 * x1, y1, d)
        s2 = Surd(y2 * d + 2 * x2, y2, d)
        assert (s1 * s2).norm() == s1.norm() * s2.norm()

    def test_sign_with_square_discriminant(self):
        assert Surd(-6, 2, 9).is_zero()  # (-6 + 2*3)/2
        assert Surd(-4, 2, 9).sign() == 1

    def test_cmp_abs_examples(self):
        one_plus = Surd(2, 1, 8)
        one_minus = Surd(2, -1, 8)
        assert surd_cmp_abs(one_plus, one_minus) == 1
        p = new_params(-1, -2)
        al, be = roots_of(p.A, p.B)
        assert surd_cmp_abs(al, be) == 0
        margin = Surd(8, 3, 8)  # 4 + 3*sqrt(2)
        four = Surd.integer(4, 8)
        assert surd_cmp_abs(margin, four) == 1

    def test_cmp_abs_matches_numeric(self, rng):
        import mpmath

        mpmath.mp.dps = 60
        for _ in range(1000):
            d = rng.choice([5, 8, 12, 13, 9, 16, -7, -4, -11])
            q1 = rng.randint(-20, 20)
            q2 = rng.randint(-20, 20)
            s1 = Surd(2 * rng.randint(-40, 40) + q1 * d, q1, d)
            s2 = Surd(2 * rng.randint(-40, 40) + q2 * d, q2, d)
            if d > 0:
                n1 = abs(mpmath.mpf(s1.p) / 2 + mpmath.mpf(s1.q) / 2 * mpmath.sqrt(d))
                n2 = abs(mpmath.mpf(s2.p) / 2 + mpmath.mpf(s2.q) / 2 * mpmath.sqrt(d))
            else:
                n1 = abs(mpmath.mpc(s1.p, s1.q * mpmath.sqrt(-d)) / 2)
                n2 = abs(mpmath.mpc(s2.p, s2.q * mpmath.sqrt(-d)) / 2)
            exact = surd_cmp_abs(s1, s2)
            if abs(n1 - n2) > mpmath.mpf("1e-30"):
                assert exact == (1 if n1 > n2 else -1)
            else:
                assert exact == 0

    @pytest.mark.parametrize("d", [-3, -4, -7, -8, -11, -15, -20])
    def test_cmp_abs_matches_norm_comparison(self, d):
        # for d < 0, |x|^2 is the norm (p^2 - q^2 d)/4, whose /4 cancels
        grid = [Surd(q * d + 2 * x, q, d) for x in range(-5, 6) for q in range(-5, 6)]
        norms = [s.norm() for s in grid]
        assert all(isinstance(n, Fraction) for n in norms)
        for s1, n1 in zip(grid, norms):
            for s2, n2 in zip(grid, norms):
                assert surd_cmp_abs(s1, s2) == (n1 > n2) - (n1 < n2), (s1, s2)

    def test_pow_and_conjugate(self):
        al, be = roots_of(1, 1)
        assert conjugate(al) == be
        assert al ** 3 == al * al * al
        assert al ** 0 == Surd.integer(1, 5)

    @pytest.mark.parametrize("d", [0, -3, -4, -7, 4, 5, 8, 9, 12])
    def test_pow_matches_repeated_product(self, d):
        for x, q in ((0, 1), (1, 1), (-2, 1), (1, -3), (2, 0), (-1, 0)):
            s = Surd(q * d + 2 * x, q, d)
            product = Surd.integer(1, d)
            for n in range(71):
                assert s ** n == product, (s, n)
                product = product * s

    def test_pow_raises_as_the_first_bad_product(self):
        # for d = 3 (mod 4) the values (p + q*sqrt(d))/2 with p, q odd are no
        # ring: x*x breaks the parity invariant, and so must every x**n, n >= 2,
        # with the same error, even where a later step would fail differently
        for s in (Surd(1, 1, 3), Surd(-1, 3, 7), Surd(3, -1, -5)):
            assert s ** 0 == Surd.integer(1, s.d)
            assert s ** 1 == s
            with pytest.raises(ValueError) as square:
                s * s
            for n in range(2, 9):
                with pytest.raises(ValueError, match=re.escape(str(square.value))):
                    s ** n

    @given(st.sampled_from([5, 8, -7, 9, 12]), st.integers(-8, 8),
           st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
           st.integers(-8, 8), st.integers(-8, 8))
    def test_ring_laws(self, d, x1, q1, x2, q2, x3, q3):
        s1 = Surd(q1 * d + 2 * x1, q1, d)
        s2 = Surd(q2 * d + 2 * x2, q2, d)
        s3 = Surd(q3 * d + 2 * x3, q3, d)
        assert (s1 + s2) * s3 == s1 * s3 + s2 * s3
        assert (s1 * s2) * s3 == s1 * (s2 * s3)
        assert conjugate(s1 * s2) == conjugate(s1) * conjugate(s2)


class TestClosedForm:
    @pytest.mark.parametrize(
        "pair,kind,n_max",
        [
            ((1, 1), Kind.FIRST, 50),
            ((-3, -1), Kind.SECOND, 50),
            ((6, -2), Kind.FIRST, 100),
            ((1, 2), Kind.SECOND, 60),
        ],
    )
    def test_examples(self, pair, kind, n_max):
        rep = closed_form_check(new_params(*pair), kind, n_max)
        assert rep.ok and rep.checked == n_max + 1

    def test_recurrence_equals_closed_form_to_200(self):
        for pair in [(1, 1), (-2, 3), (5, -5), (1, -3), (-1, -2)]:
            for kind in Kind:
                assert closed_form_check(new_params(*pair), kind, 200).ok


class TestDominantRoot:
    def test_orders_by_modulus(self):
        for a, b in valid_pairs(8):
            p = new_params(a, b)
            if p.D <= 0:
                continue
            g, d = dominant_root(p)
            assert surd_cmp_abs(g, d) == 1

    def test_rejects_complex(self):
        with pytest.raises(ValueError):
            dominant_root(new_params(-1, -2))


# Definitions in src/ that no line of src/ calls: argparse calls _Parser.error,
# perfbench and scripts/reproduce_results.py call certificate_from_json, and
# perfbench/layertrace.py wraps load_table_entries, which leaves src/ with
# the next benchmark change (ROADMAP item 16).
CALLED_FROM_OUTSIDE_SRC = {
    "cli._Parser.error", "certify.certificate_from_json", "tables.load_table_entries",
}


def _names(node) -> Counter:
    """How often each Name and each attribute occurs under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


class TestEngineChecks:
    def test_no_assert_in_src(self):
        # cross-checks raise EngineMismatchError, so they survive python -O
        sources = sorted(Path(lucasaps.__file__).parent.glob("*.py"))
        assert len(sources) >= 9
        for path in sources:
            tree = ast.parse(path.read_text(), str(path))
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert lines == [], (path.name, lines)

    def test_mismatch_error_lives_in_core(self):
        assert certify.EngineMismatchError is EngineMismatchError

    def test_every_definition_in_src_is_referenced(self):
        # a function or method no line of src/ names, outside its own body, is
        # dead code; names are matched by spelling, as a Name or an attribute
        trees = {path.stem: ast.parse(path.read_text(), str(path))
                 for path in sorted(Path(lucasaps.__file__).parent.glob("*.py"))}
        total = sum((_names(tree) for tree in trees.values()), Counter())
        unreferenced = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if total[child.name] == _names(child)[child.name]:
                        unreferenced.append((prefix + child.name, child.name))
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        for module, tree in trees.items():
            visit(tree, f"{module}.")
        dead = [
            where for where, name in unreferenced
            if not (name.startswith("__") and name.endswith("__"))
            and name not in lucasaps.__all__ and where not in CALLED_FROM_OUTSIDE_SRC
        ]
        assert dead == []


# Each public-input guard of the library and the exception it documents.
INPUT_GUARDS = {
    "aptriple-repeated-index": (lambda: APTriple(1, 1, 2, (1, 2, 3)), "indices must be distinct"),
    "instantiate-below-t-min": (
        lambda: APFamily((0, 1), (1, 1), (2, 1), 2).instantiate(1), "below t_min"
    ),
    "detect-families-e-max": (
        lambda: detect_families(new_params(1, 1), Kind.FIRST, 2), "at least 3"
    ),
    "verify-family-negative-index": (
        lambda: verify_family(APFamily((-1, 1), (0, 1), (1, 1)), new_params(1, 1), Kind.FIRST),
        "negative index",
    ),
    "gap-below-one": (lambda: Gap(False, 0), "at least 1"),
    "surd-parity": (lambda: Surd(1, 0, 5), "parity"),
    "surd-mixed-discriminants": (
        lambda: Surd.integer(1, 5) + Surd.integer(1, 8), "mixed discriminants"
    ),
    "surd-negative-power": (lambda: Surd.integer(2, 5) ** -1, "negative powers"),
    "surd-pow-parity": (lambda: Surd(1, 1, 3) ** 2, "parity invariant"),
    "surd-as-integer": (lambda: Surd(2, 2, 5).as_integer(), "not a rational integer"),
    "surd-complex-sign": (lambda: Surd.integer(1, -3).sign(), "sign of a complex surd"),
    "surd-complex-abs": (lambda: abs(Surd.integer(1, -3)), "use norm"),
    # complex operands, so only this guard can raise: the real branch would
    # reach the mixed-discriminant check of the subtraction
    "cmp-abs-mixed-discriminants": (
        lambda: surd_cmp_abs(Surd.integer(1, -3), Surd.integer(1, -7)), "mixed discriminants"
    ),
    "divisors-of-zero": (lambda: divisors(0), "zero has no divisor list"),
}


class TestInputGuards:
    @pytest.mark.parametrize("guard", sorted(INPUT_GUARDS))
    def test_documented_exception(self, guard):
        call, message = INPUT_GUARDS[guard]
        with pytest.raises(ValueError, match=message):
            call()
