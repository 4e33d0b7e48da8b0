import math
import random

import pytest

from pospres.polyalg import (
    BasisMap,
    DimensionMismatchError,
    Poly,
    format_poly,
    iter_multiindices,
    mi_binom,
    mi_factorial,
    parse_poly,
)


def random_poly(rng, n=1, max_deg=6, terms=5):
    out = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(0, max_deg // n) for _ in range(n))
        out[alpha] = rng.uniform(-3, 3)
    return Poly(n, out)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_direct_substitution():
    p = parse_poly("1 + x1^2", 1)
    assert p.eval((2.0,)) == 5.0


def test_eval_zero_poly():
    assert Poly.zero(3).eval((1.0, 2.0, 3.0)) == 0.0


def test_eval_root_of_quadratic():
    p = parse_poly("x1^2 - 1", 1)
    assert p.eval((1.0,)) == 0.0


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse_poly("x1", 1).eval((1.0, 2.0))


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def test_derive_power_rule():
    x = Poly.variable(1, 0)
    assert (x ** 4).derive((2,)) == Poly(1, {(2,): 12.0})


def test_derive_mixed_partial():
    p = Poly(2, {(1, 1): 1.0})
    assert p.derive((1, 1)) == Poly.constant(2, 1.0)


def test_derive_order_exceeds_degree():
    x = Poly.variable(1, 0)
    assert (x ** 2).derive((3,)).is_zero()


def test_partials_commute():
    rng = random.Random(101)
    for _ in range(25):
        p = random_poly(rng, n=2, max_deg=8, terms=6)
        a, b = (1, 0), (0, 2)
        ab = p.derive(a).derive(b)
        combined = p.derive((1, 2))
        assert ab == combined  # coefficient-exact


# ---------------------------------------------------------------------------
# taylor_shift
# ---------------------------------------------------------------------------

def test_taylor_shift_univariate():
    x = Poly.variable(1, 0)
    assert (x ** 2).taylor_shift((1.0,)) == Poly(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})


def test_taylor_shift_identity():
    rng = random.Random(7)
    p = random_poly(rng, n=2, max_deg=4, terms=4)
    assert p.taylor_shift((0.0, 0.0)) == p


def test_taylor_shift_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        p = random_poly(rng, n=1, max_deg=6, terms=5)
        c = rng.uniform(-2, 2)
        back = p.taylor_shift((c,)).taylor_shift((-c,))
        for alpha in set(p.terms) | set(back.terms):
            assert back.coeff(alpha) == pytest.approx(p.coeff(alpha), abs=1e-12)


def test_taylor_shift_matches_eval():
    rng = random.Random(23)
    for _ in range(20):
        p = random_poly(rng, n=2, max_deg=5, terms=5)
        c = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        shifted = p.taylor_shift(c)
        direct = p.eval((y[0] + c[0], y[1] + c[1]))
        assert shifted.eval(y) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_taylor_shift_equals_derivative_expansion():
    # q(x) = sum_alpha d^alpha p(c)/alpha! x^alpha
    rng = random.Random(31)
    p = random_poly(rng, n=1, max_deg=5, terms=4)
    c = 0.8
    shifted = p.taylor_shift((c,))
    for k in range(6):
        expected = p.derive((k,)).eval((c,)) / math.factorial(k)
        assert shifted.coeff((k,)) == pytest.approx(expected, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# BasisMap
# ---------------------------------------------------------------------------

def test_basis_univariate_order():
    b = BasisMap(1, 4)
    assert b.indices == ((0,), (1,), (2,), (3,), (4,))
    assert b.index_of((3,)) == 3


def test_basis_dim_small():
    assert BasisMap(2, 2).dim == 6


def test_basis_dim_binomial_oracle():
    for n, d in [(1, 4), (2, 3), (3, 5), (4, 2)]:
        assert BasisMap(n, d).dim == math.comb(n + d, d)


def test_basis_round_trip():
    b = BasisMap(3, 4)
    for alpha in iter_multiindices(3, 4):
        assert b.multiindex_at(b.index_of(alpha)) == alpha


def test_basis_constant_first_and_graded():
    b = BasisMap(2, 3)
    assert b.index_of((0, 0)) == 0
    degs = [sum(a) for a in b.indices]
    assert degs == sorted(degs)


def test_basis_out_of_range():
    b = BasisMap(1, 2)
    with pytest.raises(IndexError):
        b.index_of((3,))
    with pytest.raises(IndexError):
        b.multiindex_at(99)


def test_poly_vec_round_trip():
    rng = random.Random(3)
    b = BasisMap(2, 4)
    p = random_poly(rng, n=2, max_deg=4, terms=6)
    assert b.vec_to_poly(b.poly_to_vec(p)) == p


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

def test_multiindex_combinatorics():
    assert mi_factorial((2, 3)) == 12
    assert mi_binom((3, 2), (1, 1)) == 6


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_example_from_grammar():
    p = parse_poly("2.5 * x1^2 x2 - 1")
    assert p.n == 2
    assert p.coeff((2, 1)) == 2.5
    assert p.coeff((0, 0)) == -1.0


def test_parse_bare_constant():
    assert parse_poly("-3.5", 1) == Poly.constant(1, -3.5)


def test_parse_omitted_exponent_and_star():
    assert parse_poly("x1 x2^2", 2) == parse_poly("1 * x1^1 x2^2", 2)
    assert parse_poly("2*x1", 1) == parse_poly("2 x1", 1)


def test_parse_scientific_coefficients():
    p = parse_poly("1e-3 * x1 + 2.5e2", 1)
    assert p.coeff((1,)) == 1e-3
    assert p.coeff((0,)) == 250.0


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        p = random_poly(rng, n=2, max_deg=5, terms=5)
        assert parse_poly(format_poly(p), 2) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("2.5 * y^2", 1)
    with pytest.raises(DimensionMismatchError):
        parse_poly("x3", 2)


@pytest.mark.parametrize("text", ["x1 +", "x1 - ", "1 +* x1", "2 * * x1", "2 *", "x1 + - 1", "-"])
def test_parse_rejects_dangling_sign_or_star(text):
    with pytest.raises(ValueError):
        parse_poly(text, 1)


def test_zero_coefficients_pruned():
    p = Poly(1, {(0,): 0.0, (2,): 1.0})
    assert (0,) not in p.terms
    q = p - Poly(1, {(2,): 1.0})
    assert q.is_zero() and q.degree == -math.inf
