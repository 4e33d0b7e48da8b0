"""Cross-module behaviour in two and three variables.

Most reference numerics are univariate; these tests pin the multivariate
semantics: graded restrictions, the inverse recursion with polynomial
coefficients, convolution exponentials, preserver checks, and the
two-variable generator constructions.
"""

import math
import random

import numpy as np
import pytest
from scipy.linalg import expm

from pospres.polyalg import BasisMap, Poly, iter_multiindices
from pospres.diffop import (
    DiffOp,
    apply,
    build_substitution_preserver,
    canonical_from_action,
    compose,
    exp_op,
    invert,
    log_op,
    matrix_rep,
)
from pospres.momseq import (
    DiscreteMeasure,
    conv_exp,
    convolve,
    dop_from_seq,
    from_measure,
    moment_matrix,
    is_psd,
)
from pospres.preserver import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    KDescriptor,
    check_preserver_rn,
    falsify_on_grid,
    grid_points,
    sample_points,
    square_trials,
)
from pospres.levygen import (
    LevyField,
    LevyTriple,
    check_generator_field_sufficient,
    check_generator_rn,
    generator_from_levy,
)

X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


def rand_graded_op(rng, n=2, order=2):
    """Random degree-preserving operator with q_0 bounded away from zero."""
    coeffs = {}
    for alpha in iter_multiindices(n, order):
        deg_bound = sum(alpha)
        terms = {}
        for e in iter_multiindices(n, deg_bound):
            if rng.random() < 0.5:
                terms[e] = rng.uniform(-0.6, 0.6)
        q = Poly(n, terms)
        if not q.is_zero():
            coeffs[alpha] = q
    coeffs[(0,) * n] = Poly.constant(n, rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0))
    return DiffOp(n, coeffs)


# ---------------------------------------------------------------------------
# operator algebra in two variables
# ---------------------------------------------------------------------------

def test_mixed_partial_flow_is_two_dim_shift():
    # exp(c1 d1 + c2 d2) shifts both coordinates
    c = (0.8, -0.3)
    A = DiffOp(2, {(1, 0): c[0], (0, 1): c[1]})
    T = exp_op(A, 1.0, 3)
    p = X1 ** 2 * X2 - 2.0 * X2
    got = apply(T, p)
    want = p.taylor_shift(c)
    for alpha in iter_multiindices(2, 3):
        assert got.coeff(alpha) == pytest.approx(want.coeff(alpha), rel=1e-11, abs=1e-11)


def test_canonical_round_trip_random_two_vars():
    rng = random.Random(1234)
    for _ in range(10):
        T = rand_graded_op(rng)
        M = matrix_rep(T, 3)
        R = canonical_from_action(M)
        assert np.allclose(matrix_rep(R, 3).entries, M.entries, atol=1e-11)


def test_invert_random_two_vars_matches_matrix_inverse():
    rng = random.Random(777)
    tried = 0
    for _ in range(12):
        T = rand_graded_op(rng)
        M = matrix_rep(T, 3).entries
        if abs(np.linalg.det(M)) < 1e-6:
            continue
        tried += 1
        B = invert(T, 3)
        assert np.allclose(matrix_rep(B, 3).entries, np.linalg.inv(M), atol=1e-9)
        assert np.allclose(matrix_rep(compose(T, B, 3), 3).entries,
                           np.eye(BasisMap(2, 3).dim), atol=1e-9)
    assert tried >= 8


def test_exp_log_round_trip_two_vars():
    A = DiffOp(2, {(0, 0): 0.2, (2, 0): 0.5, (0, 2): 0.25, (1, 1): 0.1})
    T = exp_op(A, 1.0, 4)
    vals = {a: T.coefficient(a).coeff((0, 0)) for a in iter_multiindices(2, 4)}
    T_const = DiffOp.from_constant_table(vals, 2, max_order=4)
    L = log_op(T_const, 4)
    for alpha in iter_multiindices(2, 4):
        want = A.coefficient(alpha).coeff((0, 0))
        assert L.coefficient(alpha).coeff((0, 0)) == pytest.approx(want, abs=1e-10)


def test_euler_operator_two_vars_diagonal():
    # x1 d1 + 2 x2 d2 scales monomials by a1 + 2 a2
    A = DiffOp(2, {(1, 0): X1, (0, 1): 2.0 * X2})
    M = matrix_rep(A, 3)
    for j, alpha in enumerate(M.basis.indices):
        col = M.entries[:, j]
        assert col[j] == pytest.approx(alpha[0] + 2.0 * alpha[1])
        assert np.sum(np.abs(col)) == pytest.approx(abs(col[j]))


# ---------------------------------------------------------------------------
# moment algebra in two variables
# ---------------------------------------------------------------------------

def test_convolution_two_vars_measure_oracle():
    rng = random.Random(99)
    from pospres.momseq import convolve_measures
    for _ in range(5):
        mu = DiscreteMeasure([((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                               rng.uniform(0.3, 1.0)) for _ in range(3)])
        nu = DiscreteMeasure([((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                               rng.uniform(0.3, 1.0)) for _ in range(2)])
        lhs = convolve(from_measure(mu, 4), from_measure(nu, 4))
        rhs = from_measure(convolve_measures(mu, nu), 4)
        for alpha in iter_multiindices(2, 4):
            assert lhs.value(alpha) == pytest.approx(rhs.value(alpha), rel=1e-11, abs=1e-11)


def test_conv_exp_two_vars_against_operator_route():
    mu = DiscreteMeasure([((0.5, -0.5), 1.0), ((-0.25, 1.0), 0.5)])
    s = from_measure(mu, 4)
    t = 0.8
    M = matrix_rep(dop_from_seq(s), 4)
    # s_alpha = (exp(tA) x^alpha)(0), the constant row of the matrix exponential
    E = expm(t * M.entries)
    series = conv_exp(s, t)
    for alpha in iter_multiindices(2, 4):
        op_val = E[0, M.basis.index_of(alpha)]
        assert op_val == pytest.approx(series.value(alpha), rel=1e-11, abs=1e-11)


def test_moment_matrix_two_vars_psd():
    rng = random.Random(31)
    for _ in range(10):
        mu = DiscreteMeasure([((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                               rng.uniform(0.2, 1.0)) for _ in range(4)])
        s = from_measure(mu, 4)
        ok, lam = is_psd(moment_matrix(s, 2))
        assert ok, (mu.atoms, lam)


# ---------------------------------------------------------------------------
# preserver checks in two variables
# ---------------------------------------------------------------------------

YS2 = sample_points([(-2.0, 2.0), (-2.0, 2.0)], per_axis=5)


def test_two_dim_shift_mixture_passes():
    mu = DiscreteMeasure([((0.5, -1.0), 1.0), ((1.0, 1.0), 0.5)])
    D = dop_from_seq(from_measure(mu, 4))
    assert check_preserver_rn(D, 2, YS2).status == PASS


def test_two_dim_substitution_preserver():
    # q_alpha = p^alpha s_alpha/alpha! with p = (x1, x1 x2) acts as
    # f |-> f(x1 + u p1, x2 + u p2)-mixture; certified on the full space
    s = from_measure(DiscreteMeasure.dirac((1.0, 1.0)), 4)
    T = build_substitution_preserver([X1, X1 * X2], s, 4)
    v = check_preserver_rn(T, 2, YS2)
    assert v.status == PASS
    # pointwise action: (T f)(y) = f(y + p(y))
    f = X1 * X2 - 2.0 * X1
    img = apply(T, f)
    for y in [(0.5, -1.0), (1.5, 2.0), (-0.7, 0.3)]:
        target = f.eval((y[0] + y[0], y[1] + y[0] * y[1]))
        assert img.eval(y) == pytest.approx(target, rel=1e-10, abs=1e-10)


def test_two_dim_backwards_heat_fails():
    A = DiffOp(2, {(2, 0): -0.5, (0, 2): -0.5})
    T = exp_op(A, 0.5, 4)
    v = check_preserver_rn(T, 2, [(0.0, 0.0)])
    assert v.status == FAIL


def test_two_dim_grid_falsifier():
    A = DiffOp(2, {(2, 0): -0.5})
    T = exp_op(A, 0.5, 2)
    K = KDescriptor.full(2)
    grid = grid_points(K, -3.0, 3.0, 21)
    trials = square_trials(2, [-1.0, 0.0, 1.0])
    v = falsify_on_grid(T, K, trials, grid)
    assert v.status == FAIL
    w = v.witnesses[0]
    assert apply(T, w.trial).eval(w.point) < 0


def test_grid_points_default_caps_higher_dimensions():
    assert len(grid_points(KDescriptor.full(1))) == 2001
    assert len(grid_points(KDescriptor.full(2))) == 41 * 41


# ---------------------------------------------------------------------------
# generators in two variables
# ---------------------------------------------------------------------------

def test_two_dim_levy_generator_coefficients():
    sigma = [[1.0, 0.5], [0.5, 2.0]]
    nu = DiscreteMeasure([((1.0, 1.0), 0.5)])
    tr = LevyTriple(0.1, sigma, [0.25, -0.5], nu, order=4)
    A = generator_from_levy(tr, 4)
    assert A.coefficient((0, 0)).coeff((0, 0)) == pytest.approx(0.1)
    # drift picks up the far atom (norm sqrt(2) >= 1)
    assert A.coefficient((1, 0)).coeff((0, 0)) == pytest.approx(0.25 + 0.5)
    assert A.coefficient((0, 1)).coeff((0, 0)) == pytest.approx(-0.5 + 0.5)
    # second order: sigma + nu moments, divided by alpha!
    assert A.coefficient((2, 0)).coeff((0, 0)) == pytest.approx((1.0 + 0.5) / 2)
    assert A.coefficient((1, 1)).coeff((0, 0)) == pytest.approx(0.5 + 0.5)
    assert A.coefficient((0, 2)).coeff((0, 0)) == pytest.approx((2.0 + 0.5) / 2)
    # order three are pure jump moments
    assert A.coefficient((2, 1)).coeff((0, 0)) == pytest.approx(0.5 / 2)


def test_two_dim_levy_generator_passes_sampling():
    tr = LevyTriple(0.0, [[1.0, 0.3], [0.3, 1.0]], [0.0, 0.0],
                    DiscreteMeasure([((0.5, 0.5), 0.25)]), order=4)
    A = generator_from_levy(tr, 4)
    v = check_generator_rn(A, 2, [(0.0, 0.0)], [0.1, 1.0])
    assert v.status == INCONCLUSIVE


def test_field_sufficient_with_jump_polynomials():
    # nu_y = delta_{(y1, y2)}-style jumps supplied as polynomial coefficient
    # contributions for the assembled operator
    extra = {
        (1, 0): Poly.zero(2),
        (2, 0): X1 * X1,      # integral of u1^2 against nu_y
        (0, 2): X2 * X2,
        (1, 1): X1 * X2,
    }
    F = LevyField(
        0.0,
        ((Poly.constant(2, 1.0), Poly.zero(2)),
         (Poly.zero(2), Poly.constant(2, 1.0))),
        (Poly.zero(2), Poly.zero(2)),
        nu_field=lambda y: DiscreteMeasure([((y[0], y[1]), 1.0)])
        if (y[0], y[1]) != (0.0, 0.0) else None,
        nu_coeff_polys=extra,
    )
    verdict, A = check_generator_field_sufficient(F, YS2, 4)
    assert verdict.status == PASS
    # q_{(2,0)} = (sigma_11 + nu moment)/2 = (1 + x1^2)/2
    q20 = A.coefficient((2, 0))
    assert q20.coeff((0, 0)) == pytest.approx(0.5)
    assert q20.coeff((2, 0)) == pytest.approx(0.5)
    assert A.coefficient((1, 1)).coeff((1, 1)) == pytest.approx(1.0)


def test_three_vars_basis_and_shift():
    # quick sanity at n=3: shift flow, basis dimensions, PSD moments
    c = (0.5, -0.5, 1.0)
    A = DiffOp(3, {(1, 0, 0): c[0], (0, 1, 0): c[1], (0, 0, 1): c[2]})
    T = exp_op(A, 1.0, 2)
    p = Poly.variable(3, 0) * Poly.variable(3, 2)
    got = apply(T, p)
    want = p.taylor_shift(c)
    for alpha in iter_multiindices(3, 2):
        assert got.coeff(alpha) == pytest.approx(want.coeff(alpha), rel=1e-11, abs=1e-12)
    s = from_measure(DiscreteMeasure.dirac(c), 4)
    assert is_psd(moment_matrix(s, 2))[0]
