import math
import random

import numpy as np
import pytest
from scipy.linalg import expm

from pospres.polyalg import DimensionMismatchError, Poly
from pospres.diffop import DiffOp, apply, exp_op, matrix_rep
from pospres.momseq import DiscreteMeasure, MomentSeq, dop_from_seq, from_measure
from pospres.preserver import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    KDescriptor,
    check_preserver_halfline,
    chebyshev_points,
    falsify_on_grid,
    halfline_trials,
    square_trials,
)
from pospres.levygen import (
    LevyField,
    LevyTriple,
    check_finite_order_generator,
    check_generator_field_sufficient,
    check_generator_rn,
    format_levy_triple,
    generator_from_levy,
    generator_from_levy_halfline,
    one_plus_check,
    parse_levy_triple,
    resolvent_check,
    semigroup_moments,
)

X = Poly.variable(1, 0)
GRID = [(g,) for g in np.linspace(-10.0, 10.0, 2001)]


def coeff_values(T, order):
    return [T.coefficient((k,)).coeff((0,)) for k in range(order + 1)]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_levy_zero_triple_gives_zero_operator():
    A = generator_from_levy(LevyTriple(0.0, [[0.0]], [0.0]), 4)
    assert A.order == -1


def test_levy_pure_diffusion_is_half_laplacian():
    A = generator_from_levy(LevyTriple(0.0, [[1.0]], [0.0]), 4)
    assert coeff_values(A, 4) == pytest.approx([0.0, 0.0, 0.5, 0.0, 0.0])


def test_levy_far_jump_feeds_drift_and_tail():
    # nu = delta_2 with ||x|| >= 1: a_1 = 2, a_k = 2^k
    tr = LevyTriple(0.0, [[0.0]], [0.0], DiscreteMeasure.dirac((2.0,)), order=6)
    A = generator_from_levy(tr, 6)
    for k in range(1, 7):
        assert A.coefficient((k,)).coeff((0,)) * math.factorial(k) == pytest.approx(2.0 ** k)


def test_levy_near_jump_skips_drift():
    # atom inside the unit ball contributes only to orders >= 2
    tr = LevyTriple(0.0, [[0.0]], [0.0], DiscreteMeasure.dirac((0.5,)), order=4)
    A = generator_from_levy(tr, 4)
    assert A.coefficient((1,)).is_zero()
    assert A.coefficient((2,)).coeff((0,)) * 2 == pytest.approx(0.25)


def test_levy_sigma_must_be_psd():
    with pytest.raises(ValueError):
        LevyTriple(0.0, [[-1.0]], [0.0])
    with pytest.raises(ValueError):
        LevyTriple(0.0, [[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])


@pytest.mark.parametrize("sigma, message", [
    # a max(1, max|sigma|) floor accepted both: the first as a negative diffusion
    # q_2 = -2.5e-13, the second as symmetric
    ([[-5e-13]], "positive semidefinite"),
    ([[0.0, 1e-13], [0.0, 0.0]], "symmetric"),
    ([[math.inf]], "finite"),
    ([[1.0, math.nan], [math.nan, 1.0]], "finite"),
])
def test_levy_sigma_tests_are_relative_to_its_largest_entry(sigma, message):
    with pytest.raises(ValueError, match=message):
        LevyTriple(0.0, sigma, [0.0] * len(sigma))


def test_levy_zero_sigma_is_valid():
    A = generator_from_levy(LevyTriple(0.0, [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]), 2)
    assert A.coeffs == {}


def test_levy_jump_generator_exponentiates_to_poisson():
    # A = D(moments of delta_c) - identity-part: exp(tA) is the Poisson mixture
    c, t = 2.0, 0.7
    tr = LevyTriple(0.0, [[0.0]], [0.0], DiscreteMeasure.dirac((c,)), order=6)
    A = generator_from_levy(tr, 6)
    T = exp_op(A, t, 6)
    for k in range(7):
        got = T.coefficient((k,)).coeff((0,)) * math.factorial(k)
        expected = math.exp(-t) * sum(
            t ** j / math.factorial(j) * (j * c) ** k for j in range(80))
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_halfline_pure_drift():
    A = generator_from_levy_halfline(0.0, 1.0, None, 6)
    assert coeff_values(A, 6) == pytest.approx([0, 1, 0, 0, 0, 0, 0])


def test_halfline_jump_moments():
    A = generator_from_levy_halfline(0.0, 0.0, DiscreteMeasure.dirac((2.0,)), 5)
    for k in range(1, 6):
        assert A.coefficient((k,)).coeff((0,)) * math.factorial(k) == pytest.approx(2.0 ** k)


def test_halfline_scaling_only():
    A = generator_from_levy_halfline(-3.0, 0.0, None, 5)
    assert coeff_values(A, 5) == pytest.approx([-3, 0, 0, 0, 0, 0])
    T = exp_op(A, 1.0, 5)
    assert T.coefficient((0,)).coeff((0,)) == pytest.approx(math.exp(-3.0))


def test_halfline_rejects_bad_data():
    with pytest.raises(ValueError):
        generator_from_levy_halfline(0.0, -0.5, None, 4)
    with pytest.raises(ValueError):
        generator_from_levy_halfline(0.0, 0.0, DiscreteMeasure.dirac((-1.0,)), 4)
    with pytest.raises(ValueError):
        generator_from_levy_halfline(0.0, 0.0, DiscreteMeasure.dirac((0.0,)), 4)


# ---------------------------------------------------------------------------
# semigroup moments: the two-route oracle
# ---------------------------------------------------------------------------

def test_semigroup_moments_zero_time():
    s = from_measure(DiscreteMeasure.dirac((1.5,)), 5)
    out = semigroup_moments(0.3, 2.0, s, 0.0)
    assert [out.value((k,)) for k in range(6)] == [1, 0, 0, 0, 0, 0]


def test_semigroup_moments_pure_shift():
    # s = 0 sequence, beta = 1: measure is delta_t
    s = MomentSeq(1, 5, {})
    for t in (0.25, 1.0):
        out = semigroup_moments(0.0, 1.0, s, t)
        for k in range(6):
            assert out.value((k,)) == pytest.approx(t ** k, rel=1e-12, abs=1e-12)


def test_semigroup_moments_match_operator_route():
    rng = random.Random(20240612)
    for trial in range(3):
        atoms = [((rng.uniform(-1.5, 1.5),), rng.uniform(0.2, 1.0)) for _ in range(3)]
        s = from_measure(DiscreteMeasure(atoms), 8)
        a0, beta = rng.uniform(-1, 1), rng.uniform(-1, 1)
        A = (dop_from_seq(s) + DiffOp.partial(1, (1,), beta)
             + DiffOp.from_constant_table({(0,): a0}, 1))
        M = matrix_rep(A, 8)
        for t in (0.1, 1.0):
            # s_k = (exp(tA) x^k)(0), the constant row of the matrix exponential
            E = expm(t * M.entries)
            series = semigroup_moments(a0, beta, s, t)
            for k in range(9):
                op_val = E[0, M.basis.index_of((k,))]
                assert op_val == pytest.approx(series.value((k,)), rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# generator checks
# ---------------------------------------------------------------------------

def test_heat_generator_passes_sampling():
    A = DiffOp(1, {(2,): 0.5})
    v = check_generator_rn(A, 2, [(0.0,), (1.0,)], [0.1, 1.0])
    assert v.status == INCONCLUSIVE


def test_scaling_cubed_frozen_fails():
    A = DiffOp(1, {(1,): X, (2,): 3.0 * X * X, (3,): X * X * X})
    v = check_generator_rn(A, 2, [(1.0,)], [0.005])
    assert v.status == FAIL


def test_drift_family_not_a_generator():
    A = DiffOp(1, {(1,): Poly.constant(1, 1.0), (2,): (X * X - 1.0) * 0.5})
    v = check_generator_rn(A, 1, [(0.0,)], [0.01, 0.1])
    assert v.status == FAIL  # frozen at 0 the diffusion coefficient is negative


def test_finite_order_normal_form_passes():
    A = DiffOp(1, {(1,): Poly.constant(1, 1.0), (2,): (1.0 + X * X) * 0.5})
    assert check_finite_order_generator(A, [(0.0,)]).status == INCONCLUSIVE


def test_finite_order_rejects_third_order():
    assert check_finite_order_generator(DiffOp(1, {(3,): 1.0}), [(0.0,)]).status == FAIL


def test_finite_order_rejects_negative_diffusion():
    A = DiffOp(1, {(2,): (X * X - 1.0) * 0.5})
    v = check_finite_order_generator(A, [(0.0,)])
    assert v.status == FAIL
    assert v.witnesses[0].min_eigenvalue == pytest.approx(-1.0)  # 2*q_2(0) = -1


def test_finite_order_multivariate_matrix():
    q = {(2, 0): Poly.constant(2, 0.5), (0, 2): Poly.constant(2, 0.5),
         (1, 1): Poly.constant(2, 3.0)}
    A = DiffOp(2, q)
    ys = [(0.0, 0.0)]
    assert check_finite_order_generator(A, ys).status == FAIL  # [[1,3],[3,1]] indefinite


# ---------------------------------------------------------------------------
# resolvent and Euler checks
# ---------------------------------------------------------------------------

def test_resolvent_heat_nonnegative_lambda():
    A = DiffOp(1, {(2,): 1.0})
    v = resolvent_check(A, 4, [0.0, 0.1, 1.0], [X * X], GRID)
    assert v.status == INCONCLUSIVE


def test_resolvent_heat_negative_lambda_fails():
    A = DiffOp(1, {(2,): 1.0})
    v = resolvent_check(A, 4, [-0.25], [X * X], GRID)
    assert v.status == FAIL
    # the solved polynomial is x^2 + 2 lambda, negative at the origin
    w = v.witnesses[0]
    assert w.value == pytest.approx(w.point[0] ** 2 + 2 * (-0.25), rel=1e-10, abs=1e-12)


def test_resolvent_euler_scaling_on_monomials():
    A = DiffOp(1, {(1,): X})
    from pospres.diffop import matrix_rep
    M = matrix_rep(A, 6)
    for lam in (0.05, 0.12):
        R = np.linalg.inv(np.eye(7) - lam * M.entries)
        for m in range(7):
            assert R[m, m] == pytest.approx(1.0 / (1.0 - lam * m), rel=1e-13)


def test_resolvent_singular_lambda_reported_not_fatal():
    A = DiffOp(1, {(1,): X})
    v = resolvent_check(A, 4, [0.25, 0.1], [X * X], GRID)  # 1 - 0.25*4 = 0
    assert "singular" in v.checked
    assert v.status == INCONCLUSIVE


def test_one_plus_constructive_preserver_all_lambdas():
    D = dop_from_seq(from_measure(DiscreteMeasure.dirac((0.8,)), 6))
    trials = square_trials(1, [-1.0, 0.0, 2.0]) + [(X - 1) ** 2 * (X + 1) ** 2]
    trials = [p for p in trials if p.degree <= 6]
    v = one_plus_check(D, 6, [0.0, 0.1, 1.0, 10.0], trials, GRID)
    assert v.status == INCONCLUSIVE


def test_one_plus_negative_diffusion_fails():
    A = DiffOp(1, {(2,): -1.0})
    v = one_plus_check(A, 4, [0.5], [X * X], GRID)
    assert v.status == FAIL


def test_one_plus_zero_operator_passes():
    v = one_plus_check(DiffOp.zero(1), 4, [0.1, 1.0], [X * X], GRID)
    assert v.status == INCONCLUSIVE


@pytest.mark.parametrize("check", [resolvent_check, one_plus_check])
@pytest.mark.parametrize("empty", ["lambdas", "trials", "grid"])
def test_falsifier_rejects_empty_lists(check, empty):
    # an empty list would check nothing, so no verdict may be reported
    lists = {"lambdas": [0.1], "trials": [X * X], "grid": GRID}
    lists[empty] = []
    with pytest.raises(ValueError, match="empty"):
        check(DiffOp(1, {(2,): 1.0}), 4, **lists)


@pytest.mark.parametrize("call", [
    lambda: falsify_on_grid(DiffOp.identity(1), KDescriptor.full(1), [], GRID),
    lambda: falsify_on_grid(DiffOp.identity(1), KDescriptor.box([(0.0, 1.0)]), [X * X],
                            [(5.0,)]),
    lambda: check_generator_rn(DiffOp(1, {(2,): 1.0}), 2, [], [0.1]),
    lambda: check_generator_rn(DiffOp(1, {(2,): 1.0}), 2, [(0.0,)], []),
    lambda: check_finite_order_generator(DiffOp(2, {(2, 0): 1.0, (0, 2): 1.0}), []),
    lambda: check_generator_field_sufficient(
        LevyField(0.0, ((Poly.constant(1, 1.0),),), (Poly.zero(1),)), [], 4),
], ids=["no-trial", "no-grid-point-in-K", "no-point", "no-time", "no-point-n2",
        "field-no-point"])
def test_checks_that_would_evaluate_nothing_raise(call):
    # an inconclusive or pass verdict over nothing would claim a check that never ran
    with pytest.raises(ValueError, match="evaluated something"):
        call()


def test_resolvent_singular_at_every_lambda_is_an_error():
    # 1 - 0.25 * (x d) kills x^4, so no trial is evaluated at all
    with pytest.raises(ValueError, match="singular at every lambda"):
        resolvent_check(DiffOp(1, {(1,): X}), 4, [0.25], [X * X], GRID)


# ---------------------------------------------------------------------------
# pointwise-sufficient field check
# ---------------------------------------------------------------------------

def test_field_sufficient_growing_diffusion():
    F = LevyField(0.0, ((Poly.constant(1, 1.0) + X * X,),), (Poly.zero(1),))
    verdict, A = check_generator_field_sufficient(
        F, [(y,) for y in chebyshev_points(-3, 3, 9)], 4)
    assert verdict.status == PASS
    assert A.coefficient((2,)).coeff((0,)) == pytest.approx(0.5)
    assert A.coefficient((2,)).coeff((2,)) == pytest.approx(0.5)


def test_field_sufficient_fails_on_sign_changing_diffusion():
    F = LevyField(0.0, ((X,),), (Poly.zero(1),))
    verdict, A = check_generator_field_sufficient(F, [(-1.0,), (1.0,)], 4)
    assert verdict.status == FAIL and A is None
    assert verdict.witnesses[0].y == (-1.0,)


@pytest.mark.parametrize("points", [[()], [[], []], [(0.5, 1.0, 2.0)]])
def test_pointwise_generator_checks_reject_points_of_wrong_length(points):
    # a zero-length point is a wrong point, not an empty cloud to skip
    x1, x2, zero = Poly.variable(2, 0), Poly.variable(2, 1), Poly.zero(2)
    A = DiffOp(2, {(2, 0): x1 * x1, (0, 2): x2 * x2})
    F = LevyField(0.0, ((x1 * x1, zero), (zero, x2 * x2)), (zero, zero))
    with pytest.raises(DimensionMismatchError):
        check_finite_order_generator(A, points)
    with pytest.raises(DimensionMismatchError):
        check_generator_field_sufficient(F, points, 4)


def test_field_sufficient_scaling_drift():
    for a in (-1.0, 0.5, 2.0):
        F = LevyField(0.0, ((Poly.zero(1),),), (Poly.constant(1, a) * X,))
        verdict, A = check_generator_field_sufficient(
            F, [(y,) for y in chebyshev_points(-2, 2, 7)], 4)
        assert verdict.status == PASS
        assert A.coefficient((1,)).coeff((1,)) == pytest.approx(a)


def test_field_degree_bounds_enforced():
    with pytest.raises(ValueError):
        LevyField(0.0, ((X ** 3,),), (Poly.zero(1),))
    with pytest.raises(ValueError):
        LevyField(0.0, ((Poly.zero(1),),), (X * X,))


# ---------------------------------------------------------------------------
# cross-consistency of the checks
# ---------------------------------------------------------------------------

def test_resolvent_and_exponential_agree_on_refutation():
    A = DiffOp(1, {(2,): -1.0})
    res = resolvent_check(A, 4, [1e-3, 1e-2, 1e-1], [X * X], GRID)
    assert res.status == FAIL
    gen = check_generator_rn(A, 1, [(0.0,)], [1e-3, 1e-2])
    assert gen.status == FAIL


def test_halfline_drift_sign_pair():
    # frozen coefficients fail on [0, inf) while the genuine flow passes
    A = DiffOp(1, {(1,): -1.0 * X})
    frozen = A.freeze_at((1.0,))  # = -d/dx
    T_frozen = exp_op(frozen, 0.5, 9)
    v = check_preserver_halfline(T_frozen, 4, [(0.0,), (0.1,)])
    assert v.status == FAIL
    flow = exp_op(A, 0.5, 4)
    K = KDescriptor.cone([(1.0,)])
    grid = [(g,) for g in np.linspace(0.0, 10.0, 1001)]
    trials = halfline_trials([0.5, 2.0]) + square_trials(1, [0.0, 1.0])
    assert falsify_on_grid(flow, K, trials, grid).status == INCONCLUSIVE


# ---------------------------------------------------------------------------
# triple file format
# ---------------------------------------------------------------------------

def test_triple_file_round_trip():
    tr = LevyTriple(-0.5, [[2.0, 0.5], [0.5, 1.0]], [1.0, -1.0],
                    DiscreteMeasure([((1.0, 2.0), 0.25)]))
    text = format_levy_triple(tr)
    again = parse_levy_triple(text)
    assert format_levy_triple(again) == text
    assert np.allclose(again.sigma, tr.sigma)
    assert again.nu == tr.nu


def test_triple_file_example():
    text = "a0 = 0\nsigma = [[1]]\nb = (0)\n"
    tr = parse_levy_triple(text)
    A = generator_from_levy(tr, 4)
    assert A.coefficient((2,)).coeff((0,)) == pytest.approx(0.5)


def test_triple_file_whitespace_inside_brackets():
    tr = parse_levy_triple("sigma = [[1, 0], [0, 1]]\nb = ( 0 , 0.5 )\nnu ( 1 , 2 ) 0.25\n")
    assert np.array_equal(tr.sigma, np.eye(2)) and np.array_equal(tr.b, [0.0, 0.5])
    assert tr.nu == DiscreteMeasure([((1.0, 2.0), 0.25)]) and tr.a0 == 0.0


@pytest.mark.parametrize("text, line", [
    ("sigma = [[1]]\nb = (0)\nnu 2.0) 0.25\n", 3),  # once an atom at 0.0
    ("sigma = [[1]]\nb = (0)\nbanana = (7)\n", 3),  # once read as b
    ("sigmax = [[1]]\nb = (0)\n", 1),  # once read as sigma
    ("sigma = [[1]]\nb = (0)\nb = (1)\n", 3),  # once the second b won
    ("a0 = 1\nsigma = [[1]]\nb = (0)\na0 = 2\n", 4),
    ("sigma = [[1, 0], [0, 1]]\nb = (0)\n", 2),
    ("sigma = [[1]]\nb = (0) 1\n", 2),
    ("sigma = [1]\nb = (0)\n", 1),
    ("a0\nsigma = [[1]]\nb = (0)\n", 1),
])
def test_triple_file_errors(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_levy_triple(text)


def test_finite_order_rejects_degree_excess_coefficients():
    T = DiffOp(1, {(1,): X * X}, allow_degree_excess=True)
    v = check_finite_order_generator(T, [(0.0,)])
    assert v.status == FAIL
    assert "degree" in v.witnesses[0].kind
