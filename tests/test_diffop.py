import math
import random
from pathlib import Path

import numpy as np
import pytest

from pospres import diffop
from pospres.polyalg import (
    BasisMap,
    Poly,
    iter_multiindices,
    iter_multiindices_leq,
    mi_factorial,
    mi_perm,
    mi_sub,
    parse_poly,
)
from pospres.diffop import (
    DegreeBoundError,
    DiffOp,
    NotInvertibleError,
    OpMatrix,
    TruncationError,
    apply,
    build_substitution_preserver,
    canonical_from_action,
    compose,
    exp_limit_check,
    exp_op,
    format_operator,
    invert,
    log_op,
    matrix_rep,
    parse_operator,
)
from pospres.momseq import DiscreteMeasure, MomentSeq, convolve, dop_from_seq, from_measure

X = Poly.variable(1, 0)


def drift_op(a: float) -> DiffOp:
    """a*d + (x^2-1)/2 * d^2 on one variable."""
    return DiffOp(1, {(1,): Poly.constant(1, a), (2,): (X * X - 1.0) * 0.5})


def const_coeffs(T: DiffOp, order: int):
    """Scalar parts of the coefficients up to the given order."""
    return [T.coefficient((k,)).coeff((0,)) for k in range(order + 1)]


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_identity():
    p = parse_poly("3 * x1^2 - 2 * x1 + 1", 1)
    assert apply(DiffOp.identity(1), p) == p


def test_apply_second_derivative():
    assert apply(DiffOp.partial(1, (2,)), X ** 4) == Poly(1, {(2,): 12.0})


def test_apply_euler_operator_eigenvalue():
    # (x d/dx) x^m = m x^m
    E = DiffOp(1, {(1,): X})
    for m in range(5):
        assert apply(E, X ** m) == Poly(1, {(m,): float(m)}) or m == 0


def test_apply_degree_never_grows():
    rng = random.Random(11)
    T = DiffOp(1, {(0,): 1.0, (1,): X * 0.5, (2,): X * X * 0.25 - 0.5})
    for _ in range(20):
        deg = rng.randint(0, 6)
        p = Poly(1, {(k,): rng.uniform(-2, 2) for k in range(deg + 1)})
        if p.is_zero():
            continue
        assert apply(T, p).degree <= p.degree


def test_apply_truncation_guard():
    T = DiffOp(1, {(1,): 1.0}, max_order=2)
    with pytest.raises(TruncationError):
        apply(T, X ** 3)


# ---------------------------------------------------------------------------
# degree-preservation invariant at construction
# ---------------------------------------------------------------------------

def test_degree_violation_rejected():
    with pytest.raises(DegreeBoundError):
        DiffOp(1, {(0,): X})  # multiplication by x is not degree preserving


def test_degree_violation_allowed_when_flagged():
    T = DiffOp(1, {(0,): 1.0, (1,): X ** 3}, allow_degree_excess=True)
    assert not T.degree_preserving
    with pytest.raises(DegreeBoundError):
        matrix_rep(T, 3)


# ---------------------------------------------------------------------------
# matrix_rep
# ---------------------------------------------------------------------------

def test_matrix_rep_drift_generator():
    M = matrix_rep(drift_op(0.7), 2)
    expected = np.array([[0.0, 0.7, -1.0], [0.0, 0.0, 1.4], [0.0, 0.0, 1.0]])
    assert np.allclose(M.entries, expected, atol=0.0)


def test_matrix_rep_identity():
    M = matrix_rep(DiffOp.identity(2), 2)
    assert np.array_equal(M.entries, np.eye(6))


def test_matrix_rep_matches_apply():
    rng = random.Random(2)
    T = DiffOp(1, {(0,): 2.0, (1,): X, (2,): 0.25 * X * X + 0.5})
    M = matrix_rep(T, 5)
    for _ in range(10):
        p = Poly(1, {(k,): rng.uniform(-1, 1) for k in range(6)})
        via_matrix = M.basis.vec_to_poly(M.entries @ M.basis.poly_to_vec(p))
        direct = apply(T, p)
        for alpha in set(via_matrix.terms) | set(direct.terms):
            assert via_matrix.coeff(alpha) == pytest.approx(
                direct.coeff(alpha), rel=1e-13, abs=1e-13)


def test_shift_matrix_is_taylor_shift():
    c = 0.6
    mu = from_measure(DiscreteMeasure.dirac((c,)), 4)
    M = matrix_rep(dop_from_seq(mu), 4)
    basis = M.basis
    for j, alpha in enumerate(basis.indices):
        shifted = Poly.monomial(1, alpha).taylor_shift((c,))
        assert np.allclose(M.entries[:, j], basis.poly_to_vec(shifted), atol=1e-12)


# ---------------------------------------------------------------------------
# canonical_from_action
# ---------------------------------------------------------------------------

def test_canonical_identity():
    b = BasisMap(1, 3)
    T = canonical_from_action(OpMatrix(b, np.eye(4)))
    assert const_coeffs(T, 3) == [1.0, 0.0, 0.0, 0.0]


def test_canonical_shift_coefficients():
    # shift by c has q_k = c^k / k!
    c = 0.9
    mu = from_measure(DiscreteMeasure.dirac((c,)), 5)
    M = matrix_rep(dop_from_seq(mu), 5)
    T = canonical_from_action(OpMatrix(M.basis, M.entries))
    for k in range(6):
        assert T.coefficient((k,)).coeff((0,)) == pytest.approx(
            c ** k / math.factorial(k), rel=1e-12)


def test_canonical_recovers_drift_generator():
    A = drift_op(1.0)
    M = matrix_rep(A, 2)
    R = canonical_from_action(OpMatrix(M.basis, M.entries))
    assert R.coefficient((1,)).coeff((0,)) == pytest.approx(1.0)
    q2 = R.coefficient((2,))
    assert q2.coeff((2,)) == pytest.approx(0.5)
    assert q2.coeff((0,)) == pytest.approx(-0.5)


def test_canonical_round_trip_matrix():
    A = drift_op(0.45)
    M = matrix_rep(A, 2)
    R = canonical_from_action(M)
    assert np.allclose(matrix_rep(R, 2).entries, M.entries, atol=1e-11)


def test_canonical_rejects_non_graded_matrix():
    # matrix of multiplication by x1 on R[x]_{<=2} maps x^2 -> x^3 (lost);
    # build an action that genuinely increases degree: x^0 -> x^1
    b = BasisMap(1, 2)
    M = np.zeros((3, 3))
    M[1, 0] = 1.0  # sends the constant to x
    with pytest.raises(DegreeBoundError):
        canonical_from_action(OpMatrix(b, M))


# ---------------------------------------------------------------------------
# matrix_rep and canonical_from_action against the Poly-dictionary algorithms
# they replaced, kept here as references
# ---------------------------------------------------------------------------

def ref_matrix_rep(T: DiffOp, d: int) -> np.ndarray:
    """Column alpha is apply(T, x^alpha), one Poly per basis monomial."""
    basis = BasisMap(T.n, d)
    M = np.zeros((basis.dim, basis.dim))
    for j, alpha in enumerate(basis.indices):
        M[:, j] = basis.poly_to_vec(apply(T, Poly.monomial(T.n, alpha)))
    return M


def ref_canonical_from_action(action: OpMatrix, tol: float = 1e-9) -> DiffOp:
    """The graded recursion on Poly dictionaries, with its max(1, max|M|) floor."""
    basis, n = action.basis, action.basis.n
    scale = max(1.0, float(np.max(np.abs(action.entries))))
    coeffs = {}
    for alpha in basis.indices:
        resid = basis.vec_to_poly(action.entries[:, basis.index_of(alpha)])
        for beta in iter_multiindices_leq(alpha):
            if beta != alpha and beta in coeffs:
                resid = resid - coeffs[beta] * Poly.monomial(
                    n, mi_sub(alpha, beta), float(mi_perm(alpha, beta)))
        q = resid * (1.0 / mi_factorial(alpha))
        kept = {e: c for e, c in q.terms.items() if sum(e) <= sum(alpha)}
        bad = max((abs(c) for e, c in q.terms.items() if e not in kept), default=0.0)
        if bad > tol * scale:
            raise DegreeBoundError(f"q_{alpha} has mass {bad:.3e} above its degree")
        if kept:
            coeffs[alpha] = Poly(n, kept)
    return DiffOp(n, coeffs, max_order=basis.d)


def random_graded_operator(rng, n: int, d: int) -> DiffOp:
    coeffs = {}
    for alpha in iter_multiindices(n, d):
        if rng.random() < 0.5:
            coeffs[alpha] = Poly(n, {g: rng.uniform(-1.0, 1.0)
                                     for g in iter_multiindices(n, sum(alpha))
                                     if rng.random() < 0.4})
    return DiffOp(n, coeffs)


def round_trip_error(R: DiffOp, X: np.ndarray) -> float:
    """Relative Frobenius backward error of recovering R from X."""
    return np.linalg.norm(matrix_rep(R, R.max_order).entries - X) / np.linalg.norm(X)


def recovered_or_raise(action: OpMatrix, recover):
    try:
        return recover(action)
    except DegreeBoundError:
        return None


@pytest.mark.parametrize("seed", range(3))
def test_matrix_route_matches_poly_reference(seed):
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    raised = 0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(0, {1: 9, 2: 7, 3: 5}[n]))
        T = random_graded_operator(rng, n, d)
        M = matrix_rep(T, d)
        assert np.array_equal(M.entries, ref_matrix_rep(T, d))
        A, I = M.entries, np.eye(M.basis.dim)
        s = rng.uniform(0.1, 2.0)
        exact = [A, expm(s * A / max(1.0, np.max(np.abs(A)))), A @ A, np.linalg.inv(A + 5 * I)]
        # lower-block dust below and above tol; at max|X| >= 1 the reference's floor is inactive
        lower = np.subtract.outer([sum(a) for a in M.basis.indices],
                                  [sum(a) for a in M.basis.indices]) > 0
        dusty = [X + eps * np.max(np.abs(X)) * lower * rng.uniform(-1.0, 1.0, X.shape)
                 for X in exact if np.max(np.abs(X)) >= 1.0 for eps in (1e-13, 1e-6)]
        for X in exact + dusty:
            action = OpMatrix(M.basis, X)
            got = recovered_or_raise(action, canonical_from_action)
            want = recovered_or_raise(action, ref_canonical_from_action)
            assert (got is None) == (want is None)
            if got is None:
                raised += 1
                continue
            scale = np.max(np.abs(X))
            for alpha in set(got.coeffs) | set(want.coeffs):
                q, r = got.coefficient(alpha), want.coefficient(alpha)
                for g in set(q.terms) | set(r.terms):
                    assert mi_factorial(alpha) * abs(q.coeff(g) - r.coeff(g)) <= 1e-12 * scale
            if any(X is Y for Y in exact) and scale > 0:
                # the inverses of A + 5I reach 2.3e-15 (the reference 7.1e-15),
                # every other matrix 1.7e-16
                assert round_trip_error(got, X) <= max(1e-15, round_trip_error(want, X))
    assert raised > 0


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_with_identity():
    A = drift_op(2.0)
    C = compose(A, DiffOp.identity(1), 2)
    assert np.allclose(matrix_rep(C, 2).entries, matrix_rep(A, 2).entries, atol=1e-12)


def test_compose_matches_sequence_convolution():
    mu = from_measure(DiscreteMeasure([((0.5,), 1.0), ((-1.0,), 0.5)]), 6)
    nu = from_measure(DiscreteMeasure([((1.5,), 2.0)]), 6)
    C = compose(dop_from_seq(mu), dop_from_seq(nu), 6)
    D = dop_from_seq(convolve(mu, nu))
    for k in range(7):
        assert C.coefficient((k,)).coeff((0,)) == pytest.approx(
            D.coefficient((k,)).coeff((0,)), rel=1e-11, abs=1e-11)


def test_constant_coefficient_operators_commute():
    mu = from_measure(DiscreteMeasure([((0.3,), 1.0), ((2.0,), 0.25)]), 5)
    nu = from_measure(DiscreteMeasure([((-0.7,), 1.5)]), 5)
    ab = compose(dop_from_seq(mu), dop_from_seq(nu), 5)
    ba = compose(dop_from_seq(nu), dop_from_seq(mu), 5)
    for k in range(6):
        assert ab.coefficient((k,)).coeff((0,)) == pytest.approx(
            ba.coefficient((k,)).coeff((0,)), rel=1e-11, abs=1e-12)


def test_compose_group_law_on_matrices():
    A = drift_op(0.3)
    B = DiffOp(1, {(0,): 1.0, (1,): 0.5 * X})
    C = compose(A, B, 2)
    assert np.allclose(matrix_rep(C, 2).entries,
                       matrix_rep(A, 2).entries @ matrix_rep(B, 2).entries, atol=1e-11)


def test_multiplication_by_x_not_constructible():
    # the would-be composition partner x*1 has q_0 = x, outside the algebra
    with pytest.raises(DegreeBoundError):
        DiffOp(1, {(0,): X})


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_identity():
    B = invert(DiffOp.identity(1), 4)
    assert const_coeffs(B, 4) == pytest.approx([1.0, 0, 0, 0, 0], abs=1e-14)


def test_invert_one_plus_d_geometric_series():
    T = DiffOp(1, {(0,): 1.0, (1,): 1.0})
    B = invert(T, 5)
    # dense-inversion oracle
    Mi = np.linalg.inv(matrix_rep(T, 5).entries)
    oracle = canonical_from_action(OpMatrix(BasisMap(1, 5), Mi))
    for k in range(6):
        assert B.coefficient((k,)).coeff((0,)) == pytest.approx((-1.0) ** k, abs=1e-12)
        assert oracle.coefficient((k,)).coeff((0,)) == pytest.approx(
            B.coefficient((k,)).coeff((0,)), abs=1e-11)


def test_invert_resolvent_series():
    # (1 - lambda d^2)^{-1} = sum lambda^k d^{2k}
    lam = 0.37
    T = DiffOp(1, {(0,): 1.0, (2,): -lam})
    B = invert(T, 8)
    for k in range(9):
        expected = lam ** (k // 2) if k % 2 == 0 else 0.0
        assert B.coefficient((k,)).coeff((0,)) == pytest.approx(expected, abs=1e-12)


def test_invert_two_sided():
    for d in (3, 6):
        A = DiffOp(1, {(0,): 2.0, (1,): 0.5 * X + 0.1, (2,): 0.2 * X * X - 0.3})
        B = invert(A, d)
        I = np.eye(BasisMap(1, d).dim)
        assert np.allclose(matrix_rep(compose(A, B, d), d).entries, I, atol=1e-10)
        assert np.allclose(matrix_rep(compose(B, A, d), d).entries, I, atol=1e-10)


def test_invert_rejects_zero_constant_term():
    with pytest.raises(NotInvertibleError):
        invert(DiffOp.partial(1, (1,)), 3)


def test_invert_of_exp_with_rounding_dust():
    # the heat flow exp(Laplacian/2) has exactly 15 coefficients up to degree 8,
    # q_(2a,2b) = (1/2)^a/a! * (1/2)^b/b!, with no positive-degree rounding
    # dust, so its inverse stays in the sequence ring
    heat2 = DiffOp(2, {(2, 0): 0.5, (0, 2): 0.5})
    E = exp_op(heat2, 1.0, 8)
    assert E.has_constant_coefficients()
    assert len(E.coeffs) == 15
    for (i, j), q in E.coeffs.items():
        a, b = i // 2, j // 2
        want = 0.5 ** a / math.factorial(a) * 0.5 ** b / math.factorial(b)
        assert (i % 2, j % 2) == (0, 0)
        assert abs(q.constant_value() - want) <= 1e-15 * want
    got = matrix_rep(invert(E, 8), 8).entries
    want = matrix_rep(exp_op(heat2, -1.0, 8), 8).entries
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_constant_algebra_avoids_the_matrix_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a constant-coefficient input reached the matrix route")
    for name in ("matrix_rep", "expm", "canonical_from_action"):
        monkeypatch.setattr(diffop, name, forbidden)
    T = DiffOp(2, {(0, 0): 1.5, (1, 0): 0.3, (2, 0): 0.5, (1, 1): -0.2, (0, 2): 0.5})
    for out in (exp_op(T, 0.7, 6), log_op(T, 6), invert(T, 6), compose(T, T, 6)):
        assert out.has_constant_coefficients() and out.max_order == 6


def test_constant_algebra_keeps_truncation_guard():
    T = DiffOp.from_constant_table({(0,): 1.0, (2,): 0.5}, 1, max_order=3)
    for call in (lambda: exp_op(T, 1.0, 4), lambda: log_op(T, 4), lambda: invert(T, 4),
                 lambda: compose(T, T, 4)):
        with pytest.raises(TruncationError):
            call()


def test_invert_refuses_an_inaccurate_inverse():
    # condition number 6.1e14 on degree 6: the matrix route's B has
    # max|M_T M_B - I| = 3.9e-3, which once came back without an error
    T = parse_operator((Path(__file__).parent / "data" / "illcond.op").read_text())
    with pytest.raises(ArithmeticError, match=r"max \|M_T M_B - I\| = 3\.9\d*e-03"):
        invert(T, 6)
    B = invert(T, 4)  # lower degrees stay well-conditioned and pass the gate
    M = matrix_rep(T, 4).entries
    assert np.max(np.abs(M @ matrix_rep(B, 4).entries - np.eye(len(M)))) <= diffop.INVERSE_RESIDUAL


def test_invert_detects_kernel_at_truncation():
    # 1 - x d kills x even though q_0 = 1
    T = DiffOp(1, {(0,): 1.0, (1,): -1.0 * X})
    with pytest.raises(NotInvertibleError):
        invert(T, 3)
    # 1 - x1 d1 kills x1 * x2^k in two variables
    T2 = DiffOp(2, {(0, 0): 1.0, (1, 0): -1.0 * Poly.variable(2, 0)})
    with pytest.raises(NotInvertibleError):
        invert(T2, 3)


# ---------------------------------------------------------------------------
# exp_op
# ---------------------------------------------------------------------------

def test_exp_zero_time_is_identity():
    E = exp_op(drift_op(1.0), 0.0, 2)
    assert np.allclose(matrix_rep(E, 2).entries, np.eye(3), atol=1e-14)


def test_exp_scaling_flow_eigenvalues():
    # exp(t a x d) x^m = e^{a t m} x^m
    a, t = 0.8, 0.35
    E = exp_op(DiffOp(1, {(1,): Poly.constant(1, a) * X}), t, 4)
    M = matrix_rep(E, 4).entries
    assert np.allclose(np.diag(M), [math.exp(a * t * m) for m in range(5)], rtol=1e-12)
    assert np.allclose(M - np.diag(np.diag(M)), 0.0, atol=1e-12)


def test_exp_of_derivative_is_shift():
    c = 1.3
    E = exp_op(DiffOp.partial(1, (1,), c), 1.0, 4)
    p = parse_poly("x1^3 - 2 * x1", 1)
    shifted = apply(E, p)
    direct = p.taylor_shift((c,))
    for k in range(4):
        assert shifted.coeff((k,)) == pytest.approx(direct.coeff((k,)), rel=1e-12, abs=1e-12)


def test_exp_semigroup_law():
    A = drift_op(1.0)
    for s, t in [(0.1, 0.1), (0.1, 0.7), (0.7, 0.7)]:
        lhs = matrix_rep(exp_op(A, s + t, 2), 2).entries
        rhs = (matrix_rep(exp_op(A, s, 2), 2).entries
               @ matrix_rep(exp_op(A, t, 2), 2).entries)
        assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("t, error", [(math.nan, ValueError), (math.inf, ValueError),
                                      (-math.inf, ValueError), (1e308, ValueError),
                                      (1e5, ArithmeticError)])
def test_exp_of_non_constant_operator_refuses_non_finite_results(t, error):
    # the matrix route refuses what it cannot represent, as the constant route does
    with pytest.raises(error):
        exp_op(drift_op(1.0), t, 2)


# ---------------------------------------------------------------------------
# exp_limit_check
# ---------------------------------------------------------------------------

def test_exp_limit_zero_operator():
    for k in (1, 16, 1024):
        assert exp_limit_check(DiffOp.zero(1), 1.0, 3, k) == 0.0


def test_exp_limit_trend_second_derivative():
    A = DiffOp.partial(1, (2,))
    d16 = exp_limit_check(A, 1.0, 4, 16)
    d1024 = exp_limit_check(A, 1.0, 4, 1024)
    assert d1024 < d16 / 10


def test_exp_limit_resolvent_closed_form():
    # (1 - t x d / k)^{-1} x^m = (1 - t m / k)^{-1} x^m
    t, k = 1.0, 8
    A = DiffOp(1, {(1,): X})
    M = matrix_rep(A, 4).entries
    R = np.linalg.inv(np.eye(5) - (t / k) * M)
    assert np.allclose(np.diag(R), [1.0 / (1 - t * m / k) for m in range(5)], rtol=1e-13)


def test_exp_limit_singular_resolvent():
    A = DiffOp(1, {(1,): X})
    with pytest.raises(NotInvertibleError):
        exp_limit_check(A, 1.0, 4, 4)  # 1 - (1/4)*4 = 0 on x^4


# ---------------------------------------------------------------------------
# log_op
# ---------------------------------------------------------------------------

def test_log_identity_is_zero():
    L = log_op(DiffOp.identity(1), 4)
    assert all(abs(v) < 1e-14 for v in const_coeffs(L, 4))


def test_log_of_shift():
    c = 0.75
    sh = dop_from_seq(from_measure(DiscreteMeasure.dirac((c,)), 5))
    L = log_op(sh, 5)
    expected = [0.0, c, 0.0, 0.0, 0.0, 0.0]
    assert const_coeffs(L, 5) == pytest.approx(expected, abs=1e-10)


def test_log_exp_round_trip():
    A = DiffOp(1, {(0,): 1.0, (2,): 1.0})  # 1 + d^2
    T = exp_op(A, 1.0, 6)
    T = DiffOp.from_constant_table(
        {(k,): T.coefficient((k,)).coeff((0,)) for k in range(7)}, 1, max_order=6)
    L = log_op(T, 6)
    assert const_coeffs(L, 6) == pytest.approx([1, 0, 1, 0, 0, 0, 0], abs=1e-10)


def test_log_requires_positive_constant():
    with pytest.raises(ValueError):
        log_op(DiffOp.from_constant_table({(0,): -1.0}, 1), 3)
    with pytest.raises(ValueError):
        log_op(drift_op(1.0), 2)  # non-constant coefficients


# ---------------------------------------------------------------------------
# substitution preservers
# ---------------------------------------------------------------------------

def test_substitution_with_origin_moments_is_identity():
    s = from_measure(DiscreteMeasure.dirac((0.0,)), 4)
    T = build_substitution_preserver([X], s, 4)
    assert const_coeffs(T, 4) == [1.0, 0, 0, 0, 0]


def test_substitution_with_constant_polys_is_dop():
    s = from_measure(DiscreteMeasure([((0.5,), 1.0), ((-1.0,), 2.0)]), 4)
    T = build_substitution_preserver([Poly.constant(1, 1.0)], s, 4)
    D = dop_from_seq(s)
    for k in range(5):
        assert T.coefficient((k,)).coeff((0,)) == pytest.approx(
            D.coefficient((k,)).coeff((0,)), rel=1e-14)


def test_substitution_doubling_flow():
    # p = (x), s = moments of delta_1: T f = f(2x); coefficients x^k/k!
    s = from_measure(DiscreteMeasure.dirac((1.0,)), 4)
    T = build_substitution_preserver([X], s, 4)
    for k in range(5):
        assert T.coefficient((k,)).coeff((k,)) == pytest.approx(1.0 / math.factorial(k))
    p = X ** 2 - X
    image = apply(T, p)
    for y in (-1.0, 0.3, 2.0):
        assert image.eval((y,)) == pytest.approx(p.eval((2 * y,)), rel=1e-12, abs=1e-12)


def test_substitution_degree_excess_flagged():
    s = from_measure(DiscreteMeasure.dirac((1.0,)), 3)
    T = build_substitution_preserver([X * X], s, 3)
    assert not T.degree_preserving


# ---------------------------------------------------------------------------
# operator text format
# ---------------------------------------------------------------------------

def test_operator_file_round_trip():
    text = "# drift generator\n[1] = 1.0\n[2] = 0.5 * x1^2 - 0.5\n"
    T = parse_operator(text)
    assert T.coefficient((1,)).coeff((0,)) == 1.0
    assert T.coefficient((2,)).coeff((2,)) == 0.5
    again = parse_operator(format_operator(T))
    assert format_operator(again) == format_operator(T)


def test_operator_file_errors():
    for text, line in (
        ("[1] = 1\n[1] = 2\n", 2),  # duplicate index
        ("1 = [1]\n", 1),
        ("[-1] = 1\n", 1),  # negative index, once INCONCLUSIVE in check-preserver
        ("# heat\n[0] = 1\n[2 = 0.5\n", 3),
        ("[1] = 1\n[1,0] = 1\n", 2),  # inconsistent arity
        ("[1] = x2\n", 1),
        ("[1] = x0\n", 1),
    ):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            parse_operator(text)


def test_operator_file_whitespace_inside_index():
    T = parse_operator("[ 2 , 0 ] = 0.5  # comment\n[0,1]=x1\n")
    assert T.coeffs == {(2, 0): Poly.constant(2, 0.5), (0, 1): Poly.variable(2, 0)}
