import math
import random

import numpy as np
import pytest

from pospres.polyalg import DimensionMismatchError, Poly, evaluate
from pospres.diffop import DiffOp, apply, exp_op
from pospres.momseq import DiscreteMeasure, dop_from_seq, from_measure
from pospres.preserver import (
    COMPACT_TIMES_HALFLINE,
    FAIL,
    INCONCLUSIVE,
    LATTICE_POINTS,
    PASS,
    KDescriptor,
    PreserverVerdict,
    Witness,
    check_degree2_pointwise,
    check_preserver_halfline,
    check_preserver_rn,
    chebyshev_points,
    compact_rigidity_check,
    falsify_on_grid,
    format_kdescriptor,
    global_min_univariate,
    grid_points,
    halfline_trials,
    ksharp,
    parse_kdescriptor,
    quadratic_square_trials,
    sample_points,
    square_trials,
)
from pospres.diffop import build_substitution_preserver
from pospres import preserver

X = Poly.variable(1, 0)


def scaling_cubed() -> DiffOp:
    """(x d/dx)^3 = x d + 3 x^2 d^2 + x^3 d^3."""
    return DiffOp(1, {(1,): X, (2,): 3.0 * X * X, (3,): X * X * X})


def drift_op(a: float) -> DiffOp:
    return DiffOp(1, {(1,): Poly.constant(1, a), (2,): (X * X - 1.0) * 0.5})


YS = [(y,) for y in chebyshev_points(-3.0, 3.0, 11)]


# ---------------------------------------------------------------------------
# translation-invariance catalogue
# ---------------------------------------------------------------------------

def test_ksharp_compact_box_is_origin():
    K = ksharp(KDescriptor.box([(-1.0, 1.0)]))
    assert K.variant == "ball" and K.data == ((0.0,), 0.0)


def test_ksharp_compact_ball_is_origin():
    K = ksharp(KDescriptor.ball((0.5, 0.5), 2.0))
    assert K.data == ((0.0, 0.0), 0.0)


def test_ksharp_strip_halfline():
    K = ksharp(KDescriptor.compact_times_halfline([(-1.0, 1.0)]))
    assert K.variant == COMPACT_TIMES_HALFLINE
    assert K.data == ((0.0, 0.0),)
    assert K.contains((0.0, 5.0)) and not K.contains((0.1, 5.0))


def test_ksharp_cone_is_itself():
    cone = KDescriptor.cone([(1.0, 0.0), (0.0, 1.0)])
    assert ksharp(cone) == cone


def test_ksharp_lattice_balls():
    K = ksharp(KDescriptor.lattice_balls(2, 0.25))
    assert K.variant == LATTICE_POINTS
    assert K.contains((3.0, -2.0)) and not K.contains((0.5, 0.0))


def test_lattice_radius_bound():
    with pytest.raises(ValueError):
        KDescriptor.lattice_balls(1, 0.6)


def test_kdescriptor_text_round_trip():
    for text in ["box:-1,1", "ball:0,1", "cone:1,0;0,1", "striphalf:-1,1", "lattice:0.25"]:
        K = parse_kdescriptor(text, n=2)
        assert parse_kdescriptor(format_kdescriptor(K), n=K.n) == K
    assert parse_kdescriptor("full", n=3).variant == "full"


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("status", [PASS, INCONCLUSIVE])
def test_verdict_that_evaluated_nothing_is_refused(status):
    with pytest.raises(ValueError, match="evaluated something"):
        PreserverVerdict(status, (), "0 points", evaluated=0)
    assert PreserverVerdict(status, (), "1 point", evaluated=1).status == status


def test_verdict_rule_fail_then_certificate_then_inconclusive():
    w = Witness(y=(0.0,), d=1, min_eigenvalue=-1.0)
    v = PreserverVerdict.decide([w], "scan", 3, certified="scan; certificate")
    assert (v.status, v.witnesses, v.checked, v.evaluated) == (FAIL, (w,), "scan", 3)
    v = PreserverVerdict.decide([], "scan", 3, certified="scan; certificate")
    assert (v.status, v.checked) == (PASS, "scan; certificate")
    assert PreserverVerdict.decide([], "scan", 3).status == INCONCLUSIVE
    with pytest.raises(ValueError, match="witness"):
        PreserverVerdict(FAIL, (), "scan", 3)


# ---------------------------------------------------------------------------
# check_preserver_rn
# ---------------------------------------------------------------------------

def test_identity_has_no_witnesses():
    v = check_preserver_rn(DiffOp.identity(1), 2, YS)
    assert v.status == INCONCLUSIVE and not v.witnesses


def test_scaling_cubed_fails_below_threshold():
    T = exp_op(scaling_cubed(), 0.005, 4)
    v = check_preserver_rn(T, 2, [(y,) for y in (0.5, 1.0, 2.0)])
    assert v.status == FAIL
    assert all(w.min_eigenvalue < 0 for w in v.witnesses)


def test_scaling_cubed_clean_above_threshold():
    T = exp_op(scaling_cubed(), 0.05, 4)
    v = check_preserver_rn(T, 2, [(y,) for y in (0.5, 1.0, 2.0)])
    assert v.status == INCONCLUSIVE


def test_substitution_preserver_passes_with_certificate():
    mu = DiscreteMeasure([((0.4,), 1.0), ((1.3,), 0.5)])
    s = from_measure(mu, 8)
    T = build_substitution_preserver([X], s, 8)
    v = check_preserver_rn(T, 2, YS)
    assert v.status == PASS


def test_measure_shift_passes_with_certificate():
    D = dop_from_seq(from_measure(DiscreteMeasure.dirac((-0.9,)), 6))
    assert check_preserver_rn(D, 3, YS).status == PASS


# ---------------------------------------------------------------------------
# check_preserver_halfline
# ---------------------------------------------------------------------------

HALF_YS = [(y,) for y in chebyshev_points(0.0, 3.0, 9)]


def test_halfline_right_shift_passes():
    D = dop_from_seq(from_measure(DiscreteMeasure.dirac((0.5,)), 9))
    assert check_preserver_halfline(D, 4, HALF_YS).status == PASS


def test_halfline_left_shift_fails_at_origin():
    D = dop_from_seq(from_measure(DiscreteMeasure.dirac((-0.5,)), 9))
    v = check_preserver_halfline(D, 4, [(0.0,)])
    assert v.status == FAIL
    assert any(w.kind == "localized" for w in v.witnesses)


def test_halfline_scaling_passes():
    c = 2.5
    T = DiffOp.from_constant_table({(0,): c}, 1, max_order=9,
                                   certificate=("shift-mixture",
                                                DiscreteMeasure([((0.0,), c)])))
    assert check_preserver_halfline(T, 4, HALF_YS).status == PASS


def test_halfline_rejects_negative_sample():
    D = dop_from_seq(from_measure(DiscreteMeasure.dirac((0.5,)), 9))
    with pytest.raises(ValueError):
        check_preserver_halfline(D, 4, [(-1.0,)])


@pytest.mark.parametrize("check", [check_preserver_rn, check_preserver_halfline])
def test_preserver_checks_reject_empty_point_list(check):
    # no point means nothing checked, so no verdict may be reported
    with pytest.raises(ValueError, match="empty point list"):
        check(DiffOp.identity(1), 2, [])


@pytest.mark.parametrize("points", [[()], [[], []], [(0.5, 1.0)]])
def test_checks_reject_points_of_wrong_length(points):
    # a zero-length point is a wrong point, not an empty cloud to skip
    T = DiffOp.identity(1)
    with pytest.raises(DimensionMismatchError):
        check_preserver_rn(T, 1, points)
    with pytest.raises(DimensionMismatchError):
        falsify_on_grid(T, KDescriptor.full(1), [X * X], points)


# ---------------------------------------------------------------------------
# global minimum / pointwise degree-2 check
# ---------------------------------------------------------------------------

def test_global_min_simple_quartic():
    p = (X * X - 1.0) ** 2
    v, arg = global_min_univariate(p)
    assert v == pytest.approx(0.0, abs=1e-12)
    assert abs(abs(arg) - 1.0) < 1e-8


def test_global_min_odd_degree_unbounded():
    v, _ = global_min_univariate(X ** 3)
    assert v == -math.inf


def test_global_min_matches_grid_oracle():
    rng = random.Random(77)
    for _ in range(20):
        coeffs = {(k,): rng.uniform(-2, 2) for k in range(4)}
        coeffs[(4,)] = rng.uniform(0.2, 2.0)
        p = Poly(1, coeffs)
        v, arg = global_min_univariate(p)
        grid = np.linspace(-20, 20, 40001)
        vals = evaluate([p], grid[:, None])[0]
        assert v <= min(vals) + 1e-9
        assert v == pytest.approx(p.eval((arg,)), rel=1e-12, abs=1e-12)


def test_degree2_simple_cases():
    ok, v, arg = check_degree2_pointwise(
        DiffOp(1, {(0,): 1.0, (2,): 0.5 * X * X}))
    assert ok and v == pytest.approx(0.0, abs=1e-12) and arg == pytest.approx(0.0)


def test_degree2_negative_diffusion_fails_at_origin():
    lam = -0.5
    T = DiffOp(1, {(0,): 1.0, (2,): lam})
    ok, v, arg = check_degree2_pointwise(T)
    assert not ok
    assert v == pytest.approx(2 * lam)
    assert arg == pytest.approx(0.0)


def test_degree2_matches_quadratic_closed_form():
    # min of s0*s2(x) - s1^2 for the flowed drift family, against the
    # direct quadratic-vertex formula on the exponentiated coefficients
    for a in (0.45, 1.0, 10.0):
        for t in (0.1, 1.0, 5.0):
            T = exp_op(drift_op(a), t, 2)
            ok, v, arg = check_degree2_pointwise(T)
            E = math.expm1(t)
            direct = ((a * a - 1.0) * E * E - a * a * t * t * math.exp(t)) / E
            assert v == pytest.approx(direct, rel=1e-9, abs=1e-9)
            assert ok == (v >= 0.0)


def test_degree2_rejects_higher_order():
    with pytest.raises(ValueError):
        check_degree2_pointwise(DiffOp(1, {(3,): 1.0}))


# ---------------------------------------------------------------------------
# grid falsifier
# ---------------------------------------------------------------------------

FULL1 = KDescriptor.full(1)
GRID = [(g,) for g in np.linspace(-10.0, 10.0, 2001)]


def test_falsifier_identity_clean():
    v = falsify_on_grid(DiffOp.identity(1), FULL1,
                        square_trials(1, [-2.0, 0.0, 2.0]), GRID)
    assert v.status == INCONCLUSIVE


QUAD_TRIALS = quadratic_square_trials(np.arange(-3.0, 3.01, 0.25),
                                      np.arange(-3.0, 3.01, 0.25))
SHORT_GRID = [(g,) for g in np.linspace(-5.0, 5.0, 401)]


def test_falsifier_catches_scaling_cubed():
    T = exp_op(scaling_cubed(), 0.005, 4)
    v = falsify_on_grid(T, FULL1, QUAD_TRIALS, SHORT_GRID)
    assert v.status == FAIL
    w = v.witnesses[0]
    assert apply(T, w.trial).eval(w.point) < 0


def test_falsifier_clean_above_threshold():
    T = exp_op(scaling_cubed(), 0.05, 4)
    assert falsify_on_grid(T, FULL1, QUAD_TRIALS, SHORT_GRID).status == INCONCLUSIVE


def test_falsifier_halfline_scaling_flow():
    # (e^{tA} f)(x) = f(e^{-t} x) preserves [0, inf) even though the frozen
    # coefficient operator at y=1 does not
    A = DiffOp(1, {(1,): -1.0 * X})
    T = exp_op(A, 0.7, 4)
    K = KDescriptor.cone([(1.0,)])
    grid = [(g,) for g in np.linspace(0.0, 10.0, 2001)]
    trials = halfline_trials([0.5, 1.0, 3.0]) + square_trials(1, [0.0, 1.0, 2.0])
    assert falsify_on_grid(T, K, trials, grid).status == INCONCLUSIVE


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

def test_rigidity_accepts_scalings():
    assert compact_rigidity_check(DiffOp.from_constant_table({(0,): 2.0}, 1))
    assert compact_rigidity_check(DiffOp.zero(1))


def test_rigidity_rejects_heat_term():
    assert not compact_rigidity_check(
        DiffOp.from_constant_table({(0,): 1.0, (2,): 1.0}, 1))


def test_rigidity_rejects_negative_scaling():
    assert not compact_rigidity_check(DiffOp.from_constant_table({(0,): -1.0}, 1))


def test_rigidity_randomized_corpus():
    rng = random.Random(91)
    for _ in range(50):
        c = rng.uniform(-2, 2)
        table = {(0,): c}
        extra = rng.random() < 0.5
        if extra:
            k = rng.randint(1, 4)
            table[(k,)] = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
        T = DiffOp.from_constant_table(table, 1)
        assert compact_rigidity_check(T) == (not extra and c >= 0.0)


def test_rigidity_requires_constant_coefficients():
    with pytest.raises(ValueError):
        compact_rigidity_check(DiffOp(1, {(1,): X}))


# ---------------------------------------------------------------------------
# refutation soundness: eigenvalue and grid witnesses co-occur
# ---------------------------------------------------------------------------

def test_witness_cooccurrence_scaling_family():
    tau = 0.0119688
    for t in (tau / 4, tau / 2):
        T = exp_op(scaling_cubed(), t, 4)
        assert check_preserver_rn(T, 2, [(1.0,)]).status == FAIL
        assert falsify_on_grid(T, FULL1, QUAD_TRIALS, SHORT_GRID).status == FAIL


def test_sampling_helpers_deterministic():
    assert sample_points([(-1, 1)], per_axis=5) == sample_points([(-1, 1)], per_axis=5)
    assert grid_points(KDescriptor.box([(0.0, 1.0)]), m=11) == [
        (x,) for x in np.linspace(0, 1, 11)]


def test_cone_grid_is_decided_without_nnls(monkeypatch):
    # the benchmark's cone: points on its boundary rays, whose least-squares
    # coefficients are negative only by rounding, are decided by the distance bounds
    calls = []
    nnls_residual = preserver._nnls_residual
    monkeypatch.setattr(preserver, "_nnls_residual",
                        lambda A, b: calls.append(b) or nnls_residual(A, b))
    pts = grid_points(KDescriptor.cone([(1.0, 0.0), (1.0, 1.0)]), -10.0, 10.0, 41)
    assert len(pts) == 231 and calls == []


def test_cone_threshold_is_relative_to_the_point():
    K = KDescriptor.cone([(1.0, 0.0), (1.0, 1.0)])
    assert K.contains((0.0, 0.0)) and not K.contains((-1e-12, 0.0))
    assert K.contains((1.0, -1e-10)) and not K.contains((1.0, -1e-8))


@pytest.mark.parametrize("rays", [[(1.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cone_membership_refuses_non_finite_points(rays, bad):
    # one non-finite point in a batched solve would poison the answers of the others
    with pytest.raises(ValueError, match="finite"):
        KDescriptor.cone(rays).members([(1.0, 0.5), (bad, 0.0)])


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def test_degree_excess_operator_still_checkable():
    # substitution with p = (x^2) leaves the graded algebra but the
    # coefficient-sequence test needs no matrix restriction
    from pospres.momseq import DiscreteMeasure, from_measure
    s = from_measure(DiscreteMeasure.dirac((1.0,)), 8)
    T = build_substitution_preserver([X * X], s, 8)
    assert not T.degree_preserving
    v = check_preserver_rn(T, 2, YS)
    assert v.status == PASS


def test_striphalf_univariate_edge():
    K = KDescriptor.compact_times_halfline([])
    assert K.n == 1
    sharp = ksharp(K)
    assert sharp.variant == "cone" and sharp.contains((2.0,)) and not sharp.contains((-1.0,))


def test_moment_matrix_order_zero():
    from pospres.momseq import DiscreteMeasure, from_measure, moment_matrix, is_psd
    s = from_measure(DiscreteMeasure.dirac((3.0,)), 0)
    M = moment_matrix(s, 0)
    assert M.entries.shape == (1, 1) and M.entries[0, 0] == 1.0
    assert is_psd(M) == (True, 1.0)
