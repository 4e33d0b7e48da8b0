import math

import numpy as np
import pytest

from pospres.polyalg import Poly
from pospres.diffop import DiffOp, apply, exp_op
from pospres.momseq import moment_matrix
from pospres.eventual import (
    BOUNDARY_A,
    NoSignChangeError,
    NoThresholdError,
    ThresholdResult,
    drift_curve_rows,
    drift_example_expm,
    drift_generator_matrix,
    find_tau,
    find_tau_drift,
    find_tau_sigma,
    h2_closed,
    m_min,
    polynomial_positivity_threshold,
    sigma_curve_rows,
    sigma_example_curve,
    sigma_scaling_sequence,
)

X = Poly.variable(1, 0)


# ---------------------------------------------------------------------------
# diagonal scaling family
# ---------------------------------------------------------------------------

def test_sigma_curve_at_zero():
    h2, s3 = sigma_example_curve(0.0)
    assert h2 == pytest.approx(0.0, abs=1e-15)
    assert s3 == pytest.approx(0.0, abs=1e-12)


def test_sigma_curvature_at_zero():
    h = 1e-4
    second = (h2_closed(h) - 2 * h2_closed(0.0) + h2_closed(-h)) / h ** 2
    assert second == pytest.approx(-72.0, abs=1e-2)


def test_sigma_published_eigenvalues():
    _, s3_lo = sigma_example_curve(0.0119688)
    _, s3_hi = sigma_example_curve(0.0119689)
    assert s3_lo == pytest.approx(-3.39928e-8, rel=0.02)
    assert s3_hi == pytest.approx(1.7888e-8, rel=0.02)


def test_sigma_two_path_agreement_on_bracket_region():
    for t in np.linspace(0.001, 0.5, 40):
        closed = h2_closed(float(t))
        det = float(np.linalg.det(moment_matrix(sigma_scaling_sequence(float(t)), 2).entries))
        scale = max(1.0, math.exp(72 * float(t)))
        assert abs(closed - det) <= 1e-12 * scale


def test_sigma_moment_scale_is_at_least_one():
    # sigma_curve's cross-check scales by the largest entry cubed without a
    # floor of 1: entry (0, 0) is e^0 = 1 at every time
    for t in np.linspace(-1.0, 0.5, 301):
        M = moment_matrix(sigma_scaling_sequence(float(t)), 2).entries
        assert M[0, 0] == 1.0
        assert np.abs(M).max() >= 1.0


def test_sigma_positive_after_threshold():
    tau = find_tau_sigma(tol=1e-7).tau_hi
    for t in np.linspace(tau + 1e-4, 10.0, 500):
        assert h2_closed(float(t)) > 0.0


def test_sigma_matches_flow_restriction():
    # the sequence entries are the diagonal of the flow on quartics
    A = DiffOp(1, {(1,): X, (2,): 3.0 * X * X, (3,): X * X * X})
    t = 0.3
    T = exp_op(A, t, 4)
    from pospres.diffop import matrix_rep
    diag = np.diag(matrix_rep(T, 4).entries)
    s = sigma_scaling_sequence(t)
    assert np.allclose(diag, [s.value((k,)) for k in range(5)], rtol=1e-12)


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

def test_find_tau_linear_curve():
    res = find_tau(lambda t: t - 1.0, 0.0, 2.0, 1e-12)
    assert res.tau_lo < 1.0 <= res.tau_hi
    assert res.tau_hi - res.tau_lo <= 1e-12
    assert res.curve[0] == (0.0, -1.0)


def test_find_tau_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        find_tau(lambda t: t + 1.0, 0.0, 2.0, 1e-6)


def test_find_tau_sigma_bracket():
    res = find_tau_sigma(tol=1e-7)
    assert 1.19688e-2 < res.tau_lo
    assert res.tau_hi < 1.19689e-2
    assert res.tau_hi - res.tau_lo <= 1e-7


def test_find_tau_drift_curve_on_given_bracket():
    res = find_tau(lambda t: m_min(1.0, t), 0.5, 2.0, 1e-5)
    assert 1.1675 < res.tau_lo and res.tau_hi < 1.1676


# ---------------------------------------------------------------------------
# drift-diffusion family
# ---------------------------------------------------------------------------

def test_drift_expm_zero_time_identity():
    assert np.allclose(drift_example_expm(0.45, 0.0), np.eye(3), atol=1e-15)


def test_drift_expm_corner_entry():
    M = drift_example_expm(1.0, 1.0)
    assert M[0, 2] == pytest.approx(math.e - 3.0, rel=1e-14)


def test_drift_expm_agrees_with_generic():
    from scipy.linalg import expm
    for a in (0.45, 1.0, 10.0):
        for t in (0.1, 1.0, 5.0):
            closed = drift_example_expm(a, t)
            generic = expm(t * drift_generator_matrix(a))
            rel = np.max(np.abs(closed - generic) / np.maximum(1.0, np.abs(closed)))
            assert rel <= 1e-12


def test_drift_expm_matches_operator_route():
    a, t = 0.8, 0.9
    A = DiffOp(1, {(1,): Poly.constant(1, a), (2,): (X * X - 1.0) * 0.5})
    from pospres.diffop import matrix_rep
    M_op = matrix_rep(exp_op(A, t, 2), 2).entries
    assert np.allclose(M_op, drift_example_expm(a, t), rtol=1e-11, atol=1e-11)


def test_m_min_boundary_formula():
    for t in (0.1, 1.0, 10.0, 25.0):
        reference = (4 * math.exp(-t) * t * (t + 2) - t * (t + 8)) / (5 - 5 * math.exp(-t))
        assert m_min(BOUNDARY_A, t) == pytest.approx(reference, rel=1e-9, abs=1e-9)
        assert m_min(BOUNDARY_A, t) < 0.0


def test_m_min_published_sign_pattern():
    assert m_min(1.0, 2.0) > 0.0          # beyond the a=1 threshold
    assert m_min(0.45, 7.0) < 0.0         # below the a=0.45 threshold
    assert m_min(0.45, 8.0) > 0.0
    assert m_min(1.0, 0.5) < 0.0
    with pytest.raises(ValueError):
        m_min(1.0, 0.0)


@pytest.mark.parametrize("a", [0.3, BOUNDARY_A, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("t", [1e-3, 0.5, 2.0, 10.0, 50.0])
def test_m_min_within_noise_floor_of_50_digit_value(a, t):
    # the floor max(1, 5 a^2) holds the -E term (the larger for a = 0.3) and
    # the 5 a^2 E terms (the larger from a = 1 on)
    import mpmath
    from pospres.eventual import m_noise_floor
    with mpmath.workdps(50):
        ma, mt = mpmath.mpf(a), mpmath.mpf(t)
        E = mpmath.expm1(mt)
        exact = -E + ma * ma * (5 * E * E - (8 * mt + mt * mt) * E + 3 * mt * mt) / E
        assert abs(m_min(a, t) - exact) <= m_noise_floor(a, t)


def test_m_min_small_t_stability():
    # regrouped evaluation keeps the t^4-order structure; the raw expansion
    # is pure rounding noise here
    for t in (1e-6, 1e-5, 1e-4):
        val = m_min(100.0, t)
        approx = -t + 100.0 ** 2 * (13.0 / 12.0) * t ** 3
        assert val == pytest.approx(approx, rel=5e-2)


def test_find_tau_drift_published_brackets():
    table = {
        0.44721360: (22.655, 22.656, 2e-5),
        0.45: (7.5504, 7.5505, 2e-6),
        1.0: (1.1675, 1.1676, 2e-6),
        10.0: (9.7541e-2, 9.7542e-2, 2e-8),
        100.0: (9.6219e-3, 9.6220e-3, 2e-9),
    }
    for a, (lo, hi, tol) in table.items():
        res = find_tau_drift(a, tol=tol)
        assert lo < res.tau_lo and res.tau_hi < hi, (a, res.tau_lo, res.tau_hi)


def test_find_tau_drift_sign_symmetric():
    for a in (0.45, 1.0, 10.0):
        plus = find_tau_drift(a, tol=1e-6)
        minus = find_tau_drift(-a, tol=1e-6)
        assert (plus.tau_lo, plus.tau_hi) == (minus.tau_lo, minus.tau_hi)


def test_find_tau_drift_below_boundary():
    for a in (0.44721359, BOUNDARY_A, 0.3):
        with pytest.raises(NoThresholdError) as err:
            find_tau_drift(a)
        assert "no sign change" in str(err.value)


def test_m_negative_through_t50_below_boundary():
    from pospres.eventual import m_noise_floor
    ts = np.linspace(1e-3, 50.0, 20001)
    assert all(m_min(0.44721359, float(t)) < 0.0 for t in ts)
    # at the representable boundary the value never exceeds rounding dust
    assert all(m_min(BOUNDARY_A, float(t)) <= m_noise_floor(BOUNDARY_A, float(t))
               for t in ts)
    assert all(m_min(BOUNDARY_A, float(t)) < 0.0 for t in np.linspace(1e-3, 40.0, 8001))


# ---------------------------------------------------------------------------
# per-polynomial threshold utility
# ---------------------------------------------------------------------------

def test_polynomial_threshold_on_quartic():
    A = DiffOp(1, {(1,): X, (2,): 3.0 * X * X, (3,): X * X * X})
    p = (X - Poly.constant(1, 1.2)) ** 4
    flow = lambda t: apply(exp_op(A, t, 4), p)
    res = polynomial_positivity_threshold(flow, t_max=0.3, samples=150)
    assert res is not None
    assert 0.0 < res.tau_lo < res.tau_hi < 0.05
    # flowed polynomial is nonnegative just above, negative just below
    from pospres.preserver import global_min_univariate
    assert global_min_univariate(flow(res.tau_hi * 1.5))[0] >= -1e-12
    assert global_min_univariate(flow(res.tau_lo * 0.5))[0] < 0


def test_polynomial_threshold_none_when_still_negative():
    A = DiffOp(1, {(2,): -1.0})  # backwards heat never recovers
    p = X * X
    flow = lambda t: apply(exp_op(A, t, 2), p)
    assert polynomial_positivity_threshold(flow, t_max=1.0, samples=50) is None


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

def test_sigma_rows_format():
    rows = sigma_curve_rows([0.0, 0.01])
    assert rows[0] == "t,h2,sigma3"
    assert len(rows) == 3
    t, h2, s3 = rows[2].split(",")
    assert float(t) == 0.01
    assert float(h2) == pytest.approx(h2_closed(0.01))


def test_drift_rows_format():
    rows = drift_curve_rows(1.0, [0.5, 1.0])
    assert rows[0] == "t,m"
    assert float(rows[1].split(",")[1]) == pytest.approx(m_min(1.0, 0.5))


def test_rows_are_deterministic():
    ts = np.linspace(0.001, 0.015, 29)
    assert sigma_curve_rows(ts) == sigma_curve_rows(ts)
    assert drift_curve_rows(0.45, ts) == drift_curve_rows(0.45, ts)
