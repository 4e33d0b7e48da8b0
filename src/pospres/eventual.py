"""Eventual-positivity thresholds for two worked semigroup families.

First family: the diagonal semigroup on quartics that scales the k-th
monomial coefficient by exp(t k^3).  Its preserver property is governed by
the 3x3 moment matrix of the scaling sequence; the determinant has the
closed form

    h2(t) = e^{72t} - e^{66t} - e^{54t} + 2 e^{36t} - e^{24t},

a double root at t = 0 with negative curvature, so the semigroup leaves
the preserver cone immediately and re-enters at a threshold found by
bisection.

Second family: the degree-two drift-diffusion operator a*d + (x^2-1)/2*d^2
on quadratics.  Its 3x3 matrix exponential is closed-form, and the
tabulated threshold curve

    m(a, t) = 1 - e^t + a^2 (5 + 8t + 4t^2 - (10+8t+t^2) e^t + 5 e^{2t})/(e^t - 1)

changes sign at the family's published thresholds for |a| > 5^{-1/2} and
stays negative below that boundary.  Note: this tabulated curve is an
independent closed form; the exact pointwise minimum of the flowed
coefficients is available separately through the preserver module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diffop import expm
from .momseq import MomentSeq, moment_matrices, psd_stack
from .polyalg import CLOUD_BLOCK


class NoSignChangeError(ValueError):
    """The curve does not change sign on the requested bracket."""


class NoThresholdError(ValueError):
    """The family has no positivity threshold at this parameter."""


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection output: a bracket [tau_lo, tau_hi] with a sign change inside."""
    tau_lo: float
    tau_hi: float
    iterations: int
    curve: tuple  # ((t, value), ...) every evaluation in order

    def __post_init__(self):
        if not self.tau_hi >= self.tau_lo:
            raise ValueError("bracket endpoints out of order")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.tau_lo + self.tau_hi)


# ---------------------------------------------------------------------------
# first family: diagonal cubic-exponent scaling on quartics
# ---------------------------------------------------------------------------

def _sigma_moments(ts) -> np.ndarray:
    """Row k holds the scaling sequence (e^{t_k j^3})_{j=0..4}."""
    import numpy as np
    S = np.array([[math.exp(t * j ** 3) for j in range(5)] for t in ts]).reshape(-1, 5)
    for j in range(5):
        if not np.isfinite(S[:, j]).all():
            raise ValueError(f"non-finite entry at {(j,)}")
    return S


def sigma_scaling_sequence(t: float) -> MomentSeq:
    """The scaling sequence (e^{t k^3})_{k=0..4} as a truncated 1-d sequence."""
    return MomentSeq(1, 4, {(k,): v for k, v in enumerate(_sigma_moments([t])[0].tolist())})


def _exp_safe(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def h2_closed(t: float) -> float:
    """Closed form of the order-2 moment-matrix determinant of the scaling sequence.

    Overflow-safe for t up to ~10.7 (the leading term saturates to +inf
    first, so the sign stays meaningful past the double-precision range).
    """
    return (_exp_safe(72 * t) - _exp_safe(66 * t) - _exp_safe(54 * t)
            + 2 * _exp_safe(36 * t) - _exp_safe(24 * t))


def sigma_curve(ts):
    """(h2, sigma3) lists for the diagonal family at each time in ts.

    h2 is evaluated by the closed form and cross-checked against the
    determinant of the assembled moment matrix; sigma3 (the smallest
    eigenvalue of that matrix) decides positive semidefiniteness.  The two
    determinant routes must agree to 1e-12 relative to the largest matrix
    entry scale cubed; near the root the determinant itself cancels to
    ~1e-8, so agreement is measured against that scale, not the value.
    Each block of times takes one stacked det and one stacked eigvalsh.
    """
    import numpy as np
    ts = [float(t) for t in ts]
    h2s, sigma3s = [], []
    for lo in range(0, len(ts), CLOUD_BLOCK):
        block = ts[lo:lo + CLOUD_BLOCK]
        M = moment_matrices(_sigma_moments(block), 1, 2)
        with np.errstate(over="ignore"):
            dets = np.linalg.det(M)
        sigma3s += psd_stack(M)[1].tolist()
        # the LU determinant loses accuracy as the entry range explodes, so the
        # cross-check tolerance scales with the cubed entry magnitude; on the
        # bracketing region (t <= 0.5) this is a genuine 1e-12 agreement.
        # Entry (0, 0) is s_0 = e^0 = 1, so big >= 1 needs no floor.
        for t, det, big in zip(block, dets.tolist(), np.abs(M).max(axis=(1, 2)).tolist()):
            closed = h2_closed(t)
            scale = big ** 3
            if math.isfinite(closed) and math.isfinite(det) and math.isfinite(scale):
                if abs(closed - det) > 1e-12 * scale:
                    raise ArithmeticError(
                        f"determinant routes disagree at t={t:g}: {closed!r} vs {det!r}")
            h2s.append(closed)
    return h2s, sigma3s


def sigma_example_curve(t: float):
    """(h2, sigma3) for the diagonal family at time t: the one-time case of ``sigma_curve``."""
    h2s, sigma3s = sigma_curve([t])
    return h2s[0], sigma3s[0]


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

def find_tau(curve, lo: float, hi: float, tol: float) -> ThresholdResult:
    """Deterministic midpoint bisection of a sign change of ``curve`` on [lo, hi].

    Requires curve(lo) < 0 < curve(hi); shrinks until hi - lo <= tol and
    records every evaluation.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    f_lo = curve(lo)
    f_hi = curve(hi)
    evals = [(lo, f_lo), (hi, f_hi)]
    if not (f_lo < 0.0 < f_hi):
        raise NoSignChangeError(
            f"no sign change: curve({lo:g}) = {f_lo:g}, curve({hi:g}) = {f_hi:g}")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = curve(mid)
        evals.append((mid, f_mid))
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        iterations += 1
        if iterations > 20000:
            raise ArithmeticError("bisection failed to converge")
    return ThresholdResult(lo, hi, iterations, tuple(evals))


def find_tau_sigma(tol: float = 1e-7, lo: float = 1e-4, hi: float = 0.1) -> ThresholdResult:
    """Threshold of the diagonal family via the closed-form determinant.

    The lower bracket end starts strictly inside (0, tau) because t = 0 is
    a double root of h2 and the function is negative immediately to its
    right.
    """
    return find_tau(h2_closed, lo, hi, tol)


# ---------------------------------------------------------------------------
# second family: drift-diffusion on quadratics
# ---------------------------------------------------------------------------

def drift_generator_matrix(a: float) -> np.ndarray:
    """Matrix of a*d + (x^2-1)/2 * d^2 on the basis {1, x, x^2}."""
    import numpy as np
    return np.array([[0.0, a, -1.0],
                     [0.0, 0.0, 2.0 * a],
                     [0.0, 0.0, 1.0]])


def drift_example_expm(a: float, t: float) -> np.ndarray:
    """Closed-form 3x3 exponential of the drift generator, cross-checked.

    Returns [[1, a t, f], [0, 1, g], [0, 0, e^t]] with
    f = (2a^2-1)(e^t-1) - 2a^2 t and g = 2a (e^t-1); the generic dense
    matrix exponential of the same generator must agree entrywise to 1e-12
    relative.
    """
    import numpy as np
    et = math.exp(t)
    f = (2 * a * a - 1.0) * (et - 1.0) - 2 * a * a * t
    g = 2 * a * (et - 1.0)
    closed = np.array([[1.0, a * t, f],
                       [0.0, 1.0, g],
                       [0.0, 0.0, et]])
    generic = expm(t * drift_generator_matrix(a))
    err = np.max(np.abs(closed - generic) / np.maximum(1.0, np.abs(closed)))
    if err > 1e-12:
        raise ArithmeticError(
            f"matrix exponential routes disagree at (a={a:g}, t={t:g}): {err:.3e}")
    return closed


BOUNDARY_A = 5.0 ** -0.5  # below or at this drift strength no threshold exists


def m_min(a: float, t: float) -> float:
    """Tabulated threshold curve of the drift-diffusion family, t > 0.

    Evaluated in the regrouped form
        m * (e^t - 1) = -(e^t - 1)^2 + a^2 (5 E^2 - (8t + t^2) E + 3 t^2),
    E = expm1(t), which is algebraically identical to the expanded
    expression but avoids the catastrophic cancellation of the five
    exponential terms for small t (the expanded form is pure noise below
    t ~ 1e-4 against the true t^4 behaviour).
    """
    if t <= 0:
        raise ValueError("curve defined for t > 0")
    E = math.expm1(t)
    return -E + a * a * (5 * E * E - (8 * t + t * t) * E + 3 * t * t) / E


def m_noise_floor(a: float, t: float) -> float:
    """Rounding scale of m_min at (a, t).

    The two E^2 blocks cancel exactly at |a| = 5^{-1/2}, so for large t the
    computed value carries dust of order eps * E * max(1, 5 a^2); sign
    decisions closer to zero than this are meaningless.  The max is a real
    scale, not a guard: the largest terms of m are -E and about 5 a^2 E, and
    for |a| < 5^{-1/2} the first one is the larger.
    """
    E = math.expm1(t)
    return 8.0 * 2.220446049250313e-16 * E * max(1.0, 5.0 * a * a)


def find_tau_drift(a: float, tol: float = 1e-6, t_max: float = 50.0) -> ThresholdResult:
    """Threshold of the drift-diffusion family, symmetric in the sign of a.

    The curve depends on a only through a^2, so tau(a) = tau(-a) exactly.
    For |a| <= 5^{-1/2} the curve stays nonpositive: the bracket expansion
    is run up to t_max to confirm no sign change, then NoThresholdError is
    raised.  Otherwise the bracket is grown geometrically from tol and
    bisected.
    """
    mag = abs(a)
    curve = lambda t: m_min(mag, t)
    lo = max(tol * 0.5, 1e-9)
    if curve(lo) >= 0.0:
        raise ArithmeticError("curve unexpectedly nonnegative at the left bracket end")
    hi = None
    t = lo
    while t < t_max:
        t *= 2.0
        # sign decisions below the cancellation noise floor are dust, not
        # evidence of a crossing
        if curve(min(t, t_max)) > m_noise_floor(mag, min(t, t_max)):
            hi = min(t, t_max)
            break
        lo = min(t, t_max)
    if mag <= BOUNDARY_A:
        if hi is not None:
            raise ArithmeticError(
                "sign change found below the structural boundary; numerical anomaly")
        raise NoThresholdError(
            f"|a| = {mag:.10g} <= 5^(-1/2): no sign change up to t = {t_max:g}; "
            "the family never re-enters the preserver cone")
    if hi is None:
        raise NoSignChangeError(f"no sign change found up to t = {t_max:g}")
    return find_tau(curve, lo, hi, tol)


# ---------------------------------------------------------------------------
# per-polynomial threshold (best effort) and curve emission
# ---------------------------------------------------------------------------

def polynomial_positivity_threshold(flow, t_max: float = 10.0,
                                    samples: int = 400, tol: float = 1e-9):
    """Best-effort smallest time after which a flowed polynomial stays nonnegative.

    ``flow(t)`` must return the time-t image of the polynomial of interest
    as a univariate polynomial; positivity is decided by exact global
    minimisation.  The time axis is sampled uniformly and the last sign
    change is bisected.  No termination guarantee: returns None when the
    image is still negative at t_max.
    """
    from .preserver import global_min_univariate

    def minval(t):
        return global_min_univariate(flow(t))[0]

    ts = [t_max * (k + 1) / samples for k in range(samples)]
    vals = [minval(t) for t in ts]
    if vals[-1] < 0:
        return None
    last_neg = None
    for t, v in zip(ts, vals):
        if v < 0:
            last_neg = t
    if last_neg is None:
        return ThresholdResult(0.0, ts[0], 0, ((ts[0], vals[0]),))
    hi = next(t for t, v in zip(ts, vals) if t > last_neg and v >= 0)
    res = find_tau(minval, last_neg, hi, tol)
    return res


def sigma_curve_rows(ts) -> list:
    """CSV rows `t,h2,sigma3` with 17 significant digits."""
    rows = ["t,h2,sigma3"]
    for t, h2, s3 in zip(ts, *sigma_curve(ts)):
        rows.append(f"{format(float(t), '.17g')},{format(h2, '.17g')},{format(s3, '.17g')}")
    return rows


def drift_curve_rows(a: float, ts) -> list:
    """CSV rows `t,m` with 17 significant digits."""
    rows = ["t,m"]
    for t in ts:
        rows.append(f"{format(float(t), '.17g')},{format(m_min(a, float(t)), '.17g')}")
    return rows
