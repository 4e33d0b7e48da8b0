"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import functools
import random
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from pospres.polyalg import BasisMap, Poly
from pospres.diffop import (
    DiffOp,
    apply,
    compose,
    exp_limit_check,
    exp_op,
    invert,
    log_op,
    matrix_rep,
)
from pospres.momseq import (
    DiscreteMeasure,
    convolve,
    convolve_measures,
    dop_from_seq,
    from_measure,
    hadamard,
    hadamard_measures,
)
from pospres.preserver import (
    FAIL,
    INCONCLUSIVE,
    KDescriptor,
    check_degree2_pointwise,
    check_preserver_rn,
    compact_rigidity_check,
    falsify_on_grid,
    ksharp,
    quadratic_square_trials,
    square_trials,
)
from pospres.levygen import resolvent_check, semigroup_moments
from pospres.eventual import (
    BOUNDARY_A,
    NoThresholdError,
    drift_example_expm,
    drift_generator_matrix,
    find_tau,
    find_tau_drift,
    find_tau_sigma,
    m_min,
    sigma_example_curve,
)

HERE = Path(__file__).parent
X = Poly.variable(1, 0)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:2d} [{desc}] ... FAIL")
                raise
            print(f"\nACCEPTANCE {num:2d} [{desc}] ... PASS")
        return wrapper
    return deco


def drift_op(a: float) -> DiffOp:
    return DiffOp(1, {(1,): Poly.constant(1, a), (2,): (X * X - 1.0) * 0.5})


def scaling_cubed() -> DiffOp:
    return DiffOp(1, {(1,): X, (2,): 3.0 * X * X, (3,): X * X * X})


# ---------------------------------------------------------------------------

@criterion(1, "diagonal-family threshold and smallest eigenvalues")
def test_criterion_1_sigma_threshold():
    start = time.perf_counter()
    res = find_tau_sigma(tol=1e-7)
    _, s3_lo = sigma_example_curve(0.0119688)
    _, s3_hi = sigma_example_curve(0.0119689)
    elapsed = time.perf_counter() - start
    assert 1.19688e-2 < res.tau_lo and res.tau_hi < 1.19689e-2
    assert res.tau_hi - res.tau_lo <= 1e-7
    assert s3_lo == pytest.approx(-3.39928e-8, rel=0.02)
    assert s3_hi == pytest.approx(1.7888e-8, rel=0.02)
    assert elapsed < 1.0


@criterion(2, "drift-family threshold table and boundary cases")
def test_criterion_2_drift_thresholds():
    start = time.perf_counter()
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
    for a in (0.44721359, BOUNDARY_A):
        with pytest.raises(NoThresholdError) as err:
            find_tau_drift(a)
        assert "no sign change up to t = 50" in str(err.value)
    # negativity through the scan range (boundary value down to rounding dust)
    ts = np.linspace(1e-3, 50.0, 5001)
    assert all(m_min(0.44721359, float(t)) < 0.0 for t in ts)
    assert all(m_min(BOUNDARY_A, float(t)) < 0.0 for t in ts if t <= 40.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


@criterion(3, "closed-form vs generic matrix exponential")
def test_criterion_3_expm_agreement():
    for a in (0.45, 1.0, 10.0):
        for t in (0.1, 1.0, 5.0):
            closed = drift_example_expm(a, t)
            generic = expm(t * drift_generator_matrix(a))
            rel = np.max(np.abs(closed - generic) / np.maximum(1.0, np.abs(closed)))
            assert rel <= 1e-12, (a, t, rel)


@criterion(4, "matrix-exponential vs convolution-series moments")
def test_criterion_4_oracle_equivalence():
    rng = random.Random(20240612)
    for _ in range(3):
        atoms = [((rng.uniform(-1.5, 1.5),), rng.uniform(0.2, 1.0)) for _ in range(3)]
        s = from_measure(DiscreteMeasure(atoms), 8)
        a0 = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-1.0, 1.0)
        A = (dop_from_seq(s) + DiffOp.partial(1, (1,), beta)
             + DiffOp.from_constant_table({(0,): a0}, 1))
        M = matrix_rep(A, 8)
        for t in (0.1, 1.0):
            # s_k = (exp(tA) x^k)(0), the constant row of the matrix exponential
            E = expm(t * M.entries)
            series = semigroup_moments(a0, beta, s, t)
            for k in range(9):
                op_val = E[0, M.basis.index_of((k,))]
                want = series.value((k,))
                assert abs(op_val - want) <= 1e-10 * max(1.0, abs(want)), (t, k)


@criterion(5, "group algebra: inverse recursion, exp/log, Euler limits")
def test_criterion_5_group_algebra():
    candidates = [
        DiffOp(1, {(0,): 1.0, (1,): 1.0}),
        DiffOp(1, {(0,): 1.0, (2,): -0.3}),
        DiffOp(1, {(0,): 2.0, (1,): 0.5 * X + 0.1, (2,): 0.2 * X * X - 0.3}),
    ]
    for d in (3, 6):
        for T in candidates:
            B = invert(T, d)
            I = np.eye(BasisMap(1, d).dim)
            assert np.max(np.abs(matrix_rep(compose(T, B, d), d).entries - I)) <= 1e-10
            assert np.max(np.abs(matrix_rep(compose(B, T, d), d).entries - I)) <= 1e-10
    # exp/log round trip on a constant-coefficient generator with q0 > 0
    A = DiffOp(1, {(0,): 0.4, (2,): 1.0})
    T = exp_op(A, 1.0, 6)
    L = log_op(T, 6)
    for k in range(7):
        want = 0.4 if k == 0 else (1.0 if k == 2 else 0.0)
        assert abs(L.coefficient((k,)).coeff((0,)) - want) <= 1e-10
    T2 = exp_op(L, 1.0, 6)
    assert np.max(np.abs(matrix_rep(T2, 6).entries - matrix_rep(T, 6).entries)) <= 1e-10
    # Euler product convergence
    for A in (DiffOp.partial(1, (2,)), DiffOp(1, {(1,): X})):
        d16 = exp_limit_check(A, 1.0, 4, 16)
        d1024 = exp_limit_check(A, 1.0, 4, 1024)
        assert d1024 <= d16 / 10.0


@criterion(6, "convolution and Hadamard against measure brute force")
def test_criterion_6_measure_oracles():
    rng = random.Random(8675309)
    for _ in range(100):
        mu = DiscreteMeasure([
            ((rng.uniform(-1.5, 1.5),), rng.uniform(0.2, 1.0))
            for _ in range(rng.randint(2, 4))])
        nu = DiscreteMeasure([
            ((rng.uniform(-1.5, 1.5),), rng.uniform(0.2, 1.0))
            for _ in range(rng.randint(2, 4))])
        s, t = from_measure(mu, 6), from_measure(nu, 6)
        conv_seq = convolve(s, t)
        conv_meas = from_measure(convolve_measures(mu, nu), 6)
        had_seq = hadamard(s, t)
        had_meas = from_measure(hadamard_measures(mu, nu), 6)
        for k in range(7):
            a, b = conv_seq.value((k,)), conv_meas.value((k,))
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))
            a, b = had_seq.value((k,)), had_meas.value((k,))
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


@criterion(7, "refutation soundness below and above the thresholds")
def test_criterion_7_witness_cooccurrence():
    full = KDescriptor.full(1)
    grid = [(g,) for g in np.linspace(-6.0, 6.0, 1201)]

    # diagonal family on quartics, threshold from the closed form
    tau_sigma = find_tau_sigma(tol=1e-9).midpoint
    quartic_trials = quadratic_square_trials(np.arange(-3.0, 3.01, 0.25),
                                             np.arange(-3.0, 3.01, 0.25))
    for t in (tau_sigma / 4, tau_sigma / 2):
        T = exp_op(scaling_cubed(), t, 4)
        eig = check_preserver_rn(T, 2, [(0.7,), (1.0,), (1.5,)])
        assert eig.status == FAIL and eig.witnesses[0].min_eigenvalue < 0
        assert falsify_on_grid(T, full, quartic_trials, grid).status == FAIL
    for t in (2 * tau_sigma, 4 * tau_sigma):
        T = exp_op(scaling_cubed(), t, 4)
        assert check_preserver_rn(T, 2, [(0.7,), (1.0,), (1.5,)]).status == INCONCLUSIVE
        assert falsify_on_grid(T, full, quartic_trials, grid).status == INCONCLUSIVE

    # drift family on quadratics at a = 10; its flow threshold is computed
    # from the exact pointwise minimum of the flowed coefficients
    a = 10.0
    A = drift_op(a)
    curve = lambda t: check_degree2_pointwise(exp_op(A, t, 2))[1]
    tau_flow = find_tau(curve, 0.2, 0.6, 1e-9).midpoint
    ys = [(y,) for y in np.linspace(-3.0, 3.0, 33)]
    square = square_trials(1, np.linspace(-3.0, 3.0, 25).tolist())
    for t in (tau_flow / 4, tau_flow / 2):
        T = exp_op(A, t, 2)
        eig = check_preserver_rn(T, 1, ys)
        assert eig.status == FAIL and eig.witnesses[0].min_eigenvalue < 0
        assert falsify_on_grid(T, full, square, grid).status == FAIL
    for t in (2 * tau_flow, 4 * tau_flow):
        T = exp_op(A, t, 2)
        assert check_preserver_rn(T, 1, ys).status == INCONCLUSIVE
        assert falsify_on_grid(T, full, square, grid).status == INCONCLUSIVE


@criterion(8, "resolvent behaviours of the three reference flows")
def test_criterion_8_resolvent_examples():
    # (1 - lambda d^2)^{-1} x^2 = x^2 + 2 lambda
    A = DiffOp.partial(1, (2,))
    M = matrix_rep(A, 4)
    basis = M.basis
    for lam in (0.25, 1.0):
        qv = np.linalg.solve(np.eye(5) - lam * M.entries, basis.poly_to_vec(X * X))
        q = basis.vec_to_poly(qv)
        assert q.coeff((0,)) == pytest.approx(2 * lam, abs=1e-13)
        assert q.coeff((2,)) == pytest.approx(1.0, abs=1e-13)
        assert q.eval((0.0,)) > 0
    lam = -0.5
    qv = np.linalg.solve(np.eye(5) - lam * M.entries, basis.poly_to_vec(X * X))
    q = basis.vec_to_poly(qv)
    assert q.eval((0.0,)) == pytest.approx(2 * lam, abs=1e-13)
    grid = [(g,) for g in np.linspace(-10.0, 10.0, 2001)]
    assert resolvent_check(A, 4, [lam], [X * X], grid).status == FAIL
    assert resolvent_check(A, 4, [0.0, 0.25, 1.0], [X * X], grid).status == INCONCLUSIVE
    # scaling flow: (1 - lambda x d)^{-1} x^m = (1 - lambda m)^{-1} x^m
    E = DiffOp(1, {(1,): X})
    ME = matrix_rep(E, 6).entries
    for lam in (0.05, 0.12):
        R = np.linalg.inv(np.eye(7) - lam * ME)
        for m in range(7):
            assert abs(R[m, m] - 1.0 / (1.0 - lam * m)) <= 1e-13 * abs(R[m, m])
            off = np.abs(R[m]).sum() - abs(R[m, m])
            assert off <= 1e-13


@criterion(9, "translation-set catalogue and compact rigidity")
def test_criterion_9_ksharp_and_rigidity():
    box = ksharp(KDescriptor.box([(-1.0, 1.0)]))
    assert box.variant == "ball" and box.data == ((0.0,), 0.0)
    strip = ksharp(KDescriptor.compact_times_halfline([(-1.0, 1.0)]))
    assert strip.variant == "striphalf" and strip.data == ((0.0, 0.0),)
    cone = KDescriptor.cone([(1.0, 0.0), (0.0, 1.0)])
    assert ksharp(cone) == cone
    lat = ksharp(KDescriptor.lattice_balls(2, 0.25))
    assert lat.variant == "lattice-points"
    rng = random.Random(424242)
    for _ in range(200):
        c = rng.uniform(-2.0, 2.0)
        table = {(0,): c}
        is_scaling = rng.random() < 0.5
        if not is_scaling:
            k = rng.randint(1, 5)
            table[(k,)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        T = DiffOp.from_constant_table(table, 1)
        assert compact_rigidity_check(T) == (is_scaling and c >= 0.0)


@criterion(10, "deterministic command-line output")
def test_criterion_10_cli_determinism(run_cli):
    cases = {
        "tau_sigma": ["tau-sigma", "--tol", "1e-7"],
        "curve_drift": ["curve", "drift", "--a", "0.45", "--grid", "1:8:8"],
        "seq_conv": ["seq", "conv", "--a", "data/d1.seq", "--b", "data/d2.seq"],
    }
    for name, argv in cases.items():
        runs = [run_cli(*argv, text=False) for _ in range(2)]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        golden = (HERE / "golden" / f"{name}.txt").read_bytes()
        assert runs[0].stdout == golden
