"""Output checks: one function per kind of operation.

Each takes the operation's output (for a CLI op, its standard output), the
outputs of the whole pass by op name, and the op's plain-data inputs, and
returns None when the output is right or a one-line reason when it is not.
Answers are recomputed in ``reference`` or follow from properties the
method must have; nothing is compared with a stored copy of an output.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.linalg import expm

import reference as ref
from pospres import momseq, preserver

RTOL = 1e-9        # results that pass through a matrix exponential or a solve
RTOL_SUM = 1e-12   # results that are finite sums of products


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _status(verdict, status: str) -> str | None:
    if verdict.status != status:
        return f"verdict {verdict.status!r}, expected {status!r}"
    return None


def _hankel_min_eig(seq: dict, n: int, d: int):
    basis = ref.monomials(n, d)
    H = np.array([[seq[tuple(a + b for a, b in zip(r, c))] for c in basis] for r in basis])
    return float(np.linalg.eigvalsh(H)[0]), float(np.max(np.abs(H)))


def _frozen_exp_min_eig(coeffs: dict, n: int, y, t: float, d: int) -> tuple:
    """min eigenvalue of the order-d moment matrix of exp(t A_y) at the origin.

    exp(t A_y) x^alpha evaluated at 0 is alpha! q_alpha(0) = s_alpha, the
    constant entry of the image column of x^alpha.
    """
    zero = (0,) * n
    frozen = {a: {zero: ref.poly_eval(q, y)} for a, q in coeffs.items()}
    basis = ref.monomials(n, 2 * d)
    E = expm(t * ref.op_matrix(frozen, n, 2 * d))
    return _hankel_min_eig({a: E[0, j] for j, a in enumerate(basis)}, n, d)


def _eig_error(got: float, want: float, scale: float) -> str | None:
    if abs(got - want) > RTOL * max(scale, 1e-300):
        return f"witness eigenvalue {got!r} but recomputed {want!r}"
    if got >= 0.0:
        return f"witness eigenvalue {got!r} is not negative"
    return None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def verdict_is(verdict, ctx, status: str, count: int | None) -> str | None:
    err = _status(verdict, status)
    if err is None and count is not None and not re.search(rf"\b{count}\b", verdict.checked):
        err = f"checked {verdict.checked!r}, expected {count} points"
    return err


def shift_mixture_pass(verdict, ctx, op, atoms, probes, d, affine) -> str | None:
    """Pass, and the moment matrices at sampled points are sum w v v^T of the atoms."""
    err = _status(verdict, preserver.PASS)
    for y in probes:
        if err:
            break
        M = momseq.moment_matrix(preserver.coefficient_sequence(op, y, 2 * d), d)
        scale = None if affine is None else [a + b * yi for (a, b), yi in zip(affine, y)]
        err = ref.mismatch(f"moment matrix at {y}", M.entries,
                           ref.gram(atoms, M.basis.indices, scale), RTOL_SUM)
    return err


def moment_witnesses(verdict, ctx, coeffs, ys, d, count) -> str | None:
    err = _status(verdict, preserver.FAIL)
    if err is None and len(verdict.witnesses) != count:
        err = f"{len(verdict.witnesses)} witnesses, expected {count}"
    points = set(ys)
    n = len(ys[0])
    for w in verdict.witnesses if err is None else ():
        if w.y not in points or w.d != d:
            return f"witness at {w.y} with order {w.d} was not sampled"
        seq = {a: ref.poly_eval(coeffs.get(a, {}), w.y) * ref.factorial(a)
               for a in ref.monomials(n, 2 * d)}
        err = _eig_error(w.min_eigenvalue, *_hankel_min_eig(seq, n, d))
        if err:
            break
    return err


def generator_witnesses(verdict, ctx, coeffs, ys, ts, d) -> str | None:
    err = _status(verdict, preserver.FAIL)
    points = set(ys)
    for w in verdict.witnesses if err is None else ():
        t = min(ts, key=lambda s: abs(s - float(w.kind.rsplit("=", 1)[1])))
        if w.y not in points:
            return f"witness at {w.y} was not sampled"
        err = _eig_error(w.min_eigenvalue, *_frozen_exp_min_eig(coeffs, len(w.y), w.y, t, d))
        if err:
            break
    return err


def grid_witnesses(verdict, ctx, coeffs, count) -> str | None:
    """One witness per failing trial; each value is T p at the point, recomputed."""
    err = _status(verdict, preserver.FAIL)
    if err is None and len(verdict.witnesses) != count:
        err = f"{len(verdict.witnesses)} witnesses, expected {count}"
    for w in verdict.witnesses if err is None else ():
        image = ref.apply_op(coeffs, dict(w.trial.terms))
        want = ref.poly_eval(image, w.point)
        scale = ref.poly_eval({b: abs(c) for b, c in image.items()},
                              [abs(x) for x in w.point])
        if abs(w.value - want) > RTOL_SUM * scale or w.value >= 0.0:
            return f"grid witness value {w.value!r} at {w.point}, recomputed {want!r}"
    return err


def cone_grid(points, ctx, lo, hi, m) -> str | None:
    """Exactly the grid points with 0 <= x2 <= x1, in grid order."""
    axis = [float(v) for v in np.linspace(lo, hi, m)]
    want = [(x, y) for x in axis for y in axis if 0.0 <= y <= x]
    if list(points) != want:
        extra = [p for p in points if p not in set(want)]
        return (f"{len(points)} cone points, expected {len(want)}"
                + (f"; {extra[0]} is outside the cone" if extra else ""))
    return None


def _sigma_row_error(t: float, h2: float, s3: float) -> str | None:
    if abs(h2 - ref.h2(t)) > RTOL_SUM * ref.h2_scale(t):
        return f"h2({t!r}) = {h2!r}, closed form {ref.h2(t)!r}"
    H = ref.sigma_hankel(t)
    want = float(np.linalg.eigvalsh(H)[0])
    if abs(s3 - want) > RTOL * float(np.max(np.abs(H))):
        return f"sigma3({t!r}) = {s3!r}, recomputed {want!r}"
    return None


def _sigma_sign_error(rows) -> str | None:
    """h2 < 0 before the paper's tau_sigma and > 0 after it."""
    tau, unit = ref.TAU_SIGMA_PAPER
    for t, h2, _ in rows:
        if (t < tau - unit and h2 >= 0.0) or (t > tau + unit and h2 <= 0.0):
            return f"h2({t!r}) = {h2!r} has the wrong sign for tau_sigma = {tau}"
    return None


def _csv_rows(text: str, header: str) -> list | None:
    lines = text.splitlines() if isinstance(text, str) else list(text)
    if not lines or lines[0] != header:
        return None
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def sigma_rows(rows, ctx, ts) -> str | None:
    parsed = _csv_rows(rows, "t,h2,sigma3")
    if parsed is None or [r[0] for r in parsed] != [float(t) for t in ts]:
        return "curve rows missing or off the requested grid"
    err = _sigma_sign_error(parsed)
    for row in parsed:
        err = err or _sigma_row_error(*row)
    return err


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def exp_matches(T, ctx, gen, n, t, d) -> str | None:
    """exp_op(A, t) is exp(t M_A); exp_op(A, 2t) is also exp_op(A, t) squared."""
    got = ref.op_matrix(ref.diffop_terms(T), n, d)
    err = ref.mismatch("exp_op against expm of the generator", got,
                       expm(t * ref.op_matrix(gen, n, d)), RTOL)
    half = ctx.get("exp_op.t")
    if err is None and half is not T and half is not None:
        E = ref.op_matrix(ref.diffop_terms(half), n, d)
        err = ref.mismatch("semigroup law exp(2tA) = exp(tA) o exp(tA)", got, E @ E, RTOL)
    return err


def compose_matches(T, ctx, s, r, n, d) -> str | None:
    return ref.mismatch("compose against the matrix product",
                        ref.op_matrix(ref.diffop_terms(T), n, d),
                        ref.op_matrix(s, n, d) @ ref.op_matrix(r, n, d),
                        RTOL_SUM)


def inverse_matches(T, ctx, coeffs, n, d) -> str | None:
    prod = ref.op_matrix(coeffs, n, d) @ ref.op_matrix(ref.diffop_terms(T), n, d)
    return ref.mismatch("T o invert(T) against the identity", prod, np.eye(len(prod)), RTOL)


def heat_inverse_matches(T, ctx, heat_terms, t, d) -> str | None:
    """The exp_op input has the heat closed form, and T o invert(T) = I."""
    return (ref.mismatch("exp_op of the heat generator against the closed form",
                         ref.op_matrix(heat_terms, 2, d),
                         ref.op_matrix(ref.heat_coeffs(2, t, d), 2, d),
                         RTOL_SUM)
            or inverse_matches(T, ctx, heat_terms, 2, d))


def log_matches(T, ctx, atoms, n, d) -> str | None:
    """exp(log_op(T)) = T for the shift mixture of the atoms."""
    zero = (0,) * n
    mixture = {a: {zero: m / ref.factorial(a)} for a, m in ref.moments(atoms, n, d).items()}
    return ref.mismatch("exp(log_op(T)) against T", expm(ref.op_matrix(ref.diffop_terms(T), n, d)),
                        ref.op_matrix(mixture, n, d), RTOL)


def _expected_sequence(kind, a, b, n, order) -> dict:
    if kind == "convolve":
        return ref.moments(ref.convolved_atoms(a, b), n, order)
    if kind == "hadamard":
        return ref.moments(ref.product_atoms(a, b), n, order)
    return ref.conv_exp_series(ref.moments(a, n, order), n, order, b)


def sequence_is(seq, ctx, kind, a, b, order) -> str | None:
    n = len(a[0][0])
    want = _expected_sequence(kind, a, b, n, order)
    keys = ref.monomials(n, order)
    got = [seq.values.get(k, np.nan) for k in keys]
    return ref.mismatch(f"{kind} against the atoms' moments", got,
                        [want[k] for k in keys], RTOL if kind == "conv_exp" else RTOL_SUM)


# ---------------------------------------------------------------------------
# cli (standard output text)
# ---------------------------------------------------------------------------

def _bracket(text: str) -> tuple:
    line = next(ln for ln in text.splitlines() if ln.startswith("tau bracket:"))
    lo, hi = line.split("[", 1)[1].rstrip("]").split(",")
    return float(lo), float(hi)


def cli_tau_drift(text, ctx) -> str | None:
    return ref.bracket_error(*_bracket(text), ref.TAU_DRIFT_A1_PAPER,
                             lambda t: ref.m_drift(1.0, t))


def cli_no_threshold(text, ctx) -> str | None:
    a = 0.44721359
    if "no threshold" not in text:
        return "a drift strength below 5^(-1/2) must report no threshold"
    if any(ref.m_drift(a, t) >= 0.0 for t in (0.5, 5.0, 50.0)):
        return "closed form is nonnegative below the boundary"
    return None


def cli_tau_sigma(text, ctx) -> str | None:
    err = ref.bracket_error(*_bracket(text), ref.TAU_SIGMA_PAPER, ref.h2)
    rows = re.findall(r"^t=(\S+) h2=(\S+) sigma3=(\S+)$", text, re.M)
    if err is None and len(rows) != 2:
        err = "missing the bracket ends' h2 and sigma3"
    for row in rows:
        err = err or _sigma_row_error(*(float(v) for v in row))
    return err


def cli_sequence(text, ctx, kind, a, b) -> str | None:
    got = {k: float(v) for k, v in ref.parse_index_lines(text)}
    want = _expected_sequence(kind, a, b, 1, 6)
    if sorted(got) != sorted(want):
        return f"{kind} printed indices {sorted(got)}"
    return ref.mismatch(f"{kind} against the atoms' moments", [got[k] for k in want],
                        list(want.values()), RTOL_SUM)


def cli_hankel(text, ctx, atoms, d) -> str | None:
    *rows, last = text.splitlines()
    m = ref.moments(atoms, 1, 2 * d)
    H = np.array([[m[(i + j,)] for j in range(d + 1)] for i in range(d + 1)])
    got = np.array([[float(v) for v in row.split(",")] for row in rows])
    err = ref.mismatch("Hankel matrix", got, H, RTOL_SUM) if got.shape == H.shape else \
        f"Hankel matrix of shape {got.shape}, expected {H.shape}"
    lam = re.fullmatch(r"minEig=(\S+) psd=(yes|no)", last)
    if err is None and lam is None:
        err = f"unreadable last line {last!r}"
    if err is None:
        want = float(np.linalg.eigvalsh(H)[0])
        if abs(float(lam.group(1)) - want) > RTOL * float(np.max(np.abs(H))):
            err = f"minEig {lam.group(1)}, recomputed {want!r}"
        elif lam.group(2) != "yes":
            err = "moments of a measure must be psd"
    return err


def cli_carleman(text, ctx) -> str | None:
    # moments of a compactly supported measure grow geometrically
    if text.strip() != momseq.DIVERGES_LIKELY:
        return f"carleman indicator {text.strip()!r} for a compactly supported measure"
    return None


def cli_status(text, ctx, status, fragment) -> str | None:
    if not text.startswith(f"status: {status}\n"):
        return f"first line {text.splitlines()[:1]}, expected status {status}"
    if fragment not in text:
        return f"missing {fragment!r}"
    return None


def cli_exp_drift(text, ctx, a, t) -> str | None:
    n, coeffs = ref.parse_operator_text(text)
    return ref.mismatch("exp of the drift generator against its closed form",
                        ref.op_matrix(coeffs, n, 2), ref.drift_expm_closed(a, t), RTOL)


def cli_inverse(text, ctx, coeffs, d) -> str | None:
    n, inv = ref.parse_operator_text(text)
    prod = ref.op_matrix(coeffs, n, d) @ ref.op_matrix(inv, n, d)
    return ref.mismatch("T o invert(T) against the identity", prod, np.eye(len(prod)), RTOL)


def cli_log(text, ctx, coeffs, d) -> str | None:
    n, log = ref.parse_operator_text(text)
    return ref.mismatch("exp(log T) against T", expm(ref.op_matrix(log, n, d)),
                        ref.op_matrix(coeffs, n, d), RTOL)


def cli_compose(text, ctx, coeffs, d) -> str | None:
    n, comp = ref.parse_operator_text(text)
    M = ref.op_matrix(coeffs, n, d)
    return ref.mismatch("compose against the matrix product", ref.op_matrix(comp, n, d),
                        M @ M, RTOL_SUM)


def cli_levy(text, ctx, triple, D) -> str | None:
    """Generator of sigma, no drift, and one jump atom z (|z| >= 1) of weight w."""
    sigma, z, w = triple
    a = {k: w * z ** k for k in range(1, D + 1)}
    a[2] += sigma
    want = [a[k] / ref.factorial((k,)) for k in range(1, D + 1)]
    n, got = ref.parse_operator_text(text)
    if sorted(got) != [(k,) for k in range(1, D + 1)]:
        return f"generator has coefficients {sorted(got)}"
    return ref.mismatch("generator coefficients", [got[(k,)].get((0,), np.nan)
                                                   for k in range(1, D + 1)], want, RTOL_SUM)


def cli_curve_sigma(text, ctx, lo, hi, m) -> str | None:
    rows = _csv_rows(text, "t,h2,sigma3")
    if rows is None or [r[0] for r in rows] != [float(t) for t in np.linspace(lo, hi, m)]:
        return "curve rows missing or off the requested grid"
    err = _sigma_sign_error(rows)
    for row in rows:
        err = err or _sigma_row_error(*row)
    return err


def cli_curve_drift(text, ctx, a, lo, hi, m) -> str | None:
    rows = _csv_rows(text, "t,m")
    if rows is None or [r[0] for r in rows] != [float(t) for t in np.linspace(lo, hi, m)]:
        return "curve rows missing or off the requested grid"
    for t, val in rows:
        if abs(val - ref.m_drift(a, t)) > RTOL_SUM * ref.m_drift_scale(a, t):
            return f"m({a}, {t!r}) = {val!r}, closed form {ref.m_drift(a, t)!r}"
    return None


def cli_generator_fail(text, ctx, coeffs, d, t) -> str | None:
    lines = text.splitlines()
    fails = [re.fullmatch(r"FAIL y=\((\S+)\) d=(\d+) minEig=(\S+)", ln) for ln in lines]
    fails = [m for m in fails if m]
    if lines[:1] != ["status: FAIL"] or not fails:
        return "a generator with a third-order term must be refuted with witnesses"
    if not lines[-1].startswith("finite-order form: FAIL"):
        return "the finite-order form must fail on a third-order term"
    for m in fails:
        y = tuple(float(v) for v in m.group(1).split(","))
        err = _eig_error(float(m.group(3)), *_frozen_exp_min_eig(coeffs, len(y), y, t, d))
        if err:
            return err
    return None


def cli_usage_error(text, ctx) -> str | None:
    return None if text == "" else "a usage error must print nothing on stdout"
