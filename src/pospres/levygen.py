"""Generators of positivity-preserving semigroups.

Constant-coefficient generators on R^n are parameterized by a triple
(a_0, Sigma, b, nu): a free scalar, a positive semidefinite diffusion
matrix, a drift vector, and a jump measure whose moments feed every
coefficient of order >= 2 (and, for atoms of norm >= 1, the drift).  On a
compact set crossed with [0, inf) the diffusion disappears and only a
nonnegative drift plus a jump measure on (0, inf) survive.  Those two
constructions are sound by theory; everything else in this module is a
sampling-based necessary check or a falsifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import (
    CLOUD_BLOCK,
    DimensionMismatchError,
    Poly,
    evaluate,
    iter_multiindices,
    mi_degree,
    mi_factorial,
    format_point,
    read_records,
)
from .diffop import (
    DiffOp,
    TruncationError,
    apply,
    exp_op,
    matrix_rep,
)
from .momseq import (
    DiscreteMeasure,
    MomentSeq,
    convolve,
    conv_exp,
    from_measure,
    moment_matrices,
    psd_stack,
)
from .preserver import (
    PreserverVerdict,
    Witness,
    coefficient_sequences,
    global_min_univariate,
    grid_witnesses,
    require_nonempty,
)


@dataclass(frozen=True)
class LevyTriple:
    """Constant-coefficient generator data (a0, Sigma, b, nu) with discrete nu."""

    a0: float
    sigma: np.ndarray
    b: np.ndarray
    nu: DiscreteMeasure | None = None
    order: int = 8

    def __post_init__(self):
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        n = sigma.shape[0]
        if sigma.shape != (n, n):
            raise DimensionMismatchError("sigma must be square")
        if b.shape != (n,):
            raise DimensionMismatchError("drift vector has wrong length")
        if not np.isfinite(sigma).all():
            raise ValueError("sigma must be finite")
        # both tests read sigma / max|sigma|, so acceptance does not change under
        # sigma -> c sigma, c > 0; sigma = 0 is valid
        scale = float(np.max(np.abs(sigma)))
        unit = sigma / scale if scale > 0.0 else sigma
        if np.max(np.abs(unit - unit.T)) > 1e-12:
            raise ValueError("sigma must be symmetric")
        if float(np.linalg.eigvalsh(unit)[0]) < -1e-12:
            raise ValueError("sigma must be positive semidefinite")
        if self.nu is not None and self.nu.n != n:
            raise DimensionMismatchError("jump measure has wrong dimension")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class LevyField:
    """Pointwise generator data with polynomial dependence on the base point.

    ``sigma_polys`` is an n x n symmetric matrix of polynomials of degree
    <= 2, ``b_polys`` a vector of polynomials of degree <= 1, ``nu_field``
    an optional map y -> DiscreteMeasure, and ``nu_coeff_polys`` the
    optional polynomial jump contributions to each coefficient index used
    when assembling the non-constant operator (the field itself is sampled,
    measures are never interpolated).
    """

    a0: float
    sigma_polys: tuple
    b_polys: tuple
    nu_field: object = None
    nu_coeff_polys: dict | None = None

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.sigma_polys)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise DimensionMismatchError("sigma_polys must be square")
            for q in row:
                if q.degree > 2:
                    raise ValueError("sigma entries must have degree <= 2")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("sigma_polys must be symmetric as polynomials")
        bp = tuple(self.b_polys)
        if len(bp) != n:
            raise DimensionMismatchError("b_polys has wrong length")
        for q in bp:
            if q.degree > 1:
                raise ValueError("drift entries must have degree <= 1")
        object.__setattr__(self, "sigma_polys", rows)
        object.__setattr__(self, "b_polys", bp)

    @property
    def n(self) -> int:
        return len(self.sigma_polys)


# ---------------------------------------------------------------------------
# sound constructors
# ---------------------------------------------------------------------------

def generator_from_levy(tr: LevyTriple, D: int | None = None) -> DiffOp:
    """Constant-coefficient generator assembled from a triple on R^n.

    a_{e_i} = b_i + (moment of x_i over atoms with ||x||_2 >= 1),
    a_{e_i+e_j} = sigma_{ij} + nu-moment, a_alpha = nu-moment for
    |alpha| >= 3, a_0 as given; the operator coefficient is a_alpha/alpha!.
    Atoms inside the open unit ball feed only the order->=2 coefficients,
    matching the compensated-drift convention.
    """
    n = tr.n
    D = tr.order if D is None else D
    vals: dict = {}
    zero = (0,) * n
    if tr.a0 != 0.0:
        vals[zero] = tr.a0
    for i in range(n):
        e_i = tuple(1 if k == i else 0 for k in range(n))
        drift = tr.b[i]
        if tr.nu is not None:
            drift += sum(w * p[i] for p, w in tr.nu.atoms
                         if math.sqrt(sum(x * x for x in p)) >= 1.0)
        if drift != 0.0:
            vals[e_i] = drift
    for i in range(n):
        for j in range(i, n):
            alpha = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(n))
            v = tr.sigma[i, j]
            if tr.nu is not None:
                v += tr.nu.moment(alpha)
            if v != 0.0:
                vals[alpha] = v
    if tr.nu is not None:
        for alpha in iter_multiindices(n, D):
            if mi_degree(alpha) < 3:
                continue
            v = tr.nu.moment(alpha)
            if v != 0.0:
                vals[alpha] = v
    table = {a: v / mi_factorial(a) for a, v in vals.items()}
    return DiffOp.from_constant_table(table, n, max_order=D)


def generator_from_levy_halfline(a0: float, b: float, nu: DiscreteMeasure | None,
                                 D: int) -> DiffOp:
    """Generator of a [0, inf)-preserving semigroup: scaling + right drift + jumps.

    Requires b >= 0 and all jump atoms strictly positive; a_1 = b + first
    nu-moment, a_k = k-th nu-moment for k >= 2, a_0 free sign.
    """
    if b < 0:
        raise ValueError("half-line drift must be >= 0")
    if nu is not None:
        if nu.n != 1:
            raise DimensionMismatchError("half-line jump measure is univariate")
        if any(p[0] <= 0.0 for p, _ in nu.atoms):
            raise ValueError("half-line jump atoms must be strictly positive")
    vals = {}
    if a0 != 0.0:
        vals[(0,)] = a0
    a1 = b + (nu.moment((1,)) if nu is not None else 0.0)
    if a1 != 0.0:
        vals[(1,)] = a1
    if nu is not None:
        for k in range(2, D + 1):
            v = nu.moment((k,))
            if v != 0.0:
                vals[(k,)] = v
    table = {a: v / mi_factorial(a) for a, v in vals.items()}
    return DiffOp.from_constant_table(table, 1, max_order=D)


def semigroup_moments(a0: float, beta: float, s: MomentSeq, t: float) -> MomentSeq:
    """Moments of the representing measure of the time-t semigroup element.

    For the univariate generator D(s) + beta*d/dx + a0 the measure is
    exp(a0 t) * (convolution exponential of t*mu) shifted by beta*t; this
    is the series route that cross-checks the matrix exponential route.
    """
    if s.n != 1:
        raise DimensionMismatchError("semigroup moments are univariate")
    ce = conv_exp(s, t)
    shift = from_measure(DiscreteMeasure.dirac((beta * t,)), s.order)
    out = convolve(ce, shift).scale(math.exp(a0 * t))
    return MomentSeq(1, s.order, out.values)


# ---------------------------------------------------------------------------
# sampling checks and falsifiers
# ---------------------------------------------------------------------------

def check_generator_rn(A: DiffOp, d: int, ys, ts, tol: float = 1e-10) -> PreserverVerdict:
    """Freeze A at sampled points, exponentiate, and run the moment test.

    A refuted exp(t A_y) soundly refutes A as a generator; all-pass remains
    inconclusive (finitely many y, t and one matrix order were sampled).
    No point or no time leaves no cell and raises ValueError.
    """
    if any(t <= 0 for t in ts):
        raise ValueError("sample times must be positive")
    cells = [(tuple(y), t) for y in ys for t in ts]
    origin = [(0.0,) * A.n]
    witnesses = []
    for lo in range(0, len(cells), CLOUD_BLOCK):
        block = cells[lo:lo + CLOUD_BLOCK]
        frozen = {y: A.freeze_at(y) for y in {y for y, _ in block}}
        S = np.array([coefficient_sequences(exp_op(frozen[y], float(t), 2 * d), origin, 2 * d)[0]
                      for y, t in block])
        ok, lam = psd_stack(moment_matrices(S, A.n, d), tol)
        witnesses += [Witness(y=block[k][0], d=d, min_eigenvalue=float(lam[k]),
                              kind=f"exp(t*A_y) at t={block[k][1]:g}")
                      for k in np.flatnonzero(~ok)]
    return PreserverVerdict.decide(
        witnesses, f"{len(cells)} frozen (y, t) cells, moment order {d}", len(cells))


def check_finite_order_generator(A: DiffOp, ys, tol: float = 1e-10) -> PreserverVerdict:
    """Necessary form of a finite-order generator on R^n.

    Only order <= 2 survives: any nonzero coefficient of order >= 3 refutes
    immediately, and the matrix of second-order coefficients must be
    positive semidefinite pointwise.  For n = 1 the scalar second-order
    coefficient is checked exactly by global minimisation, otherwise it is
    sampled at the given points; then an empty point list raises ValueError.
    """
    zero = (0,) * A.n
    for scanned, (alpha, q) in enumerate(A.sorted_coeffs(), 1):
        if mi_degree(alpha) >= 3 and not q.is_zero():
            w = Witness(kind=f"order-{mi_degree(alpha)} coefficient {alpha}",
                        min_eigenvalue=-math.inf)
            return PreserverVerdict.decide([w], "coefficient order scan", scanned)
        if alpha != zero and q.degree > mi_degree(alpha):
            # drift entries must be affine and diffusion entries quadratic
            w = Witness(kind=f"degree of coefficient {alpha}", min_eigenvalue=-math.inf)
            return PreserverVerdict.decide([w], "coefficient degree scan", scanned)
    if A.n == 1:
        mn, arg = global_min_univariate(A.coefficient((2,)) * 2.0)
        if mn < -tol:
            w = Witness(y=(arg,), d=1, min_eigenvalue=mn, kind="second-order coefficient")
            return PreserverVerdict.decide([w], "exact pointwise second-order scan", 1)
        return PreserverVerdict.decide([], f"order <= 2 and min 2*q_2 = {mn:.3g} >= 0", 1)
    witnesses = []
    pts = [tuple(y) for y in ys]
    pairs = [(i, j) for i in range(A.n) for j in range(A.n)]
    second = [A.coefficient(tuple((k == i) + (k == j) for k in range(A.n))) for i, j in pairs]
    factor = np.array([2.0 if i == j else 1.0 for i, j in pairs])[:, None]
    for lo in range(0, len(pts), CLOUD_BLOCK):
        block = pts[lo:lo + CLOUD_BLOCK]
        M = (factor * evaluate(second, block)).T.reshape(-1, A.n, A.n)
        ok, lam = psd_stack(M, tol)
        witnesses += [Witness(y=block[k], d=1, min_eigenvalue=float(lam[k]),
                              kind="second-order matrix") for k in np.flatnonzero(~ok)]
    return PreserverVerdict.decide(
        witnesses, f"second-order matrices at {len(pts)} points", len(pts))


def resolvent_check(A: DiffOp, d: int, lambdas, trials, grid,
                    tol: float = 1e-12) -> PreserverVerdict:
    """Falsifier for the resolvent condition (1 - lambda A_d)^{-1} C_d in C_d.

    Solves (1 - lambda A_d) q = p on the degree-d restriction for each
    nonnegative trial p and scans the grid for negative values of q.  A
    singular system at some lambda is recorded, not fatal.  Empty lists,
    or a system singular at every lambda, raise ValueError.
    """
    require_nonempty(("lambda", lambdas), ("trial", trials), ("grid", grid))
    M = matrix_rep(A, d)
    dim = M.basis.dim
    cells = []  # (witness kind, trial, image)
    singular = []
    for lam in lambdas:
        S = np.eye(dim) - float(lam) * M.entries
        try:
            S_inv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            singular.append(float(lam))
            continue
        for p in trials:
            if p.degree > d:
                raise TruncationError("trial degree exceeds the restriction")
            cells.append((f"resolvent lambda={lam:g}", p,
                          M.basis.vec_to_poly(S_inv @ M.basis.poly_to_vec(p))))
    if len(singular) == len(lambdas):
        raise ValueError(f"singular at every lambda in {singular}: nothing was evaluated")
    checked = f"{len(list(lambdas))} resolvent values, degree {d}"
    if singular:
        checked += f"; singular at lambda in {singular}"
    return PreserverVerdict.decide(grid_witnesses(cells, grid, tol), checked,
                                   len(cells) * len(grid))


def one_plus_check(A: DiffOp, d: int, lambdas, trials, grid,
                   tol: float = 1e-12) -> PreserverVerdict:
    """Falsifier for (1 + lambda A) p >= 0 on nonnegative trials.

    All-pass at small lambda supports A generating a cone-preserving
    semigroup (the sufficient direction); reported inconclusive with the
    lambda range in the summary.  Empty lists raise ValueError.
    """
    lams = [float(l) for l in lambdas]
    require_nonempty(("lambda", lams), ("trial", trials), ("grid", grid))
    cells = []
    for lam in lams:
        for p in trials:
            if p.degree > d:
                raise TruncationError("trial degree exceeds the restriction")
            cells.append((f"1+lambda*A at lambda={lam:g}", p, p + lam * apply(A, p)))
    return PreserverVerdict.decide(
        grid_witnesses(cells, grid, tol),
        f"(1 + lambda A) p scan, lambda in [{min(lams):g}, {max(lams):g}]",
        len(cells) * len(grid))


def check_generator_field_sufficient(F: LevyField, ys, D: int,
                                     tol: float = 1e-10):
    """Pointwise sufficiency test: valid triple data at every sampled point.

    At each y the frozen triple (a0, Sigma(y), b(y), nu_y) must be
    admissible (Sigma(y) PSD, positive jump weights).  If all sampled
    points pass, the polynomial-coefficient operator assembled from the
    field is returned together with a pass-by-sampling verdict; any
    inadmissible point refutes; an empty point list raises ValueError.
    Returns (verdict, operator-or-None).
    """
    witnesses = []
    pts = [tuple(y) for y in ys]
    entries = [q for row in F.sigma_polys for q in row]
    for lo in range(0, len(pts), CLOUD_BLOCK):
        block = pts[lo:lo + CLOUD_BLOCK]
        ok, lam = psd_stack(evaluate(entries, block).T.reshape(-1, F.n, F.n), tol)
        for y, ok_y, lam_y in zip(block, ok, lam.tolist()):
            if not ok_y:
                witnesses.append(Witness(y=y, d=1, min_eigenvalue=lam_y, kind="sigma(y)"))
                continue
            if F.nu_field is not None:
                nu_y = F.nu_field(y)
                if nu_y is not None and any(w <= 0 for _, w in nu_y.atoms):
                    witnesses.append(Witness(y=y, kind="nu(y) weights",
                                             min_eigenvalue=-math.inf))
    verdict = PreserverVerdict.decide(
        witnesses, f"triple admissibility at {len(pts)} points", len(pts),
        certified=f"triple admissible at all {len(pts)} sampled points (sampling only)")
    if verdict.failed:
        return verdict, None
    n = F.n
    coeffs: dict = {}
    zero = (0,) * n
    extra = F.nu_coeff_polys or {}
    if F.a0 != 0.0:
        coeffs[zero] = Poly.constant(n, F.a0)
    for i in range(n):
        e_i = tuple(1 if k == i else 0 for k in range(n))
        q = F.b_polys[i] + extra.get(e_i, Poly.zero(n))
        if not q.is_zero():
            coeffs[e_i] = q
    for i in range(n):
        for j in range(i, n):
            alpha = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(n))
            q = F.sigma_polys[i][j] + extra.get(alpha, Poly.zero(n))
            q = q * (1.0 / mi_factorial(alpha))
            if not q.is_zero():
                coeffs[alpha] = q
    for alpha, q in extra.items():
        if mi_degree(alpha) >= 3 and not q.is_zero():
            coeffs[tuple(alpha)] = q * (1.0 / mi_factorial(alpha))
    return verdict, DiffOp(n, coeffs, max_order=D)


# ---------------------------------------------------------------------------
# triple file format
# ---------------------------------------------------------------------------

def parse_levy_triple(text: str, order: int = 8) -> LevyTriple:
    """Triple file: `a0 = v`, `sigma = [[..],[..]]`, `b = (..)`, atom lines `nu (x..) w`."""
    rec = read_records(text, {"a0": "= number", "sigma": "= matrix", "b": "= point",
                              "nu": "point number"})
    if "sigma" not in rec or "b" not in rec:
        raise ValueError("triple file must define sigma and b")
    nu = DiscreteMeasure(rec["nu"]) if "nu" in rec else None
    return LevyTriple(rec.get("a0", 0.0), rec["sigma"], rec["b"], nu, order=order)


def format_levy_triple(tr: LevyTriple) -> str:
    rows = "],[".join(",".join(format(v, ".17g") for v in row) for row in tr.sigma)
    lines = [f"a0 = {format(tr.a0, '.17g')}", f"sigma = [[{rows}]]", f"b = {format_point(tr.b)}"]
    if tr.nu is not None:
        lines.extend(f"nu {format_point(p)} {format(w, '.17g')}" for p, w in tr.nu.atoms)
    return "\n".join(lines) + "\n"
