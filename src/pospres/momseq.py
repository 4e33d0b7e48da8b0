"""Truncated moment-sequence algebra.

A truncated sequence stores one real value per multi-index up to a
truncation order.  The algebra mirrors operations on representing
measures: the binomial convolution of sequences corresponds to measure
convolution, the Hadamard product to the coordinatewise product measure,
and the constant-coefficient operator attached to a sequence composes like
the sequences convolve.  Positive semidefiniteness of the (optionally
localized) moment matrices is the workhorse necessary condition used by
all preserver checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import (
    INDEX,
    BasisMap,
    DimensionMismatchError,
    MultiIndex,
    Poly,
    graded_basis,
    hankel_index,
    iter_multiindices,
    iter_multiindices_leq,
    mi_binom,
    mi_degree,
    mi_factorial,
    format_index,
    format_point,
    read_records,
)
from .diffop import SHIFT_MIXTURE, DiffOp, TruncationError


class DiscreteMeasure:
    """Finitely atomic measure: list of (point, positive weight)."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        norm = []
        n = None
        for point, w in atoms:
            point = tuple(float(x) for x in point)
            if n is None:
                n = len(point)
            elif len(point) != n:
                raise DimensionMismatchError("atoms have mixed dimensions")
            w = float(w)
            if w <= 0.0:
                raise ValueError(f"atom weight must be positive, got {w}")
            norm.append((point, w))
        if not norm:
            raise ValueError("measure needs at least one atom")
        object.__setattr__(self, "atoms", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    def __eq__(self, other):
        return isinstance(other, DiscreteMeasure) and self.atoms == other.atoms

    __hash__ = None

    @property
    def n(self) -> int:
        return len(self.atoms[0][0])

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        return cls([(tuple(point), 1.0)])

    def moment(self, alpha: MultiIndex) -> float:
        total = 0.0
        for point, w in self.atoms:
            m = w
            for x, a in zip(point, alpha):
                if a:
                    m *= x ** a
            total += m
        return total


MAX_SEQUENCE_ENTRIES = 100_000  # binom(n + order, n) above this is refused before allocation


class MomentSeq:
    """Dense truncated real sequence (s_alpha) for |alpha| <= order.

    ``measure`` optionally records the discrete measure the sequence was
    built from; constructive preserver checks use it as a certificate.  A
    table of more than MAX_SEQUENCE_ENTRIES entries raises ValueError.
    """

    __slots__ = ("n", "order", "values", "measure")

    def __init__(self, n: int, order: int, values: dict | None = None,
                 measure: DiscreteMeasure | None = None):
        if n < 1 or order < 0:
            raise ValueError("need n >= 1 and order >= 0")
        entries = math.comb(n + order, n)
        if entries > MAX_SEQUENCE_ENTRIES:
            raise ValueError(f"a sequence of order {order} in {n} variables has {entries} "
                             f"entries, above the cap of {MAX_SEQUENCE_ENTRIES}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        dense = {}
        values = values or {}
        for alpha in iter_multiindices(n, order):
            v = float(values.get(alpha, 0.0))
            if not math.isfinite(v):
                raise ValueError(f"non-finite entry at {alpha}")
            dense[alpha] = v
        for alpha in values:
            if tuple(alpha) not in dense:
                raise TruncationError(f"entry {alpha} beyond truncation order {order}")
        object.__setattr__(self, "values", dense)
        object.__setattr__(self, "measure", measure)

    def __setattr__(self, name, value):
        raise AttributeError("MomentSeq is immutable")

    def value(self, alpha: MultiIndex) -> float:
        alpha = tuple(alpha)
        if alpha not in self.values:
            raise TruncationError(f"entry {alpha} beyond truncation order {self.order}")
        return self.values[alpha]

    def marginal(self, j: int) -> list:
        """The 1-d marginal sequence ( s_{k e_j} )_{k <= order}."""
        if not 0 <= j < self.n:
            raise ValueError("marginal index out of range")
        out = []
        for k in range(self.order + 1):
            alpha = tuple(k if i == j else 0 for i in range(self.n))
            out.append(self.values[alpha])
        return out

    def scale(self, c: float) -> "MomentSeq":
        return MomentSeq(self.n, self.order, {a: c * v for a, v in self.values.items()})

    def __add__(self, other: "MomentSeq") -> "MomentSeq":
        if self.n != other.n:
            raise DimensionMismatchError("arities differ")
        order = min(self.order, other.order)
        return MomentSeq(self.n, order, {
            a: self.values[a] + other.values[a] for a in iter_multiindices(self.n, order)})

    def __eq__(self, other):
        return (isinstance(other, MomentSeq) and self.n == other.n
                and self.order == other.order and self.values == other.values)

    __hash__ = None

    def __repr__(self):
        head = ", ".join(f"{a}: {v:g}" for a, v in list(sorted(self.values.items()))[:6])
        return f"MomentSeq(n={self.n}, order={self.order}, {{{head}, ...}})"


@dataclass(frozen=True)
class MomentMatrix:
    """Moment matrix entry(beta, gamma) = sum_kappa w_kappa s_{beta+gamma+kappa}.

    Without a weight this is the plain (Hankel-type) moment matrix; with a
    weight polynomial w it is the localized matrix whose positivity encodes
    the support condition w >= 0 for the representing measure.
    """
    basis: BasisMap
    entries: np.ndarray
    weight: Poly | None = None


# ---------------------------------------------------------------------------
# constructors and algebra
# ---------------------------------------------------------------------------

def from_measure(mu: DiscreteMeasure, order: int) -> MomentSeq:
    """Moments s_alpha = sum_atoms w * x^alpha, summed in atom order."""
    vals = {a: mu.moment(a) for a in iter_multiindices(mu.n, order)}
    return MomentSeq(mu.n, order, vals, measure=mu)


def dop_from_seq(s: MomentSeq) -> DiffOp:
    """Constant-coefficient operator with q_alpha = s_alpha / alpha!."""
    table = {a: v / mi_factorial(a) for a, v in s.values.items() if v != 0.0}
    cert = (SHIFT_MIXTURE, s.measure) if s.measure is not None else None
    return DiffOp.from_constant_table(table, s.n, max_order=s.order, certificate=cert)


def convolve(s: MomentSeq, t: MomentSeq) -> MomentSeq:
    """Binomial convolution u_alpha = sum_{beta<=alpha} binom(alpha,beta) s_beta t_{alpha-beta}."""
    if s.n != t.n:
        raise DimensionMismatchError("arities differ")
    order = min(s.order, t.order)
    out = {}
    for alpha in iter_multiindices(s.n, order):
        acc = 0.0
        for beta in iter_multiindices_leq(alpha):
            acc += mi_binom(alpha, beta) * s.values[beta] * t.values[
                tuple(a - b for a, b in zip(alpha, beta))]
        out[alpha] = acc
    measure = None
    if s.measure is not None and t.measure is not None:
        measure = convolve_measures(s.measure, t.measure)
    return MomentSeq(s.n, order, out, measure=measure)


def nilpotent_series(N: MomentSeq, coeffs) -> MomentSeq:
    """sum_k coeffs[k] N^{*k} for a sequence with N_0 = 0, where N^{*0} = e.

    N^{*k} vanishes below degree k, so truncated at N.order the series ends
    at k = N.order and is exact; ``coeffs`` holds its N.order + 1 terms.
    Exp, log and inverse of constant-coefficient operators are such series.
    """
    if N.values[(0,) * N.n] != 0.0:
        raise ValueError("nilpotent series needs N_0 = 0")
    power = MomentSeq(N.n, N.order, {(0,) * N.n: 1.0})
    acc = power.scale(coeffs[0])
    for c in coeffs[1:]:
        power = convolve(power, N)
        acc = acc + power.scale(c)
    return acc


def hadamard(s: MomentSeq, t: MomentSeq) -> MomentSeq:
    """Entrywise product (s_alpha * t_alpha)."""
    if s.n != t.n:
        raise DimensionMismatchError("arities differ")
    order = min(s.order, t.order)
    out = {a: s.values[a] * t.values[a] for a in iter_multiindices(s.n, order)}
    measure = None
    if s.measure is not None and t.measure is not None:
        measure = hadamard_measures(s.measure, t.measure)
    return MomentSeq(s.n, order, out, measure=measure)


def convolve_measures(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Measure convolution: atoms at x+y with product weights."""
    return DiscreteMeasure([
        (tuple(a + b for a, b in zip(p, q)), w1 * w2)
        for p, w1 in mu.atoms for q, w2 in nu.atoms])


def hadamard_measures(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Coordinatewise product measure: atoms at (x1 y1, ..., xn yn)."""
    return DiscreteMeasure([
        (tuple(a * b for a, b in zip(p, q)), w1 * w2)
        for p, w1 in mu.atoms for q, w2 in nu.atoms])


def conv_exp(s: MomentSeq, t: float) -> MomentSeq:
    """Convolution exponential sum_k t^k/k! s^{*k}, truncated at s.order.

    With N = s - s_0 e this is e^{t s_0} sum_{k <= order} t^k/k! N^{*k}:
    N is nilpotent under truncation, so the finite sum is the whole series.
    """
    N = MomentSeq(s.n, s.order, {a: v for a, v in s.values.items() if any(a)})  # drops the measure
    coeffs = [1.0]
    for k in range(1, s.order + 1):
        coeffs.append(coeffs[-1] * t / k)
    return nilpotent_series(N, coeffs).scale(math.exp(t * s.values[(0,) * s.n]))


# ---------------------------------------------------------------------------
# moment matrices and the PSD test
# ---------------------------------------------------------------------------

def moment_matrices(S: np.ndarray, n: int, d: int, weight=None) -> np.ndarray:
    """Moment matrices of order d of the sequences in the rows of S, shape (rows, dim, dim).

    Each row of S holds one sequence in graded order.  The plain matrices are
    one gather through the Hankel table; ``weight`` lists localizing terms
    (kappa, c) in graded order, c a scalar or one value per row, and entry
    (beta, gamma) becomes the sum over the terms of c * s_{beta+gamma+kappa}.
    """
    if weight is None:
        return S[:, hankel_index(n, d)]
    out = np.zeros((len(S),) + hankel_index(n, d).shape)
    for kappa, c in weight:
        out += np.reshape(c, (-1, 1, 1)) * S[:, hankel_index(n, d, tuple(kappa))]
    return out


def psd_stack(A: np.ndarray, tol: float = 1e-10):
    """(PSD?, smallest eigenvalue) for each matrix of the stack A, as two arrays.

    One stacked eigvalsh; matrix k passes when its smallest eigenvalue is at
    least -tol * max |A_k|, a purely relative tolerance, so a verdict does not
    change when the matrix is scaled by c > 0 (the zero matrix passes, as
    0 >= -0).  A non-symmetric matrix raises ValueError.
    """
    if A.shape[-1] == 0:
        return np.ones(len(A), dtype=bool), np.zeros(len(A))
    if not np.array_equal(A, A.swapaxes(-1, -2)):
        raise ValueError("moment matrix must be symmetric")
    lam = np.linalg.eigvalsh(A)[:, 0]
    return lam >= -tol * np.abs(A).max(axis=(-2, -1)), lam


def moment_matrix(s: MomentSeq, d: int, w: Poly | None = None) -> MomentMatrix:
    """Moment matrix of order d, optionally localized by the polynomial w.

    The one-sequence case of ``moment_matrices``.
    """
    wdeg = 0 if w is None else int(max(w.degree, 0))
    if w is not None and w.n != s.n:
        raise DimensionMismatchError("weight polynomial arity differs")
    needed = 2 * d + wdeg
    if s.order < needed:
        raise TruncationError(f"need moments to order {needed}, sequence has {s.order}")
    S = np.fromiter(s.values.values(), dtype=float, count=len(s.values))[None]
    weight = None if w is None else w.sorted_terms()
    return MomentMatrix(graded_basis(s.n, d), moment_matrices(S, s.n, d, weight)[0], w)


def is_psd(M: MomentMatrix, tol: float = 1e-10):
    """(PSD?, smallest eigenvalue) with tolerance relative to the matrix scale.

    The one-matrix case of ``psd_stack``.
    """
    ok, lam = psd_stack(M.entries[None], tol)
    return bool(ok[0]), float(lam[0])


# ---------------------------------------------------------------------------
# growth heuristic for the even-moment tail
# ---------------------------------------------------------------------------

DIVERGES_LIKELY = "DivergesLikely"
CONVERGES_LIKELY = "ConvergesLikely"
UNKNOWN = "Unknown"


def carleman_indicator(s: MomentSeq, terms: int | None = None) -> str:
    """Tri-state growth indicator for sum_k (s_2k)^{-1/2k} over each marginal.

    Estimates the exponent p in s_{2k}^{1/2k} ~ k^p from the log-log slope
    over the tail of the available even moments.  Roots growing at factorial
    pace or faster (p near 1 or above) make the series borderline, reported
    as ConvergesLikely; clearly sub-linear root growth (bounded or
    power-law moments) is reported as DivergesLikely.  Degenerate marginals
    with a nonpositive even moment yield Unknown.  Heuristic only: a
    truncated sequence certifies nothing about the infinite series.
    """
    K = terms if terms is not None else s.order // 2
    if K < 4:
        return UNKNOWN
    if 2 * K > s.order:
        raise TruncationError(f"need marginals to order {2 * K}, sequence has {s.order}")
    verdicts = []
    for j in range(s.n):
        marg = s.marginal(j)
        evens = [marg[2 * k] for k in range(1, K + 1)]
        if any(v <= 0.0 for v in evens):
            return UNKNOWN
        logroot = [math.log(v) / (2 * k) for k, v in zip(range(1, K + 1), evens)]
        lo = max(1, K // 2)
        xs = [math.log(2 * k) for k in range(lo, K + 1)]
        ys = [logroot[k - 1] for k in range(lo, K + 1)]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        den = sum((x - xbar) ** 2 for x in xs)
        slope = 0.0 if den == 0.0 else sum(
            (x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den
        verdicts.append(slope)
    # thresholds calibrated so that exactly-factorial even moments (root
    # growth ~ 2k/e, finite-sample slope ~ 0.9) land on the risky side
    if any(p >= 0.85 for p in verdicts):
        return CONVERGES_LIKELY
    if all(p <= 0.75 for p in verdicts):
        return DIVERGES_LIKELY
    return UNKNOWN


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def parse_sequence(text: str, order: int | None = None) -> MomentSeq:
    """Sequence file: `[a1,...,an] = value` lines, `#` comments."""
    vals = read_records(text, {INDEX: "= number"})
    if not vals:
        raise ValueError("empty sequence file")
    mo = order if order is not None else max(mi_degree(a) for a in vals)
    return MomentSeq(len(next(iter(vals))), mo, vals)


def format_sequence(s: MomentSeq) -> str:
    lines = [f"{format_index(a)} = {format(v, '.17g')}" for a, v in s.values.items()]
    return "\n".join(lines) + "\n"


def parse_measure(text: str) -> DiscreteMeasure:
    """Measure file: `atom (x1,...,xn) w` lines with w > 0, `#` comments."""
    return DiscreteMeasure(read_records(text, {"atom": "point number"}).get("atom", []))


def format_measure(mu: DiscreteMeasure) -> str:
    lines = [f"atom {format_point(p)} {format(w, '.17g')}" for p, w in mu.atoms]
    return "\n".join(lines) + "\n"
