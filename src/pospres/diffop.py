"""Differential operators of truncated order on polynomial spaces.

An operator is a finite table of polynomial coefficients q_alpha acting as
``T p = sum_alpha q_alpha * d^alpha p``.  When every coefficient satisfies
deg q_alpha <= |alpha| the operator maps each space of polynomials of
degree <= d into itself, so it has a well-defined dim x dim matrix
restriction on the graded basis.  A constant-coefficient operator is its
sequence s_alpha = alpha! q_alpha, composed by binomial convolution, so its
composition, inverse, exponential and logarithm are exact finite series in
the sequence ring of ``momseq``.  Other operators go through the finite
matrix restrictions, exact on the restricted space; the unique coefficient
table of a matrix is recovered by a graded recursion (``canonical_from_action``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polyalg import (
    INDEX,
    BasisMap,
    DimensionMismatchError,
    MultiIndex,
    Poly,
    graded_key,
    iter_multiindices,
    iter_multiindices_leq,
    mi_degree,
    mi_factorial,
    mi_perm,
    mi_sub,
    format_index,
    format_poly,
    read_records,
)


# Diagonal Pade approximants r_m = (V + U) / (V - U) to exp, with U odd and V
# even in A: b[k] / b[0] multiplies A^k, so a column that A maps to zero comes
# out of the solve exactly.  r_m is used while ||A||_1 <= theta_m, which bounds
# its backward error by the unit roundoff (Higham 2005, Table 2.3).
_PADE = {m: tuple(c / b[0] for c in b) for m, b in {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}.items()}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring on a diagonal Pade approximant.

    N. J. Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005): the
    degree m in {3, 5, 7, 9, 13} is the least whose theta_m bounds the
    1-norm; past theta_13 the matrix is scaled by 2^-s into range, the
    approximant is solved from (V - U) R = V + U and squared s times.
    A non-finite entry raises ValueError; a result that overflows double
    precision raises ArithmeticError.  numpy only, so no scipy is loaded.
    """
    import numpy as np
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("non-finite entry in the matrix to exponentiate")
    if A.size == 0:
        return A.copy()
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ArithmeticError("matrix exponential: the 1-norm overflows")
    m = next((m for m, theta in _THETA if norm <= theta), 13)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if m == 13 else 0
    b, ident = _PADE[m], np.eye(A.shape[0])
    A = np.ldexp(A, -s)
    A2 = A @ A
    if m < 13:
        powers = [ident, A2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
    else:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    with np.errstate(over="ignore", invalid="ignore"):
        R = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            R = R @ R
    if not np.isfinite(R).all():
        raise ArithmeticError("matrix exponential overflows double precision")
    return R


class TruncationError(ValueError):
    """The operator's stored coefficient table is too short for the request."""


class DegreeBoundError(ValueError):
    """A coefficient violates deg q_alpha <= |alpha| (operator not degree-preserving)."""


class NotInvertibleError(ValueError):
    """The operator has no inverse on the requested restriction."""


# certificate kinds attached to operators built from representing measures;
# preserver checks use them to upgrade an all-pass verdict to Pass
SHIFT_MIXTURE = "shift-mixture"
SUBSTITUTION = "substitution"


class DiffOp:
    """Finite-order differential operator sum_alpha q_alpha * d^alpha.

    ``max_order`` is the truncation discipline: ``None`` means the table is
    exact (all unstored coefficients are genuinely zero), an integer D means
    coefficients are only known for |alpha| <= D and any request that needs
    more must fail loudly instead of silently truncating.
    """

    __slots__ = ("n", "coeffs", "max_order", "degree_preserving", "certificate")

    def __init__(self, n: int, coeffs: dict | None = None, max_order: int | None = None,
                 allow_degree_excess: bool = False, certificate=None):
        if n < 1:
            raise ValueError("variable count must be >= 1")
        object.__setattr__(self, "n", n)
        clean = {}
        preserving = True
        for alpha, q in (coeffs or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n:
                raise DimensionMismatchError(f"coefficient index {alpha} has wrong length")
            if not isinstance(q, Poly):
                q = Poly.constant(n, float(q))
            if q.n != n:
                raise DimensionMismatchError("coefficient polynomial has wrong variable count")
            if q.is_zero():
                continue
            if q.degree > mi_degree(alpha):
                preserving = False
                if not allow_degree_excess:
                    raise DegreeBoundError(
                        f"deg q_{alpha} = {q.degree} exceeds |alpha| = {mi_degree(alpha)}")
            if max_order is not None and mi_degree(alpha) > max_order:
                raise TruncationError(
                    f"coefficient index {alpha} beyond stated truncation {max_order}")
            clean[alpha] = q
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "degree_preserving", preserving)
        object.__setattr__(self, "certificate", certificate)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DiffOp":
        return cls(n, {(0,) * n: Poly.constant(n, 1.0)})

    @classmethod
    def zero(cls, n: int) -> "DiffOp":
        return cls(n, {})

    @classmethod
    def partial(cls, n: int, alpha: MultiIndex, scale: float = 1.0) -> "DiffOp":
        """scale * d^alpha."""
        return cls(n, {tuple(alpha): Poly.constant(n, scale)})

    @classmethod
    def from_constant_table(cls, values: dict, n: int, max_order: int | None = None,
                            certificate=None) -> "DiffOp":
        """Build a constant-coefficient operator from alpha -> scalar q_alpha."""
        return cls(n, {a: Poly.constant(n, v) for a, v in values.items()},
                   max_order=max_order, certificate=certificate)

    # -- structure ---------------------------------------------------------

    @property
    def q0(self) -> float:
        """The scalar constant term q_0 (kernel criterion: invertible iff q_0 != 0)."""
        q = self.coeffs.get((0,) * self.n)
        return 0.0 if q is None else q.constant_value()

    @property
    def order(self) -> int:
        """Largest |alpha| with a nonzero stored coefficient (-1 for the zero operator)."""
        return max((mi_degree(a) for a in self.coeffs), default=-1)

    def has_constant_coefficients(self) -> bool:
        """True when every coefficient is scalar (an exact structural test)."""
        return all(q.degree <= 0 for q in self.coeffs.values())

    def coefficient(self, alpha: MultiIndex) -> Poly:
        return self.coeffs.get(tuple(alpha), Poly.zero(self.n))

    def _require_order(self, needed: int, what: str):
        if self.max_order is not None and self.max_order < needed:
            raise TruncationError(
                f"{what} needs coefficients to order {needed}, "
                f"operator truncated at {self.max_order}")

    def freeze_at(self, y) -> "DiffOp":
        """Constant-coefficient operator with q_alpha replaced by q_alpha(y)."""
        vals = {a: q.eval(y) for a, q in self.coeffs.items()}
        return DiffOp.from_constant_table(vals, self.n, max_order=self.max_order)

    def sorted_coeffs(self):
        return sorted(self.coeffs.items(), key=lambda t: graded_key(t[0]))

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if self.n != other.n:
            raise DimensionMismatchError("variable counts differ")
        out = dict(self.coeffs)
        for a, q in other.coeffs.items():
            out[a] = out[a] + q if a in out else q
        if self.max_order is None:
            mo = other.max_order
        elif other.max_order is None:
            mo = self.max_order
        else:
            mo = min(self.max_order, other.max_order)
        allow = not (self.degree_preserving and other.degree_preserving)
        return DiffOp(self.n, out, max_order=mo, allow_degree_excess=allow)

    def __mul__(self, scalar: float) -> "DiffOp":
        return DiffOp(self.n, {a: q * scalar for a, q in self.coeffs.items()},
                      max_order=self.max_order,
                      allow_degree_excess=not self.degree_preserving)

    __rmul__ = __mul__

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (other * -1.0)

    def __repr__(self):
        body = "; ".join(f"{format_index(a)}={format_poly(q)}" for a, q in self.sorted_coeffs())
        return f"DiffOp(n={self.n}, max_order={self.max_order}, {body or '0'})"


@dataclass(frozen=True)
class OpMatrix:
    """Matrix restriction of an operator to the graded basis of R[x]_{<=d}.

    Column j holds the coordinates of T(monomial_j).
    """
    basis: BasisMap
    entries: np.ndarray

    def __post_init__(self):
        import numpy as np
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise DimensionMismatchError("matrix shape does not match basis dimension")
        object.__setattr__(self, "entries", m)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def apply(T: DiffOp, p: Poly) -> Poly:
    """Apply T = sum q_alpha d^alpha to p."""
    if T.n != p.n:
        raise DimensionMismatchError("variable counts differ")
    if p.is_zero():
        return p
    T._require_order(int(p.degree), "apply")
    out = Poly.zero(T.n)
    for alpha, q in T.sorted_coeffs():
        if mi_degree(alpha) > p.degree:
            continue
        dp = p.derive(alpha)
        if not dp.is_zero():
            out = out + q * dp
    return out


def matrix_rep(T: DiffOp, d: int) -> OpMatrix:
    """Matrix of T on R[x]_{<=d}; requires a degree-preserving coefficient table."""
    import numpy as np
    if not T.degree_preserving:
        raise DegreeBoundError("operator does not preserve degree; no matrix restriction")
    T._require_order(d, "matrix_rep")
    basis = BasisMap(T.n, d)
    M = np.zeros((basis.dim, basis.dim))
    for j, alpha in enumerate(basis.indices):
        M[:, j] = basis.poly_to_vec(apply(T, Poly.monomial(T.n, alpha)))
    return OpMatrix(basis, M)


def canonical_from_action(action: OpMatrix, tol: float = 1e-9) -> DiffOp:
    """Recover the unique coefficient table q_alpha from a matrix restriction.

    Graded recursion: T x^alpha = sum_{beta <= alpha} q_beta * alpha!/(alpha-beta)!
    * x^{alpha-beta}, so q_alpha is determined once all strictly lower-degree
    coefficients are known.  Coefficient mass of degree > |alpha| below
    tol * max(1, |M|_inf) is discarded as numerical noise; anything larger
    means the matrix is not the restriction of a degree-preserving operator
    and raises DegreeBoundError.
    """
    import numpy as np
    basis = action.basis
    n = basis.n
    scale = max(1.0, float(np.max(np.abs(action.entries))))
    coeffs: dict = {}
    for alpha in basis.indices:
        img = basis.vec_to_poly(action.entries[:, basis.index_of(alpha)])
        resid = img
        for beta in iter_multiindices_leq(alpha):
            if beta == alpha or beta not in coeffs:
                continue
            factor = mi_perm(alpha, beta)
            resid = resid - coeffs[beta] * Poly.monomial(n, mi_sub(alpha, beta), float(factor))
        q = resid * (1.0 / mi_factorial(alpha))
        kept, bad = {}, 0.0
        bound = mi_degree(alpha)
        for e, c in q.terms.items():
            if mi_degree(e) > bound:
                bad = max(bad, abs(c))
            else:
                kept[e] = c
        if bad > tol * scale:
            raise DegreeBoundError(
                f"recovered q_{alpha} has degree-{bound}-violating mass {bad:.3e}; "
                "matrix is not the restriction of a degree-preserving operator")
        q = Poly(n, kept)
        if not q.is_zero():
            coeffs[alpha] = q
    return DiffOp(n, coeffs, max_order=basis.d)


def _sequence(T: DiffOp, d: int):
    """The sequence s_alpha = alpha! q_alpha of a constant-coefficient T, truncated at d."""
    from .momseq import MomentSeq
    T._require_order(d, "constant-coefficient algebra")
    return MomentSeq(T.n, d, {a: mi_factorial(a) * q.constant_value()
                              for a, q in T.coeffs.items() if mi_degree(a) <= d})


def _unit_series(T: DiffOp, d: int, coeffs) -> DiffOp:
    """sum_k coeffs[k] N^{*k} for the constant T = q_0 (e + N), as an operator."""
    from .momseq import MomentSeq, dop_from_seq, nilpotent_series
    s = _sequence(T, d)
    N = MomentSeq(T.n, d, {a: v / T.q0 for a, v in s.values.items() if any(a)})
    return dop_from_seq(nilpotent_series(N, coeffs))


def compose(T: DiffOp, S: DiffOp, d: int) -> DiffOp:
    """T after S on R[x]_{<=d}: convolution of sequences for two constant
    operators, else the product of the degree-d matrix restrictions."""
    if T.n != S.n:
        raise DimensionMismatchError("variable counts differ")
    if T.has_constant_coefficients() and S.has_constant_coefficients():
        from .momseq import convolve, dop_from_seq
        return dop_from_seq(convolve(_sequence(T, d), _sequence(S, d)))
    mt = matrix_rep(T, d)
    ms = matrix_rep(S, d)
    return canonical_from_action(OpMatrix(mt.basis, mt.entries @ ms.entries))


def invert(T: DiffOp, d: int) -> DiffOp:
    """Two-sided inverse of T on R[x]_{<=d}.

    A constant-coefficient T = q_0 (e + N) has the finite Neumann series
    sum_k (-1)^k N^{*k} / q_0 in the sequence ring.  Otherwise the degree-d
    matrix restriction is inverted and the coefficient table recovered by
    ``canonical_from_action``.
    """
    if T.q0 == 0.0:
        raise NotInvertibleError("q_0 = 0: operator has no inverse")
    T._require_order(d, "invert")
    if T.has_constant_coefficients():
        return _unit_series(T, d, [(-1.0) ** k / T.q0 for k in range(d + 1)])
    import numpy as np
    M = matrix_rep(T, d)
    try:
        inv = np.linalg.solve(M.entries, np.eye(M.basis.dim))
    except np.linalg.LinAlgError:
        raise NotInvertibleError(
            f"matrix restriction to degree {d} is singular; "
            "operator is not invertible on this restriction")
    return canonical_from_action(OpMatrix(M.basis, inv))


def exp_op(A: DiffOp, t: float, d: int) -> DiffOp:
    """exp(tA) on R[x]_{<=d}.

    A constant-coefficient A takes the convolution exponential of its
    sequence, exact and constant by construction.  Otherwise the dense
    matrix exponential of the degree-d restriction is taken: exp(tA) p only
    involves that matrix for deg p <= d, so within floating accuracy the
    result is the genuine semigroup element restricted to the space.
    """
    if A.has_constant_coefficients():
        from .momseq import conv_exp, dop_from_seq
        return dop_from_seq(conv_exp(_sequence(A, d), t))
    import numpy as np
    M = matrix_rep(A, d)
    with np.errstate(over="ignore", invalid="ignore"):  # expm refuses what overflows here
        tM = t * M.entries
    return canonical_from_action(OpMatrix(M.basis, expm(tM)))


def log_op(T: DiffOp, d: int) -> DiffOp:
    """Logarithm of a constant-coefficient operator with q_0 > 0.

    T = q_0 (e + N) with N nilpotent under truncation, so log T is
    log(q_0) e plus the finite Mercator series sum_k (-1)^{k+1}/k N^{*k}.
    """
    if not T.has_constant_coefficients():
        raise ValueError("log_op supports only constant-coefficient operators")
    if T.q0 <= 0.0:
        raise ValueError("log_op requires q_0 > 0")
    return _unit_series(T, d, [math.log(T.q0)] + [(-1.0) ** (k + 1) / k for k in range(1, d + 1)])


def exp_limit_check(A: DiffOp, t: float, d: int, k: int) -> float:
    """Max-norm discrepancy of the Euler products against exp(tA) on R[x]_{<=d}.

    Compares both (1 + tA/k)^k and (1 - tA/k)^{-k} with the matrix
    exponential; the discrepancy decays as k grows.  Convergence
    diagnostic only, not a certificate.
    """
    import numpy as np
    if k < 1:
        raise ValueError("need k >= 1")
    M = matrix_rep(A, d).entries
    dim = M.shape[0]
    ref = expm(t * M)
    fwd = np.linalg.matrix_power(np.eye(dim) + (t / k) * M, k)
    res_base = np.eye(dim) - (t / k) * M
    try:
        res_inv = np.linalg.inv(res_base)
    except np.linalg.LinAlgError:
        raise NotInvertibleError(f"resolvent 1 - tA/k singular at k={k}")
    bwd = np.linalg.matrix_power(res_inv, k)
    return float(max(np.max(np.abs(fwd - ref)), np.max(np.abs(bwd - ref))))


def build_substitution_preserver(p: list, s, D: int) -> DiffOp:
    """Operator with q_alpha = p^alpha * s_alpha / alpha! for |alpha| <= D.

    ``p`` is a vector of n polynomials and s a truncated sequence; for a
    sequence with a representing measure the result acts as
    f(x) |-> integral f(x + u * p(x)-mixture) and is positivity preserving.
    Coefficient degrees may exceed |alpha|; the result is then flagged as
    not degree-preserving rather than rejected.
    """
    n = p[0].n
    if any(q.n != n for q in p):
        raise DimensionMismatchError("substitution polynomials have mixed variable counts")
    if len(p) != s.n:
        raise DimensionMismatchError("substitution vector length must match sequence arity")
    if s.order < D:
        raise TruncationError(f"sequence truncated at {s.order}, need {D}")
    coeffs = {}
    for alpha in iter_multiindices(n, D):
        s_a = s.value(alpha)
        if s_a == 0.0:
            continue
        q = Poly.constant(n, s_a / mi_factorial(alpha))
        for pi, ai in zip(p, alpha):
            if ai:
                q = q * pi ** ai
        if not q.is_zero():
            coeffs[alpha] = q
    cert = None
    if getattr(s, "measure", None) is not None:
        cert = (SUBSTITUTION, tuple(p), s.measure)
    return DiffOp(n, coeffs, max_order=D, allow_degree_excess=True, certificate=cert)


# ---------------------------------------------------------------------------
# operator file format: one `[a1,...,an] = <poly>` line per coefficient
# ---------------------------------------------------------------------------

def parse_operator(text: str, n: int | None = None) -> DiffOp:
    """Parse the operator file format; `#` starts a comment, missing indices are zero."""
    coeffs = read_records(text, {INDEX: "= poly"}, n)
    arity = len(next(iter(coeffs))) if coeffs else n or 1
    return DiffOp(arity, coeffs, max_order=None, allow_degree_excess=True)


def format_operator(T: DiffOp) -> str:
    lines = [f"{format_index(a)} = {format_poly(q)}" for a, q in T.sorted_coeffs()]
    return "\n".join(lines) + ("\n" if lines else "")
