"""Positivity-preserver certification on closed sets.

The characterization used everywhere: T = sum q_alpha d^alpha maps
polynomials nonnegative on K to polynomials nonnegative on K exactly when,
for every y in K, the sequence (alpha! q_alpha(y)) has a representing
measure supported in K - y.  A truncated computation can only test finitely
many y and finitely many moment-matrix orders, so the verdicts are
three-valued:

* ``fail`` -- a sampled moment matrix has a negative eigenvalue, or a
  nonnegative trial polynomial is mapped to something negative on the
  grid.  This refutes soundly.
* ``pass`` -- every sampled test passed *and* the operator carries a
  constructive certificate (it was assembled from a representing measure),
  so the theory guarantees preservation, not just the samples.
* ``inconclusive`` -- every sampled test passed but no certificate is
  attached; the necessary conditions hold at this truncation.

Every check returns through ``PreserverVerdict.decide``, and a check that
would evaluate nothing raises ValueError instead of answering.

Every check takes its sample points as one cloud, CLOUD_BLOCK points at a
time: the coefficient sequences of all points, their moment matrices and
one stacked eigenvalue call, each result bit-identical to that of its point
checked alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import (
    CLOUD_BLOCK,
    DimensionMismatchError,
    Poly,
    as_cloud,
    evaluate,
    graded_basis,
    mi_degree,
    mi_factorial,
)
from .diffop import (
    SHIFT_MIXTURE,
    SUBSTITUTION,
    DiffOp,
    TruncationError,
    apply,
)
from .momseq import MomentSeq, moment_matrices, psd_stack

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# K descriptors and the translation-invariance set K -> K#
# ---------------------------------------------------------------------------

FULL_SPACE = "full"
COMPACT_BOX = "box"
COMPACT_BALL = "ball"
POLYHEDRAL_CONE = "cone"
COMPACT_TIMES_HALFLINE = "striphalf"
LATTICE_BALLS = "lattice"
LATTICE_POINTS = "lattice-points"


@dataclass(frozen=True)
class KDescriptor:
    """Symbolic description of a closed subset of R^n.

    variant: one of full | box | ball | cone | striphalf | lattice |
    lattice-points.  ``data`` holds the variant payload: box bounds, ball
    (center, radius), cone generator rays, compact-part bounds of a
    compact x [0, inf) product, or the ball radius of a lattice-ball union.
    ``lattice-points`` is the symbolic answer Z^n (catalogue output only).
    """
    variant: str
    n: int
    data: tuple = ()

    def __post_init__(self):
        if self.variant == COMPACT_BOX:
            for lo, hi in self.data:
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    raise ValueError("box bounds must be finite and ordered")
        elif self.variant == COMPACT_BALL:
            center, radius = self.data
            if radius < 0:
                raise ValueError("ball radius must be >= 0")
        elif self.variant == POLYHEDRAL_CONE:
            if not self.data:
                raise ValueError("cone needs at least one ray")
            for ray in self.data:
                if all(x == 0 for x in ray):
                    raise ValueError("cone rays must be nonzero")
        elif self.variant == COMPACT_TIMES_HALFLINE:
            for lo, hi in self.data:
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    raise ValueError("compact-part bounds must be finite and ordered")
        elif self.variant == LATTICE_BALLS:
            (radius,) = self.data
            if not 0.0 <= radius <= 0.5:
                raise ValueError("lattice-ball radius must lie in [0, 1/2]")
        elif self.variant not in (FULL_SPACE, LATTICE_POINTS):
            raise ValueError(f"unknown K variant {self.variant!r}")

    # -- convenience constructors -------------------------------------

    @classmethod
    def full(cls, n: int) -> "KDescriptor":
        return cls(FULL_SPACE, n)

    @classmethod
    def box(cls, bounds) -> "KDescriptor":
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        return cls(COMPACT_BOX, len(bounds), bounds)

    @classmethod
    def ball(cls, center, radius: float) -> "KDescriptor":
        center = tuple(float(c) for c in center)
        return cls(COMPACT_BALL, len(center), (center, float(radius)))

    @classmethod
    def cone(cls, rays) -> "KDescriptor":
        rays = tuple(tuple(float(x) for x in r) for r in rays)
        return cls(POLYHEDRAL_CONE, len(rays[0]), rays)

    @classmethod
    def compact_times_halfline(cls, compact_bounds) -> "KDescriptor":
        bounds = tuple((float(lo), float(hi)) for lo, hi in compact_bounds)
        return cls(COMPACT_TIMES_HALFLINE, len(bounds) + 1, bounds)

    @classmethod
    def lattice_balls(cls, n: int, radius: float) -> "KDescriptor":
        return cls(LATTICE_BALLS, n, (float(radius),))

    def contains(self, x) -> bool:
        """Point membership: the one-point case of ``members``."""
        if len(x) != self.n:
            raise DimensionMismatchError("point has wrong dimension")
        return bool(self.members([x])[0])

    def members(self, points) -> np.ndarray:
        """Membership of each point of a cloud, as a bool array.

        Box, half-line and lattice points have closed forms; ball and lattice
        balls compare math.dist with the radius + 1e-12, and a cone asks
        whether nnls reaches the point within 1e-9 * max(1, |x|) (``_in_cone``).
        """
        X = as_cloud(points, self.n)
        if self.variant == FULL_SPACE:
            return np.ones(len(X), dtype=bool)
        if self.variant == COMPACT_BOX:
            return _in_box(X, self.data)
        if self.variant == COMPACT_BALL:
            center, radius = self.data
            return _within(X, np.broadcast_to(center, X.shape), radius + 1e-12)
        if self.variant == POLYHEDRAL_CONE:
            return _in_cone(X, self.data)
        if self.variant == COMPACT_TIMES_HALFLINE:
            return ~(X[:, -1] < 0) & _in_box(X[:, :-1], self.data)
        if self.variant == LATTICE_BALLS:
            return _within(X, np.rint(X), self.data[0] + 1e-12)
        if self.variant == LATTICE_POINTS:
            return np.all(np.abs(X - np.rint(X)) <= 1e-12, axis=1)
        raise ValueError(self.variant)


def _in_box(X: np.ndarray, bounds) -> np.ndarray:
    lo, hi = np.array(bounds, dtype=float).reshape(-1, 2).T
    return np.all((lo <= X) & (X <= hi), axis=1)


def _within(X: np.ndarray, C: np.ndarray, limit: float) -> np.ndarray:
    """math.dist(x, c) <= limit for each pair of rows."""
    return np.array([math.dist(x, c) <= limit for x, c in zip(X.tolist(), C.tolist())],
                    dtype=bool)


def _in_cone(X: np.ndarray, rays, tol: float = 1e-9) -> np.ndarray:
    """Membership in the conic hull of the rays: the residual of nonnegative
    least squares is at most tol * max(1, |x|).

    The rays are solved once for the whole cloud.  For independent rays with
    condition number at most 1e4, the least-squares coefficients c and
    residual r bound the distance to the cone: it is |r| when c >= 0, and at
    least max(|r|, sigma_min * max(-c)) otherwise.  Points whose bound lies
    clear of the threshold (below half of it, or above twice it) are decided
    by it; the rest, near the boundary, and all points of other ray sets are
    decided by nnls, one point at a time.
    """
    A = np.array(rays, dtype=float).T
    thresh = tol * np.maximum(1.0, np.linalg.norm(X, axis=1))
    inside = np.zeros(len(X), dtype=bool)
    undecided = np.ones(len(X), dtype=bool)
    sv = np.linalg.svd(A, compute_uv=False)
    if len(X) and A.shape[1] <= A.shape[0] and sv[-1] * 1e4 >= sv[0]:
        C = np.linalg.lstsq(A, X.T, rcond=None)[0]
        resid = np.linalg.norm(X.T - A @ C, axis=0)
        neg = np.maximum(0.0, -C.min(axis=0))
        inside = (neg == 0.0) & (resid <= 0.5 * thresh)
        undecided = ~inside & (np.maximum(resid, sv[-1] * neg) <= 2.0 * thresh)
    if undecided.any():
        from scipy.optimize import nnls
        for k in np.flatnonzero(undecided):
            inside[k] = nnls(A, X[k])[1] <= tol * max(1.0, float(np.linalg.norm(X[k])))
    return inside


def ksharp(K: KDescriptor) -> KDescriptor:
    """The set of translations c with c + K contained in K.

    Catalogue: the full space is translation invariant; any compact set
    admits only the zero shift; a closed convex cone with apex 0 absorbs
    itself; compact x [0, inf) absorbs {0} x [0, inf); a union of radius-r
    balls around the integer lattice absorbs exactly the lattice.
    """
    if K.variant == FULL_SPACE:
        return K
    if K.variant in (COMPACT_BOX, COMPACT_BALL):
        return KDescriptor.ball((0.0,) * K.n, 0.0)
    if K.variant == POLYHEDRAL_CONE:
        return K
    if K.variant == COMPACT_TIMES_HALFLINE:
        if K.n == 1:
            return KDescriptor.cone([(1.0,)])
        zeros = tuple(((0.0, 0.0)) for _ in range(K.n - 1))
        return KDescriptor(COMPACT_TIMES_HALFLINE, K.n, zeros)
    if K.variant == LATTICE_BALLS:
        return KDescriptor(LATTICE_POINTS, K.n)
    raise ValueError(f"no catalogue entry for {K.variant!r}")


def parse_kdescriptor(text: str, n: int | None = None) -> KDescriptor:
    """CLI text form: full | box:-1,1 | ball:0,1 | cone:1,0;0,1 | striphalf:-1,1 | lattice:0.25."""
    text = text.strip()
    if text == "full":
        if n is None:
            raise ValueError("`full` needs an ambient dimension")
        return KDescriptor.full(n)
    if ":" not in text:
        raise ValueError(f"cannot parse K descriptor {text!r}")
    kind, payload = text.split(":", 1)
    if kind == "box":
        nums = [float(t) for t in payload.replace(";", ",").split(",")]
        if len(nums) % 2:
            raise ValueError("box needs an even number of bounds")
        return KDescriptor.box(list(zip(nums[0::2], nums[1::2])))
    if kind == "ball":
        nums = [float(t) for t in payload.split(",")]
        if len(nums) < 2:
            raise ValueError("ball needs center components and a radius")
        return KDescriptor.ball(nums[:-1], nums[-1])
    if kind == "cone":
        rays = [tuple(float(t) for t in ray.split(",")) for ray in payload.split(";")]
        return KDescriptor.cone(rays)
    if kind == "striphalf":
        nums = [float(t) for t in payload.replace(";", ",").split(",")]
        if len(nums) % 2:
            raise ValueError("striphalf needs an even number of compact bounds")
        return KDescriptor.compact_times_halfline(list(zip(nums[0::2], nums[1::2])))
    if kind == "lattice":
        if n is None:
            raise ValueError("`lattice` needs an ambient dimension")
        return KDescriptor.lattice_balls(n, float(payload))
    raise ValueError(f"unknown K descriptor kind {kind!r}")


def format_kdescriptor(K: KDescriptor) -> str:
    if K.variant == FULL_SPACE:
        return "full"
    if K.variant == COMPACT_BOX:
        return "box:" + ";".join(f"{lo:g},{hi:g}" for lo, hi in K.data)
    if K.variant == COMPACT_BALL:
        center, radius = K.data
        return "ball:" + ",".join(f"{c:g}" for c in center) + f",{radius:g}"
    if K.variant == POLYHEDRAL_CONE:
        return "cone:" + ";".join(",".join(f"{x:g}" for x in ray) for ray in K.data)
    if K.variant == COMPACT_TIMES_HALFLINE:
        return "striphalf:" + ";".join(f"{lo:g},{hi:g}" for lo, hi in K.data)
    if K.variant == LATTICE_BALLS:
        return f"lattice:{K.data[0]:g}"
    if K.variant == LATTICE_POINTS:
        return f"lattice-points:Z^{K.n}"
    raise ValueError(K.variant)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """One concrete refutation: either an eigenvalue witness (y, order,
    min_eigenvalue, kind) or a grid witness (trial polynomial, point, value)."""
    y: tuple | None = None
    d: int | None = None
    min_eigenvalue: float | None = None
    kind: str = "moment-matrix"
    trial: Poly | None = None
    point: tuple | None = None
    value: float | None = None


@dataclass(frozen=True)
class PreserverVerdict:
    """A check's answer.  ``evaluated`` counts the matrices, cells or grid
    values the check examined; a pass or inconclusive verdict that examined
    nothing would say nothing, so it cannot be built."""
    status: str
    witnesses: tuple = ()
    checked: str = ""
    evaluated: int = 0

    def __post_init__(self):
        if self.status == FAIL and not self.witnesses:
            raise ValueError("a fail verdict must carry at least one witness")
        if self.status in (PASS, INCONCLUSIVE) and self.evaluated < 1:
            raise ValueError(f"a {self.status} verdict must have evaluated something")

    @classmethod
    def decide(cls, witnesses, checked: str, evaluated: int,
               certified: str | None = None) -> "PreserverVerdict":
        """The one status rule: fail when there are witnesses; otherwise pass
        when a certificate holds (``certified`` is then the checked text that
        names it), and inconclusive when none does."""
        if witnesses:
            return cls(FAIL, tuple(witnesses), checked, evaluated)
        if certified is not None:
            return cls(PASS, (), certified, evaluated)
        return cls(INCONCLUSIVE, (), checked, evaluated)

    @property
    def failed(self) -> bool:
        return self.status == FAIL


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def chebyshev_points(lo: float, hi: float, m: int) -> list:
    """m Chebyshev-spaced points in [lo, hi] (deterministic, includes interior extremes)."""
    if m == 1:
        return [0.5 * (lo + hi)]
    out = []
    for k in range(m):
        c = math.cos(math.pi * (2 * k + 1) / (2 * m))
        out.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * c)
    return sorted(out)


def sample_points(box, per_axis: int = 33) -> list:
    """Cartesian product of Chebyshev points over a coordinate box."""
    axes = [chebyshev_points(lo, hi, per_axis) for lo, hi in box]
    pts = [()]
    for ax in axes:
        pts = [p + (x,) for p in pts for x in ax]
    return pts


def grid_points(K: KDescriptor, lo: float = -10.0, hi: float = 10.0,
                m: int | None = None) -> list:
    """Uniform evaluation grid clipped to K; m counts points per axis.

    The default is 2001 points on a line and 41 per axis in higher
    dimension (the product grid grows geometrically with n).  Points come
    in product order, the first axis outermost.
    """
    if m is None:
        m = 2001 if K.n == 1 else 41
    if K.variant == COMPACT_BOX:
        axes = [np.linspace(blo, bhi, m) for blo, bhi in K.data]
    elif K.variant == COMPACT_TIMES_HALFLINE:
        axes = [np.linspace(blo, bhi, m) for blo, bhi in K.data]
        axes.append(np.linspace(0.0, hi, m))
    elif K.variant == POLYHEDRAL_CONE and K.n == 1 and K.data[0][0] > 0:
        axes = [np.linspace(0.0, hi, m)]
    else:
        axes = [np.linspace(lo, hi, m)] * K.n
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, K.n)
    return [tuple(p) for p in X[K.members(X)].tolist()]


def square_trials(n: int, centers, power: int = 1) -> list:
    """(x_i - c)^{2 power} trial families, nonnegative on all of R^n."""
    out = []
    for c in centers:
        for i in range(n):
            base = Poly.variable(n, i) - Poly.constant(n, float(c))
            out.append(base ** (2 * power))
    return out


def halfline_trials(centers) -> list:
    """Univariate trials x * (x - c)^2, nonnegative on [0, inf)."""
    x = Poly.variable(1, 0)
    return [x * (x - Poly.constant(1, float(c))) ** 2 for c in centers]


def quadratic_square_trials(bs, cs) -> list:
    """Univariate trials (x^2 + b x + c)^2 over a (b, c) grid.

    Squares of general monic quadratics reach witness directions that
    single-center squares (x - c)^{2m} miss, e.g. quartics with two
    separated double roots.
    """
    x = Poly.variable(1, 0)
    out = []
    for b in bs:
        for c in cs:
            q = x * x + float(b) * x + Poly.constant(1, float(c))
            out.append(q * q)
    return out


# ---------------------------------------------------------------------------
# coefficient sequences and polynomial values over a point cloud
# ---------------------------------------------------------------------------

def coefficient_sequences(T: DiffOp, points, order: int) -> np.ndarray:
    """Row k holds s_alpha = alpha! q_alpha(y_k) for |alpha| <= order, in graded order.

    Each entry is bit-identical to ``coefficient_sequence`` at that point alone.
    """
    if T.max_order is not None and T.max_order < order:
        raise TruncationError(
            f"need coefficients to order {order}, operator truncated at {T.max_order}")
    basis = graded_basis(T.n, order)
    alphas = [a for a in basis.indices if a in T.coeffs]
    values = evaluate([T.coeffs[a] for a in alphas], as_cloud(points, T.n))
    S = np.zeros((values.shape[1], basis.dim))
    for alpha, v in zip(alphas, values):
        column = float(mi_factorial(alpha)) * v
        if not np.isfinite(column).all():
            raise ValueError(f"non-finite entry at {alpha}")
        S[:, basis.index_of(alpha)] = column
    return S


def coefficient_sequence(T: DiffOp, y, order: int) -> MomentSeq:
    """The sequence s_alpha = alpha! q_alpha(y) up to the given order.

    The one-point case of ``coefficient_sequences``.
    """
    S = coefficient_sequences(T, [y], order)
    return MomentSeq(T.n, order, dict(zip(graded_basis(T.n, order).indices, S[0].tolist())))


def require_nonempty(*named_lists) -> None:
    """Raise ValueError for the first empty (name, list) pair: a check over
    it would evaluate nothing."""
    for name, items in named_lists:
        if len(items) == 0:
            raise ValueError(f"empty {name} list: the check would evaluate nothing")


def worst_points(polys, points, tol: float) -> list:
    """For each polynomial, (point index, value) at its worst point of the cloud, or None.

    A polynomial has a worst point when some value lies below -tol * scale,
    scale = its largest coefficient magnitude, a purely relative tolerance
    (the zero polynomial never has one); it is the first point of least
    value.  Values are those of ``Poly.eval``.
    """
    out = [None] * len(polys)
    floor = -tol * np.array([q.max_abs_coeff() for q in polys])
    for lo in range(0, len(points), CLOUD_BLOCK):
        vals = evaluate(polys, points[lo:lo + CLOUD_BLOCK])
        bad = vals < floor[:, None]
        vals = np.where(bad, vals, np.inf)
        for j in np.flatnonzero(bad.any(axis=1)):
            k = int(np.argmin(vals[j]))
            if out[j] is None or vals[j, k] < out[j][1]:
                out[j] = (lo + k, float(vals[j, k]))
    return out


def grid_witnesses(cells, points, tol: float) -> tuple:
    """One grid witness per (kind, trial, image) cell whose image dips below
    -tol * scale on the points (``worst_points``), at its worst point."""
    points = list(points)
    worst = worst_points([image for _, _, image in cells], points, tol)
    return tuple(Witness(kind=kind, trial=p, point=tuple(points[w[0]]), value=w[1])
                 for (kind, p, _), w in zip(cells, worst) if w is not None)


def _certificate_supported_in(T: DiffOp, K_sharp: KDescriptor | None) -> bool:
    """True when T carries a representing-measure construction valid for K."""
    cert = T.certificate
    if cert is None:
        return False
    kind = cert[0]
    if kind == SHIFT_MIXTURE:
        mu = cert[1]
        if mu is None:
            return False
        if K_sharp is None:  # full space: any measure shifts within R^n
            return True
        return bool(K_sharp.members([p for p, _ in mu.atoms]).all())
    if kind == SUBSTITUTION:
        # substitution preservers are certified for the full space only
        return K_sharp is None and cert[2] is not None
    return False


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_preserver_rn(T: DiffOp, d: int, ys, tol: float = 1e-10) -> PreserverVerdict:
    """Necessary moment-matrix test on R^n at each sampled base point.

    For every y the matrix of (alpha! q_alpha(y)) up to order d must be
    positive semidefinite.  A negative eigenvalue refutes; all-pass is
    inconclusive unless the operator carries a measure certificate.  An
    empty point list raises ValueError.
    """
    pts = [tuple(y) for y in ys]
    require_nonempty(("point", pts))
    witnesses = []
    for lo in range(0, len(pts), CLOUD_BLOCK):
        S = coefficient_sequences(T, pts[lo:lo + CLOUD_BLOCK], 2 * d)
        ok, lam = psd_stack(moment_matrices(S, T.n, d), tol)
        witnesses += [Witness(y=pts[lo + k], d=d, min_eigenvalue=float(lam[k]))
                      for k in np.flatnonzero(~ok)]
    checked = f"moment matrices of order {d} at {len(pts)} points"
    certified = _certificate_supported_in(T, None)
    return PreserverVerdict.decide(witnesses, checked, len(pts),
                                   checked + "; constructive certificate" if certified else None)


def check_preserver_halfline(T: DiffOp, d: int, ys, tol: float = 1e-10) -> PreserverVerdict:
    """Moment plus localized test for K = [0, inf) (univariate).

    At y >= 0 the sequence must look like moments of a measure supported in
    [-y, inf): the plain matrix of order d and the matrix localized by
    w(x) = x + y must both be positive semidefinite.  An empty point list
    raises ValueError.
    """
    if T.n != 1:
        raise DimensionMismatchError("half-line check is univariate")
    pts = []
    for y in ys:
        (y0,) = tuple(y) if isinstance(y, (tuple, list)) else (y,)
        if y0 < 0:
            raise ValueError("sample points must lie in [0, inf)")
        pts.append((y0,))
    require_nonempty(("point", pts))
    witnesses = []
    for lo in range(0, len(pts), CLOUD_BLOCK):
        block = pts[lo:lo + CLOUD_BLOCK]
        S = coefficient_sequences(T, block, 2 * d + 1)
        ok, lam = psd_stack(moment_matrices(S, 1, d), tol)
        # the weight x + y0 in graded order; at y0 = 0 its constant term adds 0.0
        weight = [((0,), np.array(block, dtype=float)[:, 0]), ((1,), 1.0)]
        okl, laml = psd_stack(moment_matrices(S, 1, d, weight), tol)
        for k in np.flatnonzero(~(ok & okl)):
            if not ok[k]:
                witnesses.append(Witness(y=block[k], d=d, min_eigenvalue=float(lam[k])))
            if not okl[k]:
                witnesses.append(Witness(y=block[k], d=d, min_eigenvalue=float(laml[k]),
                                         kind="localized"))
    checked = f"moment + localized matrices of order {d} at {len(pts)} points"
    certified = _certificate_supported_in(T, KDescriptor.cone([(1.0,)]))
    return PreserverVerdict.decide(witnesses, checked, 2 * len(pts),
                                   checked + "; constructive certificate" if certified else None)


def global_min_univariate(p: Poly):
    """(min value, argmin) of a univariate polynomial over R.

    Critical points come from companion-matrix eigenvalues of p'; the
    leading coefficient decides behaviour at infinity (odd degree or a
    negative even leading term is unbounded below, reported as -inf).
    """
    if p.n != 1:
        raise DimensionMismatchError("global minimum is univariate")
    if p.is_zero():
        return 0.0, 0.0
    deg = int(p.degree)
    coeffs = [p.coeff((k,)) for k in range(deg + 1)]
    if deg == 0:
        return coeffs[0], 0.0
    lead = coeffs[-1]
    if deg % 2 == 1 or lead < 0:
        return -math.inf, math.inf
    dcoeffs = [k * coeffs[k] for k in range(1, deg + 1)]
    roots = np.roots(dcoeffs[::-1])
    scale = max(1.0, float(np.max(np.abs(roots)))) if len(roots) else 1.0
    best_v, best_x = math.inf, 0.0
    for r in roots:
        if abs(r.imag) > 1e-9 * scale:
            continue
        xr = float(r.real)
        v = p.eval((xr,))
        if v < best_v:
            best_v, best_x = v, xr
    if math.isinf(best_v):  # no usable real critical point; fall back to the origin
        return p.eval((0.0,)), 0.0
    return best_v, best_x


def check_degree2_pointwise(T: DiffOp):
    """Exact preserver test for univariate operators of order at most 2.

    Requires the constant term q_0 to be scalar.  Writes s_0 = q_0,
    s_1(x) = q_1(x), s_2(x) = 2 q_2(x) and decides s_0 >= 0, pointwise
    s_2 >= 0 and pointwise h = s_0 s_2 - s_1^2 >= 0 by exact univariate
    global minimisation.  Returns (ok, min h, argmin).
    """
    if T.n != 1:
        raise DimensionMismatchError("pointwise degree-2 check is univariate")
    if T.order > 2:
        raise ValueError("operator order exceeds 2")
    q0p = T.coefficient((0,))
    if q0p.degree > 0:
        raise ValueError("constant term must be scalar")
    s0 = q0p.constant_value()
    s1 = T.coefficient((1,))
    s2 = T.coefficient((2,)) * 2.0
    h = s2 * s0 - s1 * s1
    min_h, arg_h = global_min_univariate(h)
    min_s2, _ = global_min_univariate(s2)
    ok = s0 >= 0.0 and min_s2 >= 0.0 and min_h >= 0.0
    return ok, min_h, arg_h


def falsify_on_grid(T: DiffOp, K: KDescriptor, trials, grid,
                    tol: float = 1e-12) -> PreserverVerdict:
    """Pure falsifier: apply T to trial polynomials and scan a grid over K.

    The caller guarantees the trials are nonnegative on K.  Any image value
    below -tol * scale (scale = the image's largest coefficient magnitude, a
    purely relative tolerance) is a concrete witness; a failing trial gives
    one witness, at its worst grid point.  This check can only refute, so
    the all-pass verdict is inconclusive by construction.  No trial, or no
    grid point in K, leaves nothing to evaluate and raises ValueError.
    """
    X = as_cloud(grid, K.n)
    pts = [tuple(x) for x in X[K.members(X)].tolist()]
    witnesses = grid_witnesses([("grid", p, apply(T, p)) for p in trials], pts, tol)
    evaluated = len(trials) * len(pts)
    return PreserverVerdict.decide(
        witnesses, f"{len(trials)} trials x grid ({evaluated} evaluations)", evaluated)


def compact_rigidity_check(T: DiffOp, d: int | None = None) -> bool:
    """For compact K the only constant-coefficient preservers are c * identity, c >= 0.

    Returns True exactly when T is a nonnegative multiple of the identity
    (the zero operator counts, c = 0); any other constant-coefficient
    operator is rejected as a compact-K preserver candidate.
    """
    if not T.has_constant_coefficients():
        raise ValueError("rigidity check applies to constant-coefficient operators")
    bound = T.order if d is None else min(T.order, d)
    zero = (0,) * T.n
    for alpha, q in T.coeffs.items():
        if alpha == zero:
            continue
        if mi_degree(alpha) <= (bound if bound >= 0 else 0) and not q.is_zero():
            return False
    return T.q0 >= 0.0
