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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import (
    DimensionMismatchError,
    Poly,
    iter_multiindices,
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
from .momseq import MomentSeq, is_psd, moment_matrix

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
        """Point membership (lattice variants use exact rounding distance)."""
        if len(x) != self.n:
            raise DimensionMismatchError("point has wrong dimension")
        if self.variant == FULL_SPACE:
            return True
        if self.variant == COMPACT_BOX:
            return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, self.data))
        if self.variant == COMPACT_BALL:
            center, radius = self.data
            return math.dist(x, center) <= radius + 1e-12
        if self.variant == POLYHEDRAL_CONE:
            return _in_cone(x, self.data)
        if self.variant == COMPACT_TIMES_HALFLINE:
            if x[-1] < 0:
                return False
            return all(lo <= xi <= hi for xi, (lo, hi) in zip(x[:-1], self.data))
        if self.variant == LATTICE_BALLS:
            (radius,) = self.data
            nearest = [round(xi) for xi in x]
            return math.dist(x, nearest) <= radius + 1e-12
        if self.variant == LATTICE_POINTS:
            return all(abs(xi - round(xi)) <= 1e-12 for xi in x)
        raise ValueError(self.variant)


def _in_cone(x, rays, tol: float = 1e-9) -> bool:
    """Membership in the conic hull of the rays via nonnegative least squares."""
    from scipy.optimize import nnls
    A = np.array(rays, dtype=float).T
    coeffs, resid = nnls(A, np.asarray(x, dtype=float))
    return resid <= tol * max(1.0, float(np.linalg.norm(x)))


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
    status: str
    witnesses: tuple = ()
    checked: str = ""

    def __post_init__(self):
        if self.status == FAIL and not self.witnesses:
            raise ValueError("a fail verdict must carry at least one witness")

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
    dimension (the product grid grows geometrically with n).
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
    pts = [()]
    for ax in axes:
        pts = [p + (float(x),) for p in pts for x in ax]
    return [p for p in pts if K.contains(p)]


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
# coefficient sequence at a point
# ---------------------------------------------------------------------------

def coefficient_sequence(T: DiffOp, y, order: int) -> MomentSeq:
    """The sequence s_alpha = alpha! q_alpha(y) up to the given order."""
    if T.max_order is not None and T.max_order < order:
        raise TruncationError(
            f"need coefficients to order {order}, operator truncated at {T.max_order}")
    vals = {}
    for alpha in iter_multiindices(T.n, order):
        q = T.coeffs.get(alpha)
        if q is not None:
            vals[alpha] = mi_factorial(alpha) * q.eval(y)
    return MomentSeq(T.n, order, vals)


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
        return all(K_sharp.contains(p) for p, _ in mu.atoms)
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
    witnesses = []
    count = 0
    for y in ys:
        s = coefficient_sequence(T, y, 2 * d)
        ok, lam = is_psd(moment_matrix(s, d), tol)
        count += 1
        if not ok:
            witnesses.append(Witness(y=tuple(y), d=d, min_eigenvalue=lam))
    if count == 0:
        raise ValueError("empty point list: the check would evaluate nothing")
    checked = f"moment matrices of order {d} at {count} points"
    if witnesses:
        return PreserverVerdict(FAIL, tuple(witnesses), checked)
    if _certificate_supported_in(T, None):
        return PreserverVerdict(PASS, (), checked + "; constructive certificate")
    return PreserverVerdict(INCONCLUSIVE, (), checked)


def check_preserver_halfline(T: DiffOp, d: int, ys, tol: float = 1e-10) -> PreserverVerdict:
    """Moment plus localized test for K = [0, inf) (univariate).

    At y >= 0 the sequence must look like moments of a measure supported in
    [-y, inf): the plain matrix of order d and the matrix localized by
    w(x) = x + y must both be positive semidefinite.  An empty point list
    raises ValueError.
    """
    if T.n != 1:
        raise DimensionMismatchError("half-line check is univariate")
    witnesses = []
    count = 0
    x = Poly.variable(1, 0)
    for y in ys:
        (y0,) = tuple(y) if isinstance(y, (tuple, list)) else (y,)
        if y0 < 0:
            raise ValueError("sample points must lie in [0, inf)")
        s = coefficient_sequence(T, (y0,), 2 * d + 1)
        ok, lam = is_psd(moment_matrix(s, d), tol)
        count += 1
        if not ok:
            witnesses.append(Witness(y=(y0,), d=d, min_eigenvalue=lam))
        okl, laml = is_psd(moment_matrix(s, d, w=x + Poly.constant(1, y0)), tol)
        if not okl:
            witnesses.append(Witness(y=(y0,), d=d, min_eigenvalue=laml, kind="localized"))
    if count == 0:
        raise ValueError("empty point list: the check would evaluate nothing")
    checked = f"moment + localized matrices of order {d} at {count} points"
    if witnesses:
        return PreserverVerdict(FAIL, tuple(witnesses), checked)
    halfline = KDescriptor.cone([(1.0,)])
    if _certificate_supported_in(T, halfline):
        return PreserverVerdict(PASS, (), checked + "; constructive certificate")
    return PreserverVerdict(INCONCLUSIVE, (), checked)


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
    below -tol * scale (scale = the image's largest coefficient magnitude)
    is a concrete witness.  This check can only refute, so the all-pass
    verdict is inconclusive by construction.
    """
    witnesses = []
    evaluated = 0
    pts = [tuple(float(v) for v in x) for x in grid if K.contains(x)]
    xs = np.array([p[0] for p in pts]) if T.n == 1 and pts else None
    for p in trials:
        q = apply(T, p)
        scale = max(1.0, q.max_abs_coeff())
        if xs is not None:
            deg = int(max(q.degree, 0))
            coeffs = [q.coeff((k,)) for k in range(deg + 1)]
            vals = np.polynomial.polynomial.polyval(xs, coeffs)
            evaluated += len(xs)
            bad = np.nonzero(vals < -tol * scale)[0]
            if len(bad):
                i = int(bad[np.argmin(vals[bad])])
                witnesses.append(Witness(kind="grid", trial=p, point=pts[i],
                                         value=float(vals[i])))
            continue
        for x in pts:
            v = q.eval(x)
            evaluated += 1
            if v < -tol * scale:
                witnesses.append(Witness(kind="grid", trial=p, point=x, value=v))
                break  # one witness per trial polynomial is enough
    checked = f"{len(trials)} trials x grid ({evaluated} evaluations)"
    if witnesses:
        return PreserverVerdict(FAIL, tuple(witnesses), checked)
    return PreserverVerdict(INCONCLUSIVE, (), checked)


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
