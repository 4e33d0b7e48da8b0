"""Independent reference computations for the benchmark's output checks.

Nothing here calls pospres.  Operators are plain dicts ``alpha -> {beta: c}``
(the coefficient q_alpha as a term map), sequences are dicts ``alpha -> value``
and measures are lists of ``(point, weight)`` atoms.  Every comparison is
relative to the scale of the operands.
"""

from __future__ import annotations

import math
import re

import mpmath
import numpy as np

# The paper's thresholds, as printed: tau_sigma ~ 0.0119689 (Thm. sigma) and
# tau_drift(1) ~ 1.16758 (Thm. 1).  ``unit`` is the last printed digit.
TAU_SIGMA_PAPER = (0.0119689, 1e-7)
TAU_DRIFT_A1_PAPER = (1.16758, 1e-5)

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# multi-indices and polynomial operators
# ---------------------------------------------------------------------------

def monomials(n: int, d: int) -> list:
    """All exponent tuples of total degree <= d, degree by degree."""
    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            out.append(prefix + (left,))
            return
        for k in range(left, -1, -1):
            rec(prefix + (k,), left - k, slots - 1)

    for deg in range(d + 1):
        rec((), deg, n)
    return out


def falling(gamma, alpha) -> float:
    """prod gamma_i! / (gamma_i - alpha_i)!, zero unless alpha <= gamma."""
    out = 1.0
    for g, a in zip(gamma, alpha):
        if a > g:
            return 0.0
        out *= math.perm(g, a)
    return out


def factorial(alpha) -> float:
    """alpha! = prod alpha_i!"""
    return falling(alpha, alpha)


def op_matrix(coeffs: dict, n: int, d: int) -> np.ndarray:
    """Matrix of sum_alpha q_alpha d^alpha on polynomials of degree <= d.

    Column j holds the image of the j-th monomial of ``monomials(n, d)``.
    """
    basis = monomials(n, d)
    pos = {g: i for i, g in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)))
    for j, gamma in enumerate(basis):
        for alpha, q in coeffs.items():
            f = falling(gamma, alpha)
            if f == 0.0:
                continue
            rest = tuple(g - a for g, a in zip(gamma, alpha))
            for beta, c in q.items():
                target = tuple(r + b for r, b in zip(rest, beta))
                if target not in pos:
                    raise ValueError(f"coefficient q_{alpha} leaves degree {d}")
                M[pos[target], j] += c * f
    return M


def poly_eval(terms: dict, x) -> float:
    return sum(c * math.prod(xi ** e for xi, e in zip(x, beta)) for beta, c in terms.items())


def apply_op(coeffs: dict, p: dict) -> dict:
    """Term map of (sum_alpha q_alpha d^alpha) p."""
    out: dict = {}
    for alpha, q in coeffs.items():
        for gamma, cp in p.items():
            f = falling(gamma, alpha)
            if f == 0.0:
                continue
            rest = tuple(g - a for g, a in zip(gamma, alpha))
            for beta, c in q.items():
                key = tuple(r + b for r, b in zip(rest, beta))
                out[key] = out.get(key, 0.0) + c * cp * f
    return out


def heat_coeffs(n: int, t: float, order: int) -> dict:
    """exp(t/2 * Laplacian): q_{2k} = prod_i (t/2)^{k_i} / k_i!, |2k| <= order."""
    zero = (0,) * n
    out = {}
    for k in monomials(n, order // 2):
        out[tuple(2 * ki for ki in k)] = {
            zero: math.prod((t / 2) ** ki / math.factorial(ki) for ki in k)}
    return out


def diffop_terms(T) -> dict:
    """Plain-dict copy of a pospres DiffOp's coefficient table (its output data)."""
    return {alpha: dict(q.terms) for alpha, q in T.coeffs.items()}


# ---------------------------------------------------------------------------
# measures and sequences
# ---------------------------------------------------------------------------

def moments(atoms, n: int, order: int) -> dict:
    return {a: sum(w * math.prod(x ** e for x, e in zip(p, a)) for p, w in atoms)
            for a in monomials(n, order)}


def convolved_atoms(mu, nu):
    return [(tuple(a + b for a, b in zip(p, q)), w * v) for p, w in mu for q, v in nu]


def product_atoms(mu, nu):
    return [(tuple(a * b for a, b in zip(p, q)), w * v) for p, w in mu for q, v in nu]


def gram(atoms, basis, scale=None) -> np.ndarray:
    """sum_atoms w * v v^T with v the monomial vector of the (scaled) atom."""
    M = np.zeros((len(basis), len(basis)))
    for p, w in atoms:
        x = p if scale is None else tuple(s * xi for s, xi in zip(scale, p))
        v = np.array([math.prod(xi ** e for xi, e in zip(x, b)) for b in basis])
        M += w * np.outer(v, v)
    return M


def conv_exp_series(mom: dict, n: int, order: int, t: float) -> dict:
    """Moments of sum_k t^k/k! mu^{*k} from the exponential generating function.

    With G(xi) = t * sum_alpha m_alpha xi^alpha / alpha!, F = exp(G) satisfies
    E F = (E G) F for the Euler operator E = sum xi_i d/dxi_i, which gives
    |alpha| F_alpha = sum_{0 < beta <= alpha} |beta| G_beta F_{alpha-beta}.
    """
    basis = monomials(n, order)
    G = {a: t * mom[a] / math.prod(math.factorial(e) for e in a) for a in basis}
    zero = (0,) * n
    F = {zero: math.exp(G[zero])}
    for a in basis[1:]:
        acc = 0.0
        for b in basis[1:]:
            if all(bi <= ai for bi, ai in zip(b, a)):
                acc += sum(b) * G[b] * F[tuple(ai - bi for ai, bi in zip(a, b))]
        F[a] = acc / sum(a)
    return {a: F[a] * math.prod(math.factorial(e) for e in a) for a in basis}


# ---------------------------------------------------------------------------
# closed forms of the paper's two families (40-digit arithmetic)
# ---------------------------------------------------------------------------

def h2(t: float) -> float:
    """Order-2 Hankel determinant of (e^{t k^3})_{k<=4}."""
    e = lambda k: mpmath.e ** (k * mpmath.mpf(t))
    return float(e(72) - e(66) - e(54) + 2 * e(36) - e(24))


def h2_scale(t: float) -> float:
    return math.exp(72 * t)


def sigma_hankel(t: float) -> np.ndarray:
    s = [math.exp(t * k ** 3) for k in range(5)]
    return np.array([[s[i + j] for j in range(3)] for i in range(3)])


def m_drift(a: float, t: float) -> float:
    """Threshold curve of the drift-diffusion family, expanded form."""
    t = mpmath.mpf(t)
    E = mpmath.expm1(t)
    return float((-E * E + a * a * (5 * E * E - (8 * t + t * t) * E + 3 * t * t)) / E)


def m_drift_scale(a: float, t: float) -> float:
    return math.expm1(t) * max(1.0, 5 * a * a)


def drift_expm_closed(a: float, t: float) -> np.ndarray:
    """exp(t (a d + (x^2-1)/2 d^2)) on {1, x, x^2}, columns are images."""
    et = math.exp(t)
    return np.array([[1.0, a * t, (2 * a * a - 1.0) * (et - 1.0) - 2 * a * a * t],
                     [0.0, 1.0, 2 * a * (et - 1.0)],
                     [0.0, 0.0, et]])


def bracket_error(lo: float, hi: float, paper, curve) -> str | None:
    """A threshold bracket must meet the paper's value and straddle a sign change."""
    value, unit = paper
    if not lo < hi:
        return f"empty bracket [{lo!r}, {hi!r}]"
    if hi < value - unit or lo > value + unit:
        return f"bracket [{lo!r}, {hi!r}] misses the paper's {value}"
    if not curve(lo) < 0.0 < curve(hi):
        return f"no sign change of the closed form across [{lo!r}, {hi!r}]"
    return None


# ---------------------------------------------------------------------------
# comparisons and text of the command-line formats
# ---------------------------------------------------------------------------

def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def mismatch(what: str, a, b, rtol: float) -> str | None:
    err = rel_err(a, b)
    return None if err <= rtol else f"{what}: relative error {err:.3e} > {rtol:g}"


_TERM = re.compile(r"^([+-]?)\s*(\d[\d.]*(?:[eE][+-]?\d+)?)(?:\s*\*\s*(.+))?$")
_VAR = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly_text(text: str, n: int) -> dict:
    """Term map of `c * x1^2 x2 - c2 ...` as the CLI prints it."""
    out: dict = {}
    for chunk in re.split(r" (?=[+-] )", text.strip()):
        m = _TERM.match(chunk.replace("+ ", "+").replace("- ", "-"))
        if not m:
            raise ValueError(f"cannot read term {chunk!r}")
        c = float(m.group(2)) * (-1.0 if m.group(1) == "-" else 1.0)
        e = [0] * n
        for v in _VAR.finditer(m.group(3) or ""):
            e[int(v.group(1)) - 1] += int(v.group(2) or 1)
        out[tuple(e)] = out.get(tuple(e), 0.0) + c
    return out


def parse_index_lines(text: str) -> list:
    """(index tuple, right-hand side) for each `[a1,...,an] = rhs` line."""
    rows = []
    for line in text.splitlines():
        head, body = line.split("=", 1)
        rows.append((tuple(int(k) for k in head.strip()[1:-1].split(",")), body.strip()))
    return rows


def parse_operator_text(text: str) -> tuple:
    rows = parse_index_lines(text)
    n = len(rows[0][0])
    return n, {alpha: parse_poly_text(body, n) for alpha, body in rows}
