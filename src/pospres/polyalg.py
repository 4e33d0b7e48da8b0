"""Sparse multivariate polynomial arithmetic over a graded monomial basis.

Polynomials in n variables are stored as dictionaries mapping exponent
tuples (one non-negative integer per variable) to nonzero float
coefficients.  All combinatorial factors (factorials, binomials, falling
factorials) are computed with exact integer arithmetic before being folded
into the float coefficients.

The graded lexicographic order (total degree first, then ascending
lexicographic comparison of exponent tuples) fixes a basis of the space of
polynomials of degree <= d.  That ordering makes the matrix of any
constant-coefficient differential operator triangular with the constant
term on the diagonal, which the operator-algebra layer relies on for
logarithms and exactness arguments.  The shared index tables of that basis
(``graded_basis``, the Hankel tables of ``hankel_index``) and the evaluation
of polynomials over whole point clouds (``evaluate``) live here too; they
import numpy when called, so the dictionary arithmetic loads without it.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterable, Iterator, Sequence

MultiIndex = tuple  # exponent tuple, one entry per variable


class DimensionMismatchError(ValueError):
    """A point, shift vector, or exponent tuple has the wrong length."""


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------

def mi_degree(alpha: MultiIndex) -> int:
    """Total degree |alpha|."""
    return sum(alpha)


def mi_add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(alpha, beta))


def mi_sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """Componentwise difference alpha - beta; requires beta <= alpha."""
    if not mi_leq(beta, alpha):
        raise ValueError(f"multi-index {beta} is not componentwise <= {alpha}")
    return tuple(a - b for a, b in zip(alpha, beta))


def mi_leq(beta: MultiIndex, alpha: MultiIndex) -> bool:
    """Componentwise partial order beta <= alpha."""
    return all(b <= a for a, b in zip(alpha, beta))


def mi_factorial(alpha: MultiIndex) -> int:
    """alpha! = prod_i alpha_i! (exact)."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def mi_binom(alpha: MultiIndex, beta: MultiIndex) -> int:
    """binom(alpha, beta) = prod_i binom(alpha_i, beta_i) (exact)."""
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def mi_perm(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Falling factorial alpha!/(alpha-beta)! for beta <= alpha (exact)."""
    out = 1
    for a, b in zip(alpha, beta):
        if b > a:
            return 0
        out *= math.perm(a, b)
    return out


def graded_key(alpha: MultiIndex):
    """Sort key realising the graded lexicographic order."""
    return (sum(alpha), alpha)


def iter_multiindices(n: int, max_degree: int) -> Iterator[MultiIndex]:
    """Yield all alpha with |alpha| <= max_degree in graded lexicographic order."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    for total in range(max_degree + 1):
        yield from sorted(compositions(total, n))


def iter_multiindices_leq(alpha: MultiIndex) -> Iterator[MultiIndex]:
    """Yield all beta with beta <= alpha componentwise."""
    ranges = [range(a + 1) for a in alpha]

    def rec(i):
        if i == len(ranges):
            yield ()
            return
        for v in ranges[i]:
            for tail in rec(i + 1):
                yield (v,) + tail

    yield from rec(0)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Immutable sparse polynomial with real coefficients.

    ``terms`` maps exponent tuples to coefficients; exact zeros are never
    stored, so the zero polynomial has an empty term map and degree -inf.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        if n < 1:
            raise ValueError("variable count must be >= 1")
        object.__setattr__(self, "n", n)
        clean = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n:
                raise DimensionMismatchError(
                    f"exponent tuple {alpha} has length {len(alpha)}, expected {n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = float(c)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
        object.__setattr__(self, "terms", {a: c for a, c in clean.items() if c != 0.0})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: float) -> "Poly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The polynomial x_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1.0})

    @classmethod
    def monomial(cls, n: int, alpha: MultiIndex, c: float = 1.0) -> "Poly":
        return cls(n, {tuple(alpha): c})

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return max(sum(a) for a in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, alpha: MultiIndex) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def constant_value(self) -> float:
        """Value of a degree-<=0 polynomial as a scalar."""
        if self.degree > 0:
            raise ValueError("polynomial is not constant")
        return self.coeff((0,) * self.n)

    def sorted_terms(self):
        """Terms in graded lexicographic order of the exponents."""
        return sorted(self.terms.items(), key=lambda t: graded_key(t[0]))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Poly.constant(self.n, other)
        if self.n != other.n:
            raise DimensionMismatchError("variable counts differ")
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return Poly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Poly.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Poly(self.n, {a: c * other for a, c in self.terms.items()})
        if self.n != other.n:
            raise DimensionMismatchError("variable counts differ")
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                k = mi_add(a, b)
                out[k] = out.get(k, 0.0) + ca * cb
        return Poly(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.n, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    __hash__ = None

    # -- analysis ----------------------------------------------------------

    def eval(self, y: Sequence[float]) -> float:
        """Evaluate at the point y, summing terms in graded basis order.

        The one-point case of ``evaluate``: both make the arithmetic of ``_term_sum``.
        """
        if len(y) != self.n:
            raise DimensionMismatchError(f"point has length {len(y)}, expected {self.n}")
        return _term_sum(self.sorted_terms(), lambda i, a: y[i] ** a)

    def derive(self, alpha: MultiIndex) -> "Poly":
        """Partial derivative d^alpha with exact falling-factorial factors."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n:
            raise DimensionMismatchError("derivative order has wrong length")
        out = {}
        for e, c in self.terms.items():
            if not mi_leq(alpha, e):
                continue
            out[mi_sub(e, alpha)] = c * mi_perm(e, alpha)
        return Poly(self.n, out)

    def taylor_shift(self, c: Sequence[float]) -> "Poly":
        """Return q with q(x) = p(x + c), by exact binomial expansion."""
        if len(c) != self.n:
            raise DimensionMismatchError(f"shift has length {len(c)}, expected {self.n}")
        out = Poly.zero(self.n)
        for e, coef in self.terms.items():
            # expand prod_i (x_i + c_i)^{e_i}
            term = Poly.constant(self.n, coef)
            for i, (ei, ci) in enumerate(zip(e, c)):
                if ei == 0:
                    continue
                factor = Poly(self.n, {
                    tuple(k if j == i else 0 for j in range(self.n)):
                        math.comb(ei, k) * ci ** (ei - k)
                    for k in range(ei + 1)
                })
                term = term * factor
            out = out + term
        return out

    def __repr__(self):
        return f"Poly({self.n}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# graded basis of R[x]_{<=d}
# ---------------------------------------------------------------------------

class BasisMap:
    """Bijection between {0, ..., dim-1} and {alpha : |alpha| <= d}.

    The order is graded lexicographic, so index 0 is the constant monomial
    and dim = binom(n + d, d).
    """

    __slots__ = ("n", "d", "indices", "_pos")

    def __init__(self, n: int, d: int):
        if n < 1 or d < 0:
            raise ValueError("need n >= 1 and d >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "indices", tuple(iter_multiindices(n, d)))
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(self.indices)})

    def __setattr__(self, name, value):
        raise AttributeError("BasisMap is immutable")

    @property
    def dim(self) -> int:
        return len(self.indices)

    def index_of(self, alpha: MultiIndex) -> int:
        alpha = tuple(alpha)
        try:
            return self._pos[alpha]
        except KeyError:
            raise IndexError(f"multi-index {alpha} not in basis (n={self.n}, d={self.d})")

    def multiindex_at(self, i: int) -> MultiIndex:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range [0, {self.dim})")
        return self.indices[i]

    def poly_to_vec(self, p: Poly) -> np.ndarray:
        import numpy as np
        if p.n != self.n:
            raise DimensionMismatchError("variable counts differ")
        if p.degree > self.d:
            raise ValueError(f"degree {p.degree} exceeds basis bound {self.d}")
        v = np.zeros(self.dim)
        for a, c in p.terms.items():
            v[self._pos[a]] = c
        return v

    def vec_to_poly(self, v: np.ndarray) -> Poly:
        if len(v) != self.dim:
            raise DimensionMismatchError("vector length does not match basis dimension")
        return Poly(self.n, {a: float(v[i]) for i, a in enumerate(self.indices) if v[i] != 0.0})


@functools.lru_cache(maxsize=256)
def graded_basis(n: int, d: int) -> BasisMap:
    """The shared (immutable) BasisMap of degree <= d in n variables."""
    return BasisMap(n, d)


@functools.lru_cache(maxsize=256)
def hankel_index(n: int, d: int, shift: MultiIndex | None = None) -> np.ndarray:
    """H[i, j] = graded index of beta_i + beta_j (+ shift) over the basis of degree <= d.

    A graded index does not depend on the truncation order, so S[..., H] gathers
    the (shifted) moment matrix from sequences stored in graded order.  The
    table is read-only because every caller shares it.
    """
    import numpy as np
    basis = graded_basis(n, d)
    shift = (0,) * n if shift is None else tuple(shift)
    pos = graded_basis(n, 2 * d + mi_degree(shift))._pos
    H = np.array([[pos[mi_add(mi_add(b, g), shift)] for g in basis.indices]
                  for b in basis.indices], dtype=np.intp)
    H.flags.writeable = False
    return H


# ---------------------------------------------------------------------------
# point clouds: every check evaluates whole clouds, CLOUD_BLOCK points at a time
# ---------------------------------------------------------------------------

CLOUD_BLOCK = 4096  # points per pass of the batched kernels; bounds their memory


def as_cloud(points, n: int) -> np.ndarray:
    """The points as a float array of shape (len(points), n)."""
    import numpy as np
    try:
        X = np.asarray(points, dtype=float)
    except ValueError:
        raise DimensionMismatchError(f"points must all have length {n}") from None
    if X.ndim == 2 and X.shape[1] == n:
        return X
    if X.ndim and len(X) == 0:
        return np.zeros((0, n))
    raise DimensionMismatchError(f"points must all have length {n}")


def _powers(column: np.ndarray, a: int) -> np.ndarray:
    """column ** a elementwise by Python's float power (numpy's may round differently)."""
    import numpy as np
    values, where = np.unique(column, return_inverse=True)
    return np.array([v ** a for v in values.tolist()], dtype=float)[where]


def _term_sum(terms, power):
    """sum over the terms of c * power(1, a_1) * ... * power(n, a_n), skipping a_i = 0.

    The arithmetic of every polynomial evaluation, in the order of the terms;
    ``power(i, a)`` is y_i ** a at one point, or the column of it over a cloud.
    """
    total = 0.0
    for alpha, c in terms:
        m = c
        for i, a in enumerate(alpha):
            if a:
                m = m * power(i, a)
        total = total + m
    return total


def evaluate(polys, points) -> np.ndarray:
    """Values of each polynomial at each point, shape (len(polys), len(points)).

    Each entry is bit-identical to ``Poly.eval`` at that point: the same
    ``_term_sum`` on columns, with the powers (shared by all polynomials)
    taken by Python's float power.
    """
    import numpy as np
    polys = list(polys)
    if not polys:
        return np.zeros((0, len(points)))
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise DimensionMismatchError("variable counts differ")
    X = as_cloud(points, n)
    powers = {}

    def power(i, a):
        if (i, a) not in powers:
            powers[i, a] = _powers(X[:, i], a)
        return powers[i, a]

    out = np.zeros((len(polys), len(X)))
    for row, p in zip(out, polys):
        row[:] = _term_sum(p.sorted_terms(), power)
    return out


# ---------------------------------------------------------------------------
# text grammar:  2.5 * x1^2 x2 - 1
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def parse_poly(text: str, n: int | None = None) -> Poly:
    """Parse the polynomial grammar: +/- separated terms `c * x1^e1 x2 ...`.

    Coefficients are decimal literals; a `*` after the coefficient and
    exponents equal to 1 are optional; a term may be a bare constant or a
    bare monomial.  When n is None the variable count is inferred from the
    largest variable index (1 for a pure constant).
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    # split into signed terms at top level
    terms = []
    buf = ""
    sign = 1.0
    i = 0
    # normalise leading sign
    while i < len(s):
        ch = s[i]
        if ch in "+-" and (buf.strip() or terms or i == 0) and (i == 0 or s[i - 1].lower() not in "e"):
            if buf.strip():
                terms.append((sign, buf))
            elif i > 0:
                raise ValueError(f"sign without a term in {text!r}")
            sign = 1.0 if ch == "+" else -1.0
            buf = ""
        else:
            buf += ch
        i += 1
    if not buf.strip():
        raise ValueError(f"sign without a term in {text!r}")
    terms.append((sign, buf))

    parsed = []
    max_var = 0
    for sgn, chunk in terms:
        chunk = chunk.strip()
        if not all(f.strip() for f in chunk.split("*")):
            raise ValueError(f"'*' must stand between two factors in {chunk!r}")
        coeff = sgn
        vars_part = chunk
        m = _NUM_RE.match(chunk)
        if m and m.start() == 0:
            coeff *= float(m.group(0))
            vars_part = chunk[m.end():]
        vars_part = vars_part.replace("*", " ").strip()
        exps = {}
        pos = 0
        for vm in _VAR_RE.finditer(vars_part):
            idx = int(vm.group(1))
            if idx < 1:
                raise ValueError(f"variable index must be >= 1 in {chunk!r}")
            e = int(vm.group(2) or 1)
            exps[idx] = exps.get(idx, 0) + e
            max_var = max(max_var, idx)
            pos = vm.end()
        leftover = _VAR_RE.sub("", vars_part).strip()
        if leftover:
            raise ValueError(f"cannot parse term {chunk!r}")
        if not exps and m is None:
            raise ValueError(f"cannot parse term {chunk!r}")
        parsed.append((coeff, exps))

    if n is None:
        n = max(max_var, 1)
    elif max_var > n:
        raise DimensionMismatchError(f"variable x{max_var} exceeds declared count {n}")

    out = {}
    for coeff, exps in parsed:
        alpha = tuple(exps.get(i + 1, 0) for i in range(n))
        out[alpha] = out.get(alpha, 0.0) + coeff
    return Poly(n, out)


def format_poly(p: Poly) -> str:
    """Serialise in the text grammar with round-trippable %.17g coefficients."""
    if p.is_zero():
        return "0"
    parts = []
    for alpha, c in p.sorted_terms():
        mono = " ".join(
            f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}"
            for i, a in enumerate(alpha) if a > 0
        )
        mag = format(abs(c), ".17g")
        body = f"{mag} * {mono}" if mono else mag
        if not parts:
            parts.append(body if c >= 0 else f"-{body}")
        else:
            parts.append(("+ " if c >= 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# record files: the line grammar of the operator, sequence, measure and triple formats
# ---------------------------------------------------------------------------

INDEX = "[a1,...,an]"  # the ``shapes`` key of records that start with an index
_TOKEN_RE = {
    "head": re.compile(r"\[(\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*)\]|[A-Za-z_]\w*"),
    "=": re.compile("="),
    "number": re.compile(r"\S+"),
    "point": re.compile(r"\(([^()]*)\)"),
    "matrix": re.compile(r"\[\s*\[[^\[\]]*\](?:\s*,\s*\[[^\[\]]*\])*\s*\]"),
    "poly": re.compile(".*"),
}


def read_records(text: str, shapes: dict, n: int | None = None) -> dict:
    """Parse a record file, one record per line after `#` comments, into {head: value}.

    ``shapes`` maps each head (INDEX for `[a1,...,an]`, else a keyword) to the
    kinds of the tokens after it in _TOKEN_RE, e.g. "= poly" or "point number".
    A head with `=` is given once, any other collects a list of values.  Each
    index, point and matrix row has n entries.  Each error is a ValueError
    whose message starts with `line N: `.
    """
    records = {}

    def entries(body: str, convert=float) -> tuple:
        nonlocal n
        out = tuple(map(convert, body.split(",")))
        n = len(out) if n is None else n
        if len(out) != n:
            raise DimensionMismatchError(f"expected {n} entries, got {len(out)}")
        return out

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            m = _TOKEN_RE["head"].match(line)
            key = None if m is None else INDEX if m.group(1) is not None else m.group(0)
            if key not in shapes:
                raise ValueError(f"expected {' or '.join(shapes)}, got {line!r}")
            head = entries(m.group(1), int) if key == INDEX else key
            rest, fields, kinds = line[m.end():].lstrip(), [], shapes[key].split()
            for kind in kinds:
                m = _TOKEN_RE[kind].match(rest)
                if m is None:
                    raise ValueError(f"expected {kind}, got {rest!r}")
                if kind == "number":
                    fields.append(float(m.group(0)))
                elif kind == "point":
                    fields.append(entries(m.group(1)))
                elif kind == "matrix":
                    rows = re.findall(r"\[([^\[\]]*)\]", m.group(0)[1:-1])
                    fields.append(tuple(map(entries, rows)))
                elif kind == "poly":
                    fields.append(parse_poly(m.group(0), n))
                rest = rest[m.end():].lstrip()
            if rest:
                raise ValueError(f"unexpected {rest!r} after the record")
            value = fields[0] if len(fields) == 1 else tuple(fields)
            if kinds[0] != "=":
                records.setdefault(head, []).append(value)
            elif head in records:
                raise ValueError(f"{line.split('=')[0].strip()} given twice")
            else:
                records[head] = value
        except ValueError as exc:
            exc.args = (f"line {ln}: {exc}",)
            raise
    return records


def format_index(alpha: MultiIndex) -> str:
    """The index token `[a1,...,an]` of the record files."""
    return f"[{','.join(map(str, alpha))}]"


def format_point(x: Sequence[float]) -> str:
    """The point token `(x1,...,xn)`, with round-trippable %.17g entries."""
    return "(" + ",".join(format(float(v), ".17g") for v in x) + ")"
