"""Property tests for the record file formats, the constant-coefficient
algebra and the batched point-cloud kernel.

Round trips: format -> parse -> format is byte-identical and the parsed
object equals the original.  Fuzzing: mutated files, random lines and random
polynomial text either parse or raise ValueError, never any other exception.
Constant-coefficient exp, log, invert and compose return constant operators
and agree with the dense matrix route.  The cloud checks give the verdicts,
witnesses and bit-identical eigenvalues of a per-point reference written
here with plain loops.  Moment and grid verdicts do not change when the
operator is scaled by c > 0.  Cone membership does not change when the
points are scaled by 2^j or when the coordinates of rays and points are
permuted, and its nonnegative least squares agrees with scipy's.  The numpy
matrix exponential agrees with scipy's in every Pade branch and is exact
where the answer is.  The time grid
of `pospres curve` is numpy.linspace's, bit for bit.  Every test is derandomized with a bounded example
count, so the suite stays deterministic.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from pospres.cli import _linspace
from pospres.polyalg import Poly, evaluate, iter_multiindices, mi_factorial, parse_poly
from pospres.diffop import (
    DiffOp,
    apply,
    compose,
    exp_op,
    expm as pade_expm,
    format_operator,
    invert,
    log_op,
    matrix_rep,
    parse_operator,
)
from pospres.momseq import (
    DiscreteMeasure,
    MomentSeq,
    dop_from_seq,
    format_measure,
    format_sequence,
    from_measure,
    parse_measure,
    parse_sequence,
)
from pospres.levygen import (
    LevyTriple,
    check_finite_order_generator,
    check_generator_rn,
    format_levy_triple,
    parse_levy_triple,
)
from pospres.preserver import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    KDescriptor,
    _in_cone,
    _nnls_residual,
    check_preserver_halfline,
    check_preserver_rn,
    coefficient_sequence,
    falsify_on_grid,
    square_trials,
)
from pospres.eventual import h2_closed, sigma_curve

DATA = Path(__file__).parent / "data"
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda c: c != 0.0)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
moderate = st.floats(-1e6, 1e6, allow_nan=False)


def points(n):
    return st.tuples(*[finite] * n)


def polys(n):
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), nonzero, max_size=3)
    return terms.map(lambda t: Poly(n, t))


@st.composite
def operators(draw):
    n = draw(st.integers(1, 3))
    indices = st.tuples(*[st.integers(0, 4)] * n)
    coeffs = draw(st.dictionaries(indices, polys(n), max_size=4))
    return DiffOp(n, coeffs, allow_degree_excess=True)


@st.composite
def sequences(draw):
    n, order = draw(st.integers(1, 2)), draw(st.integers(0, 4))
    values = {a: draw(finite) for a in iter_multiindices(n, order)}
    return MomentSeq(n, order, values)


@st.composite
def measures(draw, n=None):
    n = n or draw(st.integers(1, 3))
    return DiscreteMeasure(draw(st.lists(st.tuples(points(n), positive), min_size=1, max_size=4)))


@st.composite
def triples(draw):
    n = draw(st.integers(1, 3))
    off = {(i, j): draw(moderate) for i in range(n) for j in range(i + 1, n)}
    off.update({(j, i): v for (i, j), v in off.items()})
    # diagonally dominant with a non-negative diagonal, hence positive semidefinite
    sigma = [[off[i, j] if i != j else sum(abs(off[i, k]) for k in range(n) if k != i)
              + draw(st.floats(0.0, 1e6)) for j in range(n)] for i in range(n)]
    nu = draw(st.none() | measures(n))
    return LevyTriple(draw(finite), sigma, draw(points(n)), nu, order=draw(st.integers(1, 8)))


@SETTINGS
@given(operators())
def test_operator_round_trip(T):
    text = format_operator(T)
    again = parse_operator(text, T.n)  # an operator without terms writes an empty file
    assert format_operator(again) == text
    assert (again.n, again.coeffs, again.max_order) == (T.n, T.coeffs, None)


@SETTINGS
@given(sequences())
def test_sequence_round_trip(s):
    text = format_sequence(s)
    again = parse_sequence(text)
    assert format_sequence(again) == text
    assert again == s


@SETTINGS
@given(measures())
def test_measure_round_trip(mu):
    text = format_measure(mu)
    again = parse_measure(text)
    assert format_measure(again) == text
    assert again == mu


@SETTINGS
@given(triples())
def test_triple_round_trip(tr):
    text = format_levy_triple(tr)
    again = parse_levy_triple(text, order=tr.order)
    assert format_levy_triple(again) == text
    assert again.a0 == tr.a0 and again.nu == tr.nu and again.order == tr.order
    assert np.array_equal(again.sigma, tr.sigma) and np.array_equal(again.b, tr.b)


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

PARSERS = {
    "operator": (parse_operator, ["drift.op", "heat.op", "scaling3.op"],
                 "[0,0] = 1\n[2,1] = 0.5 * x1^2 x2 - 1e-3  # comment\n"),
    "sequence": (parse_sequence, ["d1.seq", "pm1.seq"], "[0,0] = 1\n[1,0] = -2.5\n[0,1] = 3\n"),
    "measure": (parse_measure, ["mix.measure"], "atom (0.5, -1) 2\natom (1e-3, 3) 0.125\n"),
    "triple": (parse_levy_triple, ["heat.triple"],
               "a0 = -0.5\nsigma = [[2, 0.5], [0.5, 1]]\nb = (1, -1)\nnu (1, 2) 0.25\n"),
}
MUTATION_CHARS = "[]()=,.#-+e x^*\n\t0123456789"
TOKENS = ["[0]", "[1,2]", "[ 2 , 0 ]", "[-1]", "(1.5)", "(0, 1)", "()", "=", "1", "-2.5e3",
          "nan", "x1", "x2^2", "*", "atom", "nu", "sigma", "b", "a0", "banana", "[[1]]",
          "[[1, 0], [0, 1]]", "[[1],[2]]", "#", ",", "(", ")", "[", "]", "\n"]


def parse_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@pytest.mark.parametrize("kind", sorted(PARSERS))
@SETTINGS
@given(data=st.data())
def test_mutated_files_parse_or_raise_value_error(kind, data):
    parse, files, example = PARSERS[kind]
    text = data.draw(st.sampled_from([(DATA / f).read_text() for f in files] + [example]))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        new = data.draw(st.sampled_from(["", *MUTATION_CHARS]))  # "" deletes
        keep = data.draw(st.booleans())  # insert before text[i], or replace it
        text = text[:i] + new + text[i + (0 if keep else 1):]
    parse_or_value_error(parse, text)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@SETTINGS
@given(lines=st.lists(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join), max_size=5))
def test_random_lines_parse_or_raise_value_error(kind, lines):
    parse_or_value_error(PARSERS[kind][0], "\n".join(lines))


# Polynomial text: fragments glued without separators, so numbers, exponents
# and signs run into each other; variable indices stay small because the
# largest one sets the variable count.
POLY_TOKENS = ["1", "-2.5e3", "1e-3", ".5", "x1", "x2^2", "x0", "x", "^", "^2", "*", "+", "-",
               "e", ".", " ", "nan"]


@SETTINGS
@given(st.lists(st.sampled_from(POLY_TOKENS), max_size=8).map("".join))
def test_parse_poly_parses_or_raises_value_error(text):
    parse_or_value_error(parse_poly, text)


# ---------------------------------------------------------------------------
# constant-coefficient algebra
# ---------------------------------------------------------------------------

@st.composite
def constant_pairs(draw):
    """Two constant operators in n <= 2 variables with q_0 > 0, and a degree d <= 6.

    Their tables reach any order up to 6, above or below d; q_alpha is drawn
    as s_alpha / alpha! with |s_alpha| <= 1, on the scale of the sequence ring.
    """
    n, d = draw(st.integers(1, 2)), draw(st.integers(0, 6))

    def operator():
        top = draw(st.integers(0, 6))
        table = {a: draw(st.floats(-1.0, 1.0)) / mi_factorial(a) for a in iter_multiindices(n, top)}
        table[(0,) * n] = draw(st.floats(0.5, 2.0))
        return DiffOp.from_constant_table(table, n)

    return operator(), operator(), d


@SETTINGS
@given(constant_pairs(), st.floats(-1.0, 1.0))
def test_constant_algebra_returns_constant_operators(pair, t):
    T, S, d = pair
    for out in (exp_op(T, t, d), log_op(T, d), invert(T, d), compose(T, S, d)):
        assert out.has_constant_coefficients() and out.max_order == d


def max_rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@SETTINGS
@given(constant_pairs(), st.floats(-1.0, 1.0))
def test_constant_algebra_matches_matrix_route(pair, t):
    T, S, d = pair
    M, MS = matrix_rep(T, d).entries, matrix_rep(S, d).entries
    assert max_rel_gap(matrix_rep(exp_op(T, t, d), d).entries, expm(t * M)) <= 1e-10
    assert max_rel_gap(matrix_rep(invert(T, d), d).entries, np.linalg.inv(M)) <= 1e-10
    assert max_rel_gap(matrix_rep(compose(T, S, d), d).entries, M @ MS) <= 1e-10
    assert max_rel_gap(expm(matrix_rep(log_op(T, d), d).entries), M) <= 1e-10


# ---------------------------------------------------------------------------
# batched point-cloud kernel against a per-point reference
# ---------------------------------------------------------------------------

def ref_eval(p, y):
    """Poly.eval as a plain loop: terms in graded order, powers by Python's float power."""
    total = 0.0
    for alpha, c in p.sorted_terms():
        m = c
        for yi, ai in zip(y, alpha):
            if ai:
                m *= yi ** ai
        total += m
    return total


def ref_sequence(T, y, order):
    return {a: mi_factorial(a) * ref_eval(T.coefficient(a), y) for a in iter_multiindices(T.n, order)}


def ref_moment_matrix(s, n, d, weight=None):
    """Entry (beta, gamma) is s_{beta+gamma}, or sum_kappa c * s_{beta+gamma+kappa}."""
    basis = list(iter_multiindices(n, d))
    M = np.zeros((len(basis), len(basis)))
    for i, b in enumerate(basis):
        for j, g in enumerate(basis):
            base = tuple(x + y for x, y in zip(b, g))
            if weight is None:
                M[i, j] = s[base]
            else:
                M[i, j] = sum(c * s[tuple(x + k for x, k in zip(base, kappa))]
                              for kappa, c in weight)
    return M


def ref_psd(M, tol=1e-10):
    """(PSD?, smallest eigenvalue) from one eigvalsh of this matrix alone."""
    lam = float(np.linalg.eigvalsh(M)[0])
    return lam >= -tol * float(np.max(np.abs(M))), lam


def ref_contains(K, x):
    """Point membership as a scalar rule per point."""
    if K.variant == "full":
        return True
    if K.variant == "box":
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, K.data))
    if K.variant == "ball":
        center, radius = K.data
        return math.dist(x, center) <= radius + 1e-12
    if K.variant == "cone":
        from scipy.optimize import nnls
        resid = nnls(np.array(K.data, dtype=float).T, np.asarray(x, dtype=float))[1]
        return resid <= 1e-9 * float(np.linalg.norm(x))
    if K.variant == "striphalf":
        return not x[-1] < 0 and all(lo <= xi <= hi for xi, (lo, hi) in zip(x[:-1], K.data))
    if K.variant == "lattice":
        return math.dist(x, [round(xi) for xi in x]) <= K.data[0] + 1e-12
    return all(abs(xi - round(xi)) <= 1e-12 for xi in x)


def real(rnd, lo, hi):
    """A float in [lo, hi], with an arbitrary mantissa four times in five."""
    if rnd.random() < 0.8:
        return rnd.uniform(lo, hi)
    return rnd.choice([x for x in (lo, hi, 0.0, 1.0, -1.0, 0.5) if lo <= x <= hi])


@st.composite
def clouds(draw, n, min_size=1, max_size=12):
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(min_size, max_size))
    return [tuple(real(rnd, -3.0, 3.0) for _ in range(n)) for _ in range(size)]


def small_polys(n, degree=3):
    terms = st.dictionaries(st.tuples(*[st.integers(0, degree)] * n),
                            st.floats(-2.0, 2.0).filter(lambda c: c != 0.0), max_size=3)
    return terms.map(lambda t: Poly(n, t))


@st.composite
def cloud_operators(draw, n, order):
    """A random coefficient table up to the order, or the shift mixture of a measure."""
    if draw(st.booleans()):
        atoms = draw(st.lists(st.tuples(st.tuples(*[st.floats(-1.0, 1.0)] * n),
                                        st.floats(0.1, 1.0)), min_size=1, max_size=3))
        return dop_from_seq(from_measure(DiscreteMeasure(atoms), order))
    indices = st.sampled_from(list(iter_multiindices(n, order)))
    return DiffOp(n, draw(st.dictionaries(indices, small_polys(n), max_size=6)),
                  allow_degree_excess=True)


@st.composite
def rn_cases(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return draw(cloud_operators(n, 2 * d)), d, draw(clouds(n))


@SETTINGS
@given(rn_cases())
def test_cloud_moment_check_matches_per_point_reference(case):
    T, d, ys = case
    want = [(tuple(y), lam) for y in ys
            for ok, lam in [ref_psd(ref_moment_matrix(ref_sequence(T, y, 2 * d), T.n, d))]
            if not ok]
    v = check_preserver_rn(T, d, ys)
    assert [(w.y, w.min_eigenvalue) for w in v.witnesses] == want
    assert v.status == (FAIL if want else PASS if T.certificate else INCONCLUSIVE)
    assert v.checked.startswith(f"moment matrices of order {d} at {len(ys)} points")
    for y in ys[:2]:
        assert coefficient_sequence(T, y, 2 * d).values == ref_sequence(T, y, 2 * d)
    polys = [q for _, q in T.sorted_coeffs()]
    assert np.array_equal(evaluate(polys, ys), np.array([[ref_eval(q, y) for y in ys]
                                                         for q in polys]).reshape(len(polys), len(ys)))


scales = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


def verdict_shape(v):
    return v.failed, [(w.y, w.trial, w.point) for w in v.witnesses]


@SETTINGS
@given(rn_cases(), scales)
def test_moment_verdicts_are_invariant_under_positive_scaling(case, c):
    # the PSD tolerance is relative, so scaling T scales each matrix and its floor alike
    T, d, ys = case
    want = verdict_shape(check_preserver_rn(T, d, ys))
    for scale in (c, 1e-12, 1e12):
        assert verdict_shape(check_preserver_rn(T * scale, d, ys)) == want


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(cloud_operators(n, 4), clouds(n))),
       scales)
def test_grid_verdicts_are_invariant_under_positive_scaling(case, c):
    T, grid = case
    trials, K = square_trials(T.n, [0.0, 1.0]), KDescriptor.full(T.n)
    want = verdict_shape(falsify_on_grid(T, K, trials, grid))
    for scale in (c, 1e-12, 1e12):
        assert verdict_shape(falsify_on_grid(T * scale, K, trials, grid)) == want


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9, 1e-11])
def test_scaled_down_negative_diffusion_still_fails(c):
    # s_2 = 2 * (-0.5 c) < 0 at every y; an absolute floor of 1e-10 let c = 1e-11 through
    T = DiffOp(1, {(0,): c, (2,): -0.5 * c})
    assert check_preserver_rn(T, 2, [(0.0,)]).status == FAIL


@SETTINGS
@given(st.integers(0, 3).flatmap(lambda d: st.tuples(
    cloud_operators(1, 2 * d + 1), st.just(d),
    clouds(1))))
def test_cloud_halfline_check_matches_per_point_reference(case):
    T, d, cloud = case
    ys = [abs(y) for (y,) in cloud]
    want = []
    for y in ys:
        s = ref_sequence(T, (y,), 2 * d + 1)
        ok, lam = ref_psd(ref_moment_matrix(s, 1, d))
        okl, laml = ref_psd(ref_moment_matrix(s, 1, d, (Poly.variable(1, 0) + y).sorted_terms()))
        want += [((y,), lam, "moment-matrix")] * (not ok) + [((y,), laml, "localized")] * (not okl)
    v = check_preserver_halfline(T, d, [(y,) for y in ys])
    assert [(w.y, w.min_eigenvalue, w.kind) for w in v.witnesses] == want
    assert (v.status == FAIL) if want else (v.status in (PASS, INCONCLUSIVE))
    assert f"order {d} at {len(ys)} points" in v.checked


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(
    cloud_operators(n, 2), clouds(n, max_size=3),
    st.lists(st.sampled_from([1e-3, 0.1, 1.0]), min_size=1, max_size=2))))
def test_cloud_generator_check_matches_per_point_reference(case):
    A, ys, ts = case
    want = []
    for y in ys:
        for t in ts:
            T = exp_op(A.freeze_at(y), t, 2)
            ok, lam = ref_psd(ref_moment_matrix(ref_sequence(T, (0.0,) * A.n, 2), A.n, 1))
            if not ok:
                want.append((tuple(y), lam, f"exp(t*A_y) at t={t:g}"))
    v = check_generator_rn(A, 1, ys, ts)
    assert [(w.y, w.min_eigenvalue, w.kind) for w in v.witnesses] == want
    assert v.checked.startswith(f"{len(ys) * len(ts)} frozen (y, t) cells")


@st.composite
def second_order_generators(draw):
    n = draw(st.integers(2, 3))
    coeffs = {a: draw(small_polys(n, degree=1)) * draw(st.floats(-1.0, 1.0))
              for a in iter_multiindices(n, 2) if sum(a) == 2}
    return DiffOp(n, coeffs, allow_degree_excess=True), draw(clouds(n))


@SETTINGS
@given(second_order_generators())
def test_cloud_second_order_scan_matches_per_point_reference(case):
    A, ys = case
    want = []
    for y in ys:
        M = np.array([[(2.0 if i == j else 1.0) * ref_eval(A.coefficient(
            tuple((k == i) + (k == j) for k in range(A.n))), y) for j in range(A.n)]
            for i in range(A.n)])
        lam = float(np.linalg.eigvalsh(M)[0])
        if lam < -1e-10 * float(np.max(np.abs(M))):
            want.append((tuple(y), lam))
    v = check_finite_order_generator(A, ys)
    if v.checked.startswith("coefficient"):  # a coefficient of degree > 2 refutes first
        return
    assert [(w.y, w.min_eigenvalue) for w in v.witnesses] == want
    assert v.checked == f"second-order matrices at {len(ys)} points"


def unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    return tuple(x / norm for x in v)


KINDS = ["full", "box", "ball", "cone", "striphalf", "lattice", "lattice-points"]


@st.composite
def regions(draw, kind):
    """A K of the variant, with points on or at the tolerance of its boundary."""
    n = draw(st.integers(2 if kind == "cone" else 1, 3))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def point():
        while True:
            v = tuple(real(rnd, -2.0, 2.0) for _ in range(n))
            if any(v):
                return v

    def bounds(count):
        return [sorted((real(rnd, -2.0, 2.0), real(rnd, -2.0, 2.0))) for _ in range(count)]

    directions = [unit(point()) for _ in range(3)]
    if kind == "full":
        return KDescriptor.full(n), []
    if kind == "box":
        box = bounds(n)
        return KDescriptor.box(box), [tuple(b[i % 2] for b in box) for i in range(2)]
    if kind == "ball":
        center, radius = point(), real(rnd, 0.0, 2.0)
        edge = [tuple(c + r * x for c, x in zip(center, u)) for u in directions
                for r in (radius, radius + 1e-12, radius + 2e-12)]
        return KDescriptor.ball(center, radius), edge
    if kind == "cone":
        rays = [point() for _ in range(draw(st.integers(1, n + 1)))]
        on = []
        for _ in range(4):
            weights = [rnd.choice([0.0, real(rnd, 0.0, 3.0)]) for _ in rays]
            on.append(tuple(sum(w * r[i] for w, r in zip(weights, rays)) for i in range(n)))
        ts = [real(rnd, 0.0, 3.0) for _ in range(3)]
        on += [tuple(t * x for x in ray) for ray in rays for t in ts]
        # just off a face, beyond or within the tolerance: a ray minus a little of another
        off = [tuple(t * x - eps * y for x, y in zip(a, b))
               for a in rays for b in rays if a is not b for t in ts for eps in (1e-6, 1e-11)]
        return KDescriptor.cone(rays), on + off
    if kind == "striphalf":
        strip = bounds(n - 1)
        return KDescriptor.compact_times_halfline(strip), [tuple(b[0] for b in strip) + (0.0,)]
    if kind == "lattice":
        radius = real(rnd, 0.0, 0.5)
        edge = [tuple(rnd.randint(-3, 3) + r * x for x in u)
                for u in directions for r in (radius, radius + 1e-12, radius + 2e-12)]
        return KDescriptor.lattice_balls(n, radius), edge
    return KDescriptor("lattice-points", n), [(1.0,) * n, (0.5,) * n]


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_cloud_membership_matches_scalar_rule(kind, data):
    K, special = data.draw(regions(kind))
    cloud = data.draw(clouds(K.n, min_size=0))
    pts = special + cloud
    want = [ref_contains(K, x) for x in pts]
    assert K.members(pts).tolist() == want
    assert [K.contains(x) for x in pts] == want


@SETTINGS
@given(data=st.data(), j=st.integers(-40, 40))
def test_cone_membership_is_invariant_under_scaling_by_powers_of_two(data, j):
    # scaling by 2^j is exact, so the relative threshold gives the same answer bit for bit
    K, special = data.draw(regions("cone"))
    X = np.array([(0.0,) * K.n] + special + data.draw(clouds(K.n)))
    assert K.members(2.0 ** j * X).tolist() == K.members(X).tolist()


@SETTINGS
@given(data=st.data())
def test_cone_membership_is_invariant_under_permuting_coordinates(data):
    K, special = data.draw(regions("cone"))
    pts = special + data.draw(clouds(K.n))
    perm = data.draw(st.permutations(range(K.n)))
    P = KDescriptor.cone([[ray[i] for i in perm] for ray in K.data])
    assert P.members([[x[i] for i in perm] for x in pts]).tolist() == K.members(pts).tolist()


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(
    cloud_operators(n, 4),
    st.lists(small_polys(n, degree=1).map(lambda p: p * p), min_size=1, max_size=3),
    clouds(n, max_size=20))))
def test_cloud_grid_witnesses_are_worst_points(case):
    T, trials, grid = case
    v = falsify_on_grid(T, KDescriptor.full(T.n), trials, grid)
    assert v.checked == f"{len(trials)} trials x grid ({len(trials) * len(grid)} evaluations)"
    want = []
    for p in trials:
        q = apply(T, p)
        vals = [ref_eval(q, x) for x in grid]
        floor = -1e-12 * q.max_abs_coeff()
        if min(vals) < floor:
            k = vals.index(min(vals))
            want.append((str(p), tuple(grid[k]), vals[k]))
    assert [(str(w.trial), w.point, w.value) for w in v.witnesses] == want
    for w in v.witnesses:
        assert w.value == apply(T, w.trial).eval(w.point)


@SETTINGS
@given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=20))
def test_cloud_sigma_curve_matches_per_time_reference(ts):
    h2, sigma3 = sigma_curve(ts)
    s = [{(k,): math.exp(t * k ** 3) for k in range(5)} for t in ts]
    assert h2 == [h2_closed(t) for t in ts]
    assert sigma3 == [ref_psd(ref_moment_matrix(x, 1, 2))[1] for x in s]


# ---------------------------------------------------------------------------
# the numpy matrix exponential against scipy's
# ---------------------------------------------------------------------------

# 1-norm bands: one for each Pade degree 3, 5, 7, 9 and 13, then the scaling branch
NORM_BANDS = [(1e-3, 1.4e-2), (1.5e-2, 0.25), (0.26, 0.95), (0.96, 2.09), (2.1, 5.37),
              (5.38, 50.0)]
# worst relative gap measured over 3000 random draws per band: 4.8e-12 (scaling branch)
EXPM_REL = 2e-11


def expm_gap(A):
    want = expm(A)
    return np.max(np.abs(pade_expm(A) - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("lo, hi", NORM_BANDS)
@SETTINGS
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_expm_matches_scipy_in_every_branch(lo, hi, n, seed, u):
    A = np.random.default_rng(seed).standard_normal((n, n))
    A *= (lo + u * (hi - lo)) / np.abs(A).sum(axis=0).max()
    assert expm_gap(A) <= EXPM_REL


@st.composite
def graded_generators(draw):
    """A non-constant degree-preserving operator of order <= 2 in n <= 3 variables, and d."""
    n = draw(st.integers(1, 3))
    coeffs = {}
    for alpha in iter_multiindices(n, draw(st.integers(1, 2))):
        betas = draw(st.lists(st.sampled_from(list(iter_multiindices(n, sum(alpha)))),
                              max_size=3))
        coeffs[alpha] = Poly(n, {b: draw(st.floats(-1.0, 1.0)) for b in betas})
    return DiffOp(n, coeffs), draw(st.integers(1, 4 if n < 3 else 3))


@SETTINGS
@given(graded_generators(), st.floats(0.01, 2.0))
def test_expm_matches_scipy_on_matrix_restrictions(case, t):
    A, d = case
    M = t * matrix_rep(A, d).entries
    if np.any(M):
        assert expm_gap(M) <= EXPM_REL


@pytest.mark.parametrize("n", range(6))
def test_expm_of_zero_is_identity(n):
    E = pade_expm(np.zeros((n, n)))
    assert E.shape == (n, n)
    assert np.array_equal(E, np.eye(n))


@SETTINGS
@given(st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_expm_of_nilpotent_is_its_finite_series(entries):
    N = np.zeros((3, 3))
    N[0, 1], N[0, 2], N[1, 2] = entries
    want = np.eye(3) + N + N @ N / 2
    assert np.max(np.abs(pade_expm(N) - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("A, error", [
    (np.array([[0.0, math.nan], [0.0, 0.0]]), ValueError),
    (np.array([[math.inf]]), ValueError),
    (np.zeros((2, 3)), ValueError),
    (1000.0 * np.eye(2), ArithmeticError),
])
def test_expm_refuses_non_finite_input_and_overflow(A, error):
    with pytest.raises(error):
        pade_expm(A)


grid_ends = finite | st.sampled_from([0.0, -0.0])


@SETTINGS
@given(st.tuples(grid_ends, grid_ends) | grid_ends.map(lambda x: (x, x)), st.integers(1, 500))
@example((-0.0, 1.0), 1)  # 0 * (hi - lo) + lo is +0.0
@example((0.0, 5e-324), 4)  # the step underflows to zero, the grid does not
def test_curve_grid_is_linspace_bit_for_bit(ends, m):
    lo, hi = ends
    with np.errstate(all="ignore"):  # an overflowing hi - lo gives inf and nan in both
        expected = np.linspace(lo, hi, m).tolist()
    assert [t.hex() for t in _linspace(lo, hi, m)] == [t.hex() for t in expected]


# ---------------------------------------------------------------------------
# nonnegative least squares against scipy's
# ---------------------------------------------------------------------------

def nnls_corpus(seed, cones=150, per_cone=20):
    """(rays as columns, points) pairs: k <= n + 3 rays in R^n, n <= 4, half
    with singular values spread over up to 8 decades, 3 in 10 with a last ray
    that is a combination of one or two others; the points are the apex, points
    near a face, just off one and far from the cone."""
    rng = np.random.default_rng(seed)
    for _ in range(cones):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 4))
        U, s, Vt = np.linalg.svd(rng.normal(size=(n, k)), full_matrices=False)
        cond = 10.0 ** rng.uniform(0.0, 8.0) if rng.random() < 0.5 else 1.0
        A = U @ np.diag(np.geomspace(1.0, 1.0 / cond, len(s))) @ Vt
        if k >= 2 and rng.random() < 0.3:
            i, j = rng.integers(k - 1, size=2)
            A[:, -1] = A[:, i] + rng.choice([2.0, 0.5, -2.0]) * A[:, j]
        pts = [np.zeros(n)]
        for _ in range(per_cone):
            on = A @ (rng.uniform(0.0, 3.0, k) * (rng.random(k) < 0.6))
            kind = rng.integers(3)
            if kind == 0:
                scale = 10.0 ** rng.uniform(-14, -6) * np.linalg.norm(on)
                pts.append(on + scale * rng.normal(size=n))
            elif kind == 1:
                pts.append(on - 10.0 ** rng.uniform(-13, -5) * A[:, rng.integers(k)])
            else:
                pts.append(10.0 ** rng.uniform(-3, 3) * rng.normal(size=n))
        yield A, np.array(pts)


@pytest.mark.parametrize("seed", range(2))
def test_nnls_residual_and_cone_membership_match_scipy(seed):
    from scipy.optimize import nnls

    decided = 0
    for A, X in nnls_corpus(seed):
        sv = np.linalg.svd(A, compute_uv=False)
        # the residual is as ill-conditioned as the ray set: both solvers
        # carry an error of about eps * cond * |b| (at most 0.41 of this bound on seeds 0-19)
        cond = sv[0] / sv[sv > 1e-12 * sv[0]].min()
        tol = max(1e-12, np.finfo(float).eps * cond)
        inside = _in_cone(X, A.T)
        for b, got in zip(X, inside):
            want = nnls(A, b)[1]
            assert abs(_nnls_residual(A, b) - want) <= tol * max(1.0, np.linalg.norm(b))
            thresh = 1e-9 * np.linalg.norm(b)
            if not (thresh > 0.0 and abs(want - thresh) <= 1e-6 * thresh):
                assert got == (want <= thresh)
                decided += 1
    assert decided >= 3000
