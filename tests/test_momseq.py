import math
import random

import numpy as np
import pytest

from pospres.polyalg import Poly
from pospres.diffop import DiffOp, TruncationError, compose
from pospres.momseq import (
    CONVERGES_LIKELY,
    DIVERGES_LIKELY,
    UNKNOWN,
    DiscreteMeasure,
    MomentSeq,
    carleman_indicator,
    conv_exp,
    convolve,
    convolve_measures,
    dop_from_seq,
    format_measure,
    format_sequence,
    from_measure,
    hadamard,
    hadamard_measures,
    is_psd,
    moment_matrix,
    parse_measure,
    parse_sequence,
)


def random_measure(rng, n=1, atoms=3, span=1.5):
    return DiscreteMeasure([
        (tuple(rng.uniform(-span, span) for _ in range(n)), rng.uniform(0.2, 1.0))
        for _ in range(atoms)])


# ---------------------------------------------------------------------------
# from_measure
# ---------------------------------------------------------------------------

def test_moments_of_origin_dirac():
    s = from_measure(DiscreteMeasure.dirac((0.0,)), 5)
    assert [s.value((k,)) for k in range(6)] == [1, 0, 0, 0, 0, 0]


def test_moments_of_symmetric_pair():
    mu = DiscreteMeasure([((-1.0,), 0.5), ((1.0,), 0.5)])
    s = from_measure(mu, 6)
    assert [s.value((k,)) for k in range(7)] == [1, 0, 1, 0, 1, 0, 1]


def test_moments_of_shifted_dirac():
    c = 1.7
    s = from_measure(DiscreteMeasure.dirac((c,)), 5)
    for k in range(6):
        assert s.value((k,)) == pytest.approx(c ** k)


def test_measure_weights_positive():
    with pytest.raises(ValueError):
        DiscreteMeasure([((0.0,), -1.0)])


# ---------------------------------------------------------------------------
# dop_from_seq
# ---------------------------------------------------------------------------

def test_dop_unit_sequence():
    s = from_measure(DiscreteMeasure.dirac((0.0,)), 4)
    D = dop_from_seq(s)
    assert D.coefficient((0,)).coeff((0,)) == 1.0
    assert D.order == 0


def test_dop_shift_matches_taylor_shift():
    c = -0.8
    D = dop_from_seq(from_measure(DiscreteMeasure.dirac((c,)), 5))
    from pospres.diffop import apply
    x = Poly.variable(1, 0)
    p = x ** 4 - 3 * x
    got = apply(D, p)
    want = p.taylor_shift((c,))
    for k in range(5):
        assert got.coeff((k,)) == pytest.approx(want.coeff((k,)), rel=1e-12, abs=1e-12)


def test_dop_even_sequence_coefficients():
    # s = (1,0,1,0,1,...) -> q_{2k} = 1/(2k)!
    s = MomentSeq(1, 6, {(k,): 1.0 if k % 2 == 0 else 0.0 for k in range(7)})
    D = dop_from_seq(s)
    for k in range(7):
        expected = 1.0 / math.factorial(k) if k % 2 == 0 else 0.0
        assert D.coefficient((k,)).coeff((0,)) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# convolve / hadamard
# ---------------------------------------------------------------------------

def test_convolution_unit():
    rng = random.Random(3)
    s = from_measure(random_measure(rng), 6)
    unit = from_measure(DiscreteMeasure.dirac((0.0,)), 6)
    out = convolve(s, unit)
    for k in range(7):
        assert out.value((k,)) == pytest.approx(s.value((k,)))


def test_convolution_binomial_identity():
    s1 = from_measure(DiscreteMeasure.dirac((1.0,)), 6)
    s2 = from_measure(DiscreteMeasure.dirac((2.0,)), 6)
    u = convolve(s1, s2)
    for k in range(7):
        assert u.value((k,)) == pytest.approx(3.0 ** k)


def test_convolution_measure_oracle():
    rng = random.Random(41)
    for _ in range(10):
        mu, nu = random_measure(rng), random_measure(rng)
        lhs = convolve(from_measure(mu, 6), from_measure(nu, 6))
        rhs = from_measure(convolve_measures(mu, nu), 6)
        for k in range(7):
            assert lhs.value((k,)) == pytest.approx(rhs.value((k,)), rel=1e-11, abs=1e-11)


def test_convolution_commutative_associative():
    rng = random.Random(17)
    for _ in range(10):
        a = from_measure(random_measure(rng), 5)
        b = from_measure(random_measure(rng), 5)
        c = from_measure(random_measure(rng), 5)
        ab = convolve(a, b)
        ba = convolve(b, a)
        abc1 = convolve(ab, c)
        abc2 = convolve(a, convolve(b, c))
        for k in range(6):
            assert ab.value((k,)) == pytest.approx(ba.value((k,)), rel=1e-12)
            assert abc1.value((k,)) == pytest.approx(abc2.value((k,)), rel=1e-11, abs=1e-11)


def test_hadamard_unit_is_all_ones():
    rng = random.Random(5)
    s = from_measure(random_measure(rng), 5)
    ones = from_measure(DiscreteMeasure.dirac((1.0,)), 5)
    out = hadamard(ones, s)
    for k in range(6):
        assert out.value((k,)) == pytest.approx(s.value((k,)))


def test_hadamard_of_diracs():
    a, b = 0.7, -2.0
    sa = from_measure(DiscreteMeasure.dirac((a,)), 5)
    sb = from_measure(DiscreteMeasure.dirac((b,)), 5)
    out = hadamard(sa, sb)
    for k in range(6):
        assert out.value((k,)) == pytest.approx((a * b) ** k)


def test_hadamard_measure_oracle():
    rng = random.Random(43)
    mu = random_measure(rng, atoms=2)
    nu = random_measure(rng, atoms=3)
    lhs = hadamard(from_measure(mu, 6), from_measure(nu, 6))
    rhs = from_measure(hadamard_measures(mu, nu), 6)
    for k in range(7):
        assert lhs.value((k,)) == pytest.approx(rhs.value((k,)), rel=1e-11, abs=1e-11)


def test_from_measure_additive():
    rng = random.Random(9)
    mu, nu = random_measure(rng), random_measure(rng)
    both = DiscreteMeasure(list(mu.atoms) + list(nu.atoms))
    lhs = from_measure(mu, 5) + from_measure(nu, 5)
    rhs = from_measure(both, 5)
    for k in range(6):
        assert lhs.value((k,)) == pytest.approx(rhs.value((k,)), rel=1e-12, abs=1e-12)


def test_dop_homomorphism():
    rng = random.Random(29)
    s = from_measure(random_measure(rng), 5)
    t = from_measure(random_measure(rng), 5)
    C = compose(dop_from_seq(s), dop_from_seq(t), 5)
    D = dop_from_seq(convolve(s, t))
    for k in range(6):
        assert C.coefficient((k,)).coeff((0,)) == pytest.approx(
            D.coefficient((k,)).coeff((0,)), rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------------------
# conv_exp
# ---------------------------------------------------------------------------

def test_conv_exp_zero_time():
    rng = random.Random(13)
    s = from_measure(random_measure(rng), 5)
    out = conv_exp(s, 0.0)
    assert [out.value((k,)) for k in range(6)] == [1, 0, 0, 0, 0, 0]


def test_conv_exp_zeroth_entry():
    rng = random.Random(19)
    s = from_measure(random_measure(rng), 5)
    for t in (0.1, 1.0, 2.5):
        assert conv_exp(s, t).value((0,)) == pytest.approx(
            math.exp(t * s.value((0,))), rel=1e-13)


def test_conv_exp_of_point_mass_total_mass():
    # e^{*t delta_c} has total mass e^t and mean t*c*e^t
    c, t = 1.2, 0.8
    s = from_measure(DiscreteMeasure.dirac((c,)), 4)
    out = conv_exp(s, t)
    assert out.value((0,)) == pytest.approx(math.exp(t))
    assert out.value((1,)) == pytest.approx(t * c * math.exp(t), rel=1e-12)


# ---------------------------------------------------------------------------
# moment matrices
# ---------------------------------------------------------------------------

def test_moment_matrix_rank_one_ones():
    s = from_measure(DiscreteMeasure.dirac((1.0,)), 4)
    M = moment_matrix(s, 2)
    assert np.array_equal(M.entries, np.ones((3, 3)))
    ok, lam = is_psd(M)
    assert ok and lam >= -1e-12
    assert np.linalg.matrix_rank(M.entries) == 1


def test_moment_matrix_symmetric_pair():
    mu = DiscreteMeasure([((-1.0,), 0.5), ((1.0,), 0.5)])
    M = moment_matrix(from_measure(mu, 4), 2)
    assert np.array_equal(M.entries, np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], float))
    assert is_psd(M)[0]


def test_moment_matrix_truncation_guard():
    s = from_measure(DiscreteMeasure.dirac((1.0,)), 3)
    with pytest.raises(TruncationError):
        moment_matrix(s, 2)


def test_localized_matrix_needs_extra_order():
    s = from_measure(DiscreteMeasure.dirac((1.0,)), 4)
    x = Poly.variable(1, 0)
    with pytest.raises(TruncationError):
        moment_matrix(s, 2, w=x)


def test_randomized_measures_give_psd_matrices():
    rng = random.Random(57)
    for _ in range(25):
        mu = random_measure(rng, atoms=rng.randint(1, 4))
        s = from_measure(mu, 8)
        for d in (1, 2, 3, 4):
            ok, lam = is_psd(moment_matrix(s, d))
            assert ok, (mu.atoms, d, lam)


def test_stieltjes_pattern_on_halfline_measures():
    rng = random.Random(61)
    x = Poly.variable(1, 0)
    for _ in range(15):
        mu = DiscreteMeasure([
            ((rng.uniform(0.0, 3.0),), rng.uniform(0.2, 1.0)) for _ in range(3)])
        s = from_measure(mu, 7)
        assert is_psd(moment_matrix(s, 3))[0]
        assert is_psd(moment_matrix(s, 3, w=x))[0]


def test_is_psd_identity():
    from pospres.momseq import MomentMatrix
    from pospres.polyalg import BasisMap
    M = MomentMatrix(BasisMap(1, 1), np.eye(2))
    assert is_psd(M) == (True, 1.0)


def test_is_psd_indefinite():
    from pospres.momseq import MomentMatrix
    from pospres.polyalg import BasisMap
    M = MomentMatrix(BasisMap(1, 1), np.array([[1.0, 2.0], [2.0, 1.0]]))
    ok, lam = is_psd(M)
    assert not ok and lam == pytest.approx(-1.0)


def test_scaling_sequence_matrix_smallest_eigenvalue():
    # the diagonal-family matrix at the published bracket ends
    from pospres.eventual import sigma_scaling_sequence
    ok, lam = is_psd(moment_matrix(sigma_scaling_sequence(0.0119688), 2))
    assert not ok
    assert lam == pytest.approx(-3.39928e-8, rel=0.02)
    ok2, lam2 = is_psd(moment_matrix(sigma_scaling_sequence(0.0119689), 2))
    assert ok2
    assert lam2 == pytest.approx(1.7888e-8, rel=0.02)


# ---------------------------------------------------------------------------
# growth indicator
# ---------------------------------------------------------------------------

def test_carleman_bounded_moments_diverge():
    s = MomentSeq(1, 32, {(k,): 1.0 if k % 2 == 0 else 0.0 for k in range(33)})
    assert carleman_indicator(s) == DIVERGES_LIKELY


def test_carleman_factorial_growth_converges():
    s = MomentSeq(1, 32, {(k,): float(math.factorial(k)) if k % 2 == 0 else 0.0
                          for k in range(33)})
    assert carleman_indicator(s) == CONVERGES_LIKELY


def test_carleman_degenerate_zero_moments_unknown():
    s = from_measure(DiscreteMeasure.dirac((0.0,)), 32)
    assert carleman_indicator(s) == UNKNOWN


def test_carleman_gaussian_diverges():
    vals = {}
    for k in range(33):
        vals[(k,)] = float(math.prod(range(1, k, 2))) if k % 2 == 0 else 0.0
    assert carleman_indicator(MomentSeq(1, 32, vals)) == DIVERGES_LIKELY


def test_carleman_multivariate_mixed():
    # one risky marginal is enough for ConvergesLikely
    vals = {}
    for a in range(17):
        for b in range(17 - a):
            if a + b <= 16:
                v = float(math.factorial(a)) if b == 0 else (1.0 if a == 0 else 0.0)
                vals[(a, b)] = v
    s = MomentSeq(2, 16, vals)
    assert carleman_indicator(s, terms=8) == CONVERGES_LIKELY


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_sequence_file_round_trip():
    s = MomentSeq(1, 3, {(0,): 1.0, (1,): -0.25, (2,): 1e-3, (3,): 7.0})
    text = format_sequence(s)
    again = parse_sequence(text)
    assert again == s
    assert format_sequence(again) == text


def test_measure_file_round_trip():
    mu = DiscreteMeasure([((0.5, -1.0), 2.0), ((1e-3, 3.0), 0.125)])
    text = format_measure(mu)
    again = parse_measure(text)
    assert again == mu
    assert format_measure(again) == text


def test_measure_file_comments():
    mu = parse_measure("# two atoms\natom (1.0) 0.5\n\natom (-1.0) 0.5\n")
    assert len(mu.atoms) == 2


def test_file_whitespace_inside_brackets():
    assert parse_sequence("[ 0 , 0 ] = 1\n[1,0]=2  # x1\n") == MomentSeq(
        2, 1, {(0, 0): 1.0, (1, 0): 2.0})
    assert parse_measure("atom ( 0.5 , -1 ) 2\n") == DiscreteMeasure([((0.5, -1.0), 2.0)])


@pytest.mark.parametrize("parse, text, line", [
    (parse_sequence, "[0] = 1\n[0] = 2\n", 2),  # duplicate index, once the last one won
    (parse_sequence, "[0] = 1\n[1] 2\n", 2),
    (parse_sequence, "[0] = 1 2\n", 1),
    (parse_sequence, "[-1] = 1\n", 1),
    (parse_sequence, "[0] = 1\n[1,0] = 1\n", 2),
    (parse_sequence, "[0] = one\n", 1),
    (parse_measure, "atom 0.5) 1\n", 1),
    (parse_measure, "atomic (0.5) 1\n", 1),
    (parse_measure, "atom (0.5) 1\natom (0.5, 1) 1\n", 2),
    (parse_measure, "atom (0.5) 1 2\n", 1),
])
def test_sequence_and_measure_file_errors(parse, text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse(text)


def test_sequence_constructor_guards():
    with pytest.raises(ValueError):
        MomentSeq(1, 2, {(0,): float("nan")})
    with pytest.raises(TruncationError):
        MomentSeq(1, 2, {(5,): 1.0})
