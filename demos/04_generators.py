"""Generators of positivity-preserving semigroups.

Constant-coefficient generators on the full space are parameterized by
(a0, Sigma, b, nu); on a compact set crossed with a half-line only scaling,
right drift and positive jumps survive.  The constructions are exact and
cross-checked here against the convolution-series route, the resolvent
falsifier, and the pointwise-frozen necessary checks.
"""

import math

import numpy as np
from scipy.linalg import expm

from pospres import (
    DiffOp,
    DiscreteMeasure,
    LevyField,
    LevyTriple,
    Poly,
    check_finite_order_generator,
    check_generator_field_sufficient,
    check_generator_rn,
    dop_from_seq,
    from_measure,
    generator_from_levy,
    generator_from_levy_halfline,
    matrix_rep,
    one_plus_check,
    resolvent_check,
    semigroup_moments,
    square_trials,
)

x = Poly.variable(1, 0)
grid = [(g,) for g in np.linspace(-10, 10, 2001)]

# -- assembling generators from triple data -----------------------------------

heat = generator_from_levy(LevyTriple(0.0, [[1.0]], [0.0]), 6)
print("pure diffusion:", {a: q.coeff((0,)) for a, q in heat.sorted_coeffs()})

jumps = generator_from_levy(
    LevyTriple(0.0, [[0.0]], [0.0], DiscreteMeasure.dirac((2.0,))), 6)
print("pure jump (atom at 2):",
      {a[0]: round(q.coeff((0,)) * math.factorial(a[0]), 6)
       for a, q in jumps.sorted_coeffs()})

drift_half = generator_from_levy_halfline(0.0, 1.0, None, 6)
print("half-line right drift:", {a: q.coeff((0,)) for a, q in drift_half.sorted_coeffs()})

# -- two routes to the semigroup moments --------------------------------------

mu = DiscreteMeasure([((0.5,), 1.0), ((-1.0,), 0.5), ((1.2,), 0.25)])
s = from_measure(mu, 8)
a0, beta, t = 0.3, -0.4, 1.0
A = dop_from_seq(s) + DiffOp.partial(1, (1,), beta) + DiffOp.from_constant_table({(0,): a0}, 1)
M = matrix_rep(A, 8)
E = expm(t * M.entries)  # s_k = (exp(tA) x^k)(0), the constant row
series = semigroup_moments(a0, beta, s, t)
gap = max(abs(E[0, M.basis.index_of((k,))] - series.value((k,))) for k in range(9))
print("\nmatrix-exponential vs convolution-series moments gap:", gap)

# -- frozen-coefficient necessary checks ---------------------------------------

print("\nheat generator sampling check:",
      check_generator_rn(DiffOp(1, {(2,): 0.5}), 2, [(0.0,), (1.0,)], [0.1, 1.0]).status)
cubic = DiffOp(1, {(1,): x, (2,): 3 * x * x, (3,): x ** 3})
print("cubic scaling generator at y=1, t=0.005:",
      check_generator_rn(cubic, 2, [(1.0,)], [0.005]).status)
print("finite-order normal form of d^3:",
      check_finite_order_generator(DiffOp(1, {(3,): 1.0}), [(0.0,)]).status)
good = DiffOp(1, {(1,): Poly.constant(1, 1.0), (2,): (1.0 + x * x) * 0.5})
print("finite-order normal form of d + (1+x^2)/2 d^2:",
      check_finite_order_generator(good, [(0.0,)]).status)

# -- resolvent and Euler-step falsifiers ---------------------------------------

lap = DiffOp(1, {(2,): 1.0})
print("\nresolvent of d^2 at lambda >= 0:",
      resolvent_check(lap, 4, [0.0, 0.1, 1.0], [x * x], grid).status)
print("resolvent of d^2 at lambda < 0:",
      resolvent_check(lap, 4, [-0.25], [x * x], grid).status)
mix = dop_from_seq(from_measure(DiscreteMeasure.dirac((0.8,)), 6))
print("Euler step of a constructive preserver:",
      one_plus_check(mix, 6, [0.0, 0.1, 1.0, 10.0],
                     square_trials(1, [-1.0, 0.0, 2.0]), grid).status)

# -- pointwise-sufficient polynomial fields -------------------------------------

F = LevyField(0.0, ((Poly.constant(1, 1.0) + x * x,),), (Poly.zero(1),))
verdict, assembled = check_generator_field_sufficient(
    F, [(y,) for y in np.linspace(-3, 3, 13)], 4)
print("\ngrowing-diffusion field:", verdict.status)
print("assembled operator q_2:", assembled.coefficient((2,)))
