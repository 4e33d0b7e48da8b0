"""The benchmark's three workloads: inputs made from a seed, and the calls.

Each builder returns a list of ``Op``.  An op is one CLI process or one call
of a public pospres function; ``check`` names the function in ``checks.py``
that judges its output, and ``args`` carries the plain-data inputs that
function needs to recompute the answer apart from pospres.  Calls resolve
pospres names when they run, so a traced run sees its wrappers.

Inputs vary with the seed in their values only: every seed gives the same
number of points, coefficients and atoms, and takes the same code paths.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pospres
from pospres import cli, diffop, eventual, levygen, momseq, preserver
from pospres.polyalg import Poly

WORKLOADS = ("cli", "sampling", "algebra")


@dataclass
class Op:
    name: str
    group: str
    call: Callable[[], object]
    check: str
    args: tuple = ()
    expect: int | None = None  # exit code a CLI op must return


def _atoms(rng, count, n, lo, hi):
    return [(tuple(rng.uniform(lo, hi) for _ in range(n)), rng.uniform(0.2, 1.0))
            for _ in range(count)]


def _op_from_terms(coeffs: dict, n: int) -> diffop.DiffOp:
    return diffop.DiffOp(n, {a: Poly(n, q) for a, q in coeffs.items()})


def _heat_table(n: int, t: float, order: int) -> dict:
    """alpha -> q_alpha of the time-t heat flow exp(t/2 Laplacian), |alpha| <= order."""
    return {tuple(2 * k for k in ks): math.prod((t / 2) ** k / math.factorial(k) for k in ks)
            for ks in pospres.iter_multiindices(n, order // 2)}


# ---------------------------------------------------------------------------
# sampling: verdict checks over point clouds
# ---------------------------------------------------------------------------

def build_sampling(seed: int) -> list:
    rng = random.Random(seed)
    ops = []

    # n = 2, 33 x 33 Chebyshev points, moment order 3
    lo2, hi2 = -rng.uniform(2.5, 3.5), rng.uniform(2.5, 3.5)
    ys2 = preserver.sample_points([(lo2, hi2)] * 2, per_axis=33)
    mix_atoms = _atoms(rng, 3, 2, -0.6, 0.6)
    mix = momseq.dop_from_seq(momseq.from_measure(momseq.DiscreteMeasure(mix_atoms), 6))
    t_heat = rng.uniform(0.5, 1.5)
    heat = diffop.DiffOp.from_constant_table(_heat_table(2, t_heat, 6), 2)
    bad = {(0, 0): {(0, 0): 1.0}, (2, 0): {(0, 0): -0.5}}  # 1 - 1/2 d1^2
    bad_op = _op_from_terms(bad, 2)
    probe2 = rng.sample(range(len(ys2)), 5)
    ops += [
        Op("rn2.mixture", "rn2_check_ms",
           lambda: preserver.check_preserver_rn(mix, 3, ys2),
           "shift_mixture_pass", (mix, mix_atoms, [ys2[i] for i in probe2], 3, None)),
        Op("rn2.heat", "rn2_check_ms",
           lambda: preserver.check_preserver_rn(heat, 3, ys2),
           "verdict_is", ("inconclusive", len(ys2))),
        Op("rn2.fail", "rn2_check_ms",
           lambda: preserver.check_preserver_rn(bad_op, 3, ys2),
           "moment_witnesses", (bad, ys2, 3, len(ys2))),
    ]

    # n = 3, 9^3 points: a substitution preserver with affine p(x)
    ys3 = preserver.sample_points([(-rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5))] * 3,
                                  per_axis=9)
    sub_atoms = _atoms(rng, 3, 3, -0.6, 0.6)
    p_affine = [(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)) for _ in range(3)]
    p_polys = [Poly(3, {(0, 0, 0): a, tuple(int(j == i) for j in range(3)): b})
               for i, (a, b) in enumerate(p_affine)]
    sub = diffop.build_substitution_preserver(
        p_polys, momseq.from_measure(momseq.DiscreteMeasure(sub_atoms), 4), 4)
    probe3 = rng.sample(range(len(ys3)), 5)
    ops.append(Op("rn3.substitution", "rn3_check_ms",
                  lambda: preserver.check_preserver_rn(sub, 2, ys3),
                  "shift_mixture_pass", (sub, sub_atoms, [ys3[i] for i in probe3], 2,
                                         p_affine)))

    # half-line: a shift mixture with atoms in (0, inf)
    half_atoms = _atoms(rng, 3, 1, 0.1, 2.0)
    half = momseq.dop_from_seq(momseq.from_measure(momseq.DiscreteMeasure(half_atoms), 9))
    ysh = [(y,) for y in preserver.chebyshev_points(0.0, 3.0, 33)]
    ops.append(Op("halfline.mixture", "halfline_check_ms",
                  lambda: preserver.check_preserver_halfline(half, 4, ysh),
                  "verdict_is", ("pass", len(ysh))))

    # generators: 33 points x 4 times
    ys1 = preserver.sample_points([(-3.0, 3.0)], per_axis=33)
    ts = [1e-3, 1e-2, 1e-1, 1.0]
    c_gen = rng.uniform(0.5, 1.5)
    heat_gen = diffop.DiffOp(1, {(2,): 0.5 * c_gen})
    scaling3 = {(1,): {(1,): 1.0}, (2,): {(2,): 3.0}, (3,): {(3,): 1.0}}
    scaling3_op = _op_from_terms(scaling3, 1)
    ops += [
        Op("generator.heat", "generator_check_ms",
           lambda: levygen.check_generator_rn(heat_gen, 2, ys1, ts),
           "verdict_is", ("inconclusive", len(ys1) * len(ts))),
        Op("generator.scaling3", "generator_check_ms",
           lambda: levygen.check_generator_rn(scaling3_op, 2, ys1, ts),
           "generator_witnesses", (scaling3, ys1, ts, 2)),
    ]

    # grid falsifiers at n = 2 on a 41 x 41 grid.  The trials are not seeded:
    # a failing scan stops at its first witness, so they fix the work done.
    full2 = preserver.KDescriptor.full(2)
    grid2 = preserver.grid_points(full2, -5.0, 5.0, 41)
    centers = [-2.0, -1.0, 0.0, 1.0, 2.0]
    trials = preserver.square_trials(2, centers)
    heat_gen2 = diffop.DiffOp(2, {(2, 0): 0.5 * c_gen, (0, 2): 0.5 * c_gen})
    ops += [
        Op("falsify.heat", "grid_falsify_ms",
           lambda: preserver.falsify_on_grid(heat, full2, trials, grid2),
           "verdict_is", ("inconclusive", None)),
        Op("falsify.fail", "grid_falsify_ms",
           lambda: preserver.falsify_on_grid(bad_op, full2, trials, grid2),
           "grid_witnesses", (bad, len(centers))),
        Op("resolvent.heat", "resolvent_ms",
           lambda: levygen.resolvent_check(heat_gen2, 4, [0.01, 0.1], trials, grid2),
           "verdict_is", ("inconclusive", None)),
    ]

    # the cone spanned by (1, 0) and (1, 1), default 41 x 41 grid on [-10, 10]^2
    cone = preserver.KDescriptor.cone([(1.0, 0.0), (1.0, 1.0)])
    ops.append(Op("grid.cone", "cone_grid_ms", lambda: preserver.grid_points(cone),
                  "cone_grid", (-10.0, 10.0, 41)))

    # the sigma family's curve on 2000 times around tau_sigma
    t_sig = np.linspace(rng.uniform(5e-4, 2e-3), rng.uniform(0.02, 0.03), 2000)
    ops.append(Op("curve.sigma", "sigma_curve_ms",
                  lambda: eventual.sigma_curve_rows(t_sig), "sigma_rows", (t_sig,)))
    return ops


# ---------------------------------------------------------------------------
# algebra: operator and sequence algebra at high degree
# ---------------------------------------------------------------------------

def _seeded(rng, structure: dict, lo: float, hi: float) -> dict:
    """A coefficient table with the given exponents and seeded values in [lo, hi]."""
    return {a: {e: rng.uniform(lo, hi) for e in exps} for a, exps in structure.items()}


# Fixed coefficient structures, so that every seed does the same work: each
# coefficient has a term of top degree |alpha|, so none is constant.
GEN2 = {(1, 0): [(1, 0), (0, 0)], (0, 1): [(0, 1)], (2, 0): [(0, 0), (1, 1)],
        (1, 1): [(1, 0)], (0, 2): [(0, 0), (0, 2)]}
OP3 = {(1, 0, 0): [(1, 0, 0), (0, 0, 0)], (0, 1, 0): [(0, 0, 1)],
       (0, 0, 2): [(0, 1, 1)], (1, 1, 0): [(0, 0, 0), (1, 0, 1)],
       (2, 0, 1): [(1, 1, 1)], (0, 0, 3): [(0, 0, 2)]}
FLOW2 = {(1, 0): [(1, 0), (0, 0)], (0, 1): [(0, 1)], (1, 1): [(1, 0)], (2, 0): [(1, 1)]}


def build_algebra(seed: int) -> list:
    rng = random.Random(seed)
    ops = []

    # exp of a non-constant 2-D generator at d = 10, at t and 2t
    gen = _seeded(rng, GEN2, -0.5, 0.5)
    gen_op = _op_from_terms(gen, 2)
    t = rng.uniform(0.1, 0.2)
    ops += [Op("exp_op.t", "exp_op_ms", lambda: diffop.exp_op(gen_op, t, 10),
               "exp_matches", (gen, 2, t, 10)),
            Op("exp_op.2t", "exp_op_ms", lambda: diffop.exp_op(gen_op, 2 * t, 10),
               "exp_matches", (gen, 2, 2 * t, 10))]

    # compose at n = 3, d = 6
    s3, r3 = _seeded(rng, OP3, -0.5, 0.5), _seeded(rng, OP3, -0.5, 0.5)
    for table in (s3, r3):
        table[(0, 0, 0)] = {(0, 0, 0): 1.0}
    s3_op, r3_op = _op_from_terms(s3, 3), _op_from_terms(r3, 3)
    ops.append(Op("compose.n3", "compose_ms", lambda: diffop.compose(s3_op, r3_op, 6),
                  "compose_matches", (s3, r3, 3, 6)))

    # invert a non-constant flow (per-index solve branch) at n = 2, d = 6;
    # positive values keep the solves' diagonals 1 + a k + b l away from 0
    flow = _seeded(rng, FLOW2, 0.05, 0.5)
    flow[(0, 0)] = {(0, 0): 1.0}
    flow_op = _op_from_terms(flow, 2)
    ops.append(Op("invert.flow", "invert_ms", lambda: diffop.invert(flow_op, 6),
                  "inverse_matches", (flow, 2, 6)))

    # invert exp(1/2 Laplacian) as exp_op returns it.  The input is not
    # seeded: its rounding dust decides which inversion branch runs.
    heat_exp = diffop.exp_op(diffop.DiffOp(2, {(2, 0): 0.5, (0, 2): 0.5}), 1.0, 8)
    heat_terms = {a: dict(q.terms) for a, q in heat_exp.coeffs.items()}
    ops.append(Op("invert.heat_exp", "invert_ms", lambda: diffop.invert(heat_exp, 8),
                  "heat_inverse_matches", (heat_terms, 1.0, 8)))

    # log of a shift mixture at n = 2, d = 8
    log_atoms = _atoms(rng, 3, 2, -0.6, 0.6)
    mixture = momseq.dop_from_seq(momseq.from_measure(momseq.DiscreteMeasure(log_atoms), 8))
    ops.append(Op("log_op.mixture", "log_op_ms", lambda: diffop.log_op(mixture, 8),
                  "log_matches", (log_atoms, 2, 8)))

    # sequence algebra at n = 2, order 12
    mu = _atoms(rng, 3, 2, -0.8, 0.8)
    nu = _atoms(rng, 2, 2, -0.8, 0.8)
    s_mu = momseq.from_measure(momseq.DiscreteMeasure(mu), 12)
    s_nu = momseq.from_measure(momseq.DiscreteMeasure(nu), 12)
    # conv_exp sums its series until it converges, so the number of terms
    # depends on the values; a fixed measure fixes the work done
    rho = [((0.5, -0.3), 0.6), ((-0.4, 0.2), 0.3), ((0.1, 0.6), 0.5)]
    s_rho = momseq.from_measure(momseq.DiscreteMeasure(rho), 12)
    ops += [
        Op("convolve", "seq_algebra_ms", lambda: momseq.convolve(s_mu, s_nu),
           "sequence_is", ("convolve", mu, nu, 12)),
        Op("hadamard", "seq_algebra_ms", lambda: momseq.hadamard(s_mu, s_nu),
           "sequence_is", ("hadamard", mu, nu, 12)),
        Op("conv_exp", "seq_algebra_ms", lambda: momseq.conv_exp(s_rho, 0.5),
           "sequence_is", ("conv_exp", rho, 0.5, 12)),
    ]
    return ops


# ---------------------------------------------------------------------------
# cli: cold `python -m pospres` processes over every subcommand
# ---------------------------------------------------------------------------

SCALING3 = {(1,): {(1,): 1.0}, (2,): {(2,): 3.0}, (3,): {(3,): 1.0}}


def _poly_text(terms: dict) -> str:
    parts = []
    for e, c in terms.items():
        mono = " ".join(f"x{i + 1}^{k}" for i, k in enumerate(e) if k)
        parts.append(f"{c!r} * {mono}" if mono else repr(c))
    return " + ".join(parts).replace("+ -", "- ")


def _operator_text(coeffs: dict) -> str:
    return "".join(f"[{','.join(map(str, a))}] = {_poly_text(q)}\n" for a, q in coeffs.items())


def _seq_text(values: dict) -> str:
    return "".join(f"[{','.join(map(str, a))}] = {v!r}\n" for a, v in values.items())


def _moments_1d(atoms, order):
    return {(k,): sum(w * p[0] ** k for p, w in atoms) for k in range(order + 1)}


def write_cli_inputs(seed: int, work: Path) -> list:
    """Write the input files and return ``(name, argv, expected exit, check, args)``.

    The argv are those of the CLI golden cases, plus `check-generator`
    (the refutation case), `check-preserver --measure` and `seq conv`
    without `--b`, which must be a usage error (exit 2).
    """
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)

    def put(name, text):
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    t_heat = rng.uniform(0.5, 1.5)
    heat = {a: {(0,): v} for a, v in _heat_table(1, t_heat, 6).items()}
    mix = _atoms(rng, 3, 1, -1.0, 1.0)
    a_atoms, b_atoms = _atoms(rng, 2, 1, -1.5, 1.5), _atoms(rng, 2, 1, -1.5, 1.5)
    p_atoms = _atoms(rng, 3, 1, -1.0, 1.0)
    c_atoms = _atoms(rng, 3, 1, -1.0, 1.0)
    a_drift = rng.uniform(0.6, 1.4)
    drift = {(1,): {(0,): a_drift}, (2,): {(2,): 0.5, (0,): -0.5}}
    lin = {(0,): {(0,): rng.uniform(0.5, 2.0)}, (1,): {(0,): rng.uniform(-1.0, 1.0)}}
    triple = (rng.uniform(0.5, 1.5), rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.5))
    f = {
        "heat": put("heat.op", _operator_text(heat)),
        "mix": put("mix.measure", "".join(f"atom ({p[0]!r}) {w!r}\n" for p, w in mix)),
        "a": put("a.seq", _seq_text(_moments_1d(a_atoms, 6))),
        "b": put("b.seq", _seq_text(_moments_1d(b_atoms, 6))),
        "p": put("p.seq", _seq_text(_moments_1d(p_atoms, 6))),
        "c": put("c.seq", _seq_text(_moments_1d(c_atoms, 16))),
        "drift": put("drift.op", _operator_text(drift)),
        "lin": put("lin.op", _operator_text(lin)),
        "scaling3": put("scaling3.op", _operator_text(SCALING3)),
        "triple": put("heat.triple", f"a0 = 0\nsigma = [[{triple[0]!r}]]\nb = (0)\n"
                                     f"nu ({triple[1]!r}) {triple[2]!r}\n"),
        "ones": put("ones.seq", _seq_text({(k,): 1.0 for k in range(7)})),
    }
    return [
        ("tau_drift_a1", ["tau-drift", "--a", "1", "--tol", "1e-5"], 0, "cli_tau_drift", ()),
        ("tau_drift_boundary", ["tau-drift", "--a", "0.44721359"], 0, "cli_no_threshold", ()),
        ("tau_sigma", ["tau-sigma", "--tol", "1e-7"], 0, "cli_tau_sigma", ()),
        ("seq_conv", ["seq", "conv", "--a", f["a"], "--b", f["b"]], 0,
         "cli_sequence", ("convolve", a_atoms, b_atoms)),
        ("seq_hadamard", ["seq", "hadamard", "--a", f["a"], "--b", f["b"]], 0,
         "cli_sequence", ("hadamard", a_atoms, b_atoms)),
        ("seq_hankel", ["seq", "hankel", "--seq", f["p"], "--d", "2"], 0,
         "cli_hankel", (p_atoms, 2)),
        ("seq_carleman", ["seq", "carleman", "--seq", f["c"]], 0, "cli_carleman", ()),
        ("check_heat", ["check-preserver", "--op", f["heat"], "--K", "full", "--d", "3"], 0,
         "cli_status", ("INCONCLUSIVE", "moment matrices of order 3 at 33 points")),
        ("check_measure", ["check-preserver", "--measure", f["mix"], "--K", "full",
                           "--d", "3"], 0,
         "cli_status", ("PASS", "moment matrices of order 3 at 33 points")),
        ("exp_drift", ["exp", "--op", f["drift"], "--t", "2.0", "--d", "2"], 0,
         "cli_exp_drift", (a_drift, 2.0)),
        ("invert_oneplusd", ["invert", "--op", f["lin"], "--d", "4"], 0,
         "cli_inverse", (lin, 4)),
        ("log_heat", ["log", "--op", f["heat"], "--d", "6"], 0, "cli_log", (heat, 6)),
        ("compose", ["compose", "--op", f["lin"], "--op2", f["lin"], "--d", "3"], 0,
         "cli_compose", (lin, 3)),
        ("levy_build", ["levy-build", "--triple", f["triple"], "--d", "5"], 0,
         "cli_levy", (triple, 5)),
        ("curve_sigma", ["curve", "sigma", "--grid", "0.001:0.015:8"], 0,
         "cli_curve_sigma", (0.001, 0.015, 8)),
        ("curve_drift", ["curve", "drift", "--a", "0.45", "--grid", "1:8:8"], 0,
         "cli_curve_drift", (0.45, 1.0, 8.0, 8)),
        ("resolvent_heat", ["resolvent", "--op", f["heat"], "--d", "4",
                            "--lambda", "0.01,0.1", "--grid=-5:5:201"], 0,
         "cli_status", ("INCONCLUSIVE", "2 resolvent values, degree 4")),
        ("check_scaling3_fail", ["check-generator", "--op", f["scaling3"], "--d", "2",
                                 "--t", "0.005", "--ys=0.5:1.5:3"], 1,
         "cli_generator_fail", (SCALING3, 2, 0.005)),
        ("seq_conv_missing_b", ["seq", "conv", "--a", f["ones"]], 2, "cli_usage_error", ()),
    ]


def cold_op(spec, work: Path, env: dict) -> Op:
    name, argv, expect, check, args = spec

    def call():
        cp = subprocess.run([sys.executable, "-m", "pospres", *argv], cwd=work, env=env,
                            capture_output=True, text=True, timeout=60)
        return cp.returncode, cp.stdout
    return Op(name, "cli_cold_ms", call, check, args, expect)


def inproc_op(spec) -> Op:
    """The same command through `cli.run` in this process (the traced form)."""
    name, argv, expect, check, args = spec

    def call():
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv, out)
        return code, out.getvalue()
    return Op(name, "command_ms", call, check, args, expect)
