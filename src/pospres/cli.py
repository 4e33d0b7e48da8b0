"""Batch command-line front end.

Exit codes: 0 for pass/inconclusive-positive results, 1 for a refutation
(witnesses printed), 2 for usage or parse errors.  All numeric output uses
%.17g so that identical inputs produce byte-identical output.  Each command
imports the modules it uses, and those import numpy only inside the functions
that build arrays, so a cold process loads no more than it runs.
"""

from __future__ import annotations

import argparse
import re
import sys

from .polyalg import format_point, parse_poly


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_range(text: str):
    """LO:HI:N -> (lo, hi, n)."""
    parts = text.split(":")
    if len(parts) != 3 or int(parts[2]) < 1:
        raise ValueError(f"expected LO:HI:N with N >= 1, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _linspace(lo: float, hi: float, m: int) -> list:
    """m evenly spaced times from lo to hi: the floats of numpy.linspace(lo, hi, m)."""
    delta = hi - lo
    if m == 1:
        return [0.0 * delta + lo]
    step = delta / (m - 1)
    if step == 0.0:  # numpy's route for a step that underflows to zero
        return [i / (m - 1) * delta + lo for i in range(m - 1)] + [hi]
    return [i * step + lo for i in range(m - 1)] + [hi]


def _parse_list(text: str):
    return [float(t) for t in text.split(",") if t.strip()]


def _print_verdict(v, out) -> int:
    from . import preserver
    print(f"status: {v.status.upper()}", file=out)
    if v.checked:
        print(f"checked: {v.checked}", file=out)
    for w in v.witnesses:
        if w.kind == "grid" or w.trial is not None:
            pt = format_point(w.point)
            print(f"FAIL trial={w.trial} x={pt} value={_fmt(w.value)}", file=out)
        else:
            pt = format_point(w.y) if w.y is not None else "()"
            print(f"FAIL y={pt} d={w.d} minEig={_fmt(w.min_eigenvalue)}", file=out)
    return 1 if v.status == preserver.FAIL else 0


def _load(parse, path, **kw):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), **kw)


def _sample_points_from(ys_spec: str | None, n: int):
    from . import preserver
    if ys_spec is None:
        box = [(-3.0, 3.0)] * n
        return preserver.sample_points(box, per_axis=33)
    lo, hi, m = _parse_range(ys_spec)
    return preserver.sample_points([(lo, hi)] * n, per_axis=m)


def _grid_from(grid_spec: str | None, K):
    from . import preserver
    if grid_spec is None:
        return preserver.grid_points(K)
    lo, hi, m = _parse_range(grid_spec)
    return preserver.grid_points(K, lo, hi, m)


def _emit(rows, csv_path, out):
    text = "\n".join(rows) + "\n"
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows) - 1} rows to {csv_path}", file=out)
    else:
        out.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_preserver(args, out) -> int:
    from . import diffop, momseq, preserver
    if (args.op is None) == (args.measure is None):
        raise ValueError("give exactly one of --op or --measure")
    if args.op is not None:
        T = _load(diffop.parse_operator, args.op)
    else:
        mu = _load(momseq.parse_measure, args.measure)
        T = momseq.dop_from_seq(momseq.from_measure(mu, 2 * args.d + 1))
    K = preserver.parse_kdescriptor(args.K, n=T.n)
    if K.variant == preserver.FULL_SPACE:
        ys = _sample_points_from(args.ys, T.n)
        verdict = preserver.check_preserver_rn(T, args.d, ys, tol=args.tol)
    elif K.variant in (preserver.POLYHEDRAL_CONE, preserver.COMPACT_TIMES_HALFLINE) and T.n == 1:
        if args.ys is None:
            ys = [(y,) for y in preserver.chebyshev_points(0.0, 3.0, 33)]
        else:
            lo, hi, m = _parse_range(args.ys)
            ys = [(y,) for y in preserver.chebyshev_points(max(lo, 0.0), hi, m)]
        verdict = preserver.check_preserver_halfline(T, args.d, ys, tol=args.tol)
    else:
        raise ValueError(f"no preserver check implemented for K = {args.K}")
    return _print_verdict(verdict, out)


def cmd_check_generator(args, out) -> int:
    from . import diffop, levygen, preserver
    A = _load(diffop.parse_operator, args.op)
    ys = _sample_points_from(args.ys, A.n)
    ts = _parse_list(args.t) if args.t else [1e-3, 1e-2, 1e-1, 1.0]
    verdict = levygen.check_generator_rn(A, args.d, ys, ts, tol=args.tol)
    code = _print_verdict(verdict, out)
    finite = levygen.check_finite_order_generator(A, ys, tol=args.tol)
    print(f"finite-order form: {finite.status.upper()} ({finite.checked})", file=out)
    return max(code, 1 if finite.status == preserver.FAIL else 0)


def cmd_resolvent(args, out) -> int:
    from . import diffop, levygen, preserver
    A = _load(diffop.parse_operator, args.op)
    lambdas = _parse_list(args.lam) if args.lam else [1e-3, 1e-2, 1e-1]
    K = preserver.KDescriptor.full(A.n)
    grid = _grid_from(args.grid, K)
    trials = preserver.square_trials(A.n, [-2.0, -1.0, 0.0, 1.0, 2.0])
    trials = [p for p in trials if p.degree <= args.d]
    verdict = levygen.resolvent_check(A, args.d, lambdas, trials, grid, tol=args.tol)
    return _print_verdict(verdict, out)


def cmd_exp(args, out) -> int:
    from . import diffop
    T = diffop.exp_op(_load(diffop.parse_operator, args.op), args.t, args.d)
    out.write(diffop.format_operator(T))
    return 0


def cmd_log(args, out) -> int:
    from . import diffop
    T = diffop.log_op(_load(diffop.parse_operator, args.op), args.d)
    out.write(diffop.format_operator(T))
    return 0


def cmd_invert(args, out) -> int:
    from . import diffop
    T = diffop.invert(_load(diffop.parse_operator, args.op), args.d)
    out.write(diffop.format_operator(T))
    return 0


def cmd_compose(args, out) -> int:
    from . import diffop
    T = _load(diffop.parse_operator, args.op)
    S = _load(diffop.parse_operator, args.op2)
    out.write(diffop.format_operator(diffop.compose(T, S, args.d)))
    return 0


def cmd_seq(args, out) -> int:
    from . import momseq
    needed = ("a", "b") if args.seq_op in ("conv", "hadamard") else ("seq",)
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise ValueError(f"seq {args.seq_op} needs {' and '.join(missing)}")
    if args.seq_op in ("conv", "hadamard"):
        s = _load(momseq.parse_sequence, args.a)
        t = _load(momseq.parse_sequence, args.b)
        res = momseq.convolve(s, t) if args.seq_op == "conv" else momseq.hadamard(s, t)
        out.write(momseq.format_sequence(res))
        return 0
    if args.seq_op == "hankel":
        s = _load(momseq.parse_sequence, args.seq)
        w = parse_poly(args.w, s.n) if args.w else None
        M = momseq.moment_matrix(s, args.d, w)
        ok, lam = momseq.is_psd(M, tol=args.tol)
        for row in M.entries:
            print(",".join(_fmt(v) for v in row), file=out)
        print(f"minEig={_fmt(lam)} psd={'yes' if ok else 'no'}", file=out)
        return 0 if ok else 1
    s = _load(momseq.parse_sequence, args.seq)  # carleman, the last of the parser's choices
    print(momseq.carleman_indicator(s, args.terms), file=out)
    return 0


def cmd_tau_sigma(args, out) -> int:
    from . import eventual
    res = eventual.find_tau_sigma(tol=args.tol)
    print(f"tau bracket: [{_fmt(res.tau_lo)}, {_fmt(res.tau_hi)}]", file=out)
    print(f"iterations: {res.iterations}", file=out)
    for t in (res.tau_lo, res.tau_hi):
        h2, s3 = eventual.sigma_example_curve(t)
        print(f"t={_fmt(t)} h2={_fmt(h2)} sigma3={_fmt(s3)}", file=out)
    return 0


def cmd_tau_drift(args, out) -> int:
    from . import eventual
    try:
        res = eventual.find_tau_drift(args.a, tol=args.tol)
    except eventual.NoThresholdError as exc:
        print(f"no threshold: {exc}", file=out)
        return 0
    print(f"tau bracket: [{_fmt(res.tau_lo)}, {_fmt(res.tau_hi)}]", file=out)
    print(f"iterations: {res.iterations}", file=out)
    return 0


def cmd_curve(args, out) -> int:
    from . import eventual
    lo, hi, m = _parse_range(args.grid)
    sigma = args.family == "sigma"
    ts = [t for t in _linspace(lo, hi, m) if (t >= 0 if sigma else t > 0)]
    if not ts:
        raise ValueError(f"no time in --grid {args.grid} lies in the {args.family} curve's domain")
    rows = eventual.sigma_curve_rows(ts) if sigma else eventual.drift_curve_rows(args.a, ts)
    _emit(rows, args.csv, out)
    return 0


def cmd_levy_build(args, out) -> int:
    from . import diffop, levygen
    tr = _load(levygen.parse_levy_triple, args.triple, order=args.d)
    if args.halfline:
        if tr.n != 1:
            raise ValueError("half-line build needs univariate data")
        A = levygen.generator_from_levy_halfline(tr.a0, float(tr.b[0]), tr.nu, args.d)
    else:
        A = levygen.generator_from_levy(tr, args.d)
    out.write(diffop.format_operator(A))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads `-1e-3` as a negative number, not an option.

    argparse's own matcher takes only the `-5` and `-.5` forms; this one takes
    any token that starts with `-` and a digit, or `-.` and a digit.
    Subparsers are made of the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pospres",
        description="Positivity-preserver and semigroup-generator checks on polynomial spaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, *, d=False, tol=1e-10):
        if d:
            p.add_argument("--d", type=int, required=True, help="restriction degree")
        p.add_argument("--tol", type=float, default=tol)

    p = sub.add_parser("check-preserver", help="moment-matrix preserver test")
    p.add_argument("--op", default=None, help="operator file")
    p.add_argument("--measure", default=None,
                   help="measure file; checks the attached shift-mixture operator")
    p.add_argument("--K", required=True)
    p.add_argument("--ys", default=None, help="sample box LO:HI:N")
    add_common(p, d=True)
    p.set_defaults(func=cmd_check_preserver)

    p = sub.add_parser("check-generator", help="freeze/exponentiate generator test")
    p.add_argument("--op", required=True)
    p.add_argument("--t", default=None, help="comma list of times")
    p.add_argument("--ys", default=None)
    add_common(p, d=True)
    p.set_defaults(func=cmd_check_generator)

    p = sub.add_parser("resolvent", help="resolvent positivity falsifier")
    p.add_argument("--op", required=True)
    p.add_argument("--lambda", dest="lam", default=None, help="comma list of lambdas")
    p.add_argument("--grid", default=None, help="evaluation grid LO:HI:N")
    add_common(p, d=True, tol=1e-12)
    p.set_defaults(func=cmd_resolvent)

    for name, fn, extra in (("exp", cmd_exp, True), ("log", cmd_log, False),
                            ("invert", cmd_invert, False)):
        p = sub.add_parser(name, help=f"{name} of an operator on the restriction")
        p.add_argument("--op", required=True)
        if extra:
            p.add_argument("--t", type=float, required=True)
        p.add_argument("--d", type=int, required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("compose", help="compose two operators")
    p.add_argument("--op", required=True)
    p.add_argument("--op2", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("seq", help="sequence algebra")
    p.add_argument("seq_op", choices=["conv", "hadamard", "hankel", "carleman"])
    p.add_argument("--a", default=None, help="first sequence file (conv/hadamard)")
    p.add_argument("--b", default=None, help="second sequence file (conv/hadamard)")
    p.add_argument("--seq", default=None, help="sequence file (hankel/carleman)")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--w", default=None, help="localizing polynomial (hankel)")
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("tau-sigma", help="threshold of the diagonal scaling family")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_tau_sigma)

    p = sub.add_parser("tau-drift", help="threshold of the drift-diffusion family")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_tau_drift)

    p = sub.add_parser("curve", help="emit CSV threshold curves")
    p.add_argument("family", choices=["sigma", "drift"])
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--grid", required=True, help="time grid LO:HI:N")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("levy-build", help="assemble a generator from triple data")
    p.add_argument("--triple", required=True)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--halfline", action="store_true")
    p.set_defaults(func=cmd_levy_build)

    return ap


def run(argv, out=None) -> int:
    """Entry point used by tests: parse argv, dispatch, return the exit code."""
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in pospres, not a refutation: never exit 1
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
