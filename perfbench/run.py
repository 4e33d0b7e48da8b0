#!/usr/bin/env python3
"""pospres benchmark: cold CLI, point-cloud sampling and operator algebra.

    python3 perfbench/run.py --workload cli|sampling|algebra|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it imports pospres from this checkout's ``src/`` (first on
the path here and in every child process) and stops with an error if pospres
comes from anywhere else.  BLAS runs on one thread here and in the children.
One run sets up, then repeats whole passes over the workload's operations
until ``--seconds`` of pass time are spent, and checks every output.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  README.md lists the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3       # set-ups per run; the median is setup_s
CLI_SETUP_SAMPLES = 7   # the cli set-up is short and noisy, and cheap to repeat

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_gmean_ms", "ms"))
PER_LAYER = (
    ("polyalg.Poly_init.calls", "count"), ("polyalg.Poly_init.self_ms", "ms"),
    ("polyalg.Poly_eval.calls", "count"), ("polyalg.Poly_eval.self_ms", "ms"),
    ("polyalg.BasisMap.builds", "count"), ("polyalg.BasisMap.self_ms", "ms"),
    ("polyalg.BasisMap.reuse_ratio", "ratio"),
    ("polyalg.parse_poly.self_ms", "ms"), ("polyalg.format_poly.self_ms", "ms"),
    ("diffop.matrix_rep.self_ms", "ms"), ("diffop.expm.self_ms", "ms"),
    ("diffop.canonical_from_action.self_ms", "ms"), ("diffop.apply.self_ms", "ms"),
    ("diffop.invert.self_ms", "ms"), ("diffop.dust_ratio", "ratio"),
    ("momseq.moment_matrix.calls", "count"), ("momseq.moment_matrix.self_ms", "ms"),
    ("momseq.is_psd.calls", "count"), ("momseq.is_psd.self_ms", "ms"),
    ("momseq.convolve.self_ms", "ms"),
    ("preserver.coefficient_sequence.self_ms", "ms"),
    ("preserver.contains.calls", "count"), ("preserver.contains.self_ms", "ms"),
    ("preserver.grid_points.kept_ratio", "ratio"), ("preserver.points_checked", "count"),
    ("levygen.exp_op.self_ms", "ms"), ("eventual.sigma_example_curve.self_ms", "ms"),
    ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"),
    ("cli.import_scipy_linalg_ms", "ms"), ("cli.command_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def prepare_environment() -> dict:
    """Put the checkout's src/ first and BLAS on one thread, here and for children."""
    if not (SRC / "pospres" / "__init__.py").is_file():
        sys.exit(f"error: no pospres package under {SRC}; run from a full checkout")
    os.environ.update(ONE_THREAD)
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def require_checkout(module_file: str) -> None:
    if Path(module_file).resolve() != (SRC / "pospres" / "__init__.py").resolve():
        sys.exit(f"error: pospres was imported from {module_file}, not from {SRC}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(ops, call=None) -> dict:
    """One pass over the ops, back to back, with the calibration kernel run
    before each op and after the last; outputs are judged afterwards."""
    outs, times, kernels = [], [], []
    for op in ops:
        kernels.append(speed.kernel())
        t0 = perf_counter()
        try:
            out = op.call() if call is None else call(op.name, op.call)
            err = None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        outs.append((out, err))
    kernels.append(speed.kernel())
    # op i ran between kernels i and i + 1; scale it by the runs around it
    cal = [t * speed.scale(kernels[max(0, i - 1):i + 3]) for i, t in enumerate(times)]
    return {"wall": sum(times), "times": times, "cal": cal, "pass": sum(cal),
            "scale": speed.scale(kernels), "outs": outs}


def judge(ops, p) -> tuple:
    """(failed, wrong): failed counts ops that raised, exited with another code
    than expected or gave a wrong output; wrong lists the wrong outputs."""
    import checks
    ctx = {op.name: out for op, (out, err) in zip(ops, p["outs"]) if err is None}
    failed, wrong = 0, []
    for op, (out, err) in zip(ops, p["outs"]):
        if err is None and op.expect is not None:
            code, out = out
            if code != op.expect:
                err = f"exit code {code}, expected {op.expect}"
        if err is not None:
            failed += 1
            continue
        try:
            msg = getattr(checks, op.check)(out, ctx, *op.args)
        except Exception as exc:  # an unreadable output is a wrong output
            msg = f"unreadable output ({type(exc).__name__}: {exc})"
        if msg:
            failed += 1
            wrong.append(f"{op.name}: {msg}")
    return failed, wrong


def measure(ops, seconds, call=None, per_pass=None) -> tuple:
    """Whole passes until their wall time reaches ``seconds``; judged as they end."""
    passes, failed, wrong, spent = [], 0, [], 0.0
    while not passes or spent < seconds:  # measured time, not calibrated
        if per_pass:
            per_pass[0]()
        p = run_pass(ops, call)
        if per_pass:
            p["trace"] = per_pass[1]()
        spent += p["wall"]
        f, w = judge(ops, p)
        failed += f
        wrong += w
        p["outs"] = None
        passes.append(p)
    return passes, len(ops) * len(passes), failed, wrong


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_inprocess(workload: str, seed: int) -> tuple:
    """Import, inputs and one warm-up pass, timed from before pospres is imported.

    Returns the calibrated time: the kernel runs before, after and between
    the warm-up calls (it imports nothing, so it can run first).
    """
    kernels = [speed.kernel() for _ in range(3)]
    t0 = perf_counter()
    import pospres
    import workloads
    require_checkout(pospres.__file__)
    build = workloads.build_sampling if workload == "sampling" else workloads.build_algebra
    ops = build(seed)
    kernel_s = warm_up(ops, kernels)
    wall = perf_counter() - t0 - kernel_s
    kernels += [speed.kernel() for _ in range(3)]
    return wall * speed.scale(kernels), ops


def warm_up(ops, kernels=None) -> float:
    """First use of each code path; failures are counted in the measured passes.

    With a ``kernels`` list, times the calibration kernel after each call into
    it and returns the time those kernel runs took."""
    spent = 0.0
    for op in ops:
        try:
            op.call()
        except Exception:  # the same op raises again, and is counted, when measured
            pass
        if kernels is not None:
            kernels.append(speed.kernel())
            spent += kernels[-1]
    return spent


def setup_child(workload: str, seed: int, env: dict) -> float:
    """One calibrated set-up in a fresh process."""
    cp = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                         "--setup-only"], env=env, capture_output=True, text=True, timeout=170)
    if cp.returncode != 0:
        sys.exit(f"error: set-up child failed:\n{cp.stderr}")
    return json.loads(cp.stdout.splitlines()[-1])["setup_s"]


def setup_cli(seed: int, env: dict) -> tuple:
    """Input files, the command list, and a child that proves where pospres comes from."""
    import workloads
    work = OUT / "cli"
    with speed.bracket() as b:
        specs = workloads.write_cli_inputs(seed, work)
        ops = [workloads.cold_op(spec, work, env) for spec in specs]
        child = subprocess.run([sys.executable, "-c", "import pospres; print(pospres.__file__)"],
                               cwd=work, env=env, capture_output=True, text=True, timeout=60)
    if child.returncode != 0:
        sys.exit(f"error: a child process cannot import pospres:\n{child.stderr}")
    require_checkout(child.stdout.strip())
    return b.calibrated, ops, specs


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def group_times(ops, passes) -> dict:
    out = {}
    for group in dict.fromkeys(op.group for op in ops):
        idx = [i for i, op in enumerate(ops) if op.group == group]
        out[group] = 1e3 * statistics.median(sum(p["cal"][i] for i in idx) for p in passes)
    return out


def child_ms(argv, env, reps) -> float:
    """Calibrated wall time of a child process, median of ``reps``."""
    walls = []
    for _ in range(reps):
        with speed.bracket(1) as b:
            subprocess.run([sys.executable, *argv], env=env, cwd=HERE, check=True,
                           capture_output=True, timeout=60)
        walls.append(b.calibrated)
    return 1e3 * statistics.median(walls)


def scipy_linalg_import_ms(env, reps=3) -> float:
    """Cumulative import time of scipy.linalg under `python -X importtime -c 'import pospres'`."""
    found = []
    for _ in range(reps):
        with speed.bracket(1) as b:
            cp = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pospres"],
                                env=env, cwd=HERE, capture_output=True, text=True,
                                timeout=60, check=True)
        for line in cp.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
                found.append(int(parts[1]) / 1e3 * b.calibrated / b.wall)
    return statistics.median(found) if found else 0.0


def layer_metrics(traced, untraced, env, command_ms) -> dict:
    snaps = [dict(p["trace"], _scale=p["scale"]) for p in traced]

    def med(f):
        return statistics.median(f(s) for s in snaps)

    def calls(name):
        return med(lambda s: s.get(name, (0, 0.0, 0.0))[0])

    def self_ms(name):
        return med(lambda s: 1e3 * s.get(name, (0, 0.0, 0.0))[2] * s["_scale"])

    def ratio(a, b):
        return a / b if b else 0.0

    interpreter = child_ms(["-c", "pass"], env, 5)
    values = {
        "polyalg.Poly_init.calls": calls("polyalg.Poly_init"),
        "polyalg.Poly_init.self_ms": self_ms("polyalg.Poly_init"),
        "polyalg.Poly_eval.calls": calls("polyalg.Poly_eval"),
        "polyalg.Poly_eval.self_ms": self_ms("polyalg.Poly_eval"),
        "polyalg.BasisMap.builds": calls("polyalg.BasisMap"),
        "polyalg.BasisMap.self_ms": self_ms("polyalg.BasisMap"),
        "polyalg.BasisMap.reuse_ratio": med(
            lambda s: ratio(s["_basis_distinct"], s["polyalg.BasisMap"][0])),
        "polyalg.parse_poly.self_ms": self_ms("polyalg.parse_poly"),
        "polyalg.format_poly.self_ms": self_ms("polyalg.format_poly"),
        "diffop.matrix_rep.self_ms": self_ms("diffop.matrix_rep"),
        "diffop.expm.self_ms": self_ms("diffop.expm"),
        "diffop.canonical_from_action.self_ms": self_ms("diffop.canonical_from_action"),
        "diffop.apply.self_ms": self_ms("diffop.apply"),
        "diffop.invert.self_ms": self_ms("diffop.invert"),
        "diffop.dust_ratio": med(lambda s: ratio(*s["_dust"])),
        "momseq.moment_matrix.calls": calls("momseq.moment_matrix"),
        "momseq.moment_matrix.self_ms": self_ms("momseq.moment_matrix"),
        "momseq.is_psd.calls": calls("momseq.is_psd"),
        "momseq.is_psd.self_ms": self_ms("momseq.is_psd"),
        "momseq.convolve.self_ms": self_ms("momseq.convolve"),
        "preserver.coefficient_sequence.self_ms": self_ms("preserver.coefficient_sequence"),
        "preserver.contains.calls": calls("preserver.contains"),
        "preserver.contains.self_ms": self_ms("preserver.contains"),
        "preserver.grid_points.kept_ratio": med(lambda s: ratio(*s["_grid"])),
        "preserver.points_checked": calls("preserver.coefficient_sequence"),
        "levygen.exp_op.self_ms": self_ms("levygen.exp_op"),
        "eventual.sigma_example_curve.self_ms": self_ms("eventual.sigma_example_curve"),
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": child_ms(["-c", "import pospres"], env, 3) - interpreter,
        "cli.import_scipy_linalg_ms": scipy_linalg_import_ms(env),
        "cli.command_ms": command_ms,
        "trace.overhead_ratio": ratio(statistics.median(p["pass"] for p in traced),
                                      statistics.median(p["pass"] for p in untraced)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_workload(args, env) -> dict:
    if args.workload == "cli":
        samples = [setup_cli(args.seed, env) for _ in range(CLI_SETUP_SAMPLES)]
        setup_s = statistics.median(s[0] for s in samples)
        ops, specs = samples[-1][1], samples[-1][2]
        if args.trace:
            import workloads
            ops = [workloads.inproc_op(spec) for spec in specs]
            warm_up(ops)
    else:
        setup_s, ops = setup_inprocess(args.workload, args.seed)
        if not args.trace:
            children = [setup_child(args.workload, args.seed, env)
                        for _ in range(SETUP_SAMPLES - 1)]
            setup_s = statistics.median([setup_s] + children)

    if not args.trace:
        passes, attempted, failed, wrong = measure(ops, args.seconds)
        pass_s = statistics.median(p["pass"] for p in passes)
        # each op's median over passes, then their geometric mean over the mix
        per_op = [statistics.median(p["cal"][i] for p in passes) for i in range(len(ops))]
        op_gmean_ms = 1e3 * statistics.geometric_mean(per_op)
        metrics = {"setup_s": setup_s, "pass_s": pass_s, "op_gmean_ms": op_gmean_ms}
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        groups = group_times(ops, passes)
    else:
        from tracing import Tracer
        untraced, attempted, failed, wrong = measure(ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, a2, f2, w2 = measure(ops, args.seconds / 2, tracer.op,
                                         (tracer.reset, tracer.snapshot))
        finally:
            tracer.uninstall()
        attempted, failed, wrong = attempted + a2, failed + f2, wrong + w2
        command_ms = 0.0
        if args.workload == "cli":
            command_ms = 1e3 * statistics.median(p["pass"] for p in untraced) / len(ops)
        metrics = layer_metrics(traced, untraced, env, command_ms)
        groups = {}
        passes = untraced + traced
        write_json(OUT / f"trace-{args.workload}.json", {
            "seed": args.seed, "passes": [p["trace"] for p in traced],
            "op_spans": tracer.ops})
    return {"workload": args.workload, "seed": args.seed, "passes": len(passes),
            "measured_pass_s": [p["wall"] for p in passes],
            "calibrated_pass_s": [p["pass"] for p in passes],
            "groups": groups, "errors": wrong, "correct": not wrong,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, default=str) + "\n", encoding="utf-8")


def report(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  passes {res['passes']}  "
          f"attempted {res['attempted']}  failed {res['failed']}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for group, ms in res["groups"].items():
        print(f"  {group:40s} {ms:14.6g} ms per pass")
    for line in res["errors"][:10]:
        print(f"  WRONG {line}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in a child process of its own; one combined line last."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("cli", "sampling", "algebra"):
        cp = subprocess.run([sys.executable, __file__, "--workload", workload,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(cp.stdout)
        sys.stderr.write(cp.stderr)
        if cp.returncode != 0:
            return cp.returncode
        res = json.loads(cp.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["cli", "sampling", "algebra", "all"])
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="pass time to spend measuring (default 20)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: time one set-up and print it (used for setup_s)")
    args = ap.parse_args(argv)
    env = prepare_environment()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_s, _ = setup_inprocess(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    res = run_workload(args, env)
    write_json(OUT / f"result-{args.workload}-trace{args.trace}.json", res)
    report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
