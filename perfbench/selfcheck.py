#!/usr/bin/env python3
"""Feed the benchmark's output checks deliberately wrong outputs.

    python3 perfbench/selfcheck.py

Runs one pass of each workload in this process (the CLI commands through
``cli.run``), confirms that every right output passes its check, then
corrupts single outputs and confirms that the corrupted operation is counted
as failed.  Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import dataclasses
import re
import sys

import run


def shift_bracket(text: str) -> str:
    def bump(m):
        lo, hi = (float(v) + 1e-6 for v in m.groups())
        return f"tau bracket: [{lo!r}, {hi!r}]"
    return re.sub(r"tau bracket: \[(\S+), (\S+)\]", bump, text)


def perturb_min_eig(text: str) -> str:
    def bump(m):
        return f"minEig={float(m.group(1)) * (1 + 1e-6)!r}"
    return re.sub(r"minEig=(\S+)", bump, text, count=1)


def perturb_first_number(text: str, after: str) -> str:
    """Scale the first number after ``after`` by 1 + 1e-6."""
    head, tail = text.split(after, 1)
    m = re.search(r"\d[\d.]*(?:[eE][+-]?\d+)?", tail)
    value = float(m.group(0)) * (1 + 1e-6)
    return head + after + tail[:m.start()] + repr(value) + tail[m.end():]


def flip(verdict, status):
    return dataclasses.replace(verdict, status=status, witnesses=())


def perturb_witness(verdict):
    w = verdict.witnesses[0]
    bad = dataclasses.replace(w, min_eigenvalue=w.min_eigenvalue * (1 + 1e-6))
    return dataclasses.replace(verdict, witnesses=(bad,) + verdict.witnesses[1:])


def perturb_operator(T):
    """Scale the largest coefficient term of a DiffOp by 1 + 1e-6."""
    from pospres import diffop
    from pospres.polyalg import Poly
    alpha, beta = max(((a, b) for a, q in T.coeffs.items() for b in q.terms),
                      key=lambda ab: abs(T.coeffs[ab[0]].terms[ab[1]]))
    coeffs = {a: dict(q.terms) for a, q in T.coeffs.items()}
    coeffs[alpha][beta] *= 1 + 1e-6
    return diffop.DiffOp(T.n, {a: Poly(T.n, q) for a, q in coeffs.items()},
                         max_order=T.max_order)


def perturb_sequence(s):
    from pospres import momseq
    values = dict(s.values)
    key = max(values, key=lambda k: abs(values[k]))
    values[key] *= 1 + 1e-6
    return momseq.MomentSeq(s.n, s.order, values)


def cli_text(edit):
    return lambda out: (out[0], edit(out[1]))


CORRUPTIONS = {
    "cli": [
        ("tau_sigma", "tau bracket shifted by 1e-6", cli_text(shift_bracket)),
        ("check_heat", "flipped verdict",
         cli_text(lambda t: t.replace("status: INCONCLUSIVE", "status: PASS"))),
        ("check_scaling3_fail", "witness with a perturbed eigenvalue",
         cli_text(perturb_min_eig)),
        ("seq_hankel", "perturbed minimum eigenvalue", cli_text(perturb_min_eig)),
        ("exp_drift", "perturbed coefficient",
         cli_text(lambda t: perturb_first_number(t, "[2] = "))),
        ("seq_conv", "perturbed moment", cli_text(lambda t: perturb_first_number(t, "[3] = "))),
        ("curve_drift", "perturbed curve value",
         cli_text(lambda t: perturb_first_number(t, "\n2,"))),
    ],
    "sampling": [
        ("rn2.mixture", "flipped verdict", lambda v: flip(v, "inconclusive")),
        ("rn2.heat", "flipped verdict", lambda v: flip(v, "pass")),
        ("rn2.fail", "witness with a perturbed eigenvalue", perturb_witness),
        ("generator.scaling3", "witness with a perturbed eigenvalue", perturb_witness),
        ("falsify.fail", "grid witness with a perturbed value",
         lambda v: dataclasses.replace(v, witnesses=(dataclasses.replace(
             v.witnesses[0], value=v.witnesses[0].value * (1 + 1e-6)),) + v.witnesses[1:])),
        ("grid.cone", "grid point outside the cone", lambda pts: pts + [(-1.0, 0.5)]),
        ("grid.cone", "cone point missing", lambda pts: pts[1:]),
        ("curve.sigma", "perturbed sigma3", lambda rows: rows[:1] + [
            ",".join(rows[1].split(",")[:2] + [repr(float(rows[1].split(",")[2]) * 1.01)])]
            + rows[2:]),
    ],
    "algebra": [
        ("exp_op.t", "perturbed coefficient", perturb_operator),
        ("exp_op.2t", "perturbed coefficient", perturb_operator),
        ("compose.n3", "perturbed coefficient", perturb_operator),
        ("invert.flow", "perturbed coefficient", perturb_operator),
        ("invert.heat_exp", "perturbed coefficient", perturb_operator),
        ("log_op.mixture", "perturbed coefficient", perturb_operator),
        ("convolve", "perturbed moment", perturb_sequence),
        ("conv_exp", "perturbed moment", perturb_sequence),
    ],
}


def build(workload: str, seed: int):
    import workloads
    if workload == "cli":
        specs = workloads.write_cli_inputs(seed, run.OUT / "selfcheck")
        return [workloads.inproc_op(spec) for spec in specs]
    return getattr(workloads, f"build_{workload}")(seed)


def main() -> int:
    run.prepare_environment()
    problems = []
    for workload, corruptions in CORRUPTIONS.items():
        ops = build(workload, seed=1)
        p = run.run_pass(ops)
        base_failed, wrong = run.judge(ops, p)
        expected = 1 if workload == "cli" else 0  # `seq conv` without --b
        if wrong or base_failed != expected:
            problems.append(f"{workload}: right outputs rejected: {wrong}")
        index = {op.name: i for i, op in enumerate(ops)}
        for name, what, corrupt in corruptions:
            outs = list(p["outs"])
            out, err = outs[index[name]]
            outs[index[name]] = (corrupt(out), err)
            failed, wrong = run.judge(ops, dict(p, outs=outs))
            # a wrong exp_op(A, t) also breaks the semigroup check of exp_op(A, 2t)
            caught = failed > base_failed and any(w.startswith(name + ":") for w in wrong)
            print(f"{'caught' if caught else 'MISSED'}  {workload:8s} {name:20s} {what}")
            if not caught:
                problems.append(f"{workload} {name}: {what} was not counted as failed")
    for line in problems:
        print("PROBLEM", line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
