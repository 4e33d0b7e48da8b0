"""Spans around the calls pospres modules make into each other.

``install`` replaces, in every pospres module namespace that holds it, each
traced function by a wrapper (and wraps the traced methods on their
classes); ``uninstall`` puts the originals back.  Nothing under ``src/``
changes.  A wrapper adds its duration to its parent span's child time, so a
name's self time is its spans' duration minus their child spans.

Spans are aggregated per name as they close (count, total, self), which
keeps a traced pass with several hundred thousand ``Poly`` constructions in
bounded memory; the benchmark's op-level spans keep their start and end.
"""

from __future__ import annotations

import functools
from time import perf_counter

import pospres
from pospres import cli, diffop, eventual, levygen, momseq, polyalg, preserver

MODULES = (pospres, polyalg, diffop, momseq, preserver, levygen, eventual, cli)

# (owner, attribute, span name): functions are replaced wherever a pospres
# module holds them.
FUNCTIONS = (
    (polyalg, "parse_poly", "polyalg.parse_poly"),
    (polyalg, "format_poly", "polyalg.format_poly"),
    (diffop, "matrix_rep", "diffop.matrix_rep"),
    (diffop, "canonical_from_action", "diffop.canonical_from_action"),
    (diffop, "apply", "diffop.apply"),
    (diffop, "invert", "diffop.invert"),
    (diffop, "exp_op", "diffop.exp_op"),
    (diffop, "expm", "diffop.expm"),
    (momseq, "moment_matrix", "momseq.moment_matrix"),
    (momseq, "is_psd", "momseq.is_psd"),
    (momseq, "convolve", "momseq.convolve"),
    (preserver, "coefficient_sequence", "preserver.coefficient_sequence"),
    (preserver, "grid_points", "preserver.grid_points"),
    (eventual, "sigma_example_curve", "eventual.sigma_example_curve"),
)
METHODS = (
    (polyalg.Poly, "__init__", "polyalg.Poly_init"),
    (polyalg.Poly, "eval", "polyalg.Poly_eval"),
    (polyalg.BasisMap, "__init__", "polyalg.BasisMap"),
    (preserver.KDescriptor, "contains", "preserver.contains"),
)
DUST = 1e-12  # a coefficient whose every term is below DUST * operator scale


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.stack = [0.0]   # child time of each open span; [0] is the root
        self.basis_keys = set()
        self.grid_kept = 0
        self.grid_tested = 0
        self.dust = [0, 0]   # dust coefficients, all coefficients
        self.ops = []        # (op name, start, end) of the benchmark's calls
        self._grid_depth = 0
        self._undo = []

    def reset(self):
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.basis_keys.clear()
        self.grid_kept = self.grid_tested = 0
        self.dust[:] = [0, 0]

    def wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                stack[-1] += dt
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def op(self, name, call):
        """Run one benchmark op as the root span of its pass."""
        wrapped = self.wrap("op." + name, call)
        start = perf_counter()
        try:
            return wrapped()
        finally:
            self.ops.append((name, start, perf_counter()))

    # -- hooks that count where the work happens ------------------------

    def _basis(self, args, out):
        self.basis_keys.add((args[1], args[2]))

    def _grid(self, args, out):
        self.grid_kept += len(out)

    def _contains(self, args, out):
        if self._grid_depth:
            self.grid_tested += 1

    def _operator(self, args, out):
        terms = [abs(c) for q in out.coeffs.values() for c in q.terms.values()]
        scale = max(terms, default=0.0)
        self.dust[1] += len(out.coeffs)
        self.dust[0] += sum(1 for q in out.coeffs.values()
                            if max(abs(c) for c in q.terms.values()) < DUST * scale)

    # -- installation ----------------------------------------------------

    def _replace(self, original, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        hooks = {"polyalg.BasisMap": self._basis, "preserver.contains": self._contains,
                 "diffop.canonical_from_action": self._operator,
                 "diffop.invert": self._operator}
        # calls from the generator checks reach exp_op through levygen's own
        # import; wrap that binding first so the loop below leaves it alone
        self._undo.append((levygen, "exp_op", levygen.exp_op))
        levygen.exp_op = self.wrap("levygen.exp_op", levygen.exp_op)
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            if name == "preserver.grid_points":
                wrapper = self._grid_scope(wrapper)
            self._replace(original, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))
            self._undo.append((cls, attr, original))

    def _grid_scope(self, wrapper):
        @functools.wraps(wrapper)
        def scoped(*args, **kwargs):
            self._grid_depth += 1
            try:
                out = wrapper(*args, **kwargs)
            finally:
                self._grid_depth -= 1
            self._grid(args, out)
            return out
        return scoped

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-pass figures ------------------------------------------------

    def snapshot(self) -> dict:
        out = {name: tuple(v) for name, v in self.stats.items()}
        out["_basis_distinct"] = len(self.basis_keys)
        out["_grid"] = (self.grid_kept, self.grid_tested)
        out["_dust"] = tuple(self.dust)
        return out

