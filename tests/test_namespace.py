"""The lazy package namespace: what `import pospres` and each command load.

`import pospres` loads no submodule; an exported name imports the module
that defines it on first use.  numpy loads with the first array, so a
command that computes only closed forms or dictionary arithmetic never loads
it.  No source module imports scipy, and cone membership runs without it.
Module loading is checked in child processes, whose module tables start
empty.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

import pospres

# the package's export list, frozen: a name leaves or joins it deliberately
EXPORTS = [
    "BasisMap", "DegreeBoundError", "DiffOp", "DimensionMismatchError", "DiscreteMeasure",
    "KDescriptor", "LevyField", "LevyTriple", "MomentMatrix", "MomentSeq",
    "NoSignChangeError", "NoThresholdError", "NotInvertibleError", "OpMatrix", "Poly",
    "PreserverVerdict", "ThresholdResult", "TruncationError", "Witness", "apply",
    "build_substitution_preserver", "canonical_from_action", "carleman_indicator",
    "check_degree2_pointwise", "check_finite_order_generator",
    "check_generator_field_sufficient", "check_generator_rn", "check_preserver_halfline",
    "check_preserver_rn", "compact_rigidity_check", "compose", "conv_exp", "convolve",
    "convolve_measures", "dop_from_seq", "drift_curve_rows", "drift_example_expm",
    "drift_generator_matrix", "exp_limit_check", "exp_op", "falsify_on_grid", "find_tau",
    "find_tau_drift", "find_tau_sigma", "format_kdescriptor", "format_levy_triple",
    "format_measure", "format_operator", "format_poly", "format_sequence", "from_measure",
    "generator_from_levy", "generator_from_levy_halfline", "global_min_univariate",
    "grid_points", "h2_closed", "hadamard", "hadamard_measures", "halfline_trials",
    "invert", "is_psd", "iter_multiindices", "ksharp", "log_op", "m_min", "matrix_rep",
    "moment_matrix", "one_plus_check", "parse_kdescriptor", "parse_levy_triple",
    "parse_measure", "parse_operator", "parse_poly", "parse_sequence",
    "polynomial_positivity_threshold", "quadratic_square_trials", "resolvent_check",
    "sample_points", "semigroup_moments", "sigma_curve_rows", "sigma_example_curve",
    "sigma_scaling_sequence", "square_trials",
]
MODULES = ("polyalg", "diffop", "momseq", "preserver", "levygen", "eventual")

# `python -m pospres ARGS` in a child that reports its modules on stderr once the command ran
RUN_COMMAND = ("import runpy, sys\n"
               "try:\n"
               "    runpy.run_module('pospres', run_name='__main__')\n"
               "finally:\n"
               "    print(' '.join(sorted(sys.modules)), file=sys.stderr)\n")


# commands without an array: (expected exit code, argv run in tests/); all but the
# last two are golden cases, and exp of the heat operator takes the sequence route
ARRAY_FREE_COMMANDS = [
    (0, ["tau-drift", "--a", "1", "--tol", "1e-5"]),
    (0, ["tau-drift", "--a", "0.44721359"]),
    (0, ["seq", "conv", "--a", "data/d1.seq", "--b", "data/d2.seq"]),
    (0, ["seq", "hadamard", "--a", "data/d1.seq", "--b", "data/d2.seq"]),
    (0, ["seq", "carleman", "--seq", "data/pm1.seq"]),
    (0, ["invert", "--op", "data/oneplusd.op", "--d", "4"]),
    (0, ["log", "--op", "data/heat.op", "--d", "6"]),
    (0, ["compose", "--op", "data/oneplusd.op", "--op2", "data/oneplusd.op", "--d", "3"]),
    (0, ["curve", "drift", "--a", "0.45", "--grid", "1:8:8"]),
    (2, ["seq", "conv", "--a", "data/d1.seq"]),
    (0, ["exp", "--op", "data/heat.op", "--t", "0.5", "--d", "6"]),
]
LOADED_NUMPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')"


def loaded_by_command(run_python, *argv):
    """Modules that a `python -m pospres *argv` process has loaded when it exits."""
    cp = run_python("-c", RUN_COMMAND, *argv)
    assert cp.returncode == 0, cp.stderr
    return set(cp.stderr.split())


def test_import_loads_no_submodule_numpy_or_scipy(run_python):
    # a submodule is still reachable as an attribute, and loads on first use
    cp = run_python("-c", "import sys, pospres; print(sorted(m for m in sys.modules if "
                          "m.split('.')[0] in ('pospres', 'numpy', 'scipy') and m != 'pospres')); "
                          "print(pospres.momseq.__name__)")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\npospres.momseq\n"


def test_array_free_modules_load_no_numpy(run_python):
    cp = run_python("-c", "import sys\n"
                          "import pospres.cli, pospres.polyalg, pospres.diffop, pospres.momseq\n"
                          "import pospres.eventual\n"
                          f"print({LOADED_NUMPY})")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n"


def test_commands_without_arrays_load_no_numpy(run_python):
    # one child runs every command in turn, so the check costs one interpreter start
    script = ("import io, json, sys\n"
              "from pospres import cli\n"
              "codes = [cli.run(argv, io.StringIO()) for argv in json.loads(sys.argv[1])]\n"
              f"print(json.dumps([codes, {LOADED_NUMPY}]))")
    cp = run_python("-c", script, json.dumps([argv for _, argv in ARRAY_FREE_COMMANDS]))
    assert cp.returncode == 0, cp.stderr
    codes, numpy_modules = json.loads(cp.stdout)
    assert codes == [code for code, _ in ARRAY_FREE_COMMANDS]
    assert numpy_modules == []


def test_export_list_is_frozen():
    assert len(EXPORTS) == 83
    assert sorted(pospres.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(pospres))


@pytest.mark.parametrize("name", EXPORTS)
def test_export_resolves_to_its_module_object(name):
    value = getattr(pospres, name)
    module = value.__module__
    assert module in [f"pospres.{m}" for m in MODULES], module
    assert value is getattr(importlib.import_module(module), name)


def test_star_import_and_unknown_attribute():
    namespace = {}
    exec("from pospres import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS
    assert namespace["exp_op"] is pospres.diffop.exp_op
    with pytest.raises(AttributeError, match="no_such_name"):
        pospres.no_such_name  # noqa: B018


def test_exp_of_non_constant_operator_loads_no_scipy(run_python):
    # drift.op has non-constant coefficients, so exp_op takes the matrix exponential
    mods = loaded_by_command(run_python, "exp", "--op", "data/drift.op", "--t", "2.0", "--d", "2")
    assert {"pospres.diffop", "numpy"} <= mods
    assert not [m for m in mods if m.split(".")[0] == "scipy"]
    assert not {"pospres.momseq", "pospres.preserver", "pospres.levygen",
                "pospres.eventual"} & mods


def test_cone_membership_loads_no_scipy(run_python):
    # the second cone has a dependent ray, so each of its points takes the active-set path
    cp = run_python("-c", "import sys\n"
                          "from pospres.preserver import KDescriptor, grid_points\n"
                          "print(len(grid_points(KDescriptor.cone([(1, 0), (1, 1)]))))\n"
                          "print(len(grid_points(KDescriptor.cone([(1, 0), (1, 1), (2, 1)]), m=9)))\n"
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "231\n15\n[]\n"


def test_no_source_module_imports_scipy():
    source = Path(pospres.__file__).parent
    importing = [p.name for p in sorted(source.glob("*.py"))
                 if re.search(r"^\s*(import|from)\s+scipy\b", p.read_text(), re.MULTILINE)]
    assert importing == []


def test_threshold_command_loads_no_preserver_checks(run_python):
    mods = loaded_by_command(run_python, "tau-sigma")
    assert "pospres.eventual" in mods
    assert not {"pospres.levygen", "pospres.preserver"} & mods
