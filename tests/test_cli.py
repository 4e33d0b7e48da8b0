import io
from pathlib import Path

import pytest

from pospres import cli

HERE = Path(__file__).parent

GOLDEN_CASES = {
    "tau_drift_a1": ["tau-drift", "--a", "1", "--tol", "1e-5"],
    "tau_drift_boundary": ["tau-drift", "--a", "0.44721359"],
    "tau_sigma": ["tau-sigma", "--tol", "1e-7"],
    "seq_conv": ["seq", "conv", "--a", "data/d1.seq", "--b", "data/d2.seq"],
    "seq_hadamard": ["seq", "hadamard", "--a", "data/d1.seq", "--b", "data/d2.seq"],
    "seq_hankel": ["seq", "hankel", "--seq", "data/pm1.seq", "--d", "2"],
    "seq_carleman": ["seq", "carleman", "--seq", "data/pm1.seq"],
    "check_heat": ["check-preserver", "--op", "data/heat.op", "--K", "full", "--d", "3"],
    "exp_drift": ["exp", "--op", "data/drift.op", "--t", "2.0", "--d", "2"],
    "invert_oneplusd": ["invert", "--op", "data/oneplusd.op", "--d", "4"],
    "log_heat": ["log", "--op", "data/heat.op", "--d", "6"],
    "compose": ["compose", "--op", "data/oneplusd.op", "--op2", "data/oneplusd.op",
                "--d", "3"],
    "levy_build": ["levy-build", "--triple", "data/heat.triple", "--d", "5"],
    "curve_sigma": ["curve", "sigma", "--grid", "0.001:0.015:8"],
    "curve_drift": ["curve", "drift", "--a", "0.45", "--grid", "1:8:8"],
    "resolvent_heat": ["resolvent", "--op", "data/heat.op", "--d", "4",
                       "--lambda", "0.01,0.1", "--grid=-5:5:201"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, run_cli, monkeypatch):
    # one `python -m pospres` process and one in-process run: both must match
    # the golden byte for byte, which also pins run-to-run determinism
    argv = GOLDEN_CASES[name]
    cp = run_cli(*argv)
    assert cp.returncode == 0, cp.stderr
    monkeypatch.chdir(HERE)
    out = io.StringIO()
    assert cli.run(argv, out) == 0
    golden = (HERE / "golden" / f"{name}.txt").read_text()
    assert cp.stdout == golden
    assert out.getvalue() == golden


@pytest.fixture
def run_here(monkeypatch, capsys):
    """Run the CLI in this process from tests/; returns (exit code, stdout, stderr)."""
    monkeypatch.chdir(HERE)

    def run(*argv):
        out = io.StringIO()
        code = cli.run(list(argv), out)
        return code, out.getvalue(), capsys.readouterr().err
    return run


def test_exit_code_fail_with_witnesses(run_cli):
    cp = run_cli("check-generator", "--op", "data/scaling3.op", "--d", "2",
                 "--t", "0.005", "--ys=0.5:1.5:3")
    assert cp.returncode == 1
    assert "FAIL y=" in cp.stdout and "minEig=" in cp.stdout
    golden = (HERE / "golden" / "check_scaling3_fail.txt").read_text()
    assert cp.stdout == golden


def test_exit_code_usage_error(run_cli, run_here):
    cp = run_cli("exp", "--op", "data/bad.op", "--t", "1", "--d", "2")
    assert cp.returncode == 2
    assert "error" in cp.stderr.lower()
    assert run_here("no-such-command")[0] == 2
    assert run_here("tau-drift")[0] == 2  # missing --a
    for argv in (["exp", "--op", "data/bad.op", "--t", "1", "--d", "2"],
                 ["seq", "conv", "--a", "data/d1.seq"],
                 ["seq", "hadamard", "--b", "data/d2.seq"],
                 ["seq", "hankel", "--d", "2"],
                 ["seq", "carleman"],
                 ["resolvent", "--op", "data/heat.op", "--d", "1"],  # no trial fits
                 ["check-preserver", "--op", "data/heat.op", "--K", "full", "--d", "3",
                  "--ys=0:1:0"],
                 ["curve", "drift", "--grid", "1:8:0"],
                 ["curve", "drift", "--grid=-1:0:3"],  # no time t > 0
                 # the matrix route of exp: a non-finite t*A, or an overflowing result
                 ["exp", "--op", "data/drift.op", "--d", "2", "--t", "nan"],
                 ["exp", "--op", "data/drift.op", "--d", "2", "--t", "inf"],
                 ["exp", "--op", "data/drift.op", "--d", "2", "--t", "1e308"],
                 ["exp", "--op", "data/drift.op", "--d", "2", "--t", "1e5"]):
        code, out, err = run_here(*argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_inaccurate_inverse_exits_2(run_cli):
    cp = run_cli("invert", "--op", "data/illcond.op", "--d", "6")
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: inverse on degree 6 is inaccurate")
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("spaced, joined, code", [
    (["exp", "--op", "data/heat.op", "--d", "2", "--t", "-1e-3"],
     ["exp", "--op", "data/heat.op", "--d", "2", "--t=-1e-3"], 0),
    (["exp", "--op", "data/drift.op", "--d", "2", "--t", "-1.5E-1"],
     ["exp", "--op", "data/drift.op", "--d", "2", "--t=-1.5E-1"], 0),
    (["tau-drift", "--a", "-1e0", "--tol", "1e-5"], ["tau-drift", "--a=-1e0", "--tol=1e-5"], 0),
    (["tau-drift", "--a", "-.5e1"], ["tau-drift", "--a=-.5e1"], 0),
    (["tau-drift", "--a", "1", "--tol", "-1e-5"], ["tau-drift", "--a", "1", "--tol=-1e-5"], 2),
    (["curve", "sigma", "--grid", "-1e-3:0.015:8"], ["curve", "sigma", "--grid=-1e-3:0.015:8"], 0),
])
def test_negative_number_with_exponent_is_a_value(spaced, joined, code, run_here):
    # argparse's own matcher reads `-1e-3` as an option and rejects `--t -1e-3`
    got, out, err = run_here(*spaced)
    assert (got, out, err) == run_here(*joined)
    assert got == code
    if code == 2:  # a negative tolerance is refused by the command, not the parser
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
    else:
        assert out and err == ""


@pytest.mark.parametrize("argv, text", [
    (["check-preserver", "--K", "full", "--d", "2", "--op"], "[-1] = 1\n"),
    (["invert", "--d", "2", "--op"], "[-1] = 1\n"),
    (["seq", "carleman", "--seq"], "[0] = 1\n[0] = 2\n"),
    (["check-preserver", "--K", "full", "--d", "2", "--measure"], "atom 0.5) 1\n"),
    (["levy-build", "--triple"], "sigma = [[1]]\nb = (0)\nnu 2.0) 0.25\n"),
    (["levy-build", "--triple"], "sigma = [[1]]\nb = (0)\nbanana = (7)\n"),
    (["levy-build", "--triple"], "sigmax = [[1]]\nb = (0)\n"),
    (["levy-build", "--triple"], "sigma = [[1]]\nb = (0)\nb = (1)\n"),
])
def test_malformed_input_file_is_usage_error(argv, text, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    assert cli.run([*argv, str(path)], io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("error: line ")


def test_oversized_sequence_file_is_usage_error(tmp_path, run_here):
    # binom(100002, 2) = 5e9 entries would be allocated densely
    path = tmp_path / "huge.seq"
    path.write_text("[100000,0] = 1\n")
    code, out, err = run_here("seq", "carleman", "--seq", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: a sequence of order 100000 in 2 variables has ")


def test_internal_error_exits_2_without_traceback(monkeypatch, capsys):
    def broken(args, out):
        raise RuntimeError("broken command")
    monkeypatch.setattr(cli, "cmd_tau_sigma", broken)
    assert cli.run(["tau-sigma"], io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err == "error: internal: RuntimeError: broken command\n"
    assert "Traceback" not in err


def test_tau_drift_cli_bracket_inside_published_interval(run_here):
    code, out, _ = run_here("tau-drift", "--a", "1", "--tol", "1e-5")
    line = out.splitlines()[0]
    lo, hi = [float(tok) for tok in line.split("[")[1].rstrip("]").split(",")]
    assert 1.1675 < lo and hi < 1.1676


def test_tau_drift_below_boundary_reports_no_threshold(run_here):
    code, out, _ = run_here("tau-drift", "--a", "0.44721359")
    assert code == 0
    assert "no threshold" in out
    assert "no sign change up to t = 50" in out


def test_seq_conv_prints_powers_of_three(run_here):
    _, out, _ = run_here("seq", "conv", "--a", "data/d1.seq", "--b", "data/d2.seq")
    values = [float(line.split("=")[1]) for line in out.splitlines()]
    assert values == [3.0 ** k for k in range(7)]


def test_check_preserver_heat_inconclusive_positive(run_here):
    code, out, _ = run_here("check-preserver", "--op", "data/heat.op", "--K", "full", "--d", "3")
    assert code == 0
    assert out.startswith("status: INCONCLUSIVE")


def test_seq_hankel_failing_exit_code(tmp_path, run_here):
    bad = tmp_path / "bad.seq"
    bad.write_text("[0] = 1\n[1] = 2\n[2] = 1\n[3] = 0\n[4] = 1\n")
    code, out, _ = run_here("seq", "hankel", "--seq", str(bad), "--d", "1")
    assert code == 1
    assert "psd=no" in out


def test_curve_csv_written(tmp_path, run_here):
    out = tmp_path / "curve.csv"
    code, _, _ = run_here("curve", "drift", "--a", "1", "--grid", "0.5:2:4", "--csv", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,m"
    assert len(lines) == 5


def test_operator_output_reparses(run_here):
    from pospres.diffop import parse_operator
    _, out, _ = run_here("exp", "--op", "data/drift.op", "--t", "2.0", "--d", "2")
    T = parse_operator(out)
    assert T.coefficient((0,)).coeff((0,)) == 1.0


def test_check_preserver_from_measure_file(run_here):
    code, out, _ = run_here("check-preserver", "--measure", "data/mix.measure", "--K", "full",
                            "--d", "3")
    assert code == 0
    assert out == (HERE / "golden" / "check_measure.txt").read_text()
    assert out.startswith("status: PASS")
    # same mixture is refuted on the half-line: one atom is negative
    code2, _, _ = run_here("check-preserver", "--measure", "data/mix.measure", "--K", "cone:1",
                           "--d", "3")
    assert code2 == 1
    assert run_here("check-preserver", "--K", "full", "--d", "3")[0] == 2
