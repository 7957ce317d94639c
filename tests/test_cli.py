import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatkernel
from heatkernel.cli import main

# subprocesses import the same heatkernel as this test process
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(heatkernel.__file__).parent.parent), os.environ.get("PYTHONPATH")])))


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_kernel_text_free(capsys):
    code, out = run_cli(capsys, ["kernel", "--R", "0", "--S", "0",
                                 "--n", "3", "--m", "1", "--format", "text"])
    assert code == 0
    assert out.splitlines()[0].startswith("# heatkernel ")
    assert out.splitlines()[1] == "exp(-2t) * I_2(2t)"


def test_kernel_json_one_step(capsys):
    code, out = run_cli(capsys, ["kernel", "--R", "1", "--S", "0", "--r", "1/2",
                                 "--n", "0", "--m", "0", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["R"] == 1 and blob["S"] == 0
    assert blob["terms"][0] == {"order": 0, "beta": ["1", "-4/3"]}
    assert blob["terms"][1] == {"order": 1, "beta": ["0", "-4/3"]}
    assert blob["prefactor"] == "exp(-2*t)"


def test_kernel_latex_two_step(capsys):
    code, out = run_cli(capsys, ["kernel", "--R", "1", "--S", "1",
                                 "--alpha", "1/4", "--beta", "1",
                                 "--n", "1", "--m", "0", "--format", "latex"])
    assert code == 0
    # golden rendering produced by the assembler, oracle-checked elsewhere
    assert out.strip() == (
        r"u(1,0,t) = e^{-2t}\left[ \left(-\tfrac{221}{3}+\tfrac{256}{3} t\right) "
        r"I_{1}(2t) + \left(-\tfrac{224}{3} t\right) I_{2}(2t) \right]")


def test_kernel_csv(capsys):
    code, out = run_cli(capsys, ["kernel", "--R", "1", "--S", "0", "--r", "1/2",
                                 "--n", "0", "--m", "0", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,beta"
    assert lines[1] == '0,"1;-4/3"'


def test_tau_table_with_singular_flags(capsys):
    code, out = run_cli(capsys, ["tau", "--R", "1", "--S", "1",
                                 "--alpha", "0", "--beta", "0", "--range", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,tau,flag"
    table = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    # tau(n) = 2n(n+1)
    assert table["2"] == ["12", ""]
    assert table["-1"] == ["0", "SINGULAR"]
    assert table["0"] == ["0", "SINGULAR"]


def test_operator_diagonal(capsys):
    code, out = run_cli(capsys, ["operator", "--R", "1", "--S", "0",
                                 "--r", "1/2", "--at", "0"])
    assert code == 0
    assert "0,-10/3" in out.splitlines()


def test_operator_json_schema(capsys):
    code, out = run_cli(capsys, ["operator", "--R", "1", "--S", "0",
                                 "--r", "1/2", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["support"] == [-1, 1]
    assert {entry["shift"] for entry in blob["coeffs"]} == {-1, 0, 1}


def test_bessel_csv(capsys):
    code, out = run_cli(capsys, ["bessel", "--t", "2", "--kmax", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,t,scaled"
    assert len(lines) == 7
    assert float(lines[1].split(",")[2]) == pytest.approx(0.30850832255367105, abs=1e-14)


def test_bessel_at_huge_t(capsys):
    # e^{-t} I_k(t) -> (2 pi t)^{-1/2} for every order, at a cost independent of t
    code, out = run_cli(capsys, ["bessel", "--t", "1e300", "--kmax", "3"])
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["3.989422804014327e-151"] * 4


def test_verify_pde(capsys):
    code, out = run_cli(capsys, ["verify", "--mode", "pde", "--R", "1", "--S", "1",
                                 "--alpha", "1/4", "--beta", "1",
                                 "--n", "2", "--m", "0"])
    assert code == 0 and "PASS" in out


def test_verify_orth(capsys):
    code, out = run_cli(capsys, ["verify", "--mode", "orth", "--R", "1", "--S", "0",
                                 "--r", "1/2", "--range", "3"])
    assert code == 0 and "PASS" in out


def test_verify_decomp(capsys):
    code, out = run_cli(capsys, ["verify", "--mode", "decomp", "--T", "2"])
    assert code == 0 and "verify mode=decomp: PASS" in out
    assert ("claim = S_n(k') = sum_(j > k', j = k'+1 mod 2) j^(2n+1) I_j(2t) "
            "for n <= 1 and every integer k'") in out
    assert "checks = 18" in out and "failures = 0" in out


def test_verify_decomp_is_exact_at_any_t_and_takes_no_tol(capsys):
    # the certificate reads no time: the runs the float reconstruction could
    # not decide (error and floor above --tol) pass, and --tol is a usage error
    for T, t in (("4", "300"), ("5", "50"), ("2", "300"), ("3", "50")):
        code, out = run_cli(capsys, ["verify", "--mode", "decomp", "--T", T, "--t", t])
        assert code == 0 and "PASS" in out, (T, t)
    assert main(["verify", "--mode", "decomp", "--T", "4", "--tol", "1e-3"]) == 64
    assert "--tol does not apply" in capsys.readouterr().err


def test_verify_identities_json(capsys):
    code, out = run_cli(capsys, ["verify", "--mode", "identities",
                                 "--t", "1", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True


def test_verify_oracle_small(capsys):
    code, out = run_cli(capsys, ["verify", "--mode", "oracle", "--R", "1", "--S", "0",
                                 "--r", "1/2", "--range", "2", "--t", "0.5,1",
                                 "--W", "120", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True and blob["points"] == 50


def test_verify_oracle_window_too_small(capsys):
    # the free-kernel tail bound at t = 4 from source 2 to the edge of
    # [-8, 8] is about 44: a usage error naming the window, not a FAIL
    code = main(["verify", "--mode", "oracle", "--R", "1", "--S", "0", "--r", "1/2",
                 "--range", "2", "--W", "8", "--t", "4"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "lattice window [-8, 8] too small" in captured.err


def test_singular_exit_code(capsys):
    code, _ = run_cli(capsys, ["operator", "--R", "1", "--S", "0", "--r", "1"])
    assert code == 2


def test_far_tau_zero_rejected_by_every_subcommand(capsys):
    # tau = n + 600 vanishes at n = -600, however far from the sites asked for
    flags = ["--R", "1", "--S", "0", "--r", "600"]
    for argv in (["kernel", *flags, "--n", "0", "--m", "0"],
                 ["operator", *flags],
                 *(["verify", "--mode", mode, *flags] for mode in ("pde", "orth", "oracle"))):
        assert main(argv) == 2, argv
        assert "tau vanishes at n = -600" in capsys.readouterr().err, argv
    # the removed window and seed options are usage errors
    with pytest.raises(SystemExit) as exc:
        main(["kernel", *flags, "--n", "0", "--m", "0", "--window", "700"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--mode", "identities", "--seed", "3"])
    assert exc.value.code == 64


def test_usage_exit_codes():
    proc = subprocess.run(
        [sys.executable, "-m", "heatkernel.cli", "kernel", "--R", "1", "--n", "0"],
        capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 64
    proc = subprocess.run(
        [sys.executable, "-m", "heatkernel.cli", "kernel", "--R", "1", "--S", "0",
         "--r", "0.5", "--n", "0", "--m", "0"],
        capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 64
    assert "rational" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "heatkernel.cli", "frobnicate"],
        capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 64
    # times too large for the window, outside the identities' range, and no time at all
    for argv, message in (
            (["--mode", "oracle", "--R", "1", "--r", "1/2", "--range", "1", "--t", "400"],
             "too small at t = 400.0"),
            (["--mode", "identities", "--t", "20000"], "--t <= 10000"),
            (["--mode", "identities", "--t", "1e-8"], "1e-05 <= --t"),
            (["--mode", "identities", "--t", "1e-30"], "1e-05 <= --t"),
            (["--mode", "identities", "--t", ","], "at least one time")):
        proc = subprocess.run([sys.executable, "-m", "heatkernel.cli", "verify", *argv],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 64 and message in proc.stderr, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr and proc.stdout == "", argv


def test_rejects_alpha_beta_mixed_with_r(capsys):
    code, _ = run_cli(capsys, ["kernel", "--R", "1", "--S", "1", "--r", "1/4",
                               "--alpha", "1/4", "--beta", "1",
                               "--n", "0", "--m", "0"])
    assert code == 64


def test_deterministic_output(capsys):
    argv = ["kernel", "--R", "1", "--S", "1", "--alpha", "1/4", "--beta", "1",
            "--n", "1", "--m", "0", "--format", "json"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("R = 1\nS = 0\nr = 1/2\nn = 0\nm = 0\nformat = json\n")
    code, out = run_cli(capsys, ["kernel", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["terms"][0]["beta"] == ["1", "-4/3"]
    # explicit flags win over the config file
    code, out = run_cli(capsys, ["kernel", "--config", str(cfg), "--n", "1"])
    assert code == 0
    assert json.loads(out)["n"] == 1


@pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"], ["--c", "{}"]])
def test_config_file_any_spelling(capsys, spelling):
    # argparse accepts the = form and abbreviations; each must load the file
    cfg = str(GOLDEN / "kernel.cfg")
    code, out = run_cli(capsys, ["kernel", *(s.format(cfg) for s in spelling), "--n", "0"])
    assert code == 0
    assert out == (GOLDEN / "kernel_config.out").read_text()


@pytest.mark.parametrize("key", ["config", "conf"])
def test_config_file_naming_another_is_a_usage_error(tmp_path, capsys, key):
    cfg = tmp_path / "outer.cfg"
    cfg.write_text(f"{key} = {GOLDEN / 'kernel.cfg'}\nn = 0\n")
    code = main(["kernel", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert "cannot name another" in captured.err


def test_verify_output_ignores_thread_env(monkeypatch, capsys):
    # verify runs in one thread; a thread-count variable from the
    # environment must not change a byte of its output
    pde = ["verify", "--mode", "pde", "--R", "1", "--S", "1", "--alpha", "1/4",
           "--beta", "1", "--range", "2"]
    orth = ["verify", "--mode", "orth", "--R", "1", "--S", "0", "--r", "1/2",
            "--range", "3", "--tol", "1e-30"]
    runs = [argv + ["--format", fmt] for argv in (pde, orth) for fmt in ("text", "json")]
    outputs = []
    for threads in (None, "1", "4"):
        if threads is None:
            monkeypatch.delenv("HEATKERNEL_THREADS", raising=False)
        else:
            monkeypatch.setenv("HEATKERNEL_THREADS", threads)
        outputs.append([run_cli(capsys, argv) for argv in runs])
    assert outputs[0] == outputs[1] == outputs[2]
    assert [code for code, _ in outputs[0]] == [0, 0, 1, 1]
    assert all("first_failure" in out for _, out in outputs[0][2:])


ONE_STEP = ["--R", "1", "--r", "1/2"]
BAD_VALUES = [
    # a negative --range would certify nothing yet PASS (or print a bare header)
    (["tau", *ONE_STEP, "--range", "-2"], "--range"),
    (["verify", "--mode", "pde", *ONE_STEP, "--range", "-1"], "--range"),
    (["verify", "--mode", "oracle", *ONE_STEP, "--range", "-1"], "--range"),
    (["verify", "--mode", "orth", *ONE_STEP, "--range", "-1"], "--range"),
    # values that used to escape as a traceback with the FAIL exit code
    (["bessel", "--t", "inf"], "--t"),
    (["bessel", "--t", "nan"], "--t"),
    (["bessel", "--t", "abc"], "--t"),
    (["bessel", "--t", "1/0"], "--t"),
    (["bessel", "--t", "1", "--kmax", "-1"], "--kmax"),
    (["verify", "--mode", "decomp", "--t", "abc"], "--t"),
    (["verify", "--mode", "decomp", "--t", "0"], "--t"),
    (["verify", "--mode", "oracle", *ONE_STEP, "--range", "1", "--t", "-1"], "--t"),
    (["verify", "--mode", "oracle", *ONE_STEP, "--range", "1", "--W", "-3"], "--W"),
    (["verify", "--mode", "decomp", "--T", "0"], "--T"),
    # an exact certificate and fixed limits have no tolerance to override
    (["verify", "--mode", "decomp", "--tol", "1e-3"], "--tol"),
    (["verify", "--mode", "pde", *ONE_STEP, "--tol", "1e-3"], "--tol"),
    (["verify", "--mode", "identities", "--t", "1", "--tol", "1e-300"], "--tol"),
]


@pytest.mark.parametrize("argv, flag", BAD_VALUES, ids=[" ".join(a) for a, _ in BAD_VALUES])
def test_bad_values_are_usage_errors(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"heatkernel: {flag} ")


def test_bad_values_exit_without_traceback():
    for argv, flag in (BAD_VALUES[5], BAD_VALUES[11]):
        proc = subprocess.run([sys.executable, "-m", "heatkernel.cli", *argv],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 64 and "Traceback" not in proc.stderr, argv
        assert proc.stderr.startswith(f"heatkernel: {flag} "), argv


def test_identities_at_tiny_t_report_without_traceback():
    # at the lower end of the range the derivative step shrinks to t/2 and the
    # k = 0 ODE point below zero is taken by reflection, so no Bessel row is
    # asked for at t <= 0
    proc = subprocess.run([sys.executable, "-m", "heatkernel.cli", "verify", "--mode",
                           "identities", "--t", "0.00001"],
                          capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert "Traceback" not in proc.stderr and proc.returncode == 0
    assert proc.stdout.startswith("# heatkernel ")
    assert "verify mode=identities: PASS" in proc.stdout and "derivative = " in proc.stdout


@pytest.mark.parametrize("t", ["1e-5", "1e-4", "1e-3", "0.01", "0.05", "0.1"])
def test_identities_pass_below_t_one(capsys, t):
    code, out = run_cli(capsys, ["verify", "--mode", "identities", "--t", t, "--format", "json"])
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["ode"] <= 5e-8, report


def test_time_zero_still_valid_for_the_oracle(capsys):
    code, out = run_cli(capsys, ["verify", "--mode", "oracle", *ONE_STEP,
                                 "--range", "1", "--t", "0"])
    assert code == 0 and "PASS" in out


GOLDEN = Path(__file__).resolve().parent / "golden"
TWO_ONE = ["--R", "2", "--S", "1", "--r", "1/3,1/5"]
# the README commands (marked), interleaved with other flags, a config file
# and usage errors, all through one process's main
GOLDEN_CALLS = [
    ("readme_kernel_json", ["kernel", "--R", "1", "--S", "0", "--r", "1/2",
                            "--n", "0", "--m", "0", "--format", "json"]),
    ("kernel_csv", ["kernel", *TWO_ONE, "--n", "-1", "--m", "2", "--format", "csv"]),
    ("readme_kernel_latex", ["kernel", "--R", "1", "--S", "1", "--alpha", "1/4",
                             "--beta", "1", "--n", "1", "--m", "0", "--format", "latex"]),
    ("usage_missing_m", ["kernel", "--R", "1", "--n", "0"]),
    ("tau_json", ["tau", *TWO_ONE, "--range", "2", "--format", "json"]),
    ("readme_tau", ["tau", "--R", "1", "--S", "1", "--alpha", "0", "--beta", "0",
                    "--range", "3"]),
    ("kernel_config", ["kernel", "--config", str(GOLDEN / "kernel.cfg"), "--n", "0"]),
    ("operator_json", ["operator", *TWO_ONE, "--format", "json"]),
    ("readme_operator", ["operator", "--R", "1", "--S", "0", "--r", "1/2", "--at", "0"]),
    ("operator_at_json", ["operator", *TWO_ONE, "--at", "-2", "--format", "json"]),
    ("tau_singular_json", ["tau", "--R", "1", "--S", "1", "--alpha", "0", "--beta", "0",
                           "--range", "2", "--format", "json"]),
    ("usage_decimal", ["kernel", "--R", "1", "--r", "0.5", "--n", "0", "--m", "0"]),
    ("verify_pde_json", ["verify", "--mode", "pde", *TWO_ONE, "--range", "1",
                         "--format", "json"]),
    ("readme_verify_pde", ["verify", "--mode", "pde", "--R", "1", "--S", "1",
                           "--alpha", "1/4", "--beta", "1", "--n", "2", "--m", "0"]),
    ("bessel_csv", ["bessel", "--t", "3/2", "--kmax", "4"]),
    ("version", ["--version"]),
    ("readme_kernel_json", ["kernel", "--R", "1", "--S", "0", "--r", "1/2",
                            "--n", "0", "--m", "0", "--format", "json"]),
]
GOLDEN_CODES = {"usage_missing_m": 64, "usage_decimal": 64, "version": 0}


def run_golden_call(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:       # argparse errors and --version
        return exc.code


def test_golden_cli_output_in_one_process(capsys):
    # one parser serves every call: byte-identical stdout, no state carried
    for name, argv in GOLDEN_CALLS:
        code = run_golden_call(argv)
        captured = capsys.readouterr()
        assert code == GOLDEN_CODES.get(name, 0), name
        assert captured.out == (GOLDEN / f"{name}.out").read_text(), name
        if code == 64:
            assert captured.out == "" and "Traceback" not in captured.err, name


def test_identities_pass_past_float_range_up_to_the_work_cap(capsys):
    # the rows are scaled by e^{-t}, so e^t overflowing at t = 709.78 does not bound them
    code, out = run_cli(capsys, ["verify", "--mode", "identities", "--t", "800,3000,10000",
                                 "--format", "json"])
    report = json.loads(out)
    assert code == 0 and report["pass"] is True, report
