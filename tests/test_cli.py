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
    code, out = run_cli(capsys, ["verify", "--mode", "decomp",
                                 "--k", "1", "--T", "2", "--t", "1"])
    assert code == 0 and "PASS" in out


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


def test_singular_exit_code(capsys):
    code, _ = run_cli(capsys, ["operator", "--R", "1", "--S", "0", "--r", "1"])
    assert code == 2


def test_window_flag_honoured_by_kernel_and_pde(capsys):
    # tau = n + 600 vanishes at n = -600: outside the default window, inside 700
    flags = ["--R", "1", "--S", "0", "--r", "600", "--window", "700"]
    for argv in (["kernel", *flags, "--n", "0", "--m", "0"],
                 ["verify", "--mode", "pde", *flags]):
        assert main(argv) == 2
        assert "n = -600" in capsys.readouterr().err
    code, _ = run_cli(capsys, ["kernel", "--R", "1", "--S", "0", "--r", "600",
                               "--n", "0", "--m", "0"])
    assert code == 0


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


def test_thread_cap_env(monkeypatch):
    from heatkernel.cli import worker_count
    monkeypatch.setenv("HEATKERNEL_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("HEATKERNEL_THREADS", "1")
    assert worker_count() == 1
