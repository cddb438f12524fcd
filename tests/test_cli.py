import json

import numpy as np
import pytest

import infodist as qd
from infodist import cli, serialize
from infodist.cli import main


@pytest.fixture()
def qubit_basis_file(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.basis_povm(2))))
    return str(path)


def test_mub_writes_bases(tmp_path, capsys):
    out = tmp_path / "mub.json"
    assert main(["mub", "--p", "3", "--n", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["d"] == 3 and len(obj["bases"]) == 4

    assert main(["mub", "--p", "3", "--n", "2", "--out", str(tmp_path / "mub9.json")]) == 0
    obj9 = json.loads((tmp_path / "mub9.json").read_text())
    assert obj9["d"] == 9 and len(obj9["bases"]) == 10


def test_mub_rejects_even_prime(capsys):
    assert main(["mub", "--p", "2"]) == 1
    assert "even prime unsupported" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--p", "9"], "9 is not prime"),
        (["--p", "1"], "1 is not prime"),
        (["--p", "11", "--n", "2"], "exceeds the configured cap"),
        (["--p", "3", "--n", "0"], "extension degree must be at least 1"),
    ],
)
def test_mub_bad_input_one_line_message(argv, message, capsys):
    assert main(["mub", *argv]) in (1, 2)
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err


def test_design_check_pass_and_fail(tmp_path, capsys):
    mub = tmp_path / "mub5.json"
    assert main(["mub", "--p", "5", "--out", str(mub)]) == 0
    assert main(["design-check", "--in", str(mub), "--trials", "50"]) == 0

    single = tmp_path / "single.json"
    single.write_text(serialize.dumps([serialize.matrix_to_json(np.eye(2))]))
    assert main(["design-check", "--in", str(single), "--trials", "20"]) == 1

    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["design-check", "--in", str(empty), "--trials", "5"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["design-check", "--in", missing, "--trials", "5"]) == 2


def test_design_check_zero_trials_exit_2(tmp_path, capsys):
    # zero trials once reported deviation 0 and passed any file
    single = tmp_path / "single.json"
    single.write_text(serialize.dumps([serialize.matrix_to_json(np.eye(2))]))
    with pytest.raises(SystemExit) as exc:
        main(["design-check", "--in", str(single), "--trials", "0"])
    assert exc.value.code == 2
    assert "--trials: must be at least 1" in capsys.readouterr().err


def test_design_check_nan_deviation_fails(tmp_path, capsys, monkeypatch):
    mub = tmp_path / "mub3.json"
    assert main(["mub", "--p", "3", "--out", str(mub)]) == 0
    monkeypatch.setattr(cli, "design_check", lambda vectors, trials, rng: float("nan"))
    assert main(["design-check", "--in", str(mub)]) == 1
    captured = capsys.readouterr()
    assert "nan" in captured.out and "not a 2-design" in captured.err


def test_disturbance_methods(qubit_basis_file, capsys):
    assert main(["disturbance", "--povm", qubit_basis_file, "--method", "exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["disturbance"] == pytest.approx(1 / 3, abs=1e-12)

    assert main(["disturbance", "--povm", qubit_basis_file, "--method", "mc", "--samples", "20000", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["avg_fidelity"] - 2 / 3) < 5 * report["stderr"]

    # no odd-prime-power design in dimension 2
    assert main(["disturbance", "--povm", qubit_basis_file, "--method", "design"]) == 1


def test_disturbance_design_method(tmp_path, capsys):
    path = tmp_path / "qutrit.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.basis_povm(3))))
    assert main(["disturbance", "--povm", str(path), "--method", "design"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["avg_fidelity"] == pytest.approx(0.5, abs=1e-12)
    assert report["method"] == "design"


def test_disturbance_trivial_povm(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.POVM(2, (np.eye(2, dtype=complex),)))))
    assert main(["disturbance", "--povm", str(path), "--method", "exact"]) == 0
    assert json.loads(capsys.readouterr().out)["disturbance"] == pytest.approx(0.0, abs=1e-12)


def test_disturbance_rejects_invalid_povm(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps({"dim": 2, "effects": [serialize.matrix_to_json(np.eye(2) / 2)]}))
    assert main(["disturbance", "--povm", str(bad)]) == 1
    assert "completeness" in capsys.readouterr().err


def test_info_command(qubit_basis_file, capsys):
    assert main(["info", "--povm", qubit_basis_file, "--samples", "20000", "--seed", "1"]) == 0
    nats = json.loads(capsys.readouterr().out)
    assert abs(nats["mutual_info"] - (np.log(2) - 0.5)) < 5 * nats["stderr"]

    assert main(["info", "--povm", qubit_basis_file, "--samples", "20000", "--seed", "1", "--bits"]) == 0
    bits = json.loads(capsys.readouterr().out)
    assert bits["log_base"] == "bits"
    assert bits["mutual_info"] == pytest.approx(nats["mutual_info"] / np.log(2), abs=1e-12)


def test_info_trivial(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.POVM(2, (np.eye(2, dtype=complex),)))))
    assert main(["info", "--povm", str(path), "--samples", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["mutual_info"] == 0.0


def test_seed_env_and_flag_precedence(qubit_basis_file, capsys, monkeypatch):
    monkeypatch.setenv("QF_SEED", "11")
    assert main(["info", "--povm", qubit_basis_file, "--samples", "2000"]) == 0
    from_env = capsys.readouterr().out
    assert main(["info", "--povm", qubit_basis_file, "--samples", "2000", "--seed", "11"]) == 0
    assert capsys.readouterr().out == from_env
    assert main(["info", "--povm", qubit_basis_file, "--samples", "2000", "--seed", "12"]) == 0
    assert capsys.readouterr().out != from_env


def test_repeated_runs_are_byte_identical(qubit_basis_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["disturbance", "--povm", qubit_basis_file, "--method", "mc", "--samples", "5000", "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_frontier_command(tmp_path):
    csv_path = tmp_path / "curve.csv"
    json_path = tmp_path / "curve.json"
    code = main([
        "frontier", "--d", "2", "--grid", "3", "--samples", "30", "--restarts", "2",
        "--max-iter", "60", "--seed", "0", "--out", str(csv_path), "--json", str(json_path),
        "--allow-nonconverged",
    ])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "p,disturbance,info_lb_nats,line_info_nats,converged"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 0.0
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1 / 3, abs=1e-12)
    meta = json.loads(json_path.read_text())
    assert len(meta) == 3 and "optimizer_meta" in meta[0]


def test_frontier_nonconverged_soft_failure(tmp_path):
    # the CLI passes the optimizer's warning on to the user
    with pytest.warns(qd.ConvergenceWarning, match="not solved"):
        code = main([
            "frontier", "--d", "2", "--grid", "2", "--samples", "30", "--restarts", "1",
            "--max-iter", "5", "--seed", "0", "--out", str(tmp_path / "c.csv"),
        ])
    assert code == 3


@pytest.mark.parametrize("option", ["--restarts", "--samples", "--max-iter"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_frontier_empty_budget_exit_2(option, value, capsys):
    # --restarts 0 once ended in a TypeError traceback, --samples 0 in a "weights" error;
    # --samples is now the re-score size, and a standard error needs two samples
    with pytest.raises(SystemExit) as exc:
        main(["frontier", "--d", "2", "--grid", "2", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    least = 2 if option == "--samples" else 1
    assert f"{option}: must be at least {least}" in err and "Traceback" not in err


def test_frontier_samples_only_size_the_rescore(tmp_path):
    # --samples was once silently ignored at odd prime powers; now it sizes the Monte Carlo
    # re-score in the JSON and leaves the CSV alone
    out = {}
    for samples in ("50", "200"):
        csv_path, json_path = tmp_path / f"{samples}.csv", tmp_path / f"{samples}.json"
        assert main(["frontier", "--d", "3", "--grid", "3", "--restarts", "2", "--samples", samples,
                     "--out", str(csv_path), "--json", str(json_path)]) == 0  # fmt: skip
        out[samples] = csv_path.read_bytes(), json.loads(json_path.read_text())
    assert out["50"][0] == out["200"][0]
    rescores = {k: [pt["optimizer_meta"]["rescore"] for pt in v[1]] for k, v in out.items()}
    assert [r["samples"] for r in rescores["50"]] == [50] * 3 and [r["samples"] for r in rescores["200"]] == [200] * 3
    assert rescores["50"][1]["info"] != rescores["200"][1]["info"]


@pytest.mark.parametrize("d", ["2", "3"])
def test_frontier_defaults_converge(d, tmp_path, capsys):
    assert main(["frontier", "--d", d, "--out", str(tmp_path / "c.csv")]) == 0
    assert "Warning" not in capsys.readouterr().err
    assert all(line.endswith(",true") for line in (tmp_path / "c.csv").read_text().splitlines()[1:])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("d, grid", [(2, 11), (3, 5)])
def test_frontier_json_is_strict_json(d, grid, tmp_path):
    # Python's json writes Infinity and NaN for a non-finite gap or stderr; strict parsers refuse them
    json_path = tmp_path / "c.json"
    argv = ["frontier", "--d", str(d), "--grid", str(grid), "--out", str(tmp_path / "c.csv"), "--json", str(json_path)]
    assert main(argv) == 0
    points = qd.frontier_curve(d, list(np.linspace(0.0, d / (d + 1), grid)), rng=np.random.default_rng(0))
    assert json.loads(json_path.read_text(), parse_constant=_reject_constant) == serialize.frontier_to_json(points)


def test_twirl_check(qubit_basis_file, capsys):
    assert main(["twirl-check", "--povm", qubit_basis_file, "--samples", "3000", "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["p_star"] == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("command", ["twirl-check", "info", "disturbance", "frontier"])
@pytest.mark.parametrize("samples", ["1", "0", "-5"])
def test_samples_below_two_exit_2(command, samples, qubit_basis_file, capsys):
    # a standard error needs two samples; one sample once passed twirl-check on a NaN
    required = ["--d", "2"] if command == "frontier" else ["--povm", qubit_basis_file]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--samples", samples])
    assert exc.value.code == 2
    assert "--samples: must be at least 2" in capsys.readouterr().err


def test_twirl_check_nan_ratio_fails(qubit_basis_file, capsys, monkeypatch):
    def nan_stderr(povm, rho, n_samples, rng):
        return rho, np.full(rho.shape, complex(np.nan, np.nan))

    monkeypatch.setattr(cli, "twirl_channel", nan_stderr)
    assert main(["twirl-check", "--povm", qubit_basis_file]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False and np.isnan(report["worst_ratio_of_5stderr"])


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["disturbance"])  # missing --povm
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mub", "--p", "3", "--threads", "2"])  # the no-op option is gone
    assert exc.value.code == 2

    # the --tol-* overrides are gone: they could only loosen validation gates
    required = {
        "mub": ["--p", "3"],
        "design-check": ["--in", "x.json"],
        "disturbance": ["--povm", "x.json"],
        "info": ["--povm", "x.json"],
        "frontier": ["--d", "2"],
        "twirl-check": ["--povm", "x.json"],
    }
    for command, argv in required.items():
        for flag in ("--tol-algebraic", "--tol-reconstruction", "--tol-psd-slack"):
            with pytest.raises(SystemExit) as exc:
                main([command, *argv, flag, "2"])
            assert exc.value.code == 2
