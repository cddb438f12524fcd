import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import infodist as qd
from infodist import cli, frontier, galois, serialize
from infodist.config import DISTINCT_NUMBERS, FRONTIER_CAP
from infodist.cli import main


@pytest.fixture()
def qubit_basis_file(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.basis_povm(2))))
    return str(path)


@pytest.fixture(scope="module")
def d49_files(tmp_path_factory):
    """The d = 49 unbiased bases as ``mub`` writes them (14 distinct number
    texts), and 50 Haar-random d = 49 bases (every number distinct)."""
    tmp = tmp_path_factory.mktemp("d49")
    mub, haar = tmp / "mub49.json", tmp / "haar49.json"
    assert main(["mub", "--p", "7", "--n", "2", "--out", str(mub)]) == 0
    unitaries = qd.haar_unitaries(49, 50, np.random.default_rng(49))
    haar.write_text(serialize.dumps([serialize.matrix_to_json(u) for u in unitaries]))
    return mub, haar


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
        (["--p", "4"], "4 is not prime"),
        (["--p", "-3"], "-3 is not prime"),
    ],
)
def test_mub_bad_input_one_line_message(argv, message, capsys):
    assert main(["mub", *argv]) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--p", "100000000000031"], "dimension 100000000000031^1 exceeds the configured cap 49"),
        (["--p", "3", "--n", "1000000"], "dimension 3^1000000 exceeds the configured cap 49"),
    ],
)
def test_mub_refuses_oversize_input_at_once(argv, message, capsys, monkeypatch):
    """Neither a trial division up to sqrt(p) nor a power with a million digits: the cap is tested
    on p and n first."""
    monkeypatch.setattr(galois, "is_prime", lambda p: pytest.fail(f"is_prime({p}) was called"))
    assert main(["mub", *argv]) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [["info"], ["disturbance", "--method", "mc"], ["twirl-check"]])
def test_sample_count_beyond_memory_one_line_message(argv, qubit_basis_file, capsys):
    # 10**15 samples ask for petabytes, which the allocation refuses before it touches any memory; it
    # ended in a MemoryError traceback
    assert main([*argv, "--povm", qubit_basis_file, "--samples", "1000000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1 and "Traceback" not in err


def test_design_check_pass_and_fail(tmp_path, capsys):
    mub = tmp_path / "mub5.json"
    assert main(["mub", "--p", "5", "--out", str(mub)]) == 0
    assert main(["design-check", "--in", str(mub), "--trials", "50"]) == 0

    single = tmp_path / "single.json"
    single.write_text(serialize.dumps([serialize.matrix_to_json(np.eye(2))]))
    assert main(["design-check", "--in", str(single), "--trials", "20"]) == 1

    # the d = 25 unbiased bases less one basis, perturbed by 1e-7 per entry, and halved
    bases = qd.wootters_fields_mub(5, 2).bases
    rng = np.random.default_rng(75)
    noise = [1e-7 * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)) for b in bases]
    for name, near in (("less-one", bases[1:]), ("perturbed", [b + e for b, e in zip(bases, noise)]),
                       ("half", [0.5 * b for b in bases])):  # fmt: skip
        path = tmp_path / f"{name}.json"
        path.write_text(serialize.dumps([serialize.matrix_to_json(b) for b in near]))
        assert main(["design-check", "--in", str(path)]) == 1, name
        assert "not a 2-design" in capsys.readouterr().err

    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["design-check", "--in", str(empty), "--trials", "5"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["design-check", "--in", missing, "--trials", "5"]) == 2


def test_design_check_writes_its_verdict_to_out(tmp_path, capsys):
    mub = tmp_path / "mub3.json"
    assert main(["mub", "--p", "3", "--out", str(mub)]) == 0
    single = tmp_path / "single.json"
    single.write_text(serialize.dumps([serialize.matrix_to_json(np.eye(2))]))
    for infile, rc in ((mub, 0), (single, 1)):
        assert main(["design-check", "--in", str(infile)]) == rc
        line = capsys.readouterr().out
        out = tmp_path / f"{infile.stem}.txt"
        assert main(["design-check", "--in", str(infile), "--out", str(out)]) == rc
        captured = capsys.readouterr()
        assert out.read_text() == line and line.count("\n") == 1 and captured.out == ""
        assert ("not a 2-design" in captured.err) == (rc == 1)


@pytest.mark.parametrize("collecting", [True, False])
def test_read_json_leaves_the_collector_as_it_found_it(tmp_path, capsys, collecting):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"a": [[1.0, 0.0]]}')  # parses, but encodes neither bases nor a POVM
    bad.write_text('{"a": [')
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert cli._read_json(str(good)) == {"a": [[1.0, 0.0]]}
        assert gc.isenabled() == collecting
        with pytest.raises(cli.UsageError, match="is not valid JSON"):
            cli._read_json(str(bad))
        assert gc.isenabled() == collecting
        for argv, rc in ((["design-check", "--in", str(bad)], 2), (["design-check", "--in", str(good)], 2),
                         (["info", "--povm", str(bad)], 2), (["info", "--povm", str(good)], 1)):  # fmt: skip
            assert main(argv) == rc, argv
            assert gc.isenabled() == collecting, argv
    finally:
        gc.enable() if was else gc.disable()


def test_collector_stays_paused_while_the_parsed_json_is_converted(tmp_path, qubit_basis_file, monkeypatch):
    mub = tmp_path / "mub3.json"
    assert main(["mub", "--p", "3", "--out", str(mub)]) == 0
    seen = []
    for name in ("matrix_from_json", "povm_from_json"):
        convert = getattr(serialize, name)
        monkeypatch.setattr(serialize, name, lambda obj, convert=convert: seen.append(gc.isenabled()) or convert(obj))
    was = gc.isenabled()
    try:
        gc.enable()
        assert main(["design-check", "--in", str(mub)]) == 0
        assert main(["disturbance", "--povm", qubit_basis_file]) == 0
        assert gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()
    assert len(seen) == 4 + 2 + 1 and not any(seen)  # four bases; the POVM and its two effects


def _floats(obj, out: list):
    """``obj`` with every float replaced by None, appended to ``out`` depth first."""
    if isinstance(obj, float):
        out.append(obj)
        return None
    if isinstance(obj, list):
        return [_floats(x, out) for x in obj]
    if isinstance(obj, dict):
        return {k: _floats(v, out) for k, v in obj.items()}
    return obj


def _assert_reads_as_json_loads(path):
    got, expected = [], []
    assert _floats(cli._read_json(str(path)), got) == _floats(json.loads(path.read_text()), expected)
    assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))


def test_read_json_is_json_loads_bit_for_bit(tmp_path, d49_files):
    special = tmp_path / "special.json"
    special.write_text(
        '{"x": [0.0, -0.0, 1e-320, 1E+2, 1e400, -1e400, NaN, Infinity, -Infinity, 0.1, 0.1, -0.0, 0.0],'
        ' "n": [0, -0, 7, -12, 123456789012345678901234567890, 1, 1.0]}'
    )
    above = tmp_path / "above.json"
    values = np.random.default_rng(3).standard_normal(DISTINCT_NUMBERS + 1).tolist()
    above.write_text(json.dumps([values, values]))
    for path in (*d49_files, special, above):
        _assert_reads_as_json_loads(path)


@pytest.mark.parametrize("distinct", [DISTINCT_NUMBERS, DISTINCT_NUMBERS + 1])
def test_read_json_shares_repeated_numbers_up_to_the_bound(distinct, tmp_path):
    path = tmp_path / "numbers.json"
    values = [i + 0.5 for i in range(distinct)]
    path.write_text(json.dumps([values, values]))
    first, second = cli._read_json(str(path))
    shared = sum(a is b for a, b in zip(first, second))
    assert shared == (distinct if distinct <= DISTINCT_NUMBERS else 0)


def test_invalid_json_message_does_not_depend_on_the_bound(tmp_path):
    numbers = ", ".join(f"{i}.5" for i in range(DISTINCT_NUMBERS + 1))
    for name, text in (("before", f"[[0.5, ], {numbers}]"), ("after", f"[{numbers}, ]")):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(cli.UsageError) as got:
            cli._read_json(str(path))
        assert str(got.value) == f"{path} is not valid JSON: {expected.value}", name


@pytest.mark.parametrize("text", ["1" * 4301, "[" * 200_000], ids=["long-integer", "deep-nesting"])
@pytest.mark.parametrize("command", ["design-check", "info", "disturbance", "twirl-check"])
def test_unparseable_json_one_line_message(command, text, tmp_path, capsys):
    # json raised a plain ValueError (integers over 4,300 digits) or a RecursionError: a traceback.
    # Python gives up on both before it finds a syntax error, and the long integer is valid JSON.
    path = tmp_path / "x.json"
    path.write_text(text)
    with pytest.raises((ValueError, RecursionError)) as expected:
        json.loads(text)
    assert not isinstance(expected.value, json.JSONDecodeError)
    assert main([command, "--in" if command == "design-check" else "--povm", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {path} is beyond what Python's JSON reader accepts: {expected.value}\n"


def test_read_vectors_memory_is_bounded_by_the_file(d49_files):
    # the file's bytes and its text are both alive while it is read: 2x is the floor. Without the
    # memo the mub file read at 2.8x; with every parsed [re, im] list alive at once, 2.2x and 2.9x
    for path in d49_files:
        tracemalloc.start()
        try:
            cli._read_vectors(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * path.stat().st_size, path.name


def test_mub_writes_its_json_as_it_is_laid_out(tmp_path, capsys):
    # the whole text, its pieces and its encoding were all alive at once: 2.4x the file
    out = tmp_path / "mub49.json"
    tracemalloc.start()
    try:
        assert main(["mub", "--p", "7", "--n", "2", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * out.stat().st_size
    expected = serialize.dumps(serialize.mubset_to_json(qd.wootters_fields_mub(7, 2), p=7, n=2))
    assert out.read_text(encoding="utf-8") == expected

    assert main(["mub", "--p", "3", "--n", "2", "--out", str(tmp_path / "mub9.json")]) == 0
    assert main(["mub", "--p", "3", "--n", "2"]) == 0
    assert capsys.readouterr().out == (tmp_path / "mub9.json").read_text(encoding="utf-8")


_RSS_PROBE = """
import sys
from infodist.cli import main

def peak():  # this process's own high-water mark; ru_maxrss also counts the pages it was forked with
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak()
rc = main(sys.argv[1:])
print(rc, peak() - before)
"""


def _rss_growth(argv: list[str]) -> tuple[int, int]:
    """Exit code and peak-RSS growth in bytes of one command, run in a new process after import."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", _RSS_PROBE, *argv], env=env, capture_output=True, text=True, timeout=300)
    rc, kib = run.stdout.split()
    return int(rc), int(kib) * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads the high-water mark from /proc/self/status")
def test_d49_round_trip_rss_is_bounded_by_the_file(d49_files, tmp_path):
    # what tracemalloc does not see: the allocator's pages. The parent grew by 2.5x (mub) and 3.0x
    out = tmp_path / "mub49.json"
    rc, grown = _rss_growth(["mub", "--p", "7", "--n", "2", "--out", str(out)])
    assert rc == 0 and grown < 1.0 * out.stat().st_size
    haar = d49_files[1]
    rc, grown = _rss_growth(["design-check", "--in", str(haar), "--out", str(tmp_path / "verdict.txt")])
    assert rc == 1 and grown < 2.5 * haar.stat().st_size


def test_load_hands_each_matrix_its_data_as_an_array(tmp_path, qubit_basis_file, monkeypatch):
    mub = tmp_path / "mub3.json"
    assert main(["mub", "--p", "3", "--out", str(mub)]) == 0
    seen = []
    convert = serialize.matrix_from_json
    monkeypatch.setattr(serialize, "matrix_from_json", lambda obj: seen.append(type(obj["data"])) or convert(obj))
    assert main(["design-check", "--in", str(mub)]) == 0
    assert main(["info", "--povm", qubit_basis_file, "--samples", "100"]) == 0
    assert seen == [np.ndarray] * (4 + 2)


_REFUSED_DATA = {
    "ragged": "[[1.0, 0.0], [0.0]]",
    "ragged-nested": "[[1.0, 0.0], [0.0, [1.0]]]",
    "object-entry": '[[1.0, 0.0], {"re": 0.0}]',
    "string": '[["1.0", 0.0], [0.0, 1.0]]',
    "boolean": "[[true, false], [false, true]]",
    "null": "[[null, 0.0], [0.0, 1.0]]",
    "nan": "[[NaN, 0.0], [0.0, 1.0]]",
    "infinity": "[[1.0, -Infinity], [0.0, 1.0]]",
    "overflow": "[[1e400, 0.0], [0.0, 1.0]]",
    "text": '"ab"',
    "number": "7",
    "object": '{"re": 1.0, "im": 0.0}',
    "null-data": "null",
    "too-few": "[[1.0, 0.0]]",
    "too-many": "[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]",
}


@pytest.mark.parametrize("data", _REFUSED_DATA.values(), ids=_REFUSED_DATA.keys())
@pytest.mark.parametrize("command", ["design-check", "info"])
def test_refused_matrix_data_one_line_message(command, data, tmp_path, capsys):
    # the message is the one the same 1x2 matrix gets when parsed without the hook, then converted
    matrix = f'{{"cols": 2, "data": {data}, "rows": 1}}'
    path = tmp_path / "bad.json"
    if command == "design-check":
        text, flag = f"[{matrix}]", "--in"
        with pytest.raises((KeyError, TypeError, ValueError)) as refused:
            serialize.mubset_from_json({"d": 2, "bases": json.loads(text)})
        expected = f"usage error: {path} does not encode bases: {refused.value}\n"
    else:
        text, flag = f'{{"dim": 2, "effects": [{matrix}]}}', "--povm"
        with pytest.raises((KeyError, TypeError, ValueError)) as refused:
            serialize.povm_from_json(json.loads(text))
        expected = f"validation failure: {path} does not encode a POVM: {refused.value}\n"
    path.write_text(text)
    assert main([command, flag, str(path)]) == (2 if command == "design-check" else 1)
    assert capsys.readouterr() == ("", expected)

    # a syntax error after the refused matrix still wins
    path.write_text(text[:-1] + ", ")
    with pytest.raises(json.JSONDecodeError) as syntax:
        json.loads(path.read_text())
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr() == ("", f"usage error: {path} is not valid JSON: {syntax.value}\n")


def test_design_check_ignores_trials_and_seed(tmp_path, capsys):
    mub = tmp_path / "mub9.json"
    assert main(["mub", "--p", "3", "--n", "2", "--out", str(mub)]) == 0
    outputs = set()
    for extra in ([], ["--trials", "1"], ["--trials", "250", "--seed", "7"]):
        assert main(["design-check", "--in", str(mub), *extra]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


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
    monkeypatch.setattr(cli, "design_check", lambda vectors: float("nan"))
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


@pytest.mark.parametrize("labels", [["0", "1"], ["only one"], None, "x", 7], ids=["two", "too-few", "null", "string", "number"])
@pytest.mark.parametrize("argv", [["disturbance", "--method", "exact"], ["info", "--samples", "200"], ["twirl-check", "--samples", "200"]])
def test_povm_labels_are_ignored(argv, labels, qubit_basis_file, tmp_path, capsys):
    # outcomes carry no names; a "labels" key once had to match the effects in length
    labeled = tmp_path / "labeled.json"
    labeled.write_text(serialize.dumps({**json.loads(Path(qubit_basis_file).read_text()), "labels": labels}))
    assert main([*argv, "--povm", qubit_basis_file]) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--povm", str(labeled)]) == 0
    assert capsys.readouterr() == plain


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


def test_seed_defaults_to_zero(qubit_basis_file, capsys):
    assert main(["info", "--povm", qubit_basis_file, "--samples", "2000"]) == 0
    default = capsys.readouterr().out
    assert main(["info", "--povm", qubit_basis_file, "--samples", "2000", "--seed", "0"]) == 0
    assert capsys.readouterr().out == default
    assert main(["info", "--povm", qubit_basis_file, "--samples", "2000", "--seed", "12"]) == 0
    assert capsys.readouterr().out != default
    with pytest.raises(SystemExit) as exc:  # numpy refuses negative seeds with a ValueError
        main(["info", "--povm", qubit_basis_file, "--seed", "-1"])
    assert exc.value.code == 2 and "--seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda tmp: ["info", "--povm", str(tmp)],  # a directory
        lambda tmp: ["info", "--povm", str(tmp / "latin1.json")],  # not UTF-8
        lambda tmp: ["design-check", "--in", str(tmp / "latin1.json")],
        lambda tmp: ["mub", "--p", "3", "--out", str(tmp / "missing" / "x.json")],
        lambda tmp: ["frontier", "--d", "2", "--grid", "2", "--out", str(tmp / "missing" / "x.csv")],
        lambda tmp: ["frontier", "--d", "2", "--grid", "2", "--out", str(tmp / "c.csv"), "--json", str(tmp)],
    ],
    ids=["read-directory", "read-non-utf8", "design-check-non-utf8", "mub-out", "frontier-out", "frontier-json"],
)
def test_unreadable_input_or_unwritable_output_exit_2(make_argv, tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"dim": 2, "label": "\xe9"}')
    assert main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()  # a failed --json write leaves no CSV behind


def test_repeated_runs_are_byte_identical(qubit_basis_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["disturbance", "--povm", qubit_basis_file, "--method", "mc", "--samples", "5000", "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_frontier_command(tmp_path):
    csv_path = tmp_path / "curve.csv"
    json_path = tmp_path / "curve.json"
    code = main([
        "frontier", "--d", "2", "--grid", "3", "--samples", "30", "--seed", "0",
        "--out", str(csv_path), "--json", str(json_path),
    ])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "p,disturbance,info_lb_nats,line_info_nats"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 0.0
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1 / 3, abs=1e-12)
    meta = json.loads(json_path.read_text())
    assert len(meta) == 3 and "optimizer_meta" in meta[0]


def test_frontier_ignores_the_retired_search_flags(tmp_path):
    # --restarts, --max-iter, --allow-nonconverged, --samples and --seed still parse, with their old
    # bounds, and change no byte
    out = []
    for extra in ([], ["--restarts", "3", "--max-iter", "7", "--allow-nonconverged"], ["--samples", "50", "--seed", "7"]):
        csv_path, json_path = tmp_path / f"{len(out)}.csv", tmp_path / f"{len(out)}.json"
        argv = ["frontier", "--d", "3", "--grid", "5", *extra, "--out", str(csv_path), "--json", str(json_path)]
        assert main(argv) == 0
        out.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert out[0] == out[1] == out[2]


def test_frontier_json_records_only_the_seeds(tmp_path):
    # nothing is re-scored or captured any more: each point's metadata is its seeds alone
    json_path = tmp_path / "c.json"
    assert main(["frontier", "--d", "3", "--grid", "5", "--out", str(tmp_path / "c.csv"), "--json", str(json_path)]) == 0
    points = json.loads(json_path.read_text())
    assert len(points) == 5 and all(pt["optimizer_meta"].keys() == {"seeds"} for pt in points)


@pytest.mark.parametrize("option", ["--restarts", "--samples", "--max-iter"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_frontier_empty_budget_exit_2(option, value, capsys):
    # --restarts 0 once ended in a TypeError traceback, --samples 0 in a "weights" error; the flags
    # are ignored now, but keep the bounds they had (--samples sized a standard error, so needed two)
    with pytest.raises(SystemExit) as exc:
        main(["frontier", "--d", "2", "--grid", "2", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    least = 2 if option == "--samples" else 1
    assert f"{option}: must be at least {least}" in err and "Traceback" not in err


def test_frontier_dimension_over_the_cap_exit_1(tmp_path, monkeypatch, capsys):
    # the cap is refused before any solve
    assert main(["frontier", "--d", str(FRONTIER_CAP), "--grid", "2", "--out", str(tmp_path / "c.csv")]) == 0

    def no_solve(*args):
        raise AssertionError("solved a dimension over the cap")

    monkeypatch.setattr(frontier, "_tangent_residual", no_solve)
    monkeypatch.setattr(frontier, "family_xlogx", no_solve)
    capsys.readouterr()
    assert main(["frontier", "--d", str(FRONTIER_CAP + 1), "--out", str(tmp_path / "over.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "over.csv").exists()
    assert f"exceeds the configured cap {FRONTIER_CAP}" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("option", ["--d", "--grid"])
def test_frontier_dimension_and_grid_below_two_exit_2(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frontier", "--d", "2", "--grid", "2", option, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{option}: must be at least 2, got 1" in err and "Traceback" not in err


@pytest.mark.parametrize("d", ["2", "3"])
def test_frontier_defaults_converge(d, tmp_path, capsys):
    # no solve can stop short any more: the default grid runs warning-free, every point in [0, I_max]
    assert main(["frontier", "--d", d, "--out", str(tmp_path / "c.csv")]) == 0
    assert "Warning" not in capsys.readouterr().err
    rows = [line.split(",") for line in (tmp_path / "c.csv").read_text().splitlines()[1:]]
    assert len(rows) == 11 and all(0.0 <= float(row[2]) <= qd.info_finegrained_exact(int(d)) for row in rows)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("d, grid", [(2, 11), (3, 5)])
def test_frontier_json_is_strict_json(d, grid, tmp_path):
    # Python's json writes Infinity and NaN for a non-finite gap or stderr; strict parsers refuse them
    json_path = tmp_path / "c.json"
    argv = ["frontier", "--d", str(d), "--grid", str(grid), "--out", str(tmp_path / "c.csv"), "--json", str(json_path)]
    assert main(argv) == 0
    points = qd.frontier_curve(d, list(np.linspace(0.0, d / (d + 1), grid)))
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


def test_twirl_check_refuses_dimension_one(tmp_path, capsys):
    # p* divides by d^2 - 1: a one-level POVM once ended in a ZeroDivisionError traceback
    path = tmp_path / "one.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.POVM(1, (np.eye(1, dtype=complex),)))))
    assert main(["twirl-check", "--povm", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("validation failure: ") and "at least 2, got 1" in captured.err


def test_twirl_check_of_an_identity_povm(tmp_path, capsys):
    # p* of {I/2, I/2} rounded to -3.0e-16, and depolarize ended the run in a ValueError traceback
    path = tmp_path / "identity.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.POVM(2, (np.eye(2, dtype=complex) / 2,) * 2))))
    assert main(["twirl-check", "--povm", str(path), "--samples", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["p_star"] == 0.0 and report["passed"] is True


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize("command", ["info", "disturbance", "twirl-check"])
def test_povm_dimension_below_one_one_line_message(command, dim, tmp_path, capsys):
    # povm_validate once ended in a "zero-size array" or "negative dimensions" traceback
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(serialize.povm_to_json(qd.basis_povm(2))).replace('"dim": 2', f'"dim": {dim}', 1))
    assert main([command, "--povm", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("validation failure: ") and f"at least 1, got {dim}" in captured.err


@pytest.mark.parametrize("size", ["1e400", "2.5", "true", '"2"', '" 2 "'])
@pytest.mark.parametrize(
    "command, key",
    [("design-check", "rows"), ("design-check", "cols")]
    + [(command, key) for command in ("info", "disturbance", "twirl-check") for key in ("rows", "cols", "dim")],
)
def test_size_that_is_not_a_whole_number_one_line_message(command, key, size, tmp_path, capsys):
    # json reads 1e400 as inf: int() raised OverflowError, a traceback; 2.5 and " 2 " were read as 2, true as 1
    if command == "design-check":
        text, flag, rc = serialize.dumps([serialize.matrix_to_json(np.eye(2))]), "--in", 2
    else:
        text, flag, rc = serialize.dumps(serialize.povm_to_json(qd.basis_povm(2))), "--povm", 1
    path = tmp_path / "bad.json"
    path.write_text(text.replace(f'"{key}": 2', f'"{key}": {size}', 1))
    assert main([command, flag, str(path)]) == rc
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "whole numbers" in captured.err


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
    with pytest.raises(SystemExit) as exc:
        main(["mub", "--p", "3", "--cap", "9"])  # the cap is the constant config.MUB_CAP
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
