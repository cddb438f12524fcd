"""Golden outputs: sha256 of small seeded CLI runs.

Every subcommand writes the same bytes for the same flags and seed, so a
change that is meant to leave the numbers alone (a refactor, a deleted
option) must leave these hashes alone too. A change that alters the math on
purpose updates the hashes, and says so. The frontier hash, being the most
floating-point-heavy, is specific to the numpy/BLAS build the hashes were
taken on (numpy 2.4, OpenBLAS, x86-64).
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

import infodist as qd
from infodist import serialize
from infodist.cli import build_parser, main

GOLDEN = {
    "mub": "6758aedce72bade9ba41bb71e878a41149054f1b93c8b7965ddb8620716820af",
    "design-check": "6e1a46b33dc21c83a443573b28107d9654f4a37169d2286fab3cf82b02280af1",
    "info-bits": "8230144c6df08604586d59da46a19a2ba34c26ec7973174348e95b96096424c7",
    "disturbance-exact": "529b3dbd5d4a2fa9d8a3d6a995add8eb04a79867bd26f7f5742078cf2d57da51",
    "disturbance-mc": "15c599a8265e4b56bb32bd0f33b51e4aa3baaea0f36a00558006f5684fb741fa",
    "disturbance-design": "3f2b76beecfb72af032fd40f65883ad5d1c859c46d79cdd23d40a1ada2ef6bd9",
    "twirl-check": "599c4da7628d65c57c4b323d842a6c368fa9eb271bd0923c381be5b960d76ebe",
    "frontier-csv": "ebc051f41d94ccb0842543ca258a54d025ed49ae1f8d04f9d30780920ed6c270",
    "frontier-json": "ea3f77c1e1d3ab80f2d17b0f1ea399c7086cecf3987b8b137a46a81d8934c48c",
}


def _write_povm(path, povm):
    path.write_text(serialize.dumps(serialize.povm_to_json(povm)))
    return str(path)


def golden_argvs(trine, rand3, work):
    """The argv of every golden run but design-check, by name; each writes to ``work / name``."""
    runs = {
        "mub": ["mub", "--p", "3", "--n", "2"],
        "info-bits": ["info", "--povm", trine, "--samples", "2000", "--seed", "1", "--bits"],
        "twirl-check": ["twirl-check", "--povm", rand3, "--samples", "500", "--seed", "2"],
        "frontier-csv": ["frontier", "--d", "2", "--grid", "2", "--samples", "20", "--seed", "3",
                         "--json", str(work / "frontier-json")],  # fmt: skip
    }
    for method in ("exact", "mc", "design"):
        runs[f"disturbance-{method}"] = ["disturbance", "--povm", rand3, "--method", method,
                                         "--samples", "2000", "--seed", "4"]  # fmt: skip
    return {name: [*argv, "--out", str(work / name)] for name, argv in runs.items()}


# design-check prints its verdict to stdout rather than to --out
DESIGN_CHECK_ARGV = ["design-check", "--trials", "20", "--seed", "5", "--in"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Digest of every golden run, by name."""
    work = tmp_path_factory.mktemp("golden")
    trine = _write_povm(work / "trine.json", qd.trine_povm())
    rand3 = _write_povm(work / "rand3.json", qd.random_povm(3, 4, np.random.default_rng(2024)))
    runs = golden_argvs(trine, rand3, work)
    for name, argv in runs.items():
        assert main(argv) == 0, name
    digests = {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in [*runs, "frontier-json"]}

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*DESIGN_CHECK_ARGV, str(work / "mub")]) == 0
    digests["design-check"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, outputs):
    assert outputs[name] == GOLDEN[name]


def test_golden_argvs_parse_the_same_with_only_their_subcommand_built(tmp_path):
    argvs = [*golden_argvs("trine.json", "rand3.json", tmp_path).values(), [*DESIGN_CHECK_ARGV, "mub"]]
    assert len(argvs) == len(GOLDEN) - 1  # frontier-json is a second output of frontier-csv's run
    for argv in argvs:
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv), argv
