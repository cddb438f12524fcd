import json

import numpy as np
import pytest

import infodist as qd
from infodist import serialize
from infodist.frontier import FrontierPoint


def test_matrix_roundtrip():
    rng = np.random.default_rng(90)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    obj = serialize.matrix_to_json(a)
    assert obj["rows"] == 3 and obj["cols"] == 2 and len(obj["data"]) == 6
    back = serialize.matrix_from_json(obj)
    assert np.abs(back - a).max() == 0.0


def test_matrix_from_json_validates():
    with pytest.raises(ValueError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        serialize.matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})
    with pytest.raises(ValueError):
        serialize.matrix_from_json({"rows": 0, "cols": 1, "data": []})


@pytest.mark.parametrize("size", [float("inf"), float("-inf"), float("nan"), 2.5, True, "2", " 2 ", None])
def test_sizes_must_be_whole_numbers(size):
    # json reads 1e400 as inf, and int(inf) raised OverflowError; int(2.5) read 2, int(" 2 ") too
    matrix = {"rows": 2, "cols": 1, "data": [[1.0, 0.0], [0.0, 0.0]]}
    for obj in ({**matrix, "rows": size}, {**matrix, "cols": size}):
        with pytest.raises(ValueError, match="whole numbers"):
            serialize.matrix_from_json(obj)
    with pytest.raises(ValueError, match="whole numbers"):
        serialize.povm_from_json({"dim": size, "effects": []})
    with pytest.raises(ValueError, match="whole numbers"):
        serialize.mubset_from_json({"d": size, "bases": []})
    assert serialize.matrix_from_json({**matrix, "rows": 2.0}).shape == (2, 1)


@pytest.mark.parametrize(
    "data",
    [
        [["1", "0"], [0.0, 0.0]],
        [[1.0, "0"], [0.0, 0.0]],
        [[None, 0.0], [0.0, 0.0]],
        [[1.0, None], [0.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[1.0], [0.0]],
        [[1.0, 0.0], [0.0]],
        [[1.0, 0.0], 0.0],
        [[[1.0, 0.0]], [[0.0, 0.0]]],
        [[1.0, 0.0], [float("inf"), 0.0]],
        [[1.0, 0.0], [0.0, float("-inf")]],
        "ab",
        [[True, False], [False, True]],
    ],
    ids=["string", "string-imag", "null", "null-imag", "triple", "single", "ragged", "scalar", "nested",
         "inf", "neg-inf", "text", "bool"],  # fmt: skip
)
def test_matrix_from_json_refuses_non_pairs(data):
    with pytest.raises((ValueError, TypeError)):
        serialize.matrix_from_json({"rows": 1, "cols": 2, "data": data})


@pytest.mark.parametrize("seed", range(5))
def test_povm_and_mub_json_roundtrip_bit_for_bit(seed):
    """from_json(json.loads(dumps(to_json(x)))) returns every entry's bits."""

    def same_bits(a, b):
        bits = [np.ascontiguousarray(x).view(np.int64) for x in (a, b)]
        return a.shape == b.shape and np.array_equal(*bits)

    rng = np.random.default_rng(seed)
    for d in (2, 3, 4, 5):
        povm = qd.random_povm(d, d + 1 + seed, rng)
        back = serialize.povm_from_json(json.loads(serialize.dumps(serialize.povm_to_json(povm))))
        assert back.dim == d and all(map(same_bits, back.effects, povm.effects))
    signed = qd.POVM(2, (np.array([[1.0, complex(-0.0, -0.0)], [-0.0, 0.0]]), np.diag([-0.0, 1.0])))
    back = serialize.povm_from_json(json.loads(serialize.dumps(serialize.povm_to_json(signed))))
    assert all(map(same_bits, back.effects, signed.effects))
    p, n = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)][seed]
    mub = qd.wootters_fields_mub(p, n)
    back = serialize.mubset_from_json(json.loads(serialize.dumps(serialize.mubset_to_json(mub, p=p, n=n))))
    assert back.d == mub.d and all(map(same_bits, back.bases, mub.bases))


def test_povm_roundtrip():
    rng = np.random.default_rng(91)
    povm = qd.random_povm(3, 4, rng)
    back = serialize.povm_from_json(serialize.povm_to_json(povm))
    assert back.dim == povm.dim
    assert all(np.abs(a - b).max() == 0.0 for a, b in zip(back.effects, povm.effects))

    # outcomes carry no names: none is written, and a file's "labels" key is ignored
    basis = qd.basis_povm(2)
    obj = serialize.povm_to_json(basis)
    assert sorted(obj) == ["dim", "effects"]
    back = serialize.povm_from_json({**obj, "labels": ["only one"]})
    assert len(back) == 2 and all(np.array_equal(a, b) for a, b in zip(back.effects, basis.effects))


def test_povm_effects_are_read_before_dim():
    bad = {**serialize.matrix_to_json(np.eye(2)), "rows": 2.5}
    with pytest.raises(ValueError, match="got 2.5"):
        serialize.povm_from_json({"dim": "2", "effects": [bad]})


def test_mubset_roundtrip():
    mub = qd.wootters_fields_mub(3, 1)
    back = serialize.mubset_from_json(serialize.mubset_to_json(mub, p=3, n=1))
    assert back.d == 3 and len(back.bases) == 4
    assert all(np.abs(a - b).max() == 0.0 for a, b in zip(back.bases, mub.bases))


def test_report_json_fields():
    rng = np.random.default_rng(92)
    rep = qd.avg_fidelity_mc(qd.sqrt_instrument(qd.basis_povm(2)), 100, rng)
    obj = serialize.report_to_json(rep)
    assert obj["method"] == "monte-carlo" and obj["samples"] == 100 and "stderr" in obj

    info = qd.info_uniform_mc(qd.basis_povm(2), 100, rng)
    obj = serialize.report_to_json(info)
    assert obj["log_base"] == "nats" and "mutual_info" in obj


def test_frontier_csv_format():
    points = [
        FrontierPoint(0.0, 0.0, 0.0, 0.0, {"seeds": []}),
        FrontierPoint(1 / 3, 1 / 6, 0.1234567890123456789, 0.1, {"seeds": []}),
    ]
    text = serialize.frontier_to_csv(points)
    lines = text.split("\n")
    assert lines[0] == "p,disturbance,info_lb_nats,line_info_nats"
    assert lines[1] == "0,0,0,0"
    assert lines[2].endswith(",0.10000000000000001")
    assert "\r" not in text and text.endswith("\n")
    # doubles survive the round trip at 17 significant digits
    assert float(lines[2].split(",")[0]) == 1 / 3
    assert float(lines[2].split(",")[2]) == 0.1234567890123456789


def _small_frontier():
    return serialize.frontier_to_json(qd.frontier_curve(2, [0.0, 1 / 3, 2 / 3]))


def _signed_zero_povm():
    effect = np.array([[1.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), -0.0]])
    return serialize.povm_to_json(qd.POVM(2, (effect, np.eye(2) - effect)))


def _non_finite_matrix():
    return serialize.matrix_to_json(np.array([[np.nan, np.inf], [-np.inf, complex(np.inf, np.nan)]]))


def _matrix_of_pairs(pairs, shape):
    """A matrix JSON object whose entries carry exactly the given (re, im) bits."""
    z = np.empty(len(pairs), dtype=complex)
    z.real, z.imag = np.array(pairs, dtype=float).T
    return serialize.matrix_to_json(z.reshape(shape))


def _float64_report():
    report = qd.avg_fidelity_mc(qd.sqrt_instrument(qd.basis_povm(2)), 50, np.random.default_rng(6))
    return {"report": serialize.report_to_json(report), "x": np.float64(0.1), "m": serialize.matrix_to_json(np.eye(2))}


ORACLE_CASES = {
    "mub-3-2": lambda: serialize.mubset_to_json(qd.wootters_fields_mub(3, 2), p=3, n=2),
    "mub-5-2": lambda: serialize.mubset_to_json(qd.wootters_fields_mub(5, 2), p=5, n=2),
    "mub-3-3": lambda: serialize.mubset_to_json(qd.wootters_fields_mub(3, 3), p=3, n=3),
    "bare-bases": lambda: [serialize.matrix_to_json(b) for b in qd.wootters_fields_mub(3, 1).bases],
    "random-povm": lambda: serialize.povm_to_json(qd.random_povm(3, 4, np.random.default_rng(7))),
    "signed-zero-povm": _signed_zero_povm,
    "non-finite-matrix": _non_finite_matrix,
    "empty": lambda: {"a": {}, "b": [], "c": [[], {}, ()], "m": serialize.matrix_to_json(np.zeros((0, 3)))},
    "float64-report": _float64_report,
    "non-ascii-label": lambda: {"labels": ["é", "ψ\n\"q\""], "m": serialize.matrix_to_json(np.eye(2))},
    "non-string-keys": lambda: {1: serialize.matrix_to_json(np.eye(1)), 2.5: (None, True), 0: "x"},
    "frontier": _small_frontier,
    "scalar": lambda: 0.1,
    "shared-real-part": lambda: _matrix_of_pairs([(0.5, 1.0), (0.5, -1.0), (0.5, 1.0), (-0.5, 1.0)], (2, 2)),
    "signed-zero-pairs": lambda: _matrix_of_pairs([(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (0.0, -0.0)], (2, 2)),
    "non-finite-pairs": lambda: _matrix_of_pairs(
        [(np.nan, np.inf), (np.inf, np.nan), (-np.inf, np.inf), (np.inf, -np.inf), (np.nan, np.nan), (np.nan, 0.0)],
        (3, 2),
    ),
    "one-by-one": lambda: serialize.matrix_to_json(np.array([[0.25 - 0.75j]])),
    "distinct-60x60": lambda: serialize.matrix_to_json(
        np.random.default_rng(8).standard_normal((60, 60)) + 1j * np.random.default_rng(9).standard_normal((60, 60))
    ),
    "mub-7-1": lambda: serialize.mubset_to_json(qd.wootters_fields_mub(7, 1), p=7, n=1),
}


def test_dumps_is_canonical():
    """dumps is defined as json.dumps(sort_keys=True, indent=2) with arrays as lists."""
    for name, make in ORACLE_CASES.items():
        obj = make()
        assert serialize.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n", name


@pytest.mark.parametrize(
    "obj",
    [{"n": np.int64(1)}, {"m": serialize.matrix_to_json(np.eye(2)), "n": np.int64(1)}, {"a": np.zeros((2, 3))}],
    ids=["numpy-int", "numpy-int-beside-matrix", "not-pairs"],
)
def test_dumps_refuses_what_json_cannot_encode(obj):
    with pytest.raises(TypeError):
        serialize.dumps(obj)
