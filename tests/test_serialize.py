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


def test_povm_roundtrip():
    rng = np.random.default_rng(91)
    povm = qd.random_povm(3, 4, rng)
    back = serialize.povm_from_json(serialize.povm_to_json(povm))
    assert back.dim == povm.dim
    assert all(np.abs(a - b).max() == 0.0 for a, b in zip(back.effects, povm.effects))

    labeled = qd.basis_povm(2)
    back = serialize.povm_from_json(serialize.povm_to_json(labeled))
    assert back.labels == labeled.labels


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
        FrontierPoint(0.0, 0.0, 0.0, 0.0, {"converged": True}),
        FrontierPoint(1 / 3, 1 / 6, 0.1234567890123456789, 0.1, {"converged": False}),
    ]
    text = serialize.frontier_to_csv(points)
    lines = text.split("\n")
    assert lines[0] == "p,disturbance,info_lb_nats,line_info_nats,converged"
    assert lines[1] == "0,0,0,0,true"
    assert lines[2].endswith(",false")
    assert "\r" not in text and text.endswith("\n")
    # doubles survive the round trip at 17 significant digits
    assert float(lines[2].split(",")[0]) == 1 / 3
    assert float(lines[2].split(",")[2]) == 0.1234567890123456789


def test_dumps_is_canonical():
    a = serialize.dumps({"b": 1, "a": 2})
    assert a.index('"a"') < a.index('"b"') and a.endswith("\n")
