"""The record types. Reports, diagnostics, unbiased-bases sets and field tables are named tuples;
POVM and Instrument are ``__slots__`` classes that convert and check their input. Each is built
by position or by keyword alike, refuses assignment, and serializes to a plain dict."""

import numpy as np
import pytest

import infodist as qd
from infodist import serialize
from infodist.galois import FieldSpec
from infodist.measurement import PovmDiagnostics

EYE = np.eye(2, dtype=complex)
TABLE = np.zeros((3, 3), dtype=np.int64)
RECORDS = [
    (qd.InfoReport, {"mutual_info": 0.1, "h_b": 0.6, "h_b_given_psi": 0.5, "method": "monte-carlo",
                     "stderr": 0.01, "samples": 10, "log_base": "nats"}),
    (qd.DisturbanceReport, {"avg_fidelity": 0.75, "disturbance": 0.25, "method": "exact-pi", "stderr": None,
                            "samples": None}),
    (qd.FrontierPoint, {"p": 0.5, "disturbance": 0.25, "info_lower_bound": 0.1, "line_info": 0.2,
                        "optimizer_meta": {"seeds": []}}),
    (PovmDiagnostics, {"max_hermiticity_violation": 0.0, "max_psd_violation": 1e-9, "completeness_residual": 0.0,
                       "passed": True}),
    (qd.MubSet, {"d": 2, "bases": (EYE,)}),
    (FieldSpec, {"p": 3, "n": 1, "modulus": (0, 1), "add": TABLE, "mul": TABLE, "trace": TABLE[0]}),
    (qd.POVM, {"dim": 2, "effects": (EYE / 2, EYE / 2)}),
    (qd.Instrument, {"dim": 2, "branches": ((EYE,), (0 * EYE, EYE))}),
]  # fmt: skip
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields):
    by_name, by_position = cls(**fields), cls(*fields.values())
    for name, value in fields.items():
        np.testing.assert_equal(getattr(by_name, name), value)
        np.testing.assert_equal(getattr(by_position, name), value)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    np.testing.assert_equal([getattr(record, name) for name in fields], list(fields.values()))


def test_report_defaults():
    info = qd.InfoReport(0.1, 0.6, 0.5, "monte-carlo")
    assert (info.stderr, info.samples, info.log_base) == (None, None, "nats")
    report = qd.DisturbanceReport(0.75, 0.25, "exact-pi")
    assert (report.stderr, report.samples) == (None, None)


def test_povm_and_instrument_convert_array_likes_to_complex_tuples():
    povm = qd.POVM(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    assert type(povm.effects) is tuple and len(povm) == 2
    assert all(e.dtype == complex and e.shape == (2, 2) for e in povm.effects)
    inst = qd.Instrument(2, [[[[1, 0], [0, 1]]], [np.zeros((2, 2)), [[0, 1], [1, 0]]]])
    assert type(inst.branches) is tuple and all(type(br) is tuple for br in inst.branches)
    assert [len(br) for br in inst.branches] == [1, 2]
    assert all(a.dtype == complex for a in inst.kraus_ops())


def test_povm_and_instrument_refuse_mismatched_shapes():
    with pytest.raises(qd.InfodistError, match=r"effect shape \(2, 2\) does not match dim 3"):
        qd.POVM(3, (EYE,))
    with pytest.raises(qd.InfodistError, match=r"Kraus shape \(2,\) does not match dim 2"):
        qd.Instrument(2, ((EYE,), (np.ones(2),)))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_len_of_a_povm_is_its_outcome_count(k):
    assert len(qd.POVM(2, (EYE / k,) * k)) == k


def test_field_spec_compares_and_hashes_by_identity():
    spec = qd.find_irreducible(3, 2)
    twin = FieldSpec(*spec)
    assert spec == spec and not spec != spec and hash(spec) == hash(spec)
    assert spec != twin and not spec == twin
    assert len({spec, twin, spec}) == 2


def test_report_to_json_is_a_plain_dict_of_the_fields():
    info = qd.InfoReport(0.1, 0.6, 0.5, "monte-carlo", 0.01, 10)
    assert serialize.report_to_json(info) == {
        "mutual_info": 0.1, "h_b": 0.6, "h_b_given_psi": 0.5, "method": "monte-carlo", "stderr": 0.01,
        "samples": 10, "log_base": "nats",
    }  # fmt: skip
    report = qd.DisturbanceReport(0.75, 0.25, "exact-pi")
    obj = serialize.report_to_json(report)
    assert type(obj) is dict
    assert obj == {"avg_fidelity": 0.75, "disturbance": 0.25, "method": "exact-pi", "stderr": None, "samples": None}


def test_frontier_to_json_is_a_list_of_plain_dicts():
    meta = {"seeds": [{"weight": 1.0, "spectrum": [2.0, 0.0]}]}
    point = qd.FrontierPoint(0.5, 0.25, 0.1, 0.2, meta)
    objs = serialize.frontier_to_json([point])
    assert objs == [{"p": 0.5, "disturbance": 0.25, "info_lower_bound": 0.1, "line_info": 0.2, "optimizer_meta": meta}]
    assert type(objs[0]) is dict
