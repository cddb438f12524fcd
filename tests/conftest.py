"""Helpers shared by the test modules."""

import numpy as np

import infodist as qd


def haar_info(povm):
    """Exact Haar-ensemble information I = sum_b [J(spec F_b) - qbar_b ln qbar_b], qbar_b = tr F_b / d,
    with 0 ln 0 = 0."""
    info = 0.0
    for e in povm.effects:
        spectrum = np.clip(np.linalg.eigvalsh(e), 0.0, None)
        qbar = spectrum.sum() / povm.dim
        info += qd.haar_xlogx(spectrum) - (qbar * np.log(qbar) if qbar > 0 else 0.0)
    return info


def induced_effects(inst):
    """The effects F_b = sum_i A_bi† A_bi an instrument measures."""
    return [sum(a.conj().T @ a for a in branch) for branch in inst.branches]
