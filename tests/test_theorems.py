"""The paper's theorems on the uniform (Haar) ensemble, one exact, seeded property test each.

Information is the exact Haar value sum_b [J(spec F_b) - qbar_b ln qbar_b] (``conftest.haar_info``),
and disturbance the exact Haar average, so every comparison holds to ``EXACT``.
"""

import numpy as np
import pytest

import infodist as qd
from conftest import haar_info, induced_effects

EXACT = 1e-12


def _random_povms(d, n, rng):
    """``n`` random POVMs in dimension d, cycling through the ranks 1..d, each with
    2..3d outcomes (at least enough to resolve d)."""
    povms = []
    for k in range(n):
        rank = 1 + k % d
        outcomes = int(rng.integers(max(2, -(-d // rank)), 3 * d + 1))
        povms.append(qd.random_povm(d, outcomes, rng, rank=rank))
    return povms


def _min_disturbance(povm):
    return qd.min_disturbance_uniform(povm).disturbance


def _one_term(povm, rng):
    return qd.one_term_instrument(povm, list(qd.haar_unitaries(povm.dim, len(povm), rng)))


def _multi_term(povm, rng):
    """Branches B_i sqrt(F_b): the square-root dynamics followed by a random channel."""
    blocks = qd.isometry_kraus(qd.random_stinespring_isometry(povm.dim, int(rng.integers(1, 4)), rng))
    roots = [a for (a,) in qd.sqrt_instrument(povm).branches]
    return qd.Instrument(povm.dim, tuple(tuple(b @ r for b in blocks) for r in roots))


def _remixed(povm, rng):
    """The square-root Kraus operators re-decomposed across outcomes, A_i = sum_j m_ij sqrt(F_j)
    with m a random isometry, one outcome per A_i: the same channel measuring another POVM."""
    m = qd.random_stinespring_isometry(len(povm), 2, rng)
    ops = np.einsum("ij,jkl->ikl", m, np.stack(qd.sqrt_instrument(povm).kraus_ops()))
    return qd.Instrument(povm.dim, tuple((a,) for a in ops))


def _reset(povm, rng):
    return qd.reset_instrument(povm, qd.haar_states(povm.dim, 1, rng)[0])


FAMILIES = {"one-term": _one_term, "multi-term": _multi_term, "remixed": _remixed, "reset": _reset}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_every_povm_lies_on_or_under_the_frontier(d):
    # a POVM of minimal disturbance D sits at mixing probability p = D d / (d - 1) of the frontier
    rng = np.random.default_rng(1100 + d)
    povms = _random_povms(d, 25, rng)
    ps = [_min_disturbance(povm) * d / (d - 1) for povm in povms]
    frontier = np.array([pt.info_lower_bound for pt in qd.frontier_curve(d, ps)])
    infos = np.array([haar_info(povm) for povm in povms])
    assert np.max(infos - frontier) <= EXACT  # np.max propagates NaN
    # the rank-one POVMs (every d-th) are fine-grained: the far endpoint (d/(d+1), I_max)
    i_max = qd.info_finegrained_exact(d)
    for p, info, top in zip(ps[::d], infos[::d], frontier[::d], strict=True):
        assert p == pytest.approx(d / (d + 1), abs=EXACT)
        assert info == pytest.approx(i_max, abs=EXACT) and top == pytest.approx(i_max, abs=EXACT)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_coarse_graining_lowers_information_and_disturbance(d):
    # merging two outcomes at a time down to the trivial POVM. Information falls by data processing;
    # disturbance because (tr sqrt(F + G))^2 >= (tr sqrt F)^2 + (tr sqrt G)^2, the superadditivity
    # step <psi|sqrt(P^2 + Q^2)|psi>^2 >= <psi|P|psi>^2 + <psi|Q|psi>^2 integrated over Haar psi
    rng = np.random.default_rng(1200 + d)
    for povm in _random_povms(d, 25, rng):
        info, disturbance = haar_info(povm), _min_disturbance(povm)
        while len(povm) > 1:
            i, j = (int(k) for k in rng.choice(len(povm), 2, replace=False))
            povm = qd.coarse_grain(povm, [[i, j], *([k] for k in range(len(povm)) if k not in (i, j))])
            coarser_info, coarser_disturbance = haar_info(povm), _min_disturbance(povm)
            assert coarser_info <= info + EXACT and coarser_disturbance <= disturbance + EXACT
            info, disturbance = coarser_info, coarser_disturbance
        assert info == pytest.approx(0.0, abs=EXACT) and disturbance == pytest.approx(0.0, abs=EXACT)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_flagged_mixing_is_linear(d):
    # the flagged mixture runs procedure i with weight w_i and records i, so both the average
    # fidelity and the information it carries are the weighted sums: the frontier is convex
    rng = np.random.default_rng(1300 + d)
    trivial = qd.POVM(d, (np.eye(d, dtype=complex),))
    makers = list(FAMILIES.values())
    for k in range(12):
        instruments = [qd.sqrt_instrument(trivial)]  # doing nothing, the frontier's p = 0 end
        for i, povm in enumerate(_random_povms(d, 1 + k % 3, rng)):
            instruments.append(makers[(k + i) % len(makers)](povm, rng))
        procedures = [(qd.POVM(d, tuple(induced_effects(inst))), inst) for inst in instruments]
        weights = rng.dirichlet(np.ones(len(procedures)))
        povm, inst = qd.convex_mix(procedures, list(weights))
        parts = np.array(
            [[qd.avg_fidelity_uniform(i).disturbance, _min_disturbance(p), haar_info(p)] for p, i in procedures]
        )
        mixed = [qd.avg_fidelity_uniform(inst).disturbance, _min_disturbance(povm), haar_info(povm)]
        assert np.abs(np.array(mixed) - weights @ parts).max() <= EXACT


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_square_root_dynamics_are_optimal(family):
    # no instrument beats the square-root dynamics of the POVM it measures:
    # F_avg <= (d + sum_b (tr sqrt F_b)^2) / (d(d+1))
    rng = np.random.default_rng(44)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        povm = qd.random_povm(d, int(rng.integers(2, 5)), rng)
        inst = FAMILIES[family](povm, rng)
        effects = induced_effects(inst)
        assert np.abs(sum(effects) - np.eye(d)).max() < EXACT  # trace preserving
        fidelity = qd.avg_fidelity_uniform(inst).avg_fidelity
        assert fidelity <= qd.min_disturbance_uniform(qd.POVM(d, tuple(effects))).avg_fidelity + EXACT
        if family == "remixed":  # a re-decomposition keeps the channel, so its average fidelity too
            assert fidelity == pytest.approx(qd.avg_fidelity_uniform(qd.sqrt_instrument(povm)).avg_fidelity, abs=EXACT)
        else:
            assert all(np.abs(a - b).max() < 1e-9 for a, b in zip(effects, povm.effects, strict=True))
