"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Criteria 2, 4, 7 and 8 are exercised through seeded helper
functions so the determinism criterion can rerun them byte for byte."""

import time

import numpy as np
import pytest

import infodist as qd
from infodist import serialize

LN2 = float(np.log(2.0))


def _stamp(number, name, t0):
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - t0:.2f} s)")


# -- seeded pipelines reused by the determinism criterion ---------------------


def run_info_reports(seed=0, samples=100_000):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    reports = [
        qd.info_uniform_mc(qd.basis_povm(2), samples, rng),
        qd.info_uniform_mc(qd.trine_povm(), samples, rng),
    ]
    payload = serialize.dumps([serialize.report_to_json(r) for r in reports])
    return reports, payload.encode(), time.perf_counter() - t0


def random_instrument(d, rng):
    """A spread of instrument families compatible with random POVMs."""
    povm = qd.random_povm(d, int(rng.integers(2, 5)), rng)
    kind = int(rng.integers(4))
    if kind == 0:
        return qd.sqrt_instrument(povm)
    if kind == 1:
        us = [qd.haar_unitaries(d, 1, rng)[0] for _ in povm.effects]
        return qd.one_term_instrument(povm, us)
    if kind == 2:
        blocks = qd.isometry_kraus(qd.random_stinespring_isometry(d, 2, rng))
        roots = [a for (a,) in qd.sqrt_instrument(povm).branches]
        return qd.Instrument(d, tuple(tuple(b @ r for b in blocks) for r in roots))
    return qd.reset_instrument(povm, qd.haar_states(d, 1, rng)[0])


def run_mc_vs_exact(seed=1, samples=100_000, trials=20):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        inst = random_instrument(d, rng)
        exact = qd.avg_fidelity_uniform(inst)
        mc = qd.avg_fidelity_mc(inst, samples, rng)
        rows.append((exact, mc))
    payload = serialize.dumps(
        [[serialize.report_to_json(a), serialize.report_to_json(b)] for a, b in rows]
    )
    return rows, payload.encode(), time.perf_counter() - t0


def run_twirl(seed=2, samples=10_000, n_states=5):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    basis = qd.basis_povm(2)
    results = []
    for _ in range(n_states):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        mean, stderr = qd.twirl_channel(basis, rho, samples, rng)
        results.append((rho, mean, stderr))
    payload = serialize.dumps(
        [
            {
                "rho": serialize.matrix_to_json(rho),
                "mean": serialize.matrix_to_json(mean),
                "stderr": serialize.matrix_to_json(stderr),
            }
            for rho, mean, stderr in results
        ]
    )
    return results, payload.encode(), time.perf_counter() - t0


def run_frontier():
    t0 = time.perf_counter()
    grid = list(np.linspace(0.0, 2.0 / 3.0, 11))
    points = qd.frontier_curve(2, grid)
    return points, serialize.frontier_to_csv(points).encode(), time.perf_counter() - t0


@pytest.fixture(scope="module")
def info_run():
    return run_info_reports()


@pytest.fixture(scope="module")
def mc_vs_exact_run():
    return run_mc_vs_exact()


@pytest.fixture(scope="module")
def twirl_run():
    return run_twirl()


@pytest.fixture(scope="module")
def frontier_run():
    return run_frontier()


# -- the criteria --------------------------------------------------------------


def test_criterion_1_min_disturbance_finegrained():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for d in (2, 3, 4, 5):
        target = (d - 1) / (d + 1)
        for _ in range(20):
            povm = qd.random_povm(d, 2 * d, rng, rank=1)
            got = qd.min_disturbance_uniform(povm).disturbance
            assert abs(got - target) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _stamp(1, "minimal disturbance of fine-grained POVMs", t0)


def test_criterion_2_finegrained_information(info_run):
    t0 = time.perf_counter()
    reports, _, elapsed = info_run
    target = LN2 - 0.5
    for report in reports:
        assert report.samples == 100_000
        assert abs(report.mutual_info - target) <= 5 * report.stderr
    assert elapsed < 30.0
    _stamp(2, "fine-grained information closed form", t0 - elapsed)


def test_criterion_3_mub_two_designs():
    t0 = time.perf_counter()
    for (p, n) in ((3, 1), (5, 1), (7, 1), (3, 2)):
        mub = qd.wootters_fields_mub(p, n)
        unitarity, overlap_dev = qd.mub_validate(mub)
        assert unitarity < 1e-12
        assert overlap_dev < 1e-12
        assert qd.mub_design_residual(mub) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _stamp(3, "unbiased bases form 2-designs", t0)


def test_criterion_4_exact_vs_monte_carlo(mc_vs_exact_run):
    t0 = time.perf_counter()
    rows, _, elapsed = mc_vs_exact_run
    assert len(rows) == 20
    for exact, mc in rows:
        assert abs(mc.avg_fidelity - exact.avg_fidelity) <= 5 * mc.stderr
    assert elapsed < 60.0
    _stamp(4, "exact average fidelity matches Monte Carlo", t0 - elapsed)


def test_criterion_5_superadditivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    margins = []
    for _ in range(10_000):
        d = int(rng.integers(2, 7))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        margins.append(
            qd.superadditivity_margin(x @ x.conj().T / d, y @ y.conj().T / d, qd.haar_states(d, 1, rng)[0])
        )
    assert np.min(margins) >= -1e-12  # np.min propagates NaN; Python's min(inf, nan) is inf

    for _ in range(1000):
        d = int(rng.integers(2, 7))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        p1 = x @ x.conj().T / d
        c = float(rng.uniform(0.1, 3.0))
        margin = qd.superadditivity_margin(p1, c * p1, qd.haar_states(d, 1, rng)[0])
        assert abs(margin) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _stamp(5, "superadditivity of squared overlaps", t0)


def test_criterion_6_entanglement_fidelity_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        povm = qd.random_povm(d, int(rng.integers(2, 5)), rng)
        m = qd.random_stinespring_isometry(d, int(rng.integers(1, 4)), rng)
        lhs, rhs = qd.entfid_bound_check(povm, m)
        assert lhs <= rhs + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _stamp(6, "multi-term dynamics never beat square root at I/d", t0)


def test_criterion_7_twirl_is_depolarizing(twirl_run):
    t0 = time.perf_counter()
    results, _, elapsed = twirl_run
    assert len(results) == 5
    for rho, mean, stderr in results:
        target = qd.depolarize(rho, 2.0 / 3.0)
        diff = mean - target
        assert np.all(np.abs(diff.real) <= 5 * stderr.real + 1e-12)
        assert np.all(np.abs(diff.imag) <= 5 * stderr.imag + 1e-12)
    assert elapsed < 60.0
    _stamp(7, "Haar twirl reproduces the depolarizing channel", t0 - elapsed)


def test_criterion_8_frontier_endpoints_and_dominance(frontier_run):
    t0 = time.perf_counter()
    points, _, elapsed = frontier_run
    assert len(points) == 11

    first = points[0]
    assert first.p == 0.0 and first.disturbance == 0.0 and first.info_lower_bound == 0.0

    last = points[-1]
    assert last.disturbance == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert last.info_lower_bound >= 0.95 * (LN2 - 0.5)

    for pt in points:
        assert pt.info_lower_bound >= 0.95 * pt.line_info
    assert elapsed < 900.0
    _stamp(8, "frontier endpoints and line dominance", t0 - elapsed)


def test_criterion_9_restore_counterexample():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    for d in (2, 3, 4):
        psi = qd.haar_states(d, 1, rng)[0]
        _, _, gain = qd.restore_counterexample(d, psi)
        assert abs(gain - 1.0) < 1e-12
        assert gain > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _stamp(9, "restoration counterexample has unit gain", t0)


def test_criterion_10_determinism(info_run, mc_vs_exact_run, twirl_run, frontier_run):
    t0 = time.perf_counter()
    assert run_info_reports()[1] == info_run[1]
    assert run_mc_vs_exact()[1] == mc_vs_exact_run[1]
    assert run_twirl()[1] == twirl_run[1]
    assert run_frontier()[1] == frontier_run[1]
    _stamp(10, "seeded reruns are byte-identical", t0)
