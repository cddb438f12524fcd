"""Averaging a measurement over all orientations gives isotropic noise.

Conjugating the square-root instrument of any POVM by a Haar-random
unitary and averaging yields a unitarily covariant channel, which in
finite dimension must be depolarizing: rho -> (1-p*) rho + p* I/d. The
mixing probability p* is fixed by the entanglement fidelity of the
original measurement, and the twirled channel keeps exactly the minimal
disturbance of the POVM it came from.
"""

import numpy as np

import infodist as qd

rng = np.random.default_rng(42)

basis = qd.basis_povm(2)
p_star = qd.twirl_depolarizing_p(basis)
print(f"qubit basis POVM: p* = {p_star:.6f} (exact 2/3)")

rho = qd.outer(np.array([1, 0], dtype=complex))
mean, stderr = qd.twirl_channel(basis, rho, 20_000, rng)
target = qd.depolarize(rho, p_star)
print("twirled channel on |0><0| (sampled over 20k unitaries):")
print(np.array_str(mean, precision=4, suppress_small=True))
print("depolarizing target:")
print(np.array_str(target, precision=4, suppress_small=True))
print(f"largest deviation: {np.abs(mean - target).max():.2e} "
      f"(stderr scale {stderr.real.max():.2e})\n")

print("the twirl preserves the original minimal disturbance exactly:")
for d in (2, 3):
    povm = qd.random_povm(d, 3, rng)
    p_mix = qd.twirl_depolarizing_p(povm)
    d_depol = p_mix * (d - 1) / d
    d_min = qd.min_disturbance_uniform(povm).disturbance
    print(f"  d={d}: depolarizing disturbance {d_depol:.8f} vs POVM optimum {d_min:.8f}")

print("\nunitary covariance is what singles the depolarizing family out:")
depol = qd.depolarizing_instrument(3, 0.4)
residuals = []
for _ in range(10):
    state = qd.random_density(3, rng)  # each state is drawn before its unitary
    residuals.append(qd.covariance_check(depol, qd.haar_unitaries(3, 1, rng)[0], state))
print(f"  depolarizing residual  : {max(residuals):.2e} (largest of 10 random pairs)")
dephasing = qd.sqrt_instrument(qd.basis_povm(2))
h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
plus = qd.outer(np.array([1, 1], dtype=complex) / np.sqrt(2))
print(f"  dephasing residual     : {qd.covariance_check(dephasing, h, plus):.2f} (not covariant)")
