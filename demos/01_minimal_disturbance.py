"""How gently can a given measurement be performed?

Any POVM admits many post-measurement dynamics. Averaged over a completely
unknown (Haar-random) pure input, the gentlest choice is always the
square-root update rho -> sqrt(F_b) rho sqrt(F_b), and its disturbance has
a closed form. This script evaluates that optimum and shows how every
other compatible dynamics does worse.
"""

import numpy as np

import infodist as qd

rng = np.random.default_rng(2024)

print("== minimal disturbance on the uniform ensemble ==\n")

# A projective qubit measurement and the symmetric three-outcome trine both
# consist of rank-one effects, so both sit at the same optimum (d-1)/(d+1).
for name, povm in [("qubit basis", qd.basis_povm(2)), ("qubit trine", qd.trine_povm())]:
    report = qd.min_disturbance_uniform(povm)
    print(f"{name:12s}: D_min = {report.disturbance:.6f}   (expected 1/3)")

# Generic full-rank POVMs do better; the trivial measurement does nothing.
povm = qd.random_povm(3, 4, rng)
print(f"random d=3  : D_min = {qd.min_disturbance_uniform(povm).disturbance:.6f}")
trivial = qd.POVM(3, (np.eye(3, dtype=complex),))
print(f"trivial     : D_min = {qd.min_disturbance_uniform(trivial).disturbance:.6f}\n")

# The square-root instrument attains the bound. Rotating its branches with
# extra unitaries, or splitting each branch into several Kraus operators,
# is compatible with the same POVM but only ever adds disturbance.
best = qd.min_disturbance_uniform(povm).avg_fidelity
sqrt_fid = qd.avg_fidelity_uniform(qd.sqrt_instrument(povm)).avg_fidelity
print(f"square-root dynamics: F = {sqrt_fid:.6f} (optimum {best:.6f})")

rotated = qd.one_term_instrument(povm, [qd.haar_unitaries(3, 1, rng)[0] for _ in povm.effects])
print(f"rotated branches    : F = {qd.avg_fidelity_uniform(rotated).avg_fidelity:.6f}")

blocks = qd.isometry_kraus(qd.random_stinespring_isometry(3, 2, rng))
multi = qd.Instrument(3, tuple(tuple(b @ a for b in blocks) for (a,) in qd.sqrt_instrument(povm).branches))
print(f"two-term branches   : F = {qd.avg_fidelity_uniform(multi).avg_fidelity:.6f}")

# Cross-check the closed form against plain Monte Carlo over Haar states.
mc = qd.avg_fidelity_mc(qd.sqrt_instrument(povm), 50_000, rng)
print(f"\nMonte Carlo check   : F = {mc.avg_fidelity:.6f} +- {mc.stderr:.6f} (exact {sqrt_fid:.6f})")
