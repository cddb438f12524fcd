"""Information yield of measurements on a completely unknown pure state.

For the Haar ensemble every measurement whose effects are proportional to
rank-one projectors extracts exactly log d - sum_{k=1}^{d-1} 1/(1+k) nats,
no matter how the weights are distributed. The building blocks are two
exact Haar integrals, checked here by direct sampling: the second moment
``pair_moment`` and the average of q ln q, ``haar_xlogx``, which depends on
the spectrum of the effect alone.
"""

import numpy as np

import infodist as qd

rng = np.random.default_rng(7)

print("== Haar integrals ==")
a, b = qd.haar_states(3, 1, rng)[0], qd.haar_states(3, 1, rng)[0]
exact = qd.pair_moment(qd.outer(a), qd.outer(b)).real
states = qd.haar_states(3, 200_000, rng)
vals = np.abs(states @ a.conj()) ** 2 * np.abs(states @ b.conj()) ** 2
print(f"E |<psi|a>|^2 |<psi|b>|^2 = {exact:.6f}  (sampled {vals.mean():.6f})")

exact = qd.haar_xlogx([1.0, 0.0, 0.0])
u = np.abs(states[:, 0]) ** 2
print(f"E u ln u with u=|<0|psi>|^2 = {exact:.6f}  (sampled {np.mean(u * np.log(u)):.6f})\n")

print("== mutual information of fine-grained measurements ==")
for d in (2, 3, 4, 5):
    print(f"d={d}: I_max = {qd.info_finegrained_exact(d):.6f} nats"
          f" = {qd.info_finegrained_exact(d) / np.log(2):.6f} bits")

print("\nThe value does not depend on which rank-one POVM is measured:")
for name, povm in [("basis", qd.basis_povm(2)), ("trine", qd.trine_povm()),
                   ("random rank-1", qd.random_povm(2, 4, rng, rank=1))]:
    report = qd.info_uniform_mc(povm, 100_000, rng)
    print(f"  {name:14s}: {report.mutual_info:.5f} +- {report.stderr:.5f} nats")
print(f"  closed form   : {qd.info_finegrained_exact(2):.5f} nats")

print("\nCoarse measurements gather less; mixing with doing nothing is linear:")
basis = qd.basis_povm(2)
ensemble = [(qd.haar_states(2, 1, rng)[0], 0.1) for _ in range(10)]
full = qd.info_finite_ensemble(basis, ensemble).mutual_info
trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
    mixed, _ = qd.convex_mix(
        [(trivial, qd.sqrt_instrument(trivial)), (basis, qd.sqrt_instrument(basis))],
        [alpha, 1 - alpha],
    )
    got = qd.info_finite_ensemble(mixed, ensemble).mutual_info
    print(f"  alpha={alpha:.2f}: info = {got:.6f}  (linear prediction {(1 - alpha) * full:.6f})")
