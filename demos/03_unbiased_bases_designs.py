"""Mutually unbiased bases from finite fields, and why they matter here.

In dimension d = p^n (p an odd prime) there are d+1 orthonormal bases with
every cross-basis overlap of modulus 1/sqrt(d), built from the arithmetic
of GF(p^n). Their d(d+1) vectors average degree-2 polynomials in
|psi><psi| exactly like the Haar measure does: a projective 2-design. So
every ensemble-average fidelity in this library can be evaluated on this
finite ensemble with zero sampling error.
"""

import numpy as np

import infodist as qd

print("== field arithmetic behind the construction ==")
spec = qd.find_irreducible(3, 2)
print(f"GF(9) modulus coefficients (constant first): {spec.modulus}")
# element m has the base-3 digits of m as coefficients: x is element 3
print(f"x * x = element {spec.mul[3, 3]}  (x^2 = -1 = 2 under x^2 + 1)")
print(f"traces of all 9 elements: {spec.trace.tolist()}\n")

print("== the bases and their overlaps ==")
for (p, n) in ((3, 1), (3, 2), (5, 1), (7, 1)):
    mub = qd.wootters_fields_mub(p, n)
    unitarity, overlap_dev = qd.mub_validate(mub)
    residual = qd.mub_design_residual(mub)
    d = p**n
    print(f"d={d:2d}: {len(mub.bases)} bases, unitarity residual {unitarity:.1e}, "
          f"overlap deviation {overlap_dev:.1e}, 2-design residual {residual:.1e}")

print("\n== using the design instead of Monte Carlo ==")
rng = np.random.default_rng(11)
povm = qd.random_povm(5, 4, rng)
inst = qd.sqrt_instrument(povm)
exact = qd.avg_fidelity_uniform(inst).avg_fidelity
design = qd.avg_fidelity_design(inst, qd.wootters_fields_mub(5, 1).vectors()).avg_fidelity
mc = qd.avg_fidelity_mc(inst, 20_000, rng)
print(f"exact closed form : {exact:.12f}")
print(f"30-state design   : {design:.12f}   (agrees to {abs(design - exact):.1e})")
print(f"20k-sample MC     : {mc.avg_fidelity:.12f}   (stderr {mc.stderr:.1e})")

print("\nA single basis is NOT a 2-design; the checker sees it immediately:")
single = np.eye(2, dtype=complex)
print(f"distance ||D - Pi||_F^2 d(d+1)/2 for the standard basis alone: {qd.design_check(single):.3f}")
