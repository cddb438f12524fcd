"""Numerical thresholds shared by all modules.

The identities this package checks are exact, so each kind of identity is
tested against one fixed threshold. These are package-wide constants; no
function takes a tolerance argument.

ALGEBRAIC      : exact identities (unitarity, hermiticity, orthogonality)
RECONSTRUCTION : fidelity clamp, POVM completeness, disturbance report clamp
PSD_SLACK      : how negative an eigenvalue may be before a matrix is
                 rejected as non-positive
HERM_GATE      : asymmetry beyond which a matrix is rejected instead of
                 being symmetrized
SUPPORT_REL    : relative eigenvalue cutoff (times dim * max eigenvalue)
                 below which spectrum is treated as null space
WEIGHT         : slack for probability weights summing to one
"""

ALGEBRAIC = 1e-10
RECONSTRUCTION = 1e-9
PSD_SLACK = 1e-10
HERM_GATE = 1e-8
SUPPORT_REL = 1e-12
WEIGHT = 1e-12
