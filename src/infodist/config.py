"""Numerical tolerance configuration shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for the tolerance constants used in validation.

    algebraic      : exact identities (unitarity, hermiticity, orthogonality)
    reconstruction : fidelity clamp, POVM completeness, disturbance report clamp
    psd_slack      : how negative an eigenvalue may be before a matrix is
                     rejected as non-positive
    herm_gate      : asymmetry beyond which a matrix is rejected instead of
                     being symmetrized
    support_rel    : relative eigenvalue cutoff (times dim * max eigenvalue)
                     below which spectrum is treated as null space
    weight         : slack for probability weights summing to one
    """

    algebraic: float = 1e-10
    reconstruction: float = 1e-9
    psd_slack: float = 1e-10
    herm_gate: float = 1e-8
    support_rel: float = 1e-12
    weight: float = 1e-12


DEFAULT_TOL = Tolerances()
