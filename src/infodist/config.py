"""Numerical thresholds shared by all modules, and the size limit of ``mub``.

The identities this package checks are exact, so each kind of identity is
tested against one fixed threshold. These are package-wide constants; no
function takes a tolerance argument.

ALGEBRAIC      : exact identities (unitarity, hermiticity, orthogonality)
RECONSTRUCTION : POVM completeness, disturbance report and twirl p* clamps
PSD_SLACK      : how negative an eigenvalue may be before a matrix is
                 rejected as non-positive
HERM_GATE      : asymmetry beyond which a matrix is rejected instead of
                 being symmetrized
SUPPORT_REL    : relative eigenvalue cutoff (times dim * max eigenvalue)
                 below which spectrum is treated as null space
WEIGHT         : slack for probability weights summing to one
STDERR_FLOOR   : added to a Monte Carlo 5-stderr band (twirl-check) so an
                 entry whose samples do not vary is judged, not divided by 0
GRID_SLACK     : how far a frontier p may lie outside [0, d/(d+1)]; such a
                 p is solved at the end it overshoots
TANGENT_REL    : relative size of the Newton step at which the solve for the
                 chord's touch point y*(d) stops; near y* the sign of its
                 residual is rounding noise, over a band 8e-13 wide
                 (relative) at d = 3 and 2e-14 at d = 16, so a smaller
                 step only picks a double inside that band
DESIGN         : bound on design-check's delta = ||D - Pi||_F^2 d(d+1)/2,
                 the squared distance of a vector set's second moment
                 from the Haar one; delta is quadratic in a defect, and
                 its rounding floor is 6.7e-16 on the unbiased bases of
                 every d = 3..49, in process and read back from mub's
                 JSON, while a 1e-7 perturbation per entry reads 1.9e-12
MUB_CAP        : largest dimension p^n for which unbiased bases are built
FRONTIER_CAP   : largest dimension d of ``frontier_curve``; the arc's
                 concavity, on which its solve rests, is tested up to
                 d = 49 (the solve's memory does not grow with d, but its
                 scan starts at y = 1e-3, which y* ~ 0.56/d nears at d ~ 560)
BLOCK_ENTRIES  : entries per block (256 kB of floats): ``form_scores``
                 scores BLOCK_ENTRIES // d^2 states (d^2 coordinates each)
                 and ``family_xlogx`` its y values (145 nodes each) at once;
                 only those temporaries are flat in the count, not the n
                 draws and n scores kept (``info_uniform_mc`` peaks at 5.4 MB
                 at d = 2, n = 1e5; 41 MB at 1e6). ``haar_states``, which
                 the Monte Carlo estimators no longer call, and
                 ``twirl_channel`` are not blocked (the twirl: 5.8 MB at
                 d = 3, n = 1e4; 58 MB at 1e5)
DISTINCT_NUMBERS : distinct number texts the JSON reader parses once each
                 and shares; the d = 49 ``mub`` file holds 14 among its
                 240,100 numbers, and no ``mub`` file more than 91 (d = 47).
                 A file with more is parsed again without the memo, so
                 input with no repeated numbers costs what it would
                 without it
"""

ALGEBRAIC = 1e-10
RECONSTRUCTION = 1e-9
PSD_SLACK = 1e-10
HERM_GATE = 1e-8
SUPPORT_REL = 1e-12
WEIGHT = 1e-12
STDERR_FLOOR = 1e-12
GRID_SLACK = 1e-12
TANGENT_REL = 1e-12
DESIGN = 1e-13
MUB_CAP = 49
FRONTIER_CAP = 49
BLOCK_ENTRIES = 2**15
DISTINCT_NUMBERS = 2**10
