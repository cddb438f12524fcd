"""Tracing the information-disturbance frontier for a qubit.

The depolarizing reduction turns the frontier into a one-parameter family:
for each mixing probability p the disturbance is exactly p(d-1)/d. Every
covariant square-root instrument is a mix of seeds U diag(sqrt(nu)) U†, so
the best information at that disturbance is the upper concave envelope of
the curve (phi(nu), J(nu)) over seed spectra, J the exact Haar average of
q ln q. The envelope is taken on the spectra nu(y) = (d - (d-1) y, y, ...),
one root per point, and the curve is compared here against the straight
line joining the frontier endpoints. Each point lists its seeds as
weight x nu(y); at d = 2 every point is one seed on the arc.

This demo prints a 7-point grid in well under a second; the command
`infodist frontier --d 2 --out curve.csv` writes the 11-point grid.
"""

import numpy as np

import infodist as qd

d = 2
grid = list(np.linspace(0.0, d / (d + 1), 7))

points = qd.frontier_curve(d, grid)

i_max = qd.info_finegrained_exact(d)
print(f"qubit frontier, I_max = {i_max:.4f} nats\n")
print(f"{'p':>6s} {'disturbance':>12s} {'information':>12s} {'straight line':>14s} {'ratio':>6s}  seeds")
for pt in points:
    ratio = pt.info_lower_bound / pt.line_info if pt.line_info > 0 else float("nan")
    seeds = " + ".join(f"{s['weight']:.3f} x nu({s['spectrum'][1]:.4f})" for s in pt.optimizer_meta["seeds"])
    print(f"{pt.p:6.3f} {pt.disturbance:12.6f} {pt.info_lower_bound:12.6f} {pt.line_info:14.6f} {ratio:6.3f}  {seeds}")

print("\nThe frontier clears the straight-line candidate at every interior")
print("point, so it bulges above the line: extra disturbance buys")
print("information at a better rate near the ends than a naive mixture does.")
