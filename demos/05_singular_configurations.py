"""A certified singular configuration for any p > 2.

Take the vertices of two axis-aligned cubes in orthogonal coordinate blocks,
each scaled onto the p-norm unit sphere. Symmetry collapses the interpolation
equations to a 2x2 system; at the critical exponent its determinant vanishes
and the full distance matrix inherits an explicit block-constant null vector.
Rescaling the second cube by a solved factor theta* < 1 moves the singular
exponent anywhere above 2, so every p > 2 admits a singular configuration.
The certificate below is the end-to-end check: the points verified to be
exactly the two cubes, so that the distance matrix depends only on Hamming
distance, the reduction verified on the m + n + 3 distances that leaves, and
the null-vector residual, not just the 2x2 algebra.
"""

import numpy as np

from pnormdist import (
    build_distance_matrix,
    certify_singular,
    cube_config,
    find_pmn,
    find_pn,
    find_theta,
    phi,
    reduced_system,
)

# -- the 8-point pair at its critical exponent ------------------------------
root = find_pn(2)
print(f"p_2 = {root.value:.12f}  (bisection residual {root.residual:.1e})")

config = cube_config(2, 2, theta=1.0, p=root.value)
print("configuration:", config.points.n, "points in dimension", config.points.d)

record = certify_singular(config)
print("null vector blocks: lambda =", record.lam, " mu =", record.mu)
print("null residual ||Av|| / (||A|| ||v||) =", record.residual)

# the reduced 2x2 matrix really is the whole story: its kernel, spread
# constant over each cube, kills every row of the 144-entry matrix, and its
# determinant over 2^(m+n) is phi, zero at the root
print("reduced 2x2 matrix:\n", reduced_system(2, 2, 1.0, root.value))
print("scaled determinant phi(2, 2, p_2):", phi(2, 2, root.value))

# -- unequal cubes fill in more exponents -----------------------------------
for m, n in ((2, 3), (3, 3), (3, 4)):
    r = find_pmn(m, n)
    rec = certify_singular(cube_config(m, n, 1.0, r.value))
    print(f"(m,n)=({m},{n}): singular at p={r.value:.8f}, "
          f"null residual {rec.residual:.1e}")

# -- theta scaling reaches every p > 2 ---------------------------------------
for p in (2.2, 2.5, 3.0, 4.0):
    n = 2
    while find_pn(n).value >= p:
        n += 1
    theta = find_theta(n, p)
    rec = certify_singular(cube_config(n, n, theta.value, p))
    print(f"p={p}: n={n}, theta*={theta.value:.10f}, "
          f"cert {'PASS' if rec.passed else 'FAIL'} "
          f"(null residual {rec.residual:.1e})")

# -- sanity: the same pair away from the root is comfortably invertible ------
far = cube_config(2, 2, 1.0, 3.5)
svals = np.linalg.svd(build_distance_matrix(far.points, far.p).entries, compute_uv=False)
print("\nsame 8 points at p=3.5: sigma_min/sigma_max =", svals[-1] / svals[0])
