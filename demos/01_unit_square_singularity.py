"""The unit square under the 1-norm: a distance matrix that silently dies.

Four distinct, perfectly innocuous points. Their 1-norm distance matrix is
singular, so RBF interpolation with phi(r) = r and the 1-norm cannot match
arbitrary data on them. This script walks through the diagnosis and two
rescues: moving p into (1, 2], or composing with a positive definite kernel.
"""

import numpy as np

from pnormdist import build_distance_matrix, check_and, compose, exponential, identity
from pnormdist.profiles import POSITIVE_DEFINITE, matrix_from_profile

square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

print("points:", square)

# -- the 1-norm distance matrix -------------------------------------------
A = build_distance_matrix(square, p=1.0).entries
print("\n1-norm distance matrix:\n", A)

report = check_and(A)
print("\nverdict:", report.verdict)
print("determinant sign:", report.det_sign, "(0 means numerically singular)")
print("eigenvalues:", np.linalg.eigvalsh(A))

# the kernel is the alternating vector: opposite corners get equal weight
u, s, vt = np.linalg.svd(A)
print("smallest singular value:", s[-1])
print("null vector:", np.round(vt[-1] / np.abs(vt[-1]).max(), 12))

# -- rescue 1: perturb p into (1, 2] --------------------------------------
# for every p in (1, 2] the p-norm matrix of distinct points is strictly
# almost negative definite, hence invertible with known determinant sign
for p in (1.01, 1.5, 2.0):
    rep = check_and(build_distance_matrix(square, p).entries)
    print(f"p = {p:4}: verdict = {rep.verdict}, det_sign = {rep.det_sign}")

# -- rescue 2: compose with a strictly positive definite kernel -----------
# exp(-||x - y||_1) is positive definite on distinct points even at p = 1
res = matrix_from_profile(square, 1.0, compose(exponential(), identity()))
print("\nexp(-r) at p = 1: min eigenvalue =", res.min_eigenvalue)
print("positive definite guaranteed:", res.predicted == POSITIVE_DEFINITE)
