"""Schoenberg embedding: AND matrices are squared Euclidean distance matrices.

A symmetric matrix with zero diagonal is almost negative definite exactly
when its entries are |y_i - y_j|^2 for some vectors y_i. The embedding is
constructive: restrict to the zero-sum hyperplane, factor the resulting
non-negative definite matrix, rescale. This turns abstract p-norm facts into
concrete Euclidean geometry: the 1-norm square, for instance, lives on a
genuine Euclidean point set one dimension up.
"""

import numpy as np

from pnormdist import build_distance_matrix, check_and, identity, schoenberg_embed

# -- embed the 1-norm unit square ------------------------------------------
square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
A = build_distance_matrix(square, 1.0).entries
emb = schoenberg_embed(A)
print("embedded vectors (last pinned to the origin):\n", np.round(emb.vectors, 6))
print("max | |y_i-y_j|^2 - A_ij | =", emb.residual)

# -- p-th power matrices embed for every p in (0, 2) -----------------------
rng = np.random.default_rng(7)
for p in (0.5, 1.0, 1.5):
    x = rng.standard_normal((8, 3))
    B = build_distance_matrix(x, p, identity("p-th-power-distance")).entries
    emb = schoenberg_embed(B)
    print(f"p = {p}: ||x_i - x_j||_p^p embeds with residual {emb.residual:.2e}")

# -- the embedding is a round trip -----------------------------------------
sq = emb.squared_distances()
print("round-trip max error:", np.abs(sq - B).max())

# -- and it is exactly the boundary of the AND class -----------------------
# a matrix failing the AND test has no such representation
C = np.array([[0.0, -1.0], [-1.0, 0.0]])
print("\nmatrix [[0,-1],[-1,0]] verdict:", check_and(C).verdict, "(not embeddable)")
