"""Critical exponents p_n: where orthogonal cube pairs go singular.

The determinant of the reduced 2x2 system for a pair of equal cubes, scaled
by 2^-(2n), factors through psi_n(p) = 2 B_n - 2^(1/p), where B_n is the
degree-n Bernstein value of t -> t^(1/p) at 1/2. psi_n is strictly
increasing, negative at p = 2, positive for large p, so it has a single root
p_n > 2: the exponent at which the 2^n + 2^n cube points stop determining an
interpolant. The roots decrease to 2 like 1/n: Voronovskaya's expansion of
B_n at 1/2 gives n(p_n - 2) -> 1/(4 ln 2) ~ 0.360674, and `rate_table` checks
each rate against 1/(4 ln 2) < n(p_n - 2) <= 1/(4 ln 2) + 2.5/n.
"""

import math

import numpy as np

from pnormdist import find_pmn, find_pn, psi, psi_limit, rate_table

# -- psi_n on a grid: sign change pinpoints the root ------------------------
grid = np.linspace(2.0, 3.2, 7)
print("p:      ", "  ".join(f"{q:8.3f}" for q in grid))
for n in (2, 3, 5, 10):
    vals = [psi(n, q) for q in grid]
    print(f"psi_{n:<2}: ", "  ".join(f"{v:8.4f}" for v in vals))
print("limit:  ", "  ".join(f"{psi_limit(q):8.4f}" for q in grid), " (zero at p=2)")

# -- the roots and their convergence rate -----------------------------------
print("\n  n      p_n          n*(p_n - 2)")
for n, pn, rate in rate_table([2, 3, 4, 6, 8, 12, 16, 24, 32, 40]):
    print(f"{n:4d}   {pn:.10f}   {rate:.6f}")
print(f"limit  1/(4 ln 2) = {1.0 / (4.0 * math.log(2.0)):.6f}")

# p_2 has a closed form: psi_2 = 0 reduces to x^2 - x/2 - 1 = 0 in x = 2^(1/p)
closed = math.log(2.0) / math.log((1.0 + math.sqrt(17.0)) / 4.0)
print("\np_2 closed form:", closed)
print("p_2 bisection:  ", find_pn(2).value)

# -- mixed pairs interpolate between the equal-pair roots -------------------
p2, p3 = find_pn(2).value, find_pn(3).value
p23 = find_pmn(2, 3).value
print(f"\np_3 = {p3:.8f} < p_(2,3) = {p23:.8f} < p_2 = {p2:.8f}")
