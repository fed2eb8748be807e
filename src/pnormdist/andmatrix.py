"""Almost-negative-definite (AND) matrix machinery.

A symmetric A is AND when y^T A y <= 0 for every y in the zero-sum
hyperplane Z_n = {y : sum y_i = 0}, and strictly AND when the inequality is
strict for nonzero y. The test basis is f^i = e^n - e^i (i < n), which spans
Z_n with integer entries; in that basis the negated form has the closed-form
entries

    B'_ij = A_in + A_nj - A_ij - A_nn,   1 <= i, j <= n-1,

so A is AND iff B' is non-negative definite, strictly AND iff B' is positive
definite.

An AND matrix with zero diagonal is exactly a matrix of squared Euclidean
distances (Schoenberg): A_ij = |y^i - y^j|^2 for some vectors y^i. The
embedding here follows that construction, fixing y^n = 0.

`check_and` and `schoenberg_embed` reach a verdict by one rule, each from
the spectrum of B' that it computed (`eigvalsh`, `eigh`); within about an
ulp of the cut-off the two spectra, and so the two verdicts, can differ.

A strictly AND matrix with non-negative trace has n-1 negative and 1
positive eigenvalue, hence (-1)^(n-1) det A > 0; `check_and` reads that
sign from the restricted spectrum and one solve with B' (Haynsworth's
inertia formula). The module needs numpy.linalg alone, not scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmbeddingError, NotAndError

VERDICT_NOT_AND = "not-AND"
VERDICT_AND = "AND"
VERDICT_STRICTLY_AND = "strictly-AND"

_VERDICT_RANK = {VERDICT_NOT_AND: 0, VERDICT_AND: 1, VERDICT_STRICTLY_AND: 2}

EIG_TOL = 1e-10  # eigenvalue and determinant cut-off, relative to |A|_max


def verdict_rank(verdict: str) -> int:
    return _VERDICT_RANK[verdict]


def _require_symmetric(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.isfinite(A).all():  # nan != nan would read as asymmetric
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix must be symmetric")
    return A


@dataclass(frozen=True)
class AndReport:
    """Verdict record for one matrix.

    restricted_eigenvalues is the spectrum of the (negated-back) quadratic
    form of A on the zero-sum hyperplane, i.e. the negatives of B''s
    eigenvalues, sorted ascending. det_log_magnitude is None when the
    determinant is numerically zero.
    """

    verdict: str
    restricted_eigenvalues: np.ndarray
    trace: float
    det_sign: int
    det_log_magnitude: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "eigenvalues": [float(v) for v in self.restricted_eigenvalues],
            "trace": float(self.trace),
            "det_sign": int(self.det_sign),
            "det_log_magnitude": (
                "zero" if self.det_log_magnitude is None else float(self.det_log_magnitude)
            ),
        }


def restrict_to_zero_sum(A) -> np.ndarray:
    """Negated form of A on the zero-sum hyperplane, in the e^n - e^i basis.

    Returns the (n-1) x (n-1) matrix B' with B'_ij = A_in + A_nj - A_ij - A_nn.
    A is AND iff B' is non-negative definite; strictly AND iff positive
    definite. This is where A is validated: it must be square, finite,
    symmetric and n >= 2. Raises ValueError when an entry of B' overflows a
    double.
    """
    A = _require_symmetric(A)
    n = A.shape[0]
    if n < 2:
        raise ValueError("need n >= 2 (the zero-sum hyperplane of a 1x1 matrix is trivial)")
    with np.errstate(over="ignore"):
        B = A[:-1, -1][:, None] + A[-1, :-1][None, :] - A[:-1, :-1] - A[-1, -1]
    if not np.isfinite(B).all():
        raise ValueError("the zero-sum restriction of the matrix overflows a double; rescale it")
    return B


def det_sign_logmag(A: np.ndarray, B: np.ndarray, mu: np.ndarray, cut: float):
    """Sign and log-magnitude of det(A) from its restricted spectrum mu = eig(B).

    T^T A T = [[-B, c], [c^T, a]] for T's columns e^n - e^i (i < n) and e^n,
    with c_i = A_nn - A_in and a = A_nn, and |det T| = 1. By the number z
    of mu_i with |mu_i| <= cut: z = 0 gives det A = det(-B) s with
    s = a + c^T B^-1 c (Haynsworth); z = 1 takes B = Q diag(mu) Q^T and
    b = Q^T c, and with mu_k the small one gives det A = prod_{i!=k} (-mu_i)
    det [[-mu_k, b_k], [b_k, r]], r = a + sum_{i!=k} b_i^2 / mu_i, exact for
    any mu_k; z >= 2 gives det A = 0 (A has a null vector in the zero-sum
    hyperplane). det A is zero, returned as (0, None), when |s| or the
    smaller eigenvalue in magnitude of that 2x2 block is at most `cut`, as
    for a pivot, or when the solve with B fails. The log-magnitude is a sum
    of logs, so it never overflows; `check_and` scales the cut-off with A.
    """
    c = A[-1, -1] - A[:-1, -1]
    (small,) = np.nonzero(np.abs(mu) <= cut)
    if len(small) > 1:
        return 0, None
    if len(small) == 1:
        mu, Q = np.linalg.eigh(B)
        b = Q.T @ c
        rest = np.arange(len(mu)) != small[0]
        mu_k, b_k, mu = float(mu[small[0]]), float(b[small[0]]), mu[rest]
        r = float(A[-1, -1] + np.sum(b[rest] * (b[rest] / mu)))
        # the block's larger eigenvalue in magnitude bounds |mu_k|, |b_k| and
        # |r|, so dividing its determinant by it cannot overflow
        big = 0.5 * abs(r - mu_k) + math.hypot(0.5 * (r + mu_k), b_k)
        if big == 0.0:
            return 0, None
        factor, log_big = -b_k * (b_k / big) - mu_k * (r / big), math.log(big)
    else:
        try:
            factor = float(A[-1, -1] + c @ np.linalg.solve(B, c))
        except np.linalg.LinAlgError:  # B is singular in working precision
            return 0, None
        log_big = 0.0
    if abs(factor) <= cut:
        return 0, None
    sign = -1 if (np.count_nonzero(mu > 0) + (factor < 0.0)) % 2 else 1
    return sign, float(np.sum(np.log(np.abs(mu)))) + log_big + math.log(abs(factor))


def _verdict(mu: np.ndarray, cut: float) -> str:
    """The verdict on A from B''s spectrum mu: the one place a cut-off meets a spectrum."""
    if mu.min() > cut:
        return VERDICT_STRICTLY_AND
    return VERDICT_AND if mu.min() >= -cut else VERDICT_NOT_AND


def _report(A: np.ndarray, B: np.ndarray, mu: np.ndarray, cut: float) -> AndReport:
    """The report on A from B' = restrict_to_zero_sum(A) and B''s ascending spectrum mu."""
    sign, logmag = det_sign_logmag(A, B, mu, cut)
    return AndReport(_verdict(mu, cut), -mu[::-1], float(np.trace(A)), sign, logmag)


def check_and(A) -> AndReport:
    """Classify A as not-AND / AND / strictly-AND from its restricted spectrum.

    Eigenvalue comparisons are relative to scale = |A|_max, so the verdict
    does not change when A is multiplied by a positive number; the
    determinant sign and log-magnitude come from the same spectrum and one
    solve with B' (`det_sign_logmag`), with the same cut-off
    EIG_TOL * |A|_max. Only numpy.linalg runs here.
    """
    A = np.asarray(A, dtype=float)
    B = restrict_to_zero_sum(A)
    return _report(A, B, np.linalg.eigvalsh(B), EIG_TOL * float(np.abs(A).max()))


@dataclass(frozen=True)
class Embedding:
    """Vectors y^1..y^n with |y^i - y^j|^2 reproducing a zero-diagonal AND matrix.

    y^n = 0 exactly by construction; residual = max_ij | |y^i-y^j|^2 - A_ij |.
    """

    vectors: np.ndarray
    residual: float

    def squared_distances(self) -> np.ndarray:
        return _squared_distances(self.vectors)


def _squared_distances(Y: np.ndarray) -> np.ndarray:
    """|y^i - y^j|^2 for the rows y^i of Y, read from their Gram matrix."""
    G = Y @ Y.T
    return np.diag(G)[:, None] + np.diag(G)[None, :] - 2.0 * G


def schoenberg_embed(A) -> Embedding:
    """Embed a zero-diagonal AND matrix as squared Euclidean distances.

    Construction: B' = restrict_to_zero_sum(A); P with P^T P = B' from one
    eigendecomposition B' = V diag(w) V^T, as the rows sqrt(w_i) v_i^T in
    ascending order of w_i; the embedding vectors are the columns of
    P/sqrt(2) plus the zero vector, in dimension n-1. An eigenvalue of B'
    below the cut-off -EIG_TOL*|A|_max of `check_and` means A is not AND, and
    raises NotAndError carrying the report read from this same spectrum;
    eigenvalues in [-EIG_TOL*|A|_max, 0] are clamped to 0, so rank-deficient
    (merely AND) matrices embed. Distinctness transfers: A_ij != 0 for i != j
    implies y^i != y^j. The residual must stay within 10*EIG_TOL*|A|_max, a
    cut-off that scales with A.
    """
    A = np.asarray(A, dtype=float)
    B = restrict_to_zero_sum(A)
    if np.any(np.diag(A) != 0.0):
        raise ValueError("matrix must have an exactly zero diagonal")
    scale = float(np.abs(A).max())
    cut = EIG_TOL * scale
    w, V = np.linalg.eigh(B)
    if _verdict(w, cut) == VERDICT_NOT_AND:
        raise NotAndError(
            "matrix is not almost negative definite; no squared-distance embedding exists",
            record=_report(A, B, w, cut),
        )
    P = np.sqrt(np.clip(w, 0.0, None))[:, None] * V.T  # P^T P = B
    vectors = np.vstack([P.T / math.sqrt(2.0), np.zeros(len(w))])  # y^n = 0
    residual = float(np.abs(_squared_distances(vectors) - A).max())
    if residual > 10.0 * EIG_TOL * scale:
        raise EmbeddingError(
            f"embedding residual {residual:.3e} exceeds tolerance {10.0 * EIG_TOL * scale:.3e}"
        )
    return Embedding(vectors=vectors, residual=residual)
